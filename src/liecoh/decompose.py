"""Assembling H^{p,q}(G; h) from factor cohomologies.

For an elliptic h with k the intersection of h with its conjugate and an
ideal complement u (k + u = h directly), the bigraded cohomology factors
through the quotient by K = exp(k in g_R): a Kunneth convolution of the de Rham
cohomology of k with the fiber cohomologies H^r(h, k; Lambda^p(g/h)^*)
(Hochschild-Serre, Ann. Math. 57, 1953; Bott, Ann. Math. 66, 1957).
The fiber is row p of the direct bigraded complex made relative to k: its
cochains are the k-invariant ones on the cells of row p that vanish on k.
So the assembly is the Leray/Bott route to the same H^{p,q} that
`cohomology.bigraded_cohomology` computes directly, and both read blocks
of d of a frame of (g, h) with its one complement rule, the conjugates of
h's rows first: here on the basis [k | a complement of k in h | W]
(`AdaptedFrame` with k as its pair), which also gives H^s(k), checks that
h is closed and grades the fibers by its torus.
"""

from __future__ import annotations

from .algebra import AlgebraError, LieAlgebra
from .cohomology import AdaptedFrame, CohomologyTable
from .linalg import ExactMatrix, rank_kernel, vec_conj, vec_dot
from .scalars import _gauss
from .subalgebra import Subalgebra


# ---------------------------------------------------------------------------
# Kunneth convolution
# ---------------------------------------------------------------------------


def kunneth_assemble(omega: dict, k_dims: dict) -> CohomologyTable:
    """dims(p, q) = sum_{r+s=q} omega(p, r) * k(s), for omega keyed by
    (p, r) and k_dims by degree s."""
    dims = {}
    if omega and k_dims:
        max_p = max(p for (p, _) in omega)
        max_r = max(r for (_, r) in omega)
        max_s = max(k_dims)
        for p in range(max_p + 1):
            for q in range(max_r + max_s + 1):
                total = 0
                for r in range(q + 1):
                    total += omega.get((p, r), 0) * k_dims.get(q - r, 0)
                dims[(p, q)] = total
    return CohomologyTable(dims=dims)


# ---------------------------------------------------------------------------
# Bott fiber cohomology
# ---------------------------------------------------------------------------


def bott_dolbeault(k_alg, u_star: Subalgebra, pair_sub: Subalgebra, p: int) -> CohomologyTable:
    """H^q of the quotient complex manifold with p-form coefficients,
    computed as H^q(u_star, pair; Lambda^p(k/u_star)^*) with the adjoint
    action: the fiber of row p on the frame of (k_alg, u_star) that lists
    the pair first."""
    return AdaptedFrame(k_alg, u_star, pair=pair_sub).fiber(p)


# ---------------------------------------------------------------------------
# ad-invariant products and the full assembly
# ---------------------------------------------------------------------------


def killing_form(g: LieAlgebra) -> ExactMatrix:
    """B(X, Y) = tr(ad_X ad_Y) on the real basis.

    Summed from the structure constants: with [X_i, X_a] = sum_b
    c_{ia}^b X_b, B_ij = sum over a, b of c_{ia}^b c_{jb}^a.  It is
    symmetric in i and j, so only j >= i is summed, on the constants
    times their common denominator den; each sum is then divided by den^2.
    """
    n = g.dim
    den, table = g._ints
    # ad[i][(a, b)] = den c_{ia}^b, den times the (b, a) entry of ad_{X_i}
    ad = [
        {(a, b): c for a in range(n) for b, c in table.get((i, a), {}).items()}
        for i in range(n)
    ]
    data = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            acc = 0
            for (a, b), c in ad[i].items():
                other = ad[j].get((b, a))
                if other is not None:
                    acc += c * other
            data[i][j] = data[j][i] = _gauss(acc, 0, den * den)
    return ExactMatrix._of(n, n, data)


def validate_ad_invariant(g: LieAlgebra, gram: ExactMatrix):
    """None when <[X,Y],Z> = -<Y,[X,Z]> on all basis triples, else the
    first failing (i, j, k).

    With <v, w> = v^T G w and ad_i the matrix of [X_i, .], entry (j, k) of
    ad_i^T G + G ad_i is <[X_i, X_j], X_k> + <X_j, [X_i, X_k]>, for any G.
    """
    for i in range(g.dim):
        ad = g.ad_matrix(g.basis_vector(i))
        residual = ad.transpose().matmul(gram) + gram.matmul(ad)
        for j, row in enumerate(residual.row_list()):
            for k, x in enumerate(row):
                if not x.is_zero():
                    return (i, j, k)
    return None


def default_inner_product(g: LieAlgebra) -> ExactMatrix:
    """Negative Killing form; raises when it is degenerate (supply a Gram
    matrix then)."""
    B = killing_form(g).scale(-1)
    r, _ = rank_kernel(B)
    if r != g.dim:
        raise AlgebraError("the Killing form is degenerate; supply an ad-invariant Gram matrix")
    return B


def ideal_complement(g: LieAlgebra, h: Subalgebra, k_sub: Subalgebra, gram: ExactMatrix) -> Subalgebra:
    """Orthocomplement of k inside h for the Hermitian extension of the
    ad-invariant product; verified to satisfy [h, u] in u."""
    h_rows = h.vectors()
    k_rows = k_sub.vectors()
    if not k_rows:
        u = h
    else:
        # <la, kb> = la^T B conj(kb) for the real symmetric B, with
        # B conj(kb) formed once per kb
        paired = [gram.apply(vec_conj(kb)) for kb in k_rows]
        constraint = ExactMatrix.from_rows([[vec_dot(w, la) for la in h_rows] for w in paired])
        _, kern = rank_kernel(constraint)
        coeffs = ExactMatrix._of(len(kern), len(h_rows), kern)
        u = Subalgebra.span(g, coeffs.matmul(h.basis).row_list())
    if u.dim + k_sub.dim != h.dim or k_sub.sum_with(u).dim != h.dim:
        raise AlgebraError("orthocomplement of k in h is not a complement (degenerate restriction)")
    for a, hv in enumerate(h_rows):
        for b, uv in enumerate(u.vectors()):
            if not u.contains(g.bracket(hv, uv)):
                raise AlgebraError(
                    f"orthocomplement is not an ideal in h: witness rows ({a}, {b})"
                )
    return u


class AssemblyReport:
    """Inputs, factor tables and the assembled H^{p,q} with consistency
    notes; `fiber_dual` and `table_dual` carry the p-form coefficients
    Lambda^p(g/h)^*."""

    def __init__(self, k_sub: Subalgebra, u_ideal: Subalgebra, k_table: CohomologyTable,
                 fiber_dual: dict, table_dual: CohomologyTable, p_totals: dict,
                 riemann_comparison: dict | None = None, notes: list | None = None):
        self.k_sub = k_sub
        self.u_ideal = u_ideal
        self.k_table = k_table
        self.fiber_dual = fiber_dual
        self.table_dual = table_dual
        self.p_totals = p_totals
        self.riemann_comparison = {} if riemann_comparison is None else riemann_comparison
        self.notes = [] if notes is None else notes

    def to_json_dict(self) -> dict:
        return {
            "k": self.k_sub.to_json_dict(),
            "u_ideal": self.u_ideal.to_json_dict(),
            "k_betti": {str(k): v for k, v in sorted(self.k_table.dims.items())},
            "fiber_dual": {
                str(p): {str(r): v for r, v in sorted(t.dims.items())}
                for p, t in sorted(self.fiber_dual.items())
            },
            "dims": self.table_dual.to_json_dict()["dims"],
            "p_summed_totals": {str(q): v for q, v in sorted(self.p_totals.items())},
            "riemann_comparison": self.riemann_comparison,
            "notes": list(self.notes),
        }


def full_assembly(g: LieAlgebra, h: Subalgebra, gram: ExactMatrix | None = None) -> AssemblyReport:
    """Assemble H^{p,q}(G; h) for elliptic h on semisimple compact G.

    u_star is realized as h itself; the fiber factor in bidegree p is
    H^r(h, k; Lambda^p(g/h)^*), the de Rham factor is H^s(k), and
    dims(p, q) is their Kunneth convolution, all on one frame of g.  h is
    refused when it belongs to another algebra, then when it is not
    bracket-closed, then when it is not elliptic: h + conj(h) = g, read as
    2 dim h - dim k = dim g.
    """
    k_sub = h.intersect(h.conj())
    # one frame serves H^s(k) and every fiber, and checks the parent and closure
    frame = AdaptedFrame(g, h, pair=k_sub)
    if 2 * h.dim - k_sub.dim != g.dim:
        raise AlgebraError("full assembly requires an elliptic structure")
    if gram is None:
        gram = default_inner_product(g)
    else:
        if gram.rows != g.dim or gram.cols != g.dim:
            raise AlgebraError("Gram matrix shape mismatch")
        witness = validate_ad_invariant(g, gram)
        if witness is not None:
            raise AlgebraError(f"Gram matrix is not ad-invariant: witness {witness}")
    u_ideal = ideal_complement(g, h, k_sub, gram)
    n = h.dim
    m = g.dim - n
    k_table = frame.pair_cohomology()
    fiber_dual = {p: frame.fiber(p) for p in range(m + 1)}
    omega = {(p, r): v for p, table in fiber_dual.items() for r, v in table.dims.items()}
    table_dual = kunneth_assemble(omega, k_table.dims)
    p_totals = {}
    for (p, q), v in table_dual.dims.items():
        p_totals[q] = p_totals.get(q, 0) + v
    riemann = {}
    if h.dim == g.dim - 1:
        expected = {
            q: k_table.dims.get(q, 0) + k_table.dims.get(q - 1, 0) for q in range(n + 1)
        }
        riemann = {
            "expected_Hq_plus_Hq_minus_1": {str(q): v for q, v in expected.items()},
            "p_summed_matches": all(p_totals.get(q, 0) == expected[q] for q in expected),
            "per_pq_matches": all(
                table_dual.dims.get((p, q), 0) == expected[q]
                for p in range(m + 1)
                for q in expected
            ),
        }
    notes = [
        "K = exp(k in g_R) is assumed closed (user assertion, not checkable "
        "from structure constants)",
        "compactness and semisimplicity of G are user assertions",
        "licensing regime: for a left-invariant elliptic structure with "
        "closed orbits on a connected semisimple compact group, these "
        "algebraic dimensions equal the analytic cohomology dimensions; "
        "outside that regime the comparison map is injective only",
    ]
    return AssemblyReport(
        k_sub, u_ideal, k_table, fiber_dual, table_dual, p_totals,
        riemann_comparison=riemann, notes=notes,
    )
