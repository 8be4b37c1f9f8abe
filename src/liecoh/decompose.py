"""Assembling H^{p,q}(G; h) from factor cohomologies.

For an elliptic h with k the intersection of h with its conjugate and an
ideal complement u (k + u = h directly), the bigraded cohomology factors
through the quotient by K = exp(k in g_R): a Kunneth convolution of the de Rham
cohomology of k with fiber cohomologies computed, via the adjoint
action, as relative cohomology H^r(h, k; Lambda^p(g/h)).  The dual
exterior power reproduces the Dolbeault numbers of the quotient on the
worked fixtures; the non-dual variant is computed alongside and any
disagreement is reported, not resolved silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import AlgebraError, LieAlgebra, Subalgebra
from .classify import classify_structure
from .cohomology import (
    RELATIVE_CLOSURE,
    AdaptedFrame,
    CohomologyTable,
    GModule,
    ce_cohomology,
)
from .linalg import ExactMatrix, rank_kernel, vec_conj, vec_dot


class NotEllipticError(AlgebraError):
    pass


class NoIdealComplementError(AlgebraError):
    pass


# ---------------------------------------------------------------------------
# coefficient modules
# ---------------------------------------------------------------------------


def adjoint_quotient_module(amb, u: Subalgebra, p: int, dual: bool = False) -> GModule:
    """Lambda^p of the quotient (amb / u) as a u-module via the adjoint
    action; `dual` takes the contragredient.  See
    `AdaptedFrame.quotient_module`."""
    return AdaptedFrame(amb, u).quotient_module(p, dual)


# ---------------------------------------------------------------------------
# Kunneth convolution
# ---------------------------------------------------------------------------


def _as_pq_dims(table) -> dict:
    dims = table.dims if isinstance(table, CohomologyTable) else dict(table)
    out = {}
    for key, v in dims.items():
        if not isinstance(key, tuple):
            raise AlgebraError("expected (p, r)-keyed dimensions")
        out[key] = v
    return out


def _as_degree_dims(table) -> dict:
    dims = table.dims if isinstance(table, CohomologyTable) else dict(table)
    out = {}
    for key, v in dims.items():
        if isinstance(key, tuple):
            raise AlgebraError("expected degree-keyed dimensions")
        out[int(key)] = v
    return out


def kunneth_assemble(omega_table, k_table) -> CohomologyTable:
    """dims(p, q) = sum_{r+s=q} omega(p, r) * k(s)."""
    omega = _as_pq_dims(omega_table)
    k_dims = _as_degree_dims(k_table)
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
    action."""
    outer = AdaptedFrame(k_alg, u_star)
    module = outer.quotient_module(p, dual=True)
    inner = AdaptedFrame(outer.u_algebra, pair_sub, closure_message=RELATIVE_CLOSURE)
    return inner.relative_cohomology(module)


# ---------------------------------------------------------------------------
# ad-invariant products and the full assembly
# ---------------------------------------------------------------------------


def killing_form(g: LieAlgebra) -> ExactMatrix:
    """B(X, Y) = tr(ad_X ad_Y) on the real basis.

    Summed from the structure constants: with [X_i, X_a] = sum_b
    c_{ia}^b X_b, B_ij = sum over a, b of c_{ia}^b c_{jb}^a.  It is
    symmetric in i and j, so only j >= i is summed.
    """
    n = g.dim
    # ad[i][(a, b)] = c_{ia}^b, the (b, a) entry of ad_{X_i}
    ad = [
        {(a, b): c for a in range(n) for b, c in g.structure_coeffs(i, a).items()}
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
            data[i][j] = data[j][i] = acc
    return ExactMatrix(n, n, data)


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
        raise NoIdealComplementError(
            "the Killing form is degenerate; supply an ad-invariant Gram matrix"
        )
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
        coeffs = ExactMatrix(len(kern), len(h_rows), kern)
        u = Subalgebra.span(g, coeffs.matmul(h.basis).row_list())
    if u.dim + k_sub.dim != h.dim or k_sub.sum_with(u).dim != h.dim:
        raise NoIdealComplementError(
            "orthocomplement of k in h is not a complement (degenerate restriction)"
        )
    for a, hv in enumerate(h_rows):
        for b, uv in enumerate(u.vectors()):
            if not u.contains(g.bracket(hv, uv)):
                raise NoIdealComplementError(
                    f"orthocomplement is not an ideal in h: witness rows ({a}, {b})"
                )
    return u


@dataclass
class AssemblyReport:
    """Inputs, factor tables and the assembled H^{p,q} with consistency
    notes; the reported dims are the dual-coefficient variant."""

    k_sub: Subalgebra
    u_ideal: Subalgebra
    k_table: CohomologyTable
    fiber_dual: dict
    fiber_nondual: dict
    table_dual: CohomologyTable
    table_nondual: CohomologyTable
    disagreements: list
    p_totals: dict
    riemann_comparison: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k_sub.to_json_dict(),
            "u_ideal": self.u_ideal.to_json_dict(),
            "k_betti": {str(k): v for k, v in sorted(self.k_table.dims.items())},
            "fiber_dual": {
                str(p): {str(r): v for r, v in sorted(t.dims.items())}
                for p, t in sorted(self.fiber_dual.items())
            },
            "fiber_nondual": {
                str(p): {str(r): v for r, v in sorted(t.dims.items())}
                for p, t in sorted(self.fiber_nondual.items())
            },
            "dims": self.table_dual.to_json_dict()["dims"],
            "dims_nondual": self.table_nondual.to_json_dict()["dims"],
            "disagreements": [
                {"p": p, "q": q, "dual": a, "nondual": b} for (p, q, a, b) in self.disagreements
            ],
            "p_summed_totals": {str(q): v for q, v in sorted(self.p_totals.items())},
            "riemann_comparison": self.riemann_comparison,
            "notes": list(self.notes),
        }


def full_assembly(g: LieAlgebra, h: Subalgebra, gram: ExactMatrix | None = None) -> AssemblyReport:
    """Assemble H^{p,q}(G; h) for elliptic h on semisimple compact G.

    u_star is realized as h itself; the fiber factor in bidegree p is
    H^r(h, k; Lambda^p(g/h)) with the dual action by default, the de Rham
    factor is H^s(k).  Both dual and non-dual coefficient variants are
    assembled and compared.
    """
    report = classify_structure(g, h)
    if not report.elliptic:
        raise NotEllipticError("full assembly requires an elliptic structure")
    if gram is None:
        gram = default_inner_product(g)
    else:
        if gram.rows != g.dim or gram.cols != g.dim:
            raise AlgebraError("Gram matrix shape mismatch")
        witness = validate_ad_invariant(g, gram)
        if witness is not None:
            raise AlgebraError(f"Gram matrix is not ad-invariant: witness {witness}")
    k_sub = h.intersect(h.conj())
    u_ideal = ideal_complement(g, h, k_sub, gram)
    n = h.dim
    m = g.dim - n
    # one frame per pair serves every p and both coefficient variants
    outer = AdaptedFrame(g, h)
    inner = AdaptedFrame(outer.u_algebra, k_sub, closure_message=RELATIVE_CLOSURE)
    k_table = ce_cohomology(inner.u_algebra, GModule.trivial(inner.u_algebra))
    fiber_dual = {}
    fiber_nondual = {}
    for p in range(m + 1):
        fiber_dual[p] = inner.relative_cohomology(outer.quotient_module(p, dual=True))
        fiber_nondual[p] = inner.relative_cohomology(outer.quotient_module(p, dual=False))

    def assemble(fibers):
        omega = {(p, r): v for p, table in fibers.items() for r, v in table.dims.items()}
        return kunneth_assemble(omega, k_table)

    table_dual = assemble(fiber_dual)
    table_nondual = assemble(fiber_nondual)
    disagreements = [
        (p, q, table_dual.dims[(p, q)], table_nondual.dims[(p, q)])
        for (p, q) in sorted(table_dual.dims)
        if table_dual.dims[(p, q)] != table_nondual.dims[(p, q)]
    ]
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
        "fiber coefficients use the dual exterior power by default; the "
        "non-dual variant is reported alongside and disagreements are listed",
    ]
    return AssemblyReport(
        k_sub=k_sub,
        u_ideal=u_ideal,
        k_table=k_table,
        fiber_dual=fiber_dual,
        fiber_nondual=fiber_nondual,
        table_dual=table_dual,
        table_nondual=table_nondual,
        disagreements=disagreements,
        p_totals=p_totals,
        riemann_comparison=riemann,
        notes=notes,
    )
