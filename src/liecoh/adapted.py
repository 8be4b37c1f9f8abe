"""Adapted frames: the basis of a pair (acting, u) with u's basis first.

One `AdaptedFrame` per pair checks that u lies in the acting algebra and
is bracket-closed, picks a complement W of u, and solves once for the
bracket table in the adapted basis [u | W].  With a subalgebra k of u as
its `pair`, the basis is [k | a complement of k in u | W], and closure of
k is read off the same table.

Every complex is then a block of d of the adapted algebra on lists of
cells (`cohomology._differential_matrix`).  Row p of the bigraded complex
(`_bigraded_row`) has the cells (J + I, 0), I a p-subset of W and J a
subset of u's block (`_row_cells`); the terms its d' drops raise p, which
the quotient by F^{p+1} forgets.  By Cartan's formula theta(X) = i(X) d +
d i(X), and i(k_i) kills a cochain that vanishes on k, so theta(k_i) on
such cochains is the block of d on the rows (i,) + S.  The relative
complex (`relative_cohomology`: the cells (K, a) on the W-subsets, acting
indices those of u) and the fiber H^r(u, k; Lambda^p(acting/u)^*)
(`fiber`: the cells of row p with J past k's block, acting indices those
of k) are both the cochains on their cells that every such theta kills,
with the block of d on them (`_invariant_cohomology`); the terms dropped
land on cells with an index in the pair, where those cochains vanish.

Only the bigraded, relative and decompose paths load this module, so
plain and module cohomology never compile it.  Names of `cohomology` and
`linalg` are looked up on those modules when called, so that a wrapper or
a test double installed there sees these calls too.
"""

from __future__ import annotations

from itertools import combinations

from . import cohomology, linalg
from .algebra import AlgebraError, ClosureError
from .linalg import ExactMatrix, ScaledIntMatrix

# annotations are postponed, so these names are for type checkers only
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .cohomology import BigradedComplex, CohomologyTable, GModule
    from .subalgebra import Subalgebra


RELATIVE_CLOSURE = "relative pair requires a bracket-closed u"


class AdaptedFrame:
    """The adapted basis of a pair (acting, u): the basis rows of u first
    (after those of `pair`, when given), then a complement of u.

    `complement` defaults to the greedy pick from the acting basis
    (`extend_to_complement`).  One elimination finds the coordinates of
    every adapted vector in the acting basis (`coords`), which checks that
    u lies in the acting algebra; one more solves for the bracket table in
    the adapted basis (`adapted`).  The table with trivial coefficients is
    scaled to integers once; a module's actions reach the adapted basis by
    one product with `coords`.
    """

    def __init__(self, acting, u: Subalgebra, complement=None, closure_message=None, pair=None):
        base = cohomology.basised(acting)
        if u.parent != base.parent or (pair is not None and pair.parent != base.parent):
            raise AlgebraError("subalgebra does not belong to the given algebra")
        u_vectors = u.vectors()
        dim_u = len(u_vectors)
        if pair is not None:
            k_vectors = pair.vectors()
            u_vectors = k_vectors + cohomology.extend_to_complement(k_vectors, u_vectors)
            if len(u_vectors) != dim_u:
                # the message of the relative pair (u, k)
                raise AlgebraError("u is not contained in the acting algebra")
        given = complement is not None
        if given:
            complement = [list(v) for v in complement]
            if any(len(v) != base.parent.dim for v in complement):
                raise AlgebraError("vector length does not match algebra dimension")
        else:
            complement = cohomology.extend_to_complement(u_vectors, base.vectors)
        coords, failed = linalg._solve_columns(base._cols, u_vectors + complement)
        if failed is not None and failed < dim_u:
            raise AlgebraError("u is not contained in the acting algebra")
        if len(complement) != base.dim - dim_u:
            raise AlgebraError("complement does not have the right dimension")
        if failed is not None or (
            given and len(cohomology.extend_to_complement(u_vectors, complement)) != len(complement)
        ):
            raise AlgebraError("complement does not complete the subalgebra basis")
        adapted = cohomology.BasisedAlgebra(base.parent, u_vectors + complement)
        # the witness is a pair of the caller's rows, not of the adapted ones
        if _leaves_block(adapted, dim_u):
            raise ClosureError(u.is_subalgebra(), closure_message)
        self.dim_k = 0 if pair is None else pair.dim
        if _leaves_block(adapted, self.dim_k):
            raise ClosureError(pair.is_subalgebra(), RELATIVE_CLOSURE)
        self.base = base
        self.dim_u = dim_u
        self.codim = len(complement)
        self.complement = complement
        self.adapted = adapted
        self.coords = coords
        # the adapted algebra with one-dimensional trivial coefficients:
        # its blocks are the bigraded rows, their fibers and k's complex
        self._trivial = cohomology._integer_structure(
            adapted, cohomology.GModule.trivial(adapted).actions
        )

    def _w_subsets(self, k: int):
        """The k-subsets of the complement block, in adapted indices."""
        return [tuple(self.dim_u + x for x in K) for K in cohomology._subsets(self.codim, k)]

    def _w_cells(self, k: int, dim_m: int):
        """The cells (K, a) on the k-subsets K of the complement block."""
        return [(K, a) for K in self._w_subsets(k) for a in range(dim_m)]

    def _row_cells(self, p: int, start: int, stop: int | None = None):
        """Row p's cells by degree q = 0 .. stop - start + 1: (J + I, 0)
        for I a p-subset of the complement block and J a q-subset of
        range(start, stop), I-major and J-minor; `stop` defaults to dim u."""
        stop = self.dim_u if stop is None else stop
        ws = self._w_subsets(p)
        return [
            [(J + I, 0) for I in ws for J in combinations(range(start, stop), q)]
            for q in range(stop - start + 2)
        ]

    def relative_cohomology(self, module: GModule) -> CohomologyTable:
        """H^k(acting, u; module) for a module of the acting algebra: the
        u-invariant cochains on Lambda^k(W)^* tensor M, which vanish on u
        arguments by construction (`_invariant_cohomology`)."""
        if self.dim_u == 0:
            return cohomology.ce_cohomology(self.base, module)
        structure = cohomology._integer_structure(
            self.adapted, cohomology._rebased_actions(module, self.coords)
        )
        cells = [self._w_cells(k, module.dim) for k in range(self.codim + 2)]
        return _invariant_cohomology(structure, cells, range(self.dim_u))

    def fiber(self, p: int) -> CohomologyTable:
        """H^r(u, k; Lambda^p(acting / u)^*) for k the frame's pair: row p
        of the bigraded complex made relative to k: the cells of row p
        whose J avoids k's block, with the acting indices of k.  Out of
        range, p gives the zero complex."""
        return _invariant_cohomology(
            self._trivial, self._row_cells(p, self.dim_k), range(self.dim_k)
        )

    def pair_cohomology(self) -> CohomologyTable:
        """H^s(k), trivial coefficients, from the block of k's cells."""
        return _invariant_cohomology(self._trivial, self._row_cells(0, 0, self.dim_k), ())


def _leaves_block(adapted, n: int) -> bool:
    """Whether a bracket of two of the first n adapted vectors has a
    component past them."""
    return any(l >= n for pair in combinations(range(n), 2) for l in adapted.coeffs(*pair))


def _invariant_cohomology(structure, cells, acting) -> CohomologyTable:
    """Cohomology of the cochains on the cells `cells[k]` that every
    theta(X_i), i in `acting`, kills, with the block of d on those cells.

    theta(X_i) of a cochain that vanishes on X_i is the block of d on the
    rows ((i,) + S, a) over the cells (S, a), so the invariant cochains of
    degree k are the kernel of those blocks stacked (Theta_k), and the
    invariance is what makes the space d-stable.  One sparse product maps
    each invariant basis B_k.  B_{k+1} is the kernel basis with 1 at its
    own free column and 0 at the others, so the restricted d is the rows
    of that product at the free columns, no solve needed.  With no acting
    indices every cochain on the cells is invariant.
    """
    thetas, inv_bases, free = [], [], []
    for cols in cells:
        theta = cohomology._differential_matrix(
            structure, [((i,) + S, a) for i in acting for S, a in cols], cols
        )
        piv_cols, kernel = linalg._kernel_vectors(theta.echelon_rows(), theta.cols)
        thetas.append(theta)
        inv_bases.append(ScaledIntMatrix.from_exact(ExactMatrix(len(kernel), theta.cols, kernel)))
        free.append(sorted(set(range(theta.cols)) - set(piv_cols)))

    rel_mats = {}
    for k in range(len(cells) - 1):
        d = cohomology._differential_matrix(structure, cells[k + 1], cells[k])
        images = d.matmul(inv_bases[k].transpose())
        if not thetas[k + 1].matmul(images).is_zero():
            raise AssertionError("image of invariant cochain is not invariant")
        rows = [images.data[f] for f in free[k + 1]]
        rel_mats[k] = ScaledIntMatrix(len(rows), images.cols, images.den, rows)

    complex_ = cohomology.CochainComplex(labels={}, int_differentials=rel_mats)
    complex_.verify()
    table = complex_.cohomology()
    table.meta = {
        "relative_pair_dim": len(acting),
        "cochain_dims": {k: inv_bases[k].rows for k in rel_mats},
    }
    return table


def _bigraded_row(frame: AdaptedFrame, p: int) -> BigradedComplex:
    """Row p of the bigraded complex of the frame's pair (g, h), as
    CE(h; Lambda^p(g/h)^*) in the basis zeta_I wedge tau_J, verified to
    square to zero.

    zeta_I wedge tau_J is the ascending subset J + (n + I) of the adapted
    basis up to the sign (-1)^{pq}, so d' from (p, q) to (p, q + 1) is
    (-1)^p times the block of d of the adapted algebra with trivial
    coefficients on those subsets, listed I-major and J-minor.
    """
    n = frame.dim_u
    cells = frame._row_cells(p, 0)
    differentials = {}
    for q in range(n + 1):
        block = cohomology._differential_matrix(frame._trivial, cells[q + 1], cells[q])
        differentials[q] = cohomology._negated(block) if p % 2 else block
    complex_ = cohomology.BigradedComplex(
        p=p,
        labels={
            q: [
                "∧".join([f"ζ{s - n + 1}" for s in S if s >= n]
                         + [f"τ{s + 1}" for s in S if s < n]) or "1"
                for S, _ in subsets
            ]
            for q, subsets in enumerate(cells)
        },
        int_differentials=differentials,
    )
    complex_.verify()
    return complex_
