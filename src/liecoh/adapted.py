"""Adapted frames: the basis of a pair (acting, u) with u's basis first.

Every pair (acting, u) that needs a basis adapted to u, with u's basis
first and a complement W second, gets one `AdaptedFrame`.  It checks once
that u lies in the acting algebra and is bracket-closed, picks the
complement once, solves once for the bracket table in the adapted basis
and for the coordinates of the adapted vectors, and serves the quotient
modules Lambda^p(acting/u)^* (`quotient_module`), the relative complex
(`relative_cohomology`) and the bigraded rows (`_bigraded_row`) for every
degree and module.  All three read blocks of d of the adapted algebra,
written by the one builder `cohomology._differential_matrix`.  By Cartan's
formula theta(X) = i(X) d + d i(X), and i(u_i) kills a cochain that
vanishes on u, so the Lie derivative theta(u_i) on Lambda^k(W)^* tensor M
is the block on the rows (i,) + K over the W-subsets K; the relative d is
the block on the W-subsets.  In both, the terms dropped land on subsets
with a u index, where such a cochain vanishes, so the u-components of the
brackets drop out by themselves.  The bigraded d' of row p is the block
on the subsets with exactly p complement indices; the terms it drops are
the parts of d that raise p, which the quotient by F^{p+1} forgets.

The frame is a module of its own because only the bigraded, relative and
decompose paths run it: `cohomology.bigraded_cohomology`,
`bigraded_complex` and `relative_ce_cohomology` load it on first use, and
plain or module cohomology never compiles it.  Names of `cohomology` and
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
    """The adapted basis of a pair (acting, u): the basis rows of u first,
    then a complement of u in the acting algebra.

    Built once per pair.  `complement` defaults to the greedy pick from
    the acting basis (`extend_to_complement`).  One elimination finds the
    coordinates of every adapted vector in the acting basis (`coords`),
    which checks that u lies in the acting algebra; one more solves for
    the bracket table in the adapted basis (`adapted`), and closure of u
    is read off that table.  `u_algebra` is u on its own basis rows, cut
    from the same table, and the table with trivial coefficients is scaled
    to integers once.  `quotient_module` and `relative_cohomology` reuse
    all of this for every degree and module; a module's actions reach the
    adapted basis by one product with `coords`.
    """

    def __init__(self, acting, u: Subalgebra, complement=None, closure_message=None):
        base = cohomology.basised(acting)
        if u.parent != base.parent:
            raise AlgebraError("subalgebra does not belong to the given algebra")
        u_vectors = u.vectors()
        dim_u = len(u_vectors)
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
        for pair in combinations(range(dim_u), 2):
            if any(l >= dim_u for l in adapted.coeffs(*pair)):
                raise ClosureError(pair, closure_message)
        self.base = base
        self.dim_u = dim_u
        self.codim = len(complement)
        self.complement = complement
        self.adapted = adapted
        self.coords = coords
        self.u_algebra = cohomology.BasisedAlgebra._presented(
            base.parent,
            u_vectors,
            adapted.names[:dim_u],
            u.basis.transpose(),
            {pair: coeffs for pair, coeffs in adapted._table.items() if pair[1] < dim_u},
        )
        # the adapted algebra with one-dimensional trivial coefficients: its
        # Lie derivatives are the actions of u on Lambda^p(acting / u)^*, and
        # its p-preserving blocks are the bigraded d'
        self._trivial = cohomology._integer_structure(
            adapted, cohomology.GModule.trivial(adapted).actions
        )

    def _w_subsets(self, k: int):
        """The k-subsets of the complement block, in adapted indices."""
        return [tuple(self.dim_u + x for x in K) for K in cohomology._subsets(self.codim, k)]

    def _w_cells(self, k: int, dim_m: int):
        """The cells (K, a) on the k-subsets K of the complement block."""
        return [(K, a) for K in self._w_subsets(k) for a in range(dim_m)]

    def _theta(self, structure, dim_m: int, k: int, us) -> ScaledIntMatrix:
        """theta(u_i) on Lambda^k(W)^* tensor M for each i in `us`, stacked.
        On cochains that vanish on u, Cartan's formula leaves theta(u_i) =
        i(u_i) d: the block of d on the rows ((i,) + K, a) over the cells
        (K, a) on the W-subsets K."""
        cols = self._w_cells(k, dim_m)
        return cohomology._differential_matrix(
            structure, [((i,) + K, a) for i in us for K, a in cols], cols
        )

    def quotient_module(self, p: int) -> GModule:
        """Lambda^p(acting / u)^*, the p-forms on the quotient, as a
        u-module through the adjoint action, validated.

        The action of u_i is the Lie derivative theta(u_i) on
        Lambda^p(W)^* with trivial one-dimensional coefficients (`_theta`);
        out of range, p gives the zero module.
        """
        thetas = [self._theta(self._trivial, 1, p, [i]) for i in range(self.dim_u)]
        module = cohomology.GModule(
            self.u_algebra, len(cohomology._subsets(self.codim, p)), [m.to_exact() for m in thetas]
        )
        witness = module.validate()
        if witness is not None:
            raise AssertionError(f"adjoint quotient action is not a homomorphism at {witness}")
        return module

    def relative_cohomology(self, module: GModule) -> CohomologyTable:
        """H^k(acting, u; module): cohomology of the u-invariant cochains
        on the quotient of acting by u, for a module of the acting algebra.

        Cochains live on Lambda^k(W)^* tensor M for W the complement block,
        so they vanish on u arguments by construction; invariance under the
        induced u action (`_theta`) is imposed as an exact linear condition,
        which is what makes the space d-stable.  The relative d is the block
        of d of the adapted algebra on the W-subsets: the terms it drops land
        on u arguments, where a relative cochain vanishes, so the
        u-components of the brackets [w_s, w_t] drop out.  One sparse
        product maps each invariant basis B_k.  B_{k+1} is the kernel basis
        with 1 at its own free column and 0 at the others, so the relative
        d is the rows of that product at the free columns, no solve needed.
        """
        if self.dim_u == 0:
            return cohomology.ce_cohomology(self.base, module)
        dim_m, dim_u, q = module.dim, self.dim_u, self.codim
        structure = cohomology._integer_structure(
            self.adapted, cohomology._rebased_actions(module, self.coords)
        )

        # per degree: Theta_k, the Lie derivatives of u on Lambda^k(W)* (x) M
        # stacked, the rows of its kernel basis B_k, and its free columns
        thetas, inv_bases, free = {}, {}, {}
        for k in range(q + 2):
            thetas[k] = self._theta(structure, dim_m, k, range(dim_u))
            size = thetas[k].cols
            piv_cols, kernel = linalg._kernel_vectors(thetas[k].echelon_rows(), size)
            inv_bases[k] = ScaledIntMatrix.from_exact(ExactMatrix(len(kernel), size, kernel))
            free[k] = sorted(set(range(size)) - set(piv_cols))

        rel_mats = {}
        for k in range(q + 1):
            d = cohomology._differential_matrix(
                structure, self._w_cells(k + 1, dim_m), self._w_cells(k, dim_m)
            )
            images = d.matmul(inv_bases[k].transpose())
            if not thetas[k + 1].matmul(images).is_zero():
                raise AssertionError("image of invariant cochain is not invariant")
            rows = [images.data[f] for f in free[k + 1]]
            rel_mats[k] = ScaledIntMatrix(len(rows), images.cols, images.den, rows)

        complex_ = cohomology.CochainComplex(labels={}, int_differentials=rel_mats)
        complex_.verify()
        table = complex_.cohomology()
        table.meta = {
            "relative_pair_dim": dim_u,
            "cochain_dims": {k: inv_bases[k].rows for k in range(q + 1)},
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
    cells = {
        q: [(J + I, 0) for I in frame._w_subsets(p) for J in combinations(range(n), q)]
        for q in range(n + 2)
    }
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
            for q, subsets in cells.items()
        },
        int_differentials=differentials,
    )
    complex_.verify()
    return complex_
