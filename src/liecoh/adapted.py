"""Adapted frames: the basis of a pair (acting, u) with u's basis first.

One `AdaptedFrame` per pair checks that u lies in the acting algebra and
is bracket-closed, picks a complement W of u, and solves once for the
bracket table in the adapted basis [u | W], or [k | a complement of k in
u | W] with a subalgebra k of u as its `pair`.  Plain and module
cohomology are the frame with u = 0.  One rule picks W for every frame
(`_weight_complement`): the greedy pick from the conjugates of u's rows
that lie in the acting algebra, then from a joint eigenbasis of ad of a
commuting family grown inside u (inside the acting algebra when u = 0),
or from the acting basis where no family splits.  The conjugates fill W
for elliptic and complex structures, and u = 0 has none.

Every complex is a block of d of the adapted algebra on lists of cells
(`cohomology._differential_matrix`).  Row p of the bigraded complex
(`_bigraded_row`) has the cells (J + I, 0), I a p-subset of W and J a
subset of u's block (`_row_cells`); the terms its d' drops raise p.  By
Cartan's formula theta(X) = i(X) d + d i(X), theta(k_i) on cochains that
vanish on k is the block of d on the rows (i,) + S.  The relative complex
(`relative_complex`: cells (K, a) on the W-subsets, acting indices those
of u) and the fiber H^r(u, k; Lambda^p(acting/u)^*) (`fiber`: the cells
of row p with J past k's block, acting indices those of k) are the
cochains on their cells that every such theta kills (`_invariant_complex`).

The torus of a frame is the set of adapted vectors in the acting block
(u's block, or all when u = 0) whose ad is diagonal on the adapted
basis, read off the bracket table in one scan.  Such a T, acting
diagonally on the module too (`relative_complex` rebases the module to a
joint eigenbasis of the torus actions), multiplies the cell (S, a) by its
weight mu_a - sum of lam_s over S, and theta(T) commutes with d.  Where i(T)
acts on a complex (T in its acting algebra, or in u for a fiber), a
block of weight w != 0 is acyclic, as d h + h d = 1 there for h = i(T)/w
(Koszul, Bull. SMF 78, 1950), and invariant cochains have weight zero.
So every complex but H^s(k) keeps only its cells of weight zero
(`weight_zero_cells`), `_invariant_complex` drops the theta rows of
torus elements, and theta(X_i) of the others raises weights by lam_i.  A
frame with no torus (a CR structure, an algebra whose family does not
split) keeps every cell.  The weights are checked against every bracket and
action (`_check_weights`), and every complex for d o d = 0.

Names of `cohomology` and `linalg` are looked up on those modules when
called, so that a wrapper or a test double installed there sees them.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations

from . import cohomology, linalg
from .algebra import AlgebraError, ClosureError
from .linalg import ExactMatrix, ScaledIntMatrix
from .scalars import ONE, ZERO, InputError

# annotations are postponed, so these names are for type checkers only
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .cohomology import BigradedComplex, CochainComplex, CohomologyTable, GModule
    from .subalgebra import Subalgebra


RELATIVE_CLOSURE = "relative pair requires a bracket-closed u"


class AdaptedFrame:
    """The adapted basis of a pair (acting, u), u = None the zero
    subalgebra: u's basis rows (after those of `pair`), then a complement
    W of u (`_weight_complement`).  The coordinates of the adapted vectors
    in the acting basis (`coords`) take one elimination, which also finds
    the conjugates of u's rows that lie in the acting algebra; one more
    gives the bracket table in the adapted basis (`adapted`), scaled to
    integers once (`_trivial`) and scanned for the `torus`."""

    def __init__(self, acting, u: Subalgebra | None, *, closure_message=None, pair=None):
        base = cohomology.basised(acting)
        if any(s is not None and s.parent != base.parent for s in (u, pair)):
            raise AlgebraError("subalgebra does not belong to the given algebra")
        u_vectors = [] if u is None else u.vectors()
        dim_u = len(u_vectors)
        conjugates = [[x.conjugate() for x in row] for row in u_vectors]
        if pair is not None:
            k_vectors = pair.vectors()
            u_vectors = k_vectors + cohomology.extend_to_complement(k_vectors, u_vectors)
            if len(u_vectors) != dim_u:
                # the message of the relative pair (u, k)
                raise AlgebraError("u is not contained in the acting algebra")
        solutions, failed = linalg._solve_columns(base._cols, u_vectors + conjugates)
        if failed is not None and failed < dim_u:
            raise AlgebraError("u is not contained in the acting algebra")
        coords = solutions[:dim_u]
        extra = _weight_complement(base, coords, [c for c in solutions[dim_u:] if c is not None])
        coords = coords + extra
        complement = [linalg._combine(c, base.vectors) for c in extra]
        adapted = cohomology.BasisedAlgebra(base.parent, u_vectors + complement)
        # the witness is a pair of the caller's rows, not of the adapted ones
        if _leaves_block(adapted, dim_u):
            raise ClosureError(u.is_subalgebra(), closure_message)
        self.dim_k = 0 if pair is None else pair.dim
        if _leaves_block(adapted, self.dim_k):
            raise ClosureError(pair.is_subalgebra(), RELATIVE_CLOSURE)
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
        # ad a is diagonal when every [a, b] lies on b: a component on l
        # of [a, b] = -[b, a] rules out a unless l = b, and b unless l = a
        off = {x for (a, b), coeffs in self._trivial[1].items() for l, _ in coeffs
               for x, y in ((a, b), (b, a)) if l != y}
        self.torus = [t for t in range(dim_u or adapted.dim) if t not in off]

    def _grading(self, structure, stop: int, dim_m: int = 1):
        """(torus, lam, mu): the torus elements among the first `stop`
        adapted vectors that act diagonally on the dim_m-dimensional module
        of `structure`, and the packed joint weights (`_pack`) under them of
        the adapted vectors and the module vectors, checked."""
        _, brackets, acts = structure
        torus = [t for t in self.torus
                 if t < stop and all(set(row) <= {a} for a, row in enumerate(acts[t]))]
        lam, mu = [[] for _ in acts], [[] for _ in range(dim_m)]
        for t in torus:
            for s in range(len(acts)):
                # [t, s] is lam_s s, and [s, t] = -[t, s]
                re, im = dict(brackets.get((min(s, t), max(s, t)), ())).get(s, (0, 0))
                lam[s] += (re, im) if t < s else (-re, -im)
            for a, row in enumerate(acts[t]):
                mu[a] += row.get(a, (0, 0))
        lam, mu = _pack(lam, mu)
        if torus:
            _check_weights(structure, lam, mu)
        return torus, lam, mu

    @cached_property
    def _row_grading(self):
        """(torus, lam) of u's torus on the rows and fibers, found once."""
        return self._grading(self._trivial, self.dim_u)[:2]

    def _w_cells(self, dim_m: int, grading=None, weight=0):
        """cells[k] for k = 0 .. codim + 1: the cells (K, a) on the
        k-subsets K of the complement block, of weight `weight` under
        `grading` (lam, mu), every cell without one."""
        lam, mu = grading or ([0] * self.adapted.dim, [0] * dim_m)
        return weight_zero_cells(
            range(self.dim_u, self.adapted.dim), lam, [m - weight for m in mu]
        )

    def _row_cells(self, p: int, start: int, stop: int | None = None, lam=None, weight=0):
        """Row p's cells by degree q = 0 .. stop - start + 1: (J + I, 0)
        for I a p-subset of the complement block and J a q-subset of
        range(start, stop), of weight `weight` under `lam` (every cell
        without it), I-major and J-minor; `stop` defaults to dim u."""
        stop = self.dim_u if stop is None else stop
        lam = lam or [0] * self.adapted.dim
        ws = list(combinations(range(self.dim_u, self.adapted.dim), p)) if p >= 0 else []
        # the I are the module indices of the J-cells, of weight -weight - lam_I
        cells = weight_zero_cells(range(start, stop), lam, [-weight - sum(lam[s] for s in I) for I in ws])
        return [[(J + ws[a], 0) for J, a in sorted(degree, key=lambda c: c[1])] for degree in cells]

    def relative_complex(self, module: GModule) -> CochainComplex:
        """The complex of (acting, u; module): the u-invariant cochains on
        Lambda^k(W)^* tensor M, on the cells of weight zero under the torus
        of u (of the acting algebra when u = 0).  The module is rebased to a
        joint eigenbasis of the torus actions, which `linalg.refine_eigen`
        splits by each in turn; one it cannot split (over Q(i), with a full
        eigenbasis) is left out, and `_grading` then drops it."""
        actions = cohomology._rebased_actions(module, self.coords)
        blocks = [((), ExactMatrix.identity(module.dim).row_list())]
        for t in self.torus:
            if any(not x.is_zero() for row in actions[t]._data for x in row):
                try:
                    blocks = linalg.refine_eigen(blocks, actions[t]) or blocks
                except InputError:  # no split over Q(i), or past the root-search limit
                    pass
        if len(blocks) > 1:
            # W has the eigenvectors m_a as columns; X_k acts by W^-1 rho(X_k) W
            w = ExactMatrix._of(module.dim, module.dim, [v for _, vs in blocks for v in vs]).transpose()
            inverse, _ = linalg._solve_columns(w, ExactMatrix.identity(module.dim)._data)
            w_inv = ExactMatrix._of(module.dim, module.dim, inverse).transpose()
            actions = [w_inv.matmul(a).matmul(w) for a in actions]
        structure = cohomology._integer_structure(self.adapted, actions)
        torus, lam, mu = self._grading(structure, self.dim_u or self.adapted.dim, module.dim)
        return _invariant_complex(
            structure, lambda w: self._w_cells(module.dim, (lam, mu), w),
            [i for i in range(self.dim_u) if i not in torus], lam,
        )

    def relative_cohomology(self, module: GModule) -> CohomologyTable:
        """H^k(acting, u; module) (`relative_complex`); for u != 0 its meta
        gives dim u and the dimension of the invariant cochains by degree."""
        complex_ = self.relative_complex(module)
        table = complex_.cohomology()
        if self.dim_u:
            table.meta = {
                "relative_pair_dim": self.dim_u,
                "cochain_dims": {k: m.cols for k, m in complex_.int_differentials.items()},
            }
        return table

    def fiber(self, p: int) -> CohomologyTable:
        """H^r(u, k; Lambda^p(acting / u)^*) for k the frame's pair: row p
        of the bigraded complex made relative to k: the cells of row p
        whose J avoids k's block, of weight zero under the torus of u,
        with the acting indices of k outside the torus.  Out of range, p
        gives the zero complex."""
        torus, lam = self._row_grading
        return _invariant_complex(
            self._trivial, lambda w: self._row_cells(p, self.dim_k, lam=lam, weight=w),
            [i for i in range(self.dim_k) if i not in torus], lam,
        ).cohomology()

    def pair_cohomology(self) -> CohomologyTable:
        """H^s(k), trivial coefficients, on all of k's cells: k is a torus
        or 0 in the standard structures, where every weight is zero."""
        return _invariant_complex(self._trivial, lambda w: self._row_cells(0, 0, self.dim_k)).cohomology()


def _leaves_block(adapted, n: int) -> bool:
    """Whether a bracket of two of the first n adapted vectors has a
    component past them."""
    return any(l >= n for pair in combinations(range(n), 2) for l in adapted.coeffs(*pair))


def _pack(lam, mu):
    """Int weight vectors as ints sum w_d B^d, additive and one-to-one on
    every sum that a cell weight can take, as B is past twice all of them."""
    base = 2 * sum(abs(x) for w in lam + mu for x in w) + 1
    return [[sum(x * base ** d for d, x in enumerate(w)) for w in ws] for ws in (lam, mu)]


def weight_zero_cells(indices, lam, mu):
    """cells[k] for k = 0 .. len(indices) + 1: the cells (S, a), S a
    k-subset of the ascending `indices` and a a module index, of weight
    mu[a] - sum of lam[s] over S zero (weights that add, such as ints),
    S-major and a-minor; with zero weights, every cell.  A depth-first
    walk enters an index only when the weight still missing is a sum over
    the indices after it (reach), so it enters no branch without a cell."""
    indices = list(indices)
    reach = [set() for _ in indices] + [{0}]
    for i in range(len(indices) - 1, -1, -1):
        w = lam[indices[i]]
        reach[i] = reach[i + 1] | {x + w for x in reach[i + 1]}
    cells = [[] for _ in range(len(indices) + 2)]

    def walk(start, subset, need, modules):
        if need == 0:
            cells[len(subset)].extend((subset, a) for a in modules)
        for j in range(start, len(indices)):
            rest = need - lam[indices[j]]
            if rest in reach[j + 1]:
                walk(j + 1, subset + (indices[j],), rest, modules)

    targets = {}
    for a, w in enumerate(mu):
        targets.setdefault(w, []).append(a)
    for need, modules in targets.items():
        if need in reach[0]:
            walk(0, (), need, modules)
    return [sorted(degree) for degree in cells]


def _check_weights(structure, lam, mu):
    """AssertionError unless every nonzero bracket and action coefficient
    of the integer structure respects the packed weights: [f_a, f_b] lies
    in weight lam_a + lam_b, and f_i moves m_c to weight mu_c + lam_i."""
    _, brackets, acts = structure
    for (a, b), coeffs in brackets.items():
        if any(lam[l] != lam[a] + lam[b] for l, _ in coeffs):
            raise AssertionError(
                f"weight leak: the bracket of weight vectors {a + 1} and {b + 1} "
                "has a component of another weight"
            )
    for i, rows in enumerate(acts):
        for r, row in enumerate(rows):
            if any(mu[r] != mu[c] + lam[i] for c in row):
                raise AssertionError(
                    f"weight leak: weight vector {i + 1} moves a module weight vector onto "
                    f"module weight vector {r + 1}, of another weight"
                )


def _invariant_complex(structure, cells_of, acting=(), lam=()) -> CochainComplex:
    """The complex of the cochains on the cells `cells_of(0)[k]` that
    every theta(X_i), i in `acting`, kills, verified to square to zero;
    `cells_of(w)` lists the cells of weight w by degree.

    theta(X_i) raises weights by lam[i]: its block of d has the rows
    ((i,) + S, a) for the cells (S, a) of weight lam[i].  The invariant
    cochains of degree k are the kernel of those blocks stacked, a
    d-stable space.  One sparse product maps each invariant basis B_k, and
    B_{k+1} has 1 at its own free column and 0 at the others, so d is the
    rows of that product at the free columns.  With no acting indices d is
    the blocks on the cells."""
    cells = cells_of(0)
    degrees = range(len(cells) - 1)
    if not acting:
        differentials = {
            k: cohomology._differential_matrix(structure, cells[k + 1], cells[k]) for k in degrees
        }
    else:
        by_weight = {0: cells}
        for i in acting:
            if lam[i] not in by_weight:
                by_weight[lam[i]] = cells_of(lam[i])
        thetas, inv_bases, free = [], [], []
        for k, cols in enumerate(cells):
            rows = [((i,) + S, a) for i in acting for S, a in by_weight[lam[i]][k]]
            theta = cohomology._differential_matrix(structure, rows, cols)
            piv_cols, kernel = linalg._kernel_vectors(theta.echelon_rows(), theta.cols)
            thetas.append(theta)
            inv_bases.append(
                ScaledIntMatrix.from_exact(ExactMatrix(len(kernel), theta.cols, kernel))
            )
            free.append(sorted(set(range(theta.cols)) - set(piv_cols)))
        differentials = {}
        for k in degrees:
            d = cohomology._differential_matrix(structure, cells[k + 1], cells[k])
            images = d.matmul(inv_bases[k].transpose())
            if not thetas[k + 1].matmul(images).is_zero():
                raise AssertionError("image of invariant cochain is not invariant")
            rows = [images.data[f] for f in free[k + 1]]
            differentials[k] = ScaledIntMatrix(len(rows), images.cols, images.den, rows)
    complex_ = cohomology.CochainComplex(labels={}, int_differentials=differentials)
    complex_.verify()
    return complex_


def _bigraded_row(frame: AdaptedFrame, p: int, graded: bool = False) -> BigradedComplex:
    """Row p of the bigraded complex of the frame's pair (g, h), as
    CE(h; Lambda^p(g/h)^*) in the basis zeta_I wedge tau_J, verified to
    square to zero; with `graded`, on its cells of weight zero.

    zeta_I wedge tau_J is the ascending subset J + (n + I) of the adapted
    basis up to the sign (-1)^{pq}, so d' from (p, q) to (p, q + 1) is
    (-1)^p times the block of d with trivial coefficients on those
    subsets, listed I-major and J-minor."""
    n = frame.dim_u
    cells = frame._row_cells(p, 0, lam=frame._row_grading[1] if graded else None)
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


def _ad(ba, v):
    """ad v on ba's basis, v in ba's coordinates: column k is [v, e_k]."""
    ad = [[ZERO] * ba.dim for _ in range(ba.dim)]
    for a, x in enumerate(v):
        for k in range(ba.dim) if not x.is_zero() else ():
            for l, c in ba.coeffs(a, k).items():
                ad[l][k] = ad[l][k] + x * c
    return ExactMatrix._of(ba.dim, ba.dim, ad)


def _weight_complement(ba, u, conjugates):
    """The complement of span(u), u and `conjugates` rows of coordinates
    in ba's basis, in those coordinates: the greedy pick from the
    conjugates of u's rows that lie in ba, then, for what they leave, the
    greedy pick from a joint eigenbasis of ad on ba of a commuting family
    inside u (inside ba when u is empty), listed first in its weight-zero
    block, so that the torus scan finds it.  The family starts at u's first
    row (ba's first basis vector when u is empty), and `linalg.refine_eigen`
    splits ba's basis by the ad of each member in turn.  The next member is
    the first vector of the weight-zero block outside the family's span and
    inside u, until none is left or a split fails (over Q(i), within the
    root search's reach, with a full eigenbasis).  With no family, the
    greedy pick from ba's basis."""
    picked = cohomology.extend_to_complement(u, conjugates) if conjugates else []
    if len(u) + len(picked) == ba.dim:
        return picked
    basis = ExactMatrix.identity(ba.dim).row_list()
    blocks, family = [((), basis)], []
    member = (u or basis)[0] if ba._table else None
    while member is not None:
        try:
            refined = linalg.refine_eigen(blocks, _ad(ba, member))
        except InputError:  # no split over Q(i), or past the root-search limit
            break
        if refined is None:
            break
        blocks, family = refined, family + [member]
        zero = next(vectors for prefix, vectors in blocks if not any(prefix))
        inside = [v for v in zero if not u or not cohomology.extend_to_complement(u, [v])]
        member = next(iter(cohomology.extend_to_complement(family, inside)), None)
    if family:
        basis = [v for prefix, vectors in blocks for v in (
            vectors if any(prefix) else family + cohomology.extend_to_complement(family, vectors))]
    return picked + cohomology.extend_to_complement(u + picked, basis)
