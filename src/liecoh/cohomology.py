"""Chevalley-Eilenberg cohomology: plain, relative and bigraded.

The differential d of `cochains` squares to zero exactly.  The relative
complex of a pair (g, u) lives on cochains over g/u that are killed by
the induced u Lie-derivative action; that invariance is exactly what
makes the space stable under d.  The bigraded complex of a subalgebra h
is, row by row, the complex of h with module coefficients: row p is
C^q(h; Lambda^p(g/h)^*), written in the basis zeta_I wedge tau_J.

The cells, the differential blocks and their d o d check come from
`cochains` (`_differential_matrix` on cells (S, a), the cochain e^S
tensor m_a, over one integer denominator per matrix).  This module keeps
what reduces or eliminates, the adapted frame, the invariant complexes
and `_chain_dims`, and every function that bench/spans.py wraps by its
name here.  `ce_complex` takes all cells, as `_invariant_complex` with
no acting indices; the bigraded rows and the Lie derivatives theta take
cells (S, 0) and (S, a) on the subsets they need.

Plain, module, relative and bigraded dims are blocks of d in the basis
of one `AdaptedFrame` of a pair (acting, u): u's basis first, after that
of a subalgebra k of u (its `pair`), then a complement W of u that one
rule picks for every frame (`_weight_complement`).  Plain and module
cohomology are the frame with u = 0.  Row p of the bigraded complex
(`_bigraded_row`) has the cells (J + I, 0), I a p-subset of W and J a
subset of u's block (`_row_cells`); the terms its d' drops raise p.  By
Cartan's formula theta(X) = i(X) d + d i(X), theta(k_i) on cochains that
vanish on k is the block of d on the rows (i,) + S.  The relative
complex (`relative_complex`: cells (K, a) on the W-subsets, acting
indices those of u) and the fiber H^r(u, k; Lambda^p(acting/u)^*)
(`fiber`: the cells of row p with J past k's block, acting indices those
of k) are the cochains on their cells that every such theta kills
(`_invariant_complex`).

The torus of a frame is the set of adapted vectors in the acting block
(u's block, or all when u = 0) whose ad is diagonal on the adapted
basis, read off the bracket table in one scan.  Such a T, acting
diagonally on the module too (`relative_complex` rebases the module to a
joint eigenbasis of the torus actions), multiplies the cell (S, a) by
its weight mu_a - sum of lam_s over S, and theta(T) commutes with d.
Where i(T) acts on a complex (T in its acting algebra, or in u for a
fiber), a block of weight w != 0 is acyclic, as d h + h d = 1 there for
h = i(T)/w (Koszul, Bull. SMF 78, 1950), and invariant cochains have
weight zero.  So every complex but H^s(k) and `bigraded_complex` keeps
only its cells of weight zero (`weight_zero_cells`), `_invariant_complex`
drops the theta rows of torus elements, and theta(X_i) of the others
raises weights by lam_i; the weights are checked against every bracket
and action (`_check_weights`).  A frame with no torus (a CR structure,
an algebra whose family does not split) keeps every cell.  Plain su3
grades by a maximal torus, which keeps 244 of the 11440 entries of d.

Every complex is a `CochainComplex`: the plain and module complexes
(`ce_complex` and the frame's), the relative complex of a pair and each
bigraded row (`BigradedComplex`, which adds only its row index
p and the message of its d' o d' check).  Every cohomology is its
`cohomology` method, one reduction (`_chain_dims`) over its degrees:
dims are pivot counts of one forward elimination per degree, and each
class is one back substitution on d eliminated with reversed columns.
GaussianRational appears only at the boundary: `ce_differential` and
`CochainComplex.differentials` convert to ExactMatrix, and the only
kernel vectors formed are the printed classes and the invariant bases
of the relative complex.

The frame looks up names of `linalg` on that module when called, so
that a wrapper or a test double installed there sees them.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import combinations

from . import linalg
from .algebra import AlgebraError, ClosureError, LieAlgebra
from .cochains import (
    BasisedAlgebra,
    CohomologyTable,
    GModule,
    _ad,
    _cells,
    _check_square_zero,
    _check_weights,
    _differential_matrix,
    _integer_structure,
    _leaves_block,
    _negated,
    _pack,
    _rebased_actions,
    _row_labels,
    basised,
)
from .linalg import _bareiss_echelon, _integer_rows, _pivot_solution
from .matrix import ExactMatrix, ScaledIntMatrix
from .scalars import ONE, ZERO, InputError, as_scalar, format_scalar

# annotations are postponed, so this name is for type checkers only
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .subalgebra import Subalgebra


def extend_to_complement(base_vectors, candidates):
    """The candidates a greedy scan keeps because they are independent of
    the running span; they complement span(base_vectors) inside span(base
    + candidates).

    One elimination of the matrix whose columns are the base vectors and
    then the candidates: with leftmost-first pivots, a column is a pivot
    exactly when it is independent of the columns before it, which is the
    greedy test.
    """
    columns = [list(v) for v in base_vectors] + [list(v) for v in candidates]
    length = len(columns[0]) if columns else 0
    rows = [[as_scalar(v[i]) for v in columns] for i in range(length)]
    _, piv_cols = _bareiss_echelon(_integer_rows(rows), len(columns))
    return [columns[c] for c in piv_cols if c >= len(base_vectors)]


# ---------------------------------------------------------------------------
# complexes and their reduction
# ---------------------------------------------------------------------------


def ce_differential(acting, module: GModule, k: int) -> ExactMatrix:
    """The degree-k differential of the cochain complex of `acting` with
    coefficients in `module`."""
    ba = basised(acting)
    if k < 0:
        return ExactMatrix.zero(module.dim, 0)
    structure = _integer_structure(ba, module.actions)
    return _differential_matrix(
        structure, _cells(ba.dim, k + 1, module.dim), _cells(ba.dim, k, module.dim)
    ).to_exact()


class CochainComplex:
    """Per-degree basis labels and differentials; differentials[k] maps
    degree k to degree k+1 and consecutive ones compose to zero.

    The differentials are held as ScaledIntMatrix (`int_differentials`);
    `differentials` gives them as ExactMatrix.  Every cohomology in the
    package, plain, relative and bigraded, is `cohomology` of one of these.
    """

    def __init__(self, labels: dict, int_differentials: dict):
        self.labels = labels
        self.int_differentials = int_differentials

    @property
    def differentials(self) -> dict:
        return {k: m.to_exact() for k, m in self.int_differentials.items()}

    def verify(self):
        _check_square_zero(self.int_differentials, lambda k: f"d o d is nonzero from degree {k}")

    def cohomology(self, representatives: bool = False) -> CohomologyTable:
        """H^k for every degree k with a differential, by exact ranks; the
        caller has verified d o d = 0.  `representatives` adds a cocycle
        basis per degree in RREF normal form modulo the coboundaries, each
        a map from cell label to its nonzero coefficient, in cell order.
        The pivots of RREF(ker d) complement the rightmost basis of d's
        columns, so they are the free columns of d eliminated with its
        columns reversed; each class is the kernel vector of one of them
        that is not a pivot of the image, found by back substitution."""
        degrees = sorted(self.int_differentials)
        dims, reps = _chain_dims(self.int_differentials, degrees, representatives)
        if representatives:
            reps = {k: [{name: x for name, x in zip(self.labels[k], row) if not x.is_zero()}
                        for row in rows] for k, rows in reps.items()}
        return CohomologyTable(dims=dims, representatives=reps)


def ce_complex(acting, module: GModule) -> CochainComplex:
    """The full cochain complex of `acting` with coefficients in `module`,
    verified to square to zero: `_invariant_complex` on every cell, each
    named by its basis elements (1 for none), then its module index."""
    ba = basised(acting)
    cells = [_cells(ba.dim, k, module.dim) for k in range(ba.dim + 2)]
    complex_ = _invariant_complex(_integer_structure(ba, module.actions), lambda w: cells)
    complex_.labels = {k: [("∧".join(ba.names[j] for j in S) if S else "1")
                           + (f"⊗m{a + 1}" if module.dim > 1 else "") for S, a in c]
                       for k, c in enumerate(cells)}
    return complex_


def _chain_dims(matrices, degrees, representatives):
    """Cohomology dims, and with `representatives` the representatives, of
    a cochain complex given its differentials (`CochainComplex.cohomology`).

    `matrices[k]` is d: degree k -> degree k+1 for k in `degrees`, a
    ScaledIntMatrix; the caller has verified d o d = 0 (each complex is
    checked once, when it is built).  Dims come from pivot counts.  The
    pivots of RREF(ker d_k), a leftmost basis of the dual matroid of d_k's
    columns, are the complement of their rightmost basis: the free columns
    of d_k with its columns reversed.  The image pivots are among them and
    the rows at the other pivots vanish there, so those rows are the classes.
    """
    dims = {}
    reps = {} if representatives else None
    incoming = 0
    for i, k in enumerate(degrees):
        m = matrices[k]
        n = m.cols
        if not representatives:
            piv_cols = _bareiss_echelon(list(map(dict, m.data)), n)[1]
        else:
            reversed_rows = [{n - 1 - j: x for j, x in row.items()} for row in m.data]
            echelon, piv_cols = _bareiss_echelon(reversed_rows, n)
            # the image of d_{k-1} is spanned by its columns
            image = matrices[degrees[i - 1]].transpose().data if i > 0 else []
            skip = set(piv_cols).union(n - 1 - c for c in _bareiss_echelon(image, n)[1])
            reps[k] = []
            for f in sorted(set(range(n)) - skip, reverse=True):
                # echelon rows with a pivot right of f are zero at f
                t = bisect_left(piv_cols, f)
                v = [ZERO] * n
                v[n - 1 - f] = ONE
                y = _pivot_solution(echelon[:t], piv_cols[:t], [row[f] for row in echelon[:t]])
                for c, z in zip(piv_cols, y):
                    v[n - 1 - c] = -z
                reps[k].append(v)
        dims[k] = n - len(piv_cols) - incoming
        incoming = len(piv_cols)
    return dims, reps


# ---------------------------------------------------------------------------
# adapted frames: the basis of a pair (acting, u), u's basis first
# ---------------------------------------------------------------------------


class AdaptedFrame:
    """The adapted basis of a pair (acting, u), u = None the zero
    subalgebra: u's basis rows (after those of `pair`), then a complement
    W of u (`_weight_complement`).  The coordinates of the adapted vectors
    in the acting basis (`coords`) take one elimination, which also finds
    the conjugates of u's rows that lie in the acting algebra; one more
    gives the bracket table in the adapted basis (`adapted`), scaled to
    integers once (`_trivial`) and scanned for the `torus`."""

    def __init__(self, acting, u: Subalgebra | None, *, pair=None):
        base = basised(acting)
        if any(s is not None and s.parent != base.parent for s in (u, pair)):
            raise AlgebraError("subalgebra does not belong to the given algebra")
        u_vectors = [] if u is None else u.vectors()
        dim_u = len(u_vectors)
        conjugates = [[x.conjugate() for x in row] for row in u_vectors]
        if pair is not None:
            k_vectors = pair.vectors()
            u_vectors = k_vectors + extend_to_complement(k_vectors, u_vectors)
            if len(u_vectors) != dim_u:
                raise AlgebraError("the pair is not contained in u")
        solutions, failed = linalg._solve_columns(base._cols, u_vectors + conjugates)
        if failed is not None and failed < dim_u:
            raise AlgebraError("u is not contained in the acting algebra")
        coords = solutions[:dim_u]
        extra = _weight_complement(base, coords, [c for c in solutions[dim_u:] if c is not None])
        coords = coords + extra
        complement = [linalg._combine(c, base.vectors) for c in extra]
        adapted = BasisedAlgebra(base.parent, u_vectors + complement)
        # the witness is a pair of the caller's rows, not of the adapted ones
        if _leaves_block(adapted, dim_u):
            raise ClosureError(u.is_subalgebra())
        self.dim_k = 0 if pair is None else pair.dim
        if _leaves_block(adapted, self.dim_k):
            raise ClosureError(pair.is_subalgebra())
        self.dim_u = dim_u
        self.codim = len(complement)
        self.complement = complement
        self.adapted = adapted
        self.coords = coords
        # the adapted algebra with one-dimensional trivial coefficients:
        # its blocks are the bigraded rows, their fibers and k's complex
        self._trivial = _integer_structure(
            adapted, GModule.trivial(adapted).actions
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

    def _w_cells(self, lam, mu, weight):
        """cells[k] for k = 0 .. codim + 1: the cells (K, a) on the
        k-subsets K of the complement block, of weight `weight` under
        the grading lam on the algebra and mu on the module."""
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
        actions = _rebased_actions(module, self.coords)
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
        structure = _integer_structure(self.adapted, actions)
        torus, lam, mu = self._grading(structure, self.dim_u or self.adapted.dim, module.dim)
        return _invariant_complex(
            structure, lambda w: self._w_cells(lam, mu, w),
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
            k: _differential_matrix(structure, cells[k + 1], cells[k]) for k in degrees
        }
    else:
        by_weight = {0: cells}
        for i in acting:
            if lam[i] not in by_weight:
                by_weight[lam[i]] = cells_of(lam[i])
        thetas, inv_bases, free = [], [], []
        for k, cols in enumerate(cells):
            rows = [((i,) + S, a) for i in acting for S, a in by_weight[lam[i]][k]]
            theta = _differential_matrix(structure, rows, cols)
            piv_cols, kernel = linalg._kernel_vectors(list(map(dict, theta.data)), theta.cols)
            thetas.append(theta)
            inv_bases.append(
                ScaledIntMatrix.from_exact(ExactMatrix(len(kernel), theta.cols, kernel))
            )
            free.append(sorted(set(range(theta.cols)) - set(piv_cols)))
        differentials = {}
        for k in degrees:
            d = _differential_matrix(structure, cells[k + 1], cells[k])
            images = d.matmul(inv_bases[k].transpose())
            if not thetas[k + 1].matmul(images).is_zero():
                raise AssertionError("image of invariant cochain is not invariant")
            rows = [images.data[f] for f in free[k + 1]]
            differentials[k] = ScaledIntMatrix(len(rows), images.cols, images.den, rows)
    complex_ = CochainComplex(labels={}, int_differentials=differentials)
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
    cells = frame._row_cells(p, 0, lam=frame._row_grading[1] if graded else None)
    differentials = {}
    for q in range(frame.dim_u + 1):
        block = _differential_matrix(frame._trivial, cells[q + 1], cells[q])
        differentials[q] = _negated(block) if p % 2 else block
    complex_ = BigradedComplex(_row_labels(frame, cells), differentials, p)
    complex_.verify()
    return complex_


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
    inside u, until none is left or a member's ad has no eigenbasis over
    Q(i) within the root search's reach, where the split fails (a nonzero
    nilpotent ad among them).  With no family, the greedy pick from ba's
    basis."""
    picked = extend_to_complement(u, conjugates) if conjugates else []
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
        inside = [v for v in zero if not u or not extend_to_complement(u, [v])]
        member = next(iter(extend_to_complement(family, inside)), None)
    if family:
        basis = [v for prefix, vectors in blocks for v in (
            vectors if any(prefix) else family + extend_to_complement(family, vectors))]
    return picked + extend_to_complement(u + picked, basis)


# ---------------------------------------------------------------------------
# plain, relative and bigraded cohomology, each on one adapted frame
# ---------------------------------------------------------------------------


def ce_cohomology(acting, module: GModule, representatives: bool = False) -> CohomologyTable:
    """H^k(acting; module) for k = 0..dim: the relative cohomology of the
    frame with u = 0 (`AdaptedFrame`), graded by its torus, or for
    `representatives` the full complex (`ce_complex`), whose labels are in
    the acting basis."""
    ba = basised(acting)
    if representatives:
        return ce_complex(ba, module).cohomology(representatives)
    return AdaptedFrame(ba, None).relative_cohomology(module)


def relative_ce_cohomology(acting, u: Subalgebra, module: GModule) -> CohomologyTable:
    """H^k(acting, u; module): `AdaptedFrame.relative_cohomology` on the
    frame of the pair, graded by the torus of u (of the acting algebra
    when u = 0, where this is `ce_cohomology`)."""
    return AdaptedFrame(basised(acting), u).relative_cohomology(module)


class BigradedComplex(CochainComplex):
    """The fixed-p row of the quotient complex: bases zeta_I wedge tau_J
    with |I| = p and |J| = q, and the induced differentials d' per q.

    Row p is the Chevalley-Eilenberg complex of h with coefficients in
    Lambda^p(g/h)^*, so the (p, q) space has dim C(m, p) * C(n, q) for n
    the subalgebra dimension and m its codimension, and d' o d' = 0
    exactly.  Degrees are q; only the row index p and the message of a
    failed d' o d' check are its own.
    """

    def __init__(self, labels: dict, int_differentials: dict, p: int):
        super().__init__(labels, int_differentials)
        self.p = p

    def verify(self):
        # not a call of CochainComplex.verify: bench/spans.py wraps both by
        # name, and a call through would count two checks per row
        _check_square_zero(
            self.int_differentials, lambda q: f"d' o d' is nonzero at (p, q) = ({self.p}, {q})"
        )


def bigraded_complex(g: LieAlgebra, h: Subalgebra, p: int) -> BigradedComplex:
    """The fixed-p quotient complex of the subalgebra h, with labels and
    exact d' matrices, on the frame of (g, h)."""
    return _bigraded_row(AdaptedFrame(g, h), p)


def bigraded_cohomology(g: LieAlgebra, h: Subalgebra, representatives: bool = False) -> CohomologyTable:
    """H^{p,q}(g; h) = H^q(h; Lambda^p(g/h)^*): cohomology of the quotient
    complex with bases zeta_I wedge tau_J (|I| = p complement duals,
    |J| = q h duals), one graded `_bigraded_row` per p on the frame of
    (g, h), whose complement the meta prints; cells of nonzero weight carry
    no class (Bott), so each class is a map on the weight-zero cells that
    carry it, named as in the full row."""
    frame = AdaptedFrame(g, h)
    dims = {}
    reps = {} if representatives else None
    for p in range(frame.codim + 1):
        row = _bigraded_row(frame, p, graded=True).cohomology(representatives)
        dims.update({(p, q): v for q, v in row.dims.items()})
        if representatives:
            reps.update({(p, q): classes for q, classes in row.representatives.items()})
    meta = {
        "h_basis": [[format_scalar(x) for x in row] for row in frame.adapted.vectors[:frame.dim_u]],
        "complement_basis": [[format_scalar(x) for x in row] for row in frame.complement],
        "note": (
            "left-invariant (algebraic) dimensions; the comparison map into "
            "the analytic cohomology is injective, and equality holds in the "
            "theorem-backed cases"
        ),
    }
    return CohomologyTable(dims=dims, representatives=reps, meta=meta)
