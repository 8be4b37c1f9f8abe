"""Chevalley-Eilenberg complexes: plain, relative and bigraded.

The differential on alternating cochains with module coefficients is

    du(X_1,...,X_{k+1}) = sum_j (-1)^{j+1} X_j . u(...no X_j...)
                        + sum_{j<k} (-1)^{j+k} u([X_j,X_k], ...remaining...)

(1-based signs), and d o d = 0 exactly.  The relative complex of a pair
(g, u) lives on cochains over g/u that are killed by the induced u
Lie-derivative action; that invariance is exactly what makes the space
stable under d.  The bigraded complex of a subalgebra h is, row by row,
the complex of h with module coefficients: row p is
C^q(h; Lambda^p(g/h)^*), written in the basis zeta_I wedge tau_J.

One builder, `_differential_matrix`, writes every differential as a
block of d of one algebra: the rows and columns are lists of cells
(S, a), the cochain e^S tensor m_a on an index subset S and a module
index a, and a term that lands on a cell outside the columns is dropped.
`GModule.validate` takes all cells of degrees 0 to 2 (`_cells`) and
`ce_complex` all cells, as `_invariant_complex` with no acting indices;
the bigraded rows and the Lie derivatives theta take cells (S, 0) and
(S, a) on the subsets they need.  The rows go straight into sparse rows
of (re, im) Python-int pairs over one positive denominator per matrix
(`ScaledIntMatrix`): the least common denominator of the bracket table
and the action matrices together, taken by one `scalars.integer_form`
(`_integer_structure`).  The scale is per matrix, not per row, so
the integer product of d_{k+1} and d_k is den_{k+1} * den_k *
(d_{k+1} d_k), which is zero exactly when d o d is; `_check_square_zero`
tests that product once per complex, for the plain, relative and
bigraded complexes alike.

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
from itertools import combinations, islice

from . import linalg
from .algebra import AlgebraError, ClosureError, LieAlgebra
from .linalg import (
    ExactMatrix,
    ScaledIntMatrix,
    _bareiss_echelon,
    _integer_rows,
    _pivot_solution,
    _solve_columns,
    as_scalar,
)
from .scalars import ONE, ZERO, InputError, format_scalar, integer_form

# annotations are postponed, so this name is for type checkers only
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .subalgebra import Subalgebra


# ---------------------------------------------------------------------------
# acting algebras presented by explicit bases
# ---------------------------------------------------------------------------


class BasisedAlgebra:
    """A Lie algebra presented by explicit basis vectors in an ambient
    algebra, with bracket coefficients expressed in that basis."""

    def __init__(self, parent: LieAlgebra, vectors):
        self.parent = parent
        self.vectors = [list(v) for v in vectors]
        self.dim = len(self.vectors)
        self.names = tuple(f"v{i + 1}" for i in range(self.dim))
        if self.vectors:
            self._cols = ExactMatrix.from_rows(
                [[self.vectors[c][i] for c in range(self.dim)] for i in range(parent.dim)]
            )
        else:
            self._cols = ExactMatrix.zero(parent.dim, 0)
        # one elimination of the basis columns solves for every bracket
        pairs = list(combinations(range(self.dim), 2))
        solutions, failed = _solve_columns(
            self._cols, [parent.bracket(self.vectors[a], self.vectors[b]) for a, b in pairs]
        )
        if failed is not None:
            raise ClosureError(pairs[failed])
        self._table = {}
        for pair, coords in zip(pairs, solutions):
            entry = {l: c for l, c in enumerate(coords) if not c.is_zero()}
            if entry:
                self._table[pair] = entry

    @classmethod
    def _presented(cls, parent: LieAlgebra, vectors, names, cols: ExactMatrix, table):
        """A BasisedAlgebra whose column matrix and bracket table are
        already known, made without an elimination."""
        ba = cls.__new__(cls)
        ba.parent = parent
        ba.vectors = vectors
        ba.dim = len(vectors)
        ba.names = tuple(names)
        ba._cols = cols
        ba._table = table
        return ba

    def coeffs(self, a: int, b: int):
        if a == b:
            return {}
        if a < b:
            return self._table.get((a, b), {})
        return {l: -c for l, c in self._table.get((b, a), {}).items()}


def basised(acting) -> BasisedAlgebra:
    if isinstance(acting, BasisedAlgebra):
        return acting
    if isinstance(acting, LieAlgebra):
        return BasisedAlgebra._presented(
            acting,
            [acting.basis_vector(k) for k in range(acting.dim)],
            acting.basis_names,
            ExactMatrix.identity(acting.dim),
            {pair: dict(acting._table[pair]) for pair in acting.bracket_pairs()},
        )
    # a Subalgebra was made by its module, so this import finds it loaded
    from .subalgebra import Subalgebra

    if isinstance(acting, Subalgebra):
        # one presentation per subalgebra, shared by its modules and complexes
        if "_basised" not in vars(acting):
            acting._basised = BasisedAlgebra(acting.parent, acting.vectors())
        return acting._basised
    raise TypeError(f"cannot act with {type(acting).__name__}")


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
# modules
# ---------------------------------------------------------------------------


class GModule:
    """Finite-dimensional module given by one action matrix per basis
    element of the acting algebra."""

    def __init__(self, acting_algebra, dim: int, actions):
        self.dim = dim
        self.actions = list(actions)
        ba = basised(acting_algebra)
        if len(self.actions) != ba.dim:
            raise AlgebraError("one action matrix per acting basis element is required")
        for a in self.actions:
            if a.rows != dim or a.cols != dim:
                raise AlgebraError("action matrix shape mismatch")
        self._basis = ba

    @classmethod
    def trivial(cls, acting_algebra) -> "GModule":
        ba = basised(acting_algebra)
        return cls(acting_algebra, 1, [ExactMatrix.zero(1, 1) for _ in range(ba.dim)])

    @classmethod
    def adjoint(cls, g: LieAlgebra) -> "GModule":
        return cls(g, g.dim, [g.ad_matrix(g.basis_vector(j)) for j in range(g.dim)])

    def validate(self):
        """None when action([X,Y]) = [action X, action Y] for all basis
        pairs, else the first failing pair.

        This is d_1 d_0 = 0 for the cochain engine's differentials with
        these coefficients: (d_1 d_0 m)(X_a, X_b) = X_a.X_b.m - X_b.X_a.m
        - [X_a, X_b].m.  The rows of d_1 run over the pairs a < b in order,
        module index minor, so the first nonzero row of the sparse integer
        product names the first failing pair.
        """
        n = self._basis.dim
        structure = _integer_structure(self._basis, self.actions)
        pairs, singles = _cells(n, 2, self.dim), _cells(n, 1, self.dim)
        product = _differential_matrix(structure, pairs, singles).matmul(
            _differential_matrix(structure, singles, _cells(n, 0, self.dim))
        )
        failing = next((r for r, row in enumerate(product.data) if row), None)
        if failing is None:
            return None
        return pairs[failing][0]


# ---------------------------------------------------------------------------
# cochain machinery
# ---------------------------------------------------------------------------


def _cells(n: int, k: int, dim_m: int):
    """Every cell (S, a) of degree k: the k-subsets S of range(n), each
    with the module indices a < dim_m minor."""
    return [(S, a) for S in combinations(range(n), k) for a in range(dim_m)]


def _wedge_insert(rest, l):
    """(pos, merged): l inserted into the sorted tuple `rest`, with pos the
    number of entries of `rest` below l (the sign exponent)."""
    pos = sum(1 for x in rest if x < l)
    return pos, rest[:pos] + (l,) + rest[pos:]


def _integer_structure(ba: BasisedAlgebra, actions):
    """The bracket table of `ba` and the action matrices over one common
    denominator: (den, brackets, acts), where brackets[(a, b)] for a < b
    lists (l, (re, im)) and acts[j] holds one dict per row, column ->
    (re, im), both den times the exact values."""
    den, pairs = integer_form([c for coeffs in ba._table.values() for c in coeffs.values()]
                              + [x for a in actions for row in a._data for x in row])
    pairs = iter(pairs)
    brackets = {pair: [(l, next(pairs)) for l in coeffs] for pair, coeffs in ba._table.items()}
    acts = [[{j: p for j, p in enumerate(islice(pairs, a.cols)) if p != (0, 0)}
             for _ in range(a.rows)] for a in actions]
    return den, brackets, acts


def _rebased_actions(module: GModule, coords):
    """The actions of the basis vectors sum_k c[k] X_k, one for each row c
    of `coords` (coordinates in the module's acting basis X_k): one
    product of `coords` with the actions flattened to rows, cut back into
    dim x dim blocks."""
    dim_m = module.dim
    flat = ExactMatrix._of(len(module.actions), dim_m * dim_m, [
        [x for r in a._data for x in r] for a in module.actions
    ])
    products = ExactMatrix._of(len(coords), len(module.actions), coords).matmul(flat)
    return [
        ExactMatrix._of(dim_m, dim_m, [row[r * dim_m:(r + 1) * dim_m] for r in range(dim_m)])
        for row in products._data
    ]


def _differential_matrix(structure, rows, cols) -> ScaledIntMatrix:
    """The block of d: C^k -> C^{k+1} on the cells `rows` of degree k + 1
    and `cols` of degree k, in the order given, as Gaussian-integer rows
    over the denominator of `structure` (the algebra's
    `_integer_structure` with the actions).  A cell (S, a) is the cochain
    e^S tensor m_a: S a sorted index tuple, a a module index.  A term that
    lands on a cell outside `cols` is dropped.

    The terms of a row depend on its subset J apart from the module
    index, so they are formed once for each run of rows with the same J
    (every caller lists the module index minor)."""
    den, brackets, acts = structure
    index = {}  # subset -> {module index: column}
    for i, (S, a) in enumerate(cols):
        index.setdefault(S, {})[a] = i
    out = []
    last = None
    for J, a in rows:
        if J != last:
            last = J
            # action terms: the t-th argument removed, and it acts on m_b
            removed = [
                (index.get(J[:t] + J[t + 1:]), 1 if t % 2 == 0 else -1, acts[J[t]])
                for t in range(len(J))
            ]
            # bracket terms: pair (s, t) replaced by [X_s, X_t], signed
            merged_terms = []
            for s in range(len(J)):
                for t in range(s + 1, len(J)):
                    coeffs = brackets.get((J[s], J[t]))
                    if not coeffs:
                        continue
                    rest = J[:s] + J[s + 1:t] + J[t + 1:]
                    base_sign = 1 if (s + t) % 2 == 0 else -1
                    for l, (re, im) in coeffs:
                        if l in rest:
                            continue
                        pos, merged = _wedge_insert(rest, l)
                        slot = index.get(merged)
                        if slot is not None:
                            sign = base_sign if pos % 2 == 0 else -base_sign
                            merged_terms.append((slot, sign * re, sign * im))
        row = {}
        for slot, sign, act in removed:
            if slot is None:
                continue
            for b, (re, im) in act[a].items():
                c = slot.get(b)
                if c is not None:
                    old = row.get(c, (0, 0))
                    row[c] = (old[0] + sign * re, old[1] + sign * im)
        for slot, re, im in merged_terms:
            c = slot.get(a)
            if c is not None:
                old = row.get(c, (0, 0))
                row[c] = (old[0] + re, old[1] + im)
        out.append({j: x for j, x in row.items() if x != (0, 0)})
    return ScaledIntMatrix(len(out), len(cols), den, out)


def _negated(m: ScaledIntMatrix) -> ScaledIntMatrix:
    return ScaledIntMatrix(
        m.rows, m.cols, m.den, [{j: (-re, -im) for j, (re, im) in row.items()} for row in m.data]
    )


def _check_square_zero(matrices, message):
    """AssertionError(message(k)) for the first degree k whose successor
    composed with it is nonzero, by the sparse integer product."""
    degrees = sorted(matrices)
    for k, nxt in zip(degrees, degrees[1:]):
        if not matrices[nxt].matmul(matrices[k]).is_zero():
            raise AssertionError(message(k))


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


# ---------------------------------------------------------------------------
# cohomology tables
# ---------------------------------------------------------------------------


class CohomologyTable:
    """Exact cohomology dimensions keyed by degree k or bidegree (p, q),
    with optional representative cocycles, each a map from cell label to
    its nonzero coefficient."""

    def __init__(self, dims: dict, representatives: dict | None = None,
                 meta: dict | None = None):
        self.dims = dims
        self.representatives = representatives
        self.meta = {} if meta is None else meta

    def row(self, p: int):
        """Dims as a list over q for (p, q)-keyed tables."""
        qs = [q for (pp, q) in self.dims if pp == p]
        top = max(qs) if qs else 0
        return [self.dims.get((p, q), 0) for q in range(top + 1)]

    @staticmethod
    def _key_str(key) -> str:
        if isinstance(key, tuple):
            return ",".join(str(x) for x in key)
        return str(key)

    def to_json_dict(self) -> dict:
        out = {
            "dims": {
                self._key_str(k): v
                for k, v in sorted(self.dims.items(), key=lambda kv: self._key_str(kv[0]))
            }
        }
        if self.representatives is not None:
            out["representatives"] = {
                self._key_str(key): [{name: format_scalar(x) for name, x in rep.items()}
                                     for rep in classes]
                for key, classes in sorted(self.representatives.items(),
                                           key=lambda kv: self._key_str(kv[0]))
            }
        if self.meta:
            out["meta"] = self.meta
        return out


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
            piv_cols = _bareiss_echelon(m.echelon_rows(), n)[1]
        else:
            echelon, piv_cols = _bareiss_echelon([row[::-1] for row in m.echelon_rows()], n)
            # the image of d_{k-1} is spanned by its columns
            image = matrices[degrees[i - 1]].transpose().echelon_rows() if i > 0 else []
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
            piv_cols, kernel = linalg._kernel_vectors(theta.echelon_rows(), theta.cols)
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


def _row_labels(frame: AdaptedFrame, cells):
    """The names zeta_I wedge tau_J of a row's cells, by degree q."""
    n = frame.dim_u
    return {q: ["∧".join([f"ζ{s - n + 1}" for s in S if s >= n] + [f"τ{s + 1}" for s in S if s < n])
                or "1" for S, _ in subsets] for q, subsets in enumerate(cells)}


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
