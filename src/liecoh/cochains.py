"""The cochain engine's data: presented algebras, modules, the
differential builder and the cohomology table.

`BasisedAlgebra` presents a Lie algebra by explicit basis vectors in an
ambient algebra, its bracket solved in that basis by one elimination;
`basised` gives the presentation of a LieAlgebra, a Subalgebra (one per
subalgebra, shared) or a BasisedAlgebra.  A `GModule` has one action
matrix per acting basis vector.

The differential on alternating cochains with module coefficients is

    du(X_1,...,X_{k+1}) = sum_j (-1)^{j+1} X_j . u(...no X_j...)
                        + sum_{j<k} (-1)^{j+k} u([X_j,X_k], ...remaining...)

(1-based signs), and d o d = 0 exactly.  One builder,
`_differential_matrix`, writes every differential as a block of d of one
algebra: the rows and columns are lists of cells (S, a), the cochain e^S
tensor m_a on an index subset S and a module index a, and a term that
lands on a cell outside the columns is dropped.  `GModule.validate` takes
all cells of degrees 0 to 2 (`_cells`); the complexes of `cohomology`
take the cells they need.  The rows go straight into sparse rows of
(re, im) Python-int pairs over one positive denominator per matrix
(`ScaledIntMatrix`): the least common denominator of the bracket table
and the action matrices together, taken by one `scalars.integer_form`
(`_integer_structure`).  The scale is per matrix, not per row, so the
integer product of d_{k+1} and d_k is den_{k+1} * den_k * (d_{k+1} d_k),
which is zero exactly when d o d is; `_check_square_zero` tests that
product once per complex, for the plain, relative and bigraded complexes
alike.

The helpers at the end serve `cohomology.AdaptedFrame`: the closure test
of a block (`_leaves_block`), packed weights (`_pack`) and their check
against every bracket and action (`_check_weights`), the labels of a
bigraded row (`_row_labels`) and ad on a presented basis (`_ad`).

`cohomology` keeps the complexes, their reduction and the adapted frame:
every function that eliminates or that bench/spans.py wraps by its name
in a module.  It binds the classes and helpers it uses from here, and
`cohomology.BasisedAlgebra` is this class, so a patch of its methods
reaches every caller.  Two modules of this size, not one, keep the
interpreter's peak memory down when a query compiles the engine from
source.
"""

from __future__ import annotations

from itertools import combinations, islice

from .algebra import AlgebraError, ClosureError, LieAlgebra
from .linalg import _solve_columns
from .matrix import ExactMatrix, ScaledIntMatrix
from .scalars import ZERO, format_scalar, integer_form


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

# ---------------------------------------------------------------------------
# helpers of the adapted frame
# ---------------------------------------------------------------------------


def _leaves_block(adapted, n: int) -> bool:
    """Whether a bracket of two of the first n adapted vectors has a
    component past them."""
    return any(l >= n for pair in combinations(range(n), 2) for l in adapted.coeffs(*pair))


def _pack(lam, mu):
    """Int weight vectors as ints sum w_d B^d, additive and one-to-one on
    every sum that a cell weight can take, as B is past twice all of them."""
    base = 2 * sum(abs(x) for w in lam + mu for x in w) + 1
    return [[sum(x * base ** d for d, x in enumerate(w)) for w in ws] for ws in (lam, mu)]

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

def _row_labels(frame, cells):
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
