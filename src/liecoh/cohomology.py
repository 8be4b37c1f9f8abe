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
`ce_complex` and `GModule.validate` take all cells; the bigraded rows and
the Lie derivatives theta take cells (S, 0) and (S, a) on the subsets
they need.  The rows go straight into sparse rows of (re, im)
Python-int pairs over one positive denominator per matrix: the lcm of the
denominators of the bracket table and of the action matrices
(`ScaledIntMatrix`).  The scale is per matrix, not per row, so the
integer product of d_{k+1} and d_k is den_{k+1} * den_k * (d_{k+1} d_k),
which is zero exactly when d o d is; `_check_square_zero` tests that
product once per complex, for the plain, relative and bigraded
complexes alike.

Plain, module, relative and bigraded dims are blocks of d in a basis
adapted to u (or h, or 0), u's basis first: `adapted.AdaptedFrame`, a
module loaded on first use, whose complexes keep the cells of weight
zero under the frame's torus (the `adapted` docstring gives the
argument).  Every frame takes its complement by one rule: the conjugates
of u's rows in the acting algebra first, then a joint eigenbasis of a
commuting family grown inside u (the acting algebra when u = 0).  Plain
su3 grades by a maximal torus, which keeps 244 of the 11440 entries of
d, the pair (su3, t) keeps no theta block, and the bigraded rows of the
elliptic and complex structures grade by their torus.  Representatives
and `bigraded_complex` keep every cell.

Every complex is a `CochainComplex`: the plain and module complexes
(`ce_complex` and the frame's), the relative complex of a pair and each
bigraded row (`BigradedComplex`, which adds only its row index
p and the message of its d' o d' check).  Every cohomology is its
`cohomology` method, one reduction (`_chain_dims`) over its degrees:
dims come from the pivot counts of the elimination kernel, and
representatives from reduced echelon forms.  GaussianRational appears only at the boundary:
`ce_differential` and `CochainComplex.differentials` convert to
ExactMatrix, and kernel vectors are formed only for representatives and
for the invariant bases of the relative complex.
"""

from __future__ import annotations

from itertools import combinations
from math import lcm

from .algebra import AlgebraError, ClosureError, LieAlgebra
from .linalg import (
    ExactMatrix,
    ScaledIntMatrix,
    _bareiss_echelon,
    _integer_rows,
    _kernel_vectors,
    _reduced_echelon,
    _solve_columns,
    as_scalar,
)
from .scalars import format_scalar

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
        self.acting_algebra = acting_algebra
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
    def trivial(cls, acting_algebra, dim: int = 1) -> "GModule":
        ba = basised(acting_algebra)
        return cls(acting_algebra, dim, [ExactMatrix.zero(dim, dim) for _ in range(ba.dim)])

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


def _subsets(n: int, k: int):
    """The k-subsets of range(n); none for k < 0."""
    return list(combinations(range(n), k)) if k >= 0 else []


def _cells(n: int, k: int, dim_m: int):
    """Every cell (S, a) of degree k: the k-subsets S of range(n), each
    with the module indices a < dim_m minor."""
    return [(S, a) for S in _subsets(n, k) for a in range(dim_m)]


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
    scaled = [ScaledIntMatrix.from_exact(a) for a in actions]
    den = lcm(1, *(a.den for a in scaled), *(
        c._t[2] for coeffs in ba._table.values() for c in coeffs.values()
    ))
    brackets = {
        pair: [(l, (c._t[0] * (den // c._t[2]), c._t[1] * (den // c._t[2])))
               for l, c in coeffs.items()]
        for pair, coeffs in ba._table.items()
    }
    acts = []
    for a in scaled:
        f = den // a.den
        acts.append([{j: (re * f, im * f) for j, (re, im) in row.items()} for row in a.data])
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
        return ExactMatrix.zero(len(_subsets(ba.dim, 0)) * module.dim, 0)
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

    def space_dim(self, k: int) -> int:
        return len(self.labels.get(k, []))

    def verify(self):
        _check_square_zero(self.int_differentials, lambda k: f"d o d is nonzero from degree {k}")

    def cohomology(self, representatives: bool = False) -> CohomologyTable:
        """H^k for every degree k with a differential, by exact ranks; the
        caller has verified d o d = 0.  `representatives` adds a cocycle
        basis per degree in RREF normal form modulo the coboundaries."""
        degrees = sorted(self.int_differentials)
        dims, reps = _chain_dims(self.int_differentials, degrees, representatives)
        labels = {k: self.labels[k] for k in degrees} if representatives else None
        return CohomologyTable(dims=dims, representatives=reps, labels=labels)


def _ce_labels(ba: BasisedAlgebra, dim_m: int, k: int):
    out = []
    for subset in _subsets(ba.dim, k):
        base = "∧".join(ba.names[j] for j in subset) if subset else "1"
        for a in range(dim_m):
            out.append(base if dim_m == 1 else f"{base}⊗m{a + 1}")
    return out


def ce_complex(acting, module: GModule) -> CochainComplex:
    """The full cochain complex of `acting` with coefficients in `module`,
    verified to square to zero."""
    ba = basised(acting)
    n = ba.dim
    structure = _integer_structure(ba, module.actions)
    cells = [_cells(n, k, module.dim) for k in range(n + 2)]
    complex_ = CochainComplex(
        labels={k: _ce_labels(ba, module.dim, k) for k in range(n + 2)},
        int_differentials={
            k: _differential_matrix(structure, cells[k + 1], cells[k]) for k in range(n + 1)
        },
    )
    complex_.verify()
    return complex_


# ---------------------------------------------------------------------------
# cohomology tables
# ---------------------------------------------------------------------------


class CohomologyTable:
    """Exact cohomology dimensions keyed by degree k or bidegree (p, q),
    with optional representative cocycles in the stated basis labels."""

    def __init__(self, dims: dict, representatives: dict | None = None,
                 labels: dict | None = None, meta: dict | None = None):
        self.dims = dims
        self.representatives = representatives
        self.labels = labels
        self.meta = {} if meta is None else meta

    def dim(self, key) -> int:
        return self.dims.get(key, 0)

    def degree_list(self):
        """Dims as a list over 0..max for integer-keyed tables."""
        if not self.dims:
            return [0]
        top = max(self.dims)
        return [self.dims.get(k, 0) for k in range(top + 1)]

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
            reps = {}
            for key, vectors in sorted(
                self.representatives.items(), key=lambda kv: self._key_str(kv[0])
            ):
                names = self.labels[key]
                reps[self._key_str(key)] = [
                    {
                        name: format_scalar(x)
                        for name, x in zip(names, vec)
                        if not x.is_zero()
                    }
                    for vec in vectors
                ]
            out["representatives"] = reps
        if self.meta:
            out["meta"] = self.meta
        return out


def _quotient_representatives(kernel_vectors, image_rows, ncols):
    """Kernel vectors modulo the row space of the Gaussian-integer
    `image_rows`, in reduced echelon normal form (deterministic).

    One reduced echelon form of the image rows stacked on the kernel
    vectors; its rows whose pivot is not a pivot of the image alone are
    the answer.  RREF is unique and the pivots of a subspace are among
    those of any larger space, so these rows are the RREF of the kernel
    reduced modulo the image: they vanish at every image pivot.
    """
    if not kernel_vectors:
        return []
    _, image_pivots = _bareiss_echelon([list(row) for row in image_rows], ncols)
    rows, pivots = _reduced_echelon(image_rows + _integer_rows(kernel_vectors), ncols)
    image_pivots = set(image_pivots)
    return [row for row, p in zip(rows, pivots) if p not in image_pivots]


def _chain_dims(matrices, degrees, representatives=False):
    """Cohomology dims, and with `representatives` the representatives, of
    a cochain complex given its differentials (`CochainComplex.cohomology`).

    `matrices[k]` is d: degree k -> degree k+1 for k in `degrees`, a
    ScaledIntMatrix; the caller has verified d o d = 0 (each complex is
    checked once, when it is built).  Dims come from pivot counts;
    kernel vectors are formed only for representatives.
    """
    ranks = {}
    kernels = {}
    for k in degrees:
        m = matrices[k]
        if representatives:
            piv_cols, kernels[k] = _kernel_vectors(m.echelon_rows(), m.cols)
        else:
            _, piv_cols = _bareiss_echelon(m.echelon_rows(), m.cols)
        ranks[k] = len(piv_cols)
    dims = {}
    reps = {} if representatives else None
    for i, k in enumerate(degrees):
        incoming = ranks[degrees[i - 1]] if i > 0 else 0
        dims[k] = matrices[k].cols - ranks[k] - incoming
        if representatives:
            # the image of d_{k-1} is spanned by its columns
            image = matrices[degrees[i - 1]].transpose().echelon_rows() if i > 0 else []
            reps[k] = _quotient_representatives(kernels[k], image, matrices[k].cols)
    return dims, reps


def ce_cohomology(acting, module: GModule, representatives: bool = False) -> CohomologyTable:
    """H^k(acting; module) for k = 0..dim: the relative cohomology of the
    frame with u = 0 (`adapted.AdaptedFrame`), graded by its torus, or for
    `representatives` the full complex (`ce_complex`), whose labels are in
    the acting basis."""
    ba = basised(acting)
    if representatives:
        return ce_complex(ba, module).cohomology(representatives)
    from .adapted import AdaptedFrame

    return AdaptedFrame(ba, None).relative_cohomology(module)


# ---------------------------------------------------------------------------
# relative cohomology and the bigraded complex of a subalgebra, on one
# adapted frame (`liecoh.adapted`, loaded on first use)
# ---------------------------------------------------------------------------


def relative_ce_cohomology(acting, u: Subalgebra, module: GModule) -> CohomologyTable:
    """H^k(acting, u; module): `AdaptedFrame.relative_cohomology` on the
    frame of the pair, graded by the torus of u (of the acting algebra
    when u = 0, where this is `ce_cohomology`)."""
    from .adapted import RELATIVE_CLOSURE, AdaptedFrame

    frame = AdaptedFrame(basised(acting), u, closure_message=RELATIVE_CLOSURE)
    return frame.relative_cohomology(module)


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
    from .adapted import AdaptedFrame, _bigraded_row

    return _bigraded_row(AdaptedFrame(g, h), p)


def bigraded_cohomology(g: LieAlgebra, h: Subalgebra, representatives: bool = False) -> CohomologyTable:
    """H^{p,q}(g; h) = H^q(h; Lambda^p(g/h)^*): cohomology of the quotient
    complex with bases zeta_I wedge tau_J (|I| = p complement duals,
    |J| = q h duals), one `_bigraded_row` per p on the frame of (g, h),
    whose complement the meta prints."""
    from .adapted import AdaptedFrame, _bigraded_row

    frame = AdaptedFrame(g, h)
    dims = {}
    reps = {} if representatives else None
    labels = {} if representatives else None
    for p in range(frame.codim + 1):
        row = _bigraded_row(frame, p, graded=not representatives).cohomology(representatives)
        for q, v in row.dims.items():
            dims[(p, q)] = v
            if representatives:
                reps[(p, q)] = row.representatives[q]
                labels[(p, q)] = row.labels[q]
    meta = {
        "h_basis": [[format_scalar(x) for x in row] for row in frame.adapted.vectors[:frame.dim_u]],
        "complement_basis": [[format_scalar(x) for x in row] for row in frame.complement],
        "note": (
            "left-invariant (algebraic) dimensions; the comparison map into "
            "the analytic cohomology is injective, and equality holds in the "
            "theorem-backed cases"
        ),
    }
    return CohomologyTable(dims=dims, representatives=reps, labels=labels, meta=meta)
