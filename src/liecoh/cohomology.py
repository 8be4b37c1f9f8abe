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
block of d of one algebra: the rows and columns are lists of index
subsets, and a term that lands on a subset outside the columns is
dropped.  The plain and module differentials and `GModule.validate` take
all subsets.  The rows go straight into sparse rows of (re, im)
Python-int pairs over one positive denominator per matrix: the lcm of the
denominators of the bracket table and of the action matrices
(`ScaledIntMatrix`).  The scale is per matrix, not per row, so the
integer product of d_{k+1} and d_k is den_{k+1} * den_k * (d_{k+1} d_k),
which is zero exactly when d o d is; `_check_square_zero` tests that
product once per complex, for the plain, relative and bigraded
complexes alike.

Every complex is a `CochainComplex`: the plain and module complexes
(`ce_complex`), the relative complex of a pair and each bigraded row
(`BigradedComplex`, which adds only its row index p and the message of
its d' o d' check).  Every cohomology is its `cohomology` method, one
reduction (`_chain_dims`) over its degrees: dims come from the pivot
counts of the elimination kernel, and representatives from reduced
echelon forms.  GaussianRational appears only at the boundary:
`ce_differential` and `CochainComplex.differentials` convert to
ExactMatrix, and kernel vectors are formed only for representatives and
for the invariant bases of the relative complex.

Every pair (acting, u) that needs a basis adapted to u, with u's basis
first and a complement W second, gets one `AdaptedFrame`.  It checks once
that u lies in the acting algebra and is bracket-closed, picks the
complement once, solves once for the bracket table in the adapted basis
and for the coordinates of the adapted vectors, and serves the quotient
modules Lambda^p(acting/u) (`quotient_module`), the relative complex
(`relative_cohomology`) and the bigraded rows for every degree and
module.  All three read blocks of d of the adapted algebra.  By Cartan's
formula theta(X) = i(X) d + d i(X), and i(u_i) kills a cochain that
vanishes on u, so the Lie derivative theta(u_i) on Lambda^k(W)^* tensor M
is the block on the rows (i,) + K over the W-subsets K; the relative d is
the block on the W-subsets.  In both, the terms dropped land on subsets
with a u index, where such a cochain vanishes, so the u-components of the
brackets drop out by themselves.  The bigraded d' of row p is the block
on the subsets with exactly p complement indices; the terms it drops are
the parts of d that raise p, which the quotient by F^{p+1} forgets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import lcm

from .algebra import AlgebraError, ClosureError, LieAlgebra, Subalgebra
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


# ---------------------------------------------------------------------------
# acting algebras presented by explicit bases
# ---------------------------------------------------------------------------


class BasisedAlgebra:
    """A Lie algebra presented by explicit basis vectors in an ambient
    algebra, with bracket coefficients expressed in that basis."""

    def __init__(self, parent: LieAlgebra, vectors, names=None):
        self.parent = parent
        self.vectors = [list(v) for v in vectors]
        self.dim = len(self.vectors)
        self.names = tuple(names) if names is not None else tuple(
            f"v{i + 1}" for i in range(self.dim)
        )
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
            {
                (j, k): {l: as_scalar(c) for l, c in acting.structure_coeffs(j, k).items()}
                for j, k in acting.bracket_pairs()
            },
        )
    if isinstance(acting, Subalgebra):
        return BasisedAlgebra(acting.parent, acting.vectors())
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
        pairs, singles = _subsets(n, 2), _subsets(n, 1)
        product = _differential_matrix(structure, self.dim, pairs, singles).matmul(
            _differential_matrix(structure, self.dim, singles, [()])
        )
        failing = next((r for r, row in enumerate(product.data) if row), None)
        if failing is None:
            return None
        return pairs[failing // self.dim]


# ---------------------------------------------------------------------------
# cochain machinery
# ---------------------------------------------------------------------------


def _subsets(n: int, k: int):
    """The k-subsets of range(n); none for k < 0."""
    return list(combinations(range(n), k)) if k >= 0 else []


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
        d for coeffs in ba._table.values() for c in coeffs.values()
        for d in (c.re.denominator, c.im.denominator)
    ))
    brackets = {
        pair: [
            (l, (c.re.numerator * (den // c.re.denominator),
                 c.im.numerator * (den // c.im.denominator)))
            for l, c in coeffs.items()
        ]
        for pair, coeffs in ba._table.items()
    }
    acts = []
    for a in scaled:
        f = den // a.den
        acts.append([{j: (re * f, im * f) for j, (re, im) in row.items()} for row in a.data])
    return den, brackets, acts


def _differential_matrix(structure, dim_m: int, rows, cols) -> ScaledIntMatrix:
    """The block of d: C^k -> C^{k+1} on the (k+1)-subsets `rows` and the
    k-subsets `cols`, sorted index tuples in the order given, each with the
    module index minor, as Gaussian-integer rows over the denominator of
    `structure` (the algebra's `_integer_structure` with the actions).  A
    term that lands on a subset outside `cols` is dropped."""
    den, brackets, acts = structure
    dom_index = {s: i for i, s in enumerate(cols)}
    out = []
    for J in rows:
        block = [{} for _ in range(dim_m)]
        # action terms: remove the t-th argument
        for t in range(len(J)):
            c = dom_index.get(J[:t] + J[t + 1:])
            if c is None:
                continue
            col_block = c * dim_m
            sign = 1 if t % 2 == 0 else -1
            for target, entries in zip(block, acts[J[t]]):
                for a, (re, im) in entries.items():
                    old = target.get(col_block + a, (0, 0))
                    target[col_block + a] = (old[0] + sign * re, old[1] + sign * im)
        # bracket terms: pair (s, t) replaced by [X_s, X_t]
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
                    c = dom_index.get(merged)
                    if c is None:
                        continue
                    sign = base_sign * (1 if pos % 2 == 0 else -1)
                    col_block = c * dim_m
                    for a, target in enumerate(block):
                        old = target.get(col_block + a, (0, 0))
                        target[col_block + a] = (old[0] + sign * re, old[1] + sign * im)
        out.extend({j: x for j, x in target.items() if x != (0, 0)} for target in block)
    return ScaledIntMatrix(len(out), len(cols) * dim_m, den, out)


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
        structure, module.dim, _subsets(ba.dim, k + 1), _subsets(ba.dim, k)
    ).to_exact()


@dataclass
class CochainComplex:
    """Per-degree basis labels and differentials; differentials[k] maps
    degree k to degree k+1 and consecutive ones compose to zero.

    The differentials are held as ScaledIntMatrix (`int_differentials`);
    `differentials` gives them as ExactMatrix.  Every cohomology in the
    package, plain, relative and bigraded, is `cohomology` of one of these.
    """

    labels: dict
    int_differentials: dict

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
    complex_ = CochainComplex(
        labels={k: _ce_labels(ba, module.dim, k) for k in range(n + 2)},
        int_differentials={
            k: _differential_matrix(structure, module.dim, _subsets(n, k + 1), _subsets(n, k))
            for k in range(n + 1)
        },
    )
    complex_.verify()
    return complex_


# ---------------------------------------------------------------------------
# cohomology tables
# ---------------------------------------------------------------------------


@dataclass
class CohomologyTable:
    """Exact cohomology dimensions keyed by degree k or bidegree (p, q),
    with optional representative cocycles in the stated basis labels."""

    dims: dict
    representatives: dict | None = None
    labels: dict | None = None
    meta: dict = field(default_factory=dict)

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
    """H^k(acting; module) for k = 0..dim, by exact rank computations."""
    return ce_complex(acting, module).cohomology(representatives)


# ---------------------------------------------------------------------------
# adapted frames and relative cohomology
# ---------------------------------------------------------------------------


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
        base = basised(acting)
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
            complement = extend_to_complement(u_vectors, base.vectors)
        coords, failed = _solve_columns(base._cols, u_vectors + complement)
        if failed is not None and failed < dim_u:
            raise AlgebraError("u is not contained in the acting algebra")
        if len(complement) != base.dim - dim_u:
            raise AlgebraError("complement does not have the right dimension")
        if failed is not None or (
            given and len(extend_to_complement(u_vectors, complement)) != len(complement)
        ):
            raise AlgebraError("complement does not complete the subalgebra basis")
        adapted = BasisedAlgebra(base.parent, u_vectors + complement)
        for pair in combinations(range(dim_u), 2):
            if any(l >= dim_u for l in adapted.coeffs(*pair)):
                raise ClosureError(pair, closure_message)
        self.base = base
        self.dim_u = dim_u
        self.codim = len(complement)
        self.complement = complement
        self.adapted = adapted
        self.coords = coords
        self.u_algebra = BasisedAlgebra._presented(
            base.parent,
            u_vectors,
            adapted.names[:dim_u],
            u.basis.transpose(),
            {pair: coeffs for pair, coeffs in adapted._table.items() if pair[1] < dim_u},
        )
        # the adapted algebra with one-dimensional trivial coefficients: its
        # Lie derivatives are the actions of u on Lambda^p(acting / u)^*, and
        # its p-preserving blocks are the bigraded d'
        self._trivial = _integer_structure(adapted, GModule.trivial(adapted).actions)

    def _w_subsets(self, k: int):
        """The k-subsets of the complement block, in adapted indices."""
        return [tuple(self.dim_u + x for x in K) for K in _subsets(self.codim, k)]

    def _theta(self, structure, dim_m: int, k: int, us) -> ScaledIntMatrix:
        """theta(u_i) on Lambda^k(W)^* tensor M for each i in `us`, stacked.
        On cochains that vanish on u, Cartan's formula leaves theta(u_i) =
        i(u_i) d: the block of d on the rows (i,) + K over the W-subsets K."""
        cols = self._w_subsets(k)
        return _differential_matrix(structure, dim_m, [(i,) + K for i in us for K in cols], cols)

    def quotient_module(self, p: int, dual: bool = False) -> GModule:
        """Lambda^p of (acting / u) as a u-module through the adjoint
        action, validated; `dual` takes the contragredient, the negated
        transpose.

        The dual action of u_i is the Lie derivative theta(u_i) on
        Lambda^p(W)^* with trivial one-dimensional coefficients (`_theta`);
        out of range, p gives the zero module.
        """
        thetas = [self._theta(self._trivial, 1, p, [i]) for i in range(self.dim_u)]
        if not dual:
            thetas = [_negated(m.transpose()) for m in thetas]
        module = GModule(
            self.u_algebra, len(_subsets(self.codim, p)), [m.to_exact() for m in thetas]
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
            return ce_cohomology(self.base, module)
        dim_m, dim_u, q = module.dim, self.dim_u, self.codim
        # actions in the adapted basis: one product of coords with the
        # actions flattened to rows, cut back into dim_m x dim_m blocks
        flat = ExactMatrix.from_rows([[x for r in a.row_list() for x in r] for a in module.actions])
        adapted_actions = [
            ExactMatrix(dim_m, dim_m, [row[r * dim_m:(r + 1) * dim_m] for r in range(dim_m)])
            for row in ExactMatrix.from_rows(self.coords).matmul(flat).row_list()
        ]
        structure = _integer_structure(self.adapted, adapted_actions)

        # per degree: Theta_k, the Lie derivatives of u on Lambda^k(W)* (x) M
        # stacked, the rows of its kernel basis B_k, and its free columns
        thetas, inv_bases, free = {}, {}, {}
        for k in range(q + 2):
            thetas[k] = self._theta(structure, dim_m, k, range(dim_u))
            size = thetas[k].cols
            piv_cols, kernel = _kernel_vectors(thetas[k].echelon_rows(), size)
            inv_bases[k] = ScaledIntMatrix.from_exact(ExactMatrix(len(kernel), size, kernel))
            free[k] = sorted(set(range(size)) - set(piv_cols))

        rel_mats = {}
        for k in range(q + 1):
            d = _differential_matrix(structure, dim_m, self._w_subsets(k + 1), self._w_subsets(k))
            images = d.matmul(inv_bases[k].transpose())
            if not thetas[k + 1].matmul(images).is_zero():
                raise AssertionError("image of invariant cochain is not invariant")
            rows = [images.data[f] for f in free[k + 1]]
            rel_mats[k] = ScaledIntMatrix(len(rows), images.cols, images.den, rows)

        complex_ = CochainComplex(labels={}, int_differentials=rel_mats)
        complex_.verify()
        table = complex_.cohomology()
        table.meta = {
            "relative_pair_dim": dim_u,
            "cochain_dims": {k: inv_bases[k].rows for k in range(q + 1)},
        }
        return table


def relative_ce_cohomology(acting, u: Subalgebra, module: GModule) -> CohomologyTable:
    """H^k(acting, u; module): `AdaptedFrame.relative_cohomology` on the
    frame of the pair."""
    frame = AdaptedFrame(acting, u, closure_message=RELATIVE_CLOSURE)
    return frame.relative_cohomology(module)


# ---------------------------------------------------------------------------
# bigraded complex of a subalgebra
# ---------------------------------------------------------------------------


def complement_basis(g: LieAlgebra, h: Subalgebra):
    """Deterministic complement of h in g: prefer conjugates of the h basis
    vectors, then the remaining standard basis vectors."""
    if h.parent != g:
        raise AlgebraError("subalgebra does not belong to the given algebra")
    candidates = [
        [x.conjugate() for x in row] for row in h.vectors()
    ] + [g.basis_vector(j) for j in range(g.dim)]
    return extend_to_complement(h.vectors(), candidates)


@dataclass
class BigradedComplex(CochainComplex):
    """The fixed-p row of the quotient complex: bases zeta_I wedge tau_J
    with |I| = p and |J| = q, and the induced differentials d' per q.

    Row p is the Chevalley-Eilenberg complex of h with coefficients in
    Lambda^p(g/h)^*, so the (p, q) space has dim C(m, p) * C(n, q) for n
    the subalgebra dimension and m its codimension, and d' o d' = 0
    exactly.  Degrees are q; only the row index p and the message of a
    failed d' o d' check are its own.
    """

    p: int

    def verify(self):
        # not a call of CochainComplex.verify: bench/spans.py wraps both by
        # name, and a call through would count two checks per row
        _check_square_zero(
            self.int_differentials, lambda q: f"d' o d' is nonzero at (p, q) = ({self.p}, {q})"
        )


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
        q: [J + I for I in frame._w_subsets(p) for J in combinations(range(n), q)]
        for q in range(n + 2)
    }
    differentials = {}
    for q in range(n + 1):
        block = _differential_matrix(frame._trivial, 1, cells[q + 1], cells[q])
        differentials[q] = _negated(block) if p % 2 else block
    complex_ = BigradedComplex(
        p=p,
        labels={
            q: [
                "∧".join([f"ζ{s - n + 1}" for s in S if s >= n]
                         + [f"τ{s + 1}" for s in S if s < n]) or "1"
                for S in subsets
            ]
            for q, subsets in cells.items()
        },
        int_differentials=differentials,
    )
    complex_.verify()
    return complex_


def bigraded_complex(g: LieAlgebra, h: Subalgebra, p: int, complement=None) -> BigradedComplex:
    """The fixed-p quotient complex of the subalgebra h, with labels and
    exact d' matrices."""
    if complement is None:
        complement = complement_basis(g, h)
    return _bigraded_row(AdaptedFrame(g, h, complement), p)


def bigraded_cohomology(
    g: LieAlgebra,
    h: Subalgebra,
    representatives: bool = False,
    complement=None,
) -> CohomologyTable:
    """H^{p,q}(g; h) = H^q(h; Lambda^p(g/h)^*): cohomology of the quotient
    complex with bases zeta_I wedge tau_J (|I| = p complement duals,
    |J| = q h duals), one `_bigraded_row` per p on one adapted frame.

    `complement` overrides the deterministic complement basis (the dims
    are independent of this choice; matrices are not).
    """
    if complement is None:
        complement = complement_basis(g, h)
    frame = AdaptedFrame(g, h, complement)
    dims = {}
    reps = {} if representatives else None
    labels = {} if representatives else None
    for p in range(frame.codim + 1):
        row = _bigraded_row(frame, p).cohomology(representatives)
        for q, v in row.dims.items():
            dims[(p, q)] = v
            if representatives:
                reps[(p, q)] = row.representatives[q]
                labels[(p, q)] = row.labels[q]
    meta = {
        "h_basis": [[format_scalar(x) for x in row] for row in frame.u_algebra.vectors],
        "complement_basis": [[format_scalar(x) for x in row] for row in frame.complement],
        "note": (
            "left-invariant (algebraic) dimensions; the comparison map into "
            "the analytic cohomology is injective, and equality holds in the "
            "theorem-backed cases"
        ),
    }
    return CohomologyTable(dims=dims, representatives=reps, labels=labels, meta=meta)
