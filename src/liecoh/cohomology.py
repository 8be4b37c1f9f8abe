"""Chevalley-Eilenberg complexes: plain, relative and bigraded.

The differential on alternating cochains with module coefficients is

    du(X_1,...,X_{k+1}) = sum_j (-1)^{j+1} X_j . u(...no X_j...)
                        + sum_{j<k} (-1)^{j+k} u([X_j,X_k], ...remaining...)

(1-based signs), and d o d = 0 exactly.  The relative complex of a pair
(g, u) lives on cochains over g/u that are killed by the induced u
Lie-derivative action; that invariance is exactly what makes the space
stable under d.  The bigraded complex of a subalgebra h splits the full
trivial-coefficient complex by the number of complement-dual factors;
d' keeps the component with the same complement count, components with
more are killed by the quotient and components with fewer vanish because
h is involutive (asserted).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations

from .algebra import AlgebraError, ClosureError, LieAlgebra, Subalgebra
from .linalg import (
    ExactMatrix,
    as_scalar,
    rank_kernel,
    rref,
    solve_linear,
    vec_is_zero,
)
from .scalars import ZERO, format_scalar


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
        self._table = {}
        for a in range(self.dim):
            for b in range(a + 1, self.dim):
                w = parent.bracket(self.vectors[a], self.vectors[b])
                coords = solve_linear(self._cols, w)
                if coords is None:
                    raise ClosureError((a, b))
                entry = {l: c for l, c in enumerate(coords) if not c.is_zero()}
                if entry:
                    self._table[(a, b)] = entry

    def coeffs(self, a: int, b: int):
        if a == b:
            return {}
        if a < b:
            return self._table.get((a, b), {})
        return {l: -c for l, c in self._table.get((b, a), {}).items()}

    def coordinates_of(self, vector):
        return solve_linear(self._cols, list(vector))


def basised(acting) -> BasisedAlgebra:
    if isinstance(acting, BasisedAlgebra):
        return acting
    if isinstance(acting, LieAlgebra):
        ba = BasisedAlgebra.__new__(BasisedAlgebra)
        ba.parent = acting
        ba.vectors = [acting.basis_vector(k) for k in range(acting.dim)]
        ba.dim = acting.dim
        ba.names = acting.basis_names
        ba._cols = ExactMatrix.identity(acting.dim)
        ba._table = {
            (j, k): {l: as_scalar(c) for l, c in coeffs.items()}
            for (j, k), coeffs in ((p, acting.structure_coeffs(*p)) for p in acting.bracket_pairs())
        }
        return ba
    if isinstance(acting, Subalgebra):
        return BasisedAlgebra(acting.parent, acting.vectors())
    raise TypeError(f"cannot act with {type(acting).__name__}")


def extend_to_complement(base_vectors, candidates):
    """Greedily pick candidates independent from the running span; the
    returned vectors complement span(base_vectors) inside span(base +
    candidates)."""
    rows = [list(v) for v in base_vectors]
    picked = []
    current_rank = rank_kernel(ExactMatrix.from_rows(rows))[0] if rows else 0
    for cand in candidates:
        trial = rows + [list(cand)]
        r = rank_kernel(ExactMatrix.from_rows(trial))[0]
        if r > current_rank:
            rows = trial
            current_rank = r
            picked.append(list(cand))
    return picked


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
        pairs, else the first failing pair."""
        ba = self._basis
        for a in range(ba.dim):
            for b in range(a + 1, ba.dim):
                lhs = ExactMatrix.zero(self.dim, self.dim)
                for l, c in ba.coeffs(a, b).items():
                    lhs = lhs + self.actions[l].scale(c)
                rhs = self.actions[a].matmul(self.actions[b]) - self.actions[b].matmul(
                    self.actions[a]
                )
                if lhs != rhs:
                    return (a, b)
        return None


# ---------------------------------------------------------------------------
# cochain machinery
# ---------------------------------------------------------------------------


def _subsets(n: int, k: int):
    return list(combinations(range(n), k))


def _differential_matrix(ba: BasisedAlgebra, actions, dim_m: int, k: int) -> ExactMatrix:
    """Matrix of d: C^k -> C^{k+1} on the basis (subset, module index),
    ordered subsets-lexicographic major, module index minor."""
    n = ba.dim
    dom = _subsets(n, k)
    cod = _subsets(n, k + 1)
    dom_index = {s: i for i, s in enumerate(dom)}
    rows = len(cod) * dim_m
    cols = len(dom) * dim_m
    if rows == 0 or cols == 0:
        return ExactMatrix.zero(rows, cols)
    data = [[ZERO] * cols for _ in range(rows)]
    for J_idx, J in enumerate(cod):
        # action terms: remove the t-th argument
        for t in range(k + 1):
            sub = J[:t] + J[t + 1:]
            col_block = dom_index[sub] * dim_m
            act = actions[J[t]]
            sign = 1 if t % 2 == 0 else -1
            for b in range(dim_m):
                target = data[J_idx * dim_m + b]
                for a in range(dim_m):
                    v = act[b, a]
                    if not v.is_zero():
                        target[col_block + a] = target[col_block + a] + sign * v
        # bracket terms: pair (s, t) replaced by [X_s, X_t]
        for s in range(k + 1):
            for t in range(s + 1, k + 1):
                coeffs = ba.coeffs(J[s], J[t])
                if not coeffs:
                    continue
                rest = tuple(x for idx, x in enumerate(J) if idx not in (s, t))
                base_sign = 1 if (s + t) % 2 == 0 else -1
                for l, c in coeffs.items():
                    if l in rest:
                        continue
                    pos = sum(1 for x in rest if x < l)
                    merged = rest[:pos] + (l,) + rest[pos:]
                    sign = base_sign * (1 if pos % 2 == 0 else -1)
                    col_block = dom_index[merged] * dim_m
                    contrib = c * sign
                    for a in range(dim_m):
                        row = data[J_idx * dim_m + a]
                        row[col_block + a] = row[col_block + a] + contrib
    return ExactMatrix(rows, cols, data)


def ce_differential(acting, module: GModule, k: int) -> ExactMatrix:
    """The degree-k differential of the cochain complex of `acting` with
    coefficients in `module`."""
    ba = basised(acting)
    if k < 0:
        return ExactMatrix.zero(len(_subsets(ba.dim, 0)) * module.dim, 0)
    return _differential_matrix(ba, module.actions, module.dim, k)


@dataclass
class CochainComplex:
    """Per-degree basis labels and differentials; differentials[k] maps
    degree k to degree k+1 and consecutive ones compose to zero."""

    labels: dict
    differentials: dict

    def space_dim(self, k: int) -> int:
        return len(self.labels.get(k, []))

    def verify(self):
        degrees = sorted(self.differentials)
        for k, nxt in zip(degrees, degrees[1:]):
            composed = self.differentials[nxt].matmul(self.differentials[k])
            if any(not x.is_zero() for row in composed.row_list() for x in row):
                raise AssertionError(f"d o d is nonzero from degree {k}")


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
    complex_ = CochainComplex(
        labels={k: _ce_labels(ba, module.dim, k) for k in range(n + 2)},
        differentials={
            k: _differential_matrix(ba, module.actions, module.dim, k) for k in range(n + 1)
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
            serializable = {
                k: v for k, v in self.meta.items() if isinstance(v, (str, int, bool, list, dict))
            }
            if serializable:
                out["meta"] = serializable
        return out


def _image_rows(matrix: ExactMatrix):
    return [row for row in matrix.transpose().row_list() if not vec_is_zero(row)]


def _quotient_representatives(kernel_vectors, image_rows, ncols):
    """Kernel vectors reduced modulo the image row space, in reduced
    echelon normal form (deterministic)."""
    if not kernel_vectors:
        return []
    if image_rows:
        reduced_image, pivots = rref(ExactMatrix.from_rows(image_rows))
        img = reduced_image.row_list()
    else:
        img, pivots = [], ()
    reduced = []
    for v in kernel_vectors:
        w = list(v)
        for row, p in zip(img, pivots):
            f = w[p]
            if not f.is_zero():
                w = [x - f * y for x, y in zip(w, row)]
        if not vec_is_zero(w):
            reduced.append(w)
    if not reduced:
        return []
    canon, _ = rref(ExactMatrix.from_rows(reduced))
    return canon.row_list()


def _chain_dims(matrices, degrees, representatives=False, label_fn=None):
    """Cohomology dims of a cochain complex given its differentials.

    `matrices[k]` is d: degree k -> degree k+1 for k in `degrees`; the
    caller has verified d o d = 0 (each complex is checked once, when it
    is built).
    """
    dims = {}
    reps = {} if representatives else None
    labels = {} if representatives else None
    kernels = {}
    ranks = {}
    for k in degrees:
        r, kern = rank_kernel(matrices[k])
        ranks[k] = r
        kernels[k] = kern
    for i, k in enumerate(degrees):
        incoming = ranks[degrees[i - 1]] if i > 0 else 0
        dims[k] = len(kernels[k]) - incoming
        if representatives:
            image = _image_rows(matrices[degrees[i - 1]]) if i > 0 else []
            reps[k] = _quotient_representatives(kernels[k], image, matrices[k].cols)
            labels[k] = label_fn(k)
    return dims, reps, labels


def ce_cohomology(acting, module: GModule, representatives: bool = False) -> CohomologyTable:
    """H^k(acting; module) for k = 0..dim, by exact rank computations."""
    ba = basised(acting)
    n = ba.dim
    complex_ = ce_complex(acting, module)
    dims, reps, labels = _chain_dims(
        complex_.differentials,
        list(range(n + 1)),
        representatives,
        lambda k: complex_.labels[k],
    )
    return CohomologyTable(dims=dims, representatives=reps, labels=labels)


# ---------------------------------------------------------------------------
# relative cohomology
# ---------------------------------------------------------------------------


def _lie_derivative_matrix(adapted: BasisedAlgebra, actions, dim_m, dim_u, k, acting_index):
    """theta(X_i) on Lambda^k(W)* tensor M for W the complement block of the
    adapted basis; the bracket action is taken modulo the first dim_u
    vectors (the quotient)."""
    q = adapted.dim - dim_u
    subs = _subsets(q, k)
    index = {s: i for i, s in enumerate(subs)}
    size = len(subs) * dim_m
    data = [[ZERO] * size for _ in range(size)]
    act = actions[acting_index]
    for K_idx, K in enumerate(subs):
        # module part
        for b in range(dim_m):
            row = data[K_idx * dim_m + b]
            for a in range(dim_m):
                v = act[b, a]
                if not v.is_zero():
                    row[K_idx * dim_m + a] = row[K_idx * dim_m + a] + v
        # argument part: replace K[pos] by [X_i, W_{K[pos]}] mod u; the
        # evaluation tuple K indexes the row, the resorted subset the column
        for pos in range(k):
            coeffs = adapted.coeffs(acting_index, dim_u + K[pos])
            for l, c in coeffs.items():
                if l < dim_u:
                    continue
                wl = l - dim_u
                rest = K[:pos] + K[pos + 1:]
                if wl in rest:
                    continue
                p_new = sum(1 for x in rest if x < wl)
                newK = rest[:p_new] + (wl,) + rest[p_new:]
                sign = 1 if (pos - p_new) % 2 == 0 else -1
                contrib = c * sign
                for a in range(dim_m):
                    row = data[K_idx * dim_m + a]
                    col = index[newK] * dim_m + a
                    row[col] = row[col] - contrib
    return ExactMatrix(size, size, data)


def relative_ce_cohomology(acting, u: Subalgebra, module: GModule) -> CohomologyTable:
    """H^k(acting, u; module): cohomology of the u-invariant cochains on
    the quotient of acting by u.

    Vanishing on u arguments is structural (cochains live on a complement
    of u); invariance under the induced u action is imposed as an exact
    linear condition, which is what makes the space d-stable.
    """
    ba = basised(acting)
    u_coords = []
    for v in u.vectors():
        coords = ba.coordinates_of(v)
        if coords is None:
            raise AlgebraError("u is not contained in the acting algebra")
        u_coords.append(coords)
    witness = u.is_subalgebra()
    if witness is not None:
        raise ClosureError(witness, "relative pair requires a bracket-closed u")
    if u.dim == 0:
        return ce_cohomology(acting, module)
    u_vectors = u.vectors()
    complement = extend_to_complement(u_vectors, ba.vectors)
    if len(complement) != ba.dim - u.dim:
        raise AlgebraError("could not complete a complement of u inside the acting algebra")
    adapted = BasisedAlgebra(ba.parent, u_vectors + complement)
    # actions in the adapted basis: linear combinations of the given matrices
    adapted_actions = []
    for vec in adapted.vectors:
        coords = ba.coordinates_of(vec)
        mat = ExactMatrix.zero(module.dim, module.dim)
        for j, c in enumerate(coords):
            if not c.is_zero():
                mat = mat + module.actions[j].scale(c)
        adapted_actions.append(mat)
    dim_u = u.dim
    q = adapted.dim - dim_u
    full_mats = {
        k: _differential_matrix(adapted, adapted_actions, module.dim, k)
        for k in range(adapted.dim + 1)
    }
    full_subsets = {k: _subsets(adapted.dim, k) for k in range(adapted.dim + 2)}
    # invariant bases per degree, as coordinate vectors on Lambda^k(W)* (x) M
    inv_bases = {}
    for k in range(q + 1):
        size = len(_subsets(q, k)) * module.dim
        if size == 0:
            inv_bases[k] = []
            continue
        stacked_rows = []
        for i in range(dim_u):
            theta = _lie_derivative_matrix(adapted, adapted_actions, module.dim, dim_u, k, i)
            stacked_rows.extend(theta.row_list())
        if stacked_rows:
            _, kern = rank_kernel(ExactMatrix.from_rows(stacked_rows))
        else:
            kern = [list(row) for row in ExactMatrix.identity(size).row_list()]
        inv_bases[k] = kern

    def embed(k, vec):
        """W-cochain coordinates -> full adapted cochain coordinates."""
        subs = _subsets(q, k)
        full_index = {s: i for i, s in enumerate(full_subsets[k])}
        out = [ZERO] * (len(full_subsets[k]) * module.dim)
        for s_idx, K in enumerate(subs):
            S = tuple(dim_u + x for x in K)
            block = full_index[S] * module.dim
            for a in range(module.dim):
                x = vec[s_idx * module.dim + a]
                if not x.is_zero():
                    out[block + a] = x
        return out

    def restrict(k, vec):
        """Full adapted cochain -> W-cochain coordinates; asserts that no
        component touches a u argument."""
        subs = _subsets(q, k)
        sub_index = {s: i for i, s in enumerate(subs)}
        out = [ZERO] * (len(subs) * module.dim)
        for S_idx, S in enumerate(full_subsets[k]):
            block = S_idx * module.dim
            if all(x >= dim_u for x in S):
                K = tuple(x - dim_u for x in S)
                tgt = sub_index[K] * module.dim
                for a in range(module.dim):
                    out[tgt + a] = vec[block + a]
            else:
                for a in range(module.dim):
                    if not vec[block + a].is_zero():
                        raise AssertionError(
                            "differential of an invariant relative cochain "
                            "touched a u argument"
                        )
        return out

    rel_mats = {}
    for k in range(q + 1):
        dom = inv_bases[k]
        cod = inv_bases.get(k + 1, [])
        cols = []
        if cod:
            cod_matrix = ExactMatrix.from_rows(
                [[cod[c][r] for c in range(len(cod))] for r in range(len(cod[0]))]
            )
        for vec in dom:
            image = full_mats[k].apply(embed(k, vec))
            w = restrict(k + 1, image)
            if not cod:
                if not vec_is_zero(w):
                    raise AssertionError("image of invariant cochain is not invariant")
                cols.append([])
                continue
            coords = solve_linear(cod_matrix, w)
            if coords is None:
                raise AssertionError("image of invariant cochain is not invariant")
            cols.append(coords)
        rel_mats[k] = ExactMatrix(
            len(cod), len(dom), [[cols[c][r] for c in range(len(dom))] for r in range(len(cod))]
        )

    CochainComplex(labels={}, differentials=rel_mats).verify()
    dims, _, _ = _chain_dims(rel_mats, list(range(q + 1)))
    return CohomologyTable(
        dims=dims,
        meta={"relative_pair_dim": dim_u, "cochain_dims": {k: len(inv_bases[k]) for k in range(q + 1)}},
    )


# ---------------------------------------------------------------------------
# bigraded complex of a subalgebra
# ---------------------------------------------------------------------------


def complement_basis(g: LieAlgebra, h: Subalgebra):
    """Deterministic complement of h in g: prefer conjugates of the h basis
    vectors, then the remaining standard basis vectors."""
    candidates = [
        [x.conjugate() for x in row] for row in h.vectors()
    ] + [g.basis_vector(j) for j in range(g.dim)]
    return extend_to_complement(h.vectors(), candidates)


@dataclass
class BigradedComplex:
    """The fixed-p row of the quotient complex: bases zeta_I wedge tau_J
    with |I| = p and |J| = q, and the induced differentials d' per q.

    dim of the (p, q) space is C(m, p) * C(n, q) for n the subalgebra
    dimension and m its codimension; d' o d' = 0 exactly.
    """

    p: int
    labels: dict
    dprime: dict

    def space_dim(self, q: int) -> int:
        return len(self.labels.get(q, []))

    def verify(self):
        degrees = sorted(self.dprime)
        for q, nxt in zip(degrees, degrees[1:]):
            composed = self.dprime[nxt].matmul(self.dprime[q])
            if any(not x.is_zero() for row in composed.row_list() for x in row):
                raise AssertionError(f"d' o d' is nonzero at (p, q) = ({self.p}, {q})")


class _BigradedSetup:
    """Shared state for the bigraded complexes of one (g, h) pair: the
    adapted basis (h first, complement second) and the full
    trivial-coefficient differentials."""

    def __init__(self, g: LieAlgebra, h: Subalgebra, complement=None):
        if h.parent != g:
            raise AlgebraError("subalgebra does not belong to the given algebra")
        witness = h.is_subalgebra()
        if witness is not None:
            raise ClosureError(witness)
        self.g = g
        self.h = h
        self.n = h.dim
        self.m = g.dim - h.dim
        comp = complement_basis(g, h) if complement is None else [list(v) for v in complement]
        if len(comp) != self.m:
            raise AlgebraError("complement does not have the right dimension")
        self.h_rows = h.vectors()
        self.comp = comp
        if Subalgebra.span(g, self.h_rows + comp).dim != g.dim:
            raise AlgebraError("complement does not complete the subalgebra basis")
        names = [f"τ{j + 1}" for j in range(self.n)] + [
            f"ζ{i + 1}" for i in range(self.m)
        ]
        adapted = BasisedAlgebra(g, self.h_rows + comp, names=names)
        trivial = [ExactMatrix.zero(1, 1) for _ in range(adapted.dim)]
        self.full_mats = {
            k: _differential_matrix(adapted, trivial, 1, k) for k in range(g.dim + 1)
        }
        self.full_subsets = {k: _subsets(g.dim, k) for k in range(g.dim + 2)}
        self.full_index = {
            k: {s: i for i, s in enumerate(subs)} for k, subs in self.full_subsets.items()
        }

    def pq_basis(self, p, q):
        return [
            (I, J)
            for I in combinations(range(self.m), p)
            for J in combinations(range(self.n), q)
        ]

    @staticmethod
    def label(I, J):
        parts = [f"ζ{i + 1}" for i in I] + [f"τ{j + 1}" for j in J]
        return "∧".join(parts) if parts else "1"

    def dprime_matrix(self, p, q) -> ExactMatrix:
        n, g = self.n, self.g
        dom = self.pq_basis(p, q)
        cod = self.pq_basis(p, q + 1)
        cod_index = {b: i for i, b in enumerate(cod)}
        data = [[ZERO] * len(dom) for _ in range(len(cod))]
        k = p + q
        if k > g.dim or not dom:
            return ExactMatrix(len(cod), len(dom), data)
        # the basis functional zeta_I wedge tau_J is (-1)^{pq} times the
        # ascending-index wedge tau_J wedge zeta_I, so embedding and
        # extraction contribute (-1)^{pq} and (-1)^{p(q+1)}
        emb_sign = as_scalar(1 if (p * q) % 2 == 0 else -1)
        ext_sign = as_scalar(1 if (p * (q + 1)) % 2 == 0 else -1)
        for d_idx, (I, J) in enumerate(dom):
            S = tuple(J) + tuple(n + i for i in I)
            col = self.full_mats[k].col(self.full_index[k][S])
            for S2_idx, c in enumerate(col):
                if c.is_zero():
                    continue
                S2 = self.full_subsets[k + 1][S2_idx]
                zeta_count = sum(1 for x in S2 if x >= n)
                if zeta_count > p:
                    continue  # killed by the quotient
                if zeta_count < p:
                    raise AssertionError(
                        "differential dropped below the complement filtration; "
                        "the subalgebra is not involutive"
                    )
                J2 = tuple(x for x in S2 if x < n)
                I2 = tuple(x - n for x in S2 if x >= n)
                value = emb_sign * ext_sign * c
                data[cod_index[(I2, J2)]][d_idx] = data[cod_index[(I2, J2)]][d_idx] + value
        return ExactMatrix(len(cod), len(dom), data)

    def complex_for(self, p: int) -> BigradedComplex:
        complex_ = BigradedComplex(
            p=p,
            labels={
                q: [self.label(I, J) for (I, J) in self.pq_basis(p, q)]
                for q in range(self.n + 2)
            },
            dprime={q: self.dprime_matrix(p, q) for q in range(self.n + 1)},
        )
        complex_.verify()
        return complex_


def bigraded_complex(g: LieAlgebra, h: Subalgebra, p: int, complement=None) -> BigradedComplex:
    """The fixed-p quotient complex of the subalgebra h, with labels and
    exact d' matrices."""
    return _BigradedSetup(g, h, complement).complex_for(p)


def bigraded_cohomology(
    g: LieAlgebra,
    h: Subalgebra,
    representatives: bool = False,
    complement=None,
    max_workers: int = 1,
) -> CohomologyTable:
    """H^{p,q}(g; h): cohomology of the quotient complex with bases
    zeta_I wedge tau_J (|I| = p complement duals, |J| = q h duals).

    `complement` overrides the deterministic complement basis (the dims
    are independent of this choice; matrices are not).
    """
    setup = _BigradedSetup(g, h, complement)
    n, m = setup.n, setup.m

    def compute_p(p):
        complex_ = setup.complex_for(p)
        dims, reps, labels = _chain_dims(
            complex_.dprime,
            list(range(n + 1)),
            representatives,
            lambda q: complex_.labels[q],
        )
        return p, dims, reps, labels

    ps = list(range(m + 1))
    if max_workers > 1 and len(ps) > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            results = list(pool.map(compute_p, ps))
    else:
        results = [compute_p(p) for p in ps]

    dims = {}
    reps = {} if representatives else None
    labels = {} if representatives else None
    for p, pdims, preps, plabels in sorted(results):
        for q, v in pdims.items():
            dims[(p, q)] = v
        if representatives:
            for q in preps:
                reps[(p, q)] = preps[q]
                labels[(p, q)] = plabels[q]
    meta = {
        "h_basis": [[format_scalar(x) for x in row] for row in setup.h_rows],
        "complement_basis": [[format_scalar(x) for x in row] for row in setup.comp],
        "note": (
            "left-invariant (algebraic) dimensions; the comparison map into "
            "the analytic cohomology is injective, and equality holds in the "
            "theorem-backed cases"
        ),
    }
    return CohomologyTable(dims=dims, representatives=reps, labels=labels, meta=meta)
