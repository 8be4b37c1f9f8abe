"""Shared strategies and generators for the test suite."""

from __future__ import annotations

import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from math import comb
from unittest import mock

import pytest
from hypothesis import strategies as st

from liecoh import cohomology
from liecoh.algebra import LieAlgebra, Subalgebra
from liecoh.cohomology import GModule, basised, extend_to_complement, relative_ce_cohomology
from liecoh.linalg import ExactMatrix, rank_kernel, solve_linear
from liecoh.roots import PositiveSystemError, positive_system
from liecoh.scalars import GaussianRational


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)
scalars = st.builds(GaussianRational, small_fractions, small_fractions)
small_ints = st.integers(min_value=-3, max_value=3)
gauss_integers = st.builds(GaussianRational, small_ints, small_ints)


def matrices(rows, cols, entries=scalars):
    return st.lists(
        st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(lambda data: ExactMatrix(rows, cols, data))


def square_matrices(max_n=4, entries=scalars):
    return st.integers(min_value=1, max_value=max_n).flatmap(lambda n: matrices(n, n, entries))


def rect_matrices(max_n=4, entries=scalars):
    return st.tuples(
        st.integers(min_value=1, max_value=max_n), st.integers(min_value=1, max_value=max_n)
    ).flatmap(lambda rc: matrices(rc[0], rc[1], entries))


def unit_lower_triangular(n, rng: random.Random) -> ExactMatrix:
    data = [
        [
            GaussianRational(1) if i == j
            else (GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2)) if i > j else GaussianRational(0))
            for j in range(n)
        ]
        for i in range(n)
    ]
    return ExactMatrix(n, n, data)


def random_invertible(n, rng: random.Random) -> ExactMatrix:
    lower = unit_lower_triangular(n, rng)
    upper = unit_lower_triangular(n, rng).transpose()
    return lower.matmul(upper)


def two_step_nilpotent(rng: random.Random, base_dim: int, center_dim: int) -> LieAlgebra:
    """[e_i, e_j] lands in a central span of z's: the Jacobi identity holds
    identically because all double brackets vanish."""
    names = [f"e{i + 1}" for i in range(base_dim)] + [f"z{i + 1}" for i in range(center_dim)]
    table = {}
    for i in range(base_dim):
        for j in range(i + 1, base_dim):
            coeffs = {}
            for l in range(center_dim):
                c = rng.randint(-2, 2)
                if c:
                    coeffs[base_dim + l] = Fraction(c)
            if coeffs:
                table[(i, j)] = coeffs
    return LieAlgebra(f"nilp{base_dim}c{center_dim}", names, table)


def random_nilpotent_subalgebra(rng: random.Random, g: LieAlgebra, base_dim: int, center_dim: int) -> Subalgebra:
    """Any subspace containing the center is bracket-closed in a two-step
    algebra; take random complex combinations of the base plus the
    center."""
    vectors = []
    count = rng.randint(0, base_dim)
    for _ in range(count):
        v = [GaussianRational(0)] * g.dim
        for i in range(base_dim):
            v[i] = GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
        vectors.append(v)
    for l in range(center_dim):
        v = [GaussianRational(0)] * g.dim
        v[base_dim + l] = GaussianRational(1)
        vectors.append(v)
    return Subalgebra.span(g, vectors)


def bracket_coeffs(g, j, k):
    """c_{jk}^l of g as a sparse dict over l: the bracket of basis vectors
    j and k."""
    return {l: c for l, c in enumerate(g.bracket(g.basis_vector(j), g.basis_vector(k))) if c}


def signed_permutation(g, rng):
    """g on the basis e'_i = s_i e_{perm[i]}, as the benchmark presents su3."""
    perm = list(range(g.dim))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in perm]
    where = {old: new for new, old in enumerate(perm)}
    table = {}
    for a in range(g.dim):
        for b in range(a + 1, g.dim):
            coeffs = bracket_coeffs(g, perm[a], perm[b])
            table[(a, b)] = {
                where[l]: signs[a] * signs[b] * signs[where[l]] * c for l, c in coeffs.items()
            }
    return LieAlgebra(g.name, [g.basis_names[i] for i in perm], table)


def matrix_algebra(name, basis):
    """The real Lie algebra on the named complex matrices `basis`, with its
    structure constants solved from exact commutators AB - BA and the
    Jacobi identity checked.  Independent of the builtin tables."""
    names = list(basis)
    mats = [ExactMatrix.from_rows(m) for m in basis.values()]
    flat = ExactMatrix.from_rows([[x for row in m.row_list() for x in row] for m in mats])
    table = {}
    for a, b in combinations(range(len(mats)), 2):
        commutator = mats[a].matmul(mats[b]) - mats[b].matmul(mats[a])
        coords = solve_linear(flat.transpose(), [x for row in commutator.row_list() for x in row])
        assert coords is not None and all(x.is_real() for x in coords), (names[a], names[b])
        table[(a, b)] = {l: x for l, x in enumerate(coords) if not x.is_zero()}
    g = LieAlgebra(name, names, table)
    assert g.validate() is None
    return g


def _matrix(n, entries):
    """The n x n matrix with the given {(row, col): (re, im)} entries."""
    data = [[GaussianRational(0)] * n for _ in range(n)]
    for (j, k), (re, im) in entries.items():
        data[j][k] = GaussianRational(re, im)
    return data


def su(n):
    """su(n) on H_k = i(E_kk - E_{k+1,k+1}), X_jk = E_jk - E_kj and
    Y_jk = i(E_jk + E_kj) (j < k, 1-based names), so X_jk - iY_jk = 2E_jk
    and the elliptic standard structure is span{H_k, X_jk - iY_jk}."""
    basis = {f"H{k + 1}": _matrix(n, {(k, k): (0, 1), (k + 1, k + 1): (0, -1)})
             for k in range(n - 1)}
    for j, k in combinations(range(n), 2):
        basis[f"X{j + 1}{k + 1}"] = _matrix(n, {(j, k): (1, 0), (k, j): (-1, 0)})
        basis[f"Y{j + 1}{k + 1}"] = _matrix(n, {(j, k): (0, 1), (k, j): (0, 1)})
    return matrix_algebra(f"su{n}", basis)


# t_C + n^+ of su(4), elliptic, with complement span{X_jk + iY_jk}
SU4_ELLIPTIC = ("span{H1, H2, H3, X12-iY12, X13-iY13, X14-iY14, X23-iY23, X24-iY24, "
                "X34-iY34}")


def so(n):
    """so(n) on L_jk = E_jk - E_kj (j < k, 1-based names)."""
    return matrix_algebra(f"so{n}", {
        f"L{j + 1}{k + 1}": _matrix(n, {(j, k): (1, 0), (k, j): (-1, 0)})
        for j, k in combinations(range(n), 2)
    })


def single_entry_perturbations(g, rng, count):
    """Copies of g with one structure constant c_{jk}^l moved by a nonzero
    rational, at seeded positions (present entries and new ones)."""
    out = []
    for _ in range(count):
        table = {pair: bracket_coeffs(g, *pair) for pair in g.bracket_pairs()}
        j, k = sorted(rng.sample(range(g.dim), 2))
        l = rng.randrange(g.dim)
        entry = table.setdefault((j, k), {})
        entry[l] = entry.get(l, 0) + Fraction(rng.choice((1, -1, 2, -3)), rng.choice((1, 2, 5)))
        out.append(LieAlgebra(f"{g.name}-perturbed", g.basis_names, table))
    return out


def diagonal_solvable(rng: random.Random, k: int) -> LieAlgebra:
    """[T, X_i] = lambda_i X_i with rational lambda_i; solvable, Jacobi holds."""
    names = ["T"] + [f"X{i + 1}" for i in range(k)]
    table = {}
    for i in range(k):
        lam = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        if lam:
            table[(0, i + 1)] = {i + 1: lam}
    return LieAlgebra(f"diag{k}", names, table)


@pytest.fixture
def rng():
    return random.Random(20240811)


def closed_chambers(rd):
    """Every positive system of rd: one root of each +- pair, kept when
    closed under addition."""
    pairs = [(a, tuple(-x for x in a)) for a in positive_system(rd).positive_roots]
    chambers = []
    for mask in range(2 ** len(pairs)):
        override = [pair[(mask >> i) & 1] for i, pair in enumerate(pairs)]
        try:
            chambers.append(positive_system(rd, override=override))
        except PositiveSystemError:
            pass
    return chambers


# -- complements of a frame -------------------------------------------------------


def reference_complement_basis(g, h):
    """The complement of h in g that bigraded tables and the assembly took
    before every frame took the default rule: the greedy pick from the
    conjugates of h's rows, then from g's basis."""
    candidates = [[x.conjugate() for x in row] for row in h.vectors()]
    candidates += [g.basis_vector(j) for j in range(g.dim)]
    return extend_to_complement(h.vectors(), candidates)


@contextmanager
def complement_rule(vectors):
    """Frames built inside take `vectors`, coordinates in the acting
    basis, as their complement in place of the default rule."""
    with mock.patch.object(cohomology, "_weight_complement",
                           lambda ba, u, conjugates: [list(v) for v in vectors]):
        yield


# -- the quotient-module route, kept as the oracle of the fibers ---------------


def _inversion_sign(seq):
    inversions = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j])
    return -1 if inversions % 2 else 1


def brute_force_quotient_actions(g, u, p, complement=None):
    """Lambda^p(ad) on g/u, built from LieAlgebra.bracket, and its
    contragredient, the action on Lambda^p(g/u)^*: the complement is the
    greedy pick from the standard basis unless given, [u_i, w_j] is solved
    in the basis (u, w), and a wedge of complement vectors is re-sorted with
    its permutation sign."""
    u_rows = u.vectors()
    if complement is None:
        comp, rows = [], list(u_rows)
        for j in range(g.dim):
            trial = rows + [g.basis_vector(j)]
            if rank_kernel(ExactMatrix.from_rows(trial))[0] > len(rows):
                rows = trial
                comp.append(g.basis_vector(j))
    else:
        comp = [list(v) for v in complement]
    d = len(comp)
    cols = ExactMatrix.from_rows([[v[i] for v in u_rows + comp] for i in range(g.dim)])
    subs = list(combinations(range(d), p)) if 0 <= p <= d else []
    index = {K: i for i, K in enumerate(subs)}
    actions = []
    for x in u_rows:
        # A[l][j]: complement coefficient l of [x, w_j]
        A = [[None] * d for _ in range(d)]
        for j, w in enumerate(comp):
            coords = solve_linear(cols, g.bracket(x, w))
            for l in range(d):
                A[l][j] = coords[len(u_rows) + l]
        data = [[GaussianRational(0)] * len(subs) for _ in subs]
        for K in subs:
            for pos in range(p):
                for l in range(d):
                    if A[l][K[pos]].is_zero():
                        continue
                    replaced = K[:pos] + (l,) + K[pos + 1:]
                    if len(set(replaced)) < p:
                        continue
                    target = tuple(sorted(replaced))
                    term = A[l][K[pos]] * _inversion_sign(replaced)
                    data[index[target]][index[K]] = data[index[target]][index[K]] + term
        M = ExactMatrix(len(subs), len(subs), data)
        actions.append(M.transpose().scale(-1))
    return actions


def reference_quotient_module(g, u, p, complement=None):
    """Lambda^p(g/u)^* as a module of u on its basis rows, from the
    brute-force actions."""
    dim = comb(g.dim - u.dim, p) if p >= 0 else 0
    return GModule(basised(u), dim, brute_force_quotient_actions(g, u, p, complement))


def reference_fiber(g, u_star, pair, p):
    """H^r(u_star, pair; Lambda^p(g/u_star)^*) by the route the library
    took before the fiber was a block of one frame: the quotient module of
    the brute-force actions, fed to relative cohomology with the pair."""
    module = reference_quotient_module(g, u_star, p)
    return relative_ce_cohomology(module.acting_algebra, pair, module)
