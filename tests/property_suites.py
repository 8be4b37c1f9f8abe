"""Randomized property suites, shared by the property tests and the
acceptance runner.  Each suite raises on the first violated case."""

from __future__ import annotations

import random
from math import comb

from liecoh.algebra import Subalgebra, parse_span, su2
from liecoh.cohomology import bigraded_cohomology
from liecoh.linalg import ExactMatrix, hermitian_inertia, rank_kernel
from liecoh.matrix import vec_is_zero
from liecoh.scalars import GaussianRational as Q

from conftest import (
    complement_rule,
    diagonal_solvable,
    random_invertible,
    random_nilpotent_subalgebra,
    reference_complement_basis,
    two_step_nilpotent,
)


def _algebra_subalgebra_cases(rng: random.Random):
    """An endless rotation of (algebra, subalgebra) pairs: two-step
    nilpotent, diagonal solvable, and the rank-one compact fixtures (the
    larger compact cases have dedicated tests)."""
    g2 = su2()
    fixtures = [
        (g2, parse_span("span{T, X-iY}", g2)),
        (g2, parse_span("span{X-iY}", g2)),
        (g2, Subalgebra.full(g2)),
    ]
    while True:
        kind = rng.randrange(3)
        if kind == 0:
            base, center = rng.randint(2, 3), 1
            g = two_step_nilpotent(rng, base, center)
            yield g, random_nilpotent_subalgebra(rng, g, base, center)
        elif kind == 1:
            k = rng.randint(1, 3)
            g = diagonal_solvable(rng, k)
            picks = [i + 1 for i in range(k) if rng.random() < 0.6]
            vectors = [g.basis_vector(i) for i in picks]
            if rng.random() < 0.5:
                vectors.append(g.basis_vector(0))
            yield g, Subalgebra.span(g, vectors)
        else:
            yield fixtures[rng.randrange(len(fixtures))]


def run_dprime_squares_and_euler(count: int):
    """d' o d' = 0 (asserted inside the bigraded builder) and the Euler
    characteristic identity per p on randomized algebras."""
    rng = random.Random(1201)
    cases = _algebra_subalgebra_cases(rng)
    for _ in range(count):
        g, h = next(cases)
        table = bigraded_cohomology(g, h)
        n, m = h.dim, g.dim - h.dim
        for p in range(m + 1):
            space = sum((-1) ** q * comb(m, p) * comb(n, q) for q in range(n + 1))
            coh = sum((-1) ** q * table.dims.get((p, q), 0) for q in range(n + 1))
            assert space == coh, (g.name, p)


def run_rank_nullity(count: int):
    rng = random.Random(1202)
    for _ in range(count):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        M = ExactMatrix(
            rows,
            cols,
            [
                [Q(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(cols)]
                for _ in range(rows)
            ],
        )
        r, kern = rank_kernel(M)
        assert r + len(kern) == cols
        for v in kern:
            assert vec_is_zero(M.apply(v))
        assert rank_kernel(M.transpose())[0] == r
        assert rank_kernel(M.conj_transpose())[0] == r


def run_conj_involution(count: int):
    rng = random.Random(1203)
    cases = _algebra_subalgebra_cases(rng)
    for _ in range(count):
        g, h = next(cases)
        assert h.conj().conj() == h
        other = Subalgebra.span(
            g,
            [
                [Q(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(g.dim)]
                for _ in range(rng.randint(0, 2))
            ],
        )
        assert h.sum_with(other).dim + h.intersect(other).dim == h.dim + other.dim


def run_inertia_congruence(count: int):
    rng = random.Random(1204)
    for _ in range(count):
        n = rng.randint(1, 4)
        A = ExactMatrix(
            n,
            n,
            [[Q(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)],
        )
        H = A + A.conj_transpose()
        P = random_invertible(n, rng)
        assert (
            hermitian_inertia(P.conj_transpose().matmul(H).matmul(P)).as_tuple()
            == hermitian_inertia(H).as_tuple()
        )


def run_complement_independence(count: int):
    rng = random.Random(1205)
    cases = _algebra_subalgebra_cases(rng)
    for _ in range(count):
        g, h = next(cases)
        base = bigraded_cohomology(g, h).dims
        comp = reference_complement_basis(g, h)
        if len(comp) > 1:
            perm = list(range(len(comp)))
            rng.shuffle(perm)
            with complement_rule([comp[i] for i in perm]):
                again = bigraded_cohomology(g, h).dims
            assert again == base
        # a different complement altogether: greedy over the reversed
        # standard basis
        alt = []
        rows = [list(v) for v in h.vectors()]
        for j in reversed(range(g.dim)):
            cand = g.basis_vector(j)
            trial = rows + [cand]
            if rank_kernel(ExactMatrix.from_rows(trial))[0] > len(rows):
                rows = trial
                alt.append(cand)
        if len(alt) == g.dim - h.dim:
            with complement_rule(alt):
                again = bigraded_cohomology(g, h).dims
            assert again == base
