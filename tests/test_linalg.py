import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liecoh import cohomology, linalg, matrix
from liecoh.algebra import su3
from liecoh.cohomology import GModule, bigraded_cohomology, ce_cohomology
from liecoh.linalg import (
    _GZERO,
    ExactMatrix,
    GaussianInteger,
    ScaledIntMatrix,
    _bareiss_echelon,
    _exact_quotient,
    _integer_rows,
    _solve_columns,
    NonHermitianError,
    NonSplitError,
    char_poly,
    hermitian_inertia,
    rank_kernel,
    refine_eigen,
    rref,
    solve_linear,
    split_eigen,
)
from liecoh.matrix import vec_is_zero
from liecoh.scalars import GaussianRational as Q, InputError, integer_form, value_key
from liecoh.subalgebra import parse_span

from conftest import gauss_integers, random_invertible, rect_matrices, so, square_matrices


def apply(M, v):
    return M.apply(list(v))


def invert(M):
    n = M.rows
    cols = []
    for j in range(n):
        e = [Q(1) if i == j else Q(0) for i in range(n)]
        x = solve_linear(M, e)
        assert x is not None
        cols.append(x)
    return ExactMatrix(n, n, [[cols[j][i] for j in range(n)] for i in range(n)])


# -- rank / kernel -----------------------------------------------------------


def test_rank_kernel_identity():
    r, k = rank_kernel(ExactMatrix.identity(3))
    assert r == 3 and k == []


def test_rank_kernel_zero():
    r, k = rank_kernel(ExactMatrix.zero(2, 5))
    assert r == 0 and len(k) == 5


def test_rank_kernel_complex_row():
    # hand expansion: the 1x2 matrix [0, -2i] kills exactly the first
    # coordinate direction
    M = ExactMatrix.from_rows([[Q(0), Q(0, -2)]])
    r, k = rank_kernel(M)
    assert r == 1
    assert len(k) == 1 and k[0] == [Q(1), Q(0)]


@given(rect_matrices())
def test_rank_nullity(M):
    r, kern = rank_kernel(M)
    assert r + len(kern) == M.cols
    for v in kern:
        assert vec_is_zero(apply(M, v))


@given(rect_matrices())
def test_rank_of_transpose_and_adjoint(M):
    r = rank_kernel(M)[0]
    assert rank_kernel(M.transpose())[0] == r
    assert rank_kernel(M.conj_transpose())[0] == r


# -- solve -------------------------------------------------------------------


def test_solve_identity():
    b = [Q(1), Q(2, 3), Q(0, 1)]
    assert solve_linear(ExactMatrix.identity(3), b) == b


def test_solve_inconsistent():
    assert solve_linear(ExactMatrix.zero(2, 2), [Q(1), Q(0)]) is None


def test_solve_complex_column():
    M = ExactMatrix.from_rows([[Q(0, 2)]])
    x = solve_linear(M, [Q(-4)])
    assert x == [Q(0, 2)]  # 2i * 2i = -4


@given(rect_matrices())
def test_solve_consistency(M):
    rhs = apply(M, [Q(1)] * M.cols)
    x = solve_linear(M, rhs)
    assert x is not None
    assert apply(M, x) == rhs


# -- oracle: plain Fraction Gauss-Jordan -------------------------------------
#
# The reference works on (re, im) pairs of Fractions with its own complex
# arithmetic, so it shares no code with the library's elimination.


def _pair(x):
    return (Fraction(x.re), Fraction(x.im))


def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _inv(a):
    n = a[0] * a[0] + a[1] * a[1]
    return (a[0] / n, -a[1] / n)


_Z = (Fraction(0), Fraction(0))


def _gauss_jordan(rows, ncols):
    """Nonzero RREF rows and pivot columns, leftmost column first,
    topmost nonzero row as pivot."""
    a = [list(r) for r in rows]
    piv = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(a)) if a[i][c] != _Z), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        inv = _inv(a[r][c])
        a[r] = [_mul(inv, x) for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != _Z:
                f = a[i][c]
                a[i] = [_sub(x, _mul(f, y)) for x, y in zip(a[i], a[r])]
        piv.append(c)
        r += 1
    return a[:r], piv


def _as_q(z):
    return Q(z[0], z[1])


def _ref_kernel(rows, ncols):
    red, piv = _gauss_jordan(rows, ncols)
    kernel = []
    for f in range(ncols):
        if f in piv:
            continue
        v = [_Z] * ncols
        v[f] = (Fraction(1), Fraction(0))
        for row, c in zip(red, piv):
            v[c] = _sub(_Z, row[f])
        kernel.append([_as_q(x) for x in v])
    return len(piv), kernel


def _ref_solve(rows, b, ncols):
    red, piv = _gauss_jordan([row + [x] for row, x in zip(rows, b)], ncols + 1)
    if piv and piv[-1] == ncols:
        return None
    x = [_Z] * ncols
    for row, c in zip(red, piv):
        x[c] = row[ncols]
    return [_as_q(z) for z in x]


# entries: half zero, the rest Gaussian integers or Gaussian rationals with
# denominators and a nonzero imaginary part, so that pivots (and with them
# the previous pivot Bareiss divides by) are often non-real
_oracle_entries = st.one_of(
    st.just(Q(0)),
    st.just(Q(0)),
    st.builds(Q, st.integers(-4, 4), st.integers(-4, 4)),
    st.builds(
        Q,
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(lambda x: x != 0),
    ),
)


@st.composite
def oracle_matrices(draw):
    """Tall, wide, square, 0 x n and n x 0 matrices; about half of the
    nonempty ones are products through a thinner inner dimension, so
    rank-deficient, and some have a zero column."""
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 6))

    def grid(r, c):
        return draw(st.lists(st.lists(_oracle_entries, min_size=c, max_size=c), min_size=r, max_size=r))

    if rows and cols and draw(st.booleans()):
        inner = draw(st.integers(1, max(1, min(rows, cols) - 1)))
        A = ExactMatrix(rows, inner, grid(rows, inner))
        B = ExactMatrix(inner, cols, grid(inner, cols))
        M = A.matmul(B)
    else:
        M = ExactMatrix(rows, cols, grid(rows, cols))
    # an optional zero column
    if cols and draw(st.booleans()):
        j = draw(st.integers(0, cols - 1))
        M = ExactMatrix(rows, cols, [[Q(0) if k == j else x for k, x in enumerate(r)] for r in M.row_list()])
    return M


def _pairs(M):
    return [[_pair(x) for x in row] for row in M.row_list()]


@given(oracle_matrices())
@settings(deadline=None, max_examples=300)
def test_rank_kernel_matches_gauss_jordan(M):
    r, kernel = rank_kernel(M)
    ref_r, ref_kernel = _ref_kernel(_pairs(M), M.cols)
    assert r == ref_r
    assert kernel == ref_kernel


@given(oracle_matrices(), st.data())
@settings(deadline=None, max_examples=300)
def test_solve_linear_matches_gauss_jordan(M, data):
    if data.draw(st.booleans()):
        # consistent right-hand side
        b = M.apply([data.draw(_oracle_entries) for _ in range(M.cols)])
    else:
        b = [data.draw(_oracle_entries) for _ in range(M.rows)]
    expected = _ref_solve(_pairs(M), [_pair(x) for x in b], M.cols)
    assert solve_linear(M, b) == expected


@given(oracle_matrices())
@settings(deadline=None, max_examples=300)
def test_rref_matches_gauss_jordan(M):
    reduced, pivots = rref(M)
    ref_rows, ref_piv = _gauss_jordan(_pairs(M), M.cols)
    assert pivots == tuple(ref_piv)
    assert (reduced.rows, reduced.cols) == (len(ref_rows), M.cols)
    assert reduced.row_list() == [[_as_q(z) for z in row] for row in ref_rows]


@given(oracle_matrices())
@settings(deadline=None, max_examples=300)
def test_chain_representatives_are_rref_of_gauss_jordan_kernel(M):
    # one degree, no image: the representatives are RREF(ker M), read off
    # the elimination of M with its columns reversed
    _, reps = cohomology._chain_dims({0: ScaledIntMatrix.from_exact(M)}, [0], True)
    _, kernel = _ref_kernel(_pairs(M), M.cols)
    ref_rows, _ = _gauss_jordan([[_pair(x) for x in v] for v in kernel], M.cols)
    assert reps[0] == [[_as_q(z) for z in row] for row in ref_rows]


@given(oracle_matrices(), st.data())
@settings(deadline=None, max_examples=300)
def test_solve_columns_matches_gauss_jordan(M, data):
    # one elimination for many right-hand sides: a solution per column,
    # None for an inconsistent one, and the first such column's index
    columns = []
    for _ in range(data.draw(st.integers(0, 4))):
        if data.draw(st.booleans()):
            columns.append(M.apply([data.draw(_oracle_entries) for _ in range(M.cols)]))
        else:
            columns.append([data.draw(_oracle_entries) for _ in range(M.rows)])
    expected = [_ref_solve(_pairs(M), [_pair(x) for x in b], M.cols) for b in columns]
    first = next((t for t, x in enumerate(expected) if x is None), None)
    solutions, failed = _solve_columns(M, columns)
    assert failed == first
    assert solutions == expected


@given(oracle_matrices(), st.data())
@settings(deadline=None, max_examples=300)
def test_scaled_int_matrix_matches_exact_matrix(M, data):
    S = ScaledIntMatrix.from_exact(M)
    assert S.to_exact() == M
    assert S.transpose().to_exact() == M.transpose()
    width = data.draw(st.integers(0, 4))
    N = ExactMatrix(M.cols, width, [
        [data.draw(_oracle_entries) for _ in range(width)] for _ in range(M.cols)
    ])
    product = S.matmul(ScaledIntMatrix.from_exact(N))
    assert product.to_exact() == M.matmul(N)
    assert product.is_zero() == (M.matmul(N) == ExactMatrix.zero(M.rows, width))
    # a kernel basis is annihilated, whatever the denominators
    _, kernel = rank_kernel(M)
    if kernel:
        K = ExactMatrix(M.cols, len(kernel), [list(r) for r in zip(*kernel)])
        assert S.matmul(ScaledIntMatrix.from_exact(K)).is_zero()


def test_internal_results_are_not_coerced_and_public_constructors_reject_floats(monkeypatch):
    M = ExactMatrix.from_rows([[Q(Fraction(1, 2)), Q(0, 1)], [Q(3), Q(0, -1)]])
    calls = []
    real = linalg.as_scalar
    # the matrix methods look the coercion up in liecoh.matrix, rref in liecoh.linalg
    for module in (matrix, linalg):
        monkeypatch.setattr(module, "as_scalar", lambda x: calls.append(x) or real(x))
    product, transposed, conjugated = M.matmul(M), M.transpose(), M.conj()
    round_trip = ScaledIntMatrix.from_exact(M).to_exact()
    others = [M + M, M - M, rref(M)[0], ExactMatrix.identity(2), ExactMatrix.zero(2, 2)]
    assert calls == []
    monkeypatch.undo()
    # M = [[1/2, i], [3, -i]]
    assert product == ExactMatrix.from_rows([
        [Q(Fraction(1, 4), 3), Q(1, Fraction(1, 2))], [Q(Fraction(3, 2), -3), Q(-1, 3)]
    ])
    assert transposed[0, 1] == Q(3) and conjugated[0, 1] == Q(0, -1)
    assert round_trip == M and others[0] == M.scale(2) and others[1] == ExactMatrix.zero(2, 2)
    assert others[2] == ExactMatrix.identity(2)
    for bad in ([[0.5]], [[Q(1), 0.25]]):
        with pytest.raises(TypeError):
            ExactMatrix.from_rows(bad)
        with pytest.raises(TypeError):
            ExactMatrix(1, len(bad[0]), bad)


@given(st.lists(st.builds(Q, st.fractions(max_denominator=12), st.fractions(max_denominator=12)),
                max_size=8))
def test_value_key_orders_like_sort_key(values):
    assert sorted(values, key=value_key(values)) == sorted(values, key=lambda z: z.sort_key())


def test_split_eigen_orders_eigenvalues_by_real_then_imaginary_part():
    d = [Q(0, 1), Q(-1), Q(Fraction(1, 2)), Q(0, -1), Q(Fraction(-1, 3), 2)]
    M = ExactMatrix(5, 5, [[d[i] if i == j else Q(0) for j in range(5)] for i in range(5)])
    values = [lam for lam, _ in split_eigen(M).pairs]
    assert values == sorted(d, key=lambda z: z.sort_key())


def test_non_real_previous_pivot():
    # Bareiss by hand: the first pivot is i, so the third row's second
    # update divides (-3+i)(-1+i) + (-3+i)4 = -10 by the non-real i
    M = ExactMatrix.from_rows(
        [[Q(0, 1), Q(2), Q(1), Q(0)], [Q(1), Q(1, 1), Q(0, 3), Q(1)], [Q(1, 1), Q(3, 1), Q(2), Q(1, -1)]]
    )
    echelon, pivots = _bareiss_echelon(_integer_rows(M.row_list()), M.cols)
    assert pivots == [0, 1, 2]
    assert [tuple(row[c]) for row, c in zip(echelon, pivots)] == [(0, 1), (-3, 1), (0, 10)]
    assert rank_kernel(M) == _ref_kernel(_pairs(M), M.cols)
    assert solve_linear(M, [Q(1), Q(0), Q(0, 1)]) == _ref_solve(
        _pairs(M), [_pair(Q(1)), _pair(Q(0)), _pair(Q(0, 1))], M.cols
    )


def test_exact_quotient_divides_and_checks_the_remainder():
    assert _exact_quotient((1, 5), (1, 1)) == (3, 2)  # (1+5i) / (1+i) = 3+2i
    assert _exact_quotient((-4, 0), (0, 2)) == (0, 2)
    with pytest.raises(AssertionError, match="inexact"):
        _exact_quotient((1, 0), (1, 1))
    with pytest.raises(AssertionError, match="inexact"):
        _exact_quotient((3, 1), (2, 0))


# -- the sparse kernel against the dense one it replaced ---------------------
#
# `_dense_bareiss_echelon` is `_bareiss_echelon` as it was on dense rows,
# zero entries None, kept verbatim as the reference: on the same matrix the
# sparse kernel must return the same echelon and the same pivot columns.


def _dense_bareiss_echelon(rows, cols):
    """Fraction-free forward elimination of Gaussian-integer rows.

    `rows` are dense lists of (re, im) int pairs, None for zero
    (`_dense_rows`), and are eliminated in place.
    Pivoting takes the leftmost column with a nonzero entry at or below
    the current row, topmost row first.  Returns (echelon, pivot_cols):
    the rank nonzero echelon rows, with GaussianInteger entries, and
    their pivot columns.
    """
    a = rows
    nrows = len(a)
    piv_cols = []
    prev = (1, 0)
    r = 0
    for c in range(cols):
        if r == nrows:
            break
        for i in range(r, nrows):
            if a[i][c] is not None:
                break
        else:
            continue
        if i != r:
            a[r], a[i] = a[i], a[r]
        ar = a[r]
        piv = ar[c]
        # Each update (piv * x - a[i][c] * y) / prev is computed as
        # (P * x - C * y) / norm, where P and C are piv and a[i][c] times
        # conj(prev), so that the exact division is by the integer norm.
        prev_re, prev_im = prev
        norm = prev_re * prev_re + prev_im * prev_im
        pr = piv[0] * prev_re + piv[1] * prev_im
        pi = piv[1] * prev_re - piv[0] * prev_im
        for i in range(r + 1, nrows):
            ai = a[i]
            head = ai[c]
            if head is None:
                if piv == prev:
                    continue
                cr = ci = 0
            else:
                ai[c] = None
                cr = head[0] * prev_re + head[1] * prev_im
                ci = head[1] * prev_re - head[0] * prev_im
            for j in range(c + 1, cols):
                x = ai[j]
                y = ar[j]
                if y is None or head is None:
                    if x is None:
                        continue
                    xr, xi = x
                    nr = pr * xr - pi * xi
                    ni = pr * xi + pi * xr
                elif x is None:
                    yr, yi = y
                    nr = ci * yi - cr * yr
                    ni = -cr * yi - ci * yr
                else:
                    xr, xi = x
                    yr, yi = y
                    nr = pr * xr - pi * xi - cr * yr + ci * yi
                    ni = pr * xi + pi * xr - cr * yi - ci * yr
                q_re, rem_re = divmod(nr, norm)
                q_im, rem_im = divmod(ni, norm)
                if rem_re or rem_im:
                    raise AssertionError(
                        f"inexact Gaussian-integer division by the previous pivot {prev}"
                    )
                ai[j] = (q_re, q_im) if q_re or q_im else None
        prev = piv
        piv_cols.append(c)
        r += 1
    echelon = [[_GZERO if x is None else GaussianInteger(*x) for x in a[k]] for k in range(r)]
    return echelon, piv_cols


def _dense_rows(rows, cols):
    """Dict elimination rows as the reference's dense rows, None for zero."""
    return [[row.get(j) for j in range(cols)] for row in rows]


def _matches_dense(rows, cols):
    """The sparse kernel's result on dict `rows`, after checking it against
    the reference on a dense copy."""
    expected = _dense_bareiss_echelon(_dense_rows(rows, cols), cols)
    result = _bareiss_echelon(rows, cols)
    assert result == expected
    return result


_gaussian_integers = st.one_of(
    st.just(Q(0)), st.just(Q(0)), st.builds(Q, st.integers(-4, 4), st.integers(-4, 4))
)


@st.composite
def gaussian_integer_matrices(draw):
    """Gaussian-integer matrices up to 7 x 7, 0 x n and n x 0 included;
    about half of the nonempty ones are products through a thinner inner
    dimension, so rank-deficient, and some have a zero row or column.
    Entries with an imaginary part make non-real pivots common."""
    rows = draw(st.integers(0, 7))
    cols = draw(st.integers(0, 7))

    def grid(r, c):
        return ExactMatrix(r, c, draw(st.lists(
            st.lists(_gaussian_integers, min_size=c, max_size=c), min_size=r, max_size=r
        )))

    if rows and cols and draw(st.booleans()):
        inner = draw(st.integers(1, max(1, min(rows, cols) - 1)))
        data = grid(rows, inner).matmul(grid(inner, cols)).row_list()
    else:
        data = grid(rows, cols).row_list()
    if rows and draw(st.booleans()):
        data[draw(st.integers(0, rows - 1))] = [Q(0)] * cols
    if cols and draw(st.booleans()):
        j = draw(st.integers(0, cols - 1))
        data = [[Q(0) if k == j else x for k, x in enumerate(row)] for row in data]
    return ExactMatrix(rows, cols, data)


_NON_REAL_PIVOTS = ExactMatrix.from_rows(
    [[Q(0, 1), Q(2), Q(1), Q(0)], [Q(1), Q(1, 1), Q(0, 3), Q(1)], [Q(1, 1), Q(3, 1), Q(2), Q(1, -1)]]
)


@given(gaussian_integer_matrices())
@example(_NON_REAL_PIVOTS)
@example(ExactMatrix(0, 3, []))
@example(ExactMatrix(3, 0, [[], [], []]))
@settings(deadline=None, max_examples=400)
def test_sparse_bareiss_matches_the_dense_kernel(M):
    _matches_dense(_integer_rows(M.row_list()), M.cols)


@pytest.mark.parametrize("compute", [
    lambda: ce_cohomology(su3(), GModule.trivial(su3()), representatives=True),
    lambda: bigraded_cohomology(
        su3(), parse_span("span{X1-iY1, X2-iY2, X3-iY3}", su3()), representatives=True
    ),
    lambda: ce_cohomology(so(5), GModule.adjoint(so(5))),
], ids=["su3-reps", "su3-cr-reps", "so5-adjoint"])
def test_sparse_bareiss_matches_the_dense_kernel_on_every_engine_call(monkeypatch, compute):
    # cohomology imports the kernel by name; linalg's own callers read it
    # from the module
    calls = []

    def checked(rows, cols):
        calls.append((len(rows), cols))
        return _matches_dense(rows, cols)

    monkeypatch.setattr(linalg, "_bareiss_echelon", checked)
    monkeypatch.setattr(cohomology, "_bareiss_echelon", checked)
    compute()
    assert any(n and cols for n, cols in calls)


# -- eigen-splitting ---------------------------------------------------------


def test_char_poly_rotation():
    M = ExactMatrix.from_rows([[0, -2], [2, 0]])
    assert char_poly(M) == [Q(4), Q(0), Q(1)]


def reference_char_poly(M):
    """Faddeev-LeVerrier on the Gaussian rationals themselves."""
    n = M.rows
    coeffs, Mk = [Q(0)] * n + [Q(1)], ExactMatrix.identity(n)
    for k in range(1, n + 1):
        Mk = M.matmul(Mk)
        coeffs[n - k] = -(sum((Mk[i, i] for i in range(n)), Q(0)) / k)
        Mk = Mk + ExactMatrix.identity(n).scale(coeffs[n - k])
    return coeffs


@settings(max_examples=60, deadline=None)
@given(square_matrices(max_n=4))
def test_char_poly_matches_the_rational_recursion(M):
    assert char_poly(M) == reference_char_poly(M)


def test_refine_eigen_splits_each_block_and_refuses():
    identity = ExactMatrix.identity(3).row_list()
    blocks = refine_eigen([((), identity)], ExactMatrix.from_rows([[2, 0, 0], [0, 2, 0], [0, 0, 0]]))
    # eigenvalues in split_eigen's order, each block with its prefix
    assert [(prefix, len(rows)) for prefix, rows in blocks] == [((Q(0),), 1), ((Q(2),), 2)]
    # a matrix that commutes with the first splits the 2-dimensional block
    rotation = ExactMatrix.from_rows([[0, -1, 0], [1, 0, 0], [0, 0, 5]])
    refined = refine_eigen(blocks, rotation)
    assert [prefix for prefix, _ in refined] == [(Q(0), Q(5)), (Q(2), Q(0, -1)), (Q(2), Q(0, 1))]
    for prefix, rows in refined:
        assert all(rotation.apply(v) == [prefix[1] * x for x in v] for v in rows)
    # a block that is not mapped into itself, one not diagonalized, and
    # one that does not split over Q(i)
    assert refine_eigen(blocks, ExactMatrix.from_rows([[0, 0, 1], [0, 0, 0], [0, 0, 0]])) is None
    assert refine_eigen(blocks, ExactMatrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]])) is None
    with pytest.raises(NonSplitError):
        refine_eigen(blocks, ExactMatrix.from_rows([[0, 2, 0], [1, 0, 0], [0, 0, 0]]))


def test_split_rotation_block():
    es = split_eigen(ExactMatrix.from_rows([[0, -2], [2, 0]]))
    values = [lam for lam, _ in es.pairs]
    assert values == [Q(0, -2), Q(0, 2)]
    assert all(len(vs) == 1 for _, vs in es.pairs)
    assert es.diagonalizable


def test_split_identity():
    es = split_eigen(ExactMatrix.identity(4))
    assert len(es.pairs) == 1
    lam, vs = es.pairs[0]
    assert lam == Q(1) and len(vs) == 4 and es.diagonalizable


def test_split_jordan_block():
    es = split_eigen(ExactMatrix.from_rows([[0, 1], [0, 0]]))
    lam, vs = es.pairs[0]
    assert lam == Q(0) and len(vs) == 1
    assert not es.diagonalizable


def test_split_failure_is_loud():
    # t^2 - 2 has no root in Q(i)
    M = ExactMatrix.from_rows([[0, 2], [1, 0]])
    with pytest.raises(NonSplitError):
        split_eigen(M)


def test_split_rational_eigenvalues():
    # non-integer eigenvalues exercise the denominator divisor search
    M = ExactMatrix.from_rows(
        [[Q(Fraction(1, 2)), Q(1)], [Q(0), Q(Fraction(-3, 2))]]
    )
    es = split_eigen(M)
    assert [lam for lam, _ in es.pairs] == [Q(Fraction(-3, 2)), Q(Fraction(1, 2))]
    assert es.diagonalizable


def test_split_gaussian_rational_eigenvalue():
    M = ExactMatrix.from_rows([[Q(0, Fraction(1, 2))]])
    es = split_eigen(M)
    assert es.pairs[0][0] == Q(0, Fraction(1, 2))


def test_eigen_reassembly_seeded():
    rng = random.Random(7)
    diag_pool = [Q(0), Q(1), Q(-1), Q(0, 1), Q(0, -2), Q(2)]
    for _ in range(25):
        n = rng.randint(1, 4)
        d = [rng.choice(diag_pool) for _ in range(n)]
        D = ExactMatrix(n, n, [[d[i] if i == j else Q(0) for j in range(n)] for i in range(n)])
        P = random_invertible(n, rng)
        M = P.matmul(D).matmul(invert(P))
        es = split_eigen(M)
        assert es.diagonalizable
        assert sorted(lam.sort_key() for lam, _ in es.pairs) == sorted(
            set(x.sort_key() for x in d)
        )
        # exact reassembly: M V = V D' on the reported eigenbasis
        for lam, vectors in es.pairs:
            for v in vectors:
                assert apply(M, v) == [lam * x for x in v]


def horner(coeffs, x):
    """The polynomial with coefficients `coeffs`, lowest degree first, at x."""
    acc = Q(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def reference_poly_linear_roots(coeffs):
    """The root search that enumerates the divisors of both end
    coefficients again after every deflation and takes the first candidate
    that is a root of the current factor."""
    work = list(coeffs)
    while len(work) > 1 and work[-1].is_zero():
        work.pop()
    roots = []
    while work[0].is_zero():
        roots.append(Q(0))
        work = work[1:]
    while len(work) > 1:
        if len(work) == 2:
            roots.append(-work[0] / work[1])
            break
        scaled = [Q(*p) for p in integer_form(work)[1]]
        numerators = linalg._gaussian_divisors(scaled[0])
        denominators = linalg._gaussian_divisors(scaled[-1])
        root = next(
            (r / s for s in denominators for r in numerators
             if horner(work, r / s).is_zero()),
            None,
        )
        if root is None:
            raise NonSplitError("no root", residual_degree=len(work) - 1)
        roots.append(root)
        work = linalg._poly_deflate(work, root)
    return roots


def _poly_times(p, q):
    out = [Q(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return out


def _roots_or_residual(find, coeffs):
    try:
        return sorted(r.sort_key() for r in find(coeffs))
    except NonSplitError as exc:
        return ("nonsplit", exc.residual_degree)


def test_poly_linear_roots_matches_per_deflation_oracle_seeded():
    rng = random.Random(13)
    root_pool = [Q(0), Q(1), Q(-2), Q(0, 1), Q(0, -3), Q(1, 1), Q(Fraction(1, 2)),
                 Q(Fraction(-3, 2), Fraction(1, 2)), Q(0, Fraction(2, 3))]
    # factors without a root in Q(i): t^2 - 2, t^2 + t + 1, t^2 - i, t^3 - 3
    irreducible_pool = [[Q(-2), Q(0), Q(1)], [Q(1), Q(1), Q(1)],
                        [Q(0, -1), Q(0), Q(1)], [Q(-3), Q(0), Q(0), Q(1)]]
    lead_pool = [Q(1), Q(2), Q(-3), Q(1, 1), Q(Fraction(1, 2))]
    seen = {"repeated": 0, "zero": 0, "nonsplit": 0}
    for _ in range(60):
        roots = [rng.choice(root_pool) for _ in range(rng.randint(1, 5))]
        coeffs = [rng.choice(lead_pool)]
        for r in roots:
            coeffs = _poly_times(coeffs, [-r, Q(1)])
        if rng.random() < 0.3:
            coeffs = _poly_times(coeffs, rng.choice(irreducible_pool))
            seen["nonsplit"] += 1
        seen["repeated"] += len(set(roots)) < len(roots)
        seen["zero"] += Q(0) in roots
        expected = _roots_or_residual(reference_poly_linear_roots, coeffs)
        assert _roots_or_residual(linalg.poly_linear_roots, coeffs) == expected
    assert all(seen.values()), seen


def reference_gaussian_divisors(z):
    """The divisor search that tries each candidate d by the Gaussian
    rational division z / d."""
    if z.re.denominator != 1 or z.im.denominator != 1:
        raise ValueError("divisor enumeration needs a Gaussian integer")
    found = set()
    for m in linalg._integer_divisors(int(z.norm())):
        for x in range(isqrt(m) + 1):
            y2 = m - x * x
            y = isqrt(y2)
            if y * y != y2:
                continue
            for cand in {(x, y), (x, -y), (-x, y), (-x, -y)}:
                d = Q(*cand)
                if d.is_zero() or cand in found:
                    continue
                if (z / d).re.denominator == (z / d).im.denominator == 1:
                    found.add(cand)
    return [Q(a, b) for a, b in sorted(found)]


def test_gaussian_divisors_match_division_oracle_seeded():
    rng = random.Random(17)
    # 25600 is the constant term met on roots --torus "span{T1+3T2}" of su3
    values = [Q(25600), Q(1), Q(0, -1), Q(-7), Q(3, 4), Q(0, 12), Q(-5, 5), Q(2, 1) * Q(2, -1)]
    while len(values) < 48:
        z = Q(rng.randint(-80, 80), rng.randint(-80, 80))
        if z:
            values.append(z)
    for z in values:
        assert linalg._gaussian_divisors(z) == reference_gaussian_divisors(z), z
    with pytest.raises(ValueError):
        linalg._gaussian_divisors(Q(Fraction(1, 2)))
    with pytest.raises(ValueError):
        linalg._gaussian_divisors(Q(0))
    with pytest.raises(InputError) as err:
        linalg._gaussian_divisors(Q(10**6, 1))
    assert str(err.value) == (
        "root search stopped at the divisor-norm limit 1000000000000: a coefficient "
        "has norm 1000000000001, so splitting over Q(i) is undecided"
    )


# -- Hermitian inertia -------------------------------------------------------


def diag(*entries):
    n = len(entries)
    return ExactMatrix(
        n, n, [[Q(entries[i]) if i == j else Q(0) for j in range(n)] for i in range(n)]
    )


def test_inertia_fixtures():
    assert hermitian_inertia(diag(1, -1)).as_tuple() == (1, 1, 0)
    assert hermitian_inertia(diag(-2, -1, 1, 0)).as_tuple() == (1, 2, 1)
    assert hermitian_inertia(ExactMatrix.zero(3, 3)).as_tuple() == (0, 0, 3)


def test_inertia_hyperbolic_block():
    H = ExactMatrix.from_rows([[Q(0), Q(0, 1)], [Q(0, -1), Q(0)]])
    assert hermitian_inertia(H).as_tuple() == (1, 1, 0)


def test_inertia_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        hermitian_inertia(ExactMatrix.from_rows([[Q(0), Q(1)], [Q(2), Q(0)]]))


def reference_inertia(H):
    """The congruence oracle: eliminate a nonzero diagonal pivot when one
    exists (its sign is an eigenvalue sign), else a nonzero off-diagonal
    pair, a hyperbolic 2x2 block contributing (1, 1, 0).  Congruence (the
    Schur complement) preserves inertia."""
    a = H.row_list()
    n_pos = n_neg = n_zero = 0
    live = list(range(H.rows))
    while live:
        diag_idx = next((k for k in live if not a[k][k].is_zero()), None)
        if diag_idx is not None:
            k = diag_idx
            d = a[k][k]
            if d.re > 0:
                n_pos += 1
            else:
                n_neg += 1
            live.remove(k)
            for i in live:
                f = a[i][k] / d
                for j in live:
                    a[i][j] = a[i][j] - f * a[k][j]
            continue
        off = next(
            ((j, k) for idx, j in enumerate(live) for k in live[idx + 1:] if not a[j][k].is_zero()),
            None,
        )
        if off is None:
            n_zero += len(live)
            break
        j, k = off
        h = a[j][k]
        n_pos += 1
        n_neg += 1
        live.remove(j)
        live.remove(k)
        hbar = h.conjugate()
        for i in live:
            bij, bik = a[i][j], a[i][k]
            for l in live:
                a[i][l] = a[i][l] - bik * a[j][l] / h - bij * a[k][l] / hbar
    return (n_pos, n_neg, n_zero)


def random_hermitian(n, rng):
    """A seeded n x n Hermitian matrix with small entries; about a third
    are B^* D B with B of n - 1 rows, hence singular."""
    if rng.random() < 0.3:
        B = ExactMatrix(
            n - 1, n,
            [[Q(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(n)] for _ in range(n - 1)],
        )
        D = ExactMatrix(
            n - 1, n - 1,
            [[Q(rng.choice([-2, -1, 1, 3])) if i == j else Q(0) for j in range(n - 1)]
             for i in range(n - 1)],
        )
        return B.conj_transpose().matmul(D).matmul(B)
    A = ExactMatrix(
        n, n, [[Q(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
    )
    return A + A.conj_transpose()


def test_inertia_matches_congruence_oracle_on_fixtures():
    fixtures = [
        diag(1, -1),
        diag(-2, -1, 1, 0),
        ExactMatrix.zero(3, 3),
        ExactMatrix.zero(0, 0),
        ExactMatrix.from_rows([[Q(0), Q(0, 1)], [Q(0, -1), Q(0)]]),
        # eigenvalues (1 +- sqrt 5) / 2 lie outside Q(i)
        ExactMatrix.from_rows([[Q(1), Q(1)], [Q(1), Q(0)]]),
        ExactMatrix.from_rows([[Q(0), Q(1, 1)], [Q(1, -1), Q(Fraction(1, 3))]]),
    ]
    for H in fixtures:
        assert hermitian_inertia(H).as_tuple() == reference_inertia(H)
    assert hermitian_inertia(fixtures[3]).as_tuple() == (0, 0, 0)
    assert hermitian_inertia(fixtures[5]).as_tuple() == (1, 1, 0)


def test_inertia_matches_congruence_oracle_seeded():
    rng = random.Random(2718)
    seen_singular = 0
    for _ in range(120):
        H = random_hermitian(rng.randint(1, 6), rng)
        expected = reference_inertia(H)
        seen_singular += expected[2] > 0
        assert hermitian_inertia(H).as_tuple() == expected
    assert seen_singular >= 10


def test_inertia_matches_congruence_oracle_on_levi_forms():
    # the Levi forms of the su3 CR structure (d = 2) and the benchmark's
    # Levi span (d = 1) at every primitive integer combination of the
    # characteristic basis with entries in [-2, 2]
    from itertools import product
    from math import gcd

    from liecoh.algebra import parse_span, su3
    from liecoh.classify import characteristic_space, levi_form

    g = su3()
    forms = []
    for span in ("span{X1-iY1, X2-iY2, X3-iY3}", "span{X1-iY1, X2-iY2, X3-iY3, 2T1+3T2}"):
        h = parse_span(span, g)
        char = characteristic_space(g, h)
        grid = {tuple(c // gcd(*cs) for c in cs) for cs in product(range(-2, 3), repeat=len(char)) if any(cs)}
        for cs in sorted(grid):
            cov = [sum((c * xi[i] for c, xi in zip(cs, char)), Q(0)) for i in range(g.dim)]
            forms.append(levi_form(g, h, cov))
    assert len(forms) == 16 + 2
    for H in forms:
        assert hermitian_inertia(H).as_tuple() == reference_inertia(H)


def test_inertia_of_non_real_characteristic_polynomial_is_internal_error(monkeypatch):
    monkeypatch.setattr(linalg, "char_poly", lambda H: [Q(0, 1), Q(1)])
    with pytest.raises(AssertionError, match="not real"):
        hermitian_inertia(diag(1))


def test_inertia_congruence_invariance_seeded():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 4)
        A = ExactMatrix(
            n,
            n,
            [[Q(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)],
        )
        H = A + A.conj_transpose()
        P = random_invertible(n, rng)
        congruent = P.conj_transpose().matmul(H).matmul(P)
        assert hermitian_inertia(congruent).as_tuple() == hermitian_inertia(H).as_tuple()


@given(square_matrices(max_n=3, entries=gauss_integers))
@settings(deadline=None)
def test_char_poly_annihilates(M):
    # Cayley-Hamilton: evaluating the characteristic polynomial on M gives 0
    coeffs = char_poly(M)
    n = M.rows
    acc = ExactMatrix.zero(n, n)
    power = ExactMatrix.identity(n)
    for c in coeffs:
        acc = acc + power.scale(c)
        power = power.matmul(M)
    assert acc == ExactMatrix.zero(n, n)
