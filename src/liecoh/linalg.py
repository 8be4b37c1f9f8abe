"""Exact dense linear algebra over Q(i).

Matrices and vectors hold GaussianRational entries (`ExactMatrix`), and
every public function takes and returns GaussianRational.  Elimination
works on Gaussian integers inside: `_integer_rows` takes each row's
`scalars.integer_form`, (re, im) int pairs over the least common
denominator of that row alone, and one
routine, `_bareiss_echelon`, does fraction-free (Bareiss) forward
elimination with deterministic pivoting: the pivot column is the
leftmost one with a nonzero entry at or below the current row, and the
pivot row is the topmost such row.  Ranks and pivot columns are read
off that echelon.  `_pivot_solution` is the one back substitution, used
by `_reduced_echelon` and by the cochain representatives.  Kernels,
solutions and RREF are reads of one reduced echelon form R: the kernel
vector of a free column f has 1 at f and -R[r][f] at the pivot of row r
(`rank_kernel`), and the solutions of M x = b are the appended columns
of the RREF of [M | b] (`solve_linear`).  `ScaledIntMatrix`
(1/den times sparse Gaussian-integer rows) is the form in which the
cochain engine builds, multiplies and eliminates its differentials
without GaussianRational.

Every division is exact, and each is checked:

* Bareiss divides each update by the previous pivot.  By Sylvester's
  identity the quotient is a minor of the integer matrix, so it is a
  Gaussian integer.
* Back substitution runs on integers too.  It solves for det times the
  solution, where det is the last pivot, the determinant of the pivot
  minor; by Cramer's rule that vector is integral, so each division by
  a pivot is exact.  The vector becomes GaussianRational only when it is
  divided by det on the way out.

A nonzero remainder would mean that one of these invariants is broken.
It raises AssertionError (exit code 70 at the command line) and is never
rounded.

Eigen-splitting computes the characteristic polynomial exactly
(Faddeev-LeVerrier on Gaussian integers) and finds roots by exhaustive
search over Gaussian-integer divisors; it fails loudly when the
polynomial has an irreducible factor over Q(i).  A coefficient past the
search limit stops the search with a message that says so, not that the
polynomial does not split.  `refine_eigen` splits the blocks of a basis
by one matrix at a time.  Hermitian inertia is read off the same
characteristic polynomial by Descartes' rule of signs, which is exact
there: the polynomial of a Hermitian matrix is real and has only real roots.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import islice
from math import isqrt

from .scalars import GaussianRational, InputError, ONE, ZERO, _gauss, as_scalar, integer_form, value_key

Vector = list  # list[GaussianRational]


class NonHermitianError(InputError):
    pass


class NonSplitError(InputError):
    """Characteristic polynomial has no further root in Q(i)."""

    def __init__(self, message: str, residual_degree: int = 0):
        super().__init__(message)
        self.residual_degree = residual_degree


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------


def vec_is_zero(v: Vector) -> bool:
    return all(x.is_zero() for x in v)


def vec_conj(v: Vector) -> Vector:
    return [a.conjugate() for a in v]


def vec_dot(v: Vector, w: Vector) -> GaussianRational:
    """Bilinear (not Hermitian) pairing sum_i v_i w_i."""
    acc = ZERO
    for a, b in zip(v, w, strict=True):
        acc = acc + a * b
    return acc


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


class ExactMatrix:
    """Dense matrix of Gaussian rationals, treated as immutable."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: int, cols: int, data):
        if len(data) != rows:
            raise ValueError("row count mismatch")
        self._data = [[as_scalar(x) for x in row] for row in data]
        for row in self._data:
            if len(row) != cols:
                raise ValueError("column count mismatch")
        self.rows = rows
        self.cols = cols

    @classmethod
    def _of(cls, rows: int, cols: int, data) -> "ExactMatrix":
        """The matrix on `data`, fresh rows of GaussianRational of the given
        shape that the caller hands over: nothing is coerced, copied or
        checked.  Internal; the public constructors coerce every entry."""
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m._data = data
        return m

    @classmethod
    def from_rows(cls, data) -> "ExactMatrix":
        data = [list(row) for row in data]
        rows = len(data)
        cols = len(data[0]) if rows else 0
        return cls(rows, cols, data)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls._of(rows, cols, [[ZERO] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls._of(n, n, [[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    def __getitem__(self, idx) -> GaussianRational:
        i, j = idx
        return self._data[i][j]

    def row_list(self):
        return [list(r) for r in self._data]

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix._of(
            self.cols, self.rows,
            [[self._data[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

    def conj(self) -> "ExactMatrix":
        return ExactMatrix._of(
            self.rows, self.cols, [[x.conjugate() for x in row] for row in self._data]
        )

    def conj_transpose(self) -> "ExactMatrix":
        return self.transpose().conj()

    def is_hermitian(self) -> bool:
        return self.rows == self.cols and self == self.conj_transpose()

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return ExactMatrix._of(
            self.rows, self.cols,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self._data, other._data)],
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return ExactMatrix._of(
            self.rows, self.cols,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self._data, other._data)],
        )

    def scale(self, c) -> "ExactMatrix":
        c = as_scalar(c)
        return ExactMatrix._of(
            self.rows, self.cols, [[c * x for x in row] for row in self._data]
        )

    def matmul(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        support = [[(j, b) for j, b in enumerate(row) if not b.is_zero()] for row in other._data]
        out = [[ZERO] * other.cols for _ in range(self.rows)]
        for ri, oi in zip(self._data, out):
            for a, nonzeros in zip(ri, support):
                if nonzeros and not a.is_zero():
                    for j, b in nonzeros:
                        oi[j] = oi[j] + a * b
        return ExactMatrix._of(self.rows, other.cols, out)

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise ValueError("length mismatch")
        out = []
        for i in range(self.rows):
            acc = ZERO
            for j, x in enumerate(v):
                if not x.is_zero():
                    acc = acc + self._data[i][j] * x
            out.append(acc)
        return out

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(
                a == b for r1, r2 in zip(self._data, other._data) for a, b in zip(r1, r2)
            )
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self._data)))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self._data)
        return f"ExactMatrix({self.rows}x{self.cols}: {body})"


class ScaledIntMatrix:
    """A matrix over Q(i) held as 1/den times a Gaussian-integer matrix.

    `data` has one dict per row, column -> (re, im) int pair, for the
    nonzero entries only; `den` is one positive int for the whole
    matrix.  Because the scale is per matrix, not per row, the integer
    product of A and B is A.den * B.den times the exact product, so it
    is zero exactly when the exact product is, and a rank is the rank of
    the integer rows.  Internal to the package; `to_exact` gives the
    ExactMatrix.
    """

    __slots__ = ("rows", "cols", "den", "data")

    def __init__(self, rows: int, cols: int, den: int, data):
        if len(data) != rows or den <= 0:
            raise ValueError("row count mismatch or non-positive denominator")
        self.rows = rows
        self.cols = cols
        self.den = den
        self.data = data

    @classmethod
    def from_exact(cls, M: ExactMatrix) -> "ScaledIntMatrix":
        den, pairs = integer_form([x for row in M._data for x in row])
        pairs = iter(pairs)
        data = [{j: p for j, p in enumerate(islice(pairs, M.cols)) if p != (0, 0)}
                for _ in range(M.rows)]
        return cls(M.rows, M.cols, den, data)

    def to_exact(self) -> ExactMatrix:
        den = self.den
        out = [[ZERO] * self.cols for _ in range(self.rows)]
        for row, entries in zip(out, self.data):
            for j, (re, im) in entries.items():
                row[j] = _gauss(re, im, den)
        return ExactMatrix._of(self.rows, self.cols, out)

    def echelon_rows(self):
        """Fresh dense rows for `_bareiss_echelon`, None for zero."""
        out = []
        for entries in self.data:
            row = [None] * self.cols
            for j, x in entries.items():
                row[j] = x
            out.append(row)
        return out

    def transpose(self) -> "ScaledIntMatrix":
        data = [{} for _ in range(self.cols)]
        for i, entries in enumerate(self.data):
            for j, x in entries.items():
                data[j][i] = x
        return ScaledIntMatrix(self.cols, self.rows, self.den, data)

    def matmul(self, other: "ScaledIntMatrix") -> "ScaledIntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        right = other.data
        out = []
        for entries in self.data:
            acc_re, acc_im = {}, {}
            for k, (ar, ai) in entries.items():
                for j, (br, bi) in right[k].items():
                    acc_re[j] = acc_re.get(j, 0) + ar * br - ai * bi
                    acc_im[j] = acc_im.get(j, 0) + ar * bi + ai * br
            out.append({j: (re, acc_im[j]) for j, re in acc_re.items() if re or acc_im[j]})
        return ScaledIntMatrix(self.rows, other.cols, self.den * other.den, out)

    def is_zero(self) -> bool:
        return not any(self.data)


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------


# Entries of a returned echelon.  Like GaussianRational they expose .re
# and .im (ints, with numerator and denominator), so code that measures
# coefficient sizes, such as bench/spans.py, reads both alike.
GaussianInteger = namedtuple("GaussianInteger", "re im")
_GZERO = GaussianInteger(0, 0)


def _integer_rows(rows):
    """Rows of Gaussian rationals as lists of (re, im) int pairs, each row
    scaled by the lcm of its denominators; zero entries are None."""
    return [[p if p != (0, 0) else None for p in integer_form(row)[1]] for row in rows]


def _exact_quotient(a, b):
    """a / b for Gaussian integers given as (re, im) pairs, when b divides
    a; a nonzero remainder means an elimination invariant is broken."""
    ar, ai = a
    br, bi = b
    n = br * br + bi * bi
    qr, rr = divmod(ar * br + ai * bi, n)
    qi, ri = divmod(ai * br - ar * bi, n)
    if rr or ri:
        raise AssertionError(f"inexact Gaussian-integer division of {tuple(a)} by {tuple(b)}")
    return qr, qi


def _bareiss_echelon(rows, cols):
    """Fraction-free forward elimination of Gaussian-integer rows.

    `rows` come from `_integer_rows` and are eliminated in place.
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


def _pivot_solution(echelon, piv_cols, column):
    """y with sum_s echelon[r][piv_cols[s]] * y[s] == column[r] for every
    echelon row r, as GaussianRationals.

    Back substitution runs on Gaussian integers and computes w = det * y,
    where det is the last pivot: the determinant of the minor on the
    pivot rows and columns.  By Cramer's rule w is integral, so every
    division by a pivot is exact; y = w / det is formed on the way out.
    """
    rank = len(piv_cols)
    if not rank:
        return []
    dr, di = echelon[-1][piv_cols[-1]]
    w = [None] * rank
    for r in range(rank - 1, -1, -1):
        row = echelon[r]
        tr, ti = column[r]
        acc_re = dr * tr - di * ti
        acc_im = dr * ti + di * tr
        for s in range(r + 1, rank):
            er, ei = row[piv_cols[s]]
            if er or ei:
                wr, wi = w[s]
                acc_re -= er * wr - ei * wi
                acc_im -= er * wi + ei * wr
        w[r] = _exact_quotient((acc_re, acc_im), row[piv_cols[r]])
    n = dr * dr + di * di
    return [_gauss(zr * dr + zi * di, zi * dr - zr * di, n) if zr or zi else ZERO for zr, zi in w]


def _reduced_echelon(rows, cols):
    """Reduced row echelon form of Gaussian-integer rows (eliminated in
    place) as GaussianRational rows, zero rows dropped, with the pivot
    columns.  Outside the pivot columns, column j solves the triangular
    system on the pivot columns with the echelon's column j on the right.
    """
    echelon, piv_cols = _bareiss_echelon(rows, cols)
    out = [[ZERO] * cols for _ in piv_cols]
    for r, c in enumerate(piv_cols):
        out[r][c] = ONE
    pivots = set(piv_cols)
    for j in range(piv_cols[0] + 1 if piv_cols else cols, cols):
        if j not in pivots:
            for r, z in enumerate(_pivot_solution(echelon, piv_cols, [row[j] for row in echelon])):
                out[r][j] = z
    return out, tuple(piv_cols)


def _kernel_vectors(rows, cols):
    """Pivot columns and a kernel basis of Gaussian-integer rows
    (eliminated in place), read off their RREF R: the vector for a free
    column f has 1 at f, -R[r][f] at the pivot of row r and 0 at the
    other free columns."""
    reduced, piv_cols = _reduced_echelon(rows, cols)
    kernel = []
    for f in sorted(set(range(cols)) - set(piv_cols)):
        v = [ZERO] * cols
        v[f] = ONE
        for row, c in zip(reduced, piv_cols):
            v[c] = -row[f]
        kernel.append(v)
    return piv_cols, kernel


def rank_kernel(M: ExactMatrix):
    """Exact rank and a kernel basis of M, so rank + len(kernel) == cols.

    Kernel vectors are exact: M v == 0 for every returned v.  The vector
    for a free column f has 1 at f and 0 at the other free columns.
    """
    piv_cols, kernel = _kernel_vectors(_integer_rows(M._data), M.cols)
    return len(piv_cols), kernel


def _solve_columns(M: ExactMatrix, columns):
    """Solutions x_t of M x_t = columns[t], all read from one elimination
    of M augmented with every column.

    Returns (solutions, failed).  `solutions` holds one x per column, None
    for an inconsistent one, and `failed` is the index of the first
    inconsistent column, or None.  Pivots come leftmost first, so those
    in M's columns do not depend on the appended ones.  Row operations
    keep every linear relation between columns, so a column in M's column
    space is zero in the rows past M's pivots, and any other column is
    not.  x_t is column n + t of the RREF at the pivots of M (a later
    pivot has zeros left of it), and zero at the free variables.
    """
    n = M.cols
    aug = [row + [as_scalar(col[i]) for col in columns] for i, row in enumerate(M._data)]
    reduced, piv_cols = _reduced_echelon(_integer_rows(aug), n + len(columns))
    rank_ = sum(1 for c in piv_cols if c < n)
    solutions = []
    for t in range(len(columns)):
        if any(row[n + t] for row in reduced[rank_:]):
            solutions.append(None)
            continue
        x = [ZERO] * n
        for row, c in zip(reduced, piv_cols[:rank_]):
            x[c] = row[n + t]
        solutions.append(x)
    failed = next((t for t, x in enumerate(solutions) if x is None), None)
    return solutions, failed


def solve_linear(M: ExactMatrix, b: Vector):
    """Some exact solution x of M x = b, or None when inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    if len(b) != M.rows:
        raise ValueError("rhs length mismatch")
    return _solve_columns(M, [b])[0][0]


def rref(M: ExactMatrix):
    """Reduced row echelon form and pivot columns, exact.

    The RREF with zero rows dropped is the canonical representation of
    the row space: equal row spaces give identical matrices.  It is the
    fraction-free echelon normalised (see `_reduced_echelon`).
    """
    out, pivots = _reduced_echelon(_integer_rows(M._data), M.cols)
    return ExactMatrix._of(len(out), M.cols, out), pivots


# ---------------------------------------------------------------------------
# characteristic polynomial and eigen-splitting
# ---------------------------------------------------------------------------


def char_poly(M: ExactMatrix) -> list:
    """Monic characteristic polynomial det(tI - M), coefficients low to high.

    The Faddeev-LeVerrier recursion on the Gaussian-integer matrix A of
    `ScaledIntMatrix.from_exact`: its coefficients are Gaussian integers, so
    each division by k is exact, and the one of t^(n-k) is over den^k."""
    if M.rows != M.cols:
        raise ValueError("characteristic polynomial of non-square matrix")
    n = M.rows
    A = ScaledIntMatrix.from_exact(M)
    coeffs = [ZERO] * n + [ONE]
    Ak = ScaledIntMatrix(n, n, 1, [{i: (1, 0)} for i in range(n)])
    for k in range(1, n + 1):
        Ak = A.matmul(Ak)  # its den is den^k
        diagonal = [row.get(i, (0, 0)) for i, row in enumerate(Ak.data)]
        c = _exact_quotient((-sum(x for x, _ in diagonal), -sum(y for _, y in diagonal)), (k, 0))
        coeffs[n - k] = _gauss(*c, Ak.den)
        # Ak is a fresh product: add c to its diagonal in place
        for i, (row, (x, y)) in enumerate(zip(Ak.data, diagonal)):
            row[i] = (x + c[0], y + c[1])
    return coeffs


def _poly_deflate(coeffs, root):
    """Divide a polynomial by (t - root); remainder must be zero."""
    n = len(coeffs) - 1
    out = [ZERO] * n
    carry = coeffs[n]
    for k in range(n - 1, -1, -1):
        out[k] = carry
        carry = coeffs[k] + carry * root
    if not carry.is_zero():
        raise ArithmeticError("deflation by a non-root")
    return out


_DIVISOR_NORM_LIMIT = 10**12


def _integer_divisors(n: int):
    n = abs(n)
    divs = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            divs.append(d)
            if d != n // d:
                divs.append(n // d)
        d += 1
    return sorted(divs)


def _gaussian_divisors(z: GaussianRational):
    """All Gaussian integers dividing z (including unit multiples).

    A candidate d = x + yi divides z = a + bi exactly when z conj(d) =
    (ax + by) + (bx - ay)i is divisible by the integer N(d) = x^2 + y^2,
    so each is tested on ints."""
    den, ((a, b),) = integer_form([z])
    if den != 1:
        raise ValueError("divisor enumeration needs a Gaussian integer")
    nz = a * a + b * b
    if nz == 0:
        raise ValueError("divisors of zero are unbounded")
    if nz > _DIVISOR_NORM_LIMIT:
        raise InputError(
            f"root search stopped at the divisor-norm limit {_DIVISOR_NORM_LIMIT}: a "
            f"coefficient has norm {nz}, so splitting over Q(i) is undecided"
        )
    found = set()
    for m in _integer_divisors(nz):
        for x in range(isqrt(m) + 1):
            y2 = m - x * x
            y = isqrt(y2)
            if y * y != y2:
                continue
            # m >= 1, so no candidate is zero
            for cx, cy in {(x, y), (x, -y), (-x, y), (-x, -y)}:
                if (a * cx + b * cy) % m == 0 and (b * cx - a * cy) % m == 0:
                    found.add((cx, cy))
    return [GaussianRational(x, y) for x, y in sorted(found)]


def _vanishes_at(ints, r, s):
    """Whether the polynomial with Gaussian-integer coefficients `ints`,
    (re, im) pairs, vanishes at r/s for Gaussian integers r and s: s^n p(r/s)
    by Horner on ints."""
    _, ((rr, ri), (sr, si)) = integer_form((r, s))
    (x, y), (p, q) = ints[-1], (1, 0)
    for a, b in reversed(ints[:-1]):
        p, q = p * sr - q * si, p * si + q * sr
        x, y = x * rr - y * ri + a * p - b * q, x * ri + y * rr + a * q + b * p
    return x == y == 0


def poly_linear_roots(coeffs):
    """All roots in Q(i) with multiplicity; NonSplitError if some factor
    has no root there (rational-root search over Gaussian-integer
    divisors after clearing denominators), InputError if a coefficient's
    norm is past the divisor-search limit.

    Once the zero roots are pulled out, every root is r/s with r a divisor
    of the constant and s one of the leading coefficient.  These
    candidates are enumerated once and tried in one pass, deflating on
    each hit: a root of a deflated factor is a root of the polynomial, so
    it is among them, and a candidate that missed once is not a root of
    any later factor either."""
    work = list(coeffs)
    while len(work) > 1 and work[-1].is_zero():
        work.pop()
    if len(work) <= 1:
        raise ValueError("constant polynomial")
    roots = []
    # pull out the t^k factor first
    while work[0].is_zero():
        roots.append(ZERO)
        work = work[1:]
    if len(work) > 2:
        # candidates are tested on the integer form of work
        _, ints = integer_form(work)
        numerators = _gaussian_divisors(_gauss(*ints[0], 1))
        # a unit multiple of s only rescales the candidate, and numerators
        # run over all associates: one associate of each s will do.  A value
        # met again is no root by then, as all of its multiplicity is gone.
        candidates = (
            (r, s) for s in _gaussian_divisors(_gauss(*ints[-1], 1))
            if s.re_num > 0 and s.im_num >= 0 for r in numerators
        )
        for r, s in candidates:
            while len(work) > 2 and _vanishes_at(ints, r, s):
                roots.append(r / s)
                work = _poly_deflate(work, roots[-1])
                _, ints = integer_form(work)
            if len(work) <= 2:
                break
        else:
            raise NonSplitError(
                "polynomial factor without a root in Q(i)", residual_degree=len(work) - 1
            )
    if len(work) == 2:  # linear: a0 + a1 t
        roots.append(-work[0] / work[1])
    return roots


class EigenSplit(namedtuple("EigenSplit", "pairs diagonalizable")):
    """Distinct eigenvalues with exact eigenspaces; diagonalizable iff the
    eigenspace dimensions add up to the matrix size.  `pairs` is
    ((eigenvalue, (vectors...)), ...) sorted by eigenvalue."""

    __slots__ = ()


def split_eigen(M: ExactMatrix) -> EigenSplit:
    if M.rows != M.cols:
        raise ValueError("split_eigen needs a square matrix")
    n = M.rows
    if n == 0:
        return EigenSplit(pairs=(), diagonalizable=True)
    lam = M[0, 0]  # a scalar matrix: every vector is an eigenvector
    if all(x == (lam if i == j else ZERO) for i, row in enumerate(M._data) for j, x in enumerate(row)):
        return EigenSplit(((lam, tuple(map(tuple, ExactMatrix.identity(n)._data))),), True)
    roots = poly_linear_roots(char_poly(M))
    values = set(roots)
    distinct = sorted(values, key=value_key(values))
    pairs = []
    total = 0
    for lam in distinct:
        shifted = M.row_list()  # fresh rows: subtract lam on the diagonal in place
        for i, row in enumerate(shifted):
            row[i] = row[i] - lam
        _, kernel = rank_kernel(ExactMatrix._of(n, n, shifted))
        total += len(kernel)
        pairs.append((lam, tuple(tuple(v) for v in kernel)))
    return EigenSplit(pairs=tuple(pairs), diagonalizable=total == n)


def _combine(coeffs, vectors):
    """sum of c v over the coefficients c and the vectors v, skipping zeros."""
    out = [ZERO] * len(vectors[0])
    for c, v in zip(coeffs, vectors):
        for i, x in enumerate(v) if c else ():
            if x:
                out[i] = out[i] + c * x
    return out


def refine_eigen(blocks, M: ExactMatrix):
    """The blocks (prefix, rows), each split by the square matrix M
    restricted to the span of its rows: (prefix + (lam,), eigenvector rows)
    for the eigenvalues lam of `split_eigen`, block by block; None at the
    first block that M does not map into itself or does not diagonalize.
    Every row of a block has a unit column, 1 there and 0 in the other
    rows, as the identity and every block returned have (kernel vectors
    are 1 at their free column, 0 at the others): coordinates in a block
    are read there, with no elimination."""
    columns = M.transpose()._data
    refined = []
    for prefix, vectors in blocks:
        units = [next(j for j, x in enumerate(v) if x == ONE and all(
            w is v or not w[j] for w in vectors)) for v in vectors]
        images = [_combine(v, columns) for v in vectors]
        # restricted[k][j] is coordinate k of M v_j; a full block is invariant
        restricted = [[image[u] for image in images] for u in units]
        if len(vectors) < M.cols and any(_combine(c, vectors) != image
                                         for c, image in zip(zip(*restricted), images)):
            return None
        eigen = split_eigen(ExactMatrix._of(len(vectors), len(vectors), restricted))
        if not eigen.diagonalizable:
            return None
        refined += [(prefix + (lam,), [_combine(c, vectors) for c in cs]) for lam, cs in eigen.pairs]
    return refined


# ---------------------------------------------------------------------------
# Hermitian inertia
# ---------------------------------------------------------------------------


class Inertia(namedtuple("Inertia", "n_pos n_neg n_zero")):
    __slots__ = ()

    def swapped(self) -> "Inertia":
        return Inertia(self.n_neg, self.n_pos, self.n_zero)

    def is_mixed(self) -> bool:
        return self.n_pos >= 1 and self.n_neg >= 1

    def as_tuple(self):
        return (self.n_pos, self.n_neg, self.n_zero)


def hermitian_inertia(H: ExactMatrix) -> Inertia:
    """Eigenvalue signs of an exactly Hermitian matrix, read off its
    characteristic polynomial by Descartes' rule of signs.

    Descartes' rule bounds the positive roots of a real polynomial by the
    sign changes of its coefficients (zeros skipped), and the negative
    roots by those of p(-t).  The characteristic polynomial of a Hermitian
    matrix is real with only real roots, and there the rule is exact: with
    t^z split off (z, the index of the lowest nonzero coefficient, is the
    multiplicity of the eigenvalue 0), the two bounds add up to at most the
    remaining degree, which the nonzero roots fill exactly.
    """
    if not H.is_hermitian():
        raise NonHermitianError("matrix is not exactly Hermitian")
    # over a positive common denominator the coefficients keep their signs
    _, coeffs = integer_form(char_poly(H))
    if any(b for _, b in coeffs):
        raise AssertionError("characteristic polynomial of a Hermitian matrix is not real")
    n_zero = next(k for k, (a, _) in enumerate(coeffs) if a)
    signs = [a > 0 for a, _ in coeffs[n_zero:] if a]
    n_pos = sum(a != b for a, b in zip(signs, signs[1:]))
    return Inertia(n_pos, H.rows - n_zero - n_pos, n_zero)
