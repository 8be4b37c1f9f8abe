"""Matrices and vectors over Q(i), with no elimination.

`ExactMatrix` is a dense matrix of GaussianRational entries, treated as
immutable; a `Vector` is a list of them, and `vec_is_zero`, `vec_conj`
and `vec_dot` (bilinear, not Hermitian) are the vector helpers the
package reads.  `ScaledIntMatrix` is 1/den times sparse Gaussian-integer
rows: the form in which the cochain engine builds, multiplies and
eliminates its differentials without GaussianRational, and in which
`linalg.char_poly` forms its powers.  `ScaledIntMatrix.from_exact` takes
one `scalars.integer_form` of every entry.

Ranks, kernels, solutions and eigen-splitting live in `linalg`.  A
caller that only builds or multiplies matrices, such as
`LieAlgebra.ad_matrix`, loads no elimination code.
"""

from __future__ import annotations

from itertools import islice

from .scalars import GaussianRational, ONE, ZERO, _gauss, as_scalar, integer_form

Vector = list  # list[GaussianRational]


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
