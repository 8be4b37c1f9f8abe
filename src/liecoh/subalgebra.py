"""Complex subspaces of a real Lie algebra, and the ``span{...}`` shorthand.

A subspace is a row space over Q(i) in the algebra's real basis, kept in
reduced row echelon form so that equal subspaces have identical
representations and conjugation is coordinatewise.  It is a module of
its own so that loading an algebra does not compile it: the commands that
take a subalgebra or a torus load it, plain cohomology does not.

`rref` and `rank_kernel` are looked up on `linalg` when called, so that a
wrapper installed there sees these calls too.
"""

from __future__ import annotations

from . import linalg
from .algebra import AlgebraError, LieAlgebra, ParentMismatchError
from .matrix import ExactMatrix, vec_conj, vec_is_zero
from .scalars import InputError, ScalarParseError, ZERO, as_scalar, format_scalar, parse_scalar


class Subalgebra:
    """Complex subspace of an algebra in canonical reduced echelon form.

    `basis` rows are coordinates over Q(i) in the parent basis.  The name
    is aspirational: closure under bracket is checked by is_subalgebra(),
    and operations that need closure verify it.
    """

    def __init__(self, parent: LieAlgebra, basis: ExactMatrix):
        self.parent = parent
        self.basis = basis
        # the basis is in reduced echelon form, so each row's first nonzero
        # entry is a 1 in a column where every other row is 0
        self._pivots = tuple(next(j for j, x in enumerate(row) if x) for row in basis.row_list())

    @classmethod
    def span(cls, parent: LieAlgebra, vectors) -> "Subalgebra":
        vectors = [list(v) for v in vectors]
        for v in vectors:
            if len(v) != parent.dim:
                raise AlgebraError("vector length does not match algebra dimension")
        if not vectors:
            return cls(parent, ExactMatrix.zero(0, parent.dim))
        mat, _ = linalg.rref(ExactMatrix.from_rows(vectors))
        return cls(parent, mat)

    @classmethod
    def full(cls, parent: LieAlgebra) -> "Subalgebra":
        return cls(parent, ExactMatrix.identity(parent.dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def vectors(self):
        return self.basis.row_list()

    def _require_same_parent(self, other: "Subalgebra"):
        if self.parent != other.parent:
            raise ParentMismatchError("subspaces have different parent algebras")

    def contains(self, v) -> bool:
        return self.coordinates_of(v) is not None

    def coordinates_of(self, v):
        """Coefficients of v over the echelon basis rows, or None.

        A member's coefficient on a row is its entry at that row's pivot
        column; the exact residual v - sum of coefficient times row is
        zero exactly for members.
        """
        if len(v) != self.parent.dim:
            raise AlgebraError("vector length mismatch")
        residual = [as_scalar(x) for x in v]
        coords = [residual[j] for j in self._pivots]
        for c, row in zip(coords, self.basis.row_list()):
            if c:
                for j, y in enumerate(row):
                    if y:
                        residual[j] = residual[j] - c * y
        return coords if vec_is_zero(residual) else None

    def sum_with(self, other: "Subalgebra") -> "Subalgebra":
        self._require_same_parent(other)
        return Subalgebra.span(self.parent, self.vectors() + other.vectors())

    def intersect(self, other: "Subalgebra") -> "Subalgebra":
        """Exact intersection via the kernel of the stacked coefficient map."""
        self._require_same_parent(other)
        if self.dim == 0 or other.dim == 0:
            return Subalgebra.span(self.parent, [])
        n = self.parent.dim
        a = self.vectors()
        b = other.vectors()
        combined = ExactMatrix.from_rows(
            [
                [a[j][i] for j in range(len(a))] + [-b[j][i] for j in range(len(b))]
                for i in range(n)
            ]
        )
        _, kernel = linalg.rank_kernel(combined)
        coeffs = ExactMatrix._of(len(kernel), len(a), [kv[: len(a)] for kv in kernel])
        return Subalgebra.span(self.parent, coeffs.matmul(self.basis).row_list())

    def conj(self) -> "Subalgebra":
        """Coordinatewise conjugation (the stored basis spans the real form)."""
        return Subalgebra.span(self.parent, [vec_conj(v) for v in self.vectors()])

    def is_subalgebra(self):
        """None when closed under bracket, else the first failing row pair."""
        vs = self.vectors()
        for a in range(len(vs)):
            for b in range(a + 1, len(vs)):
                if not self.contains(self.parent.bracket(vs[a], vs[b])):
                    return (a, b)
        return None

    def __eq__(self, other):
        if not isinstance(other, Subalgebra):
            return NotImplemented
        return self.parent == other.parent and self.basis == other.basis

    def __hash__(self):
        return hash((self.parent, self.basis))

    def __repr__(self):
        return f"Subalgebra(dim={self.dim} of {self.parent.name})"

    # -- JSON interchange

    def to_json_dict(self) -> dict:
        vectors = []
        for row in self.vectors():
            entry = {}
            for name, x in zip(self.parent.basis_names, row):
                if not x.is_zero():
                    entry[name] = format_scalar(x)
            vectors.append(entry)
        return {"algebra": self.parent.name, "vectors": vectors}

    @classmethod
    def from_json_dict(cls, data: dict, parent: LieAlgebra) -> "Subalgebra":
        try:
            vectors = []
            for entry in data["vectors"]:
                v = [ZERO] * parent.dim
                for name, text in entry.items():
                    v[parent.basis_index(name)] = parse_scalar(text)
                vectors.append(v)
        except InputError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise AlgebraError(f"malformed subalgebra JSON: {exc}") from exc
        return cls.span(parent, vectors)


# ---------------------------------------------------------------------------
# span{...} shorthand
# ---------------------------------------------------------------------------


def parse_span(text: str, parent: LieAlgebra) -> Subalgebra:
    """Parse ``span{T, X-iY, 2D1+iD2}`` into a subspace of `parent`.

    Each comma-separated entry is a linear combination of basis names
    with Gaussian-rational coefficients in the scalar grammar.
    """
    s = text.strip()
    if not (s.startswith("span{") and s.endswith("}")):
        raise AlgebraError("span shorthand must look like span{...}")
    body = s[len("span{"):-1].strip()
    vectors = []
    if body:
        for chunk in body.split(","):
            vectors.append(_parse_combination(chunk.strip(), parent))
    return Subalgebra.span(parent, vectors)


def _parse_combination(expr: str, parent: LieAlgebra):
    """Scan signed terms ``[coeff['*']]name``; every term ends in a basis name."""
    if not expr:
        raise AlgebraError("empty span entry")
    names = sorted(parent.basis_names, key=len, reverse=True)
    v = [ZERO] * parent.dim
    i, n = 0, len(expr)
    while True:
        # expr is stripped and every later pass starts at a sign
        sign = as_scalar(1)
        if expr[i] in "+-":
            if expr[i] == "-":
                sign = as_scalar(-1)
            i += 1
            if i >= n:
                raise AlgebraError(f"dangling sign in span entry {expr!r}")
        matched = False
        for j in range(i, n):
            for name in names:
                if not expr.startswith(name, j):
                    continue
                after = j + len(name)
                if after < n and (expr[after].isalnum() or expr[after] == "_"):
                    continue  # part of a longer identifier
                prefix = expr[i:j].strip()
                if prefix == "":
                    coeff = as_scalar(1)
                else:
                    # a '*' must follow a coefficient: with none, the empty text fails
                    text = prefix[:-1].strip() if prefix.endswith("*") else prefix
                    try:
                        coeff = parse_scalar(text)
                    except ScalarParseError:
                        continue
                idx = parent.basis_index(name)
                v[idx] = v[idx] + sign * coeff
                i = after
                matched = True
                break
            if matched:
                break
        if not matched:
            raise AlgebraError(f"cannot parse span term starting at {expr[i:]!r}")
        while i < n and expr[i].isspace():
            i += 1
        if i >= n:
            return v
        if expr[i] not in "+-":
            raise AlgebraError(f"expected '+' or '-' at {expr[i:]!r} in span entry")
