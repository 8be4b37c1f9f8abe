"""Real Lie algebras by structure constants.

An algebra is a real form: a named basis with rational structure
constants, stored only for index pairs j < k (antisymmetry is
structural).  Its complex subspaces, `Subalgebra` and the ``span{...}``
shorthand `parse_span`, live in `liecoh.subalgebra`: loading an
algebra, which every command and library user does, compiles neither
them nor `liecoh.linalg`.  Both names are still served from here, on
first use (PEP 562), for callers outside the package.
"""

from __future__ import annotations

import re as _re

from .scalars import InputError, ZERO, _gauss, as_scalar, format_scalar, integer_form, parse_scalar


class AlgebraError(InputError):
    pass


class ParentMismatchError(AlgebraError):
    pass


class ClosureError(AlgebraError):
    """A subspace that must be bracket-closed is not; witness is a row pair."""

    def __init__(self, witness):
        super().__init__(f"subspace is not bracket-closed: witness rows {witness}")
        self.witness = witness


class LieAlgebra:
    """Real Lie algebra with rational structure constants on a named basis.

    Module operations accept coordinate vectors over Q(i); this is the
    implicit complexification.  The constants are stored as real
    GaussianRationals, so brackets multiply them without conversion.  The
    Jacobi identity is not assumed at construction: call validate()
    (builders that ship with the package do so).
    """

    def __init__(self, name: str, basis_names, brackets):
        self.name = name
        self.basis_names = tuple(basis_names)
        if len(set(self.basis_names)) != len(self.basis_names):
            raise AlgebraError("duplicate basis names")
        n = len(self.basis_names)
        table = {}
        for (j, k), coeffs in brackets.items():
            if not (0 <= j < k < n):
                raise AlgebraError(f"bracket pair ({j},{k}) must satisfy 0 <= j < k < dim")
            entry = {}
            for l, c in coeffs.items():
                if not 0 <= l < n:
                    raise AlgebraError(f"bracket target index {l} out of range")
                c = as_scalar(c)
                if not c.is_real():
                    raise AlgebraError(f"structure constant {c} is not real")
                if c:
                    entry[l] = c
            if entry:
                table[(j, k)] = entry
        self._table = table
        self._ints = self._integer_table()

    @property
    def dim(self) -> int:
        return len(self.basis_names)

    def basis_index(self, name: str) -> int:
        try:
            return self.basis_names.index(name)
        except ValueError:
            raise AlgebraError(f"unknown basis name {name!r}") from None

    def _integer_table(self):
        """(den, table): every structure constant times one common
        denominator den, as ints, with table[(j, k)] for both orders of
        each stored pair (antisymmetry written out)."""
        den, pairs = integer_form([c for coeffs in self._table.values() for c in coeffs.values()])
        pairs = iter(pairs)
        table = {}
        for (j, k), coeffs in self._table.items():
            ints = {l: next(pairs)[0] for l in coeffs}
            table[(j, k)] = ints
            table[(k, j)] = {l: -x for l, x in ints.items()}
        return den, table

    def bracket_pairs(self):
        return sorted(self._table.keys())

    def bracket(self, v, w):
        """Bilinear antisymmetric extension of the structure constants,
        summed on ints over the denominators of the table, v and w."""
        n = self.dim
        if len(v) != n or len(w) != n:
            raise AlgebraError("coordinate vector length mismatch")
        den, table = self._ints
        (dv, pv), (dw, pw) = integer_form(v), integer_form(w)
        sw = [(k, p) for k, p in enumerate(pw) if p != (0, 0)]
        re, im = [0] * n, [0] * n
        for j, (a, b) in enumerate(pv):
            for k, (c, d) in sw if a or b else ():
                for l, t in table.get((j, k), {}).items():
                    re[l] += (a * c - b * d) * t
                    im[l] += (a * d + b * c) * t
        den *= dv * dw
        return [_gauss(x, y, den) if x or y else ZERO for x, y in zip(re, im)]

    def basis_vector(self, j: int):
        v = [ZERO] * self.dim
        v[j] = as_scalar(1)
        return v

    def ad_matrix(self, v) -> ExactMatrix:
        """Matrix of ad_v = [v, .] in the algebra basis (columns are images)."""
        from .matrix import ExactMatrix

        cols = [self.bracket(v, self.basis_vector(k)) for k in range(self.dim)]
        return ExactMatrix.from_rows(
            [[cols[k][l] for k in range(self.dim)] for l in range(self.dim)]
        )

    def validate(self):
        """None when the Jacobi identity holds for every basis triple, else
        the lexicographically first failing (j, k, l).  The X_p-coefficient
        of [[X_a, X_b], X_c] is sum_m c_{ab}^m c_{mc}^p, read off the table
        on ints: over the common denominator den every sum is den^2 times
        the exact one, so it is zero exactly when that one is.  Only the
        triples holding a stored pair are visited: on any other all three
        brackets vanish.
        """
        _, table = self._ints
        triples = {tuple(sorted((j, k, l))) for j, k in self._table
                   for l in range(self.dim) if l != j and l != k}
        for j, k, l in sorted(triples):
            total = {}
            for a, b, c in ((j, k, l), (k, l, j), (l, j, k)):
                for m, x in table.get((a, b), {}).items():
                    for p, y in table.get((m, c), {}).items():
                        total[p] = total.get(p, 0) + x * y
            if any(total.values()):
                return (j, k, l)
        return None

    def __eq__(self, other):
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return (
            self.name == other.name
            and self.basis_names == other.basis_names
            and self._table == other._table
        )

    def __hash__(self):
        return hash((self.name, self.basis_names))

    def __repr__(self):
        return f"LieAlgebra({self.name!r}, dim={self.dim})"

    # -- JSON interchange

    def to_json_dict(self) -> dict:
        brackets = []
        for (j, k) in self.bracket_pairs():
            coeffs = self._table[(j, k)]
            brackets.append(
                {
                    "on": [self.basis_names[j], self.basis_names[k]],
                    "result": {
                        self.basis_names[l]: format_scalar(c)
                        for l, c in sorted(coeffs.items())
                    },
                }
            )
        return {"name": self.name, "basis": list(self.basis_names), "brackets": brackets}

    @classmethod
    def from_json_dict(cls, data: dict) -> "LieAlgebra":
        try:
            name = data["name"]
            basis = data["basis"]
            if not isinstance(name, str):
                raise TypeError("name must be a JSON string")
            # a string is not read as its characters
            if not isinstance(basis, list) or not all(isinstance(b, str) for b in basis):
                raise TypeError("basis must be a JSON list of names")
            index = {b: i for i, b in enumerate(basis)}
            table = {}
            for item in data.get("brackets", []):
                if not isinstance(item["on"], list):
                    raise TypeError("bracket 'on' must be a JSON list of two names")
                a, b = item["on"]
                if a not in index or b not in index:
                    raise AlgebraError(f"bracket on unknown basis names {a!r}, {b!r}")
                j, k = index[a], index[b]
                if not j < k:
                    raise AlgebraError(f"bracket pair [{a}, {b}] must be in basis order")
                if (j, k) in table:
                    raise AlgebraError(f"brackets list the pair [{a}, {b}] twice")
                coeffs = {}
                for cname, ctext in item["result"].items():
                    if cname not in index:
                        raise AlgebraError(f"bracket result on unknown basis name {cname!r}")
                    z = parse_scalar(ctext)
                    if not z.is_real():
                        raise AlgebraError(
                            f"structure constant {ctext!r} is not real; algebras are real forms"
                        )
                    coeffs[index[cname]] = z
                table[(j, k)] = coeffs
        except InputError:  # a bad name or scalar keeps its own message
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise AlgebraError(f"malformed algebra JSON: {exc}") from exc
        return cls(name, basis, table)


# ---------------------------------------------------------------------------
# builtin algebras
# ---------------------------------------------------------------------------


def su2() -> LieAlgebra:
    """su(2) with basis (T, X, Y): [T,X]=2Y, [T,Y]=-2X, [X,Y]=2T."""
    T, X, Y = 0, 1, 2
    return LieAlgebra(
        "su2",
        ("T", "X", "Y"),
        {
            (T, X): {Y: 2},
            (T, Y): {X: -2},
            (X, Y): {T: 2},
        },
    )


def su3() -> LieAlgebra:
    """su(3) with basis (T1, T2, X1, Y1, X2, Y2, X3, Y3).

    Structure constants follow the standard traceless skew-Hermitian
    generators: T1=diag(i,-i,0), T2=diag(i,i,-2i), X_k/Y_k the symmetric
    and antisymmetric off-diagonal pairs.
    """
    names = ("T1", "T2", "X1", "Y1", "X2", "Y2", "X3", "Y3")
    T1, T2, X1, Y1, X2, Y2, X3, Y3 = range(8)
    table = {
        (T1, X1): {Y1: 2},
        (T1, Y1): {X1: -2},
        (T1, X2): {Y2: 1},
        (T1, Y2): {X2: -1},
        (T1, X3): {Y3: -1},
        (T1, Y3): {X3: 1},
        (T2, X2): {Y2: 3},
        (T2, Y2): {X2: -3},
        (T2, X3): {Y3: 3},
        (T2, Y3): {X3: -3},
        (X1, Y1): {T1: 2},
        (X1, X2): {Y3: 1},
        (X1, Y2): {X3: -1},
        (X1, X3): {Y2: 1},
        (X1, Y3): {X2: -1},
        (Y1, X2): {X3: 1},
        (Y1, Y2): {Y3: 1},
        (Y1, X3): {X2: -1},
        (Y1, Y3): {Y2: -1},
        (X2, Y2): {T1: 1, T2: 1},
        (X2, X3): {Y1: 1},
        (X2, Y3): {X1: 1},
        (Y2, X3): {X1: -1},
        (Y2, Y3): {Y1: 1},
        (X3, Y3): {T1: -1, T2: 1},
    }
    return LieAlgebra("su3", names, table)


def torus(r: int) -> LieAlgebra:
    """Abelian algebra of rank r with basis D1..Dr."""
    if r < 0:
        raise AlgebraError("torus rank must be nonnegative")
    return LieAlgebra(f"torus{r}", tuple(f"D{i + 1}" for i in range(r)), {})


def builtin_algebra(name: str) -> LieAlgebra:
    """Resolve a builtin name: su2, su3, torus<r>."""
    if name == "su2":
        return su2()
    if name == "su3":
        return su3()
    m = _re.match(r"^torus(\d+)$", name)
    if m:
        return torus(int(m.group(1)))
    raise AlgebraError(f"unknown builtin algebra {name!r}")


def __getattr__(name):
    # the subspace names that moved to liecoh.subalgebra; no module of the
    # package reads them here
    if name not in ("Subalgebra", "parse_span"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import subalgebra

    value = getattr(subalgebra, name)
    globals()[name] = value
    return value
