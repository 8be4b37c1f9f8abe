"""Structure classification, characteristic covectors and the Levi form.

A subalgebra h of the complexified algebra g defines an elliptic /
complex / CR / essentially real structure according to how h sits
against its conjugate.  All four flags and the characteristic
covectors come from one real matrix R = [Re v; Im v], stacked over the
basis rows v of h:

- rank R = dim_C(h + conj h).  Since v = Re v + i Im v and
  conj v = Re v - i Im v, the real vectors Re v and Im v span
  h + conj h over C, and real vectors independent over R stay
  independent over C.  So dim(h cap conj h) = 2 dim h - rank R.
- ker R is the characteristic space.  A real covector xi annihilates v
  exactly when it annihilates Re v and Im v.

At a characteristic covector xi the Levi form is the Hermitian matrix
(1/2i) xi([Z_a, conj(Z_b)]) on a basis of h, and its inertia feeds the
mixed-signature hypocomplexity test of Baouendi-Chang-Treves.  With
the basis fixed, every entry is xi applied to a fixed vector, so L is
linear in xi: the test forms L once per characteristic basis covector
and reads each sample as the same combination of those matrices.  Left
invariance makes evaluation at the identity sufficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd

from .algebra import AlgebraError, LieAlgebra, Subalgebra
from .linalg import (
    ExactMatrix,
    Inertia,
    as_scalar,
    hermitian_inertia,
    rank_kernel,
    rref,
    vec_conj,
    vec_dot,
    vec_is_zero,
)
from .scalars import GaussianRational, format_scalar

VERDICT_ELLIPTIC = "elliptic_hence_hypocomplex"
VERDICT_BCT = "hypocomplex_by_bct"
VERDICT_INCONCLUSIVE = "inconclusive"

# entries of the BCT sample grid lie in [-GRID_RADIUS, GRID_RADIUS]
GRID_RADIUS = 2


class NotCharacteristicError(AlgebraError):
    pass


@dataclass(frozen=True)
class ClassificationReport:
    """Flags and dimensions classifying h against its conjugate.

    complex_structure implies elliptic and cr; essentially_real means
    h equals its conjugate; elliptic means h + conj(h) is everything.
    """

    elliptic: bool
    complex_structure: bool
    cr: bool
    essentially_real: bool
    dim_h: int
    dim_conj: int
    dim_sum: int
    dim_intersection: int
    ambient_dim: int

    @classmethod
    def from_rank(cls, n: int, k: int, rank: int) -> "ClassificationReport":
        """The report for a k-dimensional h in an n-dimensional algebra
        whose matrix R = [Re v; Im v] has the given rank."""
        elliptic = rank == n
        cr = rank == 2 * k
        return cls(
            elliptic=elliptic,
            complex_structure=elliptic and cr,
            cr=cr,
            essentially_real=rank == k,
            dim_h=k,
            dim_conj=k,
            dim_sum=rank,
            dim_intersection=2 * k - rank,
            ambient_dim=n,
        )

    def to_json_dict(self) -> dict:
        return {
            "flags": {
                "elliptic": self.elliptic,
                "complex": self.complex_structure,
                "cr": self.cr,
                "essentially_real": self.essentially_real,
            },
            "dims": {
                "h": self.dim_h,
                "h_conj": self.dim_conj,
                "h_plus_conj": self.dim_sum,
                "h_cap_conj": self.dim_intersection,
                "ambient": self.ambient_dim,
            },
        }


def _real_rank_kernel(g: LieAlgebra, h: Subalgebra):
    """Rank and kernel of the real matrix R = [Re v; Im v] over the basis
    rows v of h (see the module docstring)."""
    if h.parent != g:
        raise AlgebraError("subalgebra does not belong to the given algebra")
    vs = h.vectors()
    rows = [[x.re for x in v] for v in vs] + [[x.im for x in v] for v in vs]
    return rank_kernel(ExactMatrix(len(rows), g.dim, rows))


def classify_structure(g: LieAlgebra, h: Subalgebra) -> ClassificationReport:
    rank, _ = _real_rank_kernel(g, h)
    return ClassificationReport.from_rank(g.dim, h.dim, rank)


def characteristic_space(g: LieAlgebra, h: Subalgebra):
    """Basis of the real covectors annihilating h (equivalently h + conj h).

    Covectors are returned as coordinate vectors in the dual of the real
    basis, in reduced echelon form; the list is empty exactly when the
    structure is elliptic.
    """
    _, kernel = _real_rank_kernel(g, h)
    if not kernel:
        return []
    canon, _ = rref(ExactMatrix.from_rows(kernel))
    return canon.row_list()


@dataclass(frozen=True)
class LeviForm:
    """Hermitian form (1/2i) xi([Z_a, conj(Z_b)]) on a basis Z of h."""

    xi: tuple
    basis: tuple
    matrix: ExactMatrix

    def inertia(self) -> Inertia:
        return hermitian_inertia(self.matrix)


def levi_form(g: LieAlgebra, h: Subalgebra, xi, basis=None) -> LeviForm:
    """Levi form of h at the nonzero characteristic covector xi.

    `basis` defaults to the canonical echelon basis of h; an explicit
    basis (rows spanning h) may be passed to control the matrix ordering.
    """
    if h.parent != g:
        raise AlgebraError("subalgebra does not belong to the given algebra")
    xi = [as_scalar(x) for x in xi]
    if len(xi) != g.dim:
        raise AlgebraError("covector length mismatch")
    if vec_is_zero(xi):
        raise NotCharacteristicError("characteristic covector must be nonzero")
    if any(not x.is_real() for x in xi):
        raise NotCharacteristicError("characteristic covectors are real")
    for v in h.vectors():
        if not vec_dot(xi, v).is_zero():
            raise NotCharacteristicError("covector does not annihilate the subalgebra")
    if basis is None:
        rows = h.vectors()
    else:
        rows = [[as_scalar(x) for x in v] for v in basis]
        span_check = Subalgebra.span(g, rows)
        if len(rows) != h.dim or span_check != h:
            raise AlgebraError("explicit basis does not span the subalgebra")
    half_i_inv = GaussianRational(0, Fraction(-1, 2))  # 1/(2i)
    entries = []
    for za in rows:
        row = []
        for zb in rows:
            w = g.bracket(za, vec_conj(zb))
            row.append(half_i_inv * vec_dot(xi, w))
        entries.append(row)
    matrix = ExactMatrix.from_rows(entries)
    if not matrix.is_hermitian():
        raise AssertionError("Levi form failed the exact Hermitian check")
    return LeviForm(xi=tuple(xi), basis=tuple(tuple(v) for v in rows), matrix=matrix)


@dataclass(frozen=True)
class BctSample:
    coeffs: tuple  # integer coefficients over the characteristic basis
    covector: tuple
    inertia: Inertia

    def to_json_dict(self) -> dict:
        return {
            "coefficients": list(self.coeffs),
            "covector": [format_scalar(x) for x in self.covector],
            "inertia": list(self.inertia.as_tuple()),
        }


@dataclass(frozen=True)
class BctReport:
    """Outcome of the mixed-signature (one positive and one negative
    eigenvalue) hypocomplexity test.

    Exact verdicts are only possible when the characteristic space has
    dimension <= 1; in higher dimension the report carries inertia
    evidence on a deterministic rational sample grid and is always
    inconclusive (sampling cannot prove a universal claim).  The
    characteristic basis and the Levi form at each basis covector are
    kept for the caller and not serialised.
    """

    verdict: str
    characteristic_space: tuple
    levi_forms: tuple
    samples: tuple
    notes: tuple

    @property
    def characteristic_dim(self) -> int:
        return len(self.characteristic_space)

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "characteristic_dim": self.characteristic_dim,
            "samples": [s.to_json_dict() for s in self.samples],
            "notes": list(self.notes),
        }


def _primitive_grid(dim: int, radius: int):
    """Integer tuples with entries in [-radius, radius], deduplicated up to
    positive scaling, lexicographically ordered."""
    seen = set()
    for coeffs in product(range(-radius, radius + 1), repeat=dim):
        if all(c == 0 for c in coeffs):
            continue
        g = 0
        for c in coeffs:
            g = gcd(g, abs(c))
        primitive = tuple(c // g for c in coeffs)
        seen.add(primitive)
    return sorted(seen)


def bct_check(g: LieAlgebra, h: Subalgebra) -> BctReport:
    char = characteristic_space(g, h)
    d, n, k = len(char), g.dim, h.dim
    forms = tuple(levi_form(g, h, xi) for xi in char)
    # covector and Levi form are both linear in xi, so one product of the
    # grid with the rows [xi_j | L(xi_j) flattened] gives both at each sample
    table = [xi + [x for row in lf.matrix.row_list() for x in row] for xi, lf in zip(char, forms)]
    grid = _primitive_grid(d, GRID_RADIUS)
    combined = ExactMatrix(len(grid), d, grid).matmul(ExactMatrix(d, n + k * k, table))
    samples = []
    for coeffs, row in zip(grid, combined.row_list()):
        levi = ExactMatrix(k, k, [row[n + a * k:n + (a + 1) * k] for a in range(k)])
        samples.append(BctSample(coeffs, tuple(row[:n]), hermitian_inertia(levi)))
    if d == 0:
        verdict = VERDICT_ELLIPTIC
        note = "characteristic set is zero: structure is elliptic, hence hypocomplex"
    elif d >= 2:
        verdict = VERDICT_INCONCLUSIVE
        note = (
            "characteristic space has dimension >= 2: inertia evidence on a "
            "deterministic sample grid only; a universal verdict is not "
            "claimed from sampling"
        )
    elif all(s.inertia.is_mixed() for s in samples):
        verdict = VERDICT_BCT
        note = (
            "Levi form has at least one positive and one negative eigenvalue "
            "at every nonzero characteristic covector (checked at +/- the "
            "basis covector; scaling covers the rest)"
        )
    else:
        verdict = VERDICT_INCONCLUSIVE
        note = (
            "mixed-signature hypothesis fails on the 1-dimensional "
            "characteristic line; the test is only sufficient, so no "
            "conclusion follows"
        )
    return BctReport(
        verdict=verdict,
        characteristic_space=tuple(map(tuple, char)),
        levi_forms=forms,
        samples=tuple(samples),
        notes=(note,),
    )
