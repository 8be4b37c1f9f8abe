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
L(xi) = (1/2i) xi([Z_a, conj(Z_b)]) on the echelon basis Z of h, and
`levi_form` returns just that matrix.  Its inertia feeds the
mixed-signature hypocomplexity test of Baouendi-Chang-Treves.  With
the basis fixed, every entry is xi applied to a fixed vector, so L is
linear in xi: L(xi + 2 xi') = L(xi) + 2 L(xi') and L(-xi) = -L(xi).  The
test forms L once per characteristic basis covector xi_j, keeps those
matrices, and takes the inertia at -xi_j as the one at xi_j with its
signs swapped.  Left invariance makes evaluation at the identity
sufficient.
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import AlgebraError, LieAlgebra
from .linalg import (
    ExactMatrix,
    as_scalar,
    hermitian_inertia,
    rank_kernel,
    rref,
    vec_conj,
    vec_dot,
    vec_is_zero,
)
from .scalars import _gauss, format_scalar, integer_form
from .subalgebra import Subalgebra

VERDICT_ELLIPTIC = "elliptic_hence_hypocomplex"
VERDICT_BCT = "hypocomplex_by_bct"
VERDICT_INCONCLUSIVE = "inconclusive"


class ClassificationReport(namedtuple(
    "ClassificationReport",
    "elliptic complex_structure cr essentially_real "
    "dim_h dim_conj dim_sum dim_intersection ambient_dim",
)):
    """Flags and dimensions classifying h against its conjugate.

    complex_structure implies elliptic and cr; essentially_real means
    h equals its conjugate; elliptic means h + conj(h) is everything.
    """

    __slots__ = ()

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
    forms = [integer_form(v) for v in h.vectors()]
    rows = [[_gauss(a, 0, den) for a, _ in pairs] for den, pairs in forms] + [
        [_gauss(b, 0, den) for _, b in pairs] for den, pairs in forms
    ]
    return rank_kernel(ExactMatrix._of(len(rows), g.dim, rows))


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


def levi_form(g: LieAlgebra, h: Subalgebra, xi) -> ExactMatrix:
    """Levi form (1/2i) xi([Z_a, conj(Z_b)]) of h at the nonzero
    characteristic covector xi, on the canonical echelon basis Z of h."""
    if h.parent != g:
        raise AlgebraError("subalgebra does not belong to the given algebra")
    xi = [as_scalar(x) for x in xi]
    if len(xi) != g.dim:
        raise AlgebraError("covector length mismatch")
    if vec_is_zero(xi):
        raise AlgebraError("characteristic covector must be nonzero")
    if any(not x.is_real() for x in xi):
        raise AlgebraError("characteristic covectors are real")
    rows = h.vectors()
    for v in rows:
        if not vec_dot(xi, v).is_zero():
            raise AlgebraError("covector does not annihilate the subalgebra")
    half_i_inv = _gauss(0, -1, 2)  # 1/(2i)
    matrix = ExactMatrix.from_rows(
        [[half_i_inv * vec_dot(xi, g.bracket(za, vec_conj(zb))) for zb in rows] for za in rows]
    )
    if not matrix.is_hermitian():
        raise AssertionError("Levi form failed the exact Hermitian check")
    return matrix


class BctSample(namedtuple("BctSample", "coeffs covector inertia")):
    """Inertia of the Levi form at one sample covector; `coeffs` are its
    integer coefficients over the characteristic basis."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "coefficients": list(self.coeffs),
            "covector": [format_scalar(x) for x in self.covector],
            "inertia": list(self.inertia.as_tuple()),
        }


class BctReport(namedtuple("BctReport", "verdict characteristic_space levi_forms samples notes")):
    """Outcome of the mixed-signature (one positive and one negative
    eigenvalue) hypocomplexity test.

    The samples are +/- each characteristic basis covector, sorted by
    their coefficients.  Exact verdicts are only possible when the
    characteristic space has dimension <= 1; in higher dimension the
    samples are evidence only and the verdict is always inconclusive
    (sampling cannot prove a universal claim).  The characteristic basis
    and the Levi matrix at each basis covector are kept for the caller and
    not serialised.
    """

    __slots__ = ()

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


def bct_check(g: LieAlgebra, h: Subalgebra) -> BctReport:
    char = characteristic_space(g, h)
    d = len(char)
    forms = tuple(levi_form(g, h, xi) for xi in char)
    samples = []
    for j, (xi, form) in enumerate(zip(char, forms)):
        unit = tuple(int(i == j) for i in range(d))
        inertia = hermitian_inertia(form)
        samples.append(BctSample(unit, tuple(xi), inertia))
        # L(-xi) = -L(xi): the same inertia with its signs swapped
        samples.append(BctSample(tuple(-c for c in unit), tuple(-x for x in xi), inertia.swapped()))
    samples.sort(key=lambda s: s.coeffs)
    if d == 0:
        verdict = VERDICT_ELLIPTIC
        note = "characteristic set is zero: structure is elliptic, hence hypocomplex"
    elif d >= 2:
        verdict = VERDICT_INCONCLUSIVE
        note = (
            "characteristic space has dimension >= 2: inertia evidence at "
            "+/- each characteristic basis covector only; a universal verdict "
            "is not claimed from sampling"
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
