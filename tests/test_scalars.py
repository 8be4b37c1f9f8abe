from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from liecoh.scalars import (
    GaussianRational,
    ScalarParseError,
    format_scalar,
    parse_scalar,
)

from conftest import scalars


@pytest.mark.parametrize(
    "text,re_,im_",
    [
        ("2", Fraction(2), Fraction(0)),
        ("1/2+3/4i", Fraction(1, 2), Fraction(3, 4)),
        ("-i", Fraction(0), Fraction(-1)),
        ("i", Fraction(0), Fraction(1)),
        ("3i", Fraction(0), Fraction(3)),
        ("-1/2", Fraction(-1, 2), Fraction(0)),
        ("2-i", Fraction(2), Fraction(-1)),
        ("0", Fraction(0), Fraction(0)),
        ("-2/3i", Fraction(0), Fraction(-2, 3)),
        ("4/6", Fraction(2, 3), Fraction(0)),  # reduced on construction
    ],
)
def test_parse_fixtures(text, re_, im_):
    z = parse_scalar(text)
    assert z.re == re_ and z.im == im_


def test_canonical_fields():
    z = parse_scalar("4/6-2/4i")
    assert (z.re_num, z.re_den, z.im_num, z.im_den) == (2, 3, -1, 2)
    zero = GaussianRational(0)
    assert (zero.re_num, zero.re_den) == (0, 1)


@pytest.mark.parametrize(
    "text,offset",
    [
        ("", 0),
        ("1/", 2),
        ("1/0", 2),
        ("2+", 2),
        ("2+3", 3),
        ("abc", 0),
        ("1x", 1),
        ("1+2i3", 4),
        ("1/2/3", 3),
    ],
)
def test_parse_errors_carry_offsets(text, offset):
    with pytest.raises(ScalarParseError) as err:
        parse_scalar(text)
    assert err.value.offset == offset


@given(scalars)
def test_format_parse_roundtrip(z):
    assert parse_scalar(format_scalar(z)) == z


@given(scalars)
def test_format_idempotent_on_canonical(z):
    text = format_scalar(z)
    assert format_scalar(parse_scalar(text)) == text


@given(scalars, scalars)
def test_field_arithmetic(a, b):
    assert a + b == b + a
    assert a * b == b * a
    assert (a - b) + b == a
    if not b.is_zero():
        assert (a / b) * b == a
    assert a.conjugate().conjugate() == a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


def test_norm_multiplicative():
    a = parse_scalar("1/2+3/4i")
    b = parse_scalar("2-i")
    assert (a * b).norm() == a.norm() * b.norm()


# -- oracle: a Gaussian rational as a pair of Fractions ----------------------
#
# The reference keeps the real and imaginary parts as two Fractions, as the
# scalars once were, and shares no arithmetic with the library's int triple.


class FractionPair:
    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @classmethod
    def of(cls, x):
        if isinstance(x, GaussianRational):
            return cls(x.re, x.im)
        return cls(x)

    def __add__(self, o):
        return FractionPair(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return FractionPair(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return FractionPair(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError
        return FractionPair((self.re * o.re + self.im * o.im) / n,
                            (self.im * o.re - self.re * o.im) / n)

    def norm(self):
        return self.re * self.re + self.im * self.im

    def text(self):
        def rat(x):
            return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

        re, im = self.re, self.im
        if im == 0:
            return rat(re)
        im_part = {1: "i", -1: "-i"}.get(im) or (f"{rat(im)}i" if im > 0 else f"-{rat(-im)}i")
        return im_part if re == 0 else f"{rat(re)}{'+' if im > 0 else ''}{im_part}"


def assert_matches(z, ref):
    """z equals the reference value, with the canonical triple, the
    Fraction views, the text and the repr it should have."""
    assert isinstance(z, GaussianRational)
    a, b, d = z._t
    assert d > 0 and gcd(a, b, d) == 1
    assert (z.re, z.im) == (ref.re, ref.im)
    assert (z.re_num, z.re_den, z.im_num, z.im_den) == (
        ref.re.numerator, ref.re.denominator, ref.im.numerator, ref.im.denominator)
    assert format_scalar(z) == str(z) == ref.text()
    assert repr(z) == f"GaussianRational({ref.re!r}, {ref.im!r})"
    assert z.is_zero() == (not z) == (ref.re == 0 and ref.im == 0)
    assert z.is_real() == (ref.im == 0)


wide_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=60)
wide_scalars = st.builds(GaussianRational, wide_fractions, wide_fractions)
real_operands = st.one_of(st.integers(min_value=-20, max_value=20), wide_fractions)


@given(wide_scalars, wide_scalars)
def test_arithmetic_matches_fraction_pair_oracle(x, y):
    rx, ry = FractionPair.of(x), FractionPair.of(y)
    assert_matches(x + y, rx + ry)
    assert_matches(x - y, rx - ry)
    assert_matches(x * y, rx * ry)
    assert_matches(-x, FractionPair(0) - rx)
    assert_matches(x.conjugate(), FractionPair(rx.re, -rx.im))
    assert x.norm() == rx.norm() and isinstance(x.norm(), Fraction)
    if y:
        assert_matches(x / y, rx / ry)
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    assert x.sort_key() == (rx.re, rx.im)


@given(wide_scalars, real_operands)
def test_mixed_operands_on_both_sides_match_oracle(x, c):
    rx, rc = FractionPair.of(x), FractionPair(c)
    for z, ref in [(x + c, rx + rc), (c + x, rc + rx), (x - c, rx - rc), (c - x, rc - rx),
                   (x * c, rx * rc), (c * x, rc * rx)]:
        assert_matches(z, ref)
    if c:
        assert_matches(x / c, rx / rc)
    else:
        with pytest.raises(ZeroDivisionError):
            x / c
    if x:
        assert_matches(c / x, rc / rx)
    assert (x == c) == (rx.re == rc.re and rx.im == rc.im)


@given(wide_fractions, wide_fractions)
def test_equal_values_have_equal_triples_and_hashes(re, im):
    z = GaussianRational(re, im)
    # the same value reached by other routes
    for w in (parse_scalar(format_scalar(z)), GaussianRational(re) + GaussianRational(0, im),
              (z * 6) / 6, z - GaussianRational(0) + 0, -(-z)):
        assert w == z and w._t == z._t and hash(w) == hash(z)
    assert parse_scalar(format_scalar(z)) == z
    assert_matches(z, FractionPair(re, im))


def test_floats_are_refused():
    z = GaussianRational(1, 2)
    with pytest.raises(TypeError):
        GaussianRational(0.5)
    with pytest.raises(TypeError):
        GaussianRational(1, 0.5)
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__eq__"):
        assert getattr(z, op)(0.5) is NotImplemented
    for fn in (lambda: z + 0.5, lambda: 0.5 * z, lambda: z / 0.5, lambda: 0.5 - z):
        with pytest.raises(TypeError):
            fn()


def test_instances_are_immutable():
    z = GaussianRational(1, 2)
    for name in ("re", "im", "_t", "other"):
        with pytest.raises(AttributeError):
            setattr(z, name, 3)
    assert z._t == (1, 2, 1)


def test_repr_and_str_are_unchanged():
    z = GaussianRational(Fraction(-4, 6), Fraction(3, 4))
    assert z._t == (-8, 9, 12)
    assert repr(z) == "GaussianRational(Fraction(-2, 3), Fraction(3, 4))"
    assert str(z) == "-2/3+3/4i"
    assert repr(GaussianRational(2)) == "GaussianRational(Fraction(2, 1), Fraction(0, 1))"
    assert str(GaussianRational(0, -1)) == "-i"
