"""Exact scalars over Q(i).

Every coefficient in this package is a Gaussian rational (a + bi)/d,
held as one triple of ints with d > 0 and gcd(a, b, d) == 1.  That form
is canonical, so equal values have equal triples, and d is the least
common denominator of the real part a/d and the imaginary part b/d.
Each operation does its arithmetic on the ints and one gcd, none when
d == 1.  Only this module reads the triple.  The rest of the package
turns Gaussian rationals into Gaussian integers with `integer_form`,
(re, im) int pairs over their least common denominator, which is the one
such conversion, and reads a sign off `re_num` or `im_num`.  `fractions`
is imported only where a Fraction goes out or comes in: the views `re`,
`im`, `norm` and `sort_key` (and `repr`, which shows them), and a
constructor or operand that is not an int.  The package
itself orders values by `value_key`, on ints, so no command but
`torus-solve` loads it.  The text format used in all JSON interchange
is::

    <gauss> ::= <rat> | [<rat>] <sign> [<rat>] "i" | [<rat>] "i"
    <rat>   ::= ["-"] int ["/" posint]

so ``2``, ``1/2+3/4i``, ``-i``, ``3i`` all parse.  Formatting always emits
the canonical spelling (no leading ``+``, units written ``i``/``-i``,
zero written ``0``), and ``parse(format(x)) == x`` exactly.
"""

from __future__ import annotations

import json
from math import gcd, lcm


class InputError(ValueError):
    """Base of the five input-error families: ScalarParseError, AlgebraError,
    NonSplitError, NonHermitianError and TorusError; raised bare at a search
    limit.  The command line reports exactly these as E_VALIDATION, exit 2."""


class ScalarParseError(InputError):
    """Malformed scalar text; ``offset`` is the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


def _fraction(n: int, d: int):
    from fractions import Fraction

    return Fraction(n, d)


def _ratio(x):
    """(numerator, denominator) of an int or a Fraction."""
    if isinstance(x, int):
        return int(x), 1
    from fractions import Fraction

    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class GaussianRational:
    """A number a + bi with exact rational a and b.

    Instances are immutable and hashable; arithmetic accepts plain ints
    and Fractions on either side.  Division by zero raises
    ZeroDivisionError.  The value is the slot `_t`, the canonical triple
    (a, b, d) of the module docstring, which only this module reads.
    """

    __slots__ = ("_t",)

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            _set(self, (re, im, 1))
            return
        rn, rd = _ratio(re)
        imn, imd = _ratio(im)
        # both parts in lowest terms: over their lcm the triple is canonical
        d = rd * imd // gcd(rd, imd)
        _set(self, (rn * (d // rd), imn * (d // imd), d))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- rational views: re, im and norm are Fractions, re_num and im_num ints

    re = property(lambda self: _fraction(self._t[0], self._t[2]))
    im = property(lambda self: _fraction(self._t[1], self._t[2]))
    re_num = property(lambda self: self._t[0] // gcd(self._t[0], self._t[2]))
    im_num = property(lambda self: self._t[1] // gcd(self._t[1], self._t[2]))

    # -- predicates

    def is_zero(self) -> bool:
        return self._t == _ZERO_T

    def is_real(self) -> bool:
        return self._t[1] == 0

    def __bool__(self) -> bool:
        return self._t != _ZERO_T

    # -- arithmetic: each result takes one gcd, none over d == 1

    def _plus(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a, b, d = self._t
        oa, ob, od = other._t
        if d == od:
            a += oa
            b += ob
            if d == 1:
                return _make((a, b, 1))
        else:
            a = a * od + oa * d
            b = b * od + ob * d
            d *= od
        g = gcd(a, b, d)
        return _make((a // g, b // g, d // g))

    # `_plus` is the unpatched name that __sub__ and __rsub__ call, so a
    # wrapper installed on __add__ counts each subtraction once
    __add__ = __radd__ = _plus

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        oa, ob, od = other._t
        return self._plus(_make((-oa, -ob, od)))

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return (-self)._plus(o)

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a, b, d = self._t
        oa, ob, od = other._t
        a, b = a * oa - b * ob, a * ob + b * oa
        if d == 1 and od == 1:
            return _make((a, b, 1))
        d *= od
        g = gcd(a, b, d)
        return _make((a // g, b // g, d // g))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a, b, d = self._t
        oa, ob, od = other._t
        # (a + bi)/d / ((oa + ob i)/od) = (a + bi)(oa - ob i) od / (d (oa^2 + ob^2))
        n = oa * oa + ob * ob
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return _gauss((a * oa + b * ob) * od, (b * oa - a * ob) * od, d * n)

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        a, b, d = self._t
        return _make((-a, -b, d))

    def conjugate(self) -> "GaussianRational":
        a, b, d = self._t
        return _make((a, -b, d))

    def norm(self):
        """The field norm a^2 + b^2 (a nonnegative rational Fraction)."""
        a, b, d = self._t
        return _fraction(a * a + b * b, d * d)

    # -- comparison / hashing

    def __eq__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self._t == other._t

    def __hash__(self):
        return hash(self._t)

    def sort_key(self):
        """Deterministic total order (real part, then imaginary part)."""
        return (self.re, self.im)

    # -- text format

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


_new = object.__new__
_set = GaussianRational._t.__set__
_ZERO_T = (0, 0, 1)


def _make(t):
    """The GaussianRational of a triple that is already canonical."""
    z = _new(GaussianRational)
    _set(z, t)
    return z


def _gauss(a: int, b: int, d: int) -> GaussianRational:
    """(a + bi)/d for ints with d > 0, reduced to the canonical triple."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    return _make((a, b, d))


def integer_form(values):
    """(den, pairs): the Gaussian rationals `values` as Gaussian integers
    over their least common denominator den, pairs[k] = (re, im) being den
    times values[k] as ints.  den is 1 for no values."""
    ts = [x._t for x in values]
    den = lcm(1, *(d for _, _, d in ts))
    return den, [(a * (den // d), b * (den // d)) for a, b, d in ts]


def value_key(values):
    """A sort key on Gaussian rationals whose denominators divide that of
    some member of `values`, in the order of `GaussianRational.sort_key`
    (real part, then imaginary part) without a Fraction: over the lcm D of
    their denominators, (a + bi)/d compares as the int pair (aD/d, bD/d)."""
    den = lcm(1, *(x._t[2] for x in values))
    return lambda x: (x._t[0] * (den // x._t[2]), x._t[1] * (den // x._t[2]))


def _coerce(x):
    """The GaussianRational of an int or Fraction operand, else None."""
    try:
        n, d = _ratio(x)
    except TypeError:
        return None
    return _make((n, 0, d))


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def as_scalar(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    return GaussianRational(x)


def _format_rat(n: int, d: int) -> str:
    g = gcd(n, d)
    if g == d:
        return str(n // g)
    return f"{n // g}/{d // g}"


def format_scalar(z: GaussianRational) -> str:
    """Canonical text for a Gaussian rational (inverse of parse_scalar)."""
    a, b, d = z._t
    if b == 0:
        return _format_rat(a, d)
    if b == d:
        im_part = "i"
    elif b == -d:
        im_part = "-i"
    elif b > 0:
        im_part = f"{_format_rat(b, d)}i"
    else:
        im_part = f"-{_format_rat(-b, d)}i"
    if a == 0:
        return im_part
    sign = "+" if b > 0 else ""
    return f"{_format_rat(a, d)}{sign}{im_part}"


def _scan_rat(text: str, pos: int):
    """Scan ["-"] int ["/" posint] at pos; return ((num, den), new_pos) with
    den > 0 (not reduced), or None."""
    i = pos
    n = len(text)
    if i < n and text[i] == "-":
        i += 1
    start_digits = i
    while i < n and text[i].isdigit():
        i += 1
    if i == start_digits:
        return None
    num = int(text[pos:i])
    if i < n and text[i] == "/":
        i += 1
        dstart = i
        while i < n and text[i].isdigit():
            i += 1
        if i == dstart:
            raise ScalarParseError("expected denominator digits", i)
        den = int(text[dstart:i])
        if den == 0:
            raise ScalarParseError("zero denominator", dstart)
        return (num, den), i
    return (num, 1), i


def _from_parts(re, im) -> GaussianRational:
    """The Gaussian rational of two (num, den) pairs with den > 0."""
    (rn, rd), (imn, imd) = re, im
    return _gauss(rn * imd, imn * rd, rd * imd)


def json_int(value, name: str, minimum: int | None = None) -> int:
    """An integer field of a JSON input.  Floats and booleans are refused,
    not truncated, with a plain ValueError that the loader reports as
    malformed JSON."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {json.dumps(value)}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return value


def parse_scalar(text: str) -> GaussianRational:
    """Parse the scalar grammar; raises ScalarParseError with a byte offset."""
    if not isinstance(text, str):
        raise ScalarParseError("scalar text must be a string", 0)
    n = len(text)
    if n == 0:
        raise ScalarParseError("empty scalar", 0)
    first = _scan_rat(text, 0)
    if first is None:
        # no leading rational: allow [sign] [rat] "i"
        value, pos = (0, 1), 0
        missing_i = "expected a rational or 'i'"
    else:
        value, pos = first
        if pos == n:
            return _from_parts(value, (0, 1))
        if text[pos] == "i":
            # pure imaginary written without a sign, e.g. "3i" or "-1/2i"
            if pos + 1 != n:
                raise ScalarParseError("trailing characters after 'i'", pos + 1)
            return _from_parts((0, 1), value)
        if text[pos] not in "+-":
            raise ScalarParseError("unexpected character", pos)
        missing_i = "expected 'i'"
    sign = 1
    if text[pos] in "+-":
        sign = 1 if text[pos] == "+" else -1
        pos += 1
    mag = _scan_rat(text, pos)
    if mag is None:
        magnitude = (1, 1)
    else:
        magnitude, pos = mag
        if magnitude[0] < 0:
            raise ScalarParseError("sign must precede the magnitude", pos)
    if pos >= n or text[pos] != "i":
        raise ScalarParseError(missing_i, pos)
    if pos + 1 != n:
        raise ScalarParseError("trailing characters after 'i'", pos + 1)
    return _from_parts(value, (sign * magnitude[0], magnitude[1]))
