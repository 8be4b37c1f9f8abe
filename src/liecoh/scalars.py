"""Exact scalars over Q(i).

Every coefficient in this package is a Gaussian rational a + bi with
rational a, b kept in lowest terms.  The text format used in all JSON
interchange is::

    <gauss> ::= <rat> | [<rat>] <sign> [<rat>] "i" | [<rat>] "i"
    <rat>   ::= ["-"] int ["/" posint]

so ``2``, ``1/2+3/4i``, ``-i``, ``3i`` all parse.  Formatting always emits
the canonical spelling (no leading ``+``, units written ``i``/``-i``,
zero written ``0``), and ``parse(format(x)) == x`` exactly.
"""

from __future__ import annotations

import json
from fractions import Fraction


class InputError(ValueError):
    """Base of the five input-error families: ScalarParseError, AlgebraError,
    NonSplitError, NonHermitianError and TorusError; raised bare at a search
    limit.  The command line reports exactly these as E_VALIDATION, exit 2."""


class ScalarParseError(InputError):
    """Malformed scalar text; ``offset`` is the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class GaussianRational:
    """A number a + bi with exact rational a and b.

    Instances are immutable and hashable; arithmetic accepts plain ints
    and Fractions on either side.  Division by zero raises
    ZeroDivisionError.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- canonical integer views (denominators always positive, lowest terms)

    @property
    def re_num(self) -> int:
        return self.re.numerator

    @property
    def re_den(self) -> int:
        return self.re.denominator

    @property
    def im_num(self) -> int:
        return self.im.numerator

    @property
    def im_den(self) -> int:
        return self.im.denominator

    # -- predicates

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def is_gaussian_integer(self) -> bool:
        return self.re.denominator == 1 and self.im.denominator == 1

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        """The field norm a^2 + b^2 (a nonnegative rational)."""
        return self.re * self.re + self.im * self.im

    # -- comparison / hashing

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def sort_key(self):
        """Deterministic total order (real part, then imaginary part)."""
        return (self.re, self.im)

    # -- text format

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def _format_rat(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def format_scalar(z: GaussianRational) -> str:
    """Canonical text for a Gaussian rational (inverse of parse_scalar)."""
    re, im = z.re, z.im
    if im == 0:
        return _format_rat(re)
    if im == 1:
        im_part = "i"
    elif im == -1:
        im_part = "-i"
    elif im > 0:
        im_part = f"{_format_rat(im)}i"
    else:
        im_part = f"-{_format_rat(-im)}i"
    if re == 0:
        return im_part
    sign = "+" if im > 0 else ""
    return f"{_format_rat(re)}{sign}{im_part}"


def _scan_rat(text: str, pos: int):
    """Scan ["-"] int ["/" posint] at pos; return (Fraction, new_pos) or None."""
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
        return Fraction(num, den), i
    return Fraction(num), i


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
    pos = 0
    first = _scan_rat(text, pos)
    if first is not None:
        value, pos = first
        if pos == n:
            return GaussianRational(value)
        c = text[pos]
        if c == "i":
            # pure imaginary written without a sign, e.g. "3i" or "-1/2i"
            if pos + 1 != n:
                raise ScalarParseError("trailing characters after 'i'", pos + 1)
            return GaussianRational(0, value)
        if c in "+-":
            sign = 1 if c == "+" else -1
            pos += 1
            mag = _scan_rat(text, pos)
            if mag is None:
                magnitude = Fraction(1)
            else:
                magnitude, pos = mag
                if magnitude < 0:
                    raise ScalarParseError("sign must precede the magnitude", pos)
            if pos >= n or text[pos] != "i":
                raise ScalarParseError("expected 'i'", pos)
            if pos + 1 != n:
                raise ScalarParseError("trailing characters after 'i'", pos + 1)
            return GaussianRational(value, sign * magnitude)
        raise ScalarParseError("unexpected character", pos)
    # no leading rational: allow [sign] [rat] "i"
    sign = 1
    if text[pos] in "+-":
        sign = 1 if text[pos] == "+" else -1
        pos += 1
    mag = _scan_rat(text, pos)
    if mag is None:
        magnitude = Fraction(1)
    else:
        magnitude, pos = mag
        if magnitude < 0:
            raise ScalarParseError("sign must precede the magnitude", pos)
    if pos >= n or text[pos] != "i":
        raise ScalarParseError("expected a rational or 'i'", pos)
    if pos + 1 != n:
        raise ScalarParseError("trailing characters after 'i'", pos + 1)
    return GaussianRational(0, sign * magnitude)
