"""The two-torus model problem: L = d/dx - mu d/dy on finite Fourier data.

Solving L u = f mode by mode divides by i(xi - mu eta), so everything is
controlled by the small divisors xi - mu eta.  For rational mu the
divisor vanishes on a full lattice line (the degree-(0,1) cohomology is
infinite dimensional, one obstruction per singular mode, and the range
is closed); for irrational mu the distinction between number types is a
limit property, so continued-fraction input yields labeled *evidence*
only: fast-growing quotients certify the defining Liouville inequality
along a tail, bounded quotients certify divisors of quadratic size.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from fractions import Fraction

from .scalars import GaussianRational, InputError, ZERO, format_scalar, json_int, parse_scalar

VERDICT_RATIONAL = "rational"
VERDICT_LIOUVILLE = "liouville_evidence"
VERDICT_DIOPHANTINE = "diophantine_evidence"
VERDICT_INCONCLUSIVE = "inconclusive"


class TorusError(InputError):
    pass


class MuSpec(namedtuple("MuSpec", "kind value quotients", defaults=(None, ()))):
    """The slope mu: an exact rational (kind "rational", `value` a
    Fraction), or partial quotients of a continued fraction standing for
    the opening of an irrational expansion (kind "cf", `quotients`)."""

    __slots__ = ()

    @classmethod
    def rational(cls, value) -> "MuSpec":
        return cls(kind="rational", value=Fraction(value))

    @classmethod
    def from_cf(cls, quotients) -> "MuSpec":
        q = tuple(int(a) for a in quotients)
        if not q:
            raise TorusError("continued fraction needs at least one quotient")
        for a in q[1:]:
            if a < 1:
                raise TorusError("partial quotients a_j must be >= 1 for j >= 1")
        return cls(kind="cf", quotients=q)

    def deepest_convergent(self) -> Fraction:
        if self.kind == "rational":
            return self.value
        ps, qs = convergents(self.quotients)
        return Fraction(ps[-1], qs[-1])

    def describe(self) -> str:
        if self.kind == "rational":
            return str(self.value)
        return "[" + ";".join(
            [str(self.quotients[0]), ",".join(str(a) for a in self.quotients[1:])]
        ) + "]"


def convergents(quotients):
    """Numerators and denominators p_j, q_j of [a0; a1, ...], exactly.

    They satisfy p_{j+1} q_j - p_j q_{j+1} = (-1)^j.
    """
    ps, qs = [], []
    p_prev, q_prev = 1, 0  # virtual index -1
    p_cur, q_cur = quotients[0], 1
    ps.append(p_cur)
    qs.append(q_cur)
    for a in quotients[1:]:
        p_cur, p_prev = a * p_cur + p_prev, p_cur
        q_cur, q_prev = a * q_cur + q_prev, q_cur
        ps.append(p_cur)
        qs.append(q_cur)
    return ps, qs


def rational_to_cf(x: Fraction):
    """Canonical partial quotients of a rational.  Euclid's algorithm
    already ends in a quotient >= 2 when the expansion has length > 1:
    the last step divides num by a proper divisor den < num."""
    quotients = []
    num, den = x.numerator, x.denominator
    while den:
        a, rem = divmod(num, den)
        quotients.append(a)
        num, den = den, rem
    return quotients


# ---------------------------------------------------------------------------
# Fourier data
# ---------------------------------------------------------------------------


class FourierData:
    """Finitely supported Fourier coefficients on Z^2 within |xi|,|eta| <=
    cutoff."""

    def __init__(self, cutoff: int, coefficients: dict | None = None):
        self.cutoff = cutoff
        clean = {}
        for (xi, eta), value in (coefficients or {}).items():
            if abs(xi) > cutoff or abs(eta) > cutoff:
                raise TorusError(f"mode ({xi}, {eta}) exceeds the cutoff {cutoff}")
            if not isinstance(value, GaussianRational):
                value = GaussianRational(value)
            if not value.is_zero():
                clean[(int(xi), int(eta))] = value
        self.coefficients = clean

    def __eq__(self, other):
        if not isinstance(other, FourierData):
            return NotImplemented
        return self.coefficients == other.coefficients

    def to_json_dict(self) -> dict:
        return {
            "cutoff": self.cutoff,
            "coefficients": [
                {"xi": xi, "eta": eta, "value": format_scalar(v)}
                for (xi, eta), v in sorted(self.coefficients.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FourierData":
        try:
            cutoff = json_int(data["cutoff"], "cutoff", minimum=0)
            coeffs = {}
            for item in data.get("coefficients", []):
                key = (json_int(item["xi"], "xi"), json_int(item["eta"], "eta"))
                if key in coeffs:
                    raise TorusError(f"coefficients list the mode (xi, eta) = {key} twice")
                coeffs[key] = parse_scalar(item["value"])
        except InputError:  # a malformed scalar keeps its own message
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise TorusError(f"malformed Fourier JSON: {exc}") from exc
        return cls(cutoff=cutoff, coefficients=coeffs)


LATTICE_LIMIT = 10**5


def singular_lattice(mu: Fraction, bound: int):
    """All integer modes with xi - mu eta = 0 and |xi|, |eta| <= bound,
    ascending; always contains (0, 0).  A negative bound, or one that
    holds more than LATTICE_LIMIT of them, is a TorusError."""
    if bound < 0:
        raise TorusError(f"lattice bound must be non-negative, got {bound}")
    mu = Fraction(mu)
    p, q = mu.numerator, mu.denominator
    kmax = bound // max(abs(p), q)
    if 2 * kmax + 1 > LATTICE_LIMIT:
        raise TorusError(f"singular lattice within bound {bound} has {2 * kmax + 1} points, "
                         f"past the limit of {LATTICE_LIMIT}")
    return [(k * p, k * q) for k in range(-kmax, kmax + 1)]


class DPrimeSolution:
    def __init__(self, solution: FourierData, obstructions: list, mu_used: Fraction,
                 substituted: bool):
        self.solution = solution
        self.obstructions = obstructions
        self.mu_used = mu_used
        self.substituted = substituted

    def to_json_dict(self) -> dict:
        return {
            "solution": self.solution.to_json_dict(),
            "obstructions": [list(m) for m in self.obstructions],
            "mu_used": str(self.mu_used),
            "substituted": self.substituted,
        }


def solve_dprime(mu: MuSpec, f: FourierData) -> DPrimeSolution:
    """Modewise division u^(xi,eta) = f^(xi,eta) / (i (xi - mu eta)).

    Singular modes carrying a nonzero coefficient are returned as
    obstructions; for continued-fraction input mu is replaced by its
    deepest convergent (recorded in `substituted`).  The residual of
    L u - f is exactly zero off the obstruction set.
    """
    mu_eff = mu.deepest_convergent()
    substituted = mu.kind == "cf"
    solution = {}
    obstructions = []
    for (xi, eta), value in sorted(f.coefficients.items()):
        divisor = Fraction(xi) - mu_eff * eta
        if divisor == 0:
            obstructions.append((xi, eta))
            continue
        solution[(xi, eta)] = value / GaussianRational(0, divisor)
    u = FourierData(cutoff=f.cutoff, coefficients=solution)
    residual = apply_operator(mu_eff, u)
    for (xi, eta), value in f.coefficients.items():
        if (xi, eta) in obstructions:
            continue
        if residual.coefficients.get((xi, eta), ZERO) != value:
            raise AssertionError("exact residual check failed")
    return DPrimeSolution(
        solution=u, obstructions=obstructions, mu_used=mu_eff, substituted=substituted
    )


def apply_operator(mu: Fraction, u: FourierData) -> FourierData:
    """L u for L = d/dx - mu d/dy: multiplies each mode by i(xi - mu eta)."""
    mu = Fraction(mu)
    out = {}
    for (xi, eta), value in u.coefficients.items():
        out[(xi, eta)] = value * GaussianRational(0, Fraction(xi) - mu * eta)
    return FourierData(cutoff=u.cutoff, coefficients=out)


# ---------------------------------------------------------------------------
# small-divisor diagnostics
# ---------------------------------------------------------------------------


class DivisorEntry(namedtuple("DivisorEntry", "j p q window_min window_max bound status")):
    """Certified window for |p_j - mu q_j| against the Liouville benchmark
    (p_j^2 + q_j^2)^(-j); `status` is holds / fails / undetermined."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "j": self.j,
            "p": self.p,
            "q": self.q,
            "window": [str(self.window_min), str(self.window_max)],
            "bound": str(self.bound),
            "status": self.status,
        }


class DivisorReport:
    def __init__(self, verdict: str, quotients: tuple, convergents: list, depth: int,
                 entries: list, enclosure: tuple | None = None, tail_start: int | None = None,
                 notes: list | None = None):
        self.verdict = verdict
        self.quotients = quotients
        self.convergents = convergents
        self.depth = depth
        self.entries = entries
        self.enclosure = enclosure
        self.tail_start = tail_start
        self.notes = [] if notes is None else notes

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "quotients": list(self.quotients),
            "convergents": [[p, q] for (p, q) in self.convergents],
            "depth": self.depth,
            "entries": [e.to_json_dict() for e in self.entries],
            "enclosure": [str(self.enclosure[0]), str(self.enclosure[1])]
            if self.enclosure
            else None,
            "tail_start": self.tail_start,
            "notes": list(self.notes),
        }


def cf_enclosure(quotients):
    """Open interval containing every infinite expansion opening with these
    quotients: endpoints are the deepest convergent and the mediant with
    the previous one."""
    ps, qs = convergents(quotients)
    if len(ps) < 2:
        return Fraction(ps[0] - 1), Fraction(ps[0] + 1), ps, qs
    last = Fraction(ps[-1], qs[-1])
    mediant = Fraction(ps[-1] + ps[-2], qs[-1] + qs[-2])
    lo, hi = (last, mediant) if last < mediant else (mediant, last)
    return lo, hi, ps, qs


def liouville_report(mu: MuSpec, depth: int) -> DivisorReport:
    """Small-divisor diagnostics along the convergents.

    For rational input the answer is exact: the singular lattice is
    infinite, the degree-(0,1) cohomology is infinite dimensional and the
    range of the operator is closed.  For continued-fraction input the
    inequality |p_j - mu q_j| <= (p_j^2 + q_j^2)^(-j) is tested with an
    exact interval enclosure of mu; a certified tail gives
    liouville_evidence, while a_{j+1} <= q_j for every computed j
    certifies divisors of quadratic size (bounded-quotient behaviour,
    diophantine_evidence).  Evidence only: finite data cannot decide the
    limit property.  A depth whose last bound has a denominator of more
    digits than the interpreter converts to a string is a TorusError.
    """
    if depth < 1:
        raise TorusError("depth must be at least 1")
    if mu.kind == "rational":
        quotients = tuple(rational_to_cf(mu.value))
        ps, qs = convergents(quotients)
        return DivisorReport(
            verdict=VERDICT_RATIONAL,
            quotients=quotients,
            convergents=list(zip(ps, qs)),
            depth=min(depth, len(quotients) - 1),
            entries=[],
            enclosure=None,
            notes=[
                "rational slope: the singular lattice is an infinite line, the "
                "degree-(0,1) cohomology is infinite dimensional and the range "
                "of the operator is closed",
            ],
        )
    if len(mu.quotients) < depth + 1:
        raise TorusError(
            f"need at least depth+1 = {depth + 1} quotients, got {len(mu.quotients)}"
        )
    lo, hi, ps, qs = cf_enclosure(mu.quotients)
    # the report prints every bound, and the bounds shrink with j, so the
    # last has the longest denominator; CPython converts no int of more
    # digits than its limit to a string (0: no limit, as before 3.10.7)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and (ps[depth] ** 2 + qs[depth] ** 2) ** depth >= 10**limit:
        raise TorusError(f"depth {depth} is too deep to print: the bound (p_j^2+q_j^2)^-j at "
                         f"j = {depth} has more than {limit} digits")
    entries = []
    holds = {}
    for j in range(1, depth + 1):
        p, q = ps[j], qs[j]
        # e(mu) = p - mu q is linear and decreasing in mu
        e_at_lo = Fraction(p) - lo * q
        e_at_hi = Fraction(p) - hi * q
        values = sorted((e_at_lo, e_at_hi))
        if values[0] < 0 < values[1]:
            window_min = Fraction(0)
        else:
            window_min = min(abs(values[0]), abs(values[1]))
        window_max = max(abs(values[0]), abs(values[1]))
        bound = Fraction(1, (p * p + q * q) ** j)
        if window_max <= bound:
            status = "holds"
        elif window_min > bound:
            status = "fails"
        else:
            status = "undetermined"
        holds[j] = status == "holds"
        entries.append(
            DivisorEntry(
                j=j, p=p, q=q, window_min=window_min, window_max=window_max,
                bound=bound, status=status,
            )
        )
    tail_start = None
    for j0 in range(1, depth + 1):
        if all(holds[j] for j in range(j0, depth + 1)):
            tail_start = j0
            break
    # the j-th divisor is ~ 1/q_{j+1}, so it has quadratic size exactly when
    # the next quotient is small: certify a_{j+1} <= q_j where a_{j+1} is known
    last = min(depth, len(mu.quotients) - 2)
    if tail_start is not None:
        verdict = VERDICT_LIOUVILLE
        note = (f"certified |p_j - mu q_j| <= (p_j^2+q_j^2)^-j for all computed "
                f"j >= {tail_start}; evidence only, not a proof")
    elif last >= 1 and all(mu.quotients[j + 1] <= qs[j] for j in range(1, last + 1)):
        verdict = VERDICT_DIOPHANTINE
        note = ("partial quotients satisfy a_{j+1} <= q_j for every computed j, "
                "certifying divisors of size ~ 1/q^2 (bounded-quotient "
                "behaviour); evidence only, not a proof")
    else:
        verdict = VERDICT_INCONCLUSIVE
        note = "neither the Liouville tail nor the bounded-quotient certificate applies"
    return DivisorReport(
        verdict=verdict,
        quotients=mu.quotients,
        convergents=list(zip(ps, qs)),
        depth=depth,
        entries=entries,
        enclosure=(lo, hi),
        tail_start=tail_start,
        notes=[note],
    )
