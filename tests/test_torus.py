import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

from liecoh.scalars import GaussianRational as Q
from liecoh.torus import (
    FourierData,
    InsufficientDepthError,
    LATTICE_LIMIT,
    MuSpec,
    TorusError,
    VERDICT_DIOPHANTINE,
    VERDICT_INCONCLUSIVE,
    VERDICT_LIOUVILLE,
    VERDICT_RATIONAL,
    apply_operator,
    cf_enclosure,
    convergents,
    liouville_report,
    rational_to_cf,
    singular_lattice,
    solve_dprime,
)


def liouville_style_quotients(pairs: int):
    """a0 = 1, a1 = 2, then a_{j+1} = q_j^(2j) for j = 1..pairs: quotients
    that certify the fast-approximation inequality along a tail."""
    quotients = [1, 2]
    for j in range(1, pairs + 1):
        _, qs = convergents(quotients)
        quotients.append(qs[j] ** (2 * j))
    return quotients


# -- singular lattice -----------------------------------------------------------


def test_lattice_two_thirds():
    assert singular_lattice(Fraction(2, 3), 10) == [
        (-6, -9), (-4, -6), (-2, -3), (0, 0), (2, 3), (4, 6), (6, 9),
    ]


def test_lattice_zero_slope():
    assert singular_lattice(Fraction(0), 2) == [(0, -2), (0, -1), (0, 0), (0, 1), (0, 2)]


def test_lattice_bound_zero():
    assert singular_lattice(Fraction(2, 3), 0) == [(0, 0)]


def test_lattice_negative_bound_is_rejected():
    with pytest.raises(TorusError, match="lattice bound must be non-negative, got -1"):
        singular_lattice(Fraction(2, 3), -1)


def test_lattice_negative_slope():
    assert singular_lattice(Fraction(-1, 2), 4) == [(2, -4), (1, -2), (0, 0), (-1, 2), (-2, 4)]


def test_lattice_past_the_limit_is_refused_before_it_is_built():
    # slope 0 has one mode per eta: bound 50000 holds 100001 modes, one past
    # the limit, and the refusal comes before any of them is listed
    assert LATTICE_LIMIT == 10**5
    tracemalloc.start()
    try:
        with pytest.raises(TorusError) as refused:
            singular_lattice(Fraction(0), LATTICE_LIMIT // 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == ("singular lattice within bound 50000 has 100001 points, "
                                  "past the limit of 100000")
    assert peak < 64 * 1024


# -- modewise solve ---------------------------------------------------------------


def test_solve_single_mode():
    mu = MuSpec.rational(Fraction(2, 3))
    f = FourierData(cutoff=3, coefficients={(1, 1): Q(1)})
    result = solve_dprime(mu, f)
    # xi - mu eta = 1/3 and 1 / (i/3) = -3i
    assert result.solution.coefficients == {(1, 1): Q(0, -3)}
    assert result.obstructions == []
    assert not result.substituted


def test_solve_obstructed_mode():
    mu = MuSpec.rational(Fraction(2, 3))
    f = FourierData(cutoff=3, coefficients={(2, 3): Q(1)})
    result = solve_dprime(mu, f)
    assert result.solution.coefficients == {}
    assert result.obstructions == [(2, 3)]


def test_solve_zero_rhs():
    mu = MuSpec.rational(Fraction(2, 3))
    result = solve_dprime(mu, FourierData(cutoff=3))
    assert result.solution.coefficients == {} and result.obstructions == []


def test_solve_mean_value_obstruction():
    mu = MuSpec.rational(Fraction(2, 3))
    f = FourierData(cutoff=1, coefficients={(0, 0): Q(5)})
    assert solve_dprime(mu, f).obstructions == [(0, 0)]


def test_residual_vanishes_off_obstructions():
    rng = random.Random(17)
    for _ in range(25):
        mu = MuSpec.rational(Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
        coeffs = {}
        for _ in range(rng.randint(0, 6)):
            mode = (rng.randint(-4, 4), rng.randint(-4, 4))
            coeffs[mode] = Q(rng.randint(-3, 3), rng.randint(-3, 3))
        f = FourierData(cutoff=4, coefficients=coeffs)
        result = solve_dprime(mu, f)
        lhs = apply_operator(mu.value, result.solution)
        for mode, value in f.coefficients.items():
            if mode in result.obstructions:
                assert mode not in lhs.coefficients
            else:
                assert lhs.coefficients.get(mode, Q(0)) == value
        # the obstruction set is exactly the singular modes in the support
        singular = set(singular_lattice(mu.value, f.cutoff))
        assert set(result.obstructions) == singular & set(f.coefficients)


def test_solve_cf_substitutes_deepest_convergent():
    mu = MuSpec.from_cf([0, 1, 1, 1])
    f = FourierData(cutoff=3, coefficients={(1, 1): Q(1)})
    result = solve_dprime(mu, f)
    assert result.substituted
    assert result.mu_used == Fraction(2, 3)  # [0;1,1,1] = 2/3


def test_fourier_json_roundtrip():
    f = FourierData(cutoff=3, coefficients={(1, -2): Q(1, 2), (0, 0): Q(3)})
    back = FourierData.from_json_dict(f.to_json_dict())
    assert back == f and back.cutoff == 3


def test_fourier_cutoff_enforced():
    with pytest.raises(TorusError):
        FourierData(cutoff=1, coefficients={(2, 0): Q(1)})


@pytest.mark.parametrize(
    "data, message",
    [
        ({"cutoff": -1, "coefficients": []}, "cutoff must be at least 0, got -1"),
        ({"cutoff": 2.9}, "cutoff must be an integer, got 2.9"),
        ({"cutoff": True}, "cutoff must be an integer, got true"),
        ({"cutoff": "3"}, 'cutoff must be an integer, got "3"'),
        ({"cutoff": 3, "coefficients": [{"xi": 1.5, "eta": 0, "value": "1"}]},
         "xi must be an integer, got 1.5"),
        ({"cutoff": 3, "coefficients": [{"xi": 1, "eta": False, "value": "1"}]},
         "eta must be an integer, got false"),
    ],
)
def test_fourier_json_integer_fields_are_not_truncated(data, message):
    with pytest.raises(TorusError, match="^malformed Fourier JSON: " + message):
        FourierData.from_json_dict(data)


# -- continued fractions ------------------------------------------------------------


def test_convergents_golden():
    ps, qs = convergents([1] * 8)
    assert ps[:6] == [1, 2, 3, 5, 8, 13]
    assert qs[:6] == [1, 1, 2, 3, 5, 8]


def test_determinant_identity():
    rng = random.Random(23)
    for _ in range(30):
        quotients = [rng.randint(-3, 3)] + [rng.randint(1, 9) for _ in range(rng.randint(1, 10))]
        ps, qs = convergents(quotients)
        for j in range(len(ps) - 1):
            assert ps[j + 1] * qs[j] - ps[j] * qs[j + 1] == (-1) ** j


def test_rational_to_cf_is_canonical():
    assert rational_to_cf(Fraction(2, 3)) == [0, 1, 2]
    assert rational_to_cf(Fraction(7, 2)) == [3, 2]
    assert rational_to_cf(Fraction(-7, 2)) == [-4, 2]
    assert rational_to_cf(Fraction(5)) == [5]
    for num in range(-12, 13):
        for den in range(1, 9):
            x = Fraction(num, den)
            cf = rational_to_cf(x)
            ps, qs = convergents(cf)
            assert Fraction(ps[-1], qs[-1]) == x
            if len(cf) > 1:
                assert cf[-1] >= 2


def test_enclosure_contains_extensions():
    quotients = [1, 2, 3]
    lo, hi, _, _ = cf_enclosure(quotients)
    for extra in (1, 2, 7):
        ps, qs = convergents(quotients + [extra])
        value = Fraction(ps[-1], qs[-1])
        assert lo <= value <= hi


def test_cf_quotients_validated():
    with pytest.raises(TorusError):
        MuSpec.from_cf([1, 0, 2])
    with pytest.raises(TorusError):
        MuSpec.from_cf([])


# -- small-divisor verdicts ------------------------------------------------------------


def test_golden_ratio_is_diophantine_evidence():
    report = liouville_report(MuSpec.from_cf([1] * 12), 8)
    assert report.verdict == VERDICT_DIOPHANTINE
    assert all(e.status == "fails" for e in report.entries)


def test_sqrt_style_bounded_quotients():
    report = liouville_report(MuSpec.from_cf([1] + [2] * 10), 6)
    assert report.verdict == VERDICT_DIOPHANTINE


def test_constructed_liouville_sequence():
    quotients = liouville_style_quotients(4)  # a0..a5
    report = liouville_report(MuSpec.from_cf(quotients), 4)
    assert report.verdict == VERDICT_LIOUVILLE
    assert report.tail_start is not None and report.tail_start <= 4
    for e in report.entries:
        if e.j >= report.tail_start:
            assert e.status == "holds"


def test_rational_verdict():
    report = liouville_report(MuSpec.rational(Fraction(2, 3)), 3)
    assert report.verdict == VERDICT_RATIONAL
    assert report.quotients == (0, 1, 2)
    assert any("closed" in note for note in report.notes)


def test_middling_growth_is_inconclusive():
    # one huge quotient early, tame afterwards: no Liouville tail, and the
    # bounded-quotient certificate fails as well
    report = liouville_report(MuSpec.from_cf([0, 1, 10**6, 1, 1, 1, 1]), 5)
    assert report.verdict == VERDICT_INCONCLUSIVE


def test_insufficient_depth():
    with pytest.raises(InsufficientDepthError):
        liouville_report(MuSpec.from_cf([1, 1, 1]), 5)
    with pytest.raises(InsufficientDepthError):
        liouville_report(MuSpec.from_cf([1, 1, 1]), 0)


def test_a_depth_whose_bound_cannot_print_is_refused():
    # for all-ones quotients the bound at depth j has about 0.42 j^2 digits:
    # 4292 at depth 101, which prints, and 4377 at depth 102
    mu = MuSpec.from_cf([1] * 152)
    last = liouville_report(mu, 101).to_json_dict()["entries"][-1]
    assert len(last["bound"]) == len("1/") + 4292
    for depth in (102, 150):
        with pytest.raises(TorusError) as refused:
            liouville_report(mu, depth)
        assert str(refused.value) == (
            f"depth {depth} is too deep to print: the bound (p_j^2+q_j^2)^-j at j = {depth} "
            "has more than 4300 digits")


def test_the_depth_refusal_follows_the_interpreters_digit_limit():
    # a limit of 640, as PYTHONINTMAXSTRDIGITS=640 sets it: the bound has
    # 615 digits at depth 38 and 647 at depth 39
    mu = MuSpec.from_cf([1] * 50)
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        liouville_report(mu, 38).to_json_dict()
        with pytest.raises(TorusError, match="at j = 39 has more than 640 digits"):
            liouville_report(mu, 39)
    finally:
        sys.set_int_max_str_digits(default)


def test_divisor_windows_strictly_decrease():
    report = liouville_report(MuSpec.from_cf([1] * 14), 10)
    entries = report.entries
    for a, b in zip(entries, entries[1:]):
        assert b.window_max < a.window_min


def test_report_json_shape():
    report = liouville_report(MuSpec.from_cf([1] * 6), 3)
    data = report.to_json_dict()
    assert data["verdict"] == report.verdict
    assert len(data["entries"]) == 3
    assert data["enclosure"] is not None
