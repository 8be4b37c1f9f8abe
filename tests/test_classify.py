import random

import pytest

from liecoh.algebra import AlgebraError, Subalgebra, parse_span, su2, su3, torus
from liecoh.classify import (
    BctReport,
    BctSample,
    ClassificationReport,
    VERDICT_BCT,
    VERDICT_ELLIPTIC,
    VERDICT_INCONCLUSIVE,
    bct_check,
    characteristic_space,
    classify_structure,
    levi_form,
)
from liecoh.linalg import ExactMatrix, hermitian_inertia, rank_kernel, rref, vec_dot
from liecoh.scalars import GaussianRational as Q

from property_suites import _algebra_subalgebra_cases


def su3_vectors():
    L1 = [Q(0)] * 8
    L1[2], L1[3] = Q(1), Q(0, -1)
    L2 = [Q(0)] * 8
    L2[4], L2[5] = Q(1), Q(0, -1)
    L3 = [Q(0)] * 8
    L3[6], L3[7] = Q(1), Q(0, -1)
    return L1, L2, L3


# -- classification -----------------------------------------------------------


def test_su2_cr_line():
    g = su2()
    r = classify_structure(g, parse_span("span{X-iY}", g))
    assert r.cr and not r.elliptic and not r.complex_structure and not r.essentially_real


def test_su2_elliptic():
    g = su2()
    r = classify_structure(g, parse_span("span{T, X-iY}", g))
    assert r.elliptic and not r.complex_structure and not r.cr


def test_full_algebra_essentially_real_elliptic():
    g = su2()
    r = classify_structure(g, Subalgebra.full(g))
    assert r.essentially_real and r.elliptic and not r.cr


def test_torus_complex_structure():
    g = torus(2)
    r = classify_structure(g, parse_span("span{D1-iD2}", g))
    assert r.complex_structure and r.elliptic and r.cr


def test_flag_implications():
    # complex => elliptic and cr, on a batch of random subspaces
    rng = random.Random(3)
    g = su3()
    for _ in range(30):
        k = rng.randint(0, 4)
        vecs = [
            [Q(rng.randint(-1, 1), rng.randint(-1, 1)) for _ in range(8)] for _ in range(k)
        ]
        r = classify_structure(g, Subalgebra.span(g, vecs))
        if r.complex_structure:
            assert r.elliptic and r.cr
        assert r.essentially_real == (r.dim_h == r.dim_intersection)
        assert r.elliptic == (r.dim_sum == 8)


# -- characteristic space -----------------------------------------------------


def test_characteristic_space_elliptic_empty():
    g = su2()
    assert characteristic_space(g, parse_span("span{T, X-iY}", g)) == []


def test_characteristic_space_cr_line():
    g = su2()
    cov = characteristic_space(g, parse_span("span{X-iY}", g))
    assert len(cov) == 1
    assert cov[0] == [Q(1), Q(0), Q(0)]  # the covector dual to T


def test_characteristic_space_torus_complex():
    g = torus(2)
    assert characteristic_space(g, parse_span("span{D1-iD2}", g)) == []


# -- Levi form ----------------------------------------------------------------


def test_levi_su2_cr_is_two():
    # [L, conj L] = 4iT, so (1/2i) tau([L, conj L]) = 2
    g = su2()
    h = parse_span("span{X-iY}", g)
    tau = [Q(1), Q(0), Q(0)]
    assert levi_form(g, h, tau).row_list() == [[Q(2)]]


@pytest.mark.parametrize("a,b", [(0, 1), (1, 1), (2, -3)])
def test_levi_su3_family(a, b):
    # h' = span{L1, L2, L3, U = aT1 + bT2}; at xi = -b tau1 + a tau2 the form
    # is diag(0, -2b, a-b, a+b) on h's echelon basis (a multiple of U, L1,
    # L2, L3): U brackets to zero with conj(U) and into root spaces with
    # each conj(L_j)
    g = su3()
    L1, L2, L3 = su3_vectors()
    U = [Q(0)] * 8
    U[0], U[1] = Q(a), Q(b)
    h = Subalgebra.span(g, [L1, L2, L3, U])
    assert h.is_subalgebra() is None
    assert h.vectors()[1:] == [L1, L2, L3]
    xi = [Q(0)] * 8
    xi[0], xi[1] = Q(-b), Q(a)
    expected = [Q(0), Q(-2 * b), Q(a - b), Q(a + b)]
    assert levi_form(g, h, xi) == ExactMatrix.from_rows(
        [[expected[i] if i == j else Q(0) for j in range(4)] for i in range(4)]
    )


def test_levi_su3_inertia_at_0_1():
    g = su3()
    L1, L2, L3 = su3_vectors()
    U = [Q(0)] * 8
    U[1] = Q(1)
    h = Subalgebra.span(g, [L1, L2, L3, U])
    xi = [Q(0)] * 8
    xi[0] = Q(-1)
    assert hermitian_inertia(levi_form(g, h, xi)).as_tuple() == (1, 2, 1)


def test_levi_scales_linearly():
    g = su2()
    h = parse_span("span{X-iY}", g)
    one = levi_form(g, h, [Q(1), Q(0), Q(0)])
    two = levi_form(g, h, [Q(2), Q(0), Q(0)])
    assert two == one.scale(Q(2))


def test_levi_is_additive_in_xi():
    # the su3 CR structure has characteristic dimension 2: L(xi1 + 2 xi2)
    # = L(xi1) + 2 L(xi2) on its two characteristic basis covectors
    g = su3()
    h = Subalgebra.span(g, list(su3_vectors()))
    xi1, xi2 = characteristic_space(g, h)
    combined = levi_form(g, h, [x + Q(2) * y for x, y in zip(xi1, xi2)])
    assert combined == levi_form(g, h, xi1) + levi_form(g, h, xi2).scale(2)
    assert combined != levi_form(g, h, xi1)


def test_levi_is_exactly_hermitian():
    g = su3()
    L1, L2, L3 = su3_vectors()
    h = Subalgebra.span(g, [L1, L2, L3])
    cov = characteristic_space(g, h)
    for xi in cov:
        m = levi_form(g, h, xi)
        assert m == m.conj_transpose()


def test_levi_rejects_non_characteristic():
    g = su2()
    h = parse_span("span{X-iY}", g)
    with pytest.raises(AlgebraError, match="^covector does not annihilate the subalgebra$"):
        levi_form(g, h, [Q(0), Q(1), Q(0)])  # does not annihilate L
    with pytest.raises(AlgebraError, match="^characteristic covector must be nonzero$"):
        levi_form(g, h, [Q(0), Q(0), Q(0)])
    with pytest.raises(AlgebraError, match="^characteristic covectors are real$"):
        levi_form(g, h, [Q(0, 1), Q(0), Q(0)])  # not real


def test_inertia_swaps_under_negation():
    g = su3()
    L1, L2, L3 = su3_vectors()
    U = [Q(0)] * 8
    U[1] = Q(1)
    h = Subalgebra.span(g, [L1, L2, L3, U])
    xi = [Q(0)] * 8
    xi[0] = Q(-1)
    plus = hermitian_inertia(levi_form(g, h, xi))
    minus = hermitian_inertia(levi_form(g, h, [-x for x in xi]))
    assert minus.as_tuple() == plus.swapped().as_tuple()


# -- hypocomplexity test ------------------------------------------------------


def test_bct_elliptic():
    g = su2()
    assert bct_check(g, parse_span("span{T, X-iY}", g)).verdict == VERDICT_ELLIPTIC


def test_bct_su3_mixed_signature():
    g = su3()
    L1, L2, L3 = su3_vectors()
    U = [Q(0)] * 8
    U[1] = Q(1)
    h = Subalgebra.span(g, [L1, L2, L3, U])
    report = bct_check(g, h)
    assert report.verdict == VERDICT_BCT
    assert report.characteristic_dim == 1
    assert all(s.inertia.is_mixed() for s in report.samples)


def test_bct_su2_cr_inconclusive_definite():
    g = su2()
    report = bct_check(g, parse_span("span{X-iY}", g))
    assert report.verdict == VERDICT_INCONCLUSIVE
    inertias = {s.coeffs: s.inertia.as_tuple() for s in report.samples}
    assert inertias[(1,)] == (1, 0, 0)
    assert inertias[(-1,)] == (0, 1, 0)


def test_bct_high_dimensional_never_positive():
    # an abelian algebra: every Levi form vanishes, characteristic space is
    # large; sampling must stay inconclusive
    g = torus(3)
    h = parse_span("span{D1}", g)
    report = bct_check(g, h)
    assert report.verdict == VERDICT_INCONCLUSIVE
    assert report.characteristic_dim == 2  # duals of D2 and D3
    assert all(s.inertia.as_tuple() == (0, 0, 1) for s in report.samples)
    # +/- each characteristic basis covector, sorted by coefficients
    assert [s.coeffs for s in report.samples] == [(-1, 0), (0, -1), (0, 1), (1, 0)]


def test_bct_samples_annihilate_h():
    g = torus(3)
    h = parse_span("span{D1+2D2}", g)
    report = bct_check(g, h)
    for s in report.samples:
        assert vec_dot(list(s.covector), h.vectors()[0]).is_zero()


# -- oracles: the subspace-algebra classification and per-sample Levi forms ---
#
# The library reads the flags and the characteristic space off one real
# matrix [Re v; Im v] and forms one Levi matrix per characteristic basis
# covector, reading the inertia at its negative as the swapped one.  The
# oracles keep the construction it replaced: conj, sum_with and intersect
# as subspaces, and a Levi form built from brackets at every sample,
# +/- each characteristic basis covector.


def reference_classification(g, h):
    """(ClassificationReport, characteristic space) from h-bar, h + h-bar
    and h cap h-bar built as subspaces."""
    hbar = h.conj()
    total = h.sum_with(hbar)
    inter = h.intersect(hbar)
    n = g.dim
    elliptic = total.dim == n
    cr = inter.dim == 0
    report = ClassificationReport(
        elliptic=elliptic,
        complex_structure=elliptic and cr,
        cr=cr,
        essentially_real=h == hbar,
        dim_h=h.dim,
        dim_conj=hbar.dim,
        dim_sum=total.dim,
        dim_intersection=inter.dim,
        ambient_dim=n,
    )
    if total.dim == n:
        return report, []
    rows = []
    for v in total.vectors():
        rows.append([x.re for x in v])
        rows.append([x.im for x in v])
    if not rows:
        return report, ExactMatrix.identity(n).row_list()
    _, kernel = rank_kernel(ExactMatrix.from_rows(rows))
    canon, _ = rref(ExactMatrix.from_rows(kernel))
    return report, canon.row_list()


def reference_bct(g, h):
    """JSON of the hypocomplexity test with the Levi form built from
    brackets at every sample."""
    _, char = reference_classification(g, h)
    d = len(char)

    def sample(coeffs):
        cov = [sum((c * xi[i] for c, xi in zip(coeffs, char)), Q(0)) for i in range(g.dim)]
        return BctSample(tuple(coeffs), tuple(cov), hermitian_inertia(levi_form(g, h, cov)))

    units = [tuple(sign * int(i == j) for i in range(d)) for j in range(d) for sign in (1, -1)]
    samples = sorted((sample(c) for c in units), key=lambda s: s.coeffs)
    if d == 0:
        verdict = VERDICT_ELLIPTIC
        note = "characteristic set is zero: structure is elliptic, hence hypocomplex"
    elif d == 1:
        if all(s.inertia.is_mixed() for s in samples):
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
    else:
        verdict = VERDICT_INCONCLUSIVE
        note = (
            "characteristic space has dimension >= 2: inertia evidence at "
            "+/- each characteristic basis covector only; a universal verdict "
            "is not claimed from sampling"
        )
    return BctReport(verdict, tuple(map(tuple, char)), (), tuple(samples), (note,)).to_json_dict()


def _oracle_cases():
    """Seeded random subspaces (some vectors real, some paired with their
    conjugates), h = 0, a mixed-signature and two complex structures, and
    nilpotent / solvable pairs of the property suites."""
    rng = random.Random(1111)
    cases = []
    for g in (su2(), su3(), torus(3), torus(4)):
        cases.append((g, Subalgebra.span(g, [])))  # h = 0: R has no rows
        for _ in range(10):
            vecs = []
            for _ in range(rng.randint(1, g.dim // 2 + 1)):
                im = (lambda: 0) if rng.random() < 0.3 else (lambda: rng.randint(-1, 1))
                v = [Q(rng.randint(-1, 1), im()) for _ in range(g.dim)]
                vecs.append(v)
                if rng.random() < 0.3:
                    vecs.append([x.conjugate() for x in v])
            cases.append((g, Subalgebra.span(g, vecs)))
    g = su3()
    U = [Q(0)] * 8
    U[1] = Q(1)
    cases.append((g, Subalgebra.span(g, [*su3_vectors(), U])))
    cases.append((g, parse_span("span{T1+iT2, X1-iY1, X2-iY2, X3+iY3}", g)))
    cases.append((torus(4), parse_span("span{D1-iD2, D3-iD4}", torus(4))))
    pairs = _algebra_subalgebra_cases(random.Random(1211))
    cases.extend(next(pairs) for _ in range(16))
    return cases


def test_classification_matches_subspace_oracle():
    flags = set()
    for g, h in _oracle_cases():
        report, char = reference_classification(g, h)
        assert classify_structure(g, h).to_json_dict() == report.to_json_dict()
        assert characteristic_space(g, h) == char
        flags.update(k for k, v in report.to_json_dict()["flags"].items() if v)
    assert flags == {"elliptic", "complex", "cr", "essentially_real"}


def test_bct_matches_per_sample_levi_oracle():
    seen = set()
    for g, h in _oracle_cases():
        _, char = reference_classification(g, h)
        report = bct_check(g, h)
        assert report.to_json_dict() == reference_bct(g, h)
        assert [list(xi) for xi in report.characteristic_space] == char
        assert list(report.levi_forms) == [levi_form(g, h, xi) for xi in char]
        seen.add((report.verdict, min(report.characteristic_dim, 2)))
    assert {(VERDICT_ELLIPTIC, 0), (VERDICT_BCT, 1), (VERDICT_INCONCLUSIVE, 1),
            (VERDICT_INCONCLUSIVE, 2)} <= seen
