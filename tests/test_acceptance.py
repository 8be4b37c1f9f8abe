"""Acceptance suite: one test per criterion, exact assertions, and a
printed pass line for each.

Exact arithmetic everywhere, so every comparison is equality (zero
tolerance); each criterion completes in a few seconds at most.
"""

from fractions import Fraction
from math import comb

from liecoh.algebra import LieAlgebra, Subalgebra, parse_span, su2, su3, torus
from liecoh.classify import (
    VERDICT_BCT,
    VERDICT_INCONCLUSIVE,
    bct_check,
    classify_structure,
    levi_form,
)
from liecoh.cohomology import GModule, bigraded_cohomology, ce_cohomology
from liecoh.decompose import bott_dolbeault, full_assembly
from liecoh.linalg import hermitian_inertia
from liecoh.roots import root_decomposition
from liecoh.scalars import GaussianRational as Q
from liecoh.torus import (
    MuSpec,
    FourierData,
    VERDICT_DIOPHANTINE,
    VERDICT_LIOUVILLE,
    apply_operator,
    convergents,
    liouville_report,
    singular_lattice,
    solve_dprime,
)

from conftest import bracket_coeffs
from property_suites import (
    run_complement_independence,
    run_conj_involution,
    run_dprime_squares_and_euler,
    run_inertia_congruence,
    run_rank_nullity,
)


def announce(number: int, text: str):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def su3_h_prime(a: int, b: int) -> tuple:
    g = su3()
    vectors = []
    for x_idx, y_idx in ((2, 3), (4, 5), (6, 7)):
        v = [Q(0)] * 8
        v[x_idx], v[y_idx] = Q(1), Q(0, -1)
        vectors.append(v)
    u = [Q(0)] * 8
    u[0], u[1] = Q(a), Q(b)
    vectors.append(u)
    return g, Subalgebra.span(g, vectors)


def test_criterion_1_jacobi_validation():
    assert su2().validate() is None
    assert su3().validate() is None
    # a single perturbed constant: [T, X] = 2Y + T makes the (T, X, Y)
    # Jacobi sum equal [T, Y] = -2X, nonzero
    perturbed = LieAlgebra(
        "perturbed-su2",
        ("T", "X", "Y"),
        {(0, 1): {0: 1, 2: 2}, (0, 2): {1: -2}, (1, 2): {0: 2}},
    )
    assert perturbed.validate() == (0, 1, 2)
    # and on the rank-two table: [T1, X1] = 3Y1 instead of 2Y1
    g3 = su3()
    table = {pair: bracket_coeffs(g3, *pair) for pair in g3.bracket_pairs()}
    table[(0, 2)] = {3: 3}
    assert LieAlgebra("perturbed-su3", g3.basis_names, table).validate() is not None
    announce(1, "builtin tables pass Jacobi; perturbed constants rejected with witness")


def test_criterion_2_classification_fixtures():
    g2 = su2()
    assert classify_structure(g2, parse_span("span{X-iY}", g2)).cr
    assert not classify_structure(g2, parse_span("span{X-iY}", g2)).elliptic
    assert classify_structure(g2, parse_span("span{T, X-iY}", g2)).elliptic
    g3 = su3()
    cr = parse_span("span{X1-iY1, X2-iY2, X3-iY3}", g3)
    assert cr.is_subalgebra() is None
    assert classify_structure(g3, cr).cr
    h_pp = parse_span("span{X1-iY1, X2-iY2, X3-iY3, T1, T2}", g3)
    assert classify_structure(g3, h_pp).elliptic
    announce(2, "classification fixtures match the stated structure types")


def test_criterion_3_levi_fixtures():
    g2 = su2()
    h_cr = parse_span("span{X-iY}", g2)
    tau = [Q(1), Q(0), Q(0)]
    assert levi_form(g2, h_cr, tau).matrix.row_list() == [[Q(2)]]
    g3, h_prime = su3_h_prime(0, 1)
    xi = [Q(0)] * 8
    xi[0] = Q(-1)  # -b tau1 + a tau2 at (a, b) = (0, 1)
    inertia = hermitian_inertia(levi_form(g3, h_prime, xi).matrix)
    assert inertia.as_tuple() == (1, 2, 1)
    assert bct_check(g3, h_prime).verdict == VERDICT_BCT
    report = bct_check(g2, h_cr)
    assert report.verdict == VERDICT_INCONCLUSIVE
    assert {s.coeffs: s.inertia.as_tuple() for s in report.samples}[(1,)] == (1, 0, 0)
    announce(3, "Levi matrix [2], inertia (1,2,1) with the mixed-signature verdict, "
                "definite case inconclusive")


def test_criterion_4_root_fixtures():
    g2 = su2()
    rd2 = root_decomposition(g2, parse_span("span{T}", g2))
    assert rd2.roots == ((Q(0, -2),), (Q(0, 2),))
    assert rd2.spaces[(Q(0, 2),)].vectors() == [[Q(0), Q(1), Q(0, -1)]]
    assert rd2.spaces[(Q(0, -2),)].vectors() == [[Q(0), Q(1), Q(0, 1)]]
    g3 = su3()
    rd3 = root_decomposition(g3, parse_span("span{T1, T2}", g3))
    weights = []
    for x_idx, y_idx in ((2, 3), (4, 5), (6, 7)):
        v = [Q(0)] * 8
        v[x_idx], v[y_idx] = Q(1), Q(0, -1)
        weights.append(next(alpha for alpha in rd3.roots if rd3.spaces[alpha].contains(v)))
    matrix_in_units_of_i = [[int(w[row].im) for w in weights] for row in range(2)]
    assert matrix_in_units_of_i == [[2, 1, -1], [0, 3, 3]]
    # bracket grading on all root pairs
    roots = set(rd3.roots)
    zero = (Q(0), Q(0))
    for alpha in rd3.roots:
        for beta in rd3.roots:
            target = tuple(x + y for x, y in zip(alpha, beta))
            for u in rd3.spaces[alpha].vectors():
                for v in rd3.spaces[beta].vectors():
                    w = g3.bracket(u, v)
                    if all(x.is_zero() for x in w):
                        continue
                    if target in roots:
                        assert rd3.spaces[target].contains(w)
                    else:
                        assert target == zero and rd3.zero_space.contains(w)
    announce(4, "root eigenvectors and the weight matrix [[2,1,-1],[0,3,3]]; "
                "bracket grading holds on all pairs")


def test_criterion_5_cohomology_fixtures():
    for r in range(7):
        g = torus(r)
        assert ce_cohomology(g, GModule.trivial(g)).dims == {
            k: comb(r, k) for k in range(r + 1)
        }
    g2 = su2()
    assert ce_cohomology(g2, GModule.trivial(g2)).dims == dict(enumerate([1, 0, 0, 1]))
    h = parse_span("span{T, X-iY}", g2)
    table = bigraded_cohomology(g2, h)
    assert table.row(0) == [1, 1, 0]
    assert table.row(1) == [0, 1, 1]
    t_sub = parse_span("span{T}", g2)
    torus_dims = ce_cohomology(t_sub, GModule.trivial(t_sub)).dims
    for q in range(3):
        assert table.dims.get((0, q), 0) == torus_dims.get(q, 0)
    announce(5, "torus Betti numbers C(r,k), de Rham (1,0,0,1), bigraded table "
                "(1,1,0)/(0,1,1) with the p=0 column equal to the torus factor")


def test_criterion_6_bott_pipeline():
    g = su2()
    u_star = parse_span("span{T, X-iY}", g)
    pair = parse_span("span{T}", g)
    p0 = bott_dolbeault(g, u_star, pair, 0)
    p1 = bott_dolbeault(g, u_star, pair, 1)
    assert p0.dims.get(0, 0) == 1 and p0.dims.get(1, 0) == 0
    assert p1.dims.get(0, 0) == 0 and p1.dims.get(1, 0) == 1
    announce(6, "projective-line Hodge numbers h^{0,0}=1, h^{0,1}=0, h^{1,0}=0, "
                "h^{1,1}=1 from pure algebra")


def test_criterion_7_pipeline_cross_validation():
    g = su2()
    h = parse_span("span{T, X-iY}", g)
    report = full_assembly(g, h)
    big = bigraded_cohomology(g, h)
    keys = set(report.table_dual.dims) | set(big.dims)
    for key in keys:
        assert report.table_dual.dims.get(key, 0) == big.dims.get(key, 0)
    assert [report.p_totals.get(q, 0) for q in range(3)] == [1, 2, 1]
    assert report.riemann_comparison["p_summed_matches"] is True
    announce(7, "assembly equals the bigraded table at every (p,q); p-summed "
                "totals (1,2,1)")


def test_criterion_8_property_suites():
    run_dprime_squares_and_euler(100)
    run_rank_nullity(100)
    run_conj_involution(100)
    run_inertia_congruence(100)
    run_complement_independence(100)
    announce(8, "randomized suites (>=100 cases each): d'd'=0, Euler identity, "
                "rank-nullity, conj involution, inertia congruence invariance, "
                "complement independence")


def test_criterion_9_torus_module():
    mu = MuSpec.rational(Fraction(2, 3))
    assert singular_lattice(Fraction(2, 3), 10) == [
        (-6, -9), (-4, -6), (-2, -3), (0, 0), (2, 3), (4, 6), (6, 9),
    ]
    f = FourierData(cutoff=5, coefficients={(1, 1): Q(1), (2, 3): Q(1)})
    result = solve_dprime(mu, f)
    assert result.solution.coefficients == {(1, 1): Q(0, -3)}
    assert result.obstructions == [(2, 3)]
    lhs = apply_operator(Fraction(2, 3), result.solution)
    for mode, value in f.coefficients.items():
        if mode not in result.obstructions:
            assert lhs.coefficients.get(mode, Q(0)) == value
    golden = liouville_report(MuSpec.from_cf([1] * 12), 8)
    assert golden.verdict == VERDICT_DIOPHANTINE
    quotients = [1, 2]
    for j in range(1, 5):
        _, qs = convergents(quotients)
        quotients.append(qs[j] ** (2 * j))
    fast = liouville_report(MuSpec.from_cf(quotients), 4)
    assert fast.verdict == VERDICT_LIOUVILLE
    announce(9, "mu=2/3 lattice and solve (-3i) with exact residual; golden CF "
                "diophantine evidence; fast-growing CF liouville evidence at depth 4")
