import pytest

from liecoh.algebra import LieAlgebra, Subalgebra, parse_span, su2, su3, torus
from liecoh.linalg import NonSplitError
from liecoh.roots import (
    AlgebraError,
    PositiveSystemError,
    build_standard,
    positive_system,
    root_decomposition,
)
from liecoh.scalars import GaussianRational as Q


def imag_tuple(*values):
    return tuple(Q(0, v) for v in values)


# -- decompositions -----------------------------------------------------------


def test_su2_roots():
    g = su2()
    rd = root_decomposition(g, parse_span("span{T}", g))
    assert rd.roots == (imag_tuple(-2), imag_tuple(2))
    assert rd.spaces[imag_tuple(2)].vectors() == [[Q(0), Q(1), Q(0, -1)]]
    assert rd.spaces[imag_tuple(-2)].vectors() == [[Q(0), Q(1), Q(0, 1)]]
    assert rd.zero_space == parse_span("span{T}", g)
    assert rd.torus_is_maximal


def test_su3_weight_matrix():
    # weights of (L1, L2, L3) under (T1, T2), in units of i:
    # columns (2, 0), (1, 3), (-1, 3)
    g = su3()
    rd = root_decomposition(g, parse_span("span{T1, T2}", g))
    assert len(rd.roots) == 6
    L1 = [Q(0)] * 8
    L1[2], L1[3] = Q(1), Q(0, -1)
    L2 = [Q(0)] * 8
    L2[4], L2[5] = Q(1), Q(0, -1)
    L3 = [Q(0)] * 8
    L3[6], L3[7] = Q(1), Q(0, -1)
    assert rd.spaces[imag_tuple(2, 0)].contains(L1)
    assert rd.spaces[imag_tuple(1, 3)].contains(L2)
    assert rd.spaces[imag_tuple(-1, 3)].contains(L3)
    assert rd.torus_is_maximal


def test_torus_has_no_roots():
    g = torus(3)
    rd = root_decomposition(g, Subalgebra.full(g))
    assert rd.roots == ()
    assert rd.zero_space.dim == 3


def test_conjugation_negates_roots():
    g = su3()
    rd = root_decomposition(g, parse_span("span{T1, T2}", g))
    for alpha in rd.roots:
        neg = tuple(-x for x in alpha)
        assert rd.spaces[alpha].conj() == rd.spaces[neg]


def test_grading_relation():
    g = su3()
    rd = root_decomposition(g, parse_span("span{T1, T2}", g))
    roots = set(rd.roots)
    zero = tuple(Q(0) for _ in range(2))
    for alpha in rd.roots:
        for beta in rd.roots:
            target = tuple(a + b for a, b in zip(alpha, beta))
            for u in rd.spaces[alpha].vectors():
                for v in rd.spaces[beta].vectors():
                    w = g.bracket(u, v)
                    if all(x.is_zero() for x in w):
                        continue
                    if target in roots:
                        assert rd.spaces[target].contains(w)
                    elif target == zero:
                        assert rd.zero_space.contains(w)
                    else:
                        raise AssertionError("bracket escaped the grading")


def test_dimension_count():
    g = su3()
    rd = root_decomposition(g, parse_span("span{T1, T2}", g))
    assert rd.zero_space.dim + sum(rd.spaces[a].dim for a in rd.roots) == 8


def test_non_maximal_torus_flagged():
    g = su3()
    rd = root_decomposition(g, parse_span("span{T1+T2}", g))
    # ad_{T1+T2} has eigenvalues 0,0,+-2i,+-4i,+-2i: splits, but the
    # centralizer is bigger than the line
    assert not rd.torus_is_maximal
    assert rd.zero_space.dim > 1


def test_nonabelian_torus_rejected():
    g = su2()
    with pytest.raises(AlgebraError,
                       match=r"^torus is not abelian: bracket of basis rows \(0, 1\) is nonzero$"):
        root_decomposition(g, parse_span("span{X, Y}", g))


def test_nonsplit_action_rejected():
    # [T, X] = X + Y, [T, Y] = -X + Y gives ad_T eigenvalues 1 +- i on a
    # REAL basis... use a rotation by an angle whose eigenvalues are not in
    # Q(i): [T,X] = X+Y, [T,Y] = Y-X has eigenvalues 1+-i (fine), so use
    # [T,X] = Y, [T,Y] = X+Y instead: t^2 - t - 1 has no rational root
    g = LieAlgebra("bad", ("T", "X", "Y"), {(0, 1): {2: 1}, (0, 2): {1: 1, 2: 1}})
    assert g.validate() is None
    message = (r"^ad of torus generator 0 does not split over Q\(i\): "
               r"polynomial factor without a root in Q\(i\)$")
    with pytest.raises(AlgebraError, match=message) as refused:
        root_decomposition(g, parse_span("span{T}", g))
    assert isinstance(refused.value.__cause__, NonSplitError)


def test_nondiagonalizable_action_rejected():
    # [T, X] = X + Y, [T, Y] = Y: ad_T restricted to span{X, Y} is a Jordan
    # block for the eigenvalue 1
    g = LieAlgebra("jordan", ("T", "X", "Y"), {(0, 1): {1: 1, 2: 1}, (0, 2): {2: 1}})
    assert g.validate() is None
    with pytest.raises(AlgebraError, match="^ad of torus generator 0 is not diagonalizable$"):
        root_decomposition(g, parse_span("span{T}", g))


# -- positive systems ----------------------------------------------------------


def test_su2_positive_lex():
    g = su2()
    rd = root_decomposition(g, parse_span("span{T}", g))
    assert positive_system(rd).positive_roots == (imag_tuple(2),)


def test_su3_positive_lex():
    g = su3()
    rd = root_decomposition(g, parse_span("span{T1, T2}", g))
    ps = positive_system(rd)
    assert set(ps.positive_roots) == {imag_tuple(2, 0), imag_tuple(1, 3), imag_tuple(1, -3)}


def test_su3_positive_override():
    g = su3()
    rd = root_decomposition(g, parse_span("span{T1, T2}", g))
    override = [imag_tuple(2, 0), imag_tuple(1, 3), imag_tuple(-1, 3)]
    ps = positive_system(rd, override=override)
    assert set(ps.positive_roots) == set(override)
    # closure: (2i,0) + (-i,3i) = (i,3i) is in the set


def test_override_must_cover_pairs():
    g = su3()
    rd = root_decomposition(g, parse_span("span{T1, T2}", g))
    with pytest.raises(PositiveSystemError):
        positive_system(rd, override=[imag_tuple(2, 0)])
    with pytest.raises(PositiveSystemError):
        positive_system(
            rd,
            override=[
                imag_tuple(2, 0),
                imag_tuple(-2, 0),
                imag_tuple(1, 3),
                imag_tuple(-1, 3),
            ],
        )


def test_override_closure_enforced():
    # choosing (2i,0), (-i,-3i), (i,3i): the sum (2i,0) + (-i,-3i) = (i,-3i)
    # is a root but not chosen, so closure fails
    g = su3()
    rd = root_decomposition(g, parse_span("span{T1, T2}", g))
    with pytest.raises(PositiveSystemError):
        positive_system(
            rd, override=[imag_tuple(2, 0), imag_tuple(-1, -3), imag_tuple(1, 3)]
        )


def test_empty_root_set_gives_empty_positive():
    g = torus(2)
    rd = root_decomposition(g, Subalgebra.full(g))
    assert positive_system(rd).positive_roots == ()


# -- standard structures --------------------------------------------------------


def test_standard_su2_elliptic():
    g = su2()
    rd = root_decomposition(g, parse_span("span{T}", g))
    st = build_standard(rd, 1, 0)
    assert st.subalgebra == parse_span("span{T, X-iY}", g)
    assert st.predicted["elliptic"] and st.report.elliptic
    assert st.prediction_matches


def test_standard_su2_cr():
    g = su2()
    rd = root_decomposition(g, parse_span("span{T}", g))
    st = build_standard(rd, 0, 0)
    assert st.subalgebra == parse_span("span{X-iY}", g)
    assert st.predicted["cr"] and st.report.cr
    assert st.prediction_matches


def test_standard_su3_elliptic():
    g = su3()
    rd = root_decomposition(g, parse_span("span{T1, T2}", g))
    override = [imag_tuple(2, 0), imag_tuple(1, 3), imag_tuple(-1, 3)]
    st = build_standard(rd, 2, 0, positive_system(rd, override=override))
    assert st.subalgebra == parse_span("span{X1-iY1, X2-iY2, X3-iY3, T1, T2}", g)
    assert st.report.elliptic and st.prediction_matches


def test_standard_pairing_on_torus():
    g = torus(4)
    rd = root_decomposition(g, Subalgebra.full(g))
    st = build_standard(rd, 1, 2)
    # u = span{D1, D2 + i D3}: one real vector and one pair, D4 left out
    assert st.subalgebra.dim == 2
    assert st.predicted == {
        "elliptic": False,
        "complex": False,
        "cr": False,
        "essentially_real": False,
    }
    assert st.prediction_matches
    st_cr = build_standard(rd, 0, 2)
    assert st_cr.predicted["cr"] and st_cr.report.cr and st_cr.prediction_matches
    st_cx = build_standard(rd, 0, 4)
    assert st_cx.predicted["complex"] and st_cx.report.complex_structure


def test_standard_inconsistent_parameters():
    g = su2()
    rd = root_decomposition(g, parse_span("span{T}", g))
    with pytest.raises(AlgebraError):
        build_standard(rd, 2, 0)
    with pytest.raises(AlgebraError):
        build_standard(rd, 0, 1)  # odd pairing


def test_standard_output_is_closed():
    g = su3()
    rd = root_decomposition(g, parse_span("span{T1, T2}", g))
    for s, t in [(0, 0), (1, 0), (2, 0), (0, 2)]:
        st = build_standard(rd, s, t)
        assert st.subalgebra.is_subalgebra() is None
