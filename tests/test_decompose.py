import random
from math import comb

import pytest

from liecoh.algebra import ClosureError, Subalgebra, parse_span, su2, su3, torus
import liecoh.cohomology as cohomology
from liecoh.cohomology import (
    AdaptedFrame,
    BasisedAlgebra,
    GModule,
    bigraded_cohomology,
    relative_ce_cohomology,
)
from liecoh.decompose import (
    AlgebraError,
    bott_dolbeault,
    default_inner_product,
    full_assembly,
    killing_form,
    kunneth_assemble,
    validate_ad_invariant,
)
from liecoh.linalg import ExactMatrix, vec_dot
from liecoh.roots import build_standard, root_decomposition
from liecoh.scalars import GaussianRational as Q

from conftest import (
    brute_force_quotient_actions,
    closed_chambers,
    diagonal_solvable,
    reference_fiber,
    reference_quotient_module,
    signed_permutation,
    single_entry_perturbations,
    two_step_nilpotent,
)
from property_suites import _algebra_subalgebra_cases


# -- Lambda^p(g/u)^* as blocks of d --------------------------------------------------
#
# The action of u on the p-forms of g/u is not a module object of its own:
# theta(u_i) on them is the block of d of the frame of (g, u), trivial
# coefficients, on the rows ((i,) + I) over the p-subsets I of the
# complement block, and the fibers read these blocks for k's action.


def theta_actions(g, u, p):
    """theta(u_i) on Lambda^p(g/u)^* for each basis row u_i, as the blocks
    of d that the frame of (g, u) reads."""
    frame = AdaptedFrame(g, u)
    cells = frame._w_cells([0] * frame.adapted.dim, [0], 0)
    cols = cells[p] if 0 <= p < len(cells) else []
    return [
        cohomology._differential_matrix(
            frame._trivial, [((i,) + S, a) for S, a in cols], cols
        ).to_exact()
        for i in range(frame.dim_u)
    ]


def test_quotient_module_su2_weight():
    # ad_T acts by -2i on g / span{T, L}, so by +2i on its dual
    g = su2()
    u = parse_span("span{T, X-iY}", g)
    actions = theta_actions(g, u, 1)
    assert actions == [ExactMatrix.from_rows([[Q(0, 2)]]), ExactMatrix.zero(1, 1)]


def test_quotient_module_p_zero_is_trivial():
    g = su2()
    u = parse_span("span{T, X-iY}", g)
    assert theta_actions(g, u, 0) == [ExactMatrix.zero(1, 1)] * 2


def test_quotient_module_of_full_algebra_vanishes():
    g = su2()
    for p in (1, 2):
        assert theta_actions(g, Subalgebra.full(g), p) == [ExactMatrix.zero(0, 0)] * 3


def test_quotient_module_out_of_range_degree_is_zero():
    # Lambda^p of the 2-dimensional quotient su2 / span{T} is zero for
    # p < 0 and p > 2; there is one 0x0 action per u vector
    g = su2()
    t = parse_span("span{T}", g)
    for p in (-1, 3):
        assert theta_actions(g, t, p) == [ExactMatrix.zero(0, 0)]
        assert reference_quotient_module(g, t, p).dim == 0
    assert bott_dolbeault(g, parse_span("span{T, X-iY}", g), t, -1).dims == {0: 0, 1: 0}


def test_quotient_module_homomorphism_check():
    g = su3()
    u = parse_span("span{X1-iY1, X2-iY2, X3-iY3, T1, T2}", g)
    for p in range(4):
        module = GModule(u, comb(3, p), theta_actions(g, u, p))
        assert module.validate() is None
        assert reference_quotient_module(g, u, p).validate() is None


def _quotient_pairs():
    g3 = su3()
    pairs = [
        (g3, parse_span(text, g3))
        for text in (
            "span{X1-iY1, X2-iY2, X3-iY3, T1, T2}",
            "span{X1-iY1, X2-iY2, X3-iY3}",
            "span{T1, T2}",
        )
    ]
    pairs.append((su2(), parse_span("span{T, X-iY}", su2())))
    cases = _algebra_subalgebra_cases(random.Random(1207))
    pairs.extend(next(cases) for _ in range(12))
    return pairs


def test_quotient_module_matches_brute_force_exterior_power():
    # both on the frame's own complement, a weight basis where u starts
    # with a torus element
    for g, u in _quotient_pairs():
        complement = AdaptedFrame(g, u).complement
        for p in range(g.dim - u.dim + 1):
            assert theta_actions(g, u, p) == brute_force_quotient_actions(g, u, p, complement), (g.name, p)


def test_bott_fiber_matches_reference_fiber():
    # the fiber of row p on one frame against the quotient module fed to
    # relative cohomology, with the pair 0 and with u meet conj(u)
    checked = 0
    for g, u in _quotient_pairs():
        for pair in (Subalgebra.span(g, []), u.intersect(u.conj())):
            assert pair.is_subalgebra() is None
            for p in range(-1, g.dim - u.dim + 2):
                fiber = bott_dolbeault(g, u, pair, p)
                assert fiber.dims == reference_fiber(g, u, pair, p).dims, (g.name, u, pair, p)
                checked += 1
    assert checked > 100


def test_relative_wrapper_equals_frame_method():
    g2, g3 = su2(), su3()
    h5 = parse_span("span{X1-iY1, X2-iY2, X3-iY3, T1, T2}", g3)
    cases = [
        (g2, parse_span("span{T}", g2), GModule.adjoint(g2)),
        (g3, parse_span("span{T1, T2}", g3), GModule.trivial(g3)),
    ]
    for p in range(4):
        module = reference_quotient_module(g3, h5, p)
        cases.append((cohomology.basised(h5), parse_span("span{T1, T2}", g3), module))
    for acting, u, module in cases:
        wrapped = relative_ce_cohomology(acting, u, module)
        direct = AdaptedFrame(acting, u).relative_cohomology(module)
        assert (wrapped.dims, wrapped.meta) == (direct.dims, direct.meta)


def test_full_assembly_builds_each_adapted_basis_once(monkeypatch):
    calls = []
    real = BasisedAlgebra.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(BasisedAlgebra, "__init__", counting)
    g = su3()
    full_assembly(g, parse_span("span{X1-iY1, X2-iY2, X3-iY3, T1, T2}", g))
    assert len(calls) == 1


# -- Kunneth convolution ----------------------------------------------------------


def test_kunneth_projective_line_times_circle():
    omega = {(0, 0): 1, (1, 1): 1}
    k = {0: 1, 1: 1}
    table = kunneth_assemble(omega, k)
    assert table.row(0) == [1, 1, 0]
    assert table.row(1) == [0, 1, 1]


def test_kunneth_point_leaves_factor():
    k = {0: 1, 1: 2, 2: 1}
    table = kunneth_assemble({(0, 0): 1}, k)
    assert table.row(0) == [1, 2, 1]


def test_kunneth_zero_factor():
    assert kunneth_assemble({}, {0: 1}).dims == {}


def test_kunneth_bilinear():
    omega = {(0, 0): 2, (1, 1): 3}
    k = {0: 1, 1: 4}
    doubled = kunneth_assemble({key: 2 * v for key, v in omega.items()}, k)
    base = kunneth_assemble(omega, k)
    assert all(doubled.dims[key] == 2 * base.dims[key] for key in base.dims)
    k_doubled = kunneth_assemble(omega, {s: 2 * v for s, v in k.items()})
    assert all(k_doubled.dims[key] == 2 * base.dims[key] for key in base.dims)


def test_kunneth_point_on_either_side():
    omega = {(0, 0): 1, (0, 1): 2, (1, 1): 1}
    with_point = kunneth_assemble(omega, {0: 1})
    assert {key: v for key, v in with_point.dims.items() if v} == omega


# -- Bott fiber cohomology -----------------------------------------------------------


def test_bott_projective_line_hodge_numbers():
    g = su2()
    u_star = parse_span("span{T, X-iY}", g)
    pair = parse_span("span{T}", g)
    assert bott_dolbeault(g, u_star, pair, 0).dims == dict(enumerate([1, 0]))
    assert bott_dolbeault(g, u_star, pair, 1).dims == dict(enumerate([0, 1]))


def test_bott_pair_equals_u_star():
    g = su2()
    u_star = parse_span("span{T, X-iY}", g)
    table = bott_dolbeault(g, u_star, u_star, 0)
    assert table.dims == dict(enumerate([1]))


def test_bott_flag_manifold_diagonal():
    # the full flag of rank two: h^{p,q} is 1, 2, 2, 1 on the diagonal and
    # zero off it (the Weyl-length counts)
    g = su3()
    u_star = parse_span("span{X1-iY1, X2-iY2, X3-iY3, T1, T2}", g)
    pair = parse_span("span{T1, T2}", g)
    expected = {0: 1, 1: 2, 2: 2, 3: 1}
    for p in range(4):
        dims = bott_dolbeault(g, u_star, pair, p).dims
        for q, v in dims.items():
            assert v == (expected[p] if q == p else 0)


def test_bott_requires_containment():
    g = su2()
    with pytest.raises(AlgebraError):
        bott_dolbeault(g, parse_span("span{T}", g), parse_span("span{X-iY}", g), 0)


def test_bott_requires_a_closed_pair():
    g = su2()
    with pytest.raises(ClosureError,
                       match=r"^subspace is not bracket-closed: witness rows \(0, 1\)$"):
        bott_dolbeault(g, Subalgebra.full(g), parse_span("span{X, Y}", g), 0)


# -- inner products -----------------------------------------------------------------


def test_killing_form_su2():
    K = killing_form(su2())
    assert K == ExactMatrix.from_rows([[-8, 0, 0], [0, -8, 0], [0, 0, -8]])


def trace(M):
    return sum((M[i, i] for i in range(M.rows)), Q(0))


def test_killing_form_is_trace_of_ad_products():
    rng = random.Random(1208)
    algebras = [su2(), su3()]
    algebras += [two_step_nilpotent(rng, 3, 2) for _ in range(3)]
    algebras += [diagonal_solvable(rng, 3) for _ in range(3)]
    for g in algebras:
        ads = [g.ad_matrix(g.basis_vector(j)) for j in range(g.dim)]
        expected = ExactMatrix.from_rows(
            [[trace(ads[i].matmul(ads[j])) for j in range(g.dim)] for i in range(g.dim)]
        )
        assert killing_form(g) == expected, g.name


def test_negative_killing_is_ad_invariant():
    for g in (su2(), su3()):
        assert validate_ad_invariant(g, default_inner_product(g)) is None


def reference_ad_invariant(g, gram):
    """The ad-invariance check as it was before it read ad matrices: two
    brackets and two Gram pairings per basis triple."""
    n = g.dim
    basis = [g.basis_vector(j) for j in range(n)]

    def pair(v, w):
        return vec_dot(gram.apply(w), v)

    for i in range(n):
        for j in range(n):
            bij = g.bracket(basis[i], basis[j])
            for k in range(n):
                lhs = pair(bij, basis[k])
                rhs = -pair(basis[j], g.bracket(basis[i], basis[k]))
                if lhs != rhs:
                    return (i, j, k)
    return None


def _perturbed_grams(gram, rng, count):
    """One seeded entry of `gram` moved, real or imaginary, and mirrored
    across the diagonal (symmetric) or not."""
    out = []
    for t in range(count):
        rows = gram.row_list()
        a, b = rng.randrange(gram.rows), rng.randrange(gram.cols)
        delta = Q(rng.choice((1, -2, 3)), 0) if t % 2 == 0 else Q(0, rng.choice((1, -1, 2)))
        rows[a][b] = rows[a][b] + delta
        if t % 4 < 2 and a != b:
            rows[b][a] = rows[b][a] + delta
        out.append(ExactMatrix.from_rows(rows))
    return out


def test_validate_ad_invariant_matches_reference():
    rng = random.Random(20261018)
    algebras = [su2(), su3(), signed_permutation(su3(), rng)]
    cases = [(g, default_inner_product(g)) for g in algebras]
    assert all(validate_ad_invariant(g, gram) is None for g, gram in cases)
    cases += [(g, p) for g, gram in list(cases) for p in _perturbed_grams(gram, rng, 12)]
    # a perturbed table against the Gram matrix of the unperturbed one
    cases += [
        (p, default_inner_product(g))
        for g in algebras[1:]
        for p in single_entry_perturbations(g, rng, 4)
    ]
    witnesses = []
    for g, gram in cases:
        witness = validate_ad_invariant(g, gram)
        assert witness == reference_ad_invariant(g, gram)
        if witness is not None:
            witnesses.append(witness)
    assert len(witnesses) >= 20 and len(set(witnesses)) >= 5


def test_degenerate_killing_needs_user_gram():
    with pytest.raises(AlgebraError, match="^the Killing form is degenerate; "
                                           "supply an ad-invariant Gram matrix$"):
        default_inner_product(torus(2))


def test_torus_assembly_with_user_gram():
    g = torus(2)
    h = parse_span("span{D1-iD2}", g)  # a complex structure, hence elliptic
    gram = ExactMatrix.identity(2)
    assert validate_ad_invariant(g, gram) is None
    report = full_assembly(g, h, gram=gram)
    # k = 0: the quotient is the whole torus with its complex structure
    assert report.k_sub.dim == 0
    assert report.table_dual.dims[(0, 0)] == 1
    assert report.table_dual.dims[(1, 1)] == 1
    big = bigraded_cohomology(g, h)
    assert report.table_dual.dims == {k: v for k, v in big.dims.items()}


# -- full assembly --------------------------------------------------------------------


def test_full_assembly_su2_fixture():
    g = su2()
    h = parse_span("span{T, X-iY}", g)
    report = full_assembly(g, h)
    assert report.k_sub == parse_span("span{T}", g)
    assert report.u_ideal == parse_span("span{X-iY}", g)
    assert report.table_dual.row(0) == [1, 1, 0]
    assert report.table_dual.row(1) == [0, 1, 1]
    big = bigraded_cohomology(g, h)
    for key in set(report.table_dual.dims) | set(big.dims):
        assert report.table_dual.dims.get(key, 0) == big.dims.get(key, 0)


def test_full_assembly_p_totals_and_riemann_reading():
    g = su2()
    h = parse_span("span{T, X-iY}", g)
    report = full_assembly(g, h)
    assert [report.p_totals[q] for q in range(3)] == [1, 2, 1]
    assert report.riemann_comparison["p_summed_matches"] is True
    assert report.riemann_comparison["per_pq_matches"] is False


def test_full_assembly_full_subalgebra_is_de_rham():
    g = su2()
    report = full_assembly(g, Subalgebra.full(g))
    assert report.table_dual.row(0) == [1, 0, 0, 1]
    for (p, q), v in report.table_dual.dims.items():
        if p > 0:
            assert v == 0


def test_full_assembly_corollary_column():
    # h = torus + positive root spaces: the p = 0 column equals the torus
    # Betti numbers
    g = su3()
    h = parse_span("span{X1-iY1, X2-iY2, X3-iY3, T1, T2}", g)
    report = full_assembly(g, h)
    t_betti = [comb(2, q) for q in range(3)]
    for q in range(6):
        expected = t_betti[q] if q < 3 else 0
        assert report.table_dual.dims.get((0, q), 0) == expected


def test_full_assembly_su3_matches_bigraded_everywhere():
    # the factor route equals the direct route: on h5, and on the standard
    # (2, 0) elliptic and (0, 2) complex structures of every chamber
    g = su3()
    structures = [parse_span("span{X1-iY1, X2-iY2, X3-iY3, T1, T2}", g)]
    rd = root_decomposition(g, parse_span("span{T1, T2}", g))
    chambers = closed_chambers(rd)
    assert len(chambers) == 6
    for plus in chambers:
        structures += [build_standard(rd, 2, 0, plus).subalgebra,
                       build_standard(rd, 0, 2, plus).subalgebra]
    for h in structures:
        report = full_assembly(g, h)
        big = bigraded_cohomology(g, h)
        keys = set(report.table_dual.dims) | set(big.dims)
        for key in keys:
            assert report.table_dual.dims.get(key, 0) == big.dims.get(key, 0), (h, key)


def test_full_assembly_requires_elliptic():
    g = su2()
    with pytest.raises(AlgebraError, match="^full assembly requires an elliptic structure$"):
        full_assembly(g, parse_span("span{X-iY}", g))


def _assembly_pairs():
    """h5, the standard (2, 0) and (0, 2) structures of every su3 chamber,
    su2 span{T, X-iY} and the full su2: (g, h, gram)."""
    g3, g2 = su3(), su2()
    pairs = [(g3, parse_span("span{X1-iY1, X2-iY2, X3-iY3, T1, T2}", g3), None)]
    rd = root_decomposition(g3, parse_span("span{T1, T2}", g3))
    for plus in closed_chambers(rd):
        for s, t in ((2, 0), (0, 2)):
            pairs.append((g3, build_standard(rd, s, t, plus).subalgebra, None))
    pairs += [(g2, parse_span("span{T, X-iY}", g2), None), (g2, Subalgebra.full(g2), None)]
    return pairs


def test_full_assembly_fibers_match_reference_fiber():
    t2 = torus(2)
    cases = _assembly_pairs() + [(t2, parse_span("span{D1-iD2}", t2), ExactMatrix.identity(2))]
    assert len(cases) == 16
    for g, h, gram in cases:
        report = full_assembly(g, h, gram=gram)
        k = h.intersect(h.conj())
        assert report.k_sub == k
        assert sorted(report.fiber_dual) == list(range(g.dim - h.dim + 1))
        for p, fiber in report.fiber_dual.items():
            assert fiber.dims == reference_fiber(g, h, k, p).dims, (h, p)


def test_full_assembly_refuses_parent_then_closure_then_ellipticity():
    g2, g3 = su2(), su3()
    # [X1, X2] = Y3 leaves span{X1, X2}, which is not elliptic either
    with pytest.raises(ClosureError, match=r"witness rows \(0, 1\)"):
        full_assembly(g3, parse_span("span{X1, X2}", g3))
    with pytest.raises(AlgebraError, match="does not belong"):
        full_assembly(g3, parse_span("span{X, Y}", g2))
    with pytest.raises(AlgebraError, match="^full assembly requires an elliptic structure$"):
        full_assembly(g3, parse_span("span{X1-iY1, X2-iY2, X3-iY3}", g3))
    with pytest.raises(AlgebraError, match="^full assembly requires an elliptic structure$"):
        full_assembly(g2, parse_span("span{T}", g2))


def test_frame_with_a_pair_lists_it_first():
    g = su3()
    h = parse_span("span{X1-iY1, X2-iY2, X3-iY3, T1, T2}", g)
    k = h.intersect(h.conj())
    frame = AdaptedFrame(g, h, pair=k)
    assert (frame.dim_k, frame.dim_u, frame.codim) == (2, 5, 3)
    assert frame.adapted.vectors[:2] == k.vectors()
    assert Subalgebra.span(g, frame.adapted.vectors[:5]) == h
    assert frame.pair_cohomology().dims == {0: 1, 1: 2, 2: 1}
    with pytest.raises(AlgebraError, match="the pair is not contained in u"):
        AdaptedFrame(g, k, pair=h)
    with pytest.raises(ClosureError,
                       match=r"^subspace is not bracket-closed: witness rows \(0, 1\)$"):
        AdaptedFrame(g, Subalgebra.full(g), pair=parse_span("span{X1, X2}", g))


def test_a_pair_outside_u_is_named_as_the_pair():
    # u = span{T} lies in su2; it is the pair span{X} that u does not contain
    g = su2()
    u, pair = parse_span("span{T}", g), parse_span("span{X}", g)
    for build in (lambda: AdaptedFrame(g, u, pair=pair), lambda: bott_dolbeault(g, u, pair, 0)):
        with pytest.raises(AlgebraError) as refused:
            build()
        assert str(refused.value) == "the pair is not contained in u"
