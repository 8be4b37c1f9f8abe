import random
from itertools import combinations
from math import comb

import pytest

from liecoh.algebra import Subalgebra, parse_span, su2, su3, torus
from liecoh.adapted import AdaptedFrame
from liecoh.cohomology import (
    BasisedAlgebra,
    GModule,
    bigraded_cohomology,
    relative_ce_cohomology,
)
from liecoh.decompose import (
    AlgebraError,
    NoIdealComplementError,
    NotEllipticError,
    adjoint_quotient_module,
    bott_dolbeault,
    default_inner_product,
    full_assembly,
    killing_form,
    kunneth_assemble,
    validate_ad_invariant,
)
from liecoh.linalg import ExactMatrix, rank_kernel, solve_linear, vec_dot
from liecoh.roots import build_standard, root_decomposition
from liecoh.scalars import GaussianRational as Q

from conftest import (
    closed_chambers,
    diagonal_solvable,
    signed_permutation,
    single_entry_perturbations,
    two_step_nilpotent,
)
from property_suites import _algebra_subalgebra_cases


# -- adjoint quotient modules ---------------------------------------------------


def test_quotient_module_su2_weight():
    # ad_T acts by -2i on g / span{T, L}, so by +2i on its dual
    g = su2()
    u = parse_span("span{T, X-iY}", g)
    module = adjoint_quotient_module(g, u, 1)
    assert module.dim == 1
    assert module.actions[0] == ExactMatrix.from_rows([[Q(0, 2)]])
    assert module.actions[1] == ExactMatrix.zero(1, 1)


def test_quotient_module_p_zero_is_trivial():
    g = su2()
    u = parse_span("span{T, X-iY}", g)
    module = adjoint_quotient_module(g, u, 0)
    assert module.dim == 1
    assert all(a == ExactMatrix.zero(1, 1) for a in module.actions)


def test_quotient_module_of_full_algebra_vanishes():
    g = su2()
    assert adjoint_quotient_module(g, Subalgebra.full(g), 1).dim == 0
    assert adjoint_quotient_module(g, Subalgebra.full(g), 2).dim == 0


def test_quotient_module_out_of_range_degree_is_zero():
    # Lambda^p of the 2-dimensional quotient su2 / span{T} is zero for
    # p < 0 and p > 2; the module keeps one 0x0 action per u vector
    g = su2()
    t = parse_span("span{T}", g)
    for p in (-1, 3):
        module = adjoint_quotient_module(g, t, p)
        assert module.dim == 0
        assert module.actions == [ExactMatrix.zero(0, 0)]
    assert bott_dolbeault(g, parse_span("span{T, X-iY}", g), t, -1).dims == {0: 0, 1: 0}


def test_quotient_module_homomorphism_check():
    g = su3()
    u = parse_span("span{X1-iY1, X2-iY2, X3-iY3, T1, T2}", g)
    for p in range(4):
        assert adjoint_quotient_module(g, u, p).validate() is None


def _inversion_sign(seq):
    inversions = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j])
    return -1 if inversions % 2 else 1


def brute_force_quotient_actions(g, u, p):
    """Lambda^p(ad) on g/u, built from LieAlgebra.bracket, and its
    contragredient, the action on Lambda^p(g/u)^*: the complement is the
    greedy pick from the standard basis, [u_i, w_j] is solved in the basis
    (u, w), and a wedge of complement vectors is re-sorted with its
    permutation sign."""
    u_rows = u.vectors()
    comp, rows = [], list(u_rows)
    for j in range(g.dim):
        trial = rows + [g.basis_vector(j)]
        if rank_kernel(ExactMatrix.from_rows(trial))[0] > len(rows):
            rows = trial
            comp.append(g.basis_vector(j))
    d = len(comp)
    cols = ExactMatrix.from_rows([[v[i] for v in u_rows + comp] for i in range(g.dim)])
    subs = list(combinations(range(d), p)) if 0 <= p <= d else []
    index = {K: i for i, K in enumerate(subs)}
    actions = []
    for x in u_rows:
        # A[l][j]: complement coefficient l of [x, w_j]
        A = [[None] * d for _ in range(d)]
        for j, w in enumerate(comp):
            coords = solve_linear(cols, g.bracket(x, w))
            for l in range(d):
                A[l][j] = coords[len(u_rows) + l]
        data = [[Q(0)] * len(subs) for _ in subs]
        for K in subs:
            for pos in range(p):
                for l in range(d):
                    if A[l][K[pos]].is_zero():
                        continue
                    replaced = K[:pos] + (l,) + K[pos + 1:]
                    if len(set(replaced)) < p:
                        continue
                    target = tuple(sorted(replaced))
                    term = A[l][K[pos]] * _inversion_sign(replaced)
                    data[index[target]][index[K]] = data[index[target]][index[K]] + term
        M = ExactMatrix(len(subs), len(subs), data)
        actions.append(M.transpose().scale(-1))
    return actions


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
    for g, u in _quotient_pairs():
        for p in range(g.dim - u.dim + 1):
            module = adjoint_quotient_module(g, u, p)
            assert module.actions == brute_force_quotient_actions(g, u, p), (g.name, p)


def test_relative_wrapper_equals_frame_method():
    g2, g3 = su2(), su3()
    h5 = parse_span("span{X1-iY1, X2-iY2, X3-iY3, T1, T2}", g3)
    cases = [
        (g2, parse_span("span{T}", g2), GModule.adjoint(g2)),
        (g3, parse_span("span{T1, T2}", g3), GModule.trivial(g3)),
    ]
    outer = AdaptedFrame(g3, h5)
    for p in range(4):
        cases.append((outer.u_algebra, parse_span("span{T1, T2}", g3), outer.quotient_module(p)))
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
    assert len(calls) <= 4


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
    assert bott_dolbeault(g, u_star, pair, 0).degree_list() == [1, 0]
    assert bott_dolbeault(g, u_star, pair, 1).degree_list() == [0, 1]


def test_bott_pair_equals_u_star():
    g = su2()
    u_star = parse_span("span{T, X-iY}", g)
    table = bott_dolbeault(g, u_star, u_star, 0)
    assert table.degree_list() == [1]


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
    with pytest.raises(AlgebraError, match="relative pair requires a bracket-closed u"):
        bott_dolbeault(g, Subalgebra.full(g), parse_span("span{X, Y}", g), 0)


# -- inner products -----------------------------------------------------------------


def test_killing_form_su2():
    K = killing_form(su2())
    assert K == ExactMatrix.from_rows([[-8, 0, 0], [0, -8, 0], [0, 0, -8]])


def test_killing_form_is_trace_of_ad_products():
    rng = random.Random(1208)
    algebras = [su2(), su3()]
    algebras += [two_step_nilpotent(rng, 3, 2) for _ in range(3)]
    algebras += [diagonal_solvable(rng, 3) for _ in range(3)]
    for g in algebras:
        ads = [g.ad_matrix(g.basis_vector(j)) for j in range(g.dim)]
        expected = ExactMatrix.from_rows(
            [[ads[i].matmul(ads[j]).trace() for j in range(g.dim)] for i in range(g.dim)]
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
    with pytest.raises(NoIdealComplementError):
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
    with pytest.raises(NotEllipticError):
        full_assembly(g, parse_span("span{X-iY}", g))
