import json
import random
from functools import partial
from itertools import combinations, permutations
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecoh.algebra import (
    AlgebraError,
    ClosureError,
    LieAlgebra,
    Subalgebra,
    parse_span,
    su2,
    su3,
    torus,
)
from liecoh.cohomology import (
    AdaptedFrame,
    BasisedAlgebra,
    CochainComplex,
    CohomologyTable,
    GModule,
    bigraded_cohomology,
    bigraded_complex,
    ce_cohomology,
    ce_complex,
    ce_differential,
    extend_to_complement,
    relative_ce_cohomology,
)
import liecoh.cohomology as cohomology
from liecoh.linalg import (
    ExactMatrix,
    ScaledIntMatrix,
    _integer_rows,
    _reduced_echelon,
    rank_kernel,
    solve_linear,
)
from liecoh.roots import build_standard, root_decomposition
from liecoh.scalars import GaussianRational as Q

from conftest import (
    bracket_coeffs,
    closed_chambers,
    complement_rule,
    diagonal_solvable,
    random_nilpotent_subalgebra,
    reference_complement_basis,
    reference_quotient_module,
    signed_permutation,
    two_step_nilpotent,
)
from property_suites import _algebra_subalgebra_cases


# -- independent oracle for the differential ----------------------------------
#
# Evaluate the alternating-cochain formula literally on index tuples, with
# permutation signs computed by inversion counting; compare entry by entry
# with the matrix builder.


def inversion_sign(args):
    inv = 0
    for i in range(len(args)):
        for j in range(i + 1, len(args)):
            if args[i] > args[j]:
                inv += 1
    return -1 if inv % 2 else 1


def eval_basis_cochain(I, args):
    """w_I evaluated on a tuple of pairwise indices: +-1 or 0."""
    if len(set(args)) != len(args):
        return 0
    if tuple(sorted(args)) != I:
        return 0
    return inversion_sign(args)


def brute_force_differential(g, module: GModule, k: int) -> ExactMatrix:
    """d on k-cochains of g, a LieAlgebra or a BasisedAlgebra."""
    n = g.dim
    coeffs = g.coeffs if isinstance(g, BasisedAlgebra) else partial(bracket_coeffs, g)
    dim_m = module.dim
    dom = list(combinations(range(n), k))
    cod = list(combinations(range(n), k + 1))
    data = [[Q(0)] * (len(dom) * dim_m) for _ in range(len(cod) * dim_m)]
    for c_idx, (I, a) in enumerate((I, a) for I in dom for a in range(dim_m)):
        for r_idx, J in enumerate(cod):
            out = [Q(0)] * dim_m
            for t in range(k + 1):
                rest = J[:t] + J[t + 1:]
                val = eval_basis_cochain(I, rest)
                if val:
                    col = [module.actions[J[t]][b, a] for b in range(dim_m)]
                    sign = Q(val * (1 if t % 2 == 0 else -1))
                    out = [o + sign * x for o, x in zip(out, col)]
            for s in range(k + 1):
                for t in range(s + 1, k + 1):
                    rest = tuple(x for idx, x in enumerate(J) if idx not in (s, t))
                    sign_st = 1 if (s + t) % 2 == 0 else -1
                    for l, c in coeffs(J[s], J[t]).items():
                        val = eval_basis_cochain(I, (l,) + rest)
                        if val:
                            out[a] = out[a] + Q(sign_st * val) * c
            for b in range(dim_m):
                data[r_idx * dim_m + b][c_idx] = out[b]
    return ExactMatrix(len(cod) * dim_m, len(dom) * dim_m, data)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_differential_matches_brute_force_su2_trivial(k):
    g = su2()
    module = GModule.trivial(g)
    assert ce_differential(g, module, k) == brute_force_differential(g, module, k)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_differential_matches_brute_force_su2_adjoint(k):
    g = su2()
    module = GModule.adjoint(g)
    assert ce_differential(g, module, k) == brute_force_differential(g, module, k)


@pytest.mark.parametrize("k", [1, 2])
def test_differential_matches_brute_force_su3(k):
    g = su3()
    module = GModule.trivial(g)
    assert ce_differential(g, module, k) == brute_force_differential(g, module, k)


def test_differential_matches_brute_force_random_algebras():
    rng = random.Random(99)
    for _ in range(5):
        g = two_step_nilpotent(rng, 3, 2)
        module = GModule.adjoint(g)
        for k in range(3):
            assert ce_differential(g, module, k) == brute_force_differential(g, module, k)
        g2 = diagonal_solvable(rng, 3)
        module2 = GModule.adjoint(g2)
        for k in range(3):
            assert ce_differential(g2, module2, k) == brute_force_differential(g2, module2, k)


# -- bases and modules with denominators and non-real entries --------------------


def _scaled_su2():
    # basis T/2, iX/3, Y: brackets i/3 Y, 3i (iX/3) and 4i/3 (T/2)
    return BasisedAlgebra(
        su2(), [[Q(1) / 2, Q(0), Q(0)], [Q(0), Q(0, 1) / 3, Q(0)], [Q(0), Q(0), Q(1)]]
    )


def _spin_actions(vectors):
    """The two-dimensional representation T -> diag(i, -i), X -> [[0, 1],
    [-1, 0]], Y -> [[0, i], [i, 0]] of su2, on each vector of `vectors`,
    conjugated by P = [[1, 1/2], [0, 1/3]]."""
    rho = [
        ExactMatrix.from_rows([[Q(0, 1), Q(0)], [Q(0), Q(0, -1)]]),
        ExactMatrix.from_rows([[Q(0), Q(1)], [Q(-1), Q(0)]]),
        ExactMatrix.from_rows([[Q(0), Q(0, 1)], [Q(0, 1), Q(0)]]),
    ]
    P = ExactMatrix.from_rows([[Q(1), Q(1) / 2], [Q(0), Q(1) / 3]])
    P_inv = ExactMatrix.from_rows([[Q(1), Q(-3) / 2], [Q(0), Q(3)]])
    out = []
    for v in vectors:
        A = ExactMatrix.zero(2, 2)
        for c, r in zip(v, rho):
            A = A + r.scale(c)
        out.append(P_inv.matmul(A).matmul(P))
    return out


def _denominator_cases():
    g = su2()
    ba = _scaled_su2()
    adjoint = [
        ExactMatrix.from_rows(
            [[ba.coeffs(a, b).get(l, Q(0)) for b in range(3)] for l in range(3)]
        )
        for a in range(3)
    ]
    return [
        (g, GModule(g, 2, _spin_actions([g.basis_vector(j) for j in range(3)]))),
        (ba, GModule(ba, 1, [ExactMatrix.zero(1, 1)] * 3)),
        (ba, GModule(ba, 3, adjoint)),
        (ba, GModule(ba, 2, _spin_actions(ba.vectors))),
    ]


@pytest.mark.parametrize("case", range(4))
def test_differentials_with_denominators_match_brute_force(case):
    acting, module = _denominator_cases()[case]
    assert module.validate() is None
    n = acting.dim
    brute = [brute_force_differential(acting, module, k) for k in range(n + 1)]
    for k in range(n + 1):
        assert ce_differential(acting, module, k) == brute[k]
    ranks = [rank_kernel(m)[0] for m in brute]
    expected = {k: brute[k].cols - ranks[k] - (ranks[k - 1] if k else 0) for k in range(n + 1)}
    assert ce_cohomology(acting, module).dims == expected


def test_poincare_duality_trivial_coefficients():
    # unimodular algebras: H^k and H^{n-k} have equal dimension
    rng = random.Random(1201)
    algebras = [su2(), su3()] + [two_step_nilpotent(rng, rng.randint(2, 3), 1) for _ in range(8)]
    for g in algebras:
        dims = ce_cohomology(g, GModule.trivial(g)).dims
        assert list(dims) == list(range(g.dim + 1))
        assert all(dims[k] == dims[g.dim - k] for k in dims), g.name


# -- fixed differential values --------------------------------------------------


def test_su2_degree_one_differential_values():
    # d w_T = -2 w_X^w_Y, d w_X = 2 w_T^w_Y, d w_Y = -2 w_T^w_X
    g = su2()
    d1 = ce_differential(g, GModule.trivial(g), 1)
    # rows ordered (T,X), (T,Y), (X,Y); columns T, X, Y
    assert d1.row_list() == [
        [Q(0), Q(0), Q(-2)],
        [Q(0), Q(2), Q(0)],
        [Q(-2), Q(0), Q(0)],
    ]


def test_abelian_differential_is_zero():
    g = torus(3)
    for k in range(4):
        d = ce_differential(g, GModule.trivial(g), k)
        assert d == ExactMatrix.zero(d.rows, d.cols)


def test_degree_zero_trivial_module_differential_is_zero():
    g = su3()
    d0 = ce_differential(g, GModule.trivial(g), 0)
    assert d0 == ExactMatrix.zero(8, 1)


# -- cohomology dimensions -------------------------------------------------------


@pytest.mark.parametrize("r", range(7))
def test_torus_betti_numbers(r):
    g = torus(r)
    table = ce_cohomology(g, GModule.trivial(g))
    assert table.dims == dict(enumerate([comb(r, k) for k in range(r + 1)]))


def test_su2_trivial_cohomology():
    assert ce_cohomology(su2(), GModule.trivial(su2())).dims == dict(enumerate([1, 0, 0, 1]))


def test_su2_adjoint_cohomology_vanishes():
    g = su2()
    assert ce_cohomology(g, GModule.adjoint(g)).dims == dict(enumerate([0, 0, 0, 0]))


def test_su3_trivial_cohomology():
    g = su3()
    assert ce_cohomology(g, GModule.trivial(g)).dims == dict(enumerate([1, 0, 0, 1, 0, 1, 0, 0, 1]))


def test_degree_zero_dimension_is_one_for_trivial():
    for g in (su2(), su3(), torus(3)):
        assert ce_cohomology(g, GModule.trivial(g)).dims[0] == 1


def test_representatives_are_cocycles_mod_image():
    g = su2()
    table = ce_cohomology(g, GModule.trivial(g), representatives=True)
    assert len(table.representatives[0]) == 1
    assert len(table.representatives[3]) == 1
    assert list(table.representatives[3][0]) == ["T∧X∧Y"]


def reference_quotient_representatives(kernel_vectors, image_rows, ncols):
    """The two-step oracle: reduce each kernel vector by the reduced
    echelon rows of the image (eliminated in place), drop those that
    vanish, and put the rest in reduced echelon form."""
    if not kernel_vectors:
        return []
    img, pivots = _reduced_echelon(image_rows, ncols)
    reduced = []
    for v in kernel_vectors:
        w = list(v)
        for row, p in zip(img, pivots):
            f = w[p]
            if not f.is_zero():
                w = [x - f * y for x, y in zip(w, row)]
        if not all(x.is_zero() for x in w):
            reduced.append(w)
    if not reduced:
        return []
    return _reduced_echelon(_integer_rows(reduced), ncols)[0]


@pytest.mark.parametrize(
    "algebra, span, module, degrees",
    [
        (su3, "span{X1-iY1, X2-iY2, X3-iY3}", None, 6 * 4),
        (su3, "span{X1-iY1, X2-iY2, X3-iY3, T1, T2}", None, 4 * 6),
        (su3, "span{X1-iY1, X2-iY2, X3-iY3, T2}", None, 5 * 5),
        (su2, "span{T, X-iY}", None, 2 * 3),
        (su2, "span{X-iY}", None, 3 * 2),
        (lambda: torus(2), "span{D1-2/3D2}", None, 2 * 2),
        (su3, None, GModule.trivial, 9),
        (su2, None, GModule.adjoint, 4),
        (lambda: torus(3), None, GModule.trivial, 4),
    ],
)
def test_quotient_representatives_match_two_step_reduction(
    monkeypatch, algebra, span, module, degrees
):
    # every degree of every reduction with representatives, against the
    # oracle fed with rank_kernel of d_k and the columns of d_{k-1}
    real = cohomology._chain_dims
    calls = []

    def checked(matrices, keys, representatives=False):
        dims, reps = real(matrices, keys, representatives)
        for i, k in enumerate(keys):
            _, kernel = rank_kernel(matrices[k].to_exact())
            image = matrices[keys[i - 1]].transpose().echelon_rows() if i > 0 else []
            assert reps[k] == reference_quotient_representatives(kernel, image, matrices[k].cols)
            calls.append(k)
        return dims, reps

    monkeypatch.setattr(cohomology, "_chain_dims", checked)
    g = algebra()
    if span is None:
        ce_cohomology(g, module(g), representatives=True)
    else:
        bigraded_cohomology(g, parse_span(span, g), representatives=True)
    assert len(calls) == degrees


# -- the weight-zero route against the full complex ----------------------------------
#
# ce_cohomology without representatives runs on the frame with u = 0 on a
# joint eigenbasis of a commuting family grown from the first basis element
# (AdaptedFrame), whose torus scan finds the family; the cells of
# nonzero weight span acyclic blocks by Cartan's homotopy formula.  The full
# complex (ce_complex) is the reference.


SCALED = Path(__file__).with_name("fixtures") / "su2-scaled.json"


def su2_scaled():
    return LieAlgebra.from_json_dict(json.loads(SCALED.read_text(encoding="utf-8")))


def assert_weight_route(g, module, applies=True):
    """The dims of the frame with u = 0 equal the full complex's, and its
    grading drops cells exactly when `applies` (else every cell is kept).
    The graded complex is returned."""
    weight = AdaptedFrame(cohomology.basised(g), None).relative_complex(module)
    cells = sum(m.cols for m in weight.int_differentials.values())
    assert (cells < 2 ** g.dim * module.dim) == applies
    full = ce_complex(g, module).cohomology().dims
    assert weight.cohomology().dims == full
    assert ce_cohomology(g, module).dims == full
    return weight


@pytest.mark.parametrize("algebra", [su2, su3, lambda: torus(3), su2_scaled],
                         ids=["su2", "su3", "torus3", "su2-scaled"])
@pytest.mark.parametrize("module", [GModule.trivial, GModule.adjoint], ids=["trivial", "adjoint"])
def test_weight_route_matches_full_complex(algebra, module):
    g = algebra()
    # torus3 is abelian: every weight is zero
    assert_weight_route(g, module(g), applies=g.name != "torus3")


def test_weight_route_on_seeded_su3_presentations():
    # the signed permutations that the benchmark draws: the family grows
    # from the first basis element to a maximal torus, two elements, however
    # the basis is ordered, also where T2 comes first, and its joint weight zero
    # leaves 244 cells of the 11440 in d (X alone left 508)
    rng = random.Random(16)
    firsts = []
    for _ in range(24):
        g = signed_permutation(su3(), rng)
        weight = assert_weight_route(g, GModule.trivial(g))
        cells = sum(m.rows * m.cols for m in weight.int_differentials.values())
        assert cells == 244
        assert len(AdaptedFrame(cohomology.basised(g), None).torus) == 2
        firsts.append(g.basis_names[0])
    assert firsts.count("T2") >= 2 and len(set(firsts)) >= 5


def test_whitehead_adjoint_cohomology_vanishes_on_the_weight_route():
    # H^*(g; ad) = 0 for semisimple g (Whitehead); the full su3 complex
    # with adjoint coefficients is checked in test_weight_route_matches_full_complex
    rng = random.Random(161)
    for g in [su2(), su3()] + [signed_permutation(su3(), rng) for _ in range(3)]:
        frame = AdaptedFrame(cohomology.basised(g), None)
        assert frame.torus
        weight = frame.relative_complex(GModule.adjoint(g))
        assert weight.cohomology().dims == dict(enumerate([0] * (g.dim + 1)))


def test_weight_route_falls_back_without_a_split_semisimple_element():
    # ad T has the polynomial t^2 (t^2 - 2), which does not split over Q(i)
    non_split = LieAlgebra("sqrt2", ("T", "X", "Y"), {(0, 1): {2: 1}, (0, 2): {1: 2}})
    # ad X of the Heisenberg algebra is nilpotent and nonzero
    heisenberg = LieAlgebra("heis", ("X", "Y", "Z"), {(0, 1): {2: 1}})
    for g in (non_split, heisenberg, two_step_nilpotent(random.Random(7), 3, 2)):
        assert g.validate() is None
        for module in (GModule.trivial(g), GModule.adjoint(g)):
            assert_weight_route(g, module, applies=False)


def test_weight_route_falls_back_when_the_action_of_x_is_not_semisimple():
    # [T, X] = X splits, but T acts on the module by a Jordan block
    g = LieAlgebra("diag1", ("T", "X"), {(0, 1): {1: 1}})
    jordan = GModule(g, 2, [ExactMatrix.from_rows([[0, 1], [0, 0]]), ExactMatrix.zero(2, 2)])
    assert jordan.validate() is None
    assert_weight_route(g, jordan, applies=False)
    # with T acting diagonally the route applies, on the module's eigenbasis
    split = GModule(g, 2, [ExactMatrix.from_rows([[1, 1], [0, 2]]), ExactMatrix.zero(2, 2)])
    assert assert_weight_route(g, split) is not None


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(-2, 2), st.integers(-1, 1)), min_size=0, max_size=7),
       st.lists(st.tuples(st.integers(-3, 3), st.integers(-1, 1)), min_size=1, max_size=3))
def test_weight_zero_cells_are_the_zero_weight_subsets(lam, mu):
    # int pairs as complex numbers, which add like the packed weights
    n = len(lam)
    cells = cohomology.weight_zero_cells(range(n), [complex(*w) for w in lam],
                                         [complex(*m) for m in mu])
    assert len(cells) == n + 2
    for k in range(n + 2):
        assert cells[k] == [
            (S, a) for S in combinations(range(n), k) for a, m in enumerate(mu)
            if (sum(lam[s][0] for s in S), sum(lam[s][1] for s in S)) == m
        ]


# -- module constructors ----------------------------------------------------------


def test_adjoint_module_is_homomorphism():
    for g in (su2(), su3()):
        assert GModule.adjoint(g).validate() is None


def test_bad_module_detected():
    g = su2()
    actions = [ExactMatrix.identity(2), ExactMatrix.zero(2, 2), ExactMatrix.zero(2, 2)]
    assert GModule(g, 2, actions).validate() is not None


def dense_validate(module):
    """The dense oracle: action([X_a, X_b]) against the commutator of the
    action matrices, as exact matrix products, pair by pair."""
    n = len(module.actions)
    for a in range(n):
        for b in range(a + 1, n):
            lhs = ExactMatrix.zero(module.dim, module.dim)
            for l, c in module._basis.coeffs(a, b).items():
                lhs = lhs + module.actions[l].scale(c)
            A, B = module.actions[a], module.actions[b]
            if lhs != A.matmul(B) - B.matmul(A):
                return (a, b)
    return None


def _corrupted(actions, rng):
    """A copy of `actions` with one entry of one matrix moved by a nonzero
    Gaussian rational."""
    out = [ExactMatrix.from_rows(m.row_list()) for m in actions]
    j = rng.randrange(len(out))
    rows = out[j].row_list()
    r, c = rng.randrange(len(rows)), rng.randrange(len(rows))
    rows[r][c] = rows[r][c] + Q(rng.choice([1, -1, 2]), rng.choice([0, 1])) / rng.choice([1, 3])
    out[j] = ExactMatrix.from_rows(rows)
    return out


def test_corrupted_action_witness_matches_dense_oracle():
    # the sparse integer check and the dense product check name the same
    # first failing pair, on valid modules (None) and on corrupted ones
    rng = random.Random(314)
    cases = [(g, GModule.adjoint(g)) for g in (su2(), su3())] + _denominator_cases()
    for acting, module in cases:
        assert module.validate() is None is dense_validate(module)
        for _ in range(15):
            bad = GModule(acting, module.dim, _corrupted(module.actions, rng))
            witness = dense_validate(bad)
            assert witness is not None
            assert bad.validate() == witness


def test_validate_witness_matches_dense_oracle_at_several_pairs():
    # one perturbed entry of the su3 adjoint action at several positions,
    # so that the first failing pair is not always (0, 1); a diagonal entry
    # of ad T2 on the torus commutes with ad T1, so pair (0, 1) passes there
    g = su3()
    actions = GModule.adjoint(g).actions
    witnesses = []
    for j, r, c in ((0, 0, 1), (1, 0, 0), (1, 1, 1), (2, 1, 1), (5, 3, 4), (7, 0, 0)):
        rows = [m.row_list() for m in actions]
        rows[j][r][c] = rows[j][r][c] + Q(1, -2)
        bad = GModule(g, g.dim, [ExactMatrix.from_rows(m) for m in rows])
        witness = dense_validate(bad)
        assert witness is not None
        assert bad.validate() == witness
        witnesses.append(witness)
    assert witnesses == [(0, 2), (1, 2), (1, 4), (0, 3), (0, 4), (0, 6)]
    for module in (
        GModule.trivial(g),
        GModule(g, 3, [ExactMatrix.zero(3, 3)] * g.dim),
        GModule(g, 0, [ExactMatrix.zero(0, 0)] * g.dim),
    ):
        assert module.validate() is None is dense_validate(module)


# -- complements and adapted frames ------------------------------------------------


def greedy_complement(base_vectors, candidates):
    """The one-rank-per-candidate greedy scan, as the oracle."""
    rows = [list(v) for v in base_vectors]
    picked = []
    current_rank = rank_kernel(ExactMatrix.from_rows(rows))[0] if rows else 0
    for cand in candidates:
        trial = rows + [list(cand)]
        r = rank_kernel(ExactMatrix.from_rows(trial))[0]
        if r > current_rank:
            rows = trial
            current_rank = r
            picked.append(list(cand))
    return picked


_complement_entries = st.one_of(
    st.just(Q(0)),
    st.just(Q(0)),
    st.builds(Q, st.integers(-2, 2), st.integers(-2, 2)),
    st.builds(Q, st.fractions(-2, 2, max_denominator=3), st.fractions(-2, 2, max_denominator=3)),
)


@st.composite
def _base_and_candidates(draw):
    """Base vectors (possibly dependent) and candidates in dimension 1 to
    5; some candidates repeat or combine earlier vectors, so the greedy
    scan both keeps and skips."""
    n = draw(st.integers(1, 5))
    vector = st.lists(_complement_entries, min_size=n, max_size=n)
    base = draw(st.lists(vector, max_size=3))
    candidates = draw(st.lists(vector, max_size=5))
    pool = base + candidates
    for _ in range(draw(st.integers(0, 2))):
        if pool:
            a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
            c = draw(_complement_entries)
            combined = [x + c * y for x, y in zip(a, b)]
            candidates.insert(draw(st.integers(0, len(candidates))), combined)
    return base, candidates


@given(_base_and_candidates())
@settings(deadline=None, max_examples=300)
def test_extend_to_complement_matches_greedy_scan(case):
    base, candidates = case
    assert extend_to_complement(base, candidates) == greedy_complement(base, candidates)


def test_reference_complement_basis_matches_greedy_scan():
    g3 = su3()
    pairs = [
        (g3, parse_span(text, g3))
        for text in (
            "span{X1-iY1, X2-iY2, X3-iY3, T1, T2}",
            "span{X1-iY1, X2-iY2, X3-iY3}",
            "span{X1-iY1, X2-iY2, X3-iY3, T2}",
            "span{T1+iT2}",
        )
    ]
    pairs.append((su2(), parse_span("span{T, X-iY}", su2())))
    for g, h in pairs:
        candidates = [[x.conjugate() for x in row] for row in h.vectors()] + [
            g.basis_vector(j) for j in range(g.dim)
        ]
        assert reference_complement_basis(g, h) == greedy_complement(h.vectors(), candidates)


def test_frame_closure_witness_is_the_first_open_pair():
    # the frame reads closure off its bracket table; the witness is the
    # first row pair that is_subalgebra reports
    g = su3()
    texts = ("span{X1, Y1}", "span{X1, X2}", "span{T1, X1, X2, Y3}", "span{X1-iY1, X2+iY2, T1}")
    for text in texts:
        u = parse_span(text, g)
        witness = u.is_subalgebra()
        assert witness is not None
        with pytest.raises(ClosureError) as info:
            AdaptedFrame(g, u)
        assert info.value.witness == witness


def test_frame_rejects_what_the_acting_algebra_does_not_contain():
    g = su2()
    with pytest.raises(AlgebraError, match="not contained"):
        AdaptedFrame(parse_span("span{T}", g), parse_span("span{X}", g))


# -- relative cohomology -----------------------------------------------------------


def test_relative_full_pair_gives_constants():
    g = su2()
    table = relative_ce_cohomology(g, Subalgebra.full(g), GModule.trivial(g))
    assert table.dims == dict(enumerate([1]))


def test_relative_zero_pair_reduces_to_plain():
    g = su2()
    zero = Subalgebra.span(g, [])
    module = GModule.adjoint(g)
    assert (
        relative_ce_cohomology(g, zero, module).dims
        == ce_cohomology(g, module).dims
    )


def test_relative_zero_pair_takes_the_plain_cells(monkeypatch):
    # u = 0 is the plain route, graded by a maximal torus: su3 with
    # adjoint coefficients keeps 8104 entries of d, of the 732160 that
    # the 2^8 x 8 cells of its input basis give
    g = su3()
    module = GModule.adjoint(g)
    cells = []
    real = cohomology._chain_dims

    def counted(matrices, degrees, representatives=False):
        cells.append(sum(matrices[k].rows * matrices[k].cols for k in degrees))
        return real(matrices, degrees, representatives)

    monkeypatch.setattr(cohomology, "_chain_dims", counted)
    relative = relative_ce_cohomology(g, Subalgebra.span(g, []), module)
    assert relative.dims == ce_cohomology(g, module).dims == {k: 0 for k in range(9)}
    assert cells[0] == cells[1] == 8104


def test_relative_weight_line():
    # acting algebra span{T, L} with the 1-dimensional module of T-weight
    # 2i: the invariant line sits in degree one because the quotient slot
    # contributes weight -2i, so H^0 = 0 and H^1 = 1
    g = su2()
    u_star = parse_span("span{T, X-iY}", g)
    pair = parse_span("span{T}", g)
    module = GModule(
        u_star, 1, [ExactMatrix.from_rows([[Q(0, 2)]]), ExactMatrix.from_rows([[Q(0)]])]
    )
    assert module.validate() is None
    assert relative_ce_cohomology(u_star, pair, module).dims == dict(enumerate([0, 1]))


def test_relative_invariants_of_trivial():
    g = su2()
    u_star = parse_span("span{T, X-iY}", g)
    pair = parse_span("span{T}", g)
    table = relative_ce_cohomology(u_star, pair, GModule.trivial(u_star))
    assert table.dims == dict(enumerate([1, 0]))


def test_relative_pair_with_torus_gives_sphere():
    # the quotient of the rank-one group by its torus is the 2-sphere, and
    # the invariant relative complex computes its de Rham cohomology
    g = su2()
    table = relative_ce_cohomology(g, parse_span("span{T}", g), GModule.trivial(g))
    assert table.dims == dict(enumerate([1, 0, 1]))


def test_relative_pair_with_torus_gives_flag_manifold():
    # for the rank-two group the quotient is the full flag manifold with
    # Poincare polynomial (1 + t^2)(1 + t^2 + t^4)
    g = su3()
    table = relative_ce_cohomology(g, parse_span("span{T1, T2}", g), GModule.trivial(g))
    assert table.dims == dict(enumerate([1, 0, 2, 0, 2, 0, 1]))


def test_relative_zero_dimensional_module():
    g = su2()
    u_star = parse_span("span{T, X-iY}", g)
    pair = parse_span("span{T}", g)
    empty = GModule(u_star, 0, [ExactMatrix.zero(0, 0), ExactMatrix.zero(0, 0)])
    table = relative_ce_cohomology(u_star, pair, empty)
    assert all(v == 0 for v in table.dims.values())


def test_relative_differentials_are_verified(monkeypatch):
    # the relative complex is assembled from invariant bases, not built by
    # ce_complex, so its d o d = 0 check happens in relative_ce_cohomology
    seen = []
    real = CochainComplex.verify

    def recording(self):
        seen.append({k: (m.rows, m.cols) for k, m in self.differentials.items()})
        real(self)

    monkeypatch.setattr(CochainComplex, "verify", recording)
    g = su2()
    table = relative_ce_cohomology(g, parse_span("span{T}", g), GModule.trivial(g))
    dims = table.meta["cochain_dims"]
    assert {k: (dims.get(k + 1, 0), dims[k]) for k in dims} in seen


def test_relative_rejects_a_non_invariant_image(monkeypatch):
    # with Theta_1 replaced by the identity no 1-cochain is invariant, yet d
    # sends the invariant 0-cochain T of the adjoint module to X -> [X, T] != 0
    # Theta_1 is the block of d on the rows ((u_0,) + K, a) over the 1-subsets K of W;
    # on the default complement T is a torus element and has no Theta rows,
    # so the frame takes the complement [X, Y]
    real = cohomology._differential_matrix

    def corrupted(structure, rows, cols):
        m = real(structure, rows, cols)
        if {S for S, _ in rows} == {(0, 1), (0, 2)}:
            m.data = [{r: (m.den, 0)} for r in range(m.rows)]
        return m

    monkeypatch.setattr(cohomology, "_differential_matrix", corrupted)
    g = su2()
    with complement_rule([g.basis_vector(1), g.basis_vector(2)]):
        frame = AdaptedFrame(g, parse_span("span{T}", g))
    with pytest.raises(AssertionError, match="image of invariant cochain is not invariant"):
        frame.relative_cohomology(GModule.adjoint(g))


# -- complexes as values ---------------------------------------------------------


def test_ce_complex_labels_and_verify():
    g = su2()
    complex_ = ce_complex(g, GModule.trivial(g))
    assert complex_.labels[0] == ["1"]
    assert complex_.labels[2] == ["T∧X", "T∧Y", "X∧Y"]
    assert complex_.int_differentials[1].cols == 3
    complex_.verify()


def test_bigraded_complex_dprime_matrix_su2():
    # p = 0 row for h = span{T, L}: d' tau1 = 0 and d' tau2 = -2i tau1^tau2,
    # so the matrix from q=1 to q=2 is the 1x2 row [0, -2i]
    g = su2()
    h = parse_span("span{T, X-iY}", g)
    complex_ = bigraded_complex(g, h, 0)
    assert complex_.labels[1] == ["τ1", "τ2"]
    assert complex_.differentials[1] == ExactMatrix.from_rows([[Q(0), Q(0, -2)]])
    assert complex_.int_differentials[1].cols == comb(2, 1)


def test_bigraded_complex_space_dims():
    g = su3()
    h = parse_span("span{X1-iY1, X2-iY2, X3-iY3, T2}", g)
    n, m = h.dim, g.dim - h.dim
    for p in range(m + 1):
        complex_ = bigraded_complex(g, h, p)
        assert {q: d.cols for q, d in complex_.int_differentials.items()} == {
            q: comb(m, p) * comb(n, q) for q in range(n + 1)}


def test_frame_complexes_count_their_cochains():
    # the frame's complexes name no cells; d_k's columns count the cochains
    # of degree k.  Plain su3 keeps the weight-zero cells of a maximal
    # torus: 1, the 2 torus duals, C(2, 2) + 3 root pairs, and 2 * 3 + the
    # 2 root triples that sum to zero
    def cells(complex_):
        return [d.cols for k, d in sorted(complex_.int_differentials.items())]

    g = su3()
    plain = AdaptedFrame(cohomology.basised(g), None).relative_complex(GModule.trivial(g))
    assert cells(plain)[:4] == [1, 2, 4, 8]
    # relative to the torus: the weight-zero subsets of the 6 roots, and
    # nothing past the top degree
    frame = AdaptedFrame(cohomology.basised(g), parse_span("span{T1, T2}", g))
    relative = frame.relative_complex(GModule.trivial(g))
    assert cells(relative) == [1, 0, 3, 2, 3, 0, 1]
    for complex_ in (plain, relative):
        dims = complex_.cohomology().dims
        assert sum((-1) ** k * (c - dims[k]) for k, c in enumerate(cells(complex_))) == 0


# -- d' against the full trivial-coefficient complex of g ------------------------
#
# The reference filters the trivial-coefficient differential of g in the
# adapted basis (h first, complement second) to the cochains with exactly p
# complement factors: components with more are killed by the quotient, and
# components with fewer vanish because h is closed.  zeta_I wedge tau_J is
# (-1)^{pq} times the ascending wedge tau_J wedge zeta_I, so embedding and
# extraction contribute (-1)^{pq} and (-1)^{p(q+1)}.


def reference_dprime(g, h, p):
    frame = AdaptedFrame(g, h)
    n, m = frame.dim_u, frame.codim
    trivial = GModule.trivial(frame.adapted)

    def basis(q):
        return [(I, J) for I in combinations(range(m), p) for J in combinations(range(n), q)]

    out = {}
    for q in range(n + 1):
        k = p + q
        full = ce_differential(frame.adapted, trivial, k).row_list()
        dom_index = {s: i for i, s in enumerate(combinations(range(g.dim), k))}
        cod_subsets = list(combinations(range(g.dim), k + 1))
        dom, cod = basis(q), basis(q + 1)
        cod_index = {b: i for i, b in enumerate(cod)}
        sign = (-1) ** (p * q) * (-1) ** (p * (q + 1))
        data = [[Q(0)] * len(dom) for _ in cod]
        for d_idx, (I, J) in enumerate(dom):
            column = dom_index[J + tuple(n + i for i in I)]
            for S2, row in zip(cod_subsets, full):
                x = row[column]
                if x.is_zero():
                    continue
                zetas = tuple(s - n for s in S2 if s >= n)
                assert len(zetas) >= p, "differential dropped below the complement filtration"
                if len(zetas) == p:
                    data[cod_index[(zetas, tuple(s for s in S2 if s < n))]][d_idx] = x * sign
        out[q] = ExactMatrix(len(cod), len(dom), data)
    return out


def test_dprime_matches_full_complex_filter():
    su2_, su3_, torus2 = su2(), su3(), torus(2)
    pairs = [
        (su2_, parse_span("span{T, X-iY}", su2_)),
        (su2_, parse_span("span{X-iY}", su2_)),
        (su2_, Subalgebra.full(su2_)),
        (su2_, Subalgebra.span(su2_, [])),
        (su3_, parse_span("span{X1-iY1, X2-iY2, X3-iY3}", su3_)),
        (su3_, parse_span("span{X1-iY1, X2-iY2, X3-iY3, T1, T2}", su3_)),
        (su3_, parse_span("span{X1-iY1, X2-iY2, X3-iY3, T2}", su3_)),
        (su3_, parse_span("span{X1-iY1, X2-iY2, X3-iY3, T1+iT2}", su3_)),
        (torus2, parse_span("span{D1-2/3D2}", torus2)),
    ]
    rng = random.Random(11)
    for _ in range(6):
        g = two_step_nilpotent(rng, 3, 1)
        pairs.append((g, random_nilpotent_subalgebra(rng, g, 3, 1)))
    for g, h in pairs:
        with complement_rule(reference_complement_basis(g, h)):
            for p in range(g.dim - h.dim + 1):
                assert bigraded_complex(g, h, p).differentials == reference_dprime(g, h, p)


# -- relative d against the full complex of the adapted algebra -------------------
#
# The reference builds the full complex of the acting algebra in the adapted
# basis (u first, complement W second) and keeps the cochains on W-subsets.
# By Cartan's formula theta(u_i) c = i(u_i) dc for a cochain c that vanishes
# on u, so c is u-invariant exactly when dc vanishes on every argument tuple
# with one u entry; the tuples with two or more vanish because u is closed.
# The images of invariant cochains therefore never touch a u argument, which
# the reference asserts, and their W-parts are solved for in the next
# invariant basis.  Kernel bases are normalised at the free columns, so they
# depend only on the subspace and the reference and the library pick the
# same ones.


def adapted_module(frame, module):
    """The module on the frame's adapted basis: each action is the sum of
    the acting-basis actions weighted by the adapted vector's coordinates."""
    actions = []
    for coords in frame.coords:
        mat = ExactMatrix.zero(module.dim, module.dim)
        for j, c in enumerate(coords):
            mat = mat + module.actions[j].scale(c)
        actions.append(mat)
    return GModule(frame.adapted, module.dim, actions)


def reference_relative(acting, u, module):
    """(differentials, dims, meta) of the relative complex, from the full
    adapted complex."""
    frame = AdaptedFrame(acting, u)
    n, dim_u, q, dim_m = frame.adapted.dim, frame.dim_u, frame.codim, module.dim
    adapted = adapted_module(frame, module)

    def cells(k, keep):
        """Positions of the (subset, module index) cells whose subset
        satisfies keep(subset), in the full degree-k basis."""
        return [
            s * dim_m + a
            for s, S in enumerate(combinations(range(n), k)) if keep(S)
            for a in range(dim_m)
        ]

    def on_w(S):
        return all(x >= dim_u for x in S)

    full = {k: ce_differential(frame.adapted, adapted, k).row_list() for k in range(q + 1)}
    bases = {q + 1: []}
    for k in range(q + 1):
        cols = cells(k, on_w)
        rows = cells(k + 1, lambda S: sum(1 for x in S if x < dim_u) == 1)
        bases[k] = rank_kernel(
            ExactMatrix(len(rows), len(cols), [[full[k][r][c] for c in cols] for r in rows])
        )[1]
    differentials = {}
    for k in range(q + 1):
        cols, w_rows = cells(k, on_w), cells(k + 1, on_w)
        cod = bases[k + 1]
        cod_matrix = ExactMatrix(
            len(w_rows), len(cod), [[v[r] for v in cod] for r in range(len(w_rows))]
        )
        solutions = []
        for vec in bases[k]:
            image = [sum((row[c] * x for c, x in zip(cols, vec)), Q(0)) for row in full[k]]
            kept = set(w_rows)
            assert all(
                x.is_zero() for r, x in enumerate(image) if r not in kept
            ), "differential of an invariant relative cochain touched a u argument"
            solution = solve_linear(cod_matrix, [image[r] for r in w_rows])
            assert solution is not None, "image of invariant cochain is not invariant"
            solutions.append(solution)
        differentials[k] = ExactMatrix(
            len(cod), len(bases[k]), [[x[r] for x in solutions] for r in range(len(cod))]
        )
    ranks = {k: rank_kernel(m)[0] for k, m in differentials.items()}
    dims = {k: len(bases[k]) - ranks[k] - ranks.get(k - 1, 0) for k in range(q + 1)}
    # a zero u takes the plain path, whose table carries no meta
    meta = {} if dim_u == 0 else {
        "relative_pair_dim": dim_u,
        "cochain_dims": {k: len(bases[k]) for k in range(q + 1)},
    }
    return differentials, dims, meta


def _relative_cases():
    g2, g3 = su2(), su3()
    t, t12 = parse_span("span{T}", g2), parse_span("span{T1, T2}", g3)
    cases = [
        (g2, t, GModule.trivial(g2)),
        (g2, t, GModule.adjoint(g2)),
        (g3, t12, GModule.trivial(g3)),
        (g3, parse_span("span{T1}", g3), GModule.trivial(g3)),
    ]
    h5 = parse_span("span{X1-iY1, X2-iY2, X3-iY3, T1, T2}", g3)
    for p in range(4):
        module = reference_quotient_module(g3, h5, p)
        cases.append((cohomology.basised(h5), t12, module))
    borel = parse_span("span{T, X-iY}", g2)
    weight = GModule(
        borel, 1, [ExactMatrix.from_rows([[Q(0, 2)]]), ExactMatrix.from_rows([[Q(0)]])]
    )
    cases += [(borel, t, GModule.trivial(borel)), (borel, t, weight)]
    pairs = _algebra_subalgebra_cases(random.Random(1207))
    for _ in range(14):
        g, u = next(pairs)
        cases += [(g, u, GModule.trivial(g)), (g, u, GModule.adjoint(g))]
    return cases


def test_relative_differentials_match_full_adapted_complex(monkeypatch):
    seen = []
    real = CochainComplex.verify

    def recording(self):
        seen.append(self.differentials)
        real(self)

    monkeypatch.setattr(CochainComplex, "verify", recording)
    for acting, u, module in _relative_cases():
        seen.clear()
        table = relative_ce_cohomology(acting, u, module)
        differentials, dims, meta = reference_relative(acting, u, module)
        assert seen == [differentials]
        assert (table.dims, table.meta) == (dims, meta)


# -- Theta and d' against their former loops ----------------------------------------
#
# The Lie derivatives theta(u_i) and the bigraded d' are blocks of the one
# differential builder.  These references are the loops they replaced: the
# Lie derivative written out on Lambda^k(W)^* tensor M with the brackets
# taken modulo u, and d' as CE(h; Lambda^p(g/h)^*) of the dual quotient
# module, permuted from (J major, I minor) to (I major, J minor) and
# multiplied by (-1)^p.  Both must agree entry for entry, sparse rows
# included.  The blocks of d carry the denominator of the whole adapted
# table, which for a table with fractions can be a multiple f of the one the
# former loop saw; the integer rows are then f times the reference's.


def reference_lie_derivative(structure, dim_m, dim_u, q, k, i):
    """theta(X_i) on Lambda^k(W)^* tensor M for W the last q vectors of the
    adapted basis, brackets taken modulo the first dim_u."""
    den, brackets, acts = structure
    subs = list(combinations(range(q), k))
    index = {s: r for r, s in enumerate(subs)}
    rows = []
    for K in subs:
        # module part
        block = [{index[K] * dim_m + a: x for a, x in entries.items()} for entries in acts[i]]
        # argument part: replace K[pos] by [X_i, W_{K[pos]}] mod u
        for pos in range(k):
            rest = K[:pos] + K[pos + 1:]
            for l, (re, im) in brackets.get((i, dim_u + K[pos]), ()):
                wl = l - dim_u
                if wl < 0 or wl in rest:
                    continue
                p_new = sum(1 for x in rest if x < wl)
                sign = -1 if (pos - p_new) % 2 == 0 else 1
                for a, target in enumerate(block):
                    col = index[tuple(sorted(rest + (wl,)))] * dim_m + a
                    old = target.get(col, (0, 0))
                    target[col] = (old[0] + sign * re, old[1] + sign * im)
        rows.extend({j: x for j, x in target.items() if x != (0, 0)} for target in block)
    return ScaledIntMatrix(len(rows), len(subs) * dim_m, den, rows)


def reference_row_differential(g, h, frame, p, q):
    """d' from (p, q) to (p, q + 1), from CE(h; Lambda^p(g/h)^*) with the
    brute-force quotient module on the frame's complement."""
    module = reference_quotient_module(g, h, p, frame.complement)
    n, dim_m = frame.dim_u, module.dim
    structure = cohomology._integer_structure(cohomology.basised(h), module.actions)
    ce = cohomology._differential_matrix(
        structure, cohomology._cells(n, q + 1, dim_m), cohomology._cells(n, q, dim_m)
    )
    sign = -1 if p % 2 else 1
    dom, cod = comb(n, q), comb(n, q + 1)
    rows = [None] * ce.rows
    for r, row in enumerate(ce.data):
        J, a = divmod(r, dim_m)
        rows[a * cod + J] = {
            (c % dim_m) * dom + c // dim_m: (sign * re, sign * im) for c, (re, im) in row.items()
        }
    return ScaledIntMatrix(ce.rows, ce.cols, ce.den, rows)


def assert_same_block(block, reference):
    """Same shape and sparse rows, over a denominator that is an integer
    multiple of the reference's.  The multiple is returned."""
    f, r = divmod(block.den, reference.den)
    assert r == 0
    assert (block.rows, block.cols) == (reference.rows, reference.cols)
    assert block.data == [
        {j: (f * re, f * im) for j, (re, im) in row.items()} for row in reference.data
    ]
    return f


def _frame_pairs():
    g2, g3, t2 = su2(), su3(), torus(2)
    pairs = [
        (g2, parse_span("span{T}", g2)),
        (g2, parse_span("span{T, X-iY}", g2)),
        (g2, parse_span("span{X-iY}", g2)),
        (g3, parse_span("span{T1, T2}", g3)),
        (g3, parse_span("span{T1}", g3)),
        (g3, parse_span("span{X1-iY1, X2-iY2, X3-iY3}", g3)),
        (g3, parse_span("span{X1-iY1, X2-iY2, X3-iY3, T1, T2}", g3)),
        (g3, parse_span("span{X1-iY1, X2-iY2, X3-iY3, T1+iT2}", g3)),
        (t2, parse_span("span{D1-2/3D2}", t2)),
    ]
    cases = _algebra_subalgebra_cases(random.Random(1210))
    pairs += [next(cases) for _ in range(12)]
    return pairs


def test_theta_blocks_match_reference_lie_derivative():
    checked = 0
    cases = [(g, u, module) for g, u in _frame_pairs()
             for module in (GModule.trivial(g), GModule.adjoint(g))]
    g3 = su3()
    h5 = parse_span("span{X1-iY1, X2-iY2, X3-iY3, T1, T2}", g3)
    t12 = parse_span("span{T1, T2}", g3)
    for p in range(4):
        module = reference_quotient_module(g3, h5, p)
        cases.append((cohomology.basised(h5), t12, module))
    for acting, u, module in cases:
        frame = AdaptedFrame(acting, u)
        adapted = adapted_module(frame, module)
        structure = cohomology._integer_structure(frame.adapted, adapted.actions)
        for k, cols in enumerate(frame._w_cells([0] * frame.adapted.dim, [0] * module.dim, 0)):
            for i in range(frame.dim_u):
                # theta(u_i): the block of d on the rows ((i,) + K, a)
                block = cohomology._differential_matrix(
                    structure, [((i,) + K, a) for K, a in cols], cols
                )
                reference = reference_lie_derivative(
                    structure, module.dim, frame.dim_u, frame.codim, k, i
                )
                assert assert_same_block(block, reference) == 1
                checked += 1
    assert checked > 400


def test_dprime_blocks_match_reference_row_differential():
    for g, h in _frame_pairs():
        with complement_rule(reference_complement_basis(g, h)):
            frame = AdaptedFrame(g, h)
        for p in range(frame.codim + 1):
            row = cohomology._bigraded_row(frame, p)
            for q in range(frame.dim_u + 1):
                f = assert_same_block(
                    row.int_differentials[q], reference_row_differential(g, h, frame, p, q)
                )
                # integer tables (su2, su3, tori) keep their denominator
                assert f == 1 or frame._trivial[0] > 1


# -- bigraded cohomology -------------------------------------------------------------


def test_bigraded_su2_elliptic_table():
    g = su2()
    h = parse_span("span{T, X-iY}", g)
    table = bigraded_cohomology(g, h)
    assert table.row(0) == [1, 1, 0]
    assert table.row(1) == [0, 1, 1]


def test_bigraded_representative_in_degree_01():
    g = su2()
    h = parse_span("span{T, X-iY}", g)
    table = bigraded_cohomology(g, h, representatives=True)
    reps = table.representatives[(0, 1)]
    assert len(reps) == 1
    # the class is the dual of T (first h basis vector): coordinates (1, 0)
    # on the cells τ1, τ2
    assert reps[0] == {"τ1": Q(1)}


def test_bigraded_full_subalgebra_collapses_to_de_rham():
    g = su2()
    table = bigraded_cohomology(g, Subalgebra.full(g))
    assert [table.dims.get((0, q), 0) for q in range(4)] == [1, 0, 0, 1]
    assert all(p == 0 for (p, _) in table.dims)


def test_bigraded_torus_rational_slope():
    g = torus(2)
    h = parse_span("span{D1-2/3D2}", g)
    table = bigraded_cohomology(g, h)
    assert table.dims[(0, 0)] == 1
    assert table.dims[(0, 1)] == 1
    assert "injective" in table.meta["note"]


def test_bigraded_zero_subalgebra():
    # with h = 0 everything sits in q = 0 and d' vanishes, so the table is
    # the exterior algebra dimensions
    g = su2()
    table = bigraded_cohomology(g, Subalgebra.span(g, []))
    assert [table.dims.get((p, 0), 0) for p in range(4)] == [1, 3, 3, 1]


def test_bigraded_space_dimensions_and_euler():
    g = su3()
    h = parse_span("span{X1-iY1, X2-iY2, X3-iY3, T2}", g)
    assert h.is_subalgebra() is None
    n, m = h.dim, g.dim - h.dim
    table = bigraded_cohomology(g, h)
    for p in range(m + 1):
        space_euler = sum((-1) ** q * comb(m, p) * comb(n, q) for q in range(n + 1))
        coh_euler = sum((-1) ** q * table.dims.get((p, q), 0) for q in range(n + 1))
        assert space_euler == coh_euler


def test_bigraded_dims_independent_of_complement_choice():
    g = su2()
    h = parse_span("span{T, X-iY}", g)
    base = bigraded_cohomology(g, h)
    comp = reference_complement_basis(g, h)
    for perm in permutations(range(len(comp))):
        with complement_rule([comp[i] for i in perm]):
            again = bigraded_cohomology(g, h)
        assert again.dims == base.dims
    # a genuinely different complement: X instead of conj(L)
    with complement_rule([[Q(0), Q(1), Q(0)]]):
        other = bigraded_cohomology(g, h)
    assert other.dims == base.dims


def assert_corrupted_row_zero_is_caught(monkeypatch, g, text, blocks, representatives):
    """d'_q of row p = 0 is the block of d on the columns of degree q;
    `blocks` replaces those of the given columns."""
    real = cohomology._differential_matrix

    def corrupted(structure, rows, cols):
        block = blocks.get(tuple(cols))
        if block is not None:
            assert len(rows) == len(block)
            return ScaledIntMatrix.from_exact(ExactMatrix.from_rows(block))
        return real(structure, rows, cols)

    monkeypatch.setattr(cohomology, "_differential_matrix", corrupted)
    with pytest.raises(AssertionError, match=r"d' o d' is nonzero at \(p, q\) = \(0, 0\)"):
        bigraded_cohomology(g, parse_span(text, g), representatives=representatives)


def test_corrupted_dprime_is_caught(monkeypatch):
    # representatives read the graded row too: row 0 of h5 keeps the
    # subsets of tau1 = T1 and tau2 = T2, and its corrupted d'_0 = [1, 0]^T
    # and d'_1 = [1, 0] compose to [1]
    assert_corrupted_row_zero_is_caught(
        monkeypatch, su3(), "span{X1-iY1, X2-iY2, X3-iY3, T1, T2}",
        {(((), 0),): [[Q(1)], [Q(0)]], (((0,), 0), ((1,), 0)): [[Q(1), Q(0)]]}, True,
    )


def test_corrupted_graded_dprime_is_caught(monkeypatch):
    # graded by the torus {T1, T2} of h5, row 0 keeps the subsets of
    # tau1 = T1 and tau2 = T2, where d' is zero; d'_0 = [1, 0]^T and
    # d'_1 = [1, 0] of that row are corrupted
    assert_corrupted_row_zero_is_caught(
        monkeypatch, su3(), "span{X1-iY1, X2-iY2, X3-iY3, T1, T2}",
        {(((), 0),): [[Q(1)], [Q(0)]], (((0,), 0), ((1,), 0)): [[Q(1), Q(0)]]}, False,
    )


# -- Bott-Kostant: H^{p,q}(g; t_C + n+) = #{w in W : l(w) = p} * C(rank, q - p)


def bott_kostant_dims(lengths, rank, m, n):
    return {
        (p, q): lengths[p] * comb(rank, q - p) if 0 <= q - p <= rank else 0
        for p in range(m + 1)
        for q in range(n + 1)
    }


@pytest.mark.parametrize(
    "algebra, torus_span, lengths, chambers",
    [(su2, "span{T}", [1, 1], 2), (su3, "span{T1, T2}", [1, 2, 2, 1], 6)],
)
def test_bigraded_elliptic_standard_matches_bott_kostant(algebra, torus_span, lengths, chambers):
    g = algebra()
    rd = root_decomposition(g, parse_span(torus_span, g))
    rank = rd.torus.dim
    found = closed_chambers(rd)
    assert len(found) == chambers
    for plus in found:
        h = build_standard(rd, rank, 0, plus).subalgebra
        table = bigraded_cohomology(g, h)
        n, m = h.dim, g.dim - h.dim
        assert {key: table.dims.get(key, 0) for key in bott_kostant_dims(lengths, rank, m, n)} == (
            bott_kostant_dims(lengths, rank, m, n)
        )


def test_bigraded_random_nilpotent_closed():
    rng = random.Random(5)
    for _ in range(6):
        g = two_step_nilpotent(rng, 3, 1)
        h = random_nilpotent_subalgebra(rng, g, 3, 1)
        table = bigraded_cohomology(g, h)  # asserts d'd' = 0 internally
        n, m = h.dim, g.dim - h.dim
        for p in range(m + 1):
            space = sum((-1) ** q * comb(m, p) * comb(n, q) for q in range(n + 1))
            coh = sum((-1) ** q * table.dims.get((p, q), 0) for q in range(n + 1))
            assert space == coh


# -- table plumbing ---------------------------------------------------------------


def test_table_json_keys_are_stable():
    table = CohomologyTable(dims={(0, 1): 2, (1, 0): 3, 2: 1})
    out = table.to_json_dict()
    assert out["dims"] == {"0,1": 2, "1,0": 3, "2": 1}
