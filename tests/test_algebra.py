import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecoh.algebra import (
    AlgebraError,
    LieAlgebra,
    ParentMismatchError,
    Subalgebra,
    builtin_algebra,
    parse_span,
    su2,
    su3,
    torus,
)
from liecoh.linalg import ExactMatrix, solve_linear, vec_is_zero
from liecoh.scalars import GaussianRational as Q

from conftest import scalars, signed_permutation, single_entry_perturbations


# -- independent oracle: the defining matrix representations -----------------
#
# The builtin tables are checked against commutators of the actual 2x2 and
# 3x3 matrices, computed with exact arithmetic.


def mat(rows):
    return ExactMatrix.from_rows(rows)


def commutator(A, B):
    return A.matmul(B) - B.matmul(A)


SU2_MATRICES = {
    "T": mat([[Q(0, 1), Q(0)], [Q(0), Q(0, -1)]]),
    "X": mat([[Q(0), Q(0, 1)], [Q(0, 1), Q(0)]]),
    "Y": mat([[Q(0), Q(-1)], [Q(1), Q(0)]]),
}

SU3_MATRICES = {
    "T1": mat([[Q(0, 1), Q(0), Q(0)], [Q(0), Q(0, -1), Q(0)], [Q(0), Q(0), Q(0)]]),
    "T2": mat([[Q(0, 1), Q(0), Q(0)], [Q(0), Q(0, 1), Q(0)], [Q(0), Q(0), Q(0, -2)]]),
    "X1": mat([[Q(0), Q(0, 1), Q(0)], [Q(0, 1), Q(0), Q(0)], [Q(0), Q(0), Q(0)]]),
    "Y1": mat([[Q(0), Q(-1), Q(0)], [Q(1), Q(0), Q(0)], [Q(0), Q(0), Q(0)]]),
    "X2": mat([[Q(0), Q(0), Q(0, 1)], [Q(0), Q(0), Q(0)], [Q(0, 1), Q(0), Q(0)]]),
    "Y2": mat([[Q(0), Q(0), Q(-1)], [Q(0), Q(0), Q(0)], [Q(1), Q(0), Q(0)]]),
    "X3": mat([[Q(0), Q(0), Q(0)], [Q(0), Q(0), Q(0, 1)], [Q(0), Q(0, 1), Q(0)]]),
    "Y3": mat([[Q(0), Q(0), Q(0)], [Q(0), Q(0), Q(-1)], [Q(0), Q(1), Q(0)]]),
}


def structure_constants_from_matrices(g, matrices):
    """Solve [A_j, A_k] = sum_l c_l A_l in the flattened matrix space."""
    names = g.basis_names
    size = matrices[names[0]].rows
    flat = []
    for name in names:
        M = matrices[name]
        flat.append([M[i, j] for i in range(size) for j in range(size)])
    basis_matrix = ExactMatrix.from_rows(
        [[flat[c][r] for c in range(len(names))] for r in range(size * size)]
    )
    table = {}
    for j in range(len(names)):
        for k in range(j + 1, len(names)):
            C = commutator(matrices[names[j]], matrices[names[k]])
            target = [C[a, b] for a in range(size) for b in range(size)]
            coords = solve_linear(basis_matrix, target)
            assert coords is not None, "commutator leaves the span of the basis"
            table[(j, k)] = {l: c for l, c in enumerate(coords) if not c.is_zero()}
    return table


@pytest.mark.parametrize(
    "algebra,matrices", [(su2(), SU2_MATRICES), (su3(), SU3_MATRICES)]
)
def test_builtin_tables_match_matrix_commutators(algebra, matrices):
    oracle = structure_constants_from_matrices(algebra, matrices)
    for (j, k), coeffs in oracle.items():
        stored = algebra.structure_coeffs(j, k)
        assert {l: Q(c) for l, c in stored.items()} == coeffs, (j, k)
    # and the other direction: no stored pair missing from the oracle
    for j, k in algebra.bracket_pairs():
        assert oracle.get((j, k), {}) == {
            l: Q(c) for l, c in algebra.structure_coeffs(j, k).items()
        }


def test_builtins_satisfy_jacobi():
    assert su2().validate() is None
    assert su3().validate() is None
    assert torus(4).validate() is None


def test_perturbed_constant_fails_jacobi_with_witness():
    # add a T component to [T, X]: the Jacobi sum on (T, X, Y) becomes
    # [[T,X],Y] + [[X,Y],T] + [[Y,T],X] = [T,Y] = -2X, nonzero
    g = LieAlgebra(
        "perturbed-su2",
        ("T", "X", "Y"),
        {(0, 1): {0: 1, 2: 2}, (0, 2): {1: -2}, (1, 2): {0: 2}},
    )
    assert g.validate() == (0, 1, 2)


def test_su3_single_constant_perturbation_rejected():
    g = su3()
    table = {pair: dict(g.structure_coeffs(*pair)) for pair in g.bracket_pairs()}
    table[(0, 2)] = {3: 3}  # [T1, X1] = 3 Y1 instead of 2 Y1
    perturbed = LieAlgebra("perturbed-su3", g.basis_names, table)
    witness = perturbed.validate()
    assert witness is not None
    # independent re-check of the reported triple
    j, k, l = witness
    e = perturbed.basis_vector
    total = perturbed.bracket(perturbed.bracket(e(j), e(k)), e(l))
    total = [a + b for a, b in zip(total, perturbed.bracket(perturbed.bracket(e(k), e(l)), e(j)))]
    total = [a + b for a, b in zip(total, perturbed.bracket(perturbed.bracket(e(l), e(j)), e(k)))]
    assert not vec_is_zero(total)


def reference_jacobi(g):
    """The Jacobi check as it was before `validate` read the structure
    constants: five brackets of basis vectors per triple, in Q(i)."""
    n = g.dim
    for j in range(n):
        ej = g.basis_vector(j)
        for k in range(j + 1, n):
            ek = g.basis_vector(k)
            jk = g.bracket(ej, ek)
            for l in range(k + 1, n):
                el = g.basis_vector(l)
                total = g.bracket(jk, el)
                total = [a + b for a, b in zip(total, g.bracket(g.bracket(ek, el), ej))]
                total = [a + b for a, b in zip(total, g.bracket(g.bracket(el, ej), ek))]
                if not vec_is_zero(total):
                    return (j, k, l)
    return None


def test_validate_matches_reference_jacobi():
    rng = random.Random(20261018)
    bases = [su2(), su3(), signed_permutation(su3(), rng)]
    cases = bases + [p for g in bases for p in single_entry_perturbations(g, rng, 20)]
    witnesses = []
    for g in cases:
        witness = g.validate()
        assert witness == reference_jacobi(g), g.to_json_dict()
        if witness is not None:
            witnesses.append(witness)
    assert all(g.validate() is None for g in bases)
    assert len(witnesses) >= 20 and len(set(witnesses)) >= 5


# -- bracket fixtures ---------------------------------------------------------


def test_bracket_t_with_l():
    g = su2()
    T = g.basis_vector(0)
    L = [Q(0), Q(1), Q(0, -1)]  # X - iY
    # [T, X - iY] = 2Y + 2iX = 2i (X - iY)
    assert g.bracket(T, L) == [Q(0, 2) * x for x in L]


def test_bracket_antisymmetric_on_basis():
    g = su2()
    X = g.basis_vector(1)
    assert vec_is_zero(g.bracket(X, X))


def test_su3_bracket_x2_y2():
    g = su3()
    out = g.bracket(g.basis_vector(4), g.basis_vector(5))
    expected = [Q(0)] * 8
    expected[0] = Q(1)
    expected[1] = Q(1)
    assert out == expected  # T2 + T1


@given(st.lists(scalars, min_size=3, max_size=3), st.lists(scalars, min_size=3, max_size=3))
def test_bracket_antisymmetry_random(v, w):
    g = su2()
    vw = g.bracket(v, w)
    wv = g.bracket(w, v)
    assert vw == [-x for x in wv]


# -- subspaces ----------------------------------------------------------------


def test_conj_fixture():
    g = su2()
    h = Subalgebra.span(g, [[Q(0), Q(1), Q(0, -1)]])
    assert h.conj().vectors() == [[Q(0), Q(1), Q(0, 1)]]


def test_conj_is_involution():
    g = su2()
    h = parse_span("span{T, X-iY}", g)
    assert h.conj().conj() == h


def test_sum_and_intersection_fixtures():
    g = su2()
    h = parse_span("span{T, X-iY}", g)
    hbar = h.conj()
    assert h.sum_with(hbar).dim == 3
    line = parse_span("span{X-iY}", g)
    assert line.intersect(line.conj()).dim == 0


@pytest.mark.parametrize("seed", range(12))
def test_modular_dimension_identity(seed):
    rng = random.Random(seed)
    g = su3()

    def rand_sub():
        k = rng.randint(0, 3)
        vecs = [
            [Q(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(8)] for _ in range(k)
        ]
        return Subalgebra.span(g, vecs)

    a, b = rand_sub(), rand_sub()
    assert a.sum_with(b).dim + a.intersect(b).dim == a.dim + b.dim


def test_parent_mismatch_rejected():
    a = parse_span("span{T}", su2())
    b = parse_span("span{D1}", torus(2))
    with pytest.raises(ParentMismatchError):
        a.sum_with(b)


def test_canonical_representation_is_basis_independent():
    g = su2()
    one = Subalgebra.span(g, [[Q(1), Q(1), Q(0)], [Q(0), Q(2), Q(0)]])
    two = Subalgebra.span(g, [[Q(1), Q(0), Q(0)], [Q(3), Q(1), Q(0)]])
    assert one == two


# -- closure ------------------------------------------------------------------


def test_is_subalgebra_fixtures():
    g3 = su3()
    cr = parse_span("span{X1-iY1, X2-iY2, X3-iY3}", g3)
    assert cr.is_subalgebra() is None
    g2 = su2()
    assert parse_span("span{X}", g2).is_subalgebra() is None
    witness = parse_span("span{X, Y}", g2).is_subalgebra()
    assert witness == (0, 1)  # [X, Y] = 2T is not in the span


def test_su3_l1_l3_bracket():
    # the CR span is closed because [L1, L3] = 2i L2
    g = su3()
    L1 = [Q(0)] * 8
    L1[2], L1[3] = Q(1), Q(0, -1)
    L3 = [Q(0)] * 8
    L3[6], L3[7] = Q(1), Q(0, -1)
    L2 = [Q(0)] * 8
    L2[4], L2[5] = Q(1), Q(0, -1)
    assert g.bracket(L1, L3) == [Q(0, 2) * x for x in L2]


# -- JSON and span parsing ----------------------------------------------------


def test_algebra_json_roundtrip():
    g = su3()
    data = json.loads(json.dumps(g.to_json_dict()))
    back = LieAlgebra.from_json_dict(data)
    assert back == g
    assert back.validate() is None


# entries with zeros, Gaussian integers and denominators, so that spans are
# often rank-deficient and echelon rows carry fractions
_coordinate_entries = st.one_of(
    st.just(Q(0)),
    st.just(Q(0)),
    st.builds(Q, st.integers(-3, 3), st.integers(-3, 3)),
    st.builds(Q, st.fractions(-2, 2, max_denominator=3), st.fractions(-2, 2, max_denominator=3)),
)


@st.composite
def _span_and_vector(draw):
    """A span of zero to four vectors in a four-dimensional algebra, and a
    test vector that is either a combination of the spanning vectors (a
    member) or drawn freely (usually not one)."""
    g = LieAlgebra("abelian4", ("A", "B", "C", "D"), {})
    vector = st.lists(_coordinate_entries, min_size=4, max_size=4)
    vectors = draw(st.lists(vector, min_size=0, max_size=4))
    h = Subalgebra.span(g, vectors)
    if vectors and draw(st.booleans()):
        v = [Q(0)] * 4
        for row in vectors:
            c = draw(_coordinate_entries)
            v = [x + c * y for x, y in zip(v, row)]
    else:
        v = draw(vector)
    return h, v


@given(_span_and_vector())
@settings(deadline=None, max_examples=300)
def test_coordinates_of_matches_solve_on_transposed_basis(case):
    # members, non-members and the zero subalgebra: the pivot reading with
    # its residual check gives what a solve against the basis columns gives
    h, v = case
    expected = solve_linear(h.basis.transpose(), v)
    assert h.coordinates_of(v) == expected
    assert h.contains(v) is (expected is not None)


def test_subalgebra_json_roundtrip():
    g = su2()
    h = parse_span("span{T, X-iY}", g)
    back = Subalgebra.from_json_dict(json.loads(json.dumps(h.to_json_dict())), g)
    assert back == h


def test_complex_structure_constant_rejected():
    data = {
        "name": "bad",
        "basis": ["A", "B"],
        "brackets": [{"on": ["A", "B"], "result": {"A": "i"}}],
    }
    with pytest.raises(AlgebraError):
        LieAlgebra.from_json_dict(data)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("span{T}", [[Q(1), Q(0), Q(0)]]),
        ("span{2T}", [[Q(1), Q(0), Q(0)]]),  # canonicalized
        ("span{X - iY}", [[Q(0), Q(1), Q(0, -1)]]),
        ("span{1/2X+3/4iY}", [[Q(0), Q(1), Q(0, 3) / Q(2)]]),
        ("span{T+X, -T}", [[Q(1), Q(0), Q(0)], [Q(0), Q(1), Q(0)]]),
        ("span{}", []),
    ],
)
def test_parse_span(text, expected):
    h = parse_span(text, su2())
    assert h.vectors() == expected


def test_parse_span_torus_names():
    h = parse_span("span{D1-iD2}", torus(2))
    assert h.vectors() == [[Q(1), Q(0, -1)]]


def test_parse_span_rejects_garbage():
    g = su2()
    with pytest.raises(AlgebraError, match=r"^dangling sign in span entry 'T\+'$"):
        parse_span("span{T+}", g)
    with pytest.raises(AlgebraError, match=r"^dangling sign in span entry '-'$"):
        parse_span("span{-}", g)
    with pytest.raises(AlgebraError, match=r"^expected '\+' or '-' at 'Y' in span entry$"):
        parse_span("span{X Y}", g)
    # a basis name inside a longer identifier is not a term
    with pytest.raises(AlgebraError, match=r"^cannot parse span term starting at 'XX'$"):
        parse_span("span{XX}", g)
    with pytest.raises(AlgebraError, match=r"^empty span entry$"):
        parse_span("span{X,,Y}", g)
    with pytest.raises(AlgebraError):
        parse_span("span{Q}", g)
    with pytest.raises(AlgebraError):
        parse_span("T, X", g)
    # a '*' follows a coefficient; with none before it the term is refused
    for text, rest in (("span{*X-iY}", "*X-iY"), ("span{X+*Y}", "*Y"), ("span{ * X}", "* X"),
                       ("span{-*X}", "*X")):
        message = f"cannot parse span term starting at '{rest}'"
        with pytest.raises(AlgebraError, match=f"^{re.escape(message)}$"):
            parse_span(text, g)
    assert parse_span("span{2*X}", g) == parse_span("span{X}", g)
    assert parse_span("span{2 * X}", g) == parse_span("span{X}", g)
    assert parse_span("span{i*X}", g) == parse_span("span{iX}", g)


def test_builtin_registry():
    assert builtin_algebra("su2").name == "su2"
    assert builtin_algebra("torus5").dim == 5
    with pytest.raises(AlgebraError):
        builtin_algebra("e8")
