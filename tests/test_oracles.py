"""Theorem oracles on su(4) and so(5), built from matrix commutators.

H^*(g) is the exterior algebra on generators of degrees 2e + 1 for the
exponents e of g (Chevalley-Eilenberg, Trans. AMS 63, 1948):
(1+t^3)(1+t^5)(1+t^7) on su4 and (1+t^3)(1+t^7) on so5.  H^*(g; ad) = 0
for semisimple g (Whitehead).  For the elliptic standard structure
t_C + n^+ of rank r, H^{p,q} = #{l(w) = p} C(r, q - p) over the Weyl group
W (Kostant, Ann. Math. 74, 1961): W = S_4 on su4, with length counts
[1, 3, 5, 6, 5, 3, 1], and W of type B_2 on so5, with [1, 2, 2, 2, 1].
H^*(g, t) for a maximal torus t is the cohomology of the flag manifold,
prod (1 + t^2 + ... + t^{2e}) over the exponents (Borel, Ann. Math. 57,
1953): (1+t^2)(1+t^2+t^4)(1+t^2+t^4+t^6) on su4.
"""

from math import comb

import pytest

from liecoh import cohomology
from liecoh.cohomology import (
    AdaptedFrame,
    GModule,
    basised,
    bigraded_cohomology,
    ce_cohomology,
    ce_complex,
)
from liecoh.decompose import full_assembly
from liecoh.roots import build_standard, root_decomposition
from liecoh.subalgebra import parse_span

from conftest import SU4_ELLIPTIC, so, su


def exterior(*degrees):
    """The Poincare polynomial prod (1 + t^d), as coefficients by degree."""
    coeffs = [1]
    for d in degrees:
        coeffs = [a + (coeffs[k - d] if k >= d else 0)
                  for k, a in enumerate(coeffs + [0] * d)]
    return coeffs


def kostant(lengths, rank, m, n):
    """#{l(w) = p} C(rank, q - p) for p <= m, q <= n."""
    return {(p, q): lengths[p] * comb(rank, q - p) if 0 <= q - p <= rank else 0
            for p in range(m + 1) for q in range(n + 1)}


def entries_of_d(monkeypatch, g, module):
    """(H^*(g; module) by `ce_cohomology`, the number of entries of d it
    reduced, the size of the plain frame's torus)."""
    cells = []
    real = cohomology._chain_dims

    def counted(matrices, degrees, representatives=False):
        cells.append(sum(matrices[k].rows * matrices[k].cols for k in degrees))
        return real(matrices, degrees, representatives)

    monkeypatch.setattr(cohomology, "_chain_dims", counted)
    table = ce_cohomology(g, module)
    return table, cells[0], len(AdaptedFrame(basised(g), None).torus)


def test_matrix_algebras_are_semisimple_of_the_expected_dimension():
    # matrix_algebra checks Jacobi; su2 and so3 are both su(2)
    assert (su(4).dim, so(5).dim) == (15, 10)
    for g in (su(2), so(3)):
        assert ce_cohomology(g, GModule.trivial(g)).degree_list() == exterior(3)


def test_su4_cohomology_is_exterior_on_degrees_3_5_7(monkeypatch):
    g = su(4)
    table, cells, torus = entries_of_d(monkeypatch, g, GModule.trivial(g))
    assert table.degree_list() == exterior(3, 5, 7)
    # the plain frame grades by a maximal torus of su4, whose weight zero
    # keeps 179559 entries of d (a one-element torus keeps far more)
    assert (torus, cells) == (3, 179559)


def test_su4_cohomology_relative_to_its_torus_is_the_flag_manifolds():
    g = su(4)
    frame = AdaptedFrame(g, parse_span("span{H1, H2, H3}", g))
    # the default complement is a weight basis, so the torus scan finds all
    # of t and no theta block is built; asserted first, because theta
    # blocks on every cell take minutes
    assert frame.torus == [0, 1, 2]
    table = frame.relative_cohomology(GModule.trivial(g))
    assert table.degree_list() == [1, 0, 3, 0, 5, 0, 6, 0, 5, 0, 3, 0, 1]


def test_so5_cohomology_is_exterior_on_degrees_3_7_and_matches_the_full_complex():
    g = so(5)
    table = ce_cohomology(g, GModule.trivial(g))
    assert table.degree_list() == exterior(3, 7)
    assert table.dims == ce_complex(g, GModule.trivial(g)).cohomology().dims


def test_so5_adjoint_cohomology_vanishes(monkeypatch):
    g = so(5)
    table, cells, torus = entries_of_d(monkeypatch, g, GModule.adjoint(g))
    assert table.dims == {k: 0 for k in range(g.dim + 1)}
    # graded by a maximal torus of so5 on g and on the module
    assert (torus, cells) == (2, 73712)


@pytest.mark.parametrize("build, span, lengths", [
    (lambda: su(4), SU4_ELLIPTIC, [1, 3, 5, 6, 5, 3, 1]),
    (lambda: so(5), None, [1, 2, 2, 2, 1]),
], ids=["su4", "so5"])
def test_elliptic_standard_structure_matches_kostant_and_the_assembly(build, span, lengths):
    g = build()
    if span is None:
        rd = root_decomposition(g, parse_span("span{L12, L34}", g))
        h = build_standard(rd, 2, 0).subalgebra
    else:
        h = parse_span(span, g)
    rank = g.dim - 2 * (g.dim - h.dim)
    table = bigraded_cohomology(g, h)
    expected = kostant(lengths, rank, g.dim - h.dim, h.dim)
    assert {key: table.dim(key) for key in expected} == expected
    assert full_assembly(g, h).table_dual.dims == table.dims
