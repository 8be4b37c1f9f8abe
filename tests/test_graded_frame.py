"""The graded frame against the ungraded one, and duality of H^{p,q}.

Each complex of an `AdaptedFrame` keeps only the cells of weight zero
under the torus elements of its acting algebra.  The oracle is the same
frame with its torus emptied, which keeps every cell, or the full rows
of `bigraded_complex`.  Duality H^{p,q} = H^{N-p, M-q} (N = codim h,
M = dim h; Hazewinkel, Math. USSR-Sb. 12, 1970) holds for every
subalgebra of a unimodular algebra and depends on neither path.
"""

import random
from math import comb

from liecoh import linalg
from liecoh.algebra import Subalgebra, parse_span, su2, su3, torus
from liecoh.cohomology import (
    AdaptedFrame,
    BasisedAlgebra,
    GModule,
    _bigraded_row,
    basised,
    bigraded_cohomology,
    ce_cohomology,
    extend_to_complement,
    relative_ce_cohomology,
)
from liecoh.decompose import full_assembly
from liecoh.roots import build_standard, root_decomposition

from conftest import (
    SU4_ELLIPTIC,
    closed_chambers,
    complement_rule,
    reference_complement_basis,
    reference_quotient_module,
    signed_permutation,
    su,
)
from property_suites import _algebra_subalgebra_cases

H5 = "span{X1-iY1, X2-iY2, X3-iY3, T1, T2}"
CR = "span{X1-iY1, X2-iY2, X3-iY3}"
COMPLEX = "span{X1-iY1, X2-iY2, X3-iY3, T1+iT2}"
STANDARD = {"elliptic": (2, 0), "complex": (0, 2), "cr": (0, 0)}


def ungraded(frame):
    """The frame with its torus emptied, before it grades a row or a
    fiber: every complex keeps every cell."""
    frame.torus = []
    return frame


def row_cells(frame):
    """The cells of every graded bigraded row of the frame."""
    lam = frame._grading(frame._trivial, frame.dim_u)[1]
    return sum(len(cells) for p in range(frame.codim + 1)
               for cells in frame._row_cells(p, 0, lam=lam))


def seeded_structures(count, seed=21):
    """(g, {class: h}) on signed permutations of su3, each with the
    standard structures of a seeded Weyl chamber, as the benchmark draws
    them."""
    rng = random.Random(seed)
    for _ in range(count):
        g = signed_permutation(su3(), rng)
        rd = root_decomposition(g, parse_span("span{T1, T2}", g))
        chamber = rng.choice(closed_chambers(rd))
        yield g, {cls: build_standard(rd, s, t, chamber).subalgebra
                  for cls, (s, t) in STANDARD.items()}


def _pairs():
    g2, g3, t2 = su2(), su3(), torus(2)
    pairs = [(g2, parse_span(text, g2)) for text in ("span{T, X-iY}", "span{X-iY}", "span{T}")]
    pairs += [(g2, Subalgebra.full(g2)), (g2, Subalgebra.span(g2, []))]
    pairs += [(g3, parse_span(text, g3)) for text in (
        H5, CR, COMPLEX, "span{X1-iY1, X2-iY2, X3-iY3, T2}", "span{T1, T2}", "span{T1}",
        "span{X1-iY1}", "span{X1-iY1, X2-iY2, T1+iT2}",
    )]
    pairs.append((t2, parse_span("span{D1-2/3D2}", t2)))
    cases = _algebra_subalgebra_cases(random.Random(2101))
    pairs += [next(cases) for _ in range(12)]
    return pairs


def test_the_scan_finds_the_torus_of_the_standard_structures():
    g = su3()
    for text, torus_text in ((H5, "span{T1, T2}"), (COMPLEX, "span{T1+iT2}"), (CR, None)):
        h = parse_span(text, g)
        with complement_rule(reference_complement_basis(g, h)):
            frame = AdaptedFrame(g, h)
        found = [frame.adapted.vectors[t] for t in frame.torus]
        if torus_text is None:
            assert found == []
        else:
            assert Subalgebra.span(g, found) == parse_span(torus_text, g)
    # with k = t listed first, the fibers of h5 keep no theta row
    h = parse_span(H5, g)
    with complement_rule(reference_complement_basis(g, h)):
        frame = AdaptedFrame(g, h, pair=h.intersect(h.conj()))
    assert frame.dim_k == 2 and frame.torus[:2] == [0, 1]


def test_graded_rows_match_the_full_rows():
    checked = 0
    for g, h in _pairs():
        with complement_rule(reference_complement_basis(g, h)):
            frame = AdaptedFrame(g, h)
        for p in range(frame.codim + 1):
            graded = _bigraded_row(frame, p, graded=True).cohomology().dims
            assert graded == _bigraded_row(frame, p).cohomology().dims, (g.name, h, p)
            checked += 1
        assert bigraded_cohomology(g, h).dims == bigraded_cohomology(
            g, h, representatives=True).dims
    assert checked > 60
    # h = 0 acts by nothing, so a torus of g does not grade its rows
    g = su3()
    h = parse_span(H5, g)
    with complement_rule(reference_complement_basis(g, h) + h.vectors()):
        frame = AdaptedFrame(g, None)
    assert frame.torus
    assert [_bigraded_row(frame, p, graded=True).cohomology().dims for p in range(9)] == [
        {0: comb(8, p)} for p in range(9)]


def test_graded_representatives_match_the_full_rows():
    # the weight-zero cells are a subsequence of the full row's, a block of
    # nonzero weight is acyclic and the RREF of a direct sum is the union
    # of the blockwise ones, so the classes of the graded rows, as maps
    # from cell label to coefficient, are those of the full rows
    seeded = [(g, h) for g, structures in seeded_structures(24) for h in structures.values()]
    for g, h in seeded + _pairs():
        table = bigraded_cohomology(g, h, representatives=True)
        frame = AdaptedFrame(g, h)
        for p in range(frame.codim + 1):
            row = _bigraded_row(frame, p)
            full = row.cohomology(representatives=True)
            for q in full.dims:
                classes = table.representatives[(p, q)]
                assert classes == full.representatives[q], (g.name, h, p, q)
                assert len(classes) == table.dims[(p, q)], (g.name, h, p, q)
                for rep in classes:
                    # the keys are the full row's labels, in its cell order
                    assert list(rep) == [name for name in row.labels[q] if name in rep], (
                        g.name, h, p, q)


def test_graded_fibers_match_the_ungraded_frame():
    checked = 0
    g3 = su3()
    pairs = [(g, u, pair) for g, u in _pairs()
             for pair in (Subalgebra.span(g, []), u.intersect(u.conj()))]
    # a pair with a root vector outside the torus keeps its theta rows,
    # which land on cells of that vector's weight
    pairs.append((g3, parse_span(H5, g3), parse_span("span{T1, T2, X1-iY1}", g3)))
    for g, u, pair in pairs:
        if pair.is_subalgebra() is not None:
            continue
        with complement_rule(reference_complement_basis(g, u)):
            graded = AdaptedFrame(g, u, pair=pair)
            full = ungraded(AdaptedFrame(g, u, pair=pair))
        assert graded.pair_cohomology().dims == full.pair_cohomology().dims
        for p in range(-1, graded.codim + 2):
            assert graded.fiber(p).dims == full.fiber(p).dims, (g.name, u, pair, p)
            checked += 1
    assert checked > 150


def test_graded_relative_cohomology_matches_every_cell():
    # a complement of weight vectors grades the relative complex by the
    # torus in u; the greedy complement from the acting basis does not
    g2, g3 = su2(), su3()
    roots3, roots2 = parse_span(CR, g3).vectors(), parse_span("span{X-iY}", g2).vectors()
    roots3 += [[x.conjugate() for x in row] for row in roots3]
    roots2 += [[x.conjugate() for x in row] for row in roots2]
    cases = [
        (g3, parse_span("span{T1, T2}", g3), roots3),
        (g3, parse_span("span{T1}", g3), roots3 + [g3.basis_vector(1)]),
        (g3, parse_span(H5, g3), None),
        (g3, parse_span(COMPLEX, g3), None),
        (g2, parse_span("span{T}", g2), roots2),
    ]
    checked = 0
    for g, u, complement in cases:
        complement = reference_complement_basis(g, u) if complement is None else complement
        for module in (GModule.trivial(g), GModule.adjoint(g)):
            with complement_rule(complement):
                graded = AdaptedFrame(g, u)
                full = ungraded(AdaptedFrame(g, u))
            table = graded.relative_cohomology(module)
            assert (table.dims, table.meta) == (
                full.relative_cohomology(module).dims, full.relative_cohomology(module).meta)
            checked += 1
    # the quotient modules of h5 over its torus: theta of T is diagonal
    h5, t12 = parse_span(H5, g3), parse_span("span{T1, T2}", g3)
    for p in range(4):
        module = reference_quotient_module(g3, h5, p)
        graded = AdaptedFrame(basised(h5), t12)
        full = ungraded(AdaptedFrame(basised(h5), t12))
        assert graded.relative_cohomology(module).dims == full.relative_cohomology(module).dims
        checked += 1
    assert checked == 14


def test_the_default_complement_grades_the_relative_pair():
    # the default complement is a joint eigenbasis of a commuting family
    # grown inside u, so the torus scan finds it; the dims and meta are
    # those of the pair on the greedy complement from the acting basis,
    # whose frame finds no torus
    g2, g3 = su2(), su3()
    assert AdaptedFrame(g3, parse_span("span{T1, T2}", g3)).torus == [0, 1]
    assert AdaptedFrame(g3, parse_span("span{T1}", g3)).torus == [0]
    for g, text in ((g2, "span{T}"), (g3, "span{T1}"), (g3, "span{T1, T2}")):
        u = parse_span(text, g)
        greedy = extend_to_complement(u.vectors(), [g.basis_vector(j) for j in range(g.dim)])
        with complement_rule(greedy):
            greedy_frame = AdaptedFrame(g, u)
        assert greedy_frame.torus == []
        for module in (GModule.trivial(g), GModule.adjoint(g)):
            graded = AdaptedFrame(g, u).relative_cohomology(module)
            full = greedy_frame.relative_cohomology(module)
            assert (graded.dims, graded.meta) == (full.dims, full.meta), (g.name, text)


def test_seeded_row_cells_and_dims():
    # the scan finds the torus of the elliptic and complex structures in
    # every presentation and chamber, and none in the CR structure
    counts = {"elliptic": set(), "complex": set(), "cr": set()}
    for i, (g, structures) in enumerate(seeded_structures(24)):
        for cls, h in structures.items():
            with complement_rule(reference_complement_basis(g, h)):
                frame = AdaptedFrame(g, h)
            counts[cls].add(row_cells(frame))
            assert row_cells(ungraded(frame)) == 256
            if i < 4:
                assert bigraded_cohomology(g, h).dims == bigraded_cohomology(
                    g, h, representatives=True).dims
    assert counts == {"elliptic": {40}, "complex": {40}, "cr": {256}}


def test_the_default_complement_takes_the_conjugates_first():
    # the conjugates of h's rows fill the complement of the elliptic and
    # complex structures, so the scan finds their torus in every
    # presentation and chamber; the CR and Levi spans leave a gap that
    # the acting basis fills, as the reference does
    sizes = {"elliptic": set(), "complex": set(), "cr": set()}
    for g, structures in seeded_structures(24):
        levi = structures["cr"].sum_with(parse_span("span{2T1+3T2}", g))
        for cls, h in [*structures.items(), ("levi", levi)]:
            frame = AdaptedFrame(g, h)
            assert frame.complement == reference_complement_basis(g, h), (cls, h)
            sizes.setdefault(cls, set()).add(len(frame.torus))
    assert sizes == {"elliptic": {2}, "complex": {1}, "cr": {0}, "levi": {1}}


def test_a_nilpotent_first_row_starts_no_family(monkeypatch):
    # the CR structure's conjugates leave a gap of 2 and its first row is
    # a root vector, whose nonzero nilpotent ad has no eigenbasis: the one
    # split the rule tries returns None, and the gap is filled from the
    # acting basis
    results = []
    split = linalg.refine_eigen

    def recorded(blocks, m):
        results.append(split(blocks, m))
        return results[-1]

    g = su3()
    h = parse_span(CR, g)
    monkeypatch.setattr(linalg, "refine_eigen", recorded)
    frame = AdaptedFrame(g, h)
    assert results == [None]
    assert frame.torus == []
    assert frame.complement == reference_complement_basis(g, h)


def test_conjugates_outside_the_acting_algebra_are_skipped():
    # conj(X1-iY1) = X1+iY1 lies outside h5, so the pick passes it over and
    # the complement comes from h5's own basis
    g = su3()
    h5 = parse_span(H5, g)
    for text, torus in (("span{X1-iY1}", []), ("span{T1, X1-iY1}", [0])):
        u = parse_span(text, g)
        frame = AdaptedFrame(h5, u)
        assert frame.torus == torus
        assert all(h5.contains(v) for v in frame.complement)
        table = frame.relative_cohomology(GModule.trivial(h5))
        full = ungraded(AdaptedFrame(h5, u)).relative_cohomology(GModule.trivial(h5))
        assert (table.dims, table.meta) == (full.dims, full.meta), text
        assert relative_ce_cohomology(h5, u, GModule.trivial(h5)).dims == table.dims


def test_a_complement_of_no_weight_vectors_falls_back_with_the_same_dims():
    g = su3()
    h = parse_span(H5, g)
    other = [g.basis_vector(g.basis_names.index(name)) for name in ("X1", "X2", "X3")]
    with complement_rule(other):
        frame = AdaptedFrame(g, h)
        dims = bigraded_cohomology(g, h).dims
    assert frame.torus == []
    assert row_cells(frame) == 256
    assert dims == bigraded_cohomology(g, h).dims


def dual(table, n, m):
    """Whether dims (p, q) and (N - p, M - q) agree everywhere."""
    return all(table.dims.get((p, q), 0) == table.dims.get((n - p, m - q), 0)
               for p in range(n + 1) for q in range(m + 1))


def test_bigraded_duality():
    g2, g3 = su2(), su3()
    cases = [(g3, parse_span(text, g3)) for text in (
        CR, H5, "span{X1-iY1}", "span{T1, T2}", "span{X1-iY1, X2-iY2, T1+iT2}", COMPLEX,
    )]
    cases.append((g2, parse_span("span{X-iY}", g2)))
    cases += [(g, h) for g, structures in seeded_structures(3, seed=2103)
              for h in structures.values()]
    g4 = su(4)
    cases.append((g4, parse_span(SU4_ELLIPTIC, g4)))
    for g, h in cases:
        table = bigraded_cohomology(g, h)
        assert sum(table.dims.values()) > 0
        assert dual(table, g.dim - h.dim, h.dim), h


def count_presentations(monkeypatch):
    """The argument lists of every BasisedAlgebra built from now on."""
    calls = []
    real = BasisedAlgebra.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(BasisedAlgebra, "__init__", counting)
    return calls


def test_plain_and_bigraded_queries_build_one_adapted_basis(monkeypatch):
    calls = count_presentations(monkeypatch)
    g = su3()
    for run in (lambda: ce_cohomology(g, GModule.trivial(g)),
                lambda: ce_cohomology(g, GModule.adjoint(g)),
                lambda: bigraded_cohomology(g, parse_span(H5, g))):
        calls.clear()
        run()
        assert len(calls) == 1


def test_a_relative_query_presents_its_acting_subalgebra_once(monkeypatch):
    # one BasisedAlgebra for h, however often its module and the relative
    # route ask for it, and one for the adapted basis of the pair
    calls = count_presentations(monkeypatch)
    g = su2()
    h, u = parse_span("span{T, X-iY}", g), parse_span("span{T}", g)
    table = relative_ce_cohomology(h, u, GModule.trivial(h))
    assert table.dims == {0: 1, 1: 0}
    assert len(calls) == 2


def test_accepted_assembly_runs_no_closure_check(monkeypatch):
    # the frame reads closure off its table; is_subalgebra runs only to
    # name the witness of a refusal
    def refused(self):
        raise AssertionError("is_subalgebra ran")

    g = su3()
    h = parse_span(H5, g)
    monkeypatch.setattr(Subalgebra, "is_subalgebra", refused)
    report = full_assembly(g, h)
    assert report.table_dual.dims == bigraded_cohomology(g, h).dims
