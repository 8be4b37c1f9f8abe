"""Tests of the benchmark itself: span arithmetic, generated inputs,
failure accounting and the host clock.  Run with ``python -m pytest bench``."""

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hostclock  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_times_on_a_synthetic_span_tree():
    tree = [
        ["cli.main", 0.0, 10.0, -1, "q0"],
        ["cohomology.ce_cohomology", 1.0, 9.0, 0, "q0"],
        ["linalg.rank_kernel", 2.0, 4.0, 1, "q0"],
        ["linalg.rank_kernel", 5.0, 8.0, 1, "q0"],
        ["linalg.solve_linear", 6.0, 7.0, 3, "q0"],
    ]
    assert spans.self_times(tree) == [2.0, 3.0, 2.0, 2.0, 1.0]
    m = spans.layer_metrics(tree)
    assert m["linalg.rank_kernel.calls"] == 2
    assert m["linalg.rank_kernel.self_s"] == 4.0
    assert m["linalg.busy_s"] == 5.0
    assert m["cli.main.self_s"] == 2.0
    assert m["trace.coverage"] == 0.8
    assert spans.layer_metrics(tree, rounds=2)["linalg.rank_kernel.calls"] == 1


def test_union_length_merges_overlaps():
    assert spans.union_length([(0, 2), (1, 3), (5, 6)]) == 4


def test_generated_presentations_pass_jacobi_and_are_su3():
    names, table = workloads.base_su3()
    for seed in range(5):
        pres = workloads.Presentation.draw(names, table, random.Random(seed))
        assert workloads.jacobi_witness(8, pres.table) is None
        # b_i = s_i e_{perm i}: pulling every bracket back gives su3's table
        for (i, j), coeffs in pres.table.items():
            a, b = pres.perm[i], pres.perm[j]
            want = table.get((a, b)) or {l: -c for l, c in table.get((b, a), {}).items()}
            got = {pres.perm[k]: c * pres.signs[i] * pres.signs[j] * pres.signs[k] for k, c in coeffs.items()}
            assert got == want


def test_jacobi_check_catches_a_wrong_constant():
    names, table = workloads.base_su3()
    broken = {k: dict(v) for k, v in table.items()}
    key = next(iter(broken))
    l = next(iter(broken[key]))
    broken[key][l] += 1
    assert workloads.jacobi_witness(8, broken) is not None


def test_plain_cohomology_agrees_across_seeds_on_su2(tmp_path):
    from liecoh import cli
    from liecoh.algebra import su2

    data = su2().to_json_dict()
    index = {n: i for i, n in enumerate(data["basis"])}
    table = {
        (index[a], index[b]): {index[n]: Fraction(c) for n, c in item["result"].items()}
        for item in data["brackets"]
        for a, b in [item["on"]]
    }
    answers = set()
    for seed in (1, 2):
        pres = workloads.Presentation.draw(data["basis"], table, random.Random(seed))
        path = tmp_path / f"su2-{seed}.json"
        path.write_text(json.dumps(pres.to_json_dict("su2")))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["cohomology", "--algebra", str(path), "--json"]) == 0
        answers.add(json.dumps(json.loads(out.getvalue())["table"]["dims"]))
    assert answers == {json.dumps({"0": 1, "1": 0, "2": 0, "3": 1})}


def test_scalar_parser_reads_the_library_grammar():
    from liecoh.scalars import format_scalar, parse_scalar

    for text in ["3", "-2/3", "i", "-i", "-1/5i", "1+i", "-3/5-i", "2/3+5/4i"]:
        z = parse_scalar(text)
        assert workloads.parse_gauss(format_scalar(z)) == (z.re, z.im)
        assert workloads.format_gauss((z.re, z.im)) == format_scalar(z)


def _ce_query():
    return workloads.Query(["cohomology", "--json"], "ce")


def _ce_output(dims):
    return json.dumps({"table": {"dims": {str(k): d for k, d in enumerate(dims)}}}).encode()


def test_wrong_answers_count_as_failures():
    outcomes = run.Outcomes(workloads)
    right = _ce_output(workloads.SU3_BETTI)
    assert outcomes.record(_ce_query(), 0, right)
    assert not outcomes.record(workloads.Query(["cohomology", "--x"], "ce"), 0, _ce_output([1, 0, 0, 1]))
    assert not outcomes.record(_ce_query(), 2, right)
    assert not outcomes.record(_ce_query(), None, b"")
    assert not outcomes.record(_ce_query(), 0, right.replace(b" ", b""))  # not byte-identical
    assert (outcomes.attempted, outcomes.failed) == (5, 4)


def test_bigraded_check_applies_the_euler_identity():
    rows = [list(r) for r in workloads.BIGRADED_REFERENCE["cr"]]
    assert workloads.euler_problems(rows) == []
    rows[2][1] += 1
    assert workloads.euler_problems(rows)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    samples = list(range(1, 41))
    assert run.tail(samples) == (30, "p75 of 40")
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, "max of 3")
    assert run.tail(list(range(12))) == (11, "max of 12")


def test_peak_rss_comes_from_the_childs_own_report():
    assert run.peak_rss_mb(b"liecoh: error\nVmHWM:\t   18432 kB\n") == 18.0
    assert run.peak_rss_mb(b"") is None


def test_reference_piece_is_exact_and_fixed():
    assert hostclock.reference_elimination() == 14
    assert hostclock.reference_elimination() == 14


def test_nominal_time_scales_by_the_mean_piece_around_the_query():
    clock = hostclock.HostClock()
    nominal = hostclock.NOMINAL_PIECE_S
    # a host at nominal speed until t=10, then half as fast
    clock.pieces = [(t, t + 0.1, nominal if t < 10 else 2 * nominal) for t in range(20)]
    assert clock.piece_s(2.0, 6.0) == pytest.approx(nominal)
    assert clock.nominal(3.0, 2.0, 6.0) == pytest.approx(3.0)
    assert clock.nominal(8.0, 12.0, 17.0) == pytest.approx(4.0)
    # straddling the change: the mean of the pieces inside, 5 of each kind
    assert clock.piece_s(4.5, 14.05) == pytest.approx(1.5 * nominal)
    # a short query uses the NEAREST pieces
    assert clock.piece_s(15.5, 15.6) == pytest.approx(2 * nominal)


def test_host_clock_thread_times_pieces_and_stops():
    with hostclock.HostClock() as clock:
        pass
    assert len(clock.pieces) >= 1 and all(p[2] > 0 for p in clock.pieces)
    assert not clock._thread.is_alive()
