"""The benchmark tracer (bench/spans.py) patches library names by string:
`BigradedComplex.verify`, `CochainComplex.verify`, `_chain_dims` and
`_bareiss_echelon` among them, and maps `linalg.hermitian_inertia` to the
structure-survey workload.  Entering it here, on the bigraded, the
relative (decompose) and the classify path, makes a rename fail in the
test suite rather than at the next traced benchmark run.  The classify
test also pins how often the Levi form and the characteristic space are
formed per query."""

import json
from pathlib import Path

import liecoh.cli as cli
from liecoh.cohomology import BigradedComplex, CochainComplex

BENCH = Path(__file__).resolve().parent.parent / "bench"
H5 = "span{X1-iY1, X2-iY2, X3-iY3, T1, T2}"


def test_tracer_records_bigraded_verify(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    verify = BigradedComplex.verify
    tracer = spans.Tracer()
    with tracer.installed():
        code = cli.main([
            "cohomology", "--algebra", "builtin:su3",
            "--subalgebra", H5, "--json",
        ])
    assert code == cli.EX_OK
    assert json.loads(capsys.readouterr().out)["table"]["dims"]["0,1"] == 2
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "cohomology.bigraded_cohomology", "cohomology.verify"} <= names
    assert tracer.counts["cohomology.cochain_cells"] > 0
    assert tracer.counts["linalg.kernel_max_bits"] > 0
    assert BigradedComplex.verify is verify


def test_tracer_records_relative_verify(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    verify = CochainComplex.verify
    tracer = spans.Tracer()
    with tracer.installed():
        code = cli.main(["decompose", "--algebra", "builtin:su3", "--subalgebra", H5, "--json"])
    assert code == cli.EX_OK
    assert json.loads(capsys.readouterr().out)["assembly"]["dims"]["1,2"] == 4
    names = [span[0] for span in tracer.spans]
    assert {"cli.main", "decompose.full_assembly"} <= set(names)
    # one relative complex per p = 0..3 and coefficient variant, plus the
    # plain complex of k
    assert names.count("cohomology.verify") == 2 * 4 + 1
    assert CochainComplex.verify is verify


def test_tracer_records_inertia_on_classify(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    tracer = spans.Tracer()
    with tracer.installed():
        code = cli.main([
            "classify", "--algebra", "builtin:su3",
            "--subalgebra", "span{X1-iY1, X2-iY2, X3-iY3}", "--json",
        ])
    assert code == cli.EX_OK
    samples = json.loads(capsys.readouterr().out)["bct"]["samples"]
    assert len(samples) == 16
    inertia = [i for i, span in enumerate(tracer.spans) if span[0] == "linalg.hermitian_inertia"]
    # one inertia per BCT sample, each reading the characteristic polynomial
    assert len(inertia) == 16
    beneath = [span[3] for span in tracer.spans if span[0] == "linalg.char_poly"]
    assert set(beneath) == set(inertia)
    # one characteristic space, and one Levi form per characteristic basis
    # covector (d = 2), not one per sample
    names = [span[0] for span in tracer.spans]
    assert names.count("classify.characteristic_space") == 1
    assert names.count("classify.levi_form") == 2
