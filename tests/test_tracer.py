"""The benchmark tracer (bench/spans.py) patches library names by string:
`BigradedComplex.verify`, `CochainComplex.verify`, `_chain_dims` and
`_bareiss_echelon` among them.  Entering it here makes a rename fail in
the test suite rather than at the next traced benchmark run."""

import json
from pathlib import Path

import liecoh.cli as cli
from liecoh.cohomology import BigradedComplex

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_records_bigraded_verify(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    verify = BigradedComplex.verify
    tracer = spans.Tracer()
    with tracer.installed():
        code = cli.main([
            "cohomology", "--algebra", "builtin:su3",
            "--subalgebra", "span{X1-iY1, X2-iY2, X3-iY3, T1, T2}", "--json",
        ])
    assert code == cli.EX_OK
    assert json.loads(capsys.readouterr().out)["table"]["dims"]["0,1"] == 2
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "cohomology.bigraded_cohomology", "cohomology.verify"} <= names
    assert tracer.counts["cohomology.cochain_cells"] > 0
    assert tracer.counts["linalg.kernel_max_bits"] > 0
    assert BigradedComplex.verify is verify
