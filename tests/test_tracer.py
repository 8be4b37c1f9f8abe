"""The benchmark tracer (bench/spans.py) patches library names by string:
`BigradedComplex.verify`, `CochainComplex.verify`, `_chain_dims` and
`_bareiss_echelon` among them, and maps `linalg.hermitian_inertia` to the
structure-survey workload.  Entering it here, on the bigraded, the
relative (decompose) and the classify path, makes a rename fail in the
test suite rather than at the next traced benchmark run.  The classify
test also pins how often the Levi form, the characteristic space and the
real elimination behind both are formed per query."""

import importlib
import inspect
import json
import os
import subprocess
import sys
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
    # one relative complex per p = 0..3, plus the plain complex of k
    assert names.count("cohomology.verify") == 4 + 1
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
    assert len(samples) == 4
    inertia = [i for i, span in enumerate(tracer.spans) if span[0] == "linalg.hermitian_inertia"]
    # one inertia per characteristic basis covector (its negative reads the
    # same one swapped), each reading the characteristic polynomial
    assert len(inertia) == 2
    beneath = [span[3] for span in tracer.spans if span[0] == "linalg.char_poly"]
    assert set(beneath) == set(inertia)
    # one characteristic space, and one Levi form per characteristic basis
    # covector (d = 2), not one per sample
    names = [span[0] for span in tracer.spans]
    assert names.count("classify.characteristic_space") == 1
    assert names.count("classify.levi_form") == 2
    # the classification reads the rank off that space: one elimination of
    # R = [Re v; Im v] per query
    assert names.count("linalg.rank_kernel") == 1


def test_tracer_resolves_every_target_before_subalgebra_is_loaded():
    # a fresh interpreter in which nothing has touched Subalgebra yet: the
    # tracer reaches it by its old name, liecoh.algebra.Subalgebra, and the
    # subspace eliminations must still be seen and left unwrapped after
    code = (
        "import importlib, json, sys\n"
        "import spans\n"
        "import liecoh.cli as cli\n"
        "fresh = 'liecoh.subalgebra' not in sys.modules\n"
        "def wrapped():\n"
        "    methods = [getattr(importlib.import_module(f'liecoh.{m}'), c).__dict__[a]\n"
        "               for m, c, a, _ in spans.METHODS]\n"
        "    methods = [getattr(f, '__func__', f) for f in methods]\n"
        "    counted = [getattr(importlib.import_module(f'liecoh.{m}'), a)\n"
        "               for m, a in spans.COUNT_ONLY]\n"
        "    return [hasattr(f, '__wrapped__') for f in methods + counted]\n"
        "def leftovers():\n"
        "    return sorted(f'{name}.{attr}' for name, mod in list(sys.modules.items())\n"
        "                  if name.split('.')[0] == 'liecoh'\n"
        "                  for attr, value in vars(mod).items() if hasattr(value, '__wrapped__'))\n"
        "tracer = spans.Tracer()\n"
        "with tracer.installed():\n"
        "    during = wrapped()\n"
        "    codes = [cli.main(['cohomology', '--algebra', 'builtin:su3', '--json']),\n"
        "             cli.main(['cohomology', '--algebra', 'builtin:su3',\n"
        "                       '--subalgebra', 'span{X1-iY1, X2-iY2, X3-iY3}', '--json'])]\n"
        "print(json.dumps({'fresh': fresh, 'during': during, 'after': wrapped(), 'codes': codes,\n"
        "                  'leftovers': leftovers(),\n"
        "                  'names': sorted({span[0] for span in tracer.spans})}))\n"
    )
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(BENCH)]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["fresh"]
    assert result["during"] and all(result["during"])
    # and nothing loaded meanwhile keeps a wrapper once it is uninstalled
    assert not any(result["after"]) and result["leftovers"] == []
    assert result["codes"] == [cli.EX_OK, cli.EX_OK]
    # the span of h and its elimination, which subalgebra reads on linalg
    assert {"cli.main", "cohomology.ce_cohomology", "cohomology.bigraded_cohomology",
            "cohomology.verify", "algebra.Subalgebra.span", "linalg.rref"} <= set(result["names"])



# The names bench/spans.py wraps as spans in each of its MODULES: the
# public functions defined there, less its LEAF_HELPERS.  Recorded before the
# matrix types and the cochain data moved to liecoh.matrix and
# liecoh.cochains, which moved none of them; a rename or a move out of
# these modules would drop a span from the trace.
TRACED = [
    "algebra.builtin_algebra", "algebra.su2", "algebra.su3", "algebra.torus",
    "classify.bct_check", "classify.characteristic_space", "classify.classify_structure",
    "classify.levi_form",
    "cohomology.bigraded_cohomology", "cohomology.bigraded_complex", "cohomology.ce_cohomology",
    "cohomology.ce_complex", "cohomology.ce_differential", "cohomology.extend_to_complement",
    "cohomology.relative_ce_cohomology", "cohomology.weight_zero_cells",
    "decompose.bott_dolbeault", "decompose.default_inner_product", "decompose.full_assembly",
    "decompose.ideal_complement", "decompose.killing_form", "decompose.kunneth_assemble",
    "decompose.validate_ad_invariant",
    "linalg.char_poly", "linalg.hermitian_inertia", "linalg.poly_linear_roots",
    "linalg.rank_kernel", "linalg.refine_eigen", "linalg.rref", "linalg.solve_linear",
    "linalg.split_eigen",
    "roots.build_standard", "roots.format_root", "roots.positive_system",
    "roots.root_decomposition",
    "torus.apply_operator", "torus.cf_enclosure", "torus.convergents", "torus.liouville_report",
    "torus.rational_to_cf", "torus.singular_lattice", "torus.solve_dprime",
]


def test_tracer_wraps_the_recorded_names(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    # read off what the installed tracer replaced: a module's own
    # functions, not the names it imports from the others.  A counted
    # function is wrapped where its module's callers look it up, so it
    # is listed only if that module defines it
    modules = {short: importlib.import_module(f"liecoh.{short}") for short in spans.MODULES}
    with spans.Tracer().installed():
        wrapped = sorted(
            f"{short}.{attr}" for short, mod in modules.items()
            for attr, value in vars(mod).items()
            if hasattr(value, "__wrapped__") and value.__wrapped__.__module__ == mod.__name__
        )
    assert wrapped == sorted(TRACED + [f"{short}.{attr}" for short, attr in spans.COUNT_ONLY])
