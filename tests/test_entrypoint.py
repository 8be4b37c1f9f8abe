"""`python -m liecoh.cli` in a fresh interpreter: the same exit code and
stdout as the in-process `main`, only the modules the command runs, and
none of the standard modules that are slow to import."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import liecoh
from liecoh.cli import EX_OK, EX_VALIDATION, main

SU2_ELLIPTIC = "span{T, X-iY}"
COMMON = {"liecoh", "liecoh.scalars"}
# loading an algebra compiles neither linalg nor the subspace module
ALGEBRA = COMMON | {"liecoh.algebra"}
SUBSPACES = {"liecoh.linalg", "liecoh.subalgebra"}


def command(name):
    """The modules of the command `name` itself: the shared helpers and
    its own module, and no other command's."""
    return {"liecoh.commands", f"liecoh.commands.{name}"}


# plain and module cohomology, with or without representatives, load the
# cochain engine but no subspace module and no other command's module
PLAIN = ALGEBRA | command("cohomology") | {"liecoh.linalg", "liecoh.cohomology"}
# relative and bigraded cohomology read a subalgebra as well
BIGRADED = ALGEBRA | SUBSPACES | command("cohomology") | {"liecoh.cohomology"}
# the assembly reads ellipticity off dimensions and does not load classify
DECOMPOSE = ALGEBRA | SUBSPACES | command("decompose") | {"liecoh.cohomology", "liecoh.decompose"}

# modules imported under their own names, by test id; liecoh.cli itself
# runs as __main__
COMMANDS = {
    "validate": (["validate", "builtin:su2"], ALGEBRA | command("validate")),
    "classify": (["classify", "--algebra", "builtin:su2", "--subalgebra", SU2_ELLIPTIC],
                 ALGEBRA | SUBSPACES | command("classify") | {"liecoh.classify"}),
    "roots": (["roots", "--algebra", "builtin:su2", "--torus", "span{T}", "--standard", "1", "0"],
              ALGEBRA | SUBSPACES | command("roots") | {"liecoh.classify", "liecoh.roots"}),
    "cohomology": (["cohomology", "--algebra", "builtin:su2", "--module", "adjoint"], PLAIN),
    "cohomology-representatives": (
        ["cohomology", "--algebra", "builtin:su2", "--representatives"], PLAIN),
    "cohomology-relative": (
        ["cohomology", "--algebra", "builtin:su2", "--relative", "span{T}"], BIGRADED),
    "decompose": (["decompose", "--algebra", "builtin:su2", "--subalgebra", SU2_ELLIPTIC],
                  DECOMPOSE),
    "torus-solve": (["torus-solve", "--mu", "2/3", "--depth", "2"],
                    COMMON | command("torus_solve") | {"liecoh.torus"}),
}

# the query shapes of bench/workloads.py, on files: {algebra} is su3 as
# JSON, {elliptic} and {cr} are subalgebra files
BENCH_SHAPES = [
    (["cohomology", "--algebra", "{algebra}"], PLAIN),
    (["cohomology", "--algebra", "{algebra}", "--subalgebra", "{elliptic}"], BIGRADED),
    (["cohomology", "--algebra", "{algebra}", "--subalgebra", "{cr}", "--representatives"],
     BIGRADED),
    (["decompose", "--algebra", "{algebra}", "--subalgebra", "{elliptic}"], DECOMPOSE),
]
SU3_STRUCTURES = {
    "elliptic": "span{X1-iY1, X2-iY2, X3-iY3, T1, T2}",
    "cr": "span{X1-iY1, X2-iY2, X3-iY3}",
}


# dataclasses pulls in inspect, ast, dis and tokenize; typing is the
# other large module that no command needs
SLOW_IMPORTS = {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"}


def run_python(args, *flags):
    """(exit code, stdout, stderr lines, modules imported) of a fresh
    `python -X importtime *flags *args`."""
    env = dict(os.environ, PYTHONPATH=str(Path(liecoh.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, *flags, "-X", "importtime", *args],
                          env=env, capture_output=True, text=True, timeout=120)
    imported, other = set(), []
    for line in done.stderr.splitlines():
        if line.startswith("import time:"):
            imported.add(line.rsplit("|", 1)[1].strip())
        else:
            other.append(line)
    return done.returncode, done.stdout, other, imported


# A child's last stderr line: the liecoh modules in sys.modules at exit.
# -X importtime lists only what import statements load, not what importlib
# loads (the package's lazy names and the command modules).
LOADED = "liecoh modules loaded:"
REPORT_AT_EXIT = (
    "import atexit, sys\n"
    f"atexit.register(lambda: print({LOADED!r}, *sorted(\n"
    "    m for m in sys.modules if m.split('.')[0] == 'liecoh'), file=sys.stderr))\n"
)


def split_loaded(lines):
    """(the stderr lines but the at-exit report, the modules it lists)."""
    report = [line for line in lines if line.startswith(LOADED)]
    return [line for line in lines if line not in report], set(report[-1][len(LOADED):].split())


def run_entry_point(argv):
    """(exit code, stdout, stderr lines, liecoh modules loaded) of a fresh
    `python -m liecoh.cli`, run the way bench/run.py runs a query child."""
    run_cli = "import runpy\nrunpy.run_module('liecoh.cli', run_name='__main__', alter_sys=True)\n"
    code, out, other, _ = run_python(["-c", REPORT_AT_EXIT + run_cli, *argv])
    return (code, out, *split_loaded(other))


def run_in_process(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("argv,modules", list(COMMANDS.values()), ids=list(COMMANDS))
def test_entry_point_matches_main_and_loads_only_its_modules(argv, modules, capsys):
    argv = argv + ["--json"]
    code, out, err, imported = run_entry_point(argv)
    assert (code, out) == run_in_process(capsys, argv)
    assert code == EX_OK, err
    assert imported == modules


def su3_files(tmp_path):
    """su3 and the structures of SU3_STRUCTURES as JSON files, by name."""
    g = liecoh.su3()
    files = {"algebra": tmp_path / "su3.json"}
    files["algebra"].write_text(json.dumps(g.to_json_dict()))
    for name, span in SU3_STRUCTURES.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(liecoh.parse_span(span, g).to_json_dict()))
    return files


@pytest.mark.parametrize("argv,modules", BENCH_SHAPES,
                         ids=["ce", "bigraded", "bigraded-representatives", "decompose"])
def test_benchmark_query_shapes_load_only_their_modules(argv, modules, tmp_path, capsys):
    files = su3_files(tmp_path)
    argv = [a.format(**files) for a in argv] + ["--json"]
    code, out, err, imported = run_entry_point(argv)
    assert (code, out) == run_in_process(capsys, argv)
    assert code == EX_OK, err
    assert imported == modules


def test_loading_an_algebra_imports_only_the_algebra_module(tmp_path):
    flag, load, path = python_s_args(None, tmp_path)
    code, _, err, _ = run_python([flag, REPORT_AT_EXIT + load, path], "-S")
    err, loaded = split_loaded(err)
    assert code == EX_OK, err
    assert loaded == ALGEBRA


def test_subspace_names_are_still_served_by_the_algebra_module():
    # a fresh interpreter, so that nothing has loaded liecoh.subalgebra yet
    code, out, err, _ = run_python(["-c", (
        "from liecoh.algebra import Subalgebra, parse_span, su3\n"
        "import liecoh.subalgebra as home\n"
        "h = parse_span('span{T1, T2}', su3())\n"
        "print(Subalgebra is home.Subalgebra, parse_span is home.parse_span,\n"
        "      type(h) is home.Subalgebra, h.dim)"
    )])
    assert code == EX_OK, err
    assert out.split() == ["True", "True", "True", "2"]


def test_entry_point_input_errors_exit_2(tmp_path, capsys):
    rhs = tmp_path / "rhs.json"
    rhs.write_text(json.dumps({"cutoff": "x"}))  # TorusError from the library
    cases = [
        (["torus-solve", "--mu", "2/x"], COMMON | command("torus_solve") | {"liecoh.torus"}),
        (["torus-solve", "--mu", "2/3", "--rhs", str(rhs)],
         COMMON | command("torus_solve") | {"liecoh.torus"}),
        (["classify", "--algebra", "builtin:su2", "--subalgebra", "span{X, Y}"],
         ALGEBRA | SUBSPACES | command("classify") | {"liecoh.classify"}),
        # AlgebraError from the library
        (["validate", "builtin:e8"], ALGEBRA | command("validate")),
    ]
    for argv, modules in cases:
        code, out, err, imported = run_entry_point(argv)
        assert (code, out) == run_in_process(capsys, argv)
        assert code == EX_VALIDATION
        assert any("E_VALIDATION" in line for line in err), err
        assert imported == modules


def python_s_args(argv, tmp_path):
    """Arguments for `python -S` that run the command argv with --json, or,
    for None, start as a library user: import and load an algebra."""
    if argv is None:
        path = tmp_path / "su3.json"
        path.write_text(json.dumps(liecoh.su3().to_json_dict()))
        return ["-c", "import json, sys\nfrom liecoh import LieAlgebra\n"
                      "LieAlgebra.from_json_dict(json.load(open(sys.argv[1])))", str(path)]
    return ["-m", "liecoh.cli", *argv, "--json"]


@pytest.mark.parametrize("argv", [argv for argv, _ in COMMANDS.values()] + [None],
                         ids=[*COMMANDS, "load-algebra"])
def test_no_slow_standard_module_is_imported(argv, tmp_path):
    # -S: no site, so nothing is imported that the interpreter's site
    # configuration happens to preload
    code, _, err, imported = run_python(python_s_args(argv, tmp_path), "-S")
    assert code == EX_OK, err
    assert not imported & SLOW_IMPORTS


# fractions pulls in decimal and numbers.  Scalars are int triples, values
# are ordered by int keys, and only torus-solve (the slope mu) uses Fractions.
FRACTION_MODULES = {"fractions", "decimal", "numbers"}
SCALED = str(Path(__file__).with_name("fixtures") / "su2-scaled.json")
FRACTION_FREE = [
    ["validate", "builtin:su3"],
    ["classify", "--algebra", "builtin:su3", "--subalgebra", "span{X1-iY1, X2-iY2, X3-iY3}"],
    ["cohomology", "--algebra", "builtin:su2", "--module", "adjoint", "--representatives"],
    ["cohomology", "--algebra", SCALED, "--subalgebra", "span{2X-iY}", "--representatives"],
    ["decompose", "--algebra", "builtin:su2", "--subalgebra", SU2_ELLIPTIC],
    None,
    # the weight-zero route splits eigenvalues, as roots does
    ["cohomology", "--algebra", "builtin:su3"],
    ["cohomology", "--algebra", "builtin:su3", "--module", "adjoint"],
    ["roots", "--algebra", "builtin:su3", "--torus", "span{T1, T2}", "--standard", "2", "0"],
]


@pytest.mark.parametrize("argv", FRACTION_FREE, ids=[
    "validate", "classify-levi", "cohomology-adjoint", "cohomology-fractional-constants",
    "decompose", "load-algebra", "cohomology-su3-weight", "cohomology-su3-adjoint-weight",
    "roots-standard",
])
def test_fractions_is_not_imported(argv, tmp_path):
    code, _, err, imported = run_python(python_s_args(argv, tmp_path), "-S")
    assert code == EX_OK, err
    assert not imported & FRACTION_MODULES
