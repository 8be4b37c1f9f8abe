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
ALGEBRA = COMMON | {"liecoh.linalg", "liecoh.algebra"}

# modules imported under their own names; liecoh.cli itself runs as __main__
COMMANDS = [
    (["validate", "builtin:su2"], ALGEBRA),
    (["classify", "--algebra", "builtin:su2", "--subalgebra", SU2_ELLIPTIC],
     ALGEBRA | {"liecoh.classify"}),
    (["roots", "--algebra", "builtin:su2", "--torus", "span{T}", "--standard", "1", "0"],
     ALGEBRA | {"liecoh.classify", "liecoh.roots"}),
    (["cohomology", "--algebra", "builtin:su2", "--module", "adjoint"],
     ALGEBRA | {"liecoh.cohomology", "liecoh.weight_zero"}),
    (["decompose", "--algebra", "builtin:su2", "--subalgebra", SU2_ELLIPTIC],
     ALGEBRA | {"liecoh.classify", "liecoh.cohomology", "liecoh.decompose"}),
    (["torus-solve", "--mu", "2/3", "--depth", "2"], COMMON | {"liecoh.torus"}),
]


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


def run_entry_point(argv):
    """(exit code, stdout, stderr lines, liecoh modules imported) of a
    fresh `python -X importtime -m liecoh.cli`."""
    code, out, other, imported = run_python(["-m", "liecoh.cli", *argv])
    return code, out, other, {m for m in imported if m == "liecoh" or m.startswith("liecoh.")}


def run_in_process(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("argv,modules", COMMANDS, ids=[c[0][0] for c in COMMANDS])
def test_entry_point_matches_main_and_loads_only_its_modules(argv, modules, capsys):
    argv = argv + ["--json"]
    code, out, err, imported = run_entry_point(argv)
    assert (code, out) == run_in_process(capsys, argv)
    assert code == EX_OK, err
    assert imported == modules


def test_entry_point_input_errors_exit_2(tmp_path, capsys):
    rhs = tmp_path / "rhs.json"
    rhs.write_text(json.dumps({"cutoff": "x"}))  # TorusError from the library
    cases = [
        (["torus-solve", "--mu", "2/x"], COMMON | {"liecoh.torus"}),
        (["torus-solve", "--mu", "2/3", "--rhs", str(rhs)], COMMON | {"liecoh.torus"}),
        (["classify", "--algebra", "builtin:su2", "--subalgebra", "span{X, Y}"],
         ALGEBRA | {"liecoh.classify"}),
        (["validate", "builtin:e8"], ALGEBRA),  # AlgebraError from the library
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


@pytest.mark.parametrize("argv", [c[0] for c in COMMANDS] + [None],
                         ids=[c[0][0] for c in COMMANDS] + ["load-algebra"])
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
