"""`python -m liecoh.cli` in a fresh interpreter: the same exit code and
stdout as the in-process `main`, and only the modules the command runs."""

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
     ALGEBRA | {"liecoh.cohomology"}),
    (["decompose", "--algebra", "builtin:su2", "--subalgebra", SU2_ELLIPTIC],
     ALGEBRA | {"liecoh.classify", "liecoh.cohomology", "liecoh.decompose"}),
    (["torus-solve", "--mu", "2/3", "--depth", "2"], COMMON | {"liecoh.torus"}),
]


def run_entry_point(argv):
    """(exit code, stdout, stderr lines, liecoh modules imported) of a
    fresh `python -X importtime -m liecoh.cli`."""
    env = dict(os.environ, PYTHONPATH=str(Path(liecoh.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "liecoh.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    imported, other = set(), []
    for line in done.stderr.splitlines():
        if line.startswith("import time:"):
            name = line.rsplit("|", 1)[1].strip()
            if name == "liecoh" or name.startswith("liecoh."):
                imported.add(name)
        else:
            other.append(line)
    return done.returncode, done.stdout, other, imported


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
