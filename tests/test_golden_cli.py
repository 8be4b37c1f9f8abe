"""Golden CLI corpus: the full stdout, stderr and exit code of commands on
builtin algebras and on the small inputs in `fixtures/`, compared byte for
byte.

`golden_cli.json` holds one entry per command.  Every command runs from
this directory, so fixture paths in the corpus are relative to it.  A
refactor that must not change any output passes this file unchanged.  To
record the corpus again after an intended output change (and say which in
CHANGES.md):

    PYTHONPATH=src python tests/test_golden_cli.py --record
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from liecoh.cli import main

CORPUS = Path(__file__).with_name("golden_cli.json")

CR = "span{X1-iY1, X2-iY2, X3-iY3}"
H5 = "span{X1-iY1, X2-iY2, X3-iY3, T1, T2}"
COMPLEX = "span{T1+iT2, X1-iY1, X2-iY2, X3+iY3}"
LEVI = "span{X1-iY1, X2-iY2, X3-iY3, 2T1+3T2}"
# su2 in the basis (T/3, X/2, Y): structure constants 1/3, -4/3 and 3
SCALED = "fixtures/su2-scaled.json"
# the identity, an ad-invariant Gram matrix of the abelian torus2
GRAM = "fixtures/torus2-identity-gram.json"

COMMANDS = {
    "bigraded-su3-cr-reps": ["cohomology", "--algebra", "builtin:su3", "--subalgebra", CR,
                             "--representatives", "--json"],
    "bigraded-su3-h5": ["cohomology", "--algebra", "builtin:su3", "--subalgebra", H5, "--json"],
    "bigraded-su3-complex": ["cohomology", "--algebra", "builtin:su3", "--subalgebra", COMPLEX,
                             "--json"],
    "plain-su3": ["cohomology", "--algebra", "builtin:su3", "--json"],
    "plain-su3-reps": ["cohomology", "--algebra", "builtin:su3", "--representatives", "--json"],
    "adjoint-su3": ["cohomology", "--algebra", "builtin:su3", "--module", "adjoint", "--json"],
    "adjoint-su3-table": ["cohomology", "--algebra", "builtin:su3", "--module", "adjoint"],
    "adjoint-su2-reps": ["cohomology", "--algebra", "builtin:su2", "--module", "adjoint",
                         "--representatives", "--json"],
    "relative-su3-torus": ["cohomology", "--algebra", "builtin:su3", "--relative", "span{T1, T2}",
                           "--json"],
    "relative-su2-borel-torus": ["cohomology", "--algebra", "builtin:su2", "--subalgebra",
                                 "span{T, X-iY}", "--relative", "span{T}"],
    "relative-su3-adjoint-torus": ["cohomology", "--algebra", "builtin:su3", "--module",
                                   "adjoint", "--relative", "span{T1, T2}", "--json"],
    "bigraded-su3-h5-reps": ["cohomology", "--algebra", "builtin:su3", "--subalgebra", H5,
                             "--representatives", "--json"],
    "decompose-su3-h5": ["decompose", "--algebra", "builtin:su3", "--subalgebra", H5, "--json"],
    "decompose-su2-borel": ["decompose", "--algebra", "builtin:su2", "--subalgebra",
                            "span{T, X-iY}"],
    "decompose-su3-complex": ["decompose", "--algebra", "builtin:su3", "--subalgebra", COMPLEX,
                              "--json"],
    "decompose-torus2-gram": ["decompose", "--algebra", "builtin:torus2", "--subalgebra",
                              "span{D1-iD2}", "--inner-product", GRAM],
    "decompose-su2-not-closed": ["decompose", "--algebra", "builtin:su2", "--subalgebra",
                                 "span{X-iY, T+iX}"],
    "classify-su3-cr": ["classify", "--algebra", "builtin:su3", "--subalgebra", CR, "--json"],
    "classify-su3-levi": ["classify", "--algebra", "builtin:su3", "--subalgebra", LEVI, "--json"],
    "classify-su2-cr": ["classify", "--algebra", "builtin:su2", "--subalgebra", "span{X-iY}"],
    "classify-su2-elliptic": ["classify", "--algebra", "builtin:su2", "--subalgebra",
                              "span{T, X-iY}", "--json"],
    "classify-su2-real": ["classify", "--algebra", "builtin:su2", "--subalgebra", "span{T}",
                          "--json"],
    "classify-torus2-zero": ["classify", "--algebra", "builtin:torus2", "--subalgebra", "span{}",
                             "--json"],
    "roots-su3-standard": ["roots", "--algebra", "builtin:su3", "--torus", "span{T1, T2}",
                           "--standard", "2", "0", "--json"],
    "roots-su3-complex": ["roots", "--algebra", "builtin:su3", "--torus", "span{T1, T2}",
                          "--standard", "0", "2", "--json"],
    "roots-su3-line": ["roots", "--algebra", "builtin:su3", "--torus", "span{T1+3T2}", "--json"],
    "roots-su3-not-abelian": ["roots", "--algebra", "builtin:su3", "--torus", "span{T1, X1}",
                              "--json"],
    "roots-su3-divisor-limit": ["roots", "--algebra", "builtin:su3", "--torus", "span{T1+10T2}",
                                "--json"],
    "plain-su2-scaled-reps": ["cohomology", "--algebra", SCALED, "--representatives", "--json"],
    "plain-su2-scaled": ["cohomology", "--algebra", SCALED, "--json"],
    "bigraded-su2-scaled-reps": ["cohomology", "--algebra", SCALED, "--subalgebra",
                                 "span{2X-iY}", "--representatives", "--json"],
    "classify-su2-scaled": ["classify", "--algebra", SCALED, "--subalgebra", "span{2X-iY}",
                            "--json"],
    "torus-solve-mu-rhs": ["torus-solve", "--mu", "2/3", "--rhs",
                           "fixtures/fourier-fractional.json", "--json"],
    "torus-solve-cf": ["torus-solve", "--cf", ",".join(["1"] * 12), "--depth", "8", "--json"],
    "validate-su3": ["validate", "builtin:su3"],
    "relative-not-closed": ["cohomology", "--algebra", "builtin:su3", "--relative",
                            "span{X1, Y1}"],
    "relative-su3-adjoint-line": ["cohomology", "--algebra", "builtin:su3", "--module",
                                  "adjoint", "--relative", "span{T1}", "--json"],
    "relative-su3-h5": ["cohomology", "--algebra", "builtin:su3", "--relative", H5, "--json"],
    "relative-h5-torus": ["cohomology", "--algebra", "builtin:su3", "--subalgebra", H5,
                          "--relative", "span{T1, T2}", "--json"],
    "relative-not-contained": ["cohomology", "--algebra", "builtin:su2", "--subalgebra",
                               "span{T}", "--relative", "span{X}"],
    "bigraded-su3-torus": ["cohomology", "--algebra", "builtin:su3", "--subalgebra",
                           "span{T1, T2}", "--json"],
    "bigraded-su3-line-reps": ["cohomology", "--algebra", "builtin:su3", "--subalgebra",
                               "span{T1, X1-iY1}", "--representatives", "--json"],
    "bigraded-su3-levi": ["cohomology", "--algebra", "builtin:su3", "--subalgebra", LEVI,
                          "--json"],
}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(CORPUS.parent)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _corpus():
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def test_corpus_covers_every_command():
    corpus = _corpus()
    assert sorted(corpus) == sorted(COMMANDS)
    assert all(corpus[name]["argv"] == argv for name, argv in COMMANDS.items())
    assert any(entry["exit"] == 2 for entry in corpus.values())


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_output(name):
    assert run(COMMANDS[name]) == _corpus()[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    corpus = {name: run(argv) for name, argv in COMMANDS.items()}
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n", encoding="utf-8")
