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
# a torus2 module on which D1 acts as a Jordan block and D2 as 0: H^* has
# dims (1, 2, 1), every class on a module label
JORDAN = "fixtures/torus2-jordan-module.json"
# a subalgebra file whose inline algebra is abelian, named "other"
OTHER = "fixtures/su2-subalgebra-other-algebra.json"
# the zero matrix, an ad-invariant form of su2 under which every vector
# of h is orthogonal to k
ZERO_GRAM = "fixtures/su2-zero-gram.json"
# a solvable algebra, H acting by +1 on A, B and by -1 on P, Q with
# [A, P] = C = -[B, Q], and an ad-invariant form pairing A+iB with P+iQ:
# the orthocomplement of k = span{H, C} in OSCILLATOR_H complements it
# but is not an ideal
OSCILLATOR = "fixtures/oscillator-hyperbolic.json"
OSCILLATOR_GRAM = "fixtures/oscillator-hyperbolic-gram.json"
OSCILLATOR_H = "span{H, C, A+iB, P+iQ}"

COMMANDS = {
    "bigraded-su3-cr-reps": ["cohomology", "--algebra", "builtin:su3", "--subalgebra", CR,
                             "--representatives", "--json"],
    "bigraded-su3-h5": ["cohomology", "--algebra", "builtin:su3", "--subalgebra", H5, "--json"],
    "bigraded-su3-complex": ["cohomology", "--algebra", "builtin:su3", "--subalgebra", COMPLEX,
                             "--json"],
    "plain-su3": ["cohomology", "--algebra", "builtin:su3", "--json"],
    "plain-su3-reps": ["cohomology", "--algebra", "builtin:su3", "--representatives", "--json"],
    "plain-su3-reps-table": ["cohomology", "--algebra", "builtin:su3", "--representatives"],
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
    "decompose-su2-zero-gram": ["decompose", "--algebra", "builtin:su2", "--subalgebra",
                                "span{T, X-iY}", "--inner-product", ZERO_GRAM],
    "decompose-oscillator-not-ideal": ["decompose", "--algebra", OSCILLATOR, "--subalgebra",
                                       OSCILLATOR_H, "--inner-product", OSCILLATOR_GRAM],
    "classify-su3-cr": ["classify", "--algebra", "builtin:su3", "--subalgebra", CR, "--json"],
    "classify-su3-levi": ["classify", "--algebra", "builtin:su3", "--subalgebra", LEVI, "--json"],
    "classify-su2-cr": ["classify", "--algebra", "builtin:su2", "--subalgebra", "span{X-iY}"],
    "classify-su2-elliptic": ["classify", "--algebra", "builtin:su2", "--subalgebra",
                              "span{T, X-iY}", "--json"],
    "classify-su2-real": ["classify", "--algebra", "builtin:su2", "--subalgebra", "span{T}",
                          "--json"],
    "classify-torus2-zero": ["classify", "--algebra", "builtin:torus2", "--subalgebra", "span{}",
                             "--json"],
    "classify-su3-zero": ["classify", "--algebra", "builtin:su3", "--subalgebra", "span{}",
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
    "roots-su2-non-split": ["roots", "--algebra", "builtin:su2", "--torus", "span{T+X}"],
    "roots-su2-positive-not-a-root": ["roots", "--algebra", "builtin:su2", "--torus", "span{T}",
                                      "--positive", "5i"],
    "roots-su3-positive-not-closed": ["roots", "--algebra", "builtin:su3", "--torus",
                                      "span{T1, T2}", "--positive", "i,3i;i,-3i;-2i,0"],
    "plain-su2-scaled-reps": ["cohomology", "--algebra", SCALED, "--representatives", "--json"],
    "plain-su2-scaled": ["cohomology", "--algebra", SCALED, "--json"],
    "bigraded-su2-scaled-reps": ["cohomology", "--algebra", SCALED, "--subalgebra",
                                 "span{2X-iY}", "--representatives", "--json"],
    "classify-su2-scaled": ["classify", "--algebra", SCALED, "--subalgebra", "span{2X-iY}",
                            "--json"],
    "classify-su2-other-inline-algebra": ["classify", "--algebra", "builtin:su2", "--subalgebra",
                                          OTHER, "--json"],
    "torus-solve-mu-rhs": ["torus-solve", "--mu", "2/3", "--rhs",
                           "fixtures/fourier-fractional.json", "--json"],
    "torus-solve-cf": ["torus-solve", "--cf", ",".join(["1"] * 12), "--depth", "8", "--json"],
    # the bound (p^2+q^2)^-150 would print with about 9500 digits
    "torus-solve-cf-too-deep": ["torus-solve", "--cf", ",".join(["1"] * 152), "--depth", "150",
                                "--json"],
    "torus-solve-mu-zero-denominator": ["torus-solve", "--mu", "0/0"],
    # the mode (1, 1) is listed twice, with values 1 and 2
    "torus-solve-duplicate-mode": ["torus-solve", "--mu", "1/2", "--rhs",
                                   "fixtures/fourier-duplicate-mode.json", "--json"],
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
    "bigraded-su3-complex-reps": ["cohomology", "--algebra", "builtin:su3", "--subalgebra",
                                  COMPLEX, "--representatives", "--json"],
    "bigraded-su3-levi-reps": ["cohomology", "--algebra", "builtin:su3", "--subalgebra", LEVI,
                               "--representatives", "--json"],
    "bigraded-su2-borel-reps": ["cohomology", "--algebra", "builtin:su2", "--subalgebra",
                                "span{T, X-iY}", "--representatives", "--json"],
    "bigraded-su3-h5-reps-table": ["cohomology", "--algebra", "builtin:su3", "--subalgebra", H5,
                                   "--representatives"],
    "bigraded-su3-cr-reps-table": ["cohomology", "--algebra", "builtin:su3", "--subalgebra", CR,
                                   "--representatives"],
    "bigraded-su3-complex-reps-table": ["cohomology", "--algebra", "builtin:su3", "--subalgebra",
                                        COMPLEX, "--representatives"],
    "adjoint-su2-reps-table": ["cohomology", "--algebra", "builtin:su2", "--module", "adjoint",
                               "--representatives"],
    "module-torus2-jordan-reps": ["cohomology", "--algebra", "builtin:torus2", "--module", JORDAN,
                                  "--representatives", "--json"],
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


def test_no_output_prints_a_python_repr():
    # scalars and roots are printed in scalar syntax, refusals included
    printed = [(name, entry[stream]) for name, entry in _corpus().items()
               for stream in ("stdout", "stderr")]
    assert [name for name, text in printed
            if "GaussianRational(" in text or "Fraction(" in text] == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    corpus = {name: run(argv) for name, argv in COMMANDS.items()}
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n", encoding="utf-8")
