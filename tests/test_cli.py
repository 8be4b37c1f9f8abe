import json

import pytest

from liecoh import cli, cohomology, linalg
from liecoh.cli import EX_INTERNAL, EX_NOINPUT, EX_OK, EX_USAGE, EX_VALIDATION, main
from liecoh.linalg import ExactMatrix, ScaledIntMatrix
from liecoh.scalars import ONE


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- exit codes ----------------------------------------------------------------


def test_validate_builtin_ok(capsys):
    code, out, _ = run(capsys, "validate", "builtin:su2")
    assert code == EX_OK
    assert "Jacobi" in out


def test_validate_a_large_abelian_algebra(capsys):
    # no bracket is stored, so validate visits no basis triple; a loop over
    # all C(2000, 3) ~ 1.3e9 of them does not finish in a test run
    code, out, err = run(capsys, "validate", "builtin:torus2000")
    assert (code, err) == (EX_OK, "")
    assert out == "ok: torus2000 satisfies the Jacobi identity on all basis triples\n"


def test_validate_perturbed_file(tmp_path, capsys):
    bad = {
        "name": "perturbed-su2",
        "basis": ["T", "X", "Y"],
        "brackets": [
            {"on": ["T", "X"], "result": {"T": "1", "Y": "2"}},
            {"on": ["T", "Y"], "result": {"X": "-2"}},
            {"on": ["X", "Y"], "result": {"T": "2"}},
        ],
    }
    path = tmp_path / "perturbed-su2.json"
    path.write_text(json.dumps(bad))
    code, out, err = run(capsys, "validate", str(path))
    assert code == EX_VALIDATION
    assert "(T, X, Y)" in out
    assert "E_VALIDATION" in err


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "cohomology", "--bogus")
    assert code == EX_USAGE
    assert "E_USAGE" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/algebra.json")
    assert code == EX_NOINPUT
    assert "E_NOINPUT" in err


def test_unknown_builtin_is_validation_error(capsys):
    code, _, err = run(capsys, "validate", "builtin:e8")
    assert code == EX_VALIDATION


def test_broken_d_squared_is_internal_error(monkeypatch, capsys):
    # a nonzero d_0 into C^1(su2) is not killed by the injective d_1.  It
    # is sized from its rows: one on the weight-zero complex of the plain
    # query, three on the full complex that representatives take
    real = cohomology._differential_matrix

    def broken(structure, rows, cols):
        if cols == [((), 0)]:
            return ScaledIntMatrix.from_exact(
                ExactMatrix.from_rows([[1]] + [[0]] * (len(rows) - 1))
            )
        return real(structure, rows, cols)

    monkeypatch.setattr(cohomology, "_differential_matrix", broken)
    for extra in ([], ["--representatives"]):
        code, out, err = run(capsys, "cohomology", "--algebra", "builtin:su2", "--json", *extra)
        assert code == EX_INTERNAL
        assert out == ""
        assert "E_INTERNAL" in err and "d o d is nonzero from degree 0" in err


def test_weight_leak_is_internal_error(monkeypatch, capsys):
    # The weight basis of su2 under ad T has the weights -2i, 0 and 2i, in
    # that order.  A component of [v1, v3] (weight 0) on v1 (weight -2i)
    # would make d leak between weight blocks.
    real = cohomology.BasisedAlgebra.__init__

    def corrupted(self, *args, **kwargs):
        real(self, *args, **kwargs)
        self._table.setdefault((0, 2), {})[0] = ONE

    monkeypatch.setattr(cohomology.BasisedAlgebra, "__init__", corrupted)
    code, out, err = run(capsys, "cohomology", "--algebra", "builtin:su2", "--json")
    assert code == EX_INTERNAL
    assert out == ""
    assert "E_INTERNAL" in err and "weight leak" in err


def test_inexact_elimination_division_is_internal_error(monkeypatch, capsys):
    # every division inside the elimination kernel now reports a remainder
    monkeypatch.setattr(linalg, "divmod", lambda a, b: (a // b, 1), raising=False)
    code, out, err = run(capsys, "cohomology", "--algebra", "builtin:su2", "--json")
    assert code == EX_INTERNAL
    assert out == ""
    assert "E_INTERNAL" in err and "inexact Gaussian-integer division" in err


def test_malformed_json_is_validation_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "validate", str(path))
    assert code == EX_VALIDATION


@pytest.mark.parametrize(
    "data, argv, message",
    [
        (
            {"dim": 1, "actions": [[[0]], [[0]], [[0]]]},
            ["cohomology", "--algebra", "builtin:su2", "--module"],
            "scalar text must be a string",
        ),
        (
            {"name": "a", "basis": ["X", "Y"], "brackets": [{"result": {"X": "1"}}]},
            ["validate"],
            "malformed algebra JSON: 'on'",
        ),
        (
            {"name": "a", "basis": ["X", "Y"], "brackets": [{"on": ["X", "Y"], "result": {"X": 1}}]},
            ["validate"],
            "scalar text must be a string",
        ),
        (
            {"algebra": "su2", "vectors": [{"T": 1}]},
            ["classify", "--algebra", "builtin:su2", "--subalgebra"],
            "scalar text must be a string",
        ),
        (
            {"cutoff": 3, "coefficients": [{"xi": 1, "value": "1"}]},
            ["torus-solve", "--mu", "2/3", "--rhs"],
            "malformed Fourier JSON: 'eta'",
        ),
        (
            {"name": "a", "basis": ["X", "Y"], "brackets": [{"on": ["X", "Y", "X"], "result": {}}]},
            ["validate"],
            "malformed algebra JSON: too many values to unpack",
        ),
        (
            {"name": "a", "basis": ["X", "Y"], "brackets": [{"on": ["X", "Y"], "result": ["X"]}]},
            ["validate"],
            "malformed algebra JSON: 'list' object has no attribute 'items'",
        ),
        (
            {"algebra": "su2", "vectors": [["T"]]},
            ["classify", "--algebra", "builtin:su2", "--subalgebra"],
            "malformed subalgebra JSON: 'list' object has no attribute 'items'",
        ),
        (
            {"matrix": [["1", "0", "0"], ["0", "1"], ["0", "0", "1"]]},
            ["decompose", "--algebra", "builtin:su2", "--subalgebra", "span{T, X-iY}",
             "--inner-product"],
            "malformed Gram JSON: column count mismatch",
        ),
        (
            {"matrix": ["100", "010", "001"]},
            ["decompose", "--algebra", "builtin:su2", "--subalgebra", "span{T, X-iY}",
             "--inner-product"],
            "malformed Gram JSON: each matrix row must be a JSON list",
        ),
        (
            {"dim": 1, "actions": [["0"], ["0"], ["0"]]},
            ["cohomology", "--algebra", "builtin:su2", "--module"],
            "malformed module JSON: each matrix row must be a JSON list",
        ),
        (
            [],
            ["classify", "--algebra", "builtin:su2", "--subalgebra"],
            "malformed subalgebra JSON: expected an object, got list",
        ),
        (
            [],
            ["cohomology", "--algebra", "builtin:su2", "--relative"],
            "malformed subalgebra JSON: expected an object, got list",
        ),
        (
            "su2",
            ["classify", "--algebra", "builtin:su2", "--subalgebra"],
            "malformed subalgebra JSON: expected an object, got str",
        ),
        (
            {"cutoff": -1, "coefficients": []},
            ["torus-solve", "--mu", "2/3", "--rhs"],
            "malformed Fourier JSON: cutoff must be at least 0, got -1",
        ),
        (
            {"cutoff": -1, "coefficients": []},
            ["torus-solve", "--mu", "2/3", "--bound", "3", "--rhs"],
            "malformed Fourier JSON: cutoff must be at least 0, got -1",
        ),
        (
            {"cutoff": 2.9, "coefficients": []},
            ["torus-solve", "--mu", "2/3", "--rhs"],
            "malformed Fourier JSON: cutoff must be an integer, got 2.9",
        ),
        (
            {"cutoff": 3, "coefficients": [{"xi": 1.5, "eta": 0, "value": "1"}]},
            ["torus-solve", "--mu", "2/3", "--rhs"],
            "malformed Fourier JSON: xi must be an integer, got 1.5",
        ),
        (
            {"cutoff": 3, "coefficients": [{"xi": 1, "eta": True, "value": "1"}]},
            ["torus-solve", "--mu", "2/3", "--rhs"],
            "malformed Fourier JSON: eta must be an integer, got true",
        ),
        (
            {"dim": 2.5, "actions": [[["0", "0"], ["0", "0"]]] * 3},
            ["cohomology", "--algebra", "builtin:su2", "--module"],
            "malformed module JSON: dim must be an integer, got 2.5",
        ),
        (
            {"dim": True, "actions": [[["0"]]] * 3},
            ["cohomology", "--algebra", "builtin:su2", "--module"],
            "malformed module JSON: dim must be an integer, got true",
        ),
        (
            {"name": "a", "basis": "TXY", "brackets": []},
            ["validate"],
            "malformed algebra JSON: basis must be a JSON list of names",
        ),
        (
            {"name": "a", "basis": ["A", "B"], "brackets": [{"on": "AB", "result": {"A": "1"}}]},
            ["validate"],
            "malformed algebra JSON: bracket 'on' must be a JSON list of two names",
        ),
        (
            {"name": "a", "basis": ["A", "B"], "brackets": [
                {"on": ["A", "B"], "result": {"A": "1"}}, {"on": ["A", "B"], "result": {"B": "1"}}]},
            ["validate"],
            "brackets list the pair [A, B] twice",
        ),
        *(
            ({"name": name, "basis": ["A"], "brackets": []}, ["validate"],
             "malformed algebra JSON: name must be a JSON string")
            for name in (5, None, True, ["x"])
        ),
        *(
            ({"name": "a", "basis": [1, 2], "brackets": []}, argv,
             "malformed algebra JSON: basis must be a JSON list of names")
            for argv in (["validate"],
                         ["cohomology", "--representatives", "--json", "--algebra"],
                         ["cohomology", "--subalgebra", "span{1}", "--algebra"])
        ),
    ],
    ids=["module", "algebra-bracket", "algebra-coefficient", "subalgebra", "fourier",
         "algebra-three-names", "algebra-result-list", "subalgebra-vector-list", "gram-ragged",
         "gram-string-rows", "module-string-rows",
         "subalgebra-list", "relative-list", "subalgebra-string", "fourier-negative-cutoff",
         "fourier-negative-cutoff-bound", "fourier-float-cutoff", "fourier-float-xi",
         "fourier-bool-eta", "module-float-dim", "module-bool-dim", "algebra-string-basis",
         "algebra-string-pair", "algebra-repeated-pair", "algebra-int-name", "algebra-null-name",
         "algebra-bool-name", "algebra-list-name", "algebra-int-basis",
         "algebra-int-basis-representatives", "algebra-int-basis-span"],
)
def test_malformed_json_field_is_validation_error(tmp_path, capsys, data, argv, message):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, *argv, str(path))
    assert code == EX_VALIDATION
    assert out == ""
    assert err.startswith("liecoh: error [E_VALIDATION]") and message in err


NOT_LIE = {
    "name": "bad",
    "basis": ["A", "B", "C"],
    "brackets": [
        {"on": ["A", "B"], "result": {"C": "1"}},
        {"on": ["A", "C"], "result": {"A": "1"}},
        {"on": ["B", "C"], "result": {"A": "1"}},
    ],
}


@pytest.mark.parametrize(
    "argv",
    [
        ["cohomology", "--algebra", "{alg}"],
        ["cohomology", "--algebra", "{alg}", "--module", "adjoint"],
        ["cohomology", "--algebra", "{alg}", "--subalgebra", "span{A}"],
        ["cohomology", "--algebra", "{alg}", "--relative", "span{A}"],
        ["cohomology", "--subalgebra", "{sub}"],
        ["decompose", "--algebra", "{alg}", "--subalgebra", "span{A}"],
        ["classify", "--algebra", "{alg}", "--subalgebra", "span{A}"],
        ["roots", "--algebra", "{alg}", "--torus", "span{C}"],
    ],
    ids=["plain", "adjoint", "bigraded", "relative", "inline-algebra", "decompose", "classify",
         "roots"],
)
def test_non_jacobi_algebra_is_validation_error(tmp_path, capsys, argv):
    alg, sub = tmp_path / "bad.json", tmp_path / "sub.json"
    alg.write_text(json.dumps(NOT_LIE))
    sub.write_text(json.dumps({"algebra": NOT_LIE, "vectors": [{"A": "1"}]}))
    paths = {"{alg}": str(alg), "{sub}": str(sub)}
    code, out, err = run(capsys, *(paths.get(a, a) for a in argv))
    assert code == EX_VALIDATION
    assert out == ""
    assert err == "liecoh: error [E_VALIDATION] Jacobi identity fails on the triple (A, B, C)\n"


def test_decompose_gram_file(tmp_path, capsys):
    argv = ["decompose", "--algebra", "builtin:su2", "--subalgebra", "span{T, X-iY}", "--json"]
    path = tmp_path / "gram.json"
    path.write_text(json.dumps({"matrix": [["8", "0", "0"], ["0", "8", "0"], ["0", "0", "8"]]}))
    assert run(capsys, *argv, "--inner-product", str(path)) == run(capsys, *argv)
    path.write_text(json.dumps({"matrix": [["8", "0", "0"], ["0", "8", "0"], ["0", "0", "16"]]}))
    code, out, err = run(capsys, *argv, "--inner-product", str(path))
    assert (code, out) == (EX_VALIDATION, "")
    assert "Gram matrix is not ad-invariant: witness (0, 1, 2)" in err


# -- command outputs -----------------------------------------------------------


def test_classify_span_output(capsys):
    code, out, _ = run(
        capsys, "classify", "--algebra", "builtin:su2", "--subalgebra", "span{X-iY}"
    )
    assert code == EX_OK
    assert "cr" in out and "inconclusive" in out
    assert "[['2']]" in out


def test_classify_json_structure(capsys):
    code, out, _ = run(
        capsys,
        "classify", "--algebra", "builtin:su2", "--subalgebra", "span{X-iY}", "--json",
    )
    data = json.loads(out)
    assert data["classification"]["flags"]["cr"] is True
    assert data["bct"]["verdict"] == "inconclusive"
    assert data["levi_matrix"] == [["2"]]


def test_cohomology_bigraded_table(capsys):
    code, out, _ = run(
        capsys,
        "cohomology", "--algebra", "builtin:su2", "--subalgebra", "span{T, X-iY}",
    )
    assert code == EX_OK
    assert "1  1  0" in out and "0  1  1" in out


def test_cohomology_plain_and_adjoint(capsys):
    code, out, _ = run(capsys, "cohomology", "--algebra", "builtin:su2")
    assert code == EX_OK and "(1, 0, 0, 1)" in out
    code, out, _ = run(
        capsys, "cohomology", "--algebra", "builtin:su2", "--module", "adjoint"
    )
    assert code == EX_OK and "(0, 0, 0, 0)" in out


def test_cohomology_relative(capsys):
    code, out, _ = run(
        capsys,
        "cohomology", "--algebra", "builtin:su2",
        "--subalgebra", "span{T, X-iY}", "--relative", "span{T}",
    )
    assert code == EX_OK
    assert "(1, 0)" in out


def test_cohomology_module_file(tmp_path, capsys):
    # one-dimensional module with T-weight 2i over the acting span{T, L}
    module = {"dim": 1, "actions": [[["2i"]], [["0"]]]}
    path = tmp_path / "weight.json"
    path.write_text(json.dumps(module))
    code, out, _ = run(
        capsys,
        "cohomology", "--algebra", "builtin:su2",
        "--subalgebra", "span{T, X-iY}", "--relative", "span{T}",
        "--module", str(path),
    )
    assert code == EX_OK and "(0, 1)" in out


def test_roots_with_standard(capsys):
    code, out, _ = run(
        capsys,
        "roots", "--algebra", "builtin:su3", "--torus", "span{T1, T2}",
        "--standard", "2", "0", "--json",
    )
    data = json.loads(out)
    assert len(data["root_datum"]["roots"]) == 6
    assert data["standard_structure"]["prediction_matches"] is True


def test_root_search_limit_is_not_a_nonsplit_verdict(capsys):
    # ad(T1 + 10 T2) has characteristic polynomial t^2 (t^2+4)(t^2+841)(t^2+961),
    # so it splits over Q(i), but its t^2 coefficient has norm 3232804^2, past
    # the divisor-search limit: the search stops and must say so
    code, out, err = run(capsys, "roots", "--algebra", "builtin:su3", "--torus", "span{T1+10T2}")
    assert (code, out) == (EX_VALIDATION, "")
    assert "root search stopped at the divisor-norm limit" in err
    assert "does not split" not in err


def test_roots_positive_override(capsys):
    code, out, _ = run(
        capsys,
        "roots", "--algebra", "builtin:su3", "--torus", "span{T1, T2}",
        "--positive", "2i,0;i,3i;-i,3i", "--json",
    )
    data = json.loads(out)
    assert data["positive_system"]["positive_roots"] == [
        ["-i", "3i"], ["i", "3i"], ["2i", "0"],
    ]


def test_decompose_prints_the_p_form_table(capsys):
    code, out, _ = run(
        capsys,
        "decompose", "--algebra", "builtin:su2", "--subalgebra", "span{T, X-iY}",
    )
    assert code == EX_OK
    assert "p\\q  0  1  2\n0    1  1  0\n1    0  1  1\n" in out
    assert "disagreement" not in out and "non-dual" not in out


def test_decompose_names_a_subspace_that_is_not_closed(capsys):
    # closure is checked before ellipticity and before the ideal complement
    # is sought, so the fault is not blamed on the Gram matrix
    code, out, err = run(
        capsys,
        "decompose", "--algebra", "builtin:su2", "--subalgebra", "span{X-iY, T+iX}",
    )
    assert (code, out) == (EX_VALIDATION, "")
    assert err == ("liecoh: error [E_VALIDATION] subspace is not bracket-closed: "
                   "witness rows (0, 1)\n")


def test_torus_solve_negative_bound_is_validation_error(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"cutoff": 5, "coefficients": []}))
    code, out, err = run(capsys, "torus-solve", "--mu", "1", "--rhs", str(path), "--bound", "-1")
    assert (code, out) == (EX_VALIDATION, "")
    assert err == "liecoh: error [E_VALIDATION] lattice bound must be non-negative, got -1\n"


SL2 = {
    "name": "sl2",
    "basis": ["H", "E", "F"],
    "brackets": [
        {"on": ["H", "E"], "result": {"E": "2"}},
        {"on": ["H", "F"], "result": {"F": "-2"}},
        {"on": ["E", "F"], "result": {"H": "1"}},
    ],
}


@pytest.mark.parametrize(
    "data, argv, message",
    [
        ({"name": "a", "basis": ["A", "A"], "brackets": []}, ["validate", "{file}"],
         "duplicate basis names"),
        (SL2, ["roots", "--algebra", "{file}", "--torus", "span{H}"],
         "root component -2 is not purely imaginary; the decomposition expects a compact "
         "real form"),
        ({"matrix": [["1", "0"], ["0", "1"]]},
         ["decompose", "--algebra", "builtin:su2", "--subalgebra", "span{T, X-iY}",
          "--inner-product", "{file}"],
         "Gram matrix shape mismatch"),
        (None, ["cohomology", "--algebra", "builtin:su2", "--subalgebra", "span{X, Y}",
                "--relative", "span{}"],
         "subspace is not bracket-closed: witness rows (0, 1)"),
        ({"dim": 1, "actions": [[["0"]], [["0"]]]},
         ["cohomology", "--algebra", "builtin:su2", "--module", "{file}"],
         "one action matrix per acting basis element is required"),
        ({"dim": 2, "actions": [[["0"]], [["0"]], [["0"]]]},
         ["cohomology", "--algebra", "builtin:su2", "--module", "{file}"],
         "action matrix shape mismatch"),
        ({"cutoff": 10**9, "coefficients": []}, ["torus-solve", "--mu", "0", "--rhs", "{file}"],
         "singular lattice within bound 1000000000 has 2000000001 points, past the limit of "
         "100000"),
    ],
    ids=["validate-duplicate-basis", "roots-real-root", "decompose-gram-shape",
         "relative-not-closed-subalgebra", "module-action-count", "module-action-shape",
         "torus-solve-lattice-limit"],
)
def test_refusal_is_a_validation_error_with_its_message(tmp_path, capsys, data, argv, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, *(str(path) if a == "{file}" else a for a in argv))
    assert (code, out) == (EX_VALIDATION, "")
    assert err == f"liecoh: error [E_VALIDATION] {message}\n"


def test_torus_solve_rhs(tmp_path, capsys):
    rhs = {
        "cutoff": 5,
        "coefficients": [
            {"xi": 1, "eta": 1, "value": "1"},
            {"xi": 2, "eta": 3, "value": "1"},
        ],
    }
    path = tmp_path / "f.json"
    path.write_text(json.dumps(rhs))
    code, out, _ = run(capsys, "torus-solve", "--mu", "2/3", "--rhs", str(path), "--json")
    data = json.loads(out)
    assert data["solve"]["solution"]["coefficients"] == [
        {"xi": 1, "eta": 1, "value": "-3i"}
    ]
    assert data["solve"]["obstructions"] == [[2, 3]]


def test_torus_solve_requires_slope(capsys):
    code, _, err = run(capsys, "torus-solve")
    assert code == EX_USAGE


def test_torus_solve_cf_report(capsys):
    code, out, _ = run(
        capsys, "torus-solve", "--cf", ",".join(["1"] * 12), "--depth", "8", "--json"
    )
    data = json.loads(out)
    assert data["divisor_report"]["verdict"] == "diophantine_evidence"


def test_subalgebra_file_with_inline_algebra(tmp_path, capsys):
    sub = {
        "algebra": {
            "name": "su2",
            "basis": ["T", "X", "Y"],
            "brackets": [
                {"on": ["T", "X"], "result": {"Y": "2"}},
                {"on": ["T", "Y"], "result": {"X": "-2"}},
                {"on": ["X", "Y"], "result": {"T": "2"}},
            ],
        },
        "vectors": [{"X": "1", "Y": "-i"}],
    }
    path = tmp_path / "h.json"
    path.write_text(json.dumps(sub))
    code, out, _ = run(capsys, "classify", "--subalgebra", str(path), "--json")
    assert code == EX_OK
    assert json.loads(out)["classification"]["flags"]["cr"] is True


def test_json_output_is_deterministic(capsys):
    args = [
        "cohomology", "--algebra", "builtin:su2", "--subalgebra", "span{T, X-iY}", "--json",
    ]
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EX_OK
    assert main(["cohomology", "--help"]) == EX_OK


# per command, arguments that its parser accepts, and arguments that its
# own parser rejects with E_USAGE
ACCEPTED = {
    "validate": ["builtin:su2"],
    "classify": ["--subalgebra", "span{T}"],
    "roots": ["--algebra", "builtin:su2", "--torus", "span{T}"],
    "cohomology": [],
    "decompose": ["--subalgebra", "span{T}"],
    "torus-solve": [],
}
USAGE_ERRORS = {
    "validate": [],  # the algebra is missing
    "classify": ["--algebra", "builtin:su2"],  # --subalgebra is missing
    "roots": ["--algebra", "builtin:su2", "--torus"],  # --torus has no value
    "cohomology": ["--representatives=yes"],  # a flag takes no value
    "decompose": ["--subalgebra", "span{T}", "--inner-product"],  # no value
    "torus-solve": ["--depth", "two"],  # not an int
}


def parse_outcome(parser, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("name", cli.COMMANDS)
def test_one_command_parser_prints_what_the_full_parser_prints(name, capsys):
    # main builds the parser of the named command alone; its help, its
    # usage line and its usage errors, its own and the top-level
    # "unrecognized arguments" one, must not tell the two apart
    full = cli.build_parser()
    assert cli.build_parser(name).format_usage() == full.format_usage()
    unknown = [name, *ACCEPTED[name], "--no-such-flag"]
    for argv in ([name, "--help"], [name, *USAGE_ERRORS[name]], unknown):
        assert run(capsys, *argv) == parse_outcome(full, argv, capsys)
    code, out, _ = parse_outcome(full, [name, "--help"], capsys)
    assert code == EX_OK and out.startswith(f"usage: liecoh {name} ")
    code, _, err = parse_outcome(full, [name, *USAGE_ERRORS[name]], capsys)
    assert code == EX_USAGE and f"liecoh {name}: error [E_USAGE]" in err
    code, _, err = parse_outcome(full, unknown, capsys)
    assert code == EX_USAGE
    assert err.startswith("usage: liecoh [-h]") and "{" + ",".join(cli.COMMANDS) + "} ..." in err
    assert "liecoh: error [E_USAGE] unrecognized arguments: --no-such-flag" in err


def test_cohomology_representatives_output(capsys):
    code, out, _ = run(
        capsys,
        "cohomology", "--algebra", "builtin:su2", "--subalgebra", "span{T, X-iY}",
        "--representatives", "--json",
    )
    data = json.loads(out)
    reps = data["table"]["representatives"]
    assert reps["0,1"] == [{"τ1": "1"}]
    assert reps["1,2"] == [{"ζ1∧τ1∧τ2": "1"}]


def test_every_command_names_a_subspace_that_is_not_closed_alike(capsys):
    # classify, the bigraded table and decompose refuse the same fault with
    # the same message
    message = ("liecoh: error [E_VALIDATION] subspace is not bracket-closed: "
               "witness rows (0, 1)\n")
    for name in ("classify", "cohomology", "decompose"):
        code, out, err = run(
            capsys, name, "--algebra", "builtin:su2", "--subalgebra", "span{X-iY, T+iX}",
        )
        assert (code, out, err) == (EX_VALIDATION, "", message), name


def test_decompose_checks_closure_before_ellipticity(capsys):
    # [X1, X2] = Y3 is not in the span, which is not elliptic either
    code, out, err = run(
        capsys, "decompose", "--algebra", "builtin:su3", "--subalgebra", "span{X1, X2}",
    )
    assert (code, out) == (EX_VALIDATION, "")
    assert err == ("liecoh: error [E_VALIDATION] subspace is not bracket-closed: "
                   "witness rows (0, 1)\n")


def test_relative_cohomology_refuses_representatives(capsys):
    code, out, err = run(
        capsys, "cohomology", "--algebra", "builtin:su2", "--relative", "span{T}",
        "--representatives", "--json",
    )
    assert (code, out) == (EX_VALIDATION, "")
    assert err == ("liecoh: error [E_VALIDATION] relative cohomology reports dims only; "
                   "drop --representatives\n")
