import json

import pytest

from liecoh import cohomology, linalg
from liecoh.cli import EX_INTERNAL, EX_NOINPUT, EX_OK, EX_USAGE, EX_VALIDATION, main
from liecoh.linalg import ExactMatrix, ScaledIntMatrix


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- exit codes ----------------------------------------------------------------


def test_validate_builtin_ok(capsys):
    code, out, _ = run(capsys, "validate", "builtin:su2")
    assert code == EX_OK
    assert "Jacobi" in out


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
    # a nonzero d_0 into C^1(su2) is not killed by the injective d_1
    real = cohomology._differential_matrix

    def broken(structure, dim_m, rows, cols):
        if cols == [()]:
            return ScaledIntMatrix.from_exact(ExactMatrix.from_rows([[1], [0], [0]]))
        return real(structure, dim_m, rows, cols)

    monkeypatch.setattr(cohomology, "_differential_matrix", broken)
    code, out, err = run(capsys, "cohomology", "--algebra", "builtin:su2", "--json")
    assert code == EX_INTERNAL
    assert out == ""
    assert "E_INTERNAL" in err and "d o d is nonzero from degree 0" in err


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
    ],
    ids=["module", "algebra-bracket", "algebra-coefficient", "subalgebra", "fourier",
         "algebra-three-names", "algebra-result-list", "subalgebra-vector-list", "gram-ragged",
         "subalgebra-list", "relative-list", "subalgebra-string", "fourier-negative-cutoff",
         "fourier-negative-cutoff-bound", "fourier-float-cutoff", "fourier-float-xi",
         "fourier-bool-eta", "module-float-dim", "module-bool-dim"],
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


def test_decompose_reports_disagreement(capsys):
    code, out, _ = run(
        capsys,
        "decompose", "--algebra", "builtin:su2", "--subalgebra", "span{T, X-iY}",
    )
    assert code == EX_OK
    assert "disagreement at (p,q)=(1,1)" in out


def test_torus_solve_negative_bound_is_validation_error(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"cutoff": 5, "coefficients": []}))
    code, out, err = run(capsys, "torus-solve", "--mu", "1", "--rhs", str(path), "--bound", "-1")
    assert (code, out) == (EX_VALIDATION, "")
    assert err == "liecoh: error [E_VALIDATION] lattice bound must be non-negative, got -1\n"


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
