import json
import subprocess
import sys
import tracemalloc
import warnings

import jsonschema
import numpy as np
import pytest

import wigner as wg
from wigner.cli import MAX_SAMPLES, REPORT_SCHEMA, build_parser, main

CONJUGATION = "dim 2;\nT1 = conj(z1);\nT2 = conj(z2);\n"
SCALING = "dim 2;\nT1 = 2.0 * z1;\nT2 = 2.0 * z2;\n"
IDENTITY = "dim 2;\nT1 = z1;\nT2 = z2;\n"
TRANSLATION = "dim 2;\nT1 = z1 + 1.0;\nT2 = z2;\n"
NORM_WARP = "dim 2;\nT1 = z1 * (1.0 + norm2());\nT2 = z2 * (1.0 + norm2());\n"
DRESSED_MAT = "dim 2;\nT1 = expi(re(z1)) * mat(U);\nT2 = expi(re(z1)) * mat(U);\n"
PHASE_SINGLE = "dim 1;\nT1 = expi(re(z1)) * z1;\n"
ROTATION = (
    "dim 2;\n"
    "T1 = 0.7071067811865476 * z1 - 0.7071067811865476 * z2;\n"
    "T2 = 0.7071067811865476 * z1 + 0.7071067811865476 * z2;\n"
)


def write_spec(tmp_path, text, name="map.wig"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def write_constants(tmp_path, mats, name="constants.json"):
    payload = {
        key: [[[float(v.real), float(v.imag)] for v in row] for row in mat]
        for key, mat in mats.items()
    }
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def run_json(args, capsys):
    code, out = run_cli(args + ["--no-timestamp"], capsys)
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    return code, report


def test_classify_conjugation(tmp_path, capsys):
    spec = write_spec(tmp_path, CONJUGATION)
    code, report = run_json(["classify", "--spec", spec], capsys)
    assert code == 0
    assert report["branch"] == "antilinear"
    op = np.array([[complex(re, im) for re, im in row] for row in report["operator"]])
    assert np.abs(op - np.eye(2)).max() < 1e-9


def test_classify_scaling_exit_2(tmp_path, capsys):
    spec = write_spec(tmp_path, SCALING)
    code, report = run_json(["classify", "--spec", spec], capsys)
    assert code == 2
    assert report["error"] == "not_a_symmetry"
    assert report["preservation"]["max_deviation"] > 1.0


def test_classify_dressed_unitary_with_constants(tmp_path, capsys):
    u = wg.haar_unitary(2, 5)
    spec = write_spec(tmp_path, DRESSED_MAT)
    constants = write_constants(tmp_path, {"U": u})
    code, report = run_json(
        ["classify", "--spec", spec, "--constants", constants], capsys
    )
    assert code == 0
    assert report["branch"] == "linear"
    op = np.array([[complex(re, im) for re, im in row] for row in report["operator"]])
    assert wg.align_global_phase(op, u).aligned_residual < 1e-6
    assert report["reconstruction_residual"] < 1e-6


def test_check_unitary_exit_0(tmp_path, capsys):
    spec = write_spec(tmp_path, IDENTITY)
    code, report = run_json(["check", "--spec", spec], capsys)
    assert code == 0
    assert report["verdict"] == "preserving"
    assert report["preservation"]["pairs"]


def test_check_translation_exit_2(tmp_path, capsys):
    spec = write_spec(tmp_path, TRANSLATION)
    code, report = run_json(["check", "--spec", spec], capsys)
    assert code == 2
    assert report["error"] == "not_a_symmetry"


def test_check_norm_warp_deviation_grows_with_norm(tmp_path, capsys):
    spec = write_spec(tmp_path, NORM_WARP)
    code, report = run_json(["check", "--spec", spec], capsys)
    assert code == 2
    pairs = report["preservation"]["pairs"]
    by_label = {p["label"]: p for p in pairs}
    assert by_label["parallel_scaled"]["deviation"] > by_label["parallel"]["deviation"] > 0
    assert by_label["zero"]["deviation"] == 0.0
    # deviations trend upward with the overlap scale across the listing
    sized = [(p["norm_w"] * p["norm_z"], p["deviation"]) for p in pairs if p["expected"] > 0]
    sized.sort()
    lower = np.mean([d for _, d in sized[: len(sized) // 3]])
    upper = np.mean([d for _, d in sized[-len(sized) // 3 :]])
    assert upper > lower


def test_diff_identity(tmp_path, capsys):
    spec = write_spec(tmp_path, IDENTITY)
    code, report = run_json(["diff", "--spec", spec], capsys)
    assert code == 0
    assert report["verdict"] == "analytic"
    d_z = np.array([[complex(re, im) for re, im in row] for row in report["d_z"]])
    d_zbar = np.array([[complex(re, im) for re, im in row] for row in report["d_zbar"]])
    assert np.abs(d_z - np.eye(2)).max() < 1e-9
    assert np.abs(d_zbar).max() < 1e-9


def test_diff_conjugation(tmp_path, capsys):
    spec = write_spec(tmp_path, CONJUGATION)
    code, report = run_json(["diff", "--spec", spec], capsys)
    assert code == 0
    assert report["verdict"] == "not_analytic"
    assert abs(complex(*report["d_zbar"][0][0]) - 1.0) < 1e-9
    assert abs(complex(*report["d_z"][0][0])) < 1e-9


def test_diff_phase_dressed_point(tmp_path, capsys):
    # d_zbar entry of expi(re(z1))*z1 at z1 = 1 is (i/2) e^{i}
    spec = write_spec(tmp_path, PHASE_SINGLE)
    code, report = run_json(
        ["diff", "--spec", spec, "--point", "1", "--levels", "1"], capsys
    )
    assert code == 0
    expected = 0.5j * np.exp(1j)
    got = complex(*report["d_zbar"][0][0])
    assert abs(got - expected) < 1e-7
    assert report["levels"] == 1


def test_diff_point_dimension_checked(tmp_path, capsys):
    spec = write_spec(tmp_path, IDENTITY)
    code, report = run_json(["diff", "--spec", spec, "--point", "1"], capsys)
    assert code == 1
    assert report["error"] == "dimension_mismatch"


def test_fuzz_default_manifest(tmp_path, capsys):
    code, report = run_json(["fuzz"], capsys)
    assert code == 0
    assert report["verdict"] == "ok"
    counts = report["counts"]
    assert counts["symmetries"] == 40
    assert counts["recovered"] == 40
    assert counts["adversaries"] == 10
    assert counts["rejected"] == 10


def test_fuzz_manifest_with_n1_caveat(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps(
            [
                {"kind": "linear", "n": 1, "seed": 1, "dressing_degree": 0},
                {"kind": "linear", "n": 2, "seed": 2, "dressing_degree": 1},
                {"kind": "scaling", "n": 2, "seed": 3},
            ]
        )
    )
    code, report = run_json(["fuzz", "--manifest", str(manifest)], capsys)
    assert code == 0
    statuses = [inst["status"] for inst in report["instances"]]
    assert statuses == ["caveat_n1", "recovered", "rejected"]
    assert report["counts"]["caveat_n1"] == 1
    assert report["counts"]["symmetries"] == 1  # n=1 entry excluded


def test_fuzz_empty_manifest_schema_error(tmp_path, capsys):
    manifest = tmp_path / "empty.json"
    manifest.write_text("[]")
    code, report = run_json(["fuzz", "--manifest", str(manifest)], capsys)
    assert code == 1
    assert report["error"] == "schema_error"


def test_mazur_ulam_rotation(tmp_path, capsys):
    spec = write_spec(tmp_path, ROTATION)
    code, report = run_json(["mazur-ulam", "--spec", spec], capsys)
    assert code == 0
    assert report["verdict"] == "orthogonal"
    recovered = np.array(report["operator_real"])
    expected = np.array([[1, -1], [1, 1]]) / np.sqrt(2)
    assert np.abs(recovered - expected).max() < 1e-9
    assert report["orthogonality_residual"] < 1e-9


def test_mazur_ulam_translation_exit_2(tmp_path, capsys):
    spec = write_spec(tmp_path, "dim 1;\nT1 = z1 + 0.5;\n")
    code, report = run_json(["mazur-ulam", "--spec", spec], capsys)
    assert code == 2
    assert report["error"] == "not_isometry"
    assert report["isometry"]["passed"] is False
    assert "preservation" not in report


def test_mazur_ulam_complex_map_is_input_error(tmp_path, capsys):
    spec = write_spec(tmp_path, "dim 1;\nT1 = i * z1;\n")
    code, report = run_json(["mazur-ulam", "--spec", spec], capsys)
    assert code == 1
    assert report["error"] == "not_real_map"


@pytest.mark.parametrize("command", ["classify", "check"])
@pytest.mark.parametrize(
    "expression", ["exp(1000000*z1) - exp(0)", "sin(1000000i*z1)", "cos(1000000i*z1) - 1"]
)
def test_overflowing_spec_is_non_finite_evaluation(tmp_path, capsys, command, expression):
    spec = write_spec(tmp_path, f"dim 1;\nT1 = {expression};\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a floating-point warning would raise here
        code, report = run_json([command, "--spec", spec], capsys)
    assert code == 2
    assert report["error"] == "non_finite_evaluation"


def test_overflowing_point_constant_is_non_finite_evaluation(tmp_path, capsys):
    spec = write_spec(tmp_path, IDENTITY)
    code, report = run_json(["diff", "--spec", spec, "--point", "exp(1000),0"], capsys)
    assert code == 2
    assert report["error"] == "non_finite_evaluation"


def test_overflowing_spec_leaves_stderr_empty(tmp_path):
    spec = write_spec(tmp_path, "dim 1;\nT1 = exp(1000000*z1) - exp(0);\n")
    proc = subprocess.run(
        [sys.executable, "-m", "wigner", "classify", "--spec", spec, "--no-timestamp"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["error"] == "non_finite_evaluation"


def test_parse_error_exit_1(tmp_path, capsys):
    spec = write_spec(tmp_path, "dim 2; T1 = z1 + ;")
    code, report = run_json(["classify", "--spec", spec], capsys)
    assert code == 1
    assert report["error"] == "parse_error"


TOO_DEEP = {
    "long_sum": " + ".join(["0.001*z1"] * 1200),
    "nested_parentheses": "(" * 400 + "z1" + ")" * 400,
    "chained_minus": "-" * 1200 + "z1",
}


@pytest.mark.parametrize("expression", TOO_DEEP.values(), ids=TOO_DEEP.keys())
def test_too_deep_spec_is_parse_error_not_traceback(tmp_path, expression):
    spec = write_spec(tmp_path, f"dim 1;\nT1 = {expression};\n")
    proc = subprocess.run(
        [sys.executable, "-m", "wigner", "check", "--spec", spec, "--no-timestamp"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["error"] == "parse_error"


@pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_constant_is_schema_error(tmp_path, capsys, entry):
    spec = write_spec(tmp_path, DRESSED_MAT)
    constants = tmp_path / "constants.json"
    constants.write_text('{"U": [[[0, 0], [1, 0]], [[1, 0], [%s, 0]]]}' % entry)
    code, report = run_json(["classify", "--spec", spec, "--constants", str(constants)], capsys)
    assert code == 1
    assert report["error"] == "schema_error"
    assert "'U'" in report["detail"]


def test_missing_file_exit_1(tmp_path, capsys):
    code, report = run_json(["classify", "--spec", str(tmp_path / "absent.wig")], capsys)
    assert code == 1
    assert report["error"] == "io_error"


def test_unknown_matrix_exit_1(tmp_path, capsys):
    spec = write_spec(tmp_path, "dim 1;\nT1 = mat(Q);\n")
    code, report = run_json(["classify", "--spec", spec], capsys)
    assert code == 1
    assert report["error"] == "unknown_matrix"


def test_bad_flag_value_exit_1(tmp_path, capsys):
    spec = write_spec(tmp_path, IDENTITY)
    code, report = run_json(["classify", "--spec", spec, "--samples", "0"], capsys)
    assert code == 1
    assert report["error"] == "schema_error"


def test_reports_are_deterministic(tmp_path, capsys):
    spec = write_spec(tmp_path, CONJUGATION)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["classify", "--spec", spec, "--no-timestamp", "--output", str(out1)]) == 0
    assert main(["classify", "--spec", spec, "--no-timestamp", "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_timestamp_present_by_default(tmp_path, capsys):
    spec = write_spec(tmp_path, IDENTITY)
    code, out = run_cli(["check", "--spec", spec], capsys)
    report = json.loads(out)
    assert "generated_at" in report
    assert "timing_ms" in report


def test_csv_format_check_listing(tmp_path, capsys):
    spec = write_spec(tmp_path, IDENTITY)
    code, out = run_cli(["check", "--spec", spec, "--format", "csv", "--no-timestamp"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "label,norm_w,norm_z,expected,deviation"
    assert len(lines) > 10


def test_csv_format_classify_scalars(tmp_path, capsys):
    spec = write_spec(tmp_path, CONJUGATION)
    code, out = run_cli(
        ["classify", "--spec", spec, "--format", "csv", "--no-timestamp"], capsys
    )
    assert code == 0
    header, row = out.strip().split("\n")
    assert "branch" in header.split(",")
    assert "antilinear" in row.split(",")


def test_csv_format_diff_and_fuzz(tmp_path, capsys):
    spec = write_spec(tmp_path, IDENTITY)
    code, out = run_cli(
        ["diff", "--spec", spec, "--format", "csv", "--no-timestamp"], capsys
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "row,col,d_z_re,d_z_im,d_zbar_re,d_zbar_im"
    assert len(lines) == 1 + 4  # 2x2 matrix entries

    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps([{"kind": "scaling", "n": 2, "seed": 1}]))
    code, out = run_cli(
        ["fuzz", "--manifest", str(manifest), "--format", "csv", "--no-timestamp"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("index,kind,n,seed")
    assert "rejected" in lines[1]


def test_human_format_error_report(tmp_path, capsys):
    spec = write_spec(tmp_path, SCALING)
    code, out = run_cli(
        ["classify", "--spec", spec, "--format", "human", "--no-timestamp"], capsys
    )
    assert code == 2
    assert "error: not_a_symmetry" in out
    assert "EXCEEDS" in out

    spec = write_spec(tmp_path, TRANSLATION)
    code, out = run_cli(
        ["mazur-ulam", "--spec", spec, "--format", "human", "--no-timestamp"], capsys
    )
    assert code == 2
    assert "error: not_isometry" in out
    assert "isometry: 53 pairs" in out


def test_human_format_flags_residuals(tmp_path, capsys):
    spec = write_spec(tmp_path, CONJUGATION)
    code, out = run_cli(
        ["classify", "--spec", spec, "--format", "human", "--no-timestamp"], capsys
    )
    assert code == 0
    assert "verdict: symmetry" in out
    assert "branch: antilinear" in out
    assert "[ok]" in out


def test_every_error_type_has_exactly_one_exit_code():
    import wigner.errors as errs
    from wigner.cli import _error_payload

    defined = [
        obj
        for obj in vars(errs).values()
        if isinstance(obj, type) and issubclass(obj, errs.WignerError)
    ]
    assert {klass.code: klass.exit_code for klass in defined} == {
        "analysis_error": 2,
        "dimension_mismatch": 1,
        "non_finite_evaluation": 2,
        "degenerate_pair": 2,
        "not_probability_preserving": 2,
        "origin_not_fixed": 2,
        "not_a_symmetry": 2,
        "mixed_branch": 2,
        "not_unitary": 2,
        "reconstruction_mismatch": 2,
        "zero_reference": 2,
        "not_unitary_input": 1,
        "not_isometry": 2,
        "not_orthogonal": 2,
        "not_real_map": 1,
        "parse_error": 1,
        "unknown_identifier": 1,
        "unknown_matrix": 1,
        "division_near_zero": 2,
        "schema_error": 1,
    }
    assert len(defined) == 20
    for klass in defined:
        exc = klass("boom", 1, 2) if issubclass(klass, errs.ParseError) else klass("boom")
        code, payload = _error_payload(exc)
        assert (code, payload["error"]) == (klass.exit_code, klass.code)
        assert payload["detail"] == str(exc)


def test_samples_above_cap_is_schema_error_before_sampling(tmp_path, capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled although --samples is above the cap")

    monkeypatch.setattr(wg.classifier, "random_state", no_sampling)
    spec = write_spec(tmp_path, IDENTITY)
    build_parser()  # built once per process; its allocations are not the run's
    for command in ("classify", "check", "mazur-ulam"):
        tracemalloc.start()
        try:
            code, report = run_json(
                [command, "--spec", spec, "--samples", str(MAX_SAMPLES + 1)], capsys
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert report["error"] == "schema_error"
        assert report["detail"] == f"--samples must be at most {MAX_SAMPLES}"
        assert peak < 64 * 1024


def test_samples_at_cap_is_accepted(tmp_path, capsys):
    spec = write_spec(tmp_path, IDENTITY)
    code, report = run_json(["check", "--spec", spec, "--samples", str(MAX_SAMPLES)], capsys)
    assert code == 0
    assert report["preservation"]["pairs_tested"] == MAX_SAMPLES + 6


def test_back_to_back_calls_share_nothing_but_the_parser(tmp_path, capsys):
    spec = write_spec(tmp_path, IDENTITY)
    assert build_parser() is build_parser()
    code, report = run_json(["diff", "--spec", spec, "--point", "1,0", "--levels", "2"], capsys)
    assert code == 0
    assert (report["config_echo"]["point"], report["config_echo"]["levels"]) == ("1,0", 2)
    code, report = run_json(["classify", "--spec", spec], capsys)
    assert code == 0
    assert "point" not in report["config_echo"]
    assert "levels" not in report["config_echo"]

    with pytest.raises(SystemExit) as usage:
        main(["classify", "--no-timestamp"])
    assert usage.value.code == 1
    capsys.readouterr()
    code, report = run_json(["check", "--spec", spec], capsys)
    assert code == 0
    assert report["verdict"] == "preserving"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "wigner", "fuzz", "--no-timestamp"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["verdict"] == "ok"
