import contextlib
import csv
import dataclasses
import io
import json
import pathlib
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wigner as wg
from wigner import dsl
from wigner.classifier import PAIR_COLUMNS
from wigner.errors import MAX_SAMPLES, SchemaError
from wigner.cli import REPORT_SCHEMA, build_parser, main

from test_dsl_properties import spaced_sources

CORPUS = pathlib.Path(__file__).parent / "corpus"
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


def strict_json(text):
    """Parse `text` as strict JSON, which has no NaN or infinities."""
    def refuse(constant):
        raise AssertionError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


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


@pytest.mark.parametrize("text", (SCALING, NORM_WARP, TRANSLATION))
def test_check_and_classify_report_one_preservation_failure(tmp_path, capsys, text):
    spec = write_spec(tmp_path, text)
    reports = {}
    for command in ("check", "classify"):
        code, reports[command] = run_json([command, "--spec", spec], capsys)
        assert (code, reports[command]["error"]) == (2, "not_a_symmetry")
    check, classified = reports["check"], reports["classify"]
    assert check["detail"] == classified["detail"]
    assert check["detail"].startswith("max modulus deviation ")
    assert len(check["preservation"]["pairs"]) == check["preservation"]["pairs_tested"]
    assert "pairs" not in classified["preservation"]
    listed = dict(check["preservation"])
    del listed["pairs"]
    assert listed == classified["preservation"]


@pytest.mark.parametrize("text", (IDENTITY, NORM_WARP))
def test_check_pair_listing_holds_each_record(tmp_path, capsys, text):
    # the identity lists its specials and 7 random pairs, the norm warp
    # fails a special pair and lists the specials only
    args = ["check", "--spec", write_spec(tmp_path, text), "--samples", "7", "--seed", "3"]
    _, report = run_json(args, capsys)
    transform = wg.compile_to_transformation(wg.dsl.parse(text))
    sampled = wg.check_preservation(transform, 7, 3, wg.gauge.PRESERVE_TOL)
    assert sampled.labels.count("random") == (7 if text == IDENTITY else 0)
    rows = [[label, *row] for label, row in zip(sampled.labels, sampled.columns.tolist())]
    pairs = report["preservation"]["pairs"]
    assert [[pair[name] for name in ("label", *PAIR_COLUMNS)] for pair in pairs] == rows
    assert all(pair.keys() == {"label", *PAIR_COLUMNS} for pair in pairs)
    _, out = run_cli(args + ["--format", "csv"], capsys)
    header, *listed = csv.reader(io.StringIO(out))
    assert header == ["label", *PAIR_COLUMNS] == "label,norm_w,norm_z,expected,deviation".split(",")
    assert listed == [[label, *map(repr, row)] for label, *row in rows]


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


@pytest.mark.parametrize("point", [None, "0.3-1i, 2"])
def test_diff_levels_0_reports_the_plain_jacobian(tmp_path, capsys, point):
    text = "dim 2;\nT1 = expi(re(z1 * z2)) * z2;\nT2 = conj(z1);\n"
    args = ["diff", "--spec", write_spec(tmp_path, text), "--levels", "0"]
    code, report = run_json(args + ([] if point is None else ["--point", point]), capsys)
    at = np.zeros(2) if point is None else np.array([0.3 - 1j, 2.0])
    jac = wg.wirtinger_jacobian(wg.compile_to_transformation(wg.parse(text)), at, 1e-5)
    assert code == 0
    assert report["d_z"] == [[[v.real, v.imag] for v in row] for row in jac.d_z.tolist()]
    assert report["d_zbar"] == [[[v.real, v.imag] for v in row] for row in jac.d_zbar.tolist()]
    assert (report["d_zbar_max"], report["levels"]) == (jac.d_zbar_norm, 0)


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


def test_fuzz_manifest_with_an_unknown_key_is_refused_before_building(tmp_path, capsys, monkeypatch):
    def no_building(*args, **kwargs):
        raise AssertionError("built a map for an entry with an unknown key")

    monkeypatch.setattr(wg.generators, "haar_unitary", no_building)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([{"kind": "linear", "n": 3, "seed": 1, "dressing-degree": 3}]))
    code, report = run_json(["fuzz", "--manifest", str(manifest)], capsys)
    assert (code, report["error"]) == (1, "schema_error")
    assert report["detail"] == "entry 0: unknown key 'dressing-degree'"


def test_mazur_ulam_rotation(tmp_path, capsys):
    spec = write_spec(tmp_path, ROTATION)
    code, report = run_json(["mazur-ulam", "--spec", spec], capsys)
    assert code == 0
    assert report["verdict"] == "orthogonal"
    recovered = np.array(report["operator_real"])
    expected = np.array([[1, -1], [1, 1]]) / np.sqrt(2)
    assert np.abs(recovered - expected).max() < 1e-9
    assert report["orthogonality_residual"] < 1e-9
    assert "pairs" not in report["isometry"]  # only check lists its pairs


def test_mazur_ulam_translation_exit_2(tmp_path, capsys):
    spec = write_spec(tmp_path, "dim 1;\nT1 = z1 + 0.5;\n")
    code, report = run_json(["mazur-ulam", "--spec", spec], capsys)
    assert code == 2
    assert report["error"] == "not_isometry"
    assert report["isometry"]["passed"] is False
    assert "pairs" not in report["isometry"]
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


@pytest.mark.parametrize(
    "argv, column",
    [
        (["classify", "--spec", "past_range.wig"], 13),
        (["diff", "--spec", "identity.wig", "--point", "1e400,0"], 1),
    ],
)
def test_literal_past_float_range_is_parse_error(tmp_path, capsys, argv, column):
    (tmp_path / "past_range.wig").write_text("dim 2; T1 = 1e400 * z1; T2 = z2;")
    (tmp_path / "identity.wig").write_text(IDENTITY)
    argv = [str(tmp_path / arg) if arg.endswith(".wig") else arg for arg in argv]
    code, report = run_json(argv, capsys)
    assert (code, report["error"]) == (1, "parse_error")
    assert report["detail"] == f"1:{column}: number out of float range"


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


def test_string_constant_entry_is_schema_error(tmp_path, capsys):
    spec = write_spec(tmp_path, "dim 1;\nT1 = mat(U);\n")
    constants = tmp_path / "constants.json"
    constants.write_text('{"U": [[["1", 0]]]}')
    code, report = run_json(["classify", "--spec", spec, "--constants", str(constants)], capsys)
    assert code == 1
    assert report["error"] == "schema_error"
    assert report["detail"] == "matrix 'U' must be numeric, got list"


def test_constant_entry_past_float_range_is_schema_error(tmp_path):
    huge = 10**400
    spec_text = "dim 1;\nT1 = mat(U);\n"
    spec = write_spec(tmp_path, spec_text)
    constants = tmp_path / "constants.json"
    constants.write_text('{"U": [[[%d, 0]]]}' % huge)
    with pytest.raises(SchemaError, match="matrix 'U' must be within float range"):
        dsl.load_constants(constants)
    with pytest.raises(SchemaError, match="matrix 'U' must be within float range"):
        dsl.compile_to_transformation(dsl.parse(spec_text), {"U": [[huge]]})
    proc = subprocess.run(
        [sys.executable, "-m", "wigner", "check", "--spec", spec, "--constants", str(constants),
         "--no-timestamp"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["error"] == "schema_error"


def test_missing_file_exit_1(tmp_path, capsys):
    code, report = run_json(["classify", "--spec", str(tmp_path / "absent.wig")], capsys)
    assert code == 1
    assert report["error"] == "io_error"


@pytest.mark.parametrize("output", [".", "missing/report.json"])
def test_unwritable_output_is_an_io_error_on_stdout(tmp_path, capsys, output):
    target = tmp_path / output
    spec = str(CORPUS / "analytic_identity.wig")
    code = main(["check", "--spec", spec, "--output", str(target), "--no-timestamp"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    report = json.loads(captured.out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["error"] == "io_error"
    assert str(target) in report["detail"]
    assert "output" not in report["config_echo"]
    assert sorted(p.name for p in tmp_path.iterdir()) == []


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
    assert header == (
        "verdict,branch,unitarity_residual,reconstruction_residual,pairs_tested,max_deviation"
    )
    assert row.split(",")[:2] == ["symmetry", "antilinear"]
    assert row.split(",")[4] == "56"


def test_csv_format_mazur_ulam_scalars(tmp_path, capsys):
    spec = write_spec(tmp_path, ROTATION)
    code, out = run_cli(
        ["mazur-ulam", "--spec", spec, "--format", "csv", "--no-timestamp"], capsys
    )
    assert code == 0
    header, row = out.strip().split("\n")
    assert header == "verdict,orthogonality_residual,pairs_tested,max_deviation"
    assert row.split(",")[::2] == ["orthogonal", "53"]


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
    # T(0) = (1, 0) fails the special pairs, so the 50 random pairs are not drawn
    assert "isometry: 3 pairs" in out




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


ALL_SETTINGS = ("step", "tol_preserve", "tol_unitary", "tol_branch", "samples", "seed")
COMMAND_SETTINGS = {
    "classify": ALL_SETTINGS,
    "check": ("tol_preserve", "samples", "seed"),
    "diff": ("step", "tol_branch"),
    "fuzz": ALL_SETTINGS,
    "mazur-ulam": ("tol_unitary", "samples", "seed"),
}
SETTING_VALUES = {
    "step": 2e-5, "tol_preserve": 1e-7, "tol_unitary": 1e-5, "tol_branch": 1e-3,
    "samples": 7, "seed": 3,
}
UNLISTED = [(c, name) for c in COMMAND_SETTINGS for name in ALL_SETTINGS
            if name not in COMMAND_SETTINGS[c]]
FUZZ_CSV_HEADER = "index,kind,n,seed,dressing_degree,status,branch,residual,error\n"


def option(name):
    return "--" + name.replace("_", "-")


def command_args(tmp_path, command):
    """A subcommand with an input it accepts (exit 0)."""
    if command == "fuzz":
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([{"kind": "scaling", "n": 2, "seed": 1}]))
        return ["fuzz", "--manifest", str(manifest)]
    return [command, "--spec", write_spec(tmp_path, ROTATION)]


@pytest.mark.parametrize("command", COMMAND_SETTINGS)
def test_each_subcommand_takes_and_echoes_the_settings_it_reads(tmp_path, capsys, command):
    args = command_args(tmp_path, command)
    for name in COMMAND_SETTINGS[command]:
        args += [option(name), str(SETTING_VALUES[name])]
    code, report = run_json(args, capsys)
    assert code == 0
    echo = report["config_echo"]
    assert {name: echo[name] for name in ALL_SETTINGS if name in echo} == {
        name: SETTING_VALUES[name] for name in COMMAND_SETTINGS[command]
    }


@pytest.mark.parametrize("command, name", UNLISTED)
def test_a_setting_the_subcommand_ignores_is_a_usage_error(tmp_path, capsys, command, name):
    args = command_args(tmp_path, command) + [option(name), str(SETTING_VALUES[name])]
    with pytest.raises(SystemExit) as usage:
        main(args)
    assert usage.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {option(name)}" in captured.err


def test_mazur_ulam_takes_no_step(tmp_path, capsys):
    # the real matrix is read off the basis images, so no stencil step applies
    with pytest.raises(SystemExit) as usage:
        main(command_args(tmp_path, "mazur-ulam") + ["--step", "1e-5"])
    assert usage.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --step 1e-5" in captured.err


def test_help_lists_each_subcommands_options(capsys):
    top = build_parser().format_help()
    assert all(command in top for command in COMMAND_SETTINGS)
    shared = {"--help", "--format", "--output", "--no-timestamp"}
    inputs = {"fuzz": {"--manifest"}, "diff": {"--spec", "--constants", "--point", "--levels"}}
    pairs = 0
    for command, settings in COMMAND_SETTINGS.items():
        with pytest.raises(SystemExit) as shown:
            main([command, "--help"])
        assert shown.value.code == 0
        listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        expected = shared | inputs.get(command, {"--spec", "--constants"})
        assert listed == expected | {option(name) for name in settings}
        pairs += len(listed - {"--help"})
    assert pairs == 46


BAD_SETTINGS = [
    ("classify", "--tol-preserve", "nan", "finite"),
    ("check", "--tol-preserve", "nan", "finite"),
    ("classify", "--tol-preserve=-inf", None, "finite"),
    ("classify", "--tol-unitary", "nan", "finite"),
    ("mazur-ulam", "--tol-unitary", "nan", "finite"),
    ("fuzz", "--tol-unitary", "nan", "finite"),
    ("classify", "--step", "nan", "finite"),
    ("classify", "--step", "inf", "finite"),
    ("diff", "--step", "nan", "finite"),
    ("diff", "--step", "inf", "finite"),
    ("classify", "--tol-branch", "inf", "finite"),
    ("diff", "--tol-branch", "inf", "finite"),
    ("classify", "--seed", "-1", "non-negative"),
    ("check", "--seed", "-1", "non-negative"),
    ("fuzz", "--seed", "-1", "non-negative"),
    ("mazur-ulam", "--seed", "-1", "non-negative"),
    ("classify", "--step", "1e-300", "in [1e-08, 0.1]"),
    ("classify", "--step", "1e-160", "in [1e-08, 0.1]"),
    ("classify", "--step", "1e-13", "in [1e-08, 0.1]"),
    ("classify", "--step", "9.9e-9", "in [1e-08, 0.1]"),
    ("classify", "--step", "0.11", "in [1e-08, 0.1]"),
    ("classify", "--step", "1e300", "in [1e-08, 0.1]"),
    ("diff", "--step", "1e-300", "in [1e-08, 0.1]"),
    ("fuzz", "--step", "1e-13", "in [1e-08, 0.1]"),
    ("classify", "--tol-branch", "1", "at most 0.1"),
    ("classify", "--tol-branch", "1e300", "at most 0.1"),
    ("classify", "--tol-branch", "0.11", "at most 0.1"),
    ("diff", "--tol-branch", "1", "at most 0.1"),
    ("fuzz", "--tol-branch", "1", "at most 0.1"),
]


@pytest.mark.parametrize("command, flag, value, rule", BAD_SETTINGS)
def test_setting_that_would_skew_the_verdict_is_schema_error(
    tmp_path, capsys, command, flag, value, rule
):
    args = command_args(tmp_path, command) + [flag] + ([value] if value else [])
    code, out = run_cli(args + ["--no-timestamp"], capsys)
    report = strict_json(out)  # a NaN or infinite setting is echoed as null
    jsonschema.validate(report, REPORT_SCHEMA)
    assert (code, report["error"]) == (1, "schema_error")
    assert report["detail"] == f"{flag.split('=')[0]} must be {rule}"
    assert capsys.readouterr().err == ""


def test_overflowing_products_are_written_as_null(tmp_path, capsys):
    spec = write_spec(tmp_path, "dim 2;\nT1 = 1e200*z1;\nT2 = 1e200*z2;\n")
    code, out = run_cli(["check", "--spec", spec, "--no-timestamp"], capsys)
    report = strict_json(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert (code, report["error"]) == (2, "not_a_symmetry")
    assert report["detail"] == "max modulus deviation inf exceeds 1e-08"
    assert report["preservation"]["max_deviation"] is None
    deviations = [pair["deviation"] for pair in report["preservation"]["pairs"]]
    assert deviations[0] == 0.0  # the zero pair
    assert None in deviations


@pytest.mark.parametrize(
    "setting", [("--step", "1e-8"), ("--step", "0.1"), ("--tol-branch", "0.1")]
)
def test_settings_at_their_bounds_classify_the_identity(tmp_path, capsys, setting):
    spec = write_spec(tmp_path, IDENTITY)
    code, report = run_json(["classify", "--spec", spec, *setting], capsys)
    assert (code, report["verdict"], report["branch"]) == (0, "symmetry", "linear")


def test_fuzz_csv_of_a_refused_manifest_is_the_header_alone(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([{"kind": "linear", "n": 65, "seed": 1}]))
    code, out = run_cli(
        ["fuzz", "--manifest", str(manifest), "--format", "csv", "--no-timestamp"], capsys
    )
    assert (code, out) == (1, FUZZ_CSV_HEADER)


def test_fuzz_manifest_above_the_cap_is_refused_before_building(tmp_path, capsys, monkeypatch):
    def no_building(*args, **kwargs):
        raise AssertionError("built a map for an entry above the dimension cap")

    monkeypatch.setattr(wg.generators, "haar_unitary", no_building)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([{"kind": "linear", "n": 65, "seed": 1}]))
    code, report = run_json(["fuzz", "--manifest", str(manifest)], capsys)
    assert (code, report["error"]) == (1, "schema_error")
    assert report["detail"] == "entry 0: n = 65 exceeds the dimension cap 64"


THREE_ENTRIES = [
    {"kind": "linear", "n": 1, "seed": 1, "dressing_degree": 0},
    {"kind": "linear", "n": 2, "seed": 2, "dressing_degree": 1},
    {"kind": "scaling", "n": 2, "seed": 3},
]


def write_manifest(tmp_path, entries=THREE_ENTRIES):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(entries))
    return str(manifest)


def test_fuzz_with_an_unreachable_tolerance_reports_fuzz_failures(tmp_path, capsys):
    manifest = write_manifest(tmp_path)
    code, report = run_json(["fuzz", "--manifest", manifest, "--tol-unitary", "1e-17"], capsys)
    assert (code, report["error"]) == (2, "fuzz_failures")
    # the n = 1 symmetry is classified too: its 1 x 1 operator is unitary to
    # the last bit, but its reconstruction misses by 5e-16
    assert report["detail"] == "0/2 symmetries recovered, 1/1 adversaries rejected"
    errors = [inst.get("error") for inst in report["instances"]]
    assert errors == ["reconstruction_mismatch", "not_unitary", "not_a_symmetry"]


def test_fuzz_tests_n1_adversaries(tmp_path, capsys):
    entries = [
        {"kind": "scaling", "n": 1, "seed": 0},
        {"kind": "norm_warp", "n": 1, "seed": 1},
        {"kind": "antilinear", "n": 1, "seed": 2, "dressing_degree": 2},
    ]
    code, report = run_json(["fuzz", "--manifest", write_manifest(tmp_path, entries)], capsys)
    assert code == 0
    assert [inst["status"] for inst in report["instances"]] == ["rejected", "rejected", "caveat_n1"]
    assert [inst.get("error") for inst in report["instances"][:2]] == ["not_a_symmetry"] * 2
    assert "branch" not in report["instances"][2]
    assert report["counts"] == {
        "symmetries": 0, "recovered": 0, "adversaries": 2, "rejected": 2, "caveat_n1": 1
    }


def test_fuzz_reports_accepted_adversaries_and_mismatched_symmetries(tmp_path, capsys, monkeypatch):
    build = wg.cli.transformation_from_entry

    def swapped(entry):
        if entry["kind"] == "scaling":  # a symmetry where an adversary belongs
            return wg.make_symmetry("linear", np.eye(entry["n"]))
        truth = build(entry).ground_truth  # linear, so the antilinear branch mismatches
        flipped = wg.make_symmetry("antilinear", truth["matrix"])
        return dataclasses.replace(flipped, ground_truth=truth)

    monkeypatch.setattr(wg.cli, "transformation_from_entry", swapped)
    code, report = run_json(["fuzz", "--manifest", write_manifest(tmp_path)], capsys)
    assert (code, report["error"]) == (2, "fuzz_failures")
    assert [inst["status"] for inst in report["instances"]] == ["caveat_n1", "mismatch", "accepted"]
    assert report["instances"][1]["branch"] == "antilinear"
    assert report["detail"] == "0/1 symmetries recovered, 0/1 adversaries rejected"


def test_fuzz_manifest_that_is_not_json_is_schema_error(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text('[{"kind": "linear",')
    code, report = run_json(["fuzz", "--manifest", str(manifest)], capsys)
    assert (code, report["error"]) == (1, "schema_error")
    assert report["detail"].startswith("manifest file is not valid JSON: ")


def test_point_with_an_index_past_int_digits_is_parse_error(capsys):
    # int() reads at most 4300 digits; a constant refuses any variable once parsed
    spec = str(CORPUS / "analytic_identity.wig")
    code = main(["diff", "--spec", spec, "--point", "z" + "1" * 5000, "--no-timestamp"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    report = json.loads(captured.out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["error"] == "parse_error"
    assert report["detail"] == "1:1: constant expressions cannot reference the state"


#: file contents, and the report code each gives as a spec, as constants and as a manifest
NOT_JSON = ("parse_error", "schema_error", "schema_error")
UNREADABLE = {
    "not_utf8": (b"\xff\xfe", ("io_error", "io_error", "io_error")),
    "integer_past_int_digits": (b"[" + b"1" * 5000 + b"]", NOT_JSON),
    "nested_past_the_recursion_limit": (b"[" * 100_000, NOT_JSON),
}


@pytest.mark.parametrize("content, codes", UNREADABLE.values(), ids=UNREADABLE.keys())
def test_unreadable_input_file_is_a_typed_error(tmp_path, capsys, content, codes):
    path = tmp_path / "input"
    path.write_bytes(content)
    spec = write_spec(tmp_path, IDENTITY)
    for args, code in zip(
        (["check", "--spec", str(path)], ["check", "--spec", spec, "--constants", str(path)],
         ["fuzz", "--manifest", str(path)]),
        codes,
    ):
        assert main(args + ["--no-timestamp"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["error"] == code


def test_diff_levels_above_4_is_schema_error(tmp_path, capsys):
    spec = write_spec(tmp_path, IDENTITY)
    code, report = run_json(["diff", "--spec", spec, "--levels", "5"], capsys)
    assert (code, report["error"]) == (1, "schema_error")
    assert report["detail"] == "--levels must be in 0..4"


def test_richardson_overflow_is_non_finite_evaluation_with_empty_stderr(tmp_path):
    # every central difference is finite; 4 * d_z = 2e308 overflows in the level combination
    spec = write_spec(tmp_path, "dim 1;\nT1 = 1e300 * (5e7 * z1);\n")
    proc = subprocess.run(
        [sys.executable, "-m", "wigner", "diff", "--spec", spec, "--levels", "1", "--no-timestamp"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (2, "")
    assert json.loads(proc.stdout)["error"] == "non_finite_evaluation"


def human(args, capsys):
    return run_cli(args + ["--format", "human", "--no-timestamp"], capsys)


def test_human_format_of_diff(tmp_path, capsys):
    code, out = human(["diff", "--spec", write_spec(tmp_path, IDENTITY)], capsys)
    one, zero = f"{'1+0i':>22}", f"{'0+0i':>22}"
    assert (code, out.splitlines()) == (0, [
        "command: diff",
        "verdict: analytic",
        "max |d_zbar| entry: 0",
        "d_z:",
        f"  {one} {zero}",
        f"  {zero} {one}",
        "d_zbar:",
        f"  {zero} {zero}",
        f"  {zero} {zero}",
    ])


def test_human_format_of_fuzz(tmp_path, capsys):
    code, out = human(["fuzz", "--manifest", write_manifest(tmp_path)], capsys)
    assert (code, out) == (0, (
        "command: fuzz\n"
        "verdict: ok\n"
        "fuzz: 1/1 symmetries recovered, 1/1 adversaries rejected, 1 n=1 caveats\n"
    ))


def test_human_format_of_mazur_ulam(tmp_path, capsys):
    code, out = human(["mazur-ulam", "--spec", write_spec(tmp_path, ROTATION)], capsys)
    lines = out.splitlines()
    assert code == 0
    assert lines[:3] == ["command: mazur-ulam", "verdict: orthogonal", "operator:"]
    assert lines[3].split() == ["0.707107", "-0.707107"]
    assert lines[4].split() == ["0.707107", "0.707107"]
    assert re.fullmatch(r"orthogonality residual: \S+ \[ok\]", lines[5])
    assert re.fullmatch(r"isometry: 53 pairs, max deviation \S+ \[ok\]", lines[6])
    assert len(lines) == 7


def test_human_format_of_an_n1_classify_names_its_caveat(tmp_path, capsys):
    code, out = human(["classify", "--spec", write_spec(tmp_path, PHASE_SINGLE)], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "caveats: n1_branch_indistinct"


def test_human_format_flags_residuals(tmp_path, capsys):
    code, out = human(["classify", "--spec", write_spec(tmp_path, CONJUGATION)], capsys)
    lines = out.splitlines()
    assert code == 0
    assert lines[:4] == ["command: classify", "verdict: symmetry", "branch: antilinear", "operator:"]
    # each entry is a complex number right-aligned in 22 columns, after a 2-space indent
    for k, line in enumerate(lines[4:6]):
        assert len(line) == 2 + 22 + 1 + 22, line
        cells = [complex(cell.replace("i", "j")) for cell in line.split()]
        assert np.abs(np.array(cells) - np.eye(2)[k]).max() < 1e-9, line
    assert re.fullmatch(r"unitarity residual: \S+ \[ok\]", lines[6])
    assert re.fullmatch(r"reconstruction residual: \S+ \[ok\]", lines[7])
    assert re.fullmatch(r"preservation: 56 pairs, max deviation \S+ \[ok\]", lines[8])
    assert len(lines) == 9


def test_human_format_of_a_check_rejection(tmp_path, capsys):
    code, out = human(["check", "--spec", write_spec(tmp_path, SCALING)], capsys)
    lines = out.splitlines()
    assert code == 2
    assert lines[:2] == ["command: check", "error: not_a_symmetry"]
    assert re.fullmatch(r"detail: max modulus deviation \S+ exceeds 1e-08", lines[2])
    # a rejection stops at the n + 4 special pairs
    assert re.fullmatch(r"preservation: 6 pairs, max deviation \S+ \[EXCEEDS 1e-08\]", lines[3])
    assert len(lines) == 4


# each object a report can hold: the subcommand that emits it, and where it is
REPORT_BLOCKS = {
    "report": ("check", lambda report: report),
    "preservation": ("check", lambda report: report["preservation"]),
    "pairs": ("check", lambda report: report["preservation"]["pairs"][0]),
    "config_echo": ("check", lambda report: report["config_echo"]),
    "smoothness": ("classify", lambda report: report["smoothness"]),
    "counts": ("fuzz", lambda report: report["counts"]),
    "instances": ("fuzz", lambda report: report["instances"][0]),
}


@pytest.mark.parametrize("block", REPORT_BLOCKS)
def test_report_schema_refuses_an_undeclared_field(tmp_path, capsys, block):
    command, find = REPORT_BLOCKS[block]
    _, report = run_json(command_args(tmp_path, command), capsys)
    find(report)["bogus"] = 1
    with pytest.raises(jsonschema.ValidationError, match="bogus"):
        jsonschema.validate(report, REPORT_SCHEMA)


# ---------------------------------------------------------------------------
# a guard over whole command lines: any argument list argparse accepts gives
# a schema-valid report, exit 0, 1 or 2, and nothing on stderr

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)
MATRICES = st.integers(1, 3).flatmap(
    lambda n: st.dictionaries(
        st.sampled_from(("A", "B", "U")),
        st.lists(st.lists(st.lists(st.floats(-2, 2), min_size=2, max_size=2),
                          min_size=n, max_size=n), min_size=n, max_size=n),
        min_size=1,
    )
)
MANIFESTS = st.one_of(
    st.lists(
        st.fixed_dictionaries(
            {"kind": st.sampled_from(
                wg.generators.SYMMETRY_KINDS + wg.generators.ADVERSARY_KINDS + ("bogus",)),
             "n": st.integers(-1, 6),
             "seed": st.integers(-1, 10**6)},
            optional={"dressing_degree": st.integers(-1, 5), "dressing-degree": st.integers(0, 4)},
        ),
        max_size=3,
    ),
    st.lists(JSON_VALUES, max_size=3),
    JSON_VALUES,
)
SPEC_TOKENS = (
    "dim", "1", "2", "3", ";", "T1", "T2", "=", "z1", "z2", "z0", "(", ")", "+", "-", "*",
    "/", "i", "2.5e-3", "1e400", "conj", "expi", "norm2", "mat", "A", "#", "\n", "$",
    "z" + "1" * 5000,
)
# as often a spec that parses, so the later stages are reached, as one that may not
SPEC_TEXTS = st.booleans().flatmap(
    lambda parses: st.one_of(
        st.sampled_from(
            (IDENTITY, CONJUGATION, ROTATION, SCALING, NORM_WARP, DRESSED_MAT, PHASE_SINGLE)
        ),
        spaced_sources().map(lambda case: case[0]),
    ) if parses else st.one_of(
        st.lists(st.sampled_from(SPEC_TOKENS), max_size=24).map(" ".join),
        st.text(max_size=40),
    )
)
POINT_COMPONENTS = (
    "0", "1", "-i", "0.5+2i", "1e400", "exp(1000)", "1/0", "z1", "z" + "1" * 5000, "(", "",
)
POINTS = st.lists(st.sampled_from(POINT_COMPONENTS) | st.text(max_size=8), min_size=1, max_size=3)
FLOAT_SETTINGS = st.sampled_from((1e-7, 1e-5, 1e-3)) | st.floats()
SETTING_STRATEGIES = {
    "samples": st.integers(-1, 40) | st.just(MAX_SAMPLES + 1),
    "seed": st.integers(-1, 2**70),
    "levels": st.integers(-1, 5),
}


@st.composite
def command_lines(draw):
    """(command, files, options): a subcommand, the text of each file its
    path options name, and its other options as --name=value strings."""
    command = draw(st.sampled_from(sorted(COMMAND_SETTINGS)))
    if command == "fuzz":
        # always a manifest: the built-in corpus takes a second and has its own tests
        files = {"manifest": json.dumps(draw(MANIFESTS))}
    else:
        files = {"spec": draw(SPEC_TEXTS)}
        if draw(st.booleans()):
            files["constants"] = json.dumps(draw(MATRICES | JSON_VALUES))
    names = COMMAND_SETTINGS[command] + (("levels",) if command == "diff" else ())
    # one token per option, since a value may start with "-"
    options = [
        f"{option(name)}={draw(SETTING_STRATEGIES.get(name, FLOAT_SETTINGS))}"
        for name in draw(st.lists(st.sampled_from(names), unique=True))
    ]
    if command == "diff" and draw(st.booleans()):
        options.append("--point=" + ",".join(draw(POINTS)))
    if draw(st.booleans()):
        options.append("--no-timestamp")
    return command, files, options


#: where --output points, relative to the run's directory (None: no --output)
OUTPUTS = (None, "report.json", ".", "missing/report.json")


@settings(max_examples=150, deadline=None, database=None)
@given(command_lines(), st.sampled_from(OUTPUTS))
def test_any_command_line_gives_a_report_and_an_exit_code(case, output):
    command, files, options = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command] + options
        for name, text in files.items():
            path = pathlib.Path(tmp, name)
            path.write_text(text, encoding="utf-8")
            argv.append(f"--{name}={path}")
        report_path = pathlib.Path(tmp, "report.json")
        if output:
            argv.append(f"--output={pathlib.Path(tmp, output)}")
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
        to_file = output == "report.json"
        text = report_path.read_text(encoding="utf-8") if to_file else out.getvalue()
    assert code in (0, 1, 2)
    assert (err.getvalue(), caught) == ("", [])
    if to_file:
        assert out.getvalue() == ""
    report = strict_json(text)
    jsonschema.validate(report, REPORT_SCHEMA)
    if output not in (None, "report.json"):  # a directory, or a path in none
        assert (code, report["error"]) == (1, "io_error")
