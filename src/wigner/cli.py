"""Command-line driver: load transform definitions, run checks,
classification, Jacobian dumps and corpus fuzzing, emit machine-readable
reports.

Subcommands: classify, check, diff, fuzz, mazur-ulam. Each takes, as
--<name>, only the ClassifyConfig settings its handler reads (`_COMMANDS`).
mazur-ulam reads the spec as a `RealTransformation`, so output with an
imaginary part of states.REAL_TOL or more is refused as not_real_map.

Exit codes: 0 for a positive verdict, 2 for a negative one (a diagnostic
report is still emitted; also fuzz_failures), 1 for an ill-posed question
(bad input files or setting values, and command-line usage errors). Each
error type carries its report code and exit code; see wigner.errors.

Reports are JSON by default (schema version 1, complex numbers always as
[re, im] pairs, operators row-major); --format csv and --format human are
also available. With --no-timestamp the generated_at and timing_ms fields
are suppressed so identical runs produce byte-identical reports. JSON
reports are strict: a non-finite number is written as null. All
randomness flows from --seed (default 0).
"""

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
import time
from datetime import datetime, timezone
from typing import Callable, NamedTuple

import numpy as np

from . import dsl
from .classifier import (
    ClassifyConfig,
    PairRecord,
    align_global_phase,
    check_preservation,
    classify,
    require_preserved,
)
from .errors import (
    DimensionMismatch, NotASymmetry, NotIsometry, WignerError, require_settings
)
from .generators import (
    default_manifest,
    is_symmetry_kind,
    transformation_from_entry,
    validate_manifest,
)
from .mazurulam import RealTransformation, reconstruct_orthogonal
from .states import zero_state
# unused here, but bench/test_bench.py checks that its tracer patches this binding
from .wirtinger import richardson_refine, wirtinger_jacobian

SCHEMA_VERSION = 1

# strict JSON has no NaN or infinity, so a report writes a non-finite float as null
_REAL = {"type": ["number", "null"]}
_COMPLEX_PAIR = {
    "type": "array",
    "items": _REAL,
    "minItems": 2,
    "maxItems": 2,
}
_COMPLEX_MATRIX = {
    "type": "array",
    "items": {"type": "array", "items": _COMPLEX_PAIR},
}
_PRESERVATION_BLOCK = {
    "type": "object",
    "required": ["pairs_tested", "max_deviation", "tolerance", "passed"],
    "properties": {
        "pairs_tested": {"type": "integer"},
        "max_deviation": _REAL,
        "tolerance": _REAL,
        "passed": {"type": "boolean"},
        "pairs": {"type": "array"},
    },
}

#: JSON schema for every emitted report (validated in the test suite).
REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["schema_version", "config_echo"],
    "oneOf": [{"required": ["verdict"]}, {"required": ["error"]}],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "verdict": {"type": "string"},
        "error": {"type": "string"},
        "detail": {"type": "string"},
        "branch": {"enum": ["linear", "antilinear"]},
        "operator": _COMPLEX_MATRIX,
        "operator_real": {"type": "array", "items": {"type": "array", "items": _REAL}},
        "unitarity_residual": _REAL,
        "reconstruction_residual": _REAL,
        "orthogonality_residual": _REAL,
        "origin_d_z_norm": _REAL,
        "origin_d_zbar_norm": _REAL,
        "smoothness": {"type": "object"},
        "caveats": {"type": "array", "items": {"type": "string"}},
        "preservation": _PRESERVATION_BLOCK,
        "isometry": _PRESERVATION_BLOCK,
        "d_z": _COMPLEX_MATRIX,
        "d_zbar": _COMPLEX_MATRIX,
        "d_zbar_max": _REAL,
        "point": {"type": "array", "items": _COMPLEX_PAIR},
        "step": _REAL,
        "levels": {"type": "integer"},
        "counts": {"type": "object"},
        "instances": {"type": "array"},
        "config_echo": {"type": "object"},
        "timing_ms": {"type": "number"},
        "generated_at": {"type": "string"},
    },
}


def _complex_payload(array) -> list:
    """`array`, of any rank, as nested lists with each entry an [re, im] pair."""
    return np.stack([np.real(array), np.imag(array)], axis=-1).tolist()


def _error_payload(exc: WignerError) -> tuple[int, dict]:
    payload = {"error": exc.code, "detail": str(exc)}
    if exc.report is not None:
        key = "isometry" if isinstance(exc, NotIsometry) else "preservation"
        payload[key] = _preservation_payload(exc.report)
    return exc.exit_code, payload


def _preservation_payload(report, with_pairs: bool = False) -> dict:
    block = {
        "pairs_tested": report.pairs_tested,
        "max_deviation": report.max_deviation,
        "tolerance": report.tolerance,
        "passed": report.passed,
    }
    if with_pairs:
        block["pairs"] = [
            dict(zip(_PAIR_FIELDS, (label, *row)))
            for label, row in zip(report.labels, report.columns.tolist())
        ]
    return block


# ---------------------------------------------------------------------------
# input loading

def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_transformation(args):
    spec = dsl.parse(_read_text(args.spec))
    constants = dsl.load_constants(args.constants) if args.constants else None
    return dsl.compile_to_transformation(spec, constants)


def _option(name: str) -> str:
    return "--" + name.replace("_", "-")


def _config_from_args(args) -> ClassifyConfig:
    settings = _COMMANDS[args.command].settings
    return ClassifyConfig(**{name: getattr(args, name) for name in settings})


def _validate_settings(args) -> None:
    """Refuse a bad setting, named by its option, before anything runs.

    check, diff and mazur-ulam build no ClassifyConfig, so its bounds are
    applied here, as are those of diff's --levels, which no config holds."""
    settings = {name: getattr(args, name) for name in _COMMANDS[args.command].settings}
    if args.command == "diff":
        settings["levels"] = args.levels
    require_settings(settings, _option)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_classify(args) -> tuple[int, dict]:
    transform = _load_transformation(args)
    result = classify(transform, _config_from_args(args))
    smooth = result.smoothness
    payload = {
        "verdict": "symmetry",
        "branch": result.branch,
        "operator": _complex_payload(result.operator),
        "unitarity_residual": result.unitarity_residual,
        "reconstruction_residual": result.reconstruction_residual,
        "origin_d_z_norm": result.origin_d_z_norm,
        "origin_d_zbar_norm": result.origin_d_zbar_norm,
        "smoothness": {
            "coarse_difference": smooth.coarse_difference,
            "fine_difference": smooth.fine_difference,
            "halving_ratio": smooth.halving_ratio,
        },
        "preservation": _preservation_payload(result.preservation),
        "caveats": list(result.caveats),
    }
    return 0, payload


def _cmd_check(args) -> tuple[int, dict]:
    transform = _load_transformation(args)
    report = check_preservation(transform, args.samples, args.seed, args.tol_preserve)
    try:
        require_preserved(report)
    except NotASymmetry as exc:
        code, payload = _error_payload(exc)
    else:
        code, payload = 0, {"verdict": "preserving"}
    # the human format never prints the pair listing
    payload["preservation"] = _preservation_payload(report, with_pairs=args.format != "human")
    return code, payload


def _cmd_diff(args) -> tuple[int, dict]:
    transform = _load_transformation(args)
    point = zero_state(transform.dimension)
    if args.point is not None:
        point = [dsl.parse_constant(part) for part in args.point.split(",")]
        if len(point) != transform.dimension:
            raise DimensionMismatch(
                f"--point has {len(point)} components, "
                f"spec dimension is {transform.dimension}"
            )
    jac = richardson_refine(transform, point, args.step, args.levels)
    analytic = jac.d_zbar_norm < args.tol_branch
    payload = {
        "verdict": "analytic" if analytic else "not_analytic",
        "point": _complex_payload(jac.at),
        "d_z": _complex_payload(jac.d_z),
        "d_zbar": _complex_payload(jac.d_zbar),
        "d_zbar_max": jac.d_zbar_norm,
        "step": args.step,
        "levels": args.levels,
    }
    return 0, payload


def _fuzz_instance(index: int, entry: dict, args) -> dict:
    record = {
        "index": index,
        "kind": entry["kind"],
        "n": entry["n"],
        "seed": entry["seed"],
    }
    symmetry = is_symmetry_kind(entry["kind"])
    if symmetry:
        record["dressing_degree"] = entry.get("dressing_degree", 0)
    if entry["n"] == 1:
        record["status"] = "caveat_n1"
        return record
    transform = transformation_from_entry(entry)
    config = dataclasses.replace(_config_from_args(args), seed=args.seed + index)
    try:
        result = classify(transform, config)
    except WignerError as exc:
        record["status"] = "rejected"
        record["error"] = exc.code
        return record
    record["branch"] = result.branch
    if not symmetry:
        record["status"] = "accepted"
        return record
    # recovery threshold for the ground-truth comparison reuses --tol-unitary
    truth = transform.ground_truth
    alignment = align_global_phase(result.operator, truth["matrix"])
    record["residual"] = alignment.aligned_residual
    if result.branch == truth["kind"] and alignment.aligned_residual < args.tol_unitary:
        record["status"] = "recovered"
    else:
        record["status"] = "mismatch"
    return record


def _cmd_fuzz(args) -> tuple[int, dict]:
    if args.manifest:
        raw = json.loads(_read_text(args.manifest))
    else:
        raw = default_manifest()
    entries = validate_manifest(raw)

    records = [_fuzz_instance(idx, entry, args) for idx, entry in enumerate(entries)]

    symmetries = [r for r in records if is_symmetry_kind(r["kind"]) and r["status"] != "caveat_n1"]
    adversaries = [r for r in records if not is_symmetry_kind(r["kind"]) and r["status"] != "caveat_n1"]
    counts = {
        "symmetries": len(symmetries),
        "recovered": sum(r["status"] == "recovered" for r in symmetries),
        "adversaries": len(adversaries),
        "rejected": sum(r["status"] == "rejected" for r in adversaries),
        "caveat_n1": sum(r["status"] == "caveat_n1" for r in records),
    }
    ok = counts["recovered"] == counts["symmetries"] and counts["rejected"] == counts[
        "adversaries"
    ]
    payload = {"counts": counts, "instances": records}
    if ok:
        payload["verdict"] = "ok"
        return 0, payload
    payload["error"] = "fuzz_failures"
    payload["detail"] = (
        f"{counts['recovered']}/{counts['symmetries']} symmetries recovered, "
        f"{counts['rejected']}/{counts['adversaries']} adversaries rejected"
    )
    return 2, payload


def _cmd_mazur_ulam(args) -> tuple[int, dict]:
    transform = _load_transformation(args)
    reconstruction = reconstruct_orthogonal(
        RealTransformation(transform, transform.dimension, vectorized=True),
        step=args.step,
        tol=args.tol_unitary,
        num_pairs=args.samples,
        seed=args.seed,
    )
    return 0, {
        "verdict": "orthogonal",
        "operator_real": reconstruction.matrix.tolist(),
        "orthogonality_residual": reconstruction.orthogonality_residual,
        "isometry": _preservation_payload(reconstruction.isometry),
    }


class _Command(NamedTuple):
    handler: Callable
    help: str
    settings: tuple[str, ...]  # the ClassifyConfig fields the handler reads


_ALL_SETTINGS = tuple(f.name for f in dataclasses.fields(ClassifyConfig))

_COMMANDS = {
    "classify": _Command(
        _cmd_classify, "full verdict: branch + reconstructed operator", _ALL_SETTINGS
    ),
    "check": _Command(
        _cmd_check, "modulus-preservation check only", ("tol_preserve", "samples", "seed")
    ),
    "diff": _Command(
        _cmd_diff, "dump the Wirtinger Jacobian pair at a point", ("step", "tol_branch")
    ),
    "fuzz": _Command(
        _cmd_fuzz, "run a generated corpus through classification", _ALL_SETTINGS
    ),
    "mazur-ulam": _Command(
        _cmd_mazur_ulam,
        "real Euclidean analysis: isometry check + orthogonal matrix",
        ("step", "tol_unitary", "samples", "seed"),
    ),
}


# ---------------------------------------------------------------------------
# report assembly and serialization

def _config_echo(args) -> dict:
    """Every option the subcommand took, less where the report goes."""
    return {
        name: value
        for name, value in vars(args).items()
        if value is not None and name not in ("output", "no_timestamp")
    }


def _assemble(payload: dict, args, started: float) -> dict:
    report = dict(payload)
    report["schema_version"] = SCHEMA_VERSION
    report["config_echo"] = _config_echo(args)
    if not args.no_timestamp:
        report["timing_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
        report["generated_at"] = datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        )
    return report


def _finite_or_null(value):
    """`value` with each non-finite float in it, nested ones too, as None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(item) for item in value]
    return value


def _to_json(report: dict) -> str:
    return json.dumps(_finite_or_null(report), allow_nan=False, indent=2, sort_keys=True) + "\n"


_FUZZ_CSV_FIELDS = (
    "index", "kind", "n", "seed", "dressing_degree", "status", "branch", "residual", "error"
)
# the keys of each entry of `check`'s pair listing, in JSON and CSV
_PAIR_FIELDS = tuple(f.name for f in dataclasses.fields(PairRecord))
_CSV_SCALAR_FIELDS = (
    "verdict",
    "error",
    "branch",
    "unitarity_residual",
    "reconstruction_residual",
    "orthogonality_residual",
    "d_zbar_max",
)


def _csv_listing(fields, rows) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fields, restval="", lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def _to_csv(report: dict) -> str:
    command = report["config_echo"]["command"]
    if command == "fuzz":
        # a report refused on its manifest has no instances
        return _csv_listing(_FUZZ_CSV_FIELDS, report.get("instances", []))
    if command == "check" and "preservation" in report:
        return _csv_listing(_PAIR_FIELDS, report["preservation"]["pairs"])
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if command == "diff":
        writer.writerow(["row", "col", "d_z_re", "d_z_im", "d_zbar_re", "d_zbar_im"])
        d_z = report.get("d_z", [])
        d_zbar = report.get("d_zbar", [])
        for r, (row_z, row_b) in enumerate(zip(d_z, d_zbar)):
            for c, (vz, vb) in enumerate(zip(row_z, row_b)):
                writer.writerow([r, c, vz[0], vz[1], vb[0], vb[1]])
        return buffer.getvalue()
    fields = [f for f in _CSV_SCALAR_FIELDS if f in report]
    block = report.get("preservation", report.get("isometry"))
    extras = ["pairs_tested", "max_deviation"] if block else []
    writer.writerow(fields + extras)
    writer.writerow([report[f] for f in fields] + [block[e] for e in extras])
    return buffer.getvalue()


def _format_complex(pair) -> str:
    return f"{pair[0]:.6g}{pair[1]:+.6g}i"


def _human_matrix(rows, complex_entries: bool = True) -> list[str]:
    lines = []
    for row in rows:
        if complex_entries:
            cells = [f"{_format_complex(v):>22}" for v in row]
        else:
            cells = [f"{v:>12.6g}" for v in row]
        lines.append("  " + " ".join(cells))
    return lines


def _flag(value: float, tol: float) -> str:
    return "[ok]" if value < tol else f"[EXCEEDS {tol:g}]"


def _to_human(report: dict) -> str:
    echo = report["config_echo"]
    lines = [f"command: {echo['command']}"]
    if "error" in report:
        lines.append(f"error: {report['error']}")
        if "detail" in report:
            lines.append(f"detail: {report['detail']}")
    else:
        lines.append(f"verdict: {report['verdict']}")
    if "branch" in report:
        lines.append(f"branch: {report['branch']}")
    if "operator" in report:
        lines.append("operator:")
        lines += _human_matrix(report["operator"])
    if "operator_real" in report:
        lines.append("operator:")
        lines += _human_matrix(report["operator_real"], complex_entries=False)
    for key in ("unitarity_residual", "reconstruction_residual", "orthogonality_residual"):
        if key in report:
            lines.append(
                f"{key.replace('_', ' ')}: {report[key]:.3g} "
                + _flag(report[key], echo["tol_unitary"])
            )
    for key in ("preservation", "isometry"):
        if key in report:
            block = report[key]
            lines.append(
                f"{key}: {block['pairs_tested']} pairs, max deviation "
                f"{block['max_deviation']:.3g} "
                + ("[ok]" if block["passed"] else f"[EXCEEDS {block['tolerance']:g}]")
            )
    if "d_zbar_max" in report:
        lines.append(f"max |d_zbar| entry: {report['d_zbar_max']:.3g}")
    if "d_z" in report:
        lines.append("d_z:")
        lines += _human_matrix(report["d_z"])
        lines.append("d_zbar:")
        lines += _human_matrix(report["d_zbar"])
    if "counts" in report:
        counts = report["counts"]
        lines.append(
            f"fuzz: {counts['recovered']}/{counts['symmetries']} symmetries "
            f"recovered, {counts['rejected']}/{counts['adversaries']} adversaries "
            f"rejected, {counts['caveat_n1']} n=1 caveats"
        )
    if "caveats" in report and report["caveats"]:
        lines.append("caveats: " + ", ".join(report["caveats"]))
    if "timing_ms" in report:
        lines.append(f"timing: {report['timing_ms']} ms")
    return "\n".join(lines) + "\n"


def _emit(report: dict, args) -> None:
    if args.format == "json":
        text = _to_json(report)
    elif args.format == "csv":
        text = _to_csv(report)
    else:
        text = _to_human(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument parsing and entry point

class _ArgumentParser(argparse.ArgumentParser):
    # usage mistakes are input problems: exit 1, matching the error table
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    `main` call: parse_args leaves it unchanged, and callers must too."""
    common = _ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "human"), default="json")
    common.add_argument("--output", default=None, help="write the report here instead of stdout")
    common.add_argument("--no-timestamp", action="store_true", dest="no_timestamp")

    spec_opts = _ArgumentParser(add_help=False)
    spec_opts.add_argument("--spec", required=True, help="transform definition file")
    spec_opts.add_argument("--constants", default=None, help="JSON matrix constants file")

    parser = _ArgumentParser(
        prog="wigner",
        description="Classify probability-preserving transformations on C^n "
        "as unitary or antiunitary and reconstruct the operator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = ClassifyConfig()
    for name, command in _COMMANDS.items():
        # the settings parent goes first, so usage lists the settings first
        settings = _ArgumentParser(add_help=False)
        for setting in command.settings:
            default = getattr(defaults, setting)
            settings.add_argument(_option(setting), type=type(default), default=default,
                                  help="default: %(default)s")
        parents = [settings, common] if name == "fuzz" else [settings, common, spec_opts]
        sub.add_parser(name, parents=parents, help=command.help)
    sub.choices["diff"].add_argument(
        "--point", default=None,
        help="comma-separated components, e.g. '1+2i, 0.5, -i' (default: origin)")
    sub.choices["diff"].add_argument(
        "--levels", type=int, default=0,
        help="Richardson refinement levels (0 = plain differences)")
    sub.choices["fuzz"].add_argument(
        "--manifest", default=None,
        help="corpus manifest JSON (default: built-in 50-instance corpus)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        _validate_settings(args)
        code, payload = _COMMANDS[args.command].handler(args)
    except WignerError as exc:
        code, payload = _error_payload(exc)
    except OSError as exc:
        code, payload = 1, {"error": "io_error", "detail": str(exc)}
    except json.JSONDecodeError as exc:
        code, payload = 1, {"error": "schema_error", "detail": str(exc)}
    _emit(_assemble(payload, args, started), args)
    return code


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
