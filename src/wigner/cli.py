"""Command-line driver: load transform definitions, run checks,
classification, Jacobian dumps and corpus fuzzing, emit machine-readable
reports.

Subcommands: classify, check, diff, fuzz, mazur-ulam. Each takes, as
--<name>, only the ClassifyConfig settings its handler reads (`_COMMANDS`).
mazur-ulam reads the spec's evaluator as a `RealTransformation`, so output
with an imaginary part of states.REAL_TOL or more is refused as not_real_map.

Exit codes: 0 for a positive verdict, 2 for a negative one (a diagnostic
report is still emitted; also fuzz_failures), 1 for an ill-posed question
(bad input files or settings, an unwritable --output, usage errors). Each
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
import pathlib
import sys
import time
from datetime import datetime, timezone
from typing import Callable, NamedTuple

import numpy as np

from . import dsl
from .classifier import (
    CAVEAT_N1,
    PAIR_COLUMNS,
    ClassifyConfig,
    align_global_phase,
    check_preservation,
    classify,
    require_preserved,
)
from .errors import (
    DimensionMismatch, NotASymmetry, NotIsometry, SchemaError, WignerError, require_settings
)
from .generators import (
    SYMMETRY_KINDS,
    default_manifest,
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
_INTEGER = {"type": "integer"}
_STRING = {"type": "string"}
_BRANCH = {"enum": list(SYMMETRY_KINDS)}
_COMPLEX_PAIR = {"type": "array", "items": _REAL, "minItems": 2, "maxItems": 2}
_COMPLEX_MATRIX = {"type": "array", "items": {"type": "array", "items": _COMPLEX_PAIR}}


def _closed(properties: dict, required=None) -> dict:
    """An object of the given `properties` and no others; all are required,
    or only the `required` ones."""
    required = list(properties if required is None else required)
    return {"type": "object", "required": required, "properties": properties,
            "additionalProperties": False}


#: A listed pair's fields, in the order of its CSV columns.
_PAIR = _closed({"label": _STRING} | dict.fromkeys(PAIR_COLUMNS, _REAL))
_PRESERVATION_BLOCK = _closed(
    {"pairs_tested": _INTEGER, "max_deviation": _REAL, "tolerance": _REAL,
     "passed": {"type": "boolean"}, "pairs": {"type": "array", "items": _PAIR}},
    required=["pairs_tested", "max_deviation", "tolerance", "passed"],
)
_DEFAULTS = ClassifyConfig()
_CONFIG_ECHO = _closed(
    dict.fromkeys(["command", "format", "spec", "constants", "manifest", "point"], _STRING)
    | {"levels": _INTEGER}
    | {name: _REAL if isinstance(value, float) else _INTEGER
       for name, value in dataclasses.asdict(_DEFAULTS).items()},
    required=["command", "format"],
)
_COUNTS = _closed(
    dict.fromkeys(["symmetries", "recovered", "adversaries", "rejected", "caveat_n1"], _INTEGER)
)
_SMOOTHNESS = _closed(
    dict.fromkeys(["coarse_difference", "fine_difference", "halving_ratio"], _REAL)
)
#: A fuzz instance's fields, in the order of its CSV columns.
_FUZZ_INSTANCE = _closed(
    {"index": _INTEGER, "kind": _STRING, "n": _INTEGER, "seed": _INTEGER,
     "dressing_degree": _INTEGER,
     "status": {"enum": ["caveat_n1", "rejected", "accepted", "recovered", "mismatch"]},
     "branch": _BRANCH, "residual": _REAL, "error": _STRING},
    required=["index", "kind", "n", "seed", "status"],
)


def _checked(label: str, value: float, tol: float) -> str:
    return f"{label} {value:.3g} " + ("[ok]" if value < tol else f"[EXCEEDS {tol:g}]")


def _residual(name: str) -> Callable:
    return lambda value, report: _checked(f"{name}:", value, report["config_echo"]["tol_unitary"])


def _block(name: str) -> Callable:
    return lambda block, _: _checked(
        f"{name}: {block['pairs_tested']} pairs, max deviation",
        block["max_deviation"],
        block["tolerance"],
    )


def _matrix(name: str, cell: Callable) -> Callable:
    return lambda rows, _: "\n".join(
        [f"{name}:"] + ["  " + " ".join(map(cell, row)) for row in rows]
    )


_complex_cell = lambda pair: f"{f'{pair[0]:.6g}{pair[1]:+.6g}i':>22}"


class _Field(NamedTuple):
    """A report field: its JSON schema; its --format human text, as human(value,
    report) (a str.format ignores the report), or None where that format omits
    it; and whether the CSV scalar row has a column for it."""

    schema: dict
    human: Callable | None = None
    csv: bool = False


#: Every report field, in the order --format human prints them.
_FIELDS = {
    "config_echo": _Field(_CONFIG_ECHO, lambda echo, _: f"command: {echo['command']}"),
    "verdict": _Field(_STRING, "verdict: {}".format, csv=True),
    "error": _Field(_STRING, "error: {}".format, csv=True),
    "detail": _Field(_STRING, "detail: {}".format),
    "branch": _Field(_BRANCH, "branch: {}".format, csv=True),
    "operator": _Field(_COMPLEX_MATRIX, _matrix("operator", _complex_cell)),
    "operator_real": _Field(
        {"type": "array", "items": {"type": "array", "items": _REAL}},
        _matrix("operator", "{:>12.6g}".format),
    ),
    "unitarity_residual": _Field(_REAL, _residual("unitarity residual"), csv=True),
    "reconstruction_residual": _Field(_REAL, _residual("reconstruction residual"), csv=True),
    "orthogonality_residual": _Field(_REAL, _residual("orthogonality residual"), csv=True),
    "preservation": _Field(_PRESERVATION_BLOCK, _block("preservation")),
    "isometry": _Field(_PRESERVATION_BLOCK, _block("isometry")),
    "d_zbar_max": _Field(_REAL, "max |d_zbar| entry: {:.3g}".format, csv=True),
    "d_z": _Field(_COMPLEX_MATRIX, _matrix("d_z", _complex_cell)),
    "d_zbar": _Field(_COMPLEX_MATRIX, _matrix("d_zbar", _complex_cell)),
    "counts": _Field(
        _COUNTS,
        "fuzz: {0[recovered]}/{0[symmetries]} symmetries recovered, {0[rejected]}/"
        "{0[adversaries]} adversaries rejected, {0[caveat_n1]} n=1 caveats".format,
    ),
    "caveats": _Field(
        {"type": "array", "items": _STRING},
        lambda caveats, _: "caveats: " + ", ".join(caveats) if caveats else "",
    ),
    "timing_ms": _Field({"type": "number"}, "timing: {} ms".format),
    "schema_version": _Field({"const": SCHEMA_VERSION}),
    "origin_d_z_norm": _Field(_REAL),
    "origin_d_zbar_norm": _Field(_REAL),
    "smoothness": _Field(_SMOOTHNESS),
    "point": _Field({"type": "array", "items": _COMPLEX_PAIR}),
    "step": _Field(_REAL),
    "levels": _Field(_INTEGER),
    "instances": _Field({"type": "array", "items": _FUZZ_INSTANCE}),
    "generated_at": _Field(_STRING),
}

#: JSON schema for every emitted report (validated in the test suite).
REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["schema_version", "config_echo"],
    "oneOf": [{"required": ["verdict"]}, {"required": ["error"]}],
    "properties": {key: field.schema for key, field in _FIELDS.items()},
    "additionalProperties": False,
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
    block = {key: getattr(report, key) for key in _PRESERVATION_BLOCK["required"]}
    if with_pairs:
        block["pairs"] = [
            {"label": label} | dict(zip(PAIR_COLUMNS, row))
            for label, row in zip(report.labels, report.columns.tolist())
        ]
    return block


# ---------------------------------------------------------------------------
# input loading

def _load_transformation(args):
    spec = dsl.parse(pathlib.Path(args.spec).read_text(encoding="utf-8"))
    constants = dsl.load_constants(args.constants) if args.constants else None
    return dsl.compile_to_transformation(spec, constants)


def _option(name: str) -> str:
    return "--" + name.replace("_", "-")


def _config(args) -> ClassifyConfig:
    """The run's ClassifyConfig: the subcommand's settings, the rest at their
    defaults. A bad setting, then diff's --levels, is refused by option name."""
    settings = {name: getattr(args, name) for name in _COMMANDS[args.command].settings}
    try:
        config = ClassifyConfig(**settings)
    except SchemaError as exc:  # the detail starts with the field's name
        name, problem = str(exc).split(" ", 1)
        raise SchemaError(f"{_option(name)} {problem}") from None
    if args.command == "diff":
        require_settings({"levels": args.levels}, _option)
    return config


# ---------------------------------------------------------------------------
# subcommands

def _cmd_classify(args, config: ClassifyConfig) -> tuple[int, dict]:
    transform = _load_transformation(args)
    result = classify(transform, config)
    return 0, {
        "verdict": "symmetry",
        "branch": result.branch,
        "operator": _complex_payload(result.operator),
        "unitarity_residual": result.unitarity_residual,
        "reconstruction_residual": result.reconstruction_residual,
        "origin_d_z_norm": result.origin_d_z_norm,
        "origin_d_zbar_norm": result.origin_d_zbar_norm,
        "smoothness": dataclasses.asdict(result.smoothness),
        "preservation": _preservation_payload(result.preservation),
        "caveats": list(result.caveats),
    }


def _cmd_check(args, config: ClassifyConfig) -> tuple[int, dict]:
    transform = _load_transformation(args)
    report = check_preservation(transform, config.samples, config.seed, config.tol_preserve)
    try:
        require_preserved(report)
    except NotASymmetry as exc:
        code, payload = _error_payload(exc)
    else:
        code, payload = 0, {"verdict": "preserving"}
    # the human format never prints the pair listing
    payload["preservation"] = _preservation_payload(report, with_pairs=args.format != "human")
    return code, payload


def _cmd_diff(args, config: ClassifyConfig) -> tuple[int, dict]:
    transform = _load_transformation(args)
    point = zero_state(transform.dimension)
    if args.point is not None:
        point = [dsl.parse_constant(part) for part in args.point.split(",")]
        if len(point) != transform.dimension:
            raise DimensionMismatch(
                f"--point has {len(point)} components, "
                f"spec dimension is {transform.dimension}"
            )
    jac = richardson_refine(transform, point, config.step, args.levels)
    analytic = jac.d_zbar_norm < config.tol_branch
    return 0, {
        "verdict": "analytic" if analytic else "not_analytic",
        "point": _complex_payload(jac.at),
        "d_z": _complex_payload(jac.d_z),
        "d_zbar": _complex_payload(jac.d_zbar),
        "d_zbar_max": jac.d_zbar_norm,
        "step": config.step,
        "levels": args.levels,
    }


def _fuzz_instance(index: int, entry: dict, config: ClassifyConfig) -> dict:
    record = {"index": index, "kind": entry["kind"], "n": entry["n"], "seed": entry["seed"]}
    symmetry = entry["kind"] in SYMMETRY_KINDS
    if symmetry:
        record["dressing_degree"] = entry.get("dressing_degree", 0)
    transform = transformation_from_entry(entry)
    try:
        result = classify(transform, dataclasses.replace(config, seed=config.seed + index))
    except WignerError as exc:
        return record | {"status": "rejected", "error": exc.code}
    if symmetry and CAVEAT_N1 in result.caveats:  # no branch to compare on C^1
        return record | {"status": "caveat_n1"}
    record["branch"] = result.branch
    if not symmetry:
        return record | {"status": "accepted"}
    # recovery threshold for the ground-truth comparison reuses --tol-unitary
    truth = transform.ground_truth
    record["residual"] = align_global_phase(result.operator, truth["matrix"]).aligned_residual
    recovered = result.branch == truth["kind"] and record["residual"] < config.tol_unitary
    return record | {"status": "recovered" if recovered else "mismatch"}


def _cmd_fuzz(args, config: ClassifyConfig) -> tuple[int, dict]:
    raw = dsl.read_json(args.manifest, "manifest") if args.manifest else default_manifest()
    records = [_fuzz_instance(i, entry, config) for i, entry in enumerate(validate_manifest(raw))]
    tested = [r for r in records if r["status"] != "caveat_n1"]
    symmetries = [r["status"] for r in tested if r["kind"] in SYMMETRY_KINDS]
    adversaries = [r["status"] for r in tested if r["kind"] not in SYMMETRY_KINDS]
    counts = {
        "symmetries": len(symmetries),
        "recovered": symmetries.count("recovered"),
        "adversaries": len(adversaries),
        "rejected": adversaries.count("rejected"),
        "caveat_n1": len(records) - len(tested),
    }
    payload = {"counts": counts, "instances": records}
    if counts["recovered"] == counts["symmetries"] and counts["rejected"] == counts["adversaries"]:
        return 0, payload | {"verdict": "ok"}
    return 2, payload | {
        "error": "fuzz_failures",
        "detail": f"{counts['recovered']}/{counts['symmetries']} symmetries recovered, "
        f"{counts['rejected']}/{counts['adversaries']} adversaries rejected",
    }


def _cmd_mazur_ulam(args, config: ClassifyConfig) -> tuple[int, dict]:
    transform = _load_transformation(args)
    reconstruction = reconstruct_orthogonal(
        RealTransformation(transform.evaluator, transform.dimension, vectorized=True),
        tol=config.tol_unitary,
        num_pairs=config.samples,
        seed=config.seed,
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
        ("tol_unitary", "samples", "seed"),
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


def _to_csv(report: dict) -> str:
    """One header and its rows: a fuzz report's instances, a check report's
    pairs, a diff report's Jacobian entries, or else the scalar row."""
    command = report["config_echo"]["command"]
    if command == "fuzz":
        header = list(_FUZZ_INSTANCE["properties"])
        # a report refused on its manifest has no instances
        rows = [[row.get(key, "") for key in header] for row in report.get("instances", [])]
    elif command == "check" and "preservation" in report:
        header = list(_PAIR["properties"])
        rows = [[row[key] for key in header] for row in report["preservation"]["pairs"]]
    elif command == "diff":
        header = ["row", "col", "d_z_re", "d_z_im", "d_zbar_re", "d_zbar_im"]
        d_z, d_zbar = report.get("d_z", []), report.get("d_zbar", [])
        rows = [[r, c, *vz, *vb] for r, (row_z, row_b) in enumerate(zip(d_z, d_zbar))
                for c, (vz, vb) in enumerate(zip(row_z, row_b))]
    else:
        fields = [key for key, field in _FIELDS.items() if field.csv and key in report]
        block = report.get("preservation", report.get("isometry"))
        extras = ["pairs_tested", "max_deviation"] if block else []
        header = fields + extras
        rows = [[report[f] for f in fields] + [block[e] for e in extras]]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _to_human(report: dict) -> str:
    lines = [
        field.human(report[key], report)
        for key, field in _FIELDS.items()
        if field.human and key in report
    ]
    return "\n".join(filter(None, lines)) + "\n"


#: Each --format's writer.
_WRITERS = {"json": _to_json, "csv": _to_csv, "human": _to_human}


def _emit(report: dict, args) -> None:
    text = _WRITERS[args.format](report)
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
    common.add_argument("--format", choices=tuple(_WRITERS), default="json")
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
    for name, command in _COMMANDS.items():
        # the settings parent goes first, so usage lists the settings first
        settings = _ArgumentParser(add_help=False)
        for setting in command.settings:
            default = getattr(_DEFAULTS, setting)
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
        code, payload = _COMMANDS[args.command].handler(args, _config(args))
    except WignerError as exc:
        code, payload = _error_payload(exc)
    except (OSError, UnicodeDecodeError) as exc:  # an input file unread, or not UTF-8
        code, payload = 1, {"error": "io_error", "detail": str(exc)}
    try:
        _emit(_assemble(payload, args, started), args)
    except OSError as exc:  # --output unwritable: that report goes to stdout
        if not args.output:
            raise
        args.output, code = None, 1
        _emit(_assemble({"error": "io_error", "detail": str(exc)}, args, started), args)
    return code


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
