"""Seeded inputs, ops and output checks for the three benchmark workloads.

Each workload is built from the benchmark seed into a pool of instances
and files, then served in rounds. A round has a fixed composition (which
kinds, dimensions and op types it holds); the seed draws every value
(matrices, dressings, shear strengths, entry order). Evaluation counts
depend on the composition only, so `map_evals_per_op` repeats exactly on
every seed as long as whole rounds run.

An op returns the program's output; its check compares that output with
the ground truth the benchmark generated and raises Mismatch on any
difference. Ground-truth matrices for the spec files come from the
benchmark's own numpy code, not from the package's generators.
"""

import contextlib
import io
import json
import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

ACCEPT = "accept"
REJECT = "reject"

# the library's default tolerances, which every op runs with
TOL_UNITARY = 1e-6
TOL_PRESERVE = 1e-8

ADVERSARY_KINDS = ("scaling", "shear", "norm_warp", "rank_deficient")


class Mismatch(Exception):
    """The program's output disagrees with the generated ground truth."""


@dataclass
class Op:
    kind: str  # ACCEPT or REJECT: the correct outcome
    call: Callable[[], object]  # the timed program work
    check: Callable[[object], float | None]  # operator residual, or None


@dataclass
class Workload:
    ops_per_round: Callable[[int], list[Op]]
    accepts_per_round: int
    rejects_per_round: int


def require(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def aligned_residual(matrix, reference) -> float:
    """Max-norm distance after removing the best single global phase."""
    m = np.asarray(matrix, dtype=np.complex128)
    r = np.asarray(reference, dtype=np.complex128)
    require(m.shape == r.shape, f"operator shape {m.shape}, expected {r.shape}")
    k = np.unravel_index(np.abs(r).argmax(), r.shape)
    phase = m[k] / r[k]
    require(abs(phase) > 0.5, "operator is not aligned with the ground truth")
    return float(np.abs(m * (abs(phase) / phase) - r).max())


def unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    ginibre = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(ginibre)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diagonal(r))


def run_cli(wg, tracer, argv: list[str]) -> tuple[int, str]:
    """Run the CLI in this process and capture its report."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = wg.cli.main(argv)
    text = out.getvalue()
    tracer.report_bytes += len(text.encode())
    return code, text


# ---------------------------------------------------------------------------
# classify-large: library classify at the dimension cap

LARGE_N = 64
LARGE_POOL = 12  # covers every (branch, degree, adversary kind) combination


def classify_large(wg, tracer, seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 64])
    accepts, rejects = [], []
    for i in range(LARGE_POOL):
        kind = ("linear", "antilinear")[i % 2]
        degree = 1 + i % 3
        u = wg.haar_unitary(LARGE_N, int(rng.integers(2**31)))
        dressing = wg.DressingSpec.random(LARGE_N, degree, int(rng.integers(2**31)))
        accepts.append((kind, u, tracer.count_map(wg.make_symmetry(kind, u, dressing))))
        adversary = ADVERSARY_KINDS[i % 4]
        rejects.append(
            tracer.count_map(wg.make_adversary(adversary, LARGE_N, int(rng.integers(2**31))))
        )

    def classify(transform):
        try:
            return wg.classify(transform)
        except wg.errors.WignerError as exc:
            return exc

    def accept_op(kind, u, transform) -> Op:
        def check(result):
            require(isinstance(result, wg.ClassificationResult), f"got {result!r}")
            require(result.branch == kind, f"branch {result.branch}, expected {kind}")
            residual = aligned_residual(result.operator, u)
            require(residual < TOL_UNITARY, f"operator residual {residual:.3g}")
            return residual

        return Op(ACCEPT, lambda: classify(transform), check)

    def reject_op(transform) -> Op:
        def check(result):
            require(isinstance(result, wg.errors.NotASymmetry), f"got {result!r}")

        return Op(REJECT, lambda: classify(transform), check)

    def ops(r: int) -> list[Op]:
        i = r % LARGE_POOL
        return [accept_op(*accepts[i]), reject_op(rejects[i])]

    return Workload(ops, accepts_per_round=1, rejects_per_round=1)


# ---------------------------------------------------------------------------
# fuzz-small: in-process `wigner fuzz --manifest`, one entry per manifest

FUZZ_DIMS = range(2, 9)
FUZZ_POOL = 3  # rounds of distinct instances before the pool repeats


def fuzz_small(wg, tracer, seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 8])
    rounds = []
    for r in range(FUZZ_POOL):
        entries = []
        for n in FUZZ_DIMS:
            for k, kind in enumerate(("linear", "antilinear")):
                entries.append(
                    {
                        "kind": kind,
                        "n": n,
                        "seed": int(rng.integers(2**31)),
                        "dressing_degree": 1 + (n + k + r) % 3,
                    }
                )
            kind = ADVERSARY_KINDS[(n + r) % len(ADVERSARY_KINDS)]
            entries.append({"kind": kind, "n": n, "seed": int(rng.integers(2**31))})
        rng.shuffle(entries)
        paths = []
        for i, entry in enumerate(entries):
            path = os.path.join(workdir, f"fuzz_{r}_{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump([entry], fh)
            paths.append(path)
        rounds.append(list(zip(entries, paths)))

    def fuzz_op(entry: dict, path: str) -> Op:
        symmetry = entry["kind"] in ("linear", "antilinear")

        def check(output):
            code, text = output
            require(code == 0, f"fuzz exit code {code}")
            report = json.loads(text)
            require(report.get("verdict") == "ok", f"fuzz verdict {report.get('error')}")
            (record,) = report["instances"]
            require(record["kind"] == entry["kind"] and record["n"] == entry["n"], "record")
            if not symmetry:
                require(record["status"] == "rejected", f"status {record['status']}")
                require(record["error"] == "not_a_symmetry", f"error {record['error']}")
                return None
            require(record["status"] == "recovered", f"status {record['status']}")
            require(record["branch"] == entry["kind"], f"branch {record['branch']}")
            require(record["residual"] < TOL_UNITARY, f"residual {record['residual']:.3g}")
            return record["residual"]

        argv = ["fuzz", "--manifest", path]
        return Op(ACCEPT if symmetry else REJECT, lambda: run_cli(wg, tracer, argv), check)

    def ops(r: int) -> list[Op]:
        return [fuzz_op(entry, path) for entry, path in rounds[r % FUZZ_POOL]]

    per_round = len(rounds[0])
    symmetries = 2 * len(FUZZ_DIMS)
    return Workload(ops, symmetries, per_round - symmetries)


# ---------------------------------------------------------------------------
# spec-files: in-process CLI calls on generated .wig and constants files

SPEC_N = 8
SPEC_POOL = 12

_CELL = re.compile(r"^([-+]?[0-9.]+(?:e[-+]?\d+)?)([-+][0-9.]+(?:e[-+]?\d+)?)i$")


def _signed_sum(terms: list[tuple[float, str]], digits: str | None = ".4f") -> str:
    """`c1*f1 + c2*f2 - ...` in the grammar's unsigned literals (repr when digits is None)."""
    parts = []
    for coefficient, factor in terms:
        magnitude = abs(coefficient)
        text = repr(magnitude) if digits is None else format(magnitude, digits)
        sign = "- " if coefficient < 0 else ("+ " if parts else "")
        parts.append(f"{sign}{text}*{factor}")
    return " ".join(parts)


def _phase_expression(rng: np.random.Generator, n: int) -> str:
    """A smooth real phase: three linear and two bilinear terms in Re/Im of z."""
    terms = []
    for _ in range(3):
        j = int(rng.integers(1, n + 1))
        part = ("re", "im")[int(rng.integers(2))]
        terms.append((float(rng.uniform(-0.5, 0.5)), f"{part}(z{j})"))
    for _ in range(2):
        j, k = (int(v) for v in rng.integers(1, n + 1, size=2))
        terms.append((float(rng.uniform(-0.5, 0.5)), f"re(z{j})*im(z{k})"))
    return _signed_sum(terms)


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _write_constants(path: str, matrices: dict) -> str:
    payload = {
        name: [[[float(v.real), float(v.imag)] for v in row] for row in m]
        for name, m in matrices.items()
    }
    return _write(path, json.dumps(payload))


def dressed_spec(kind: str, u: np.ndarray, rng: np.random.Generator, stem: str):
    """Write exp(i*alpha(z)) U z (linear) or exp(i*alpha(z)) U conj(z) (antilinear)."""
    n = u.shape[0]
    phase = _phase_expression(rng, n)
    factor = "mat(U)" if kind == "linear" else "conj(mat(Uc))"
    lines = [f"dim {n};"] + [f"T{k} = expi({phase}) * {factor};" for k in range(1, n + 1)]
    spec = _write(stem + ".wig", "\n".join(lines) + "\n")
    matrices = {"U": u} if kind == "linear" else {"Uc": np.conj(u)}
    return spec, _write_constants(stem + ".json", matrices)


def _parse_human_matrix(lines: list[str], label: str, n: int) -> np.ndarray:
    start = lines.index(label) + 1
    rows = []
    for line in lines[start : start + n]:
        cells = [_CELL.match(cell) for cell in line.split()]
        require(len(cells) == n and all(cells), f"malformed {label} row {line!r}")
        rows.append([complex(float(c[1]), float(c[2])) for c in cells])
    return np.array(rows)


def spec_files(wg, tracer, seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 16])
    accepts, rejects = [], []
    for i in range(SPEC_POOL):
        stem = os.path.join(workdir, f"spec_{i}")
        kind = ("linear", "antilinear")[i % 2]
        u = unitary(SPEC_N, rng)
        spec, constants = dressed_spec(kind, u, rng, stem + "_dressed")
        o = orthogonal(SPEC_N, rng)
        rotation = "\n".join(
            [f"dim {SPEC_N};"]
            + [
                f"T{k + 1} = "
                + _signed_sum([(float(o[k, j]), f"z{j + 1}") for j in range(SPEC_N)], None)
                + ";"
                for k in range(SPEC_N)
            ]
        )
        rotation = _write(stem + "_rotation.wig", rotation + "\n")
        accepts.append((kind, u, spec, constants, o, rotation))

        warp_u = unitary(SPEC_N, rng)
        strength = float(rng.uniform(0.5, 1.5))
        warp = _write(
            stem + "_warp.wig",
            "\n".join(
                [f"dim {SPEC_N};"]
                + [f"T{k} = (1 + {strength:.4f}*norm2()) * mat(U);" for k in range(1, SPEC_N + 1)]
            )
            + "\n",
        )
        rejects.append((warp, _write_constants(stem + "_warp.json", {"U": warp_u})))

    def accept_op(kind, u, spec, constants, o, rotation) -> Op:
        spec_args = ["--spec", spec, "--constants", constants]

        def call():
            return [
                run_cli(wg, tracer, ["classify", *spec_args]),
                run_cli(wg, tracer, ["check", *spec_args, "--format", "csv"]),
                run_cli(wg, tracer, ["diff", *spec_args, "--levels", "2", "--format", "human"]),
                run_cli(wg, tracer, ["mazur-ulam", "--spec", rotation]),
            ]

        def check(outputs):
            codes = [code for code, _ in outputs]
            require(codes == [0, 0, 0, 0], f"exit codes {codes}")
            (_, classified), (_, checked), (_, diffed), (_, real) = outputs

            report = json.loads(classified)
            require(report["branch"] == kind, f"branch {report['branch']}, expected {kind}")
            operator = np.array([[complex(*v) for v in row] for row in report["operator"]])
            residual = aligned_residual(operator, u)
            require(residual < TOL_UNITARY, f"operator residual {residual:.3g}")

            header, *rows = checked.splitlines()
            require(header == "label,norm_w,norm_z,expected,deviation" and rows, "check csv")
            worst = max(float(row.rsplit(",", 1)[1]) for row in rows)
            require(worst < TOL_PRESERVE, f"check deviation {worst:.3g}")

            lines = diffed.splitlines()
            verdict = "analytic" if kind == "linear" else "not_analytic"
            require(f"verdict: {verdict}" in lines, f"diff verdict, expected {verdict}")
            d_z = _parse_human_matrix(lines, "d_z:", SPEC_N)
            d_zbar = _parse_human_matrix(lines, "d_zbar:", SPEC_N)
            live, dead = (d_z, d_zbar) if kind == "linear" else (d_zbar, d_z)
            require(aligned_residual(live, u) < 1e-4, "diff block does not match U")
            require(np.abs(dead).max() < 1e-4, "diff complementary block is not zero")

            real_report = json.loads(real)
            require(real_report["verdict"] == "orthogonal", "mazur-ulam verdict")
            drift = float(np.abs(np.array(real_report["operator_real"]) - o).max())
            require(drift < TOL_UNITARY, f"orthogonal matrix off by {drift:.3g}")
            return max(residual, drift)

        return Op(ACCEPT, call, check)

    def reject_op(warp, constants) -> Op:
        spec_args = ["--spec", warp, "--constants", constants]

        def call():
            return [
                run_cli(wg, tracer, ["classify", *spec_args]),
                run_cli(wg, tracer, ["check", *spec_args, "--format", "human"]),
            ]

        def check(outputs):
            codes = [code for code, _ in outputs]
            require(codes == [2, 2], f"exit codes {codes}")
            (_, classified), (_, checked) = outputs
            error = json.loads(classified).get("error")
            require(error == "not_a_symmetry", f"classify error {error}")
            require("error: not_a_symmetry" in checked.splitlines(), "check error")

        return Op(REJECT, call, check)

    def ops(r: int) -> list[Op]:
        i = r % SPEC_POOL
        return [accept_op(*accepts[i]), reject_op(*rejects[i])]

    return Workload(ops, accepts_per_round=1, rejects_per_round=1)


def cold_start_spec(workdir: str, seed: int) -> list[str]:
    """Spec arguments for the 2-dimensional `wigner check` cold start."""
    rng = np.random.default_rng([seed, 2])
    spec, constants = dressed_spec("linear", unitary(2, rng), rng, os.path.join(workdir, "cold"))
    return ["--spec", spec, "--constants", constants]


WORKLOADS = {
    "classify-large": classify_large,
    "fuzz-small": fuzz_small,
    "spec-files": spec_files,
}
