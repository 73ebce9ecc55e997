"""Benchmark for the wigner classifier.

Run from the root of a checkout:

    python3 bench/run.py --workload classify-large --seed 1 --seconds 25 --trace 0

The program is imported from `src/` of the same checkout. One process runs
one workload as a closed loop: a single client, no worker threads, each op
sent after the previous one returned. Every op's output is checked against
the ground truth the benchmark generated from `--seed`. Times are scaled
to the speed of a reference host by a calibration kernel timed in the same
run (see `Calibration` and bench/METRICS.md).

`--trace 0` prints the end-to-end metrics. `--trace 1` prints the per-layer
metrics: it runs half of `--seconds` untraced and half with spans on, so it
also reports the tracing overhead. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Progress and
failure details go to standard error.

Without `src/wigner` the script exits with code 2 and prints no result.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build"

SETUP_REPEATS = 5
COLD_START_REPEATS = 10  # spread evenly over the timed window
MIN_SAMPLES = 21  # per op kind: the tail (ten samples beyond it) is then at least the median
TAIL_BEYOND = 10
# residuals below this are roundoff; operator_digits is capped at 17
RESIDUAL_FLOOR = 1e-17
# calibration kernel time on the reference host; every time metric is
# reported at the speed of a host on which the kernel takes this long
REFERENCE_MS = 3.75

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import wigner, wigner.cli; "
    "print(time.perf_counter() - t)"
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout.strip())


def tail(values: list[float]) -> float:
    """The highest order statistic with TAIL_BEYOND samples above it."""
    return sorted(values)[len(values) - TAIL_BEYOND - 1]


class Calibration:
    """A fixed kernel of small numpy calls and Python arithmetic, timed
    between ops.

    On a shared host the speed of one core drifts by 20 % and more within
    minutes. That drift moves the kernel and the ops together: their ratio
    stays within about 1 % where raw op times move by 10-20 %. Times are
    therefore multiplied by REFERENCE_MS / kernel time: set-up times by the
    median of the set-up samples (`scale`), op times round by round (see
    Window). The kernel does not use the package, so no change to the
    program moves it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        self.vectors = [rng.standard_normal(8) + 1j * rng.standard_normal(8) for _ in range(64)]
        self.samples: list[float] = []

    def sample(self) -> float:
        start = time.perf_counter()
        total = 0.0
        for _ in range(10):
            for z in self.vectors:
                w = self.matrix @ z
                total += float(np.vdot(w, z).real) + abs(complex(np.exp(1j * w[0])))
        self.samples.append((time.perf_counter() - start) * 1e3)
        return self.samples[-1]

    @property
    def median_ms(self) -> float:
        return statistics.median(self.samples)

    @property
    def scale(self) -> float:
        return REFERENCE_MS / self.median_ms


class Window:
    """Closed-loop run of whole rounds for at least `seconds` of op time.

    The calibration kernel runs before every op and after the last op of a
    round. A round's op times are scaled by the mean of its kernel samples,
    so drift within the window is removed as well. `interlude`, when given,
    runs `interludes` times at evenly spaced points of the window. Op time
    is the time inside `op.call` only.
    """

    def __init__(self, workload, tracer, seconds, min_samples, interlude=None, interludes=0):
        self.latency = {"accept": [], "reject": []}  # ms at reference speed
        self.attempted = 0
        self.failed = 0
        self.residual_max = 0.0
        self.calibration = Calibration()
        points_before = tracer.base_points
        per_round = min(workload.accepts_per_round, workload.rejects_per_round)
        min_rounds = -(-min_samples // per_round)
        rounds = done = 0
        raw = scaled = 0.0  # op seconds on this host and at reference speed
        while rounds < min_rounds or raw < seconds:
            if done < interludes and raw >= seconds * done / interludes:
                interlude()
                done += 1
            kernel = [self.calibration.sample()]
            timed = []
            for op in workload.ops_per_round(rounds):
                timed.append(self._run(op, tracer))
                kernel.append(self.calibration.sample())
            scale = REFERENCE_MS / statistics.fmean(kernel)
            for kind, ms in timed:
                self.latency[kind].append(ms * scale)
            elapsed = sum(ms for _, ms in timed) / 1e3
            raw += elapsed
            scaled += elapsed * scale
            rounds += 1
        self.elapsed = scaled
        self.scale = scaled / raw
        self.map_points = tracer.base_points - points_before
        for _ in range(done, interludes):
            interlude()

    def _run(self, op, tracer) -> tuple[str, float]:
        """Time one op, then check it. A failed op keeps its latency sample."""
        tracer.op = self.attempted
        self.attempted += 1
        start = time.perf_counter()
        try:
            output = op.call()
        except Exception as exc:
            output = exc  # no check accepts an unexpected exception
        finally:
            tracer.op = None
        timed = (op.kind, (time.perf_counter() - start) * 1e3)
        try:
            residual = op.check(output)
        except Exception:
            self.failed += 1
            if self.failed <= 3:
                print(f"failed {op.kind} op, output {output!r:.300}", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            return timed
        if residual is not None:
            self.residual_max = max(self.residual_max, residual)
        return timed

    @property
    def ops_per_s(self) -> float:
        """Ops per second at reference speed."""
        return self.attempted / self.elapsed


class ColdStarts:
    """Times of `wigner check` in a fresh interpreter, in ms at reference speed.

    Each run is scaled by the mean of three kernel samples just before it
    and three just after it.
    """

    def __init__(self, spec_args: list[str]):
        self.argv = [sys.executable, "-m", "wigner", "check", *spec_args]
        self.calibration = Calibration()
        self.times: list[float] = []
        self.failed = 0

    def run_one(self) -> None:
        kernel = [self.calibration.sample() for _ in range(3)]
        start = time.perf_counter()
        done = subprocess.run(
            self.argv, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=60
        )
        elapsed_ms = (time.perf_counter() - start) * 1e3
        kernel += [self.calibration.sample() for _ in range(3)]
        self.times.append(elapsed_ms * REFERENCE_MS / statistics.fmean(kernel))
        if done.returncode != 0 or '"verdict": "preserving"' not in done.stdout:
            self.failed += 1


def end_to_end(window: Window, setup_s: float, cold_ms: float) -> dict:
    accept, reject = window.latency["accept"], window.latency["reject"]
    ok = window.attempted - window.failed
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (window.ops_per_s, "1/s"),
        "accept_p50_ms": (statistics.median(accept), "ms"),
        "accept_tail_ms": (tail(accept), "ms"),
        "reject_p50_ms": (statistics.median(reject), "ms"),
        "reject_tail_ms": (tail(reject), "ms"),
        "map_evals_per_op": (window.map_points / window.attempted, "count"),
        "success_ratio": (ok / window.attempted, "ratio"),
        "operator_digits": (-math.log10(max(window.residual_max, RESIDUAL_FLOOR)), "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "cli_cold_start_ms": (cold_ms, "ms"),
    }


def per_layer(tracer, window: Window, untraced: Window) -> dict:
    stats = tracer.stats
    scale = window.scale

    def per_op(value: float, layer: str) -> float:
        ops = tracer.ops_in(layer)
        return value / ops if ops else 0.0

    def per_point(name: str, unit: float) -> float:
        stat = stats.get(name)
        return stat.total_ns * scale / stat.points / unit if stat and stat.points else 0.0

    def field(name: str, attr: str) -> float:
        stat = stats.get(name)
        return getattr(stat, attr) if stat else 0

    ms = 1e6 / scale  # ns of this host -> ms at reference speed
    fixed_nonzero = tracer.nonzero_fixed_points
    metrics = {
        "states.eval_points": (per_op(field("states.eval", "points"), "states"), "count"),
        "states.fixed_points": (per_op(field("states.fixed_eval", "points"), "states"), "count"),
        "states.eval_us_per_point": (per_point("states.eval", 1e3), "us"),
        "generators.dressing_us_per_point": (per_point("generators.dressing", 1e3), "us"),
        "generators.build_ms": (
            tracer.build_ns / tracer.build_calls / ms if tracer.build_calls else 0.0,
            "ms",
        ),
        "gauge.origin_phase_calls": (
            per_op(field("gauge.origin_phase", "calls"), "gauge"),
            "count",
        ),
        "gauge.origin_phase_self_ms": (
            per_op(field("gauge.origin_phase", "self_ns"), "gauge") / ms,
            "ms",
        ),
        "gauge.gauge_fix_ms": (per_op(field("gauge.gauge_fix", "total_ns"), "gauge") / ms, "ms"),
        "gauge.alpha_reuse_ratio": (
            1.0 - tracer.memo_miss_points / fixed_nonzero if fixed_nonzero else 0.0,
            "ratio",
        ),
        "wirtinger.jacobians_per_op": (
            per_op(field("wirtinger.wirtinger_jacobian", "calls"), "wirtinger"),
            "count",
        ),
        "wirtinger.jacobian_self_ms": (
            per_op(field("wirtinger.wirtinger_jacobian", "self_ns"), "wirtinger") / ms,
            "ms",
        ),
        "wirtinger.real_jacobians_per_op": (
            per_op(field("wirtinger.real_jacobian", "calls"), "wirtinger"),
            "count",
        ),
        "classifier.preservation_ms": (
            per_op(field("classifier.check_preservation", "total_ns"), "classifier") / ms,
            "ms",
        ),
        "classifier.preservation_pairs": (
            per_op(tracer.preservation_pairs, "classifier"),
            "count",
        ),
        "classifier.classify_self_ms": (
            per_op(field("classifier.classify", "self_ns"), "classifier") / ms,
            "ms",
        ),
        "dsl.parse_ms": (per_op(field("dsl.parse", "total_ns"), "dsl") / ms, "ms"),
        "dsl.compile_ms": (
            per_op(field("dsl.compile_to_transformation", "total_ns"), "dsl") / ms,
            "ms",
        ),
        "dsl.eval_us_per_point": (per_point("dsl.eval", 1e3), "us"),
        "mazurulam.isometry_checks_per_op": (
            per_op(field("mazurulam.check_isometry", "calls"), "mazurulam"),
            "count",
        ),
        "mazurulam.reconstruct_ms": (
            per_op(field("mazurulam.reconstruct_orthogonal", "total_ns"), "mazurulam") / ms,
            "ms",
        ),
        "cli.self_ms": (per_op(field("cli.main", "self_ns"), "cli") / ms, "ms"),
        "cli.report_bytes": (per_op(tracer.report_bytes, "cli"), "bytes"),
        "trace.ops_per_s": (window.ops_per_s, "1/s"),
        "trace.untraced_ops_per_s": (untraced.ops_per_s, "1/s"),
        "trace.overhead_ratio": (untraced.ops_per_s / window.ops_per_s, "ratio"),
        "host.calibration_ms": (window.calibration.median_ms, "ms"),
    }
    for code in REJECTION_CODES:
        metrics[f"classifier.rejections.{code}"] = (
            per_op(tracer.rejections.get(code, 0), "classifier"),
            "count",
        )
    return metrics


# error codes `classify` can raise; each gets a per-op rejection count
REJECTION_CODES = (
    "not_a_symmetry",
    "mixed_branch",
    "not_unitary",
    "reconstruction_mismatch",
    "not_probability_preserving",
    "origin_not_fixed",
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wigner" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'wigner'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import wigner
    import wigner.cli  # noqa: F401  (the CLI is driven in-process)

    from tracer import Tracer
    from workloads import WORKLOADS, cold_start_spec

    if Path(wigner.__file__).resolve().parent != SRC / "wigner":
        print(f"imported wigner from {wigner.__file__}, not {SRC}", file=sys.stderr)
        return 2
    build = WORKLOADS.get(args.workload)
    if build is None:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    tracer = Tracer()
    try:
        tracer.install(spans=False)
        setups, calibration = [], Calibration()
        for _ in range(SETUP_REPEATS):
            for _ in range(8):
                calibration.sample()
            imported = import_seconds()
            start = time.perf_counter()
            workload = build(wigner, tracer, args.seed, workdir)
            setups.append(imported + time.perf_counter() - start)
        setup_s = statistics.median(setups) * calibration.scale

        if not args.trace:
            cold = ColdStarts(cold_start_spec(workdir, args.seed))
            window = Window(
                workload, tracer, args.seconds, MIN_SAMPLES, cold.run_one, COLD_START_REPEATS
            )
            metrics = end_to_end(window, setup_s, statistics.median(cold.times))
            attempted = window.attempted + len(cold.times)
            failed = window.failed + cold.failed
        else:
            untraced = Window(workload, tracer, args.seconds / 2, 1)
            tracer.uninstall()
            tracer.reset()
            tracer.install(spans=True)
            workload = build(wigner, tracer, args.seed, workdir)
            window = Window(workload, tracer, args.seconds / 2, 1)
            metrics = per_layer(tracer, window, untraced)
            attempted = untraced.attempted + window.attempted
            failed = untraced.failed + window.failed
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    print(
        f"calibration kernel median {calibration.median_ms:.2f} ms in set-up, "
        f"{window.calibration.median_ms:.2f} ms in the last window "
        f"(reference {REFERENCE_MS} ms)",
        file=sys.stderr,
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
