"""Self-tests of the benchmark: pinned span counts, tracing at every binding
site, the metric names in BENCHMARK.json, and refusal without the package.

Run from the root of a checkout:

    python3 -m pytest -q bench/test_bench.py

The pinned counts do not depend on the machine. A change that alters how
many Jacobians, gauge probes or evaluations one classification makes must
update them, and say so.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import wigner as wg  # noqa: E402
import wigner.cli  # noqa: E402,F401

import run  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tracer():
    tracer = Tracer()
    tracer.install(spans=True)
    yield tracer
    tracer.uninstall()


def classify_n4_linear(tracer):
    """One seeded n=4 dressed-linear classification as op 0."""
    transform = wg.make_symmetry("linear", wg.haar_unitary(4, 7), wg.DressingSpec.random(4, 2, 8))
    tracer.count_map(transform)
    tracer.op = 0
    result = wg.classify(transform)
    tracer.op = None
    assert result.branch == "linear"
    return tracer


def test_pinned_span_counts(tracer):
    classify_n4_linear(tracer)
    stats = tracer.stats
    assert stats["wirtinger.wirtinger_jacobian"].calls == 8  # 2 Richardson, 3 constancy, 3 smoothness
    assert stats["gauge.origin_phase"].calls == 186
    assert tracer.base_points == 1039
    assert stats["states.eval"].points == tracer.base_points
    assert stats["states.fixed_eval"].points == 210
    assert tracer.nonzero_fixed_points == 210
    assert tracer.memo_miss_points == 178


def test_counts_repeat_exactly(tracer):
    first = classify_n4_linear(tracer)
    counts = {name: (s.calls, s.points) for name, s in first.stats.items()}
    tracer.reset()
    second = classify_n4_linear(tracer)
    assert {name: (s.calls, s.points) for name, s in second.stats.items()} == counts


def test_every_binding_site_is_traced():
    originals = {
        "wigner.classify": wg.classify,
        "wigner.classifier.classify": wg.classifier.classify,
        "wigner.cli.classify": wg.cli.classify,
        "wigner.classifier.wirtinger_jacobian": wg.classifier.wirtinger_jacobian,
        "wigner.cli.wirtinger_jacobian": wg.cli.wirtinger_jacobian,
        "wigner.wirtinger.wirtinger_jacobian": wg.wirtinger.wirtinger_jacobian,
        "wigner.gauge.origin_phase": wg.gauge.origin_phase,
        "wigner.cli.transformation_from_entry": wg.cli.transformation_from_entry,
    }
    tracer = Tracer()
    tracer.install(spans=True)
    try:
        for dotted, original in originals.items():
            module, name = dotted.rsplit(".", 1)
            assert getattr(sys.modules[module], name) is not original, dotted
    finally:
        tracer.uninstall()
    for dotted, original in originals.items():
        module, name = dotted.rsplit(".", 1)
        assert getattr(sys.modules[module], name) is original, dotted


def test_every_traced_target_exists():
    for layer, attr in TRACED:
        target = sys.modules[f"wigner.{layer}"]
        for part in attr.split("."):
            target = getattr(target, part)


def test_counting_level_counts_without_spans():
    tracer = Tracer()
    tracer.install(spans=False)
    try:
        transform = wg.cli.transformation_from_entry(
            {"kind": "linear", "n": 4, "seed": 7, "dressing_degree": 2}
        )
        wg.classify(transform)
    finally:
        tracer.uninstall()
    assert tracer.base_points > 0
    assert not tracer.stats


def _names(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def _fake_window(**fields):
    window = run.Window.__new__(run.Window)
    window.calibration = run.Calibration()
    window.calibration.samples = [run.REFERENCE_MS]
    window.scale = 1.0
    window.__dict__.update(fields)
    return window


def test_end_to_end_names_match_benchmark_json():
    window = _fake_window(
        latency={"accept": [float(i) for i in range(30)], "reject": [1.0] * 30},
        attempted=60,
        failed=0,
        elapsed=1.0,
        residual_max=1e-16,
        map_points=600,
    )
    metrics = run.end_to_end(window, setup_s=0.3, cold_ms=300.0)
    assert {k: u for k, (_, u) in metrics.items()} == _names("end_to_end")


def test_per_layer_names_match_benchmark_json(tracer):
    classify_n4_linear(tracer)
    window = _fake_window(attempted=1, elapsed=1.0)
    metrics = run.per_layer(tracer, window, window)
    assert {k: u for k, (_, u) in metrics.items()} == _names("per_layer")
    assert metrics["wirtinger.jacobians_per_op"][0] == 8
    assert metrics["gauge.origin_phase_calls"][0] == 186
    assert metrics["states.eval_points"][0] == 1039


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        BENCHMARK["command"] + ["--workload", "spec-files", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
