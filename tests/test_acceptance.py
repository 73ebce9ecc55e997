"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The round-trip corpus is 200 seeded instances per branch (dims cycling
2..16, dressing degrees cycling 0..3); the seed base is frozen so every
generated matrix is bitwise reproducible. Classification results are
computed once and shared by the round-trip, dichotomy and unitarity
criteria.
"""

import functools
import json
import pathlib
import time

import numpy as np
import pytest

import wigner as wg
from wigner import dsl
from wigner.cli import main
from wigner.errors import NotASymmetry, NotUnitary, WignerError

from oracles import hash_phase_symmetry, jacobian_oracle

CORPUS_BASE_SEED = 13000
DRESSING_SEED_OFFSET = 500009
CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"
DSL_CONSTANTS = dsl.load_constants(CORPUS_DIR / "constants.json")


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def corpus_entries():
    return [(2 + i % 15, i % 4, CORPUS_BASE_SEED + i) for i in range(200)]


@functools.lru_cache(maxsize=None)
def classified_corpus(kind: str):
    """Classify the whole corpus for one branch; returns records + wall time."""
    records = []
    elapsed = 0.0
    for index, (n, degree, seed) in enumerate(corpus_entries()):
        matrix = wg.haar_unitary(n, seed)
        dressing = (
            wg.DressingSpec.random(n, degree, seed + DRESSING_SEED_OFFSET)
            if degree
            else None
        )
        transform = wg.make_symmetry(kind, matrix, dressing)
        start = time.perf_counter()
        try:
            result = wg.classify(transform, wg.ClassifyConfig(seed=index))
            error = None
        except WignerError as exc:
            result = None
            error = exc
        elapsed += time.perf_counter() - start
        records.append(
            {
                "n": n,
                "degree": degree,
                "seed": seed,
                "matrix": matrix,
                "transform": transform,
                "result": result,
                "error": error,
            }
        )
    return records, elapsed


def _round_trip(kind: str) -> None:
    records, elapsed = classified_corpus(kind)
    failures = []
    worst = 0.0
    for rec in records:
        if rec["error"] is not None or rec["result"].branch != kind:
            failures.append(rec)
            continue
        residual = wg.align_global_phase(
            rec["result"].operator, rec["matrix"]
        ).aligned_residual
        worst = max(worst, residual)
        if residual >= 1e-6:
            failures.append(rec)
    _report(
        f"wigner round-trip ({kind})",
        not failures and elapsed < 30.0,
        f"{len(records) - len(failures)}/200 recovered, worst residual "
        f"{worst:.3g} (< 1e-6), classify time {elapsed:.1f}s (< 30s)",
    )


def test_round_trip_linear():
    _round_trip("linear")


def test_round_trip_antilinear():
    _round_trip("antilinear")


def test_branch_dichotomy():
    mixed = 0
    clean = 0
    total = 0
    for kind in ("linear", "antilinear"):
        records, _ = classified_corpus(kind)
        for rec in records:
            total += 1
            if rec["error"] is not None:
                mixed += 1
                continue
            result = rec["result"]
            small, large = sorted(
                [result.origin_d_z_norm, result.origin_d_zbar_norm]
            )
            if small < 1e-4 and large > 0.5:
                clean += 1
    _report(
        "branch dichotomy",
        mixed == 0 and clean == total,
        f"0 mixed-branch outcomes, {clean}/{total} instances with one block "
        f"< 1e-4 and the other > 0.5",
    )


def test_operator_unitarity():
    worst = 0.0
    count = 0
    for kind in ("linear", "antilinear"):
        records, _ = classified_corpus(kind)
        for rec in records:
            if rec["result"] is None:
                continue
            m = rec["result"].operator
            worst = max(worst, float(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max()))
            count += 1
    _report(
        "operator unitarity",
        count == 400 and worst < 1e-6,
        f"max |M*M - I| = {worst:.3g} over {count} accepted operators (< 1e-6)",
    )


def origin_phase_curvature(transform, rng, count: int = 20) -> np.ndarray:
    """|2 d2 - d1| at `count` points of radii 10^U(-2, 2), where d1 and d2 are
    the wrapped increments of theta(eps z, z) over the gauge probes eps, eps/2
    and eps/4 (eps = PROBE_SCALE), all evaluated in one batch.

    theta(eps z, z) = arg <T(eps z)|T(z)>, whose limit as eps -> 0 is the
    origin phase that gauge fixing cancels. A phase smooth at the origin
    gives a quadratic ladder, where 2 d2 - d1 = O(eps^2); a phase that is
    not continuous there has no limit to converge to.
    """
    n = transform.dimension
    z = wg.random_state(n, rng, (count,))
    z *= 10.0 ** rng.uniform(-2.0, 2.0, (count, 1)) / np.linalg.norm(z, axis=1, keepdims=True)
    eps = wg.gauge.PROBE_SCALE
    scales = np.array([1.0, eps, eps / 2.0, eps / 4.0])
    images = transform((scales[:, None] * z[:, None, :]).reshape(-1, n)).reshape(count, 4, n)
    theta = np.angle(np.einsum("pkn,pn->pk", images[:, 1:].conj(), images[:, 0]))
    d1 = wg.wrap_angle(theta[:, 1] - theta[:, 0])
    d2 = wg.wrap_angle(theta[:, 2] - theta[:, 1])
    return np.abs(2.0 * d2 - d1)


def test_origin_phase_limit():
    worst = 0.0
    instances = 0
    for kind in ("linear", "antilinear"):
        records, _ = classified_corpus(kind)
        for rec in records:
            if rec["degree"] == 0:
                continue
            rng = np.random.default_rng([rec["seed"], 3])
            curvature = origin_phase_curvature(rec["transform"], rng)
            worst = max(worst, float(curvature.max()))
            instances += 1
    # a true symmetry whose phase is continuous nowhere must fail at every point
    least = min(
        float(origin_phase_curvature(
            hash_phase_symmetry("linear", wg.haar_unitary(n, n)), np.random.default_rng(n)
        ).min())
        for n in (2, 4, 8)
    )
    _report(
        "origin phase limit",
        instances == 300 and worst < 1e-6 and least > 1e-6,
        f"max |2 d2 - d1| = {worst:.3g} over {instances} dressed instances x 20 points "
        f"(< 1e-6); the hash-phase map at n = 2, 4, 8 gives at least {least:.3g} (> 1e-6)",
    )


def test_adversary_rejection():
    rejected = 0
    total = 0
    for kind in ("scaling", "shear", "norm_warp", "rank_deficient"):
        for s in range(10):
            total += 1
            n = 2 + s % 7
            transform = wg.make_adversary(kind, n, 31000 + s)
            with pytest.raises((NotASymmetry, NotUnitary)):
                wg.classify(transform, wg.ClassifyConfig(seed=s))
            rejected += 1
    _report(
        "adversary rejection",
        rejected == total == 40,
        f"{rejected}/{total} adversaries rejected with NotASymmetry/NotUnitary, "
        f"zero false acceptances",
    )


def test_wirtinger_engine_accuracy():
    files = sorted(CORPUS_DIR.glob("*.wig"))
    assert len(files) == 20
    worst = 0.0
    for path in files:
        spec = dsl.parse(path.read_text())
        transform = dsl.compile_to_transformation(spec, DSL_CONSTANTS)
        rng = np.random.default_rng(len(path.name))
        for _ in range(5):
            z = wg.random_state(spec.dimension, rng)
            numeric = wg.wirtinger_jacobian(transform, z)
            d_z, d_zbar = jacobian_oracle(spec, z, DSL_CONSTANTS)
            worst = max(
                worst,
                float(np.abs(numeric.d_z - d_z).max()),
                float(np.abs(numeric.d_zbar - d_zbar).max()),
            )

    poly_files = [p for p in files if "poly" in p.name]
    worst_ratio = np.inf
    for path in poly_files:
        spec = dsl.parse(path.read_text())
        transform = dsl.compile_to_transformation(spec, DSL_CONSTANTS)
        z = wg.random_state(spec.dimension, np.random.default_rng(2 * len(path.name)))
        exact = jacobian_oracle(spec, z, DSL_CONSTANTS)

        def error(h):
            jac = wg.wirtinger_jacobian(transform, z, h)
            return max(
                float(np.abs(jac.d_z - exact[0]).max()),
                float(np.abs(jac.d_zbar - exact[1]).max()),
            )

        for h in (1e-2, 1e-3):
            worst_ratio = min(worst_ratio, error(h) / error(h / 2))
    _report(
        "wirtinger engine accuracy",
        worst < 1e-6 and worst_ratio >= 3.5,
        f"20 specs x 5 points vs symbolic oracle: max error {worst:.3g} "
        f"(< 1e-6); worst step-halving factor {worst_ratio:.2f} on "
        f"{len(poly_files)} polynomial specs (>= 3.5)",
    )


def test_mazur_ulam_reconstruction():
    worst_entry = 0.0
    worst_jac = 0.0
    recovered = 0
    for s in range(50):
        n = 2 + s % 9
        q = wg.haar_orthogonal(n, 17000 + s)
        transform = wg.RealTransformation(lambda u, q=q: q @ u, n)
        matrix = wg.reconstruct_orthogonal(transform, tol=1e-8, seed=s).matrix
        worst_entry = max(worst_entry, float(np.abs(matrix - q).max()))
        rng = np.random.default_rng([s, 4])
        jacs = [wg.real_jacobian(transform, rng.standard_normal(n)) for _ in range(3)]
        for jac in jacs[1:]:
            worst_jac = max(worst_jac, float(np.abs(jac - jacs[0]).max()))
        recovered += 1

    rejects = 0
    shift = np.array([0.4, -0.1, 0.7])
    shear = np.eye(3)
    shear[0, 1] = 1.0
    for bad in (
        wg.RealTransformation(lambda u: u + shift, 3),
        wg.RealTransformation(lambda u: 2.0 * u, 3),
        wg.RealTransformation(lambda u: shear @ u, 3),
    ):
        with pytest.raises(WignerError):
            wg.reconstruct_orthogonal(bad)
        rejects += 1
    _report(
        "mazur-ulam reconstruction",
        recovered == 50 and worst_entry < 1e-8 and worst_jac < 1e-8 and rejects == 3,
        f"50/50 orthogonal matrices (dims 2-10) recovered, worst entry error "
        f"{worst_entry:.3g} (< 1e-8); Jacobians at 3 points agree within "
        f"{worst_jac:.3g} (< 1e-8); translation and non-isometries rejected",
    )


def test_analyticity_criterion():
    rng = np.random.default_rng(71)
    analytic_ok = 0
    analytic_total = 0
    nonanal_ok = 0
    nonanal_total = 0
    for path in sorted(CORPUS_DIR.glob("*.wig")):
        spec = dsl.parse(path.read_text())
        transform = dsl.compile_to_transformation(spec, DSL_CONSTANTS)
        points = [wg.random_state(spec.dimension, rng) for _ in range(20)]
        report = wg.analyticity_test(transform, points, tol=1e-6)
        if path.name.startswith("analytic_"):
            analytic_total += 1
            analytic_ok += report.analytic
        else:
            nonanal_total += 1
            nonanal_ok += not any(report.per_point)
    _report(
        "analyticity criterion",
        analytic_ok == analytic_total and nonanal_ok == nonanal_total,
        f"conj-free fragment analytic at every point ({analytic_ok}/"
        f"{analytic_total} specs); conj-coupled specs non-analytic at every "
        f"sampled point ({nonanal_ok}/{nonanal_total})",
    )


def test_cli_determinism(tmp_path):
    spec = tmp_path / "map.wig"
    spec.write_text("dim 2;\nT1 = conj(z2);\nT2 = conj(z1);\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps(
            [
                {"kind": "linear", "n": 3, "seed": 7, "dressing_degree": 2},
                {"kind": "antilinear", "n": 2, "seed": 8, "dressing_degree": 1},
                {"kind": "norm_warp", "n": 2, "seed": 9},
            ]
        )
    )
    outputs = []
    for tag in ("a", "b"):
        classify_out = tmp_path / f"classify_{tag}.json"
        fuzz_out = tmp_path / f"fuzz_{tag}.json"
        assert main(
            ["classify", "--spec", str(spec), "--seed", "5", "--no-timestamp",
             "--output", str(classify_out)]
        ) == 0
        assert main(
            ["fuzz", "--manifest", str(manifest), "--seed", "5", "--no-timestamp",
             "--output", str(fuzz_out)]
        ) == 0
        outputs.append((classify_out.read_bytes(), fuzz_out.read_bytes()))
    same = outputs[0] == outputs[1]
    _report(
        "cli determinism",
        same,
        "repeated classify and fuzz runs with identical seeds produced "
        "byte-identical reports (timestamps suppressed)",
    )
