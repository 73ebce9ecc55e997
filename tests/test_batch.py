"""Batched evaluation: an (m, n) call must agree with m single-point calls.

Every analysis layer sends its points as one batch, so each evaluator the
package builds (generated maps, compiled specs, the gauge-fixed wrapper)
must treat the rows independently; per-point evaluators supplied by a
caller are handed one row at a time.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wigner as wg
from wigner import dsl
from wigner.generators import ADVERSARY_KINDS, SYMMETRY_KINDS
from wigner.errors import (
    DimensionMismatch,
    NonFiniteEvaluation,
    NotProbabilityPreserving,
    WignerError,
)

CORPUS = Path(__file__).parent / "corpus"
RELATIVE_TOL = 1e-13


def complex_points(rng, m: int, n: int, scales) -> np.ndarray:
    points = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    return points * np.asarray(scales, dtype=float).reshape(-1, 1)


def mixed_scale_points(n: int, seed: int, m: int = 17) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return complex_points(rng, m, n, 10.0 ** rng.uniform(-6.0, 2.0, size=m))


def assert_batch_matches(transform, points):
    """transform(points) equals the row-by-row images within RELATIVE_TOL."""
    try:
        single = np.array([transform(p) for p in points])
    except WignerError as exc:
        with pytest.raises(type(exc)):
            transform(points)
        return
    batch = transform(points)
    assert batch.shape == points.shape
    deviation = np.abs(batch - single).max(axis=1)
    assert (deviation <= RELATIVE_TOL * np.abs(single).max(axis=1)).all()


@pytest.mark.parametrize("n", [1, 2, 8, 64])
@pytest.mark.parametrize("degree", [None, 0, 1, 2, 3, 4])
@pytest.mark.parametrize("kind", SYMMETRY_KINDS)
def test_generated_symmetry_batch_matches_points(kind, degree, n):
    dressing = None if degree is None else wg.DressingSpec.random(n, degree, 100 + n)
    transform = wg.make_symmetry(kind, wg.haar_unitary(n, n), dressing)
    assert transform.vectorized
    assert_batch_matches(transform, mixed_scale_points(n, seed=n))


@pytest.mark.parametrize(
    "kind, n",
    [
        (kind, n)
        for kind in ADVERSARY_KINDS
        for n in (1, 2, 8, 64)
        if n >= 2 or kind not in ("shear", "rank_deficient")  # those need n >= 2
    ],
)
def test_adversary_batch_matches_points(kind, n):
    transform = wg.make_adversary(kind, n, seed=n)
    assert transform.vectorized
    assert_batch_matches(transform, mixed_scale_points(n, seed=n + 1))


def test_dressing_returns_float_per_point_and_array_per_batch():
    dressing = wg.DressingSpec.random(3, 4, 9)
    points = mixed_scale_points(3, seed=9, m=5)
    alpha = dressing(points)
    assert alpha.shape == (5,)
    for point, value in zip(points, alpha):
        single = dressing(point)
        assert isinstance(single, float)
        assert abs(single - value) <= RELATIVE_TOL * max(1.0, abs(single))


CONSTANTS = dsl.load_constants(CORPUS / "constants.json")
SPECS = sorted(CORPUS.glob("*.wig"))


@pytest.mark.parametrize("spec", SPECS, ids=[p.stem for p in SPECS])
@settings(max_examples=15, deadline=None, database=None)
@given(
    m=st.integers(1, 40),
    log_scale=st.floats(-6.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_corpus_batch_matches_points(spec, m, log_scale, seed):
    transform = dsl.compile_to_transformation(dsl.parse(spec.read_text()), CONSTANTS)
    assert transform.vectorized
    rng = np.random.default_rng(seed)
    assert_batch_matches(
        transform, complex_points(rng, m, transform.dimension, [10.0**log_scale] * m)
    )


def count_evaluations(transform):
    """Wrap the evaluator of `transform`; the list holds [calls, points]."""
    counts = [0, 0]
    inner = transform.evaluator

    def evaluator(z):
        counts[0] += 1
        counts[1] += len(z) if np.ndim(z) == 2 else 1
        return inner(z)

    transform.evaluator = evaluator
    return counts


def test_gauge_fixed_batch():
    transform = wg.make_symmetry(
        "antilinear", wg.haar_unitary(3, 5), wg.DressingSpec.random(3, 2, 6)
    )
    fixed = wg.gauge_fix(transform)
    points = mixed_scale_points(3, seed=5, m=6)
    points[[1, 4]] = 0.0
    counts = count_evaluations(transform)

    first = fixed(points)
    assert np.array_equal(first[[1, 4]], np.zeros((2, 3)))
    # one call probes the 4 memo misses (4 points each), one maps the 4 rows
    assert counts == [2, 4 * 4 + 4]

    counts[:] = [0, 0]
    again = fixed(points)
    assert np.array_equal(again, first)
    assert counts == [1, 4]  # every phase came from the memo

    assert_batch_matches(wg.gauge_fix(transform), points)
    assert np.array_equal(fixed(np.zeros((2, 3))), np.zeros((2, 3)))


def per_row_reference(transform, points):
    """exp(-i origin_phase(T, z)) T(z) row by row, each row probed on its own."""
    rows = []
    for z in points:
        if z.any():
            rows.append(np.exp(-1j * wg.gauge.origin_phase(transform, z)) * transform(z))
        else:
            rows.append(np.zeros_like(z))
    return np.array(rows)


def shared_row_points(n: int, seed: int, m: int) -> np.ndarray:
    """Mixed-scale rows with two exact zeros and repeats of earlier rows."""
    points = mixed_scale_points(n, seed=seed, m=m)
    points[[1, m // 2]] = 0.0
    points[[3, m - 1]] = points[[2, 0]]
    return points


@pytest.mark.parametrize("n", [1, 2, 8, 64])
@pytest.mark.parametrize("kind", SYMMETRY_KINDS)
def test_gauge_fixed_batch_matches_per_row_reference(kind, n):
    transform = wg.make_symmetry(kind, wg.haar_unitary(n, n), wg.DressingSpec.random(n, 3, n))
    points = shared_row_points(n, seed=n, m=9)
    batch = wg.gauge_fix(transform)(points)
    reference = per_row_reference(transform, points)
    assert np.array_equal(batch[[1, 4]], np.zeros((2, n)))
    deviation = np.abs(batch - reference).max(axis=1)
    assert (deviation <= RELATIVE_TOL * np.abs(reference).max(axis=1)).all()


def test_gauge_fixed_batch_across_probe_chunks():
    # 600 rows, 596 distinct nonzero ones: ten chunks of probes
    dressing = wg.DressingSpec.random(2, 4, 4)
    transform = wg.make_symmetry("antilinear", wg.haar_unitary(2, 4), dressing)
    fixed = wg.gauge_fix(transform)
    points = shared_row_points(2, seed=4, m=600)
    assert 596 > 2 * wg.gauge.PROBE_CHUNK_ROWS
    batch = fixed(points)
    reference = per_row_reference(transform, points)
    deviation = np.abs(batch - reference).max(axis=1)
    assert (deviation <= RELATIVE_TOL * np.abs(reference).max(axis=1)).all()


def test_gauge_fixed_batch_probes_each_missing_row_once(monkeypatch):
    transform = wg.make_symmetry("linear", wg.haar_unitary(3, 2), wg.DressingSpec.random(3, 2, 2))
    fixed = wg.gauge_fix(transform)
    points = shared_row_points(3, seed=2, m=12)
    fixed(points[:3])  # rows 0 and 2 are now in the memo, row 1 is zero
    probed = []
    origin_phase = wg.gauge.origin_phase

    def recorded(transform, z, *args, **kwargs):
        probed.append(z.tobytes())
        return origin_phase(transform, z, *args, **kwargs)

    monkeypatch.setattr(wg.gauge, "origin_phase", recorded)
    fixed(points)
    # 12 rows: 2 zeros, 2 repeats of rows 0 and 2, and those 2 memo hits
    expected = [z.tobytes() for k, z in enumerate(points) if k not in (0, 1, 2, 3, 6, 11)]
    assert probed == expected
    probed.clear()
    fixed(points)
    assert probed == []


def test_gauge_fixed_batch_bounds_each_base_call():
    transform = wg.make_symmetry("linear", wg.haar_unitary(2, 6), wg.DressingSpec.random(2, 2, 6))
    fixed = wg.gauge_fix(transform)
    sizes = []
    inner = transform.evaluator

    def evaluator(z):
        sizes.append(len(z))
        return inner(z)

    transform.evaluator = evaluator
    fixed(mixed_scale_points(2, seed=6, m=600))
    chunk = 4 * wg.gauge.PROBE_CHUNK_ROWS
    assert chunk == 256
    # ten probe calls (nine of 64 rows, then 600 - 9 x 64 = 24), then the 600 rows
    assert sizes == [chunk] * 9 + [4 * 24, 600]


def test_gauge_fixed_batch_rejects_a_scaling_map(monkeypatch):
    calls = []
    origin_phase = wg.gauge.origin_phase

    def recorded(transform, z, *args, images=None, **kwargs):
        calls.append(images is not None)
        return origin_phase(transform, z, *args, images=images, **kwargs)

    monkeypatch.setattr(wg.gauge, "origin_phase", recorded)
    with pytest.raises(NotProbabilityPreserving):
        wg.gauge_fix(wg.make_adversary("scaling", 3, 0))
    # the self-check evaluates the probes of its samples on the fixed map
    # in one batch, whose first memo miss raises before any reading
    assert calls == [True]


def test_per_point_real_evaluator_gets_rows():
    q = wg.haar_orthogonal(4, 3)
    real = wg.RealTransformation(lambda u: q @ u, 4)
    batch = np.random.default_rng(3).standard_normal((4, 4))
    out = real(batch)
    assert out.dtype == np.float64
    assert np.array_equal(out, np.array([q @ u for u in batch]))
    assert not np.allclose(out, q @ batch)


@pytest.mark.parametrize("vectorized", [False, True])
def test_batch_shape_errors(vectorized):
    transform = wg.Transformation(lambda z: z, 2, vectorized=vectorized)
    with pytest.raises(DimensionMismatch):
        transform(np.zeros((3, 3)))
    with pytest.raises(DimensionMismatch):
        transform(np.zeros((2, 3, 2)))
    truncated = wg.Transformation(lambda z: z[..., :1], 2, vectorized=vectorized)
    with pytest.raises(DimensionMismatch):
        truncated(np.ones((3, 2)))
    collapsed = wg.Transformation(lambda z: z.sum(axis=0), 2, vectorized=vectorized)
    with pytest.raises(DimensionMismatch):
        collapsed(np.ones((3, 2)))


@pytest.mark.parametrize("vectorized", [False, True])
def test_batch_non_finite_rows(vectorized):
    transform = wg.Transformation(
        lambda z: np.where(z.real > 1.0, np.inf, z), 2, vectorized=vectorized
    )
    points = np.zeros((3, 2), dtype=complex)
    assert np.array_equal(transform(points), points)
    points[2, 0] = 2.0
    with pytest.raises(NonFiniteEvaluation):
        transform(points)
    points[2, 0] = np.nan
    with pytest.raises(NonFiniteEvaluation):
        transform(points)
