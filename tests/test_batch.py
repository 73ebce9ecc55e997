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
from wigner.errors import DimensionMismatch, NonFiniteEvaluation, WignerError

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
    # each nonzero row: a 4-point origin probe on a memo miss, then one base call
    assert counts == [4 + 1, 4 * 4 + 4]

    counts[:] = [0, 0]
    again = fixed(points)
    assert np.array_equal(again, first)
    assert counts == [1, 4]  # every phase came from the memo

    assert_batch_matches(wg.gauge_fix(transform), points)
    assert np.array_equal(fixed(np.zeros((2, 3))), np.zeros((2, 3)))


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
