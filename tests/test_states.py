import concurrent.futures
import sys

import numpy as np
import pytest

import wigner as wg
from wigner.errors import DimensionMismatch, NonFiniteEvaluation


def test_as_state_coerces_and_validates():
    out = wg.as_state([1, 2j], 2)
    assert out.dtype == np.complex128
    with pytest.raises(DimensionMismatch):
        wg.as_state([1, 2, 3], 2)
    with pytest.raises(DimensionMismatch):
        wg.as_state(np.zeros((2, 2)))
    with pytest.raises(NonFiniteEvaluation):
        wg.as_state([np.nan, 0])


def test_transformation_validates_dimension():
    with pytest.raises(DimensionMismatch):
        wg.Transformation(lambda z: z, 0)
    transform = wg.Transformation(lambda z: z, 2)
    with pytest.raises(DimensionMismatch):
        transform(np.zeros(3))


def test_transformation_rejects_nonfinite_output():
    transform = wg.Transformation(lambda z: np.full(1, np.inf + 0j), 1)
    with pytest.raises(NonFiniteEvaluation):
        transform(np.ones(1))


def test_gauge_fixed_transform_is_thread_safe():
    # concurrent queries for the same points, and concurrent batches that
    # share rows, must match a serial replay
    dressing = wg.DressingSpec.random(3, 3, 71)
    transform = wg.make_symmetry("linear", wg.haar_unitary(3, 73), dressing)
    fixed = wg.gauge_fix(transform)
    rng = np.random.default_rng(8)
    points = [wg.random_state(3, rng) for _ in range(8)] * 4
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        concurrent_values = list(pool.map(fixed, points))
    serial = {id(p): fixed(p) for p in points}
    for point, value in zip(points, concurrent_values):
        assert np.array_equal(value, serial[id(point)])

    fixed = wg.gauge_fix(transform)
    rows = wg.random_state(3, rng, (24,))
    batches = [rows[np.arange(k, k + 12) % 24] for k in range(0, 24, 3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside the memo bookkeeping
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            concurrent_values = list(pool.map(fixed, batches, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    replay = wg.gauge_fix(transform)
    for batch, value in zip(batches, concurrent_values):
        assert np.array_equal(value, fixed(batch))
        expected = replay(batch)
        deviation = np.abs(value - expected).max(axis=1)
        assert (deviation <= 1e-13 * np.abs(expected).max(axis=1)).all()


def test_jacobian_independent_of_evaluation_order():
    dressing = wg.DressingSpec.random(2, 2, 79)
    transform = wg.make_symmetry("antilinear", wg.haar_unitary(2, 83), dressing)
    first = wg.classify(transform)
    again = wg.classify(wg.make_symmetry("antilinear", wg.haar_unitary(2, 83), dressing))
    assert np.array_equal(first.operator, again.operator)
