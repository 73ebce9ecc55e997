import concurrent.futures
import sys

import numpy as np
import pytest

import wigner as wg
from wigner.errors import DimensionMismatch, NonFiniteEvaluation, NotRealMap, SchemaError
from wigner.states import REAL_TOL, as_array


def test_as_state_coerces_and_validates():
    out = wg.as_state([1, 2j], 2)
    assert out.dtype == np.complex128
    with pytest.raises(DimensionMismatch):
        wg.as_state([1, 2, 3], 2)
    with pytest.raises(DimensionMismatch):
        wg.as_state(np.zeros((2, 2)))
    with pytest.raises(NonFiniteEvaluation):
        wg.as_state([np.nan, 0])


@pytest.mark.parametrize(
    "value, dtype, error, message",
    [
        ("1", np.complex128, SchemaError, "image must be numeric, got str"),
        (b"1", np.float64, SchemaError, "image must be numeric, got bytes"),
        ([10**30, "1"], np.complex128, SchemaError, "image must be numeric, got list"),
        ([1, object()], np.float64, SchemaError, "image must be numeric, got list"),
        ([[1], [1, 2]], np.complex128, SchemaError, "image must be numeric, got list"),
        ([10**400], np.float64, SchemaError, "image must be within float range, got list"),
        (10**400, np.complex128, SchemaError, "image must be within float range, got int"),
        ([1, 1e-3j], np.float64, NotRealMap, "|Im image| = 0.001 exceeds 1e-09"),
        (complex(1, np.nan), np.float64, NotRealMap, "|Im image| = nan exceeds 1e-09"),
        (complex(1, np.inf), np.float64, NotRealMap, "|Im image| = inf exceeds 1e-09"),
        (None, np.complex128, SchemaError, "image must be numeric, got NoneType"),
        ([None, 1], np.float64, SchemaError, "image must be numeric, got list"),
        ([2**70, 1j], np.float64, NotRealMap, "|Im image| = 1 exceeds 1e-09"),
    ],
)
def test_as_array_refuses_what_is_not_a_number_of_its_dtype(value, dtype, error, message):
    with pytest.raises(error) as refused:
        as_array(value, "image", dtype)
    assert str(refused.value) == message


def test_as_array_keeps_the_value_of_a_number():
    assert as_array([2**70], "point", np.float64).tolist() == [float(2**70)]
    assert as_array([1, 2.5j], "point").tolist() == [1, 2.5j]
    # an imaginary part below REAL_TOL is dropped, the real part kept bit for bit
    assert as_array(np.array([0.1 + 0.5 * REAL_TOL * 1j]), "point", np.float64).tolist() == [0.1]
    z = np.ones(3, dtype=np.complex128)
    assert as_array(z, "point") is z


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


def test_per_row_map_refuses_a_bad_image_at_its_row():
    seen = []

    def evaluator(z):
        seen.append(z[0])
        return np.full(2, np.inf) if z[0] == 1 else z

    with pytest.raises(NonFiniteEvaluation, match="evaluator returned non-finite components"):
        wg.Transformation(evaluator, 2)(np.array([[0, 0], [1, 0], [2, 0]]))
    assert seen == [0, 1]
    with pytest.raises(DimensionMismatch, match=r"returned shape \(3,\), expected \(2,\)"):
        wg.Transformation(lambda z: np.zeros(3), 2)(np.zeros((2, 2)))
    assert wg.Transformation(lambda z: z, 2)(np.zeros((0, 2))).shape == (0, 2)


def test_real_map_refuses_a_non_finite_image_before_a_non_real_one():
    # an overflow times a complex 1 is inf + nan i: non-finite, then not real
    transform = wg.RealTransformation(lambda u: np.exp(1000 * u) * (1 + 0j), 1)
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
