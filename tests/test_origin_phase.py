"""origin_phase against its first version, and its typed errors at the edges.

`reference_origin_phase` (tests/oracles.py) re-validates every point with
`as_state` and reads the probes in a loop with numpy-scalar probe scales.
`origin_phase` reads them with Python floats; the `vdot`s are the same and
run in the same order, so the two must agree bit for bit (compared with
`==`), and raise the same error type and message wherever the first
version raised a typed error.
"""

import math
import sys

import numpy as np
import pytest

import wigner as wg
from oracles import reference_origin_phase
from wigner import gauge
from wigner.errors import (
    DegeneratePair,
    DimensionMismatch,
    NonFiniteEvaluation,
    NotProbabilityPreserving,
)

DIMENSIONS = (1, 2, 8, 64)
# the |z| below which the smallest probe overlap eps/4 * |z|^2 underflows;
# it moves as eps^(-1/2), and is about 3e-151 at eps = 1e-6
UNDERFLOW = math.sqrt(sys.float_info.min / gauge._EPS[2])
SCALES = (100 * UNDERFLOW, 1e-50, 1e-5, 1.0, 1e5, 1e50, 1e150)


def outcome(read, *args, **kwargs):
    """The float `read` returns, or the type and message of the error it raises."""
    try:
        return read(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - compared as a value
        return type(exc), str(exc)


def counting(transform):
    """`transform` with a list of the batch shapes it was called on."""
    calls = []

    def evaluator(z):
        calls.append(z.shape)
        return transform(z)

    wrapped = wg.Transformation(evaluator, transform.dimension, vectorized=True)
    return wrapped, calls


@pytest.mark.parametrize("n", DIMENSIONS)
@pytest.mark.parametrize("kind", ["linear", "antilinear"])
def test_origin_phase_is_bit_identical_to_the_reference(kind, n):
    rng = np.random.default_rng(n)
    values = 0
    for degree in range(5):
        transform = wg.make_symmetry(
            kind, wg.haar_unitary(n, n + degree), wg.DressingSpec.random(n, degree, degree)
        )
        for scale in SCALES:
            z = scale * wg.random_state(n, rng)
            expected = outcome(reference_origin_phase, transform, z)
            assert outcome(wg.origin_phase, transform, z) == expected
            if isinstance(expected, float):
                values += 1
                images = transform(gauge._PROBES * z)
                assert wg.origin_phase(transform, z, images=images) == expected
                assert reference_origin_phase(transform, z, images=images) == expected
    # every scale at degree 0, and most of the dressed ones, give a phase
    assert values >= 20


def test_origin_phase_on_a_gauge_fixed_map_is_bit_identical():
    transform = wg.make_symmetry(
        "antilinear", wg.haar_unitary(8, 3), wg.DressingSpec.random(8, 3, 3)
    )
    fixed = wg.gauge_fix(transform)
    for z in wg.random_state(8, np.random.default_rng(5), (10,)):
        assert wg.origin_phase(fixed, z) == reference_origin_phase(fixed, z)


@pytest.mark.parametrize(
    "n, z",
    [
        (3, [1.0, np.nan, 0.5]),
        (3, [1.0, np.inf, 0.5]),
        (3, [1.0, complex(0.0, -np.inf), 0.5]),
        (3, [1.0, 2.0]),
        (3, [1.0, 2.0, 3.0, 4.0]),
        (3, [[1.0, 2.0, 3.0]]),
        (3, np.ones((2, 3))),
        (3, 1.0),
        (1, 0.5 - 0.25j),
        (1, [0.5j]),
        (3, [1.0, 2j, 0.5]),
        (3, (0.1, 0.2, 0.3)),
    ],
)
def test_origin_phase_validates_like_the_reference(n, z):
    transform = wg.make_symmetry("linear", wg.haar_unitary(n, 2), wg.DressingSpec.random(n, 2, 2))
    expected = outcome(reference_origin_phase, transform, z)
    assert outcome(wg.origin_phase, transform, z) == expected


def test_origin_phase_refuses_a_scaling_map_like_the_reference():
    transform = wg.make_adversary("scaling", 3, 1)
    z = wg.random_state(3, np.random.default_rng(1))
    expected = outcome(reference_origin_phase, transform, z)
    assert expected[0] is NotProbabilityPreserving
    assert outcome(wg.origin_phase, transform, z) == expected
    images = transform(gauge._PROBES * z)
    assert outcome(wg.origin_phase, transform, z, images=images) == expected


@pytest.mark.parametrize("n", [1, 4])
def test_origin_phase_at_the_zero_vector_is_zero_and_evaluates_nothing(n):
    transform, calls = counting(wg.make_symmetry("linear", wg.haar_unitary(n, 1)))
    for read in (wg.origin_phase, reference_origin_phase):
        phase = read(transform, np.zeros(n, dtype=complex))
        assert phase == 0.0 and isinstance(phase, float)
        assert read(transform, [0.0] * n) == 0.0
    assert calls == []


def edge_maps(n):
    transform = wg.make_symmetry("linear", wg.haar_unitary(n, 7))
    return transform, wg.gauge_fix(transform)


def test_underflowing_probe_overlap_is_a_degenerate_pair():
    # eps/4 * |z|^2 falls below the smallest normal float at |z| = UNDERFLOW;
    # below that the first version refused a unitary as not preserving
    # (UNDERFLOW / 10^8.5), divided by zero (/ 10^9.5) or returned 0.0
    # (/ 10^18.5). This |z| = 2.3 point sits in those regions at eps = 1e-4
    # and at eps = 1e-6 alike.
    transform, fixed = edge_maps(3)
    z = wg.random_state(3, np.random.default_rng(2))
    with pytest.raises(NotProbabilityPreserving):
        reference_origin_phase(transform, UNDERFLOW / 10**8.5 * z)
    with pytest.raises(ZeroDivisionError):
        reference_origin_phase(transform, UNDERFLOW / 10**9.5 * z)
    assert reference_origin_phase(transform, UNDERFLOW / 10**18.5 * z) == 0.0
    for scale in [UNDERFLOW / 10**k for k in (3.5, 8.5, 9.5, 18.5)] + [1e-320]:
        with pytest.raises(DegeneratePair, match="underflows"):
            wg.origin_phase(transform, scale * z)
        with pytest.raises(DegeneratePair, match="underflows"):
            fixed(scale * z)
    above = 30 * UNDERFLOW * z
    assert wg.origin_phase(transform, above) == reference_origin_phase(transform, above)


def test_overflowing_norm_is_a_non_finite_evaluation():
    # |z|^2 overflows at |z| ~ 1e160; the first version returned NaN, and
    # its reference, under the one pass rule, refuses the NaN ratio
    transform, fixed = edge_maps(3)
    z = 1e160 * wg.random_state(3, np.random.default_rng(3))
    with pytest.raises(NotProbabilityPreserving, match="= nan"):
        reference_origin_phase(transform, z)
    with pytest.raises(NonFiniteEvaluation, match="overflows"):
        wg.origin_phase(transform, z)
    with pytest.raises(NonFiniteEvaluation, match="overflows"):
        fixed(z)


def test_nan_ratio_is_not_probability_preserving():
    with pytest.raises(NotProbabilityPreserving):
        gauge._theta_from(complex(np.nan, 0.0), 1.0, 1e-8)
    transform, _ = edge_maps(3)
    z = wg.random_state(3, np.random.default_rng(4))
    images = transform(gauge._PROBES * z)
    images[2, 0] = np.nan
    with pytest.raises(NotProbabilityPreserving, match="= nan"):
        reference_origin_phase(transform, z, images=images)
    with pytest.raises(NotProbabilityPreserving):
        wg.origin_phase(transform, z, images=images)


def test_gauge_fix_refuses_a_map_whose_probe_overlaps_are_nan():
    # a scaling by 1e200 keeps the images finite, but the real and imaginary
    # parts of their overlap overflow to inf - inf: the first version read a
    # NaN phase, and gauge_fix's residual check let the NaN through; its
    # reference, under the one pass rule, refuses the NaN ratio
    transform = wg.Transformation(lambda z: 1e200 * z, 1, vectorized=True)
    z = np.array([0.6 + 0.8j])
    with pytest.raises(NotProbabilityPreserving, match="= nan"):
        reference_origin_phase(transform, z)
    with pytest.raises(NotProbabilityPreserving, match="= nan"):
        wg.origin_phase(transform, z)
    with pytest.raises(NotProbabilityPreserving, match="= nan"):
        wg.gauge_fix(transform)


@pytest.mark.parametrize("rows", [3, 5])
def test_images_of_the_wrong_shape_are_a_dimension_mismatch(monkeypatch, rows):
    transform, fixed = edge_maps(3)
    z = wg.random_state(3, np.random.default_rng(5))
    images = transform(np.linspace(1.0, 1e-4, rows)[:, None] * z)
    with pytest.raises(DimensionMismatch, match=r"shape \(4, 3\)"):
        wg.origin_phase(transform, z, images=images)
    with pytest.raises(DimensionMismatch, match=r"shape \(4, 3\)"):
        wg.origin_phase(transform, z, images=images[:, :2])
    # the wrapper reads the images its probe column gives it
    monkeypatch.setattr(gauge, "_PROBES", np.linspace(1.0, 1e-4, rows)[:, None])
    with pytest.raises(DimensionMismatch, match=r"shape \(4, 3\)"):
        fixed(z)
