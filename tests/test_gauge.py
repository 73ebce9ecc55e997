import math
import tracemalloc

import numpy as np
import pytest

import wigner as wg
from wigner.errors import (
    DegeneratePair,
    MixedBranch,
    NotProbabilityPreserving,
    OriginNotFixed,
)


def unitary_transform(n, seed):
    u = wg.haar_unitary(n, seed)
    return wg.Transformation(lambda z: u @ z, n), u


def dressed_unitary(n, seed, alpha):
    u = wg.haar_unitary(n, seed)
    return wg.Transformation(lambda z: np.exp(1j * alpha(z)) * (u @ z), n), u


def random_pairs(n, count, seed):
    rng = np.random.default_rng(seed)
    return [(wg.random_state(n, rng), wg.random_state(n, rng)) for _ in range(count)]


def test_wrap_angle_range():
    for theta in (-7.0, -math.pi, -1.0, 0.0, 1.0, math.pi, 7.0):
        wrapped = wg.wrap_angle(theta)
        assert -math.pi < wrapped <= math.pi
        assert abs(math.sin(wrapped - theta)) < 1e-12


def test_exact_unitary_has_zero_theta():
    transform, _ = unitary_transform(3, 5)
    for w, z in random_pairs(3, 20, 1):
        assert abs(wg.extract_theta(transform, w, z)) < 1e-10


def test_dressed_theta_is_alpha_difference():
    # alpha(z) = Re z1; w = (1,1)/sqrt(2), z = (1,0):
    # theta = alpha(z) - alpha(w) = 1 - 1/sqrt(2)
    transform, _ = dressed_unitary(2, 3, lambda z: float(z[0].real))
    w = np.array([1.0, 1.0]) / math.sqrt(2)
    z = np.array([1.0, 0.0])
    assert abs(wg.extract_theta(transform, w, z) - (1.0 - math.sqrt(0.5))) < 1e-9
    assert abs(wg.extract_theta(transform, z, w) + (1.0 - math.sqrt(0.5))) < 1e-9


def test_orthogonal_pair_is_degenerate():
    transform, _ = unitary_transform(3, 11)
    with pytest.raises(DegeneratePair):
        wg.extract_theta(transform, *np.eye(3, dtype=complex)[:2])


def test_pair_whose_norms_pass_float_range_is_degenerate():
    # the bound is NaN there, and a NaN bound clears no pair, a zero overlap least of all
    transform, _ = unitary_transform(2, 11)
    with np.errstate(over="ignore"), pytest.raises(DegeneratePair):
        wg.extract_theta(transform, np.array([1e300, 0.0]), np.zeros(2))


@pytest.mark.parametrize("numerator", [1.5, -1.5j])
def test_probe_overlap_at_its_tolerance_fails(numerator):
    with pytest.raises(NotProbabilityPreserving):
        wg.gauge._theta_from(numerator, 1.0, 0.5)
    assert wg.gauge._theta_from(1.25, 1.0, 0.5) == 0.0


@pytest.mark.parametrize("residual", [wg.gauge.RESIDUAL_PHASE_TOL, math.nan])
def test_self_check_fails_at_its_tolerance_and_on_nan(monkeypatch, residual):
    origin_phase = wg.gauge.origin_phase

    def residual_after_fixing(transform, *args, **kwargs):
        if isinstance(transform, wg.gauge.GaugeFixedTransformation):
            return residual
        return origin_phase(transform, *args, **kwargs)

    monkeypatch.setattr(wg.gauge, "origin_phase", residual_after_fixing)
    transform, _ = unitary_transform(2, 3)
    with pytest.raises(MixedBranch, match="residual origin phase"):
        wg.gauge_fix(transform)


def test_scaling_is_not_preserving():
    transform = wg.Transformation(lambda z: 2.0 * z, 2)
    w, z = random_pairs(2, 1, 6)[0]
    with pytest.raises(NotProbabilityPreserving):
        wg.extract_theta(transform, w, z)


def test_antisymmetry_exact_unitary():
    transform, _ = unitary_transform(4, 13)
    report = wg.verify_theta_antisymmetry(transform, random_pairs(4, 100, 8), tol=1e-10)
    assert report.passed
    assert report.max_deviation < 1e-10


def test_antisymmetry_dressed():
    # polynomial dressing in the real coordinates, degree 3
    dressing = wg.DressingSpec.random(3, 3, 41)
    transform = wg.make_symmetry("linear", wg.haar_unitary(3, 14), dressing)
    report = wg.verify_theta_antisymmetry(transform, random_pairs(3, 100, 9), tol=1e-8)
    assert report.passed
    assert report.max_deviation < 1e-8


def test_antisymmetry_antilinear_wraps():
    # the antilinear branch picks up -2 arg<w|z> per reading; the sum must
    # still cancel modulo 2 pi
    transform = wg.make_symmetry("antilinear", wg.haar_unitary(3, 15))
    report = wg.verify_theta_antisymmetry(transform, random_pairs(3, 100, 10), tol=1e-8)
    assert report.passed


def test_antisymmetry_rejects_scaling():
    transform = wg.Transformation(lambda z: 2.0 * z, 2)
    with pytest.raises(NotProbabilityPreserving):
        wg.verify_theta_antisymmetry(transform, random_pairs(2, 3, 11), tol=1e-8)


def test_gauge_fix_identity_on_exact_unitary():
    transform, u = unitary_transform(3, 17)
    fixed = wg.gauge_fix(transform)
    rng = np.random.default_rng(12)
    worst = max(
        float(np.linalg.norm(fixed(z) - u @ z))
        for z in (wg.random_state(3, rng) for _ in range(50))
    )
    assert worst < 1e-9


def test_gauge_fix_norm_squared_dressing():
    # alpha(z) = |z|^2; the fixed map must agree with e^{i phi0} U z for a
    # single global phase
    transform, u = dressed_unitary(3, 19, lambda z: float(np.vdot(z, z).real))
    fixed = wg.gauge_fix(transform)
    rng = np.random.default_rng(13)
    points = [wg.random_state(3, rng) for _ in range(50)]
    phi0 = float(np.angle(np.vdot(u @ points[0], fixed(points[0]))))
    worst = max(
        float(np.linalg.norm(fixed(z) - np.exp(1j * phi0) * (u @ z))) for z in points
    )
    assert worst < 1e-7


def test_gauge_fix_dressed_conjugation_is_antilinear():
    # T(z) = exp(i Im z2) conj(z): after gauge fixing the origin d_z block
    # vanishes
    transform = wg.Transformation(
        lambda z: np.exp(1j * z[1].imag) * np.conj(z), 2
    )
    fixed = wg.gauge_fix(transform)
    jac = wg.wirtinger_jacobian(fixed, wg.zero_state(2))
    assert jac.d_z_norm < 1e-7
    assert abs(jac.d_zbar_norm - 1.0) < 1e-7


def test_gauge_fix_requires_fixed_origin():
    transform = wg.Transformation(lambda z: z + 0.5, 2)
    with pytest.raises(OriginNotFixed):
        wg.gauge_fix(transform)


def test_gauge_fix_is_idempotent():
    dressing = wg.DressingSpec.random(3, 2, 43)
    transform = wg.make_symmetry("linear", wg.haar_unitary(3, 29), dressing)
    fixed = wg.gauge_fix(transform)
    fixed_again = wg.gauge_fix(fixed)
    rng = np.random.default_rng(14)
    worst = max(
        float(np.linalg.norm(fixed_again(z) - fixed(z)))
        for z in (wg.random_state(3, rng) for _ in range(50))
    )
    assert worst < 1e-8


def test_gauge_preserves_overlap_moduli():
    dressing = wg.DressingSpec.random(3, 3, 47)
    transform = wg.make_symmetry("linear", wg.haar_unitary(3, 31), dressing)
    fixed = wg.gauge_fix(transform)
    for w, z in random_pairs(3, 25, 15):
        before = abs(complex(np.vdot(transform(w), transform(z))))
        after = abs(complex(np.vdot(fixed(w), fixed(z))))
        assert abs(before - after) < 1e-12


def test_origin_phase_vanishes_at_small_arguments():
    # theta(0, 0, z, z*) -> 0 as z -> 0 (continuity of the limit)
    dressing = wg.DressingSpec.random(2, 2, 53)
    transform = wg.make_symmetry("linear", wg.haar_unitary(2, 37), dressing)
    z = wg.random_state(2, np.random.default_rng(16))
    values = [abs(wg.origin_phase(transform, scale * z)) for scale in (1e-1, 1e-2, 1e-3)]
    assert values[2] < values[0]
    assert values[2] < 1e-2
    # at the origin itself the phase is zero by convention
    assert wg.origin_phase(transform, wg.zero_state(2)) == 0.0


def test_gauge_fixed_evaluator_is_zero_at_origin():
    transform, _ = unitary_transform(3, 41)
    fixed = wg.gauge_fix(transform)
    assert np.array_equal(fixed(wg.zero_state(3)), wg.zero_state(3))


def test_gauge_memoization_is_deterministic():
    dressing = wg.DressingSpec.random(2, 3, 59)
    transform = wg.make_symmetry("linear", wg.haar_unitary(2, 43), dressing)
    fixed = wg.gauge_fix(transform)
    z = wg.random_state(2, np.random.default_rng(17))
    first = fixed(z)
    again = fixed(z.copy())
    assert np.array_equal(first, again)


def test_gauge_memo_is_cleared_before_it_passes_its_bound(monkeypatch):
    transform = wg.make_symmetry("linear", wg.haar_unitary(3, 8), wg.DressingSpec.random(3, 2, 8))
    points = []

    def evaluator(z):
        points.append(len(z))
        return transform(z)

    fixed = wg.gauge_fix(wg.Transformation(evaluator, 3, vectorized=True))
    monkeypatch.setattr(wg.gauge, "MEMO_MAX_POINTS", 4)
    first, second = wg.random_state(3, np.random.default_rng(18), (2, 3))

    def base_points(z):
        points.clear()
        image = fixed(z)
        return image, sum(points)

    image, probed = base_points(first)
    assert probed == 3 * 4 + 3  # probes of the 3 misses, then the rows
    assert base_points(first)[1] == 3  # all 3 found in the memo
    assert base_points(second)[1] == 3 * 4 + 3  # 3 + 3 > 4: the memo is cleared
    again, probed = base_points(first)
    assert probed == 3 * 4 + 3
    assert np.array_equal(again, image)


def test_gauge_memo_retains_a_bounded_amount_on_fresh_points():
    # Unbounded, the memo of an n = 64 wrapper retained 11 MB per 10000
    # fresh points (57 MB after 5 batches). With MEMO_MAX_POINTS = 16384 the
    # second batch clears it, and it keeps that batch's 10000 points alone.
    # Two batches suffice: tracing makes each take about 1.5 s.
    fixed = wg.gauge_fix(wg.make_symmetry("linear", wg.haar_unitary(64, 9)))
    rng = np.random.default_rng(19)
    tracemalloc.start()
    try:
        for _ in range(2):
            fixed(wg.random_state(64, rng, (10000,)))
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 16e6


def test_self_check_evaluates_the_fixed_map_once(monkeypatch):
    n = 3
    fixed_calls = []

    class RecordedFixed(wg.gauge.GaugeFixedTransformation):
        def __call__(self, z):
            fixed_calls.append(np.shape(z))
            return super().__call__(z)

    readings = []
    origin_phase = wg.gauge.origin_phase

    def recorded(transform, z, *args, images=None, **kwargs):
        if isinstance(transform, RecordedFixed):
            readings.append((z.copy(), images is not None))
        return origin_phase(transform, z, *args, images=images, **kwargs)

    monkeypatch.setattr(wg.gauge, "GaugeFixedTransformation", RecordedFixed)
    monkeypatch.setattr(wg.gauge, "origin_phase", recorded)
    transform = wg.make_symmetry("linear", wg.haar_unitary(n, 4), wg.DressingSpec.random(n, 2, 4))
    base_calls = []
    inner = transform.evaluator

    def evaluator(z):
        base_calls.append(np.shape(z))
        return inner(z)

    transform.evaluator = evaluator
    wg.gauge_fix(transform, seed=5)
    samples = wg.gauge.REFERENCE_SAMPLES
    # one fixed-map call on the samples' probe points, then a reading per
    # sample from its four images
    assert fixed_calls == [(4 * samples, n)]
    # the origin, the probes of the 4 x 8 memo misses, then their rows
    assert base_calls == [(n,), (4 * 4 * samples, n), (4 * samples, n)]
    # the same samples, bit for bit, as one draw per sample in a loop
    rng = np.random.default_rng(5)
    expected = [wg.random_state(n, rng) for _ in range(samples)]
    assert len(readings) == samples
    for (z, given), reference in zip(readings, expected):
        assert given and np.array_equal(z, reference)
