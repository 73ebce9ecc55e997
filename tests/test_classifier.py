import dataclasses
import math
import sys

import numpy as np
import pytest

import wigner as wg
from wigner.classifier import _decide_branch, _require_unitary
from wigner.errors import (
    MAX_SAMPLES,
    STEP_RANGE,
    TOL_BRANCH_MAX,
    DimensionMismatch,
    MixedBranch,
    NotASymmetry,
    NotUnitary,
    SchemaError,
    ZeroReference,
)
from wigner.wirtinger import WirtingerJacobian

from oracles import reference_smoothness


def test_check_preservation_haar_unitary():
    transform = wg.make_symmetry("linear", wg.haar_unitary(4, 3))
    report = wg.check_preservation(transform, 100, seed=0, tol=1e-9)
    assert report.passed
    assert report.max_deviation < 1e-12
    assert report.pairs_tested == 100 + 4 + 4  # specials: zero, 4 basis, orth, par, par_scaled


def test_check_preservation_scaling_fails_on_parallel_pair():
    transform = wg.Transformation(lambda z: 2.0 * z, 3)
    report = wg.check_preservation(transform, 10, seed=1, tol=1e-8)
    assert not report.passed
    _, norm_z, _, deviation = report.columns[report.labels.index("parallel")]
    # |<2z|2z>| - |<z|z>| = 3 |z|^2
    assert abs(deviation - 3.0 * norm_z**2) < 1e-9


def test_check_preservation_dressed_unitary():
    u = wg.haar_unitary(3, 5)
    transform = wg.Transformation(
        lambda z: np.exp(1j * float(np.vdot(z, z).real)) * (u @ z), 3
    )
    report = wg.check_preservation(transform, 100, seed=2, tol=1e-9)
    assert report.passed
    assert report.max_deviation < 1e-12


def test_classify_haar_unitary_recovers_matrix():
    u = wg.haar_unitary(4, 7)
    result = wg.classify(wg.make_symmetry("linear", u))
    assert result.branch == "linear"
    alignment = wg.align_global_phase(result.operator, u)
    assert alignment.aligned_residual < 1e-9
    assert result.unitarity_residual < 1e-9
    assert result.caveats == ()


def test_classify_conjugation():
    result = wg.classify(wg.make_symmetry("antilinear", np.eye(3)))
    assert result.branch == "antilinear"
    assert np.abs(result.operator - np.eye(3)).max() < 1e-9


def test_classify_scaling_raises():
    with pytest.raises(NotASymmetry) as err:
        wg.classify(wg.Transformation(lambda z: 2.0 * z, 3))
    assert err.value.report is not None
    assert err.value.report.max_deviation > 1.0


def test_classify_dressed_antilinear():
    # T(z) = exp(i (Re z1)^2) V conj(z)
    v = wg.haar_unitary(3, 11)
    transform = wg.Transformation(
        lambda z: np.exp(1j * z[0].real ** 2) * (v @ np.conj(z)), 3
    )
    result = wg.classify(transform)
    assert result.branch == "antilinear"
    alignment = wg.align_global_phase(result.operator, v)
    assert alignment.aligned_residual < 1e-6


def test_classify_dimension_cap():
    transform = wg.Transformation(lambda z: z, 65)
    with pytest.raises(DimensionMismatch):
        wg.classify(transform)


def test_classify_n1_caveat():
    result = wg.classify(wg.Transformation(lambda z: z, 1))
    assert result.branch == "linear"
    assert wg.CAVEAT_N1 in result.caveats
    result = wg.classify(wg.Transformation(lambda z: np.conj(z), 1))
    assert result.branch == "antilinear"
    assert wg.CAVEAT_N1 in result.caveats


def test_classify_smoothness_diagnostic_present():
    result = wg.classify(wg.make_symmetry("linear", wg.haar_unitary(2, 13)))
    smooth = result.smoothness
    # a linear map differentiates exactly: differences at the noise floor
    assert smooth.fine_difference < 1e-10
    assert smooth.halving_ratio is None or smooth.halving_ratio > 0


@pytest.mark.parametrize(
    "kind, n, degree", [("linear", 1, 0), ("linear", 3, 2), ("antilinear", 2, 4), ("antilinear", 5, 1)]
)
def test_smoothness_reads_the_reference_formula(kind, n, degree):
    transform = wg.make_symmetry(kind, wg.haar_unitary(n, n), wg.DressingSpec.random(n, degree, 5))
    smooth = wg.classify(transform).smoothness
    expected = reference_smoothness(wg.gauge_fix(transform), wg.ClassifyConfig().step)
    assert (smooth.coarse_difference, smooth.fine_difference, smooth.halving_ratio) == expected


@pytest.mark.parametrize("norms, branch", [
    ((1e-4, 0.0), "linear"),
    ((0.0, 1e-4), "antilinear"),
    ((0.5, 1e-4), None),
    ((1e-4, 0.5), None),
])
def test_decide_branch_counts_a_block_at_tol_branch_as_live(norms, branch):
    d_z, d_zbar = (norm * np.eye(2) for norm in norms)
    jac = WirtingerJacobian(d_z=d_z, d_zbar=d_zbar, at=np.zeros(2))
    if branch is None:
        with pytest.raises(MixedBranch):
            _decide_branch(jac, tol_branch=1e-4)
    else:
        assert _decide_branch(jac, tol_branch=1e-4)[0] == branch


def test_decide_branch_mixed_raises():
    half = 0.5 * np.eye(2)
    jac = WirtingerJacobian(d_z=half, d_zbar=half, at=np.zeros(2))
    with pytest.raises(MixedBranch):
        _decide_branch(jac, tol_branch=1e-4)
    tiny = 1e-9 * np.eye(2)
    jac = WirtingerJacobian(d_z=tiny, d_zbar=tiny, at=np.zeros(2))
    with pytest.raises(MixedBranch):
        _decide_branch(jac, tol_branch=1e-4)


@pytest.mark.parametrize("value", [1e-6, 2e-6, math.inf, math.nan])
def test_a_check_passes_only_below_its_tolerance(value):
    assert NotUnitary.unless_below(0.5e-6, 1e-6, "x =") == 0.5e-6
    with pytest.raises(NotUnitary) as refused:
        NotUnitary.unless_below(value, 1e-6, "x =")
    assert str(refused.value) == f"x = {value:.3g} exceeds 1e-06"
    assert refused.value.report is None


def test_require_unitary_raises():
    with pytest.raises(NotUnitary):
        _require_unitary(1.1 * np.eye(2), tol=1e-6)
    assert _require_unitary(np.eye(2), tol=1e-6) == 0.0


def test_align_global_phase_identity_rotation():
    alignment = wg.align_global_phase(np.exp(1j * np.pi / 3) * np.eye(3), np.eye(3))
    assert abs(alignment.phase - np.pi / 3) < 1e-12
    assert alignment.aligned_residual < 1e-12


def test_align_global_phase_self():
    u = wg.haar_unitary(4, 17)
    alignment = wg.align_global_phase(u, u)
    assert abs(alignment.phase) < 1e-12
    assert alignment.aligned_residual < 1e-12


def test_align_global_phase_constructed():
    v = wg.haar_unitary(5, 19)
    alignment = wg.align_global_phase(np.exp(0.7j) * v, v)
    assert abs(alignment.phase - 0.7) < 1e-12
    assert alignment.aligned_residual < 1e-12


def test_align_global_phase_zero_reference():
    with pytest.raises(ZeroReference):
        wg.align_global_phase(np.eye(2), np.zeros((2, 2)))


@pytest.mark.parametrize("shape", [(), (3,), (2, 2, 2)])
def test_align_global_phase_takes_arrays_of_any_one_shape(shape):
    reference = np.full(shape, 0.5 - 0.5j)
    alignment = wg.align_global_phase(np.exp(0.3j) * reference, reference)
    assert abs(alignment.phase - 0.3) < 1e-12
    assert alignment.aligned_residual < 1e-12


@pytest.mark.parametrize("matrix, reference", [
    (np.zeros(0), np.zeros(0)),
    (np.zeros((2, 0)), np.zeros((2, 0))),
    (np.eye(2), np.ones(2)),
])
def test_align_global_phase_refuses_empty_or_unequal_shapes(matrix, reference):
    with pytest.raises(DimensionMismatch):
        wg.align_global_phase(matrix, reference)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
@pytest.mark.parametrize("position", ["matrix", "reference"])
def test_align_global_phase_refuses_a_non_finite_entry(bad, position):
    operands = {"matrix": np.eye(2, dtype=complex), "reference": np.eye(2, dtype=complex)}
    operands[position][1, 1] = bad
    with pytest.raises(SchemaError, match="must be finite"):
        wg.align_global_phase(**operands)


def test_align_global_phase_past_the_largest_float_reads_inf_unwarned():
    alignment = wg.align_global_phase(np.full(2, 1.5e308 + 1.5e308j), np.ones(2))
    assert alignment.phase == pytest.approx(np.pi / 4)
    assert alignment.aligned_residual == np.inf


def test_align_global_phase_of_a_reference_past_the_largest_float_in_modulus():
    # the quotient matrix / reference overflows its denominator and flushes
    # to 0, which would read a phase of 0
    alignment = wg.align_global_phase(1.0, 1.7e308 + 1.7e308j)
    assert alignment.phase == pytest.approx(-np.pi / 4)
    assert alignment.aligned_residual == np.inf


@pytest.mark.parametrize("kind", ["linear", "antilinear"])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_round_trip_small_corpus(kind, degree):
    n = 2 + degree
    seed = 100 * degree + (0 if kind == "linear" else 50)
    u = wg.haar_unitary(n, seed)
    dressing = wg.DressingSpec.random(n, degree, seed + 1) if degree else None
    result = wg.classify(wg.make_symmetry(kind, u, dressing))
    assert result.branch == kind
    assert wg.align_global_phase(result.operator, u).aligned_residual < 1e-6
    # dichotomy: exactly one block negligible, the other of unit scale
    small, large = sorted([result.origin_d_z_norm, result.origin_d_zbar_norm])
    assert small < 1e-4
    assert large > 0.5


@pytest.mark.parametrize("step", STEP_RANGE)
@pytest.mark.parametrize("n", [1, 2, 8, 64])
def test_generated_maps_classify_at_the_bounds_of_the_cli_step(n, step):
    # the range has a decade of headroom below: at 1e-9 these maps still
    # classify, at 1e-10 five of the dressed ones at n >= 2 fail to reconstruct
    for kind in ("linear", "antilinear"):
        for degree in (0, 3):
            u = wg.haar_unitary(n, n + degree)
            transform = wg.make_symmetry(kind, u, wg.DressingSpec.random(n, degree, n))
            result = wg.classify(transform, wg.ClassifyConfig(step=step))
            assert result.branch == kind
            assert wg.align_global_phase(result.operator, u).aligned_residual < 1e-6


BAD_CONFIGS = [
    # at 1e-10, five dressed maps of the test above fail to reconstruct
    ("step", 1e-10, "step must be in [1e-08, 0.1]"),
    ("step", 0.2, "step must be in [1e-08, 0.1]"),
    ("step", math.nan, "step must be finite"),
    ("step", -1e-5, "step must be positive"),
    ("tol_preserve", math.inf, "tol_preserve must be finite"),
    ("tol_preserve", 0.0, "tol_preserve must be positive"),
    ("tol_unitary", math.nan, "tol_unitary must be finite"),
    ("tol_unitary", -1e-6, "tol_unitary must be positive"),
    ("tol_branch", 0.2, "tol_branch must be at most 0.1"),
    ("tol_branch", math.nan, "tol_branch must be finite"),
    ("seed", -1, "seed must be non-negative"),
    ("seed", 1.5, "seed must be an integer, got float"),
    ("seed", True, "seed must be an integer, got bool"),
    ("samples", 0, "samples must be at least 1"),
    ("samples", 10001, "samples must be at most 10000"),
    ("samples", True, "samples must be an integer, got bool"),
    ("samples", "50", "samples must be an integer, got str"),
    ("tol_unitary", True, "tol_unitary must be a real number, got bool"),
    # numpy names its bool scalar type "bool" from 2.0 on and "bool_" before
    ("step", np.bool_(True), f"step must be a real number, got {np.bool_.__name__}"),
]


@pytest.mark.parametrize("name, value, detail", BAD_CONFIGS)
def test_classify_config_refuses_a_setting_that_would_skew_the_verdict(name, value, detail):
    with pytest.raises(SchemaError) as raised:
        wg.ClassifyConfig(**{name: value})
    assert str(raised.value) == detail
    with pytest.raises(SchemaError):
        dataclasses.replace(wg.ClassifyConfig(), **{name: value})


def test_classify_config_accepts_its_bounds():
    for step in STEP_RANGE:
        assert wg.ClassifyConfig(step=step).step == step
    assert wg.ClassifyConfig(tol_branch=TOL_BRANCH_MAX).tol_branch == TOL_BRANCH_MAX
    largest = sys.float_info.max  # finite, so a valid tolerance
    assert wg.ClassifyConfig(tol_preserve=largest).tol_preserve == largest
    assert wg.ClassifyConfig(samples=1, seed=0).samples == 1
    assert wg.ClassifyConfig(samples=MAX_SAMPLES).samples == MAX_SAMPLES


def test_classify_config_accepts_numpy_scalars():
    config = wg.ClassifyConfig(
        seed=np.int64(3), samples=np.int64(7), tol_unitary=np.float64(1e-5), step=np.float64(2e-5)
    )
    result = wg.classify(wg.make_symmetry("linear", wg.haar_unitary(3, 1)), config)
    assert result.branch == "linear"
    assert result.preservation.pairs_tested == 7 + 3 + 4  # zero, 3 basis, orth, par, par_scaled


def _compose(t1, t2):
    return wg.Transformation(lambda z: t1(t2(z)), t1.dimension)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_composition_of_unitaries(n):
    u1, u2 = wg.haar_unitary(n, 23), wg.haar_unitary(n, 29)
    t1 = wg.make_symmetry("linear", u1)
    t2 = wg.make_symmetry("linear", u2)
    result = wg.classify(_compose(t1, t2))
    assert result.branch == "linear"
    assert wg.align_global_phase(result.operator, u1 @ u2).aligned_residual < 1e-6


@pytest.mark.parametrize("n", [2, 5])
def test_unitary_after_antiunitary_is_antilinear(n):
    u1, u2 = wg.haar_unitary(n, 31), wg.haar_unitary(n, 37)
    t1 = wg.make_symmetry("linear", u1)
    t2 = wg.make_symmetry("antilinear", u2)
    result = wg.classify(_compose(t1, t2))
    assert result.branch == "antilinear"
    assert wg.align_global_phase(result.operator, u1 @ u2).aligned_residual < 1e-6


def test_accepted_operator_passes_preservation_when_replayed():
    dressing = wg.DressingSpec.random(4, 2, 61)
    result = wg.classify(wg.make_symmetry("linear", wg.haar_unitary(4, 41), dressing))
    m = result.operator
    replay = wg.Transformation(lambda z: m @ z, 4)
    report = wg.check_preservation(replay, 100, seed=5, tol=1e-10)
    assert report.passed
    assert report.max_deviation < 1e-10


@pytest.mark.parametrize("kind", ["linear", "antilinear"])
def test_preservation_headroom_at_the_dimension_cap(kind):
    # Dressed symmetries at n = 64 deviate by roundoff in 64-term overlaps:
    # the worst over degrees 1-3 and seeds 0-2 of both branches measured
    # 1.4e-13, against the default tol_preserve of 1e-8.
    for degree, seed in ((1, 0), (2, 1), (3, 2)):
        dressing = wg.DressingSpec.random(64, degree, seed + 10)
        transform = wg.make_symmetry(kind, wg.haar_unitary(64, seed), dressing)
        report = wg.check_preservation(transform, 50, seed, wg.gauge.PRESERVE_TOL)
        assert report.passed
        assert report.pairs_tested == 64 + 4 + 50
        assert report.max_deviation < 1e-12


# The detection floor of a near-symmetry against the default tol_preserve
# of 1e-8: T = U (I + delta E_12) on C^3 deviates by 5.06 delta at the
# scaled parallel pair, and by 278 delta at the worst of the 50 random pairs
# of seed 0, whose radii 10^U(-2, 2) reach |w||z| = 2.6e3. A rejection at a
# special pair lists the 7 special pairs (zero, three basis, orthogonal, two
# parallel); a rejection at a random pair, or an accept, lists all 57. The
# floor lies between 1e-11 and 1e-10.
SHEAR_FLOOR = [
    # delta, verdict, pairs listed, worst pair, its deviation / delta
    (1e-8, "not_a_symmetry", 7, "parallel_scaled", 5.06),
    (1e-9, "not_a_symmetry", 57, "random", 278),
    (1e-10, "not_a_symmetry", 57, "random", 278),
    (1e-11, "linear", 57, "random", 279),
]


@pytest.mark.parametrize("delta, verdict, pairs, worst, ratio", SHEAR_FLOOR)
def test_shear_detection_floor_n3(delta, verdict, pairs, worst, ratio):
    u = wg.haar_unitary(3, 0)
    shear = np.eye(3, dtype=complex)
    shear[0, 1] = delta
    matrix = u @ shear
    transform = wg.Transformation(lambda z: z @ matrix.T, 3, vectorized=True)
    report = wg.check_preservation(transform, 50, 0, wg.gauge.PRESERVE_TOL)
    assert report.pairs_tested == pairs
    assert 0.995 * ratio < report.max_deviation / delta < 1.005 * ratio
    assert report.labels[int(report.columns[:, -1].argmax())] == worst
    if verdict == "not_a_symmetry":
        with pytest.raises(NotASymmetry):
            wg.classify(transform)
    else:
        result = wg.classify(transform)
        assert result.branch == verdict
        # measured 7.6e-12: the shear itself, seen through the gauge
        assert wg.align_global_phase(result.operator, u).aligned_residual < 1e-10


@pytest.mark.parametrize("n", [2, 4, 8])
def test_radial_defect_past_radius_10_is_refused(n):
    # T(z) = Uz (1 + 1e-6 max(0, |z|^2 - 100)^3) is U itself for |z| <= 10,
    # which a standard Gaussian point (|z| about sqrt(n)) does not leave;
    # the random radii of the preservation sample reach 1e2.
    for seed in range(10):
        u = wg.haar_unitary(n, seed)

        def radial(z, u=u):
            radius2 = (z.real**2 + z.imag**2).sum(axis=-1, keepdims=True)
            return (z @ u.T) * (1.0 + 1e-6 * np.maximum(0.0, radius2 - 100.0) ** 3)

        transform = wg.Transformation(radial, n, vectorized=True)
        with pytest.raises(NotASymmetry):
            wg.classify(transform, wg.ClassifyConfig(seed=seed))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["linear", "antilinear"])
@pytest.mark.parametrize("n", [2, 8])
@pytest.mark.parametrize("c", [1e2, 1e3, 1e4])
def test_steep_smooth_phase_is_accepted(c, n, kind, seed):
    # exp(i sin(c Re z1)) U z is a smooth symmetry. The gauge's Richardson
    # limit leaves about phi''' (eps |z|)^3 / 6, with phi''' up to c^3: at
    # eps = 1e-6 that reaches the 1e-6 self-check near c = 2e4 to 3e4 (and
    # near c = 200 at eps = 1e-4). Measured: U within 3.9e-16, and a
    # reconstruction miss of 1.4e-13, 1.4e-10 and 1.4e-7 at these c.
    u = wg.haar_unitary(n, seed)
    conj = np.conj if kind == "antilinear" else np.asarray
    transform = wg.Transformation(
        lambda z: np.exp(1j * np.sin(c * z[..., :1].real)) * (conj(z) @ u.T), n, vectorized=True
    )
    result = wg.classify(transform, wg.ClassifyConfig(seed=seed))
    assert result.branch == kind
    assert wg.align_global_phase(result.operator, u).aligned_residual < 1e-12
