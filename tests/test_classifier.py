import numpy as np
import pytest

import wigner as wg
from wigner.classifier import _decide_branch, _require_unitary
from wigner.errors import (
    DimensionMismatch,
    MixedBranch,
    NotASymmetry,
    NotUnitary,
    ZeroReference,
)
from wigner.wirtinger import WirtingerJacobian


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
    parallel = next(r for r in report.records if r.label == "parallel")
    # |<2z|2z>| - |<z|z>| = 3 |z|^2
    assert abs(parallel.deviation - 3.0 * parallel.norm_z**2) < 1e-9


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


def test_decide_branch_mixed_raises():
    half = 0.5 * np.eye(2)
    jac = WirtingerJacobian(d_z=half, d_zbar=half, at=np.zeros(2), step=1e-5)
    with pytest.raises(MixedBranch):
        _decide_branch(jac, tol_branch=1e-4)
    tiny = 1e-9 * np.eye(2)
    jac = WirtingerJacobian(d_z=tiny, d_zbar=tiny, at=np.zeros(2), step=1e-5)
    with pytest.raises(MixedBranch):
        _decide_branch(jac, tol_branch=1e-4)


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
