import numpy as np
import pytest

import wigner as wg
from wigner.errors import NotIsometry, NotOrthogonal, NotRealMap


def rotation(angle):
    c, s = np.cos(angle), np.sin(angle)
    matrix = np.array([[c, -s], [s, c]])
    return wg.RealTransformation(lambda u: matrix @ u, 2), matrix


def test_rotation_is_isometry():
    transform, _ = rotation(np.pi / 4)
    report = wg.check_isometry(transform, num_pairs=100, seed=0, tol=1e-12)
    assert report.passed
    assert report.max_deviation < 1e-12


def test_translation_fails():
    shift = np.array([0.3, -0.7])
    transform = wg.RealTransformation(lambda u: u + shift, 2)
    report = wg.check_isometry(transform, num_pairs=50, seed=1, tol=1e-8)
    assert not report.passed
    with pytest.raises(NotIsometry):
        wg.reconstruct_orthogonal(transform)


def test_reflection_passes():
    matrix = np.diag([1.0, -1.0])
    transform = wg.RealTransformation(lambda u: matrix @ u, 2)
    assert wg.check_isometry(transform, 50, 2, 1e-12).passed


def test_scaling_rejected():
    transform = wg.RealTransformation(lambda u: 2.0 * u, 3)
    with pytest.raises(NotIsometry):
        wg.reconstruct_orthogonal(transform)


def test_rotation_matrix_recovered():
    transform, matrix = rotation(np.pi / 4)
    recovered = wg.reconstruct_orthogonal(transform, tol=1e-9).matrix
    expected = np.array(
        [[np.sqrt(2) / 2, -np.sqrt(2) / 2], [np.sqrt(2) / 2, np.sqrt(2) / 2]]
    )
    assert np.abs(recovered - expected).max() < 1e-9
    assert np.abs(recovered - matrix).max() < 1e-9


def test_identity_recovered():
    transform = wg.RealTransformation(lambda u: u, 3)
    assert np.abs(wg.reconstruct_orthogonal(transform).matrix - np.eye(3)).max() < 1e-10


def test_random_orthogonal_recovered():
    q = wg.haar_orthogonal(6, 7)
    transform = wg.RealTransformation(lambda u: q @ u, 6)
    recovered = wg.reconstruct_orthogonal(transform, tol=1e-9).matrix
    assert np.abs(recovered - q).max() < 1e-9


def test_jacobian_constant_across_points():
    # no scalar freedom in the real case: entrywise agreement at 3 points
    q = wg.haar_orthogonal(4, 11)
    transform = wg.RealTransformation(lambda u: q @ u, 4)
    rng = np.random.default_rng(3)
    jacs = [
        wg.real_jacobian(transform, rng.standard_normal(4), 1e-5) for _ in range(3)
    ]
    for jac in jacs[1:]:
        assert np.abs(jac - jacs[0]).max() < 1e-8


def test_expansion_identity():
    # linearity measured directly: T(sum (e.v) e) = sum (e.v) T(e)
    q = wg.haar_orthogonal(5, 13)
    transform = wg.RealTransformation(lambda u: q @ u, 5)
    wg.reconstruct_orthogonal(transform)
    rng = np.random.default_rng(5)
    basis = np.eye(5)
    for _ in range(10):
        v = rng.standard_normal(5)
        expanded = sum(float(basis[k] @ v) * transform(basis[k]) for k in range(5))
        assert np.abs(transform(v) - expanded).max() < 1e-10


def test_norm_preservation():
    q = wg.haar_orthogonal(4, 17)
    recovered = wg.reconstruct_orthogonal(
        wg.RealTransformation(lambda u: q @ u, 4)
    ).matrix
    rng = np.random.default_rng(7)
    for _ in range(20):
        v = rng.standard_normal(4)
        assert abs(np.linalg.norm(recovered @ v) - np.linalg.norm(v)) < 1e-10


def test_near_orthogonal_but_not_quite():
    # passes a loose isometry tolerance but fails the orthogonality gate
    q = wg.haar_orthogonal(3, 19) * (1.0 + 2e-5)
    transform = wg.RealTransformation(lambda u: q @ u, 3)
    with pytest.raises((NotIsometry, NotOrthogonal)):
        wg.reconstruct_orthogonal(transform, tol=1e-8)


def test_complex_values_are_not_a_real_map():
    o = wg.haar_orthogonal(3, 7)
    transform = wg.RealTransformation(lambda u: u @ o.T + 1e-3j * u, 3, vectorized=True)
    with pytest.raises(NotRealMap):
        wg.reconstruct_orthogonal(transform)
    # below REAL_TOL the imaginary part is roundoff, and the map is O
    transform = wg.RealTransformation(lambda u: u @ o.T + 1e-13j * u, 3, vectorized=True)
    assert np.abs(wg.reconstruct_orthogonal(transform).matrix - o).max() < 1e-9
    with pytest.raises(NotRealMap):
        transform(np.array([1.0, 1j, 0.0]))
