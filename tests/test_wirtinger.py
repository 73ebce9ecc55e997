from pathlib import Path

import numpy as np
import pytest

import wigner as wg
from wigner import dsl
from wigner.errors import DimensionMismatch, NonFiniteEvaluation, SchemaError
from wigner.generators import SYMMETRY_KINDS

from oracles import reference_wirtinger_jacobian

CORPUS = Path(__file__).parent / "corpus"


def identity(n=3):
    return wg.Transformation(lambda z: z, n)


def conjugation(n=3):
    return wg.Transformation(lambda z: np.conj(z), n)


def test_identity_jacobian():
    at = wg.random_state(3, np.random.default_rng(0))
    jac = wg.wirtinger_jacobian(identity(), at, 1e-5)
    assert np.abs(jac.d_z - np.eye(3)).max() < 1e-9
    assert jac.d_zbar_norm < 1e-9


def test_conjugation_jacobian():
    at = wg.random_state(3, np.random.default_rng(1))
    jac = wg.wirtinger_jacobian(conjugation(), at, 1e-5)
    assert jac.d_z_norm < 1e-9
    assert np.abs(jac.d_zbar - np.eye(3)).max() < 1e-9


def test_componentwise_square():
    # d/dz of (z1^2, z2) at (1, 0) is diag(2, 1); no zbar dependence
    transform = wg.Transformation(lambda z: np.array([z[0] ** 2, z[1]]), 2)
    jac = wg.wirtinger_jacobian(transform, np.array([1.0 + 0j, 0.0 + 0j]), 1e-5)
    assert np.abs(jac.d_z - np.diag([2.0, 1.0])).max() < 1e-8
    assert jac.d_zbar_norm < 1e-8


def test_analyticity_unitary_map():
    u = wg.haar_unitary(3, 5)
    transform = wg.Transformation(lambda z: u @ z, 3)
    rng = np.random.default_rng(7)
    points = [wg.random_state(3, rng) for _ in range(20)]
    report = wg.analyticity_test(transform, points, tol=1e-6)
    assert report.analytic
    assert all(report.per_point)


def test_analyticity_conjugation_fails():
    report = wg.analyticity_test(
        conjugation(), [wg.random_state(3, np.random.default_rng(2))], tol=1e-6
    )
    assert not report.analytic
    assert abs(report.residuals[0] - 1.0) < 1e-9


def test_analyticity_phase_dressed_residual():
    # T(z) = exp(i Re z1) z: the zbar_1 derivative of T1 at (1, 0) is
    # (i/2) e^{i Re z1} z1, modulus 1/2
    transform = wg.Transformation(
        lambda z: np.exp(1j * z[0].real) * z, 2
    )
    report = wg.analyticity_test(
        transform, [np.array([1.0 + 0j, 0.0 + 0j])], tol=1e-6
    )
    assert not report.analytic
    assert abs(report.residuals[0] - 0.5) < 1e-6


def test_richardson_identity_exact():
    jac = wg.richardson_refine(identity(), np.zeros(3), 1e-3, 2)
    assert np.abs(jac.d_z - np.eye(3)).max() < 1e-12
    assert jac.d_zbar_norm < 1e-12


def test_richardson_sine():
    transform = wg.Transformation(lambda z: np.array([np.sin(z[0]), z[1]]), 2)
    jac = wg.richardson_refine(transform, np.array([0.3 + 0j, 0.0 + 0j]), 1e-3, 2)
    assert abs(jac.d_z[0, 0] - np.cos(0.3)) < 1e-10


def test_richardson_conjugation_exact():
    jac = wg.richardson_refine(conjugation(), np.zeros(3), 1e-3, 1)
    assert np.abs(jac.d_zbar - np.eye(3)).max() < 1e-12
    assert jac.d_z_norm < 1e-12


def test_richardson_levels_validated():
    with pytest.raises(SchemaError):
        wg.richardson_refine(identity(), np.zeros(3), 1e-3, -1)
    with pytest.raises(SchemaError):
        wg.richardson_refine(identity(), np.zeros(3), 1e-3, 5)


@pytest.mark.parametrize("n", [1, 3, 8])
def test_each_rung_of_the_ladder_is_the_plain_jacobian_bit_for_bit(n):
    dressing = wg.DressingSpec.random(n, 2, 7)
    transform = wg.make_symmetry("linear", wg.haar_unitary(n, 7), dressing)
    at = wg.random_state(n, np.random.default_rng(n))
    rungs = wg.wirtinger.ladder(transform, at, 1e-3, 4)
    assert rungs.shape == (4, 2, n, n)
    for k, rung in enumerate(rungs):
        plain = wg.wirtinger_jacobian(transform, at, 1e-3 / 2**k)
        assert rung.tobytes() == np.array([plain.d_z, plain.d_zbar]).tobytes()


@pytest.mark.parametrize("n", [1, 3, 8])
def test_richardson_level_0_is_the_plain_jacobian_bit_for_bit(n):
    dressing = wg.DressingSpec.random(n, 3, 5)
    transform = wg.make_symmetry("antilinear", wg.haar_unitary(n, 5), dressing)
    at = wg.random_state(n, np.random.default_rng(n))
    plain = wg.wirtinger_jacobian(transform, at, 1e-4)
    level0 = wg.richardson_refine(transform, at, 1e-4, 0)
    for got, want in ((level0.d_z, plain.d_z), (level0.d_zbar, plain.d_zbar), (level0.at, plain.at)):
        assert got.tobytes() == want.tobytes()


def test_step_must_be_positive():
    with pytest.raises(SchemaError):
        wg.wirtinger_jacobian(identity(), np.zeros(3), 0.0)


def test_nonfinite_probe_detected():
    def bad(z):
        out = z.copy()
        out[0] = np.nan
        return out

    with pytest.raises(NonFiniteEvaluation):
        wg.wirtinger_jacobian(wg.Transformation(bad, 2), np.zeros(2))
    # finite images whose difference overflows: analytic, with d_z past every float
    huge = dsl.compile_to_transformation(dsl.parse("dim 1; T1 = 1e300 * (1.5e13 * z1);"))
    assert np.isfinite(huge(np.array([1e-5]))).all()
    with pytest.raises(NonFiniteEvaluation):
        wg.wirtinger_jacobian(huge, np.zeros(1))


def test_dimension_change_detected():
    with pytest.raises(DimensionMismatch):
        wg.wirtinger_jacobian(
            wg.Transformation(lambda z: z[:1], 2), np.zeros(2)
        )


def _cubic_map():
    # nonzero third derivatives in both blocks
    def f(z):
        return np.array([z[0] ** 3 + np.conj(z[1]) ** 2, np.conj(z[0]) ** 3 + z[1] ** 2])

    return wg.Transformation(f, 2)


def _exact_cubic_jacobian(z):
    d_z = np.array([[3 * z[0] ** 2, 0], [0, 2 * z[1]]])
    d_zbar = np.array(
        [[0, 2 * np.conj(z[1])], [3 * np.conj(z[0]) ** 2, 0]]
    )
    return d_z, d_zbar


def test_directional_derivative_consistency():
    # measured directional derivative along a real parameter equals
    # d_z delta + d_zbar conj(delta)
    rng = np.random.default_rng(11)
    transform = _cubic_map()
    step = 1e-4
    for _ in range(5):
        z = wg.random_state(2, rng)
        delta = wg.random_state(2, rng)
        jac = wg.wirtinger_jacobian(transform, z, step)
        measured = (transform(z + step * delta) - transform(z - step * delta)) / (
            2 * step
        )
        model = jac.d_z @ delta + jac.d_zbar @ np.conj(delta)
        # third-derivative bound estimated by sampling a third difference
        probe = (
            transform(z + 2 * step * delta)
            - 2 * transform(z + step * delta)
            + 2 * transform(z - step * delta)
            - transform(z - 2 * step * delta)
        )
        bound = max(float(np.abs(probe).max()) / (2 * step**3), 1.0)
        assert np.abs(measured - model).max() < 10 * step**2 * bound


def test_differentiation_is_linear():
    rng = np.random.default_rng(13)
    z = wg.random_state(2, rng)
    t1 = _cubic_map()
    t2 = wg.Transformation(lambda v: np.array([np.sin(v[0]), np.conj(v[1])]), 2)
    a, b = 0.7 - 0.2j, -1.1 + 0.4j
    combined = wg.Transformation(lambda v: a * t1(v) + b * t2(v), 2)
    j1 = wg.wirtinger_jacobian(t1, z)
    j2 = wg.wirtinger_jacobian(t2, z)
    jc = wg.wirtinger_jacobian(combined, z)
    assert np.abs(jc.d_z - (a * j1.d_z + b * j2.d_z)).max() < 1e-10
    assert np.abs(jc.d_zbar - (a * j1.d_zbar + b * j2.d_zbar)).max() < 1e-10


def test_conjugation_duality():
    rng = np.random.default_rng(17)
    z = wg.random_state(2, rng)
    t = _cubic_map()
    s = wg.Transformation(lambda v: np.conj(t(v)), 2)
    jt = wg.wirtinger_jacobian(t, z)
    js = wg.wirtinger_jacobian(s, z)
    assert np.abs(js.d_z - np.conj(jt.d_zbar)).max() < 1e-10
    assert np.abs(js.d_zbar - np.conj(jt.d_z)).max() < 1e-10


@pytest.mark.parametrize("step", [1e-2, 1e-3])
def test_step_halving_second_order(step):
    rng = np.random.default_rng(19)
    transform = _cubic_map()
    z = wg.random_state(2, rng)
    exact_z, exact_zbar = _exact_cubic_jacobian(z)

    def err(h):
        jac = wg.wirtinger_jacobian(transform, z, h)
        return max(
            float(np.abs(jac.d_z - exact_z).max()),
            float(np.abs(jac.d_zbar - exact_zbar).max()),
        )

    assert err(step) / err(step / 2) >= 3.5


def record_calls(transform):
    """Wrap the evaluator of `transform`; the list holds a copy of each argument."""
    calls = []
    inner = transform.evaluator

    def evaluator(z):
        calls.append(np.array(z))
        return inner(z)

    transform.evaluator = evaluator
    return calls


@pytest.mark.parametrize("n", [1, 2, 8, 64])
def test_wirtinger_jacobian_is_one_call_of_4n_points(n):
    u = wg.haar_unitary(n, n)
    transform = wg.make_symmetry("linear", u, wg.DressingSpec.random(n, 2, n))
    calls = record_calls(transform)
    at = wg.random_state(n, np.random.default_rng(n))
    wg.wirtinger_jacobian(transform, at)
    assert [c.shape for c in calls] == [(4 * n, n)]
    # the points of the two-call stencil, bit for bit and in their order
    reference_wirtinger_jacobian(transform, at, wg.wirtinger.DEFAULT_STEP)
    assert np.array_equal(calls[0], np.concatenate(calls[1:]))


@pytest.mark.parametrize("n", [1, 2, 8, 64])
def test_real_jacobian_is_one_call_of_2n_points(n):
    q = wg.haar_orthogonal(n, n)
    transform = wg.RealTransformation(lambda u: u @ q.T, n, vectorized=True)
    calls = record_calls(transform)
    jacobian = wg.real_jacobian(transform, np.random.default_rng(n).standard_normal(n))
    assert [c.shape for c in calls] == [(2 * n, n)]
    assert np.abs(jacobian - q).max() < 1e-9


def assert_matches_two_call_stencil(one_batch, two_calls, points, step=1e-5):
    """The one-batch Jacobian of `one_batch` against the two-call stencil of
    `two_calls` (the same map, or a copy whose state the first cannot share),
    within 1e-13 relative to the larger block."""
    for z in points:
        jac = wg.wirtinger_jacobian(one_batch, z, step)
        d_z, d_zbar = reference_wirtinger_jacobian(two_calls, z, step)
        scale = max(np.abs(d_z).max(), np.abs(d_zbar).max())
        assert np.abs(jac.d_z - d_z).max() <= 1e-13 * scale
        assert np.abs(jac.d_zbar - d_zbar).max() <= 1e-13 * scale


@pytest.mark.parametrize("n", [1, 2, 8, 64])
@pytest.mark.parametrize("kind", SYMMETRY_KINDS)
def test_one_batch_stencil_matches_two_calls_on_generated_maps(kind, n):
    transform = wg.make_symmetry(kind, wg.haar_unitary(n, n + 1), wg.DressingSpec.random(n, 3, n))
    points = [wg.zero_state(n), *wg.random_state(n, np.random.default_rng(n), (2,))]
    assert_matches_two_call_stencil(transform, transform, points)
    # the gauge-fixed map, as classify differentiates it: each stencil on its
    # own wrapper, so neither reads phases the other put in the memo
    assert_matches_two_call_stencil(wg.gauge_fix(transform), wg.gauge_fix(transform), points)


@pytest.mark.parametrize("spec", sorted(CORPUS.glob("*.wig")), ids=lambda p: p.stem)
def test_one_batch_stencil_matches_two_calls_on_corpus_specs(spec):
    constants = dsl.load_constants(CORPUS / "constants.json")
    transform = dsl.compile_to_transformation(dsl.parse(spec.read_text()), constants)
    points = wg.random_state(transform.dimension, np.random.default_rng(3), (3,))
    assert_matches_two_call_stencil(transform, transform, points)
