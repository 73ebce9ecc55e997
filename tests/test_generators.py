import numpy as np
import pytest

import wigner as wg
from wigner.errors import DimensionMismatch, NotUnitaryInput, SchemaError
from wigner.generators import (
    ADVERSARY_KINDS,
    default_manifest,
    transformation_from_entry,
    validate_manifest,
)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_haar_unitary_is_unitary(n):
    u = wg.haar_unitary(n, 3)
    assert np.abs(u.conj().T @ u - np.eye(n)).max() < 1e-12


def test_haar_unitary_n1_unimodular():
    u = wg.haar_unitary(1, 5)
    assert abs(abs(u[0, 0]) - 1.0) < 1e-12


def test_haar_unitary_seeds_differ():
    # statistical smoke test on fixed seeds; if a future numpy changes the
    # bit stream, pick two other seeds rather than loosening the bound
    a = wg.haar_unitary(4, 1)
    b = wg.haar_unitary(4, 2)
    assert np.abs(a - b).max() > 1e-3


def test_haar_unitary_deterministic():
    assert np.array_equal(wg.haar_unitary(5, 9), wg.haar_unitary(5, 9))


def test_haar_orthogonal():
    q = wg.haar_orthogonal(5, 7)
    assert np.abs(q.T @ q - np.eye(5)).max() < 1e-12
    assert q.dtype == np.float64


def test_dressing_deterministic_and_real():
    a = wg.DressingSpec.random(3, 3, 11)
    b = wg.DressingSpec.random(3, 3, 11)
    assert np.array_equal(a.directions, b.directions)
    assert np.array_equal(a.coefficients, b.coefficients)
    z = wg.random_state(3, np.random.default_rng(0))
    assert isinstance(a(z), float)
    assert a(z) == b(z)


def test_dressing_degree_cap():
    with pytest.raises(SchemaError):
        wg.DressingSpec.random(2, 5, 1)
    assert wg.DressingSpec.random(2, 0, 1).degree == 0


def test_make_symmetry_identity_and_conjugation():
    ident = wg.make_symmetry("linear", np.eye(3))
    conj = wg.make_symmetry("antilinear", np.eye(3))
    z = wg.random_state(3, np.random.default_rng(1))
    assert np.array_equal(ident(z), z)
    assert np.array_equal(conj(z), np.conj(z))
    assert ident.ground_truth["kind"] == "linear"


def test_make_symmetry_rejects_nonunitary():
    with pytest.raises(NotUnitaryInput):
        wg.make_symmetry("linear", 2.0 * np.eye(2))


def test_make_symmetry_rejects_a_nan_matrix():
    with pytest.raises(NotUnitaryInput) as refused:
        wg.make_symmetry("linear", [[np.nan]])
    assert (refused.value.exit_code, str(refused.value)) == (1, "|U*U - I| = nan exceeds 1e-10")


@pytest.mark.parametrize("fill, detail", [
    (np.inf, "|U*U - I| = nan exceeds 1e-10"),
    (1e200, "|U*U - I| = inf exceeds 1e-10"),  # U*U overflows
])
def test_make_symmetry_refuses_an_infinite_or_overflowing_matrix_unwarned(fill, detail):
    with pytest.raises(NotUnitaryInput) as refused:
        wg.make_symmetry("linear", np.full((2, 2), fill))
    assert (refused.value.exit_code, str(refused.value)) == (1, detail)


def test_dressed_symmetry_preserves_moduli():
    # Roundoff alone, proportional to |w||z|: each n-term overlap is off by
    # at most about (n + 2) u |w||z| (u = eps / 2, Cauchy-Schwarz on the
    # terms), and so is the overlap of the images, each of which carries a
    # relative error about (n + 2) u from U z and the unimodular phase. So
    # the deviation stays below 4 (n + 2) u |w||z| = 2 (n + 2) eps |w||z|.
    # Measured: at most 2.9 eps |w||z| over 10 dressings and 5 seeds at
    # n = 3; here 1.14e-12 at |w||z| up to 5.8e3.
    n = 3
    dressing = wg.DressingSpec.random(n, 2, 13)
    transform = wg.make_symmetry("linear", wg.haar_unitary(n, 5), dressing)
    report = wg.check_preservation(transform, 100, seed=3, tol=1e-9)
    assert report.passed
    norm_w, norm_z, _, deviation = report.columns.T
    assert (deviation <= 2 * (n + 2) * np.finfo(float).eps * norm_w * norm_z).all()


@pytest.mark.parametrize("kind", ADVERSARY_KINDS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_adversaries_are_rejected_with_definite_errors(kind, seed):
    transform = wg.make_adversary(kind, 3, seed)
    with pytest.raises(wg.errors.WignerError):
        wg.classify(transform)


def test_rank_deficient_fails_on_mixed_pair():
    # orthogonal basis pair stays orthogonal, but (e1 + e2, e2) breaks
    transform = wg.make_adversary("rank_deficient", 2, 0)
    e1, e2 = np.eye(2, dtype=complex)
    assert abs(np.vdot(transform(e1), transform(e2))) == 0.0
    lhs = abs(np.vdot(transform(e1 + e2), transform(e2)))
    rhs = abs(np.vdot(e1 + e2, e2))
    assert abs(lhs - rhs) == 1.0


def test_shear_matrix_is_far_from_unitary():
    shear = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert np.abs(shear.T @ shear - np.eye(2)).max() > 0.5
    transform = wg.make_adversary("shear", 2, 0)
    report = wg.check_preservation(transform, 50, seed=0, tol=1e-8)
    assert not report.passed


def test_adversaries_are_the_documented_maps():
    z = np.array([0.3 + 0.4j, -0.5 + 0.2j])
    assert np.array_equal(wg.make_adversary("scaling", 2, 0)(z), 2 * z)
    warped = z * (1 + np.sum(z.real**2 + z.imag**2))
    assert np.abs(wg.make_adversary("norm_warp", 2, 0)(z) - warped).max() < 1e-15
    assert np.array_equal(wg.make_adversary("rank_deficient", 2, 0)(z), [z[0], 0])
    for seed in range(5):  # z -> (z1 + s z2, z2) with the strength s in [0.5, 1.5)
        strength = wg.make_adversary("shear", 2, seed)(np.array([0, 1 + 0j]))[0]
        assert 0.5 <= strength.real < 1.5 and strength.imag == 0


def test_adversary_dimension_preconditions():
    with pytest.raises(DimensionMismatch):
        wg.make_adversary("shear", 1, 0)
    with pytest.raises(DimensionMismatch):
        wg.make_adversary("rank_deficient", 1, 0)
    wg.make_adversary("scaling", 1, 0)


def test_default_manifest_shape():
    entries = validate_manifest(default_manifest())
    symmetries = [e for e in entries if e["kind"] in ("linear", "antilinear")]
    adversaries = [e for e in entries if e["kind"] in ADVERSARY_KINDS]
    assert len(symmetries) == 40
    assert len(adversaries) == 10
    assert all(2 <= e["n"] <= 8 for e in entries)
    seeds = [(e["kind"], e["n"], e["seed"]) for e in entries]
    assert len(set(seeds)) == len(seeds)
    assert [e["kind"] for e in symmetries] == ["linear"] * 20 + ["antilinear"] * 20
    assert [e["seed"] for e in entries] == [*range(9000, 9040), *range(77000, 77010)]


def test_validate_manifest_errors():
    with pytest.raises(SchemaError):
        validate_manifest([])
    with pytest.raises(SchemaError):
        validate_manifest("nope")
    with pytest.raises(SchemaError):
        validate_manifest([{"kind": "linear", "n": 0, "seed": 1}])
    with pytest.raises(SchemaError):
        validate_manifest([{"kind": "mystery", "n": 2, "seed": 1}])
    with pytest.raises(SchemaError):
        validate_manifest([{"kind": "shear", "n": 1, "seed": 1}])
    with pytest.raises(SchemaError):
        validate_manifest([{"kind": "linear", "n": 2, "seed": 1, "dressing_degree": 9}])


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"kind": "linear", "n": 65, "seed": 1}, "n = 65 exceeds the dimension cap 64"),
        ({"kind": "scaling", "n": 65, "seed": 1}, "n = 65 exceeds the dimension cap 64"),
        ({"kind": "linear", "n": True, "seed": 1}, "n must be an integer, got bool"),
        ({"kind": "linear", "n": 2, "seed": True}, "seed must be an integer, got bool"),
        ({"kind": "shear", "n": 2, "seed": -1}, "seed must be non-negative"),
        (
            {"kind": "linear", "n": 2, "seed": 1, "dressing_degree": True},
            "dressing_degree must be an integer, got bool",
        ),
        ({"kind": "linear", "n": 0, "seed": 1}, "n must be at least 1"),
        (
            {"kind": "linear", "n": 2, "seed": 1, "dressing_degree": 5},
            "dressing_degree must be in 0..4",
        ),
        (
            {"kind": "scaling", "n": 2, "seed": 1, "dressing_degree": "x"},
            "dressing_degree must be an integer, got str",
        ),
        (
            {"kind": "linear", "n": 3, "seed": 1, "dressing-degree": 3},
            "unknown key 'dressing-degree'",
        ),
        ({"kind": "mystery", "n": 0, "zeta": 1, "alpha": 2}, "unknown key 'alpha'"),
    ],
)
def test_validate_manifest_refuses_values_no_map_can_take(entry, message):
    with pytest.raises(SchemaError) as refused:
        validate_manifest([{"kind": "linear", "n": 2, "seed": 0}, entry])
    assert str(refused.value) == f"entry 1: {message}"


def test_validate_manifest_accepts_the_dimension_cap():
    entry = {"kind": "scaling", "n": 64, "seed": 0}
    assert validate_manifest([entry]) == [{**entry, "dressing_degree": 0}]


def test_make_symmetry_takes_only_a_dressing_spec():
    with pytest.raises(SchemaError, match="DressingSpec or None"):
        wg.make_symmetry("linear", np.eye(2), lambda z: 0.0)
    assert wg.make_symmetry("linear", np.eye(2)).vectorized
    assert wg.make_symmetry("linear", np.eye(2), wg.DressingSpec.random(2, 1, 3)).vectorized


@pytest.mark.parametrize(
    "matrix, error, message",
    [
        (np.zeros((0, 0)), DimensionMismatch, "matrix must be square and non-empty, got shape (0, 0)"),
        (np.ones((2, 3)), DimensionMismatch, "matrix must be square and non-empty, got shape (2, 3)"),
        ("ab", SchemaError, "matrix must be numeric, got str"),
        ([[1, "a"], [0, 1]], SchemaError, "matrix must be numeric, got list"),
    ],
)
def test_make_symmetry_refuses_a_malformed_matrix_with_a_typed_error(matrix, error, message):
    with pytest.raises(error) as refused:
        wg.make_symmetry("linear", matrix)
    assert str(refused.value) == message


def test_transformation_from_entry_round_trip():
    entry = {"kind": "antilinear", "n": 3, "seed": 21, "dressing_degree": 2}
    transform = transformation_from_entry(validate_manifest([entry])[0])
    result = wg.classify(transform)
    assert result.branch == "antilinear"
    truth = transform.ground_truth["matrix"]
    assert wg.align_global_phase(result.operator, truth).aligned_residual < 1e-6
