"""Witness maps: each is refused by `classify` at the stage its code names.

The maps below preserve every modulus |<w|z>| but are not continuous where
Re z1 or z1 vanishes, so they lie outside the paper's smoothness
hypothesis (Bargmann's counterexamples). They pass the preservation
sample and must be refused later: the two-valued sign splits the origin
Jacobian between both blocks, and the phase of z1 survives today's
epsilon-ladder gauge as a Jacobian that is not unitary. Reading the gauge
phase in closed form off the origin Jacobian moves the second map to
mixed_branch as well.

The origin, orthogonality and reconstruction stages of the real chain
(`reconstruct_orthogonal`) each have a witness below: an orthogonal map
plus a small term that moves the origin, bends one basis image, or
oscillates on a scale of 1e-5 that only n = 1 brings within reach of the
reconstruction points. `classify`'s origin stage has one too. Its
constancy stage is reached only through a `tol_unitary` far below the
default; its reconstruction stage has no witness: no generated map
misses reconstruction at tol_unitary = 1e-13 or 1e-14 since the gauge
probes at eps = 1e-6. The gauge self-check's witness is the hash-phase
map of `oracles`, a true symmetry whose phase is continuous nowhere; the
check measures a phase, so it refuses the map as mixed_branch.
"""

import re

import numpy as np
import pytest

import wigner as wg
from wigner.errors import (
    MixedBranch,
    NotOrthogonal,
    OriginNotFixed,
    ReconstructionMismatch,
    WignerError,
)
from wigner.generators import transformation_from_entry
from wigner.mazurulam import RealTransformation

from oracles import hash_phase_symmetry

WITNESSES = {
    "mixed_branch": lambda u: lambda z: np.copysign(1.0, z[..., :1].real) * (z @ u.T),
    "not_unitary": lambda u: lambda z: np.exp(1j * np.angle(z[..., :1])) * (z @ u.T),
}


@pytest.mark.parametrize("code", WITNESSES)
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [2, 4, 8])
def test_witness_is_refused_by_its_stage(n, seed, code):
    transform = wg.Transformation(WITNESSES[code](wg.haar_unitary(n, seed)), n, vectorized=True)
    with pytest.raises(WignerError) as refused:
        wg.classify(transform, wg.ClassifyConfig(seed=seed))
    assert refused.value.code == code


@pytest.mark.parametrize("kind", ["linear", "antilinear"])
@pytest.mark.parametrize("n", [2, 4, 8])
def test_hash_phase_is_refused_by_the_gauge_self_check(n, kind):
    # every modulus is preserved, so the map passes the preservation sample;
    # gauge fixing cannot cancel a phase that is continuous nowhere
    transform = hash_phase_symmetry(kind, wg.haar_unitary(n, 0))
    assert wg.check_preservation(transform, 50, 0, wg.gauge.PRESERVE_TOL).passed
    detail = r"^residual origin phase \S+ after gauge fixing$"
    with pytest.raises(MixedBranch, match=detail) as refused:
        wg.classify(transform)
    assert refused.value.exit_code == 2


def assert_detail(exc, what: str, tol: float, low: float, high: float) -> None:
    """The detail reads "<what> <value> exceeds <tol>", with low < value < high."""
    match = re.fullmatch(re.escape(what) + r" (\S+) exceeds " + re.escape(f"{tol:g}"), str(exc))
    assert match, str(exc)
    assert low < float(match[1]) < high, str(exc)


def orthogonal_plus(n: int, term):
    """u -> O u + term(u) e1, with O = haar_orthogonal(n, 3), as a real map;
    term maps an (m, n) batch to an (m, 1) column."""
    o = wg.haar_orthogonal(n, 3)
    e1 = np.eye(n)[0]
    return o, RealTransformation(lambda u: u @ o.T + term(u) * e1, n, vectorized=True)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_moved_origin_is_refused_at_the_origin_stage(n):
    # A constant offset 2e-9 e1 fails both samplers at radius 1e2 (deviation
    # about 1e-7), so each witness confines it to a ball of radius about
    # 1e-3: past radius 1e-2, the smallest a random pair reaches, it is below
    # 2e-9 * exp(-100). The zero pairs alone see it, by 2e-9 |(Oa)_1| or
    # 2e-9 |(Ua)_1| for the anchor a.
    e1 = np.eye(n)[0]
    offset = lambda z: 2e-9 * np.exp(-(np.abs(z) ** 2).sum(axis=-1, keepdims=True) / 1e-6) * e1
    o = wg.haar_orthogonal(n, 3)
    real = RealTransformation(lambda u: u @ o.T + offset(u), n, vectorized=True)
    assert wg.check_isometry(real, 100, 0, 1e-8).passed
    with pytest.raises(OriginNotFixed) as refused:
        wg.reconstruct_orthogonal(real)
    assert str(refused.value) == "|T(0)| = 2e-09 exceeds 1e-09"

    u = wg.haar_unitary(n, 3)
    moved = wg.Transformation(lambda z: z @ u.T + offset(z), n, vectorized=True)
    assert wg.check_preservation(moved, 50, 0, wg.gauge.PRESERVE_TOL).passed
    with pytest.raises(OriginNotFixed) as refused:
        wg.classify(moved)
    assert str(refused.value) == "|T(0)| = 2e-09 exceeds 1e-09"


# within 1e-10 of O everywhere, on a scale of 1e-5 along u1
RIPPLE = lambda u: 1e-10 * np.sin(np.pi * u[..., :1] / 2e-5)
BUMP = lambda u: 1e-10 * np.sin(np.pi * u[..., :1] / 4e-5) ** 2


@pytest.mark.parametrize("term, low, high", [(RIPPLE, 4.2e-8, 4.4e-8), (BUMP, 2.4e-8, 2.5e-8)])
def test_fine_ripple_at_n1_is_refused_at_reconstruction(term, low, high):
    # |T(v) - O v| / |v| reaches 1e-10 / |v|, past 1e-8 on the points with
    # |v| below 1e-2 that 50 draws on the line give
    _, ripple = orthogonal_plus(1, term)
    assert wg.check_isometry(ripple, 100, 0, 1e-8).passed
    with pytest.raises(ReconstructionMismatch) as refused:
        wg.reconstruct_orthogonal(ripple)
    assert_detail(refused.value, "relative reconstruction miss", 1e-8, low, high)


@pytest.mark.parametrize("term", [RIPPLE, BUMP])
@pytest.mark.parametrize("n", [2, 4])
def test_fine_ripple_is_accepted_with_the_exact_matrix_above_n1(n, term):
    # the basis images lie where the term vanishes, and no reconstruction
    # point comes near enough to the origin to see 1e-10 as a relative 1e-8
    o, ripple = orthogonal_plus(n, term)
    assert (wg.reconstruct_orthogonal(ripple).matrix == o).all()


@pytest.mark.parametrize("n, low, high", [(2, 9.7e-7, 9.9e-7), (4, 8.9e-7, 9e-7), (8, 8.2e-7, 8.3e-7)])
def test_bent_basis_image_is_refused_at_the_orthogonality_stage(n, low, high):
    # a bump of height 1e-6 and width 1e-3 at e2 moves T(e2) by 1e-6 e1;
    # no sampled pair comes within its width
    e2 = np.eye(n)[1]
    _, bent = orthogonal_plus(
        n, lambda u: 1e-6 * np.exp(-((u - e2) ** 2).sum(axis=-1, keepdims=True) / 1e-6)
    )
    assert wg.check_isometry(bent, 100, 0, 1e-8).passed
    with pytest.raises(NotOrthogonal) as refused:
        wg.reconstruct_orthogonal(bent)
    assert_detail(refused.value, "|O^T O - I| =", 1e-8, low, high)


@pytest.mark.parametrize(
    "entry, low, high",
    [
        ({"kind": "linear", "n": 8, "seed": 5, "dressing_degree": 3}, 6.2e-11, 6.3e-11),
        ({"kind": "linear", "n": 3, "seed": 1}, 6e-12, 7e-12),
    ],
)
def test_classify_reaches_constancy_at_a_tight_tolerance(entry, low, high):
    # constancy allows 10 * tol_unitary
    with pytest.raises(ReconstructionMismatch) as refused:
        wg.classify(transformation_from_entry(entry), wg.ClassifyConfig(tol_unitary=1e-13))
    assert_detail(refused.value, "off-origin Jacobian drift", 1e-12, low, high)
