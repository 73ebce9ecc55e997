"""Invariance of the verdict under the symmetries of the problem.

A global phase changes no modulus |<Tw|Tz>|, so it changes no verdict, and
an accepted operator moves only by that phase. Composing a map on both
sides with Haar unitaries V and W keeps it a symmetry or a non-symmetry:
T(z) = M z becomes V M W z, and T(z) = M conj(z) becomes V M conj(W)
conj(z). Two antiunitaries compose to a unitary, U conj(V conj(z)) =
U conj(V) z.
"""

import cmath

import numpy as np
from hypothesis import given, settings, strategies as st

import wigner as wg
from wigner.errors import WignerError
from wigner.generators import ADVERSARY_KINDS, SYMMETRY_KINDS

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, database=None)
# operators read by finite differences of gauge-fixed maps: at most 1.5e-15
# from the expected one up to phase, over 200 examples of each property
OPERATOR_TOL = 1e-12

seeds = st.integers(0, 2**20)


def verdict(transform):
    """(branch, operator) of an accept, (error code, None) of a rejection."""
    try:
        result = wg.classify(transform)
    except WignerError as refused:
        return refused.code, None
    return result.branch, result.operator


def map_of(kind, n, seed, degree):
    if kind in ADVERSARY_KINDS:
        return wg.make_adversary(kind, n, seed)
    dressing = wg.DressingSpec.random(n, degree, seed + 1) if degree else None
    return wg.make_symmetry(kind, wg.haar_unitary(n, seed), dressing)


def assert_same_operator(operator, reference):
    assert wg.align_global_phase(operator, reference).aligned_residual < OPERATOR_TOL


@PROPERTY_SETTINGS
@given(
    kind=st.sampled_from(SYMMETRY_KINDS + ADVERSARY_KINDS),
    n=st.integers(2, 4),
    seed=seeds,
    degree=st.integers(0, 2),
    phase=st.floats(-np.pi, np.pi),
)
def test_verdict_is_invariant_under_a_global_phase_and_unitaries(kind, n, seed, degree, phase):
    transform = map_of(kind, n, seed, degree)
    branch, operator = verdict(transform)
    assert (branch in SYMMETRY_KINDS) == (kind in SYMMETRY_KINDS)

    factor = cmath.exp(1j * phase)
    rotated = wg.Transformation(lambda z: factor * transform(z), n, vectorized=True)
    rotated_branch, rotated_operator = verdict(rotated)
    assert rotated_branch == branch

    v, w = wg.haar_unitary(n, seed + 2), wg.haar_unitary(n, seed + 3)
    sandwiched = wg.Transformation(lambda z: transform(z @ w.T) @ v.T, n, vectorized=True)
    sandwiched_branch, sandwiched_operator = verdict(sandwiched)
    assert sandwiched_branch == branch

    if operator is not None:
        assert_same_operator(rotated_operator, operator)
        inner = w if branch == "linear" else w.conj()
        assert_same_operator(sandwiched_operator, v @ operator @ inner)


@PROPERTY_SETTINGS
@given(n=st.integers(2, 4), seed=seeds, degree=st.integers(0, 2))
def test_two_antiunitaries_compose_to_the_linear_branch(n, seed, degree):
    u, v = wg.haar_unitary(n, seed), wg.haar_unitary(n, seed + 1)
    outer = wg.make_symmetry("antilinear", u)
    dressing = wg.DressingSpec.random(n, degree, seed + 2) if degree else None
    inner = wg.make_symmetry("antilinear", v, dressing)
    composed = wg.Transformation(lambda z: outer(inner(z)), n, vectorized=True)
    branch, operator = verdict(composed)
    assert branch == "linear"
    assert_same_operator(operator, u @ v.conj())
