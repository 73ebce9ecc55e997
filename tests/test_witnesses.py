"""Witness maps: each is refused by `classify` at the stage its code names.

The maps below preserve every modulus |<w|z>| but are not continuous where
Re z1 or z1 vanishes, so they lie outside the paper's smoothness
hypothesis (Bargmann's counterexamples). They pass the preservation
sample and must be refused later: the two-valued sign splits the origin
Jacobian between both blocks, and the phase of z1 survives today's
epsilon-ladder gauge as a Jacobian that is not unitary. Reading the gauge
phase in closed form off the origin Jacobian moves the second map to
mixed_branch as well. The reconstruction, constancy and self-check stages
have no witness yet.
"""

import numpy as np
import pytest

import wigner as wg
from wigner.errors import WignerError

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
