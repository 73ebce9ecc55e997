"""Real Euclidean analogue: scalar-product preservation and orthogonal
matrix reconstruction.

A differentiable map on R^n with T(u).T(v) = u.v for all pairs has a
Jacobian that is constant, invertible and orthogonal, so T is the linear
map given by its Jacobian at the origin. Unlike the complex case there is
no phase freedom: Jacobians at distinct points must agree entrywise.
"""

from dataclasses import dataclass

import numpy as np

from .classifier import PreservationReport, relative_miss, sample_pairs, unitarity_residual
from .errors import NotIsometry, NotOrthogonal, ReconstructionMismatch, require_settings
from .gauge import require_origin_fixed
from .states import Transformation
from .wirtinger import DEFAULT_STEP, real_jacobian


class RealTransformation(Transformation):
    """A deterministic map u -> T(u) on R^n: a `Transformation` whose
    `dtype` is float64, so points and images are real vectors."""

    dtype = np.float64


@dataclass
class OrthogonalReconstruction:
    """The recovered orthogonal matrix with the checks that accepted it."""

    matrix: np.ndarray
    orthogonality_residual: float  # max-norm of O^T O - I
    isometry: PreservationReport


def check_isometry(
    transform: RealTransformation,
    num_pairs: int = 100,
    seed: int = 0,
    tol: float = 1e-8,
) -> PreservationReport:
    """Max of |T(u).T(v) - u.v| over 3 specials, then 1..MAX_SAMPLES seeded
    pairs of Gaussian directions, scaled by `classifier.sample_pairs`."""
    require_settings({"num_pairs": num_pairs, "seed": seed, "tol": tol})
    n = transform.dimension
    rng = np.random.default_rng(seed)
    anchor = rng.standard_normal(n)
    zero = np.zeros(n)
    specials = np.array([(zero, zero), (zero, anchor), (anchor, anchor)])
    draw = lambda: rng.standard_normal((num_pairs, 2, n))
    product = lambda u, v: np.einsum("ij,ij->i", u, v)
    return sample_pairs(transform, ["zero", "zero", "parallel"], specials, draw, rng, product, tol)


def reconstruct_orthogonal(
    transform: RealTransformation,
    step: float = DEFAULT_STEP,
    tol: float = 1e-8,
    num_pairs: int = 100,
    seed: int = 0,
) -> OrthogonalReconstruction:
    """Recover the orthogonal matrix of a scalar-product-preserving map.

    The matrix is the central-difference Jacobian at the origin, verified
    three ways: O^T O = I within `tol`; |T(v) - O v| / |v| < tol at 50
    seeded points; Jacobians at two further points agree with O entrywise
    within `tol` (no scalar freedom in the real case). The isometry check
    runs first and its report is returned with the matrix.
    """
    require_settings({"step": step})
    report = check_isometry(transform, num_pairs=num_pairs, seed=seed, tol=tol)
    NotIsometry.unless_below(report.max_deviation, tol, "max scalar-product deviation", report)
    require_origin_fixed(transform)

    n = transform.dimension
    matrix = real_jacobian(transform, np.zeros(n), step)
    residual = NotOrthogonal.unless_below(unitarity_residual(matrix), tol, "|O^T O - I| =")

    rng = np.random.default_rng([seed, 1])
    points = rng.standard_normal((50, n))
    miss = relative_miss(transform, points, points @ matrix.T)
    ReconstructionMismatch.unless_below(miss, tol, "relative reconstruction miss")
    for v in rng.standard_normal((2, n)):
        drift = float(np.abs(real_jacobian(transform, v, step) - matrix).max())
        ReconstructionMismatch.unless_below(drift, tol, "off-origin Jacobian drift")
    return OrthogonalReconstruction(
        matrix=matrix, orthogonality_residual=residual, isometry=report
    )
