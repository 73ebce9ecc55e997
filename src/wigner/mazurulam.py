"""Real Euclidean analogue: scalar-product preservation and orthogonal
matrix reconstruction.

A differentiable map on R^n with T(u).T(v) = u.v for all pairs has a
Jacobian that is constant, invertible and orthogonal, so T is the linear
map given by its Jacobian at the origin. Unlike the complex case there is
no phase freedom: Jacobians at distinct points must agree entrywise.
"""

from dataclasses import dataclass

import numpy as np

from .classifier import PreservationReport, sample_pairs
from .errors import NotIsometry, NotOrthogonal, OriginNotFixed, ReconstructionMismatch
from .gauge import ORIGIN_TOL
from .states import Transformation
from .wirtinger import real_jacobian


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
    """Max of |T(u).T(v) - u.v| over seeded pairs (plus zero and parallel specials)."""
    if num_pairs < 1:
        raise ValueError("num_pairs must be at least 1")
    n = transform.dimension
    rng = np.random.default_rng(seed)
    anchor = rng.standard_normal(n)
    zero = np.zeros(n)
    pairs = [("zero", zero, zero), ("zero", zero, anchor), ("parallel", anchor, anchor)]
    pairs += [
        ("random", rng.standard_normal(n), rng.standard_normal(n))
        for _ in range(num_pairs)
    ]
    return sample_pairs(transform, pairs, lambda u, v: float(u @ v), tol)


def reconstruct_orthogonal(
    transform: RealTransformation,
    step: float = 1e-5,
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
    report = check_isometry(transform, num_pairs=num_pairs, seed=seed, tol=tol)
    if not report.passed:
        raise NotIsometry(
            f"max scalar-product deviation {report.max_deviation:.3g} "
            f"exceeds {tol:g}",
            report=report,
        )
    n = transform.dimension
    origin_norm = float(np.linalg.norm(transform(np.zeros(n))))
    if origin_norm > ORIGIN_TOL:
        raise OriginNotFixed(f"|T(0)| = {origin_norm:.3g} exceeds {ORIGIN_TOL:g}")

    matrix = real_jacobian(transform, np.zeros(n), step)
    residual = float(np.abs(matrix.T @ matrix - np.eye(n)).max())
    if residual >= tol:
        raise NotOrthogonal(f"|O^T O - I| = {residual:.3g} exceeds {tol:g}")

    rng = np.random.default_rng([seed, 1])
    points = rng.standard_normal((50, n))
    rec = float(
        (
            np.linalg.norm(transform(points) - points @ matrix.T, axis=1)
            / np.linalg.norm(points, axis=1)
        ).max()
    )
    if rec >= tol:
        raise ReconstructionMismatch(
            f"origin Jacobian misses the map by {rec:.3g} relative (tol {tol:g})"
        )
    for _ in range(2):
        v = rng.standard_normal(n)
        drift = float(np.abs(real_jacobian(transform, v, step) - matrix).max())
        if drift >= tol:
            raise ReconstructionMismatch(
                f"Jacobian is not constant: entrywise drift {drift:.3g} (tol {tol:g})"
            )
    return OrthogonalReconstruction(
        matrix=matrix, orthogonality_residual=residual, isometry=report
    )
