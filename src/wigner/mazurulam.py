"""Real Euclidean analogue: scalar-product preservation and orthogonal
matrix reconstruction.

A map on R^n with T(u).T(v) = u.v for all pairs is linear: expanding
|T(u + v) - T(u) - T(v)|^2 and |T(c u) - c T(u)|^2 into scalar products
gives zero for both. So T is the matrix O = [T(e_1) ... T(e_n)] of its
basis images, and O is orthogonal. This is the linear core of Mazur-Ulam
(C. R. Acad. Sci. Paris 194, 946 (1932)) and needs no derivative. Unlike
the complex case there is no phase freedom: O is read off the images
themselves.
"""

from dataclasses import dataclass

import numpy as np

from .classifier import PreservationReport, relative_miss, sample_pairs, unitarity_residual
from .errors import NotIsometry, NotOrthogonal, ReconstructionMismatch, require_settings
from .gauge import require_origin_fixed
from .states import Transformation


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
    specials = np.zeros((3, 2, n))  # (0, 0), (0, anchor), (anchor, anchor)
    specials[1, 1] = specials[2] = anchor
    draw = lambda: rng.standard_normal((num_pairs, 2, n))
    product = lambda u, v: np.einsum("ij,ij->i", u, v)
    return sample_pairs(transform, ["zero", "zero", "parallel"], specials, draw, rng, product, tol)


def reconstruct_orthogonal(
    transform: RealTransformation,
    tol: float = 1e-8,
    num_pairs: int = 100,
    seed: int = 0,
) -> OrthogonalReconstruction:
    """Recover the orthogonal matrix of a scalar-product-preserving map.

    The isometry check runs first, then |T(0)| < ORIGIN_TOL. Column k of
    the matrix is T(e_k), verified two ways: O^T O = I within `tol`, and
    |T(v) - O v| / |v| < tol at 50 seeded points. The isometry report is
    returned with the matrix.
    """
    report = check_isometry(transform, num_pairs=num_pairs, seed=seed, tol=tol)
    NotIsometry.unless_below(report.max_deviation, tol, "max scalar-product deviation", report)
    require_origin_fixed(transform)

    n = transform.dimension
    matrix = transform(np.eye(n)).T
    residual = NotOrthogonal.unless_below(unitarity_residual(matrix), tol, "|O^T O - I| =")

    rng = np.random.default_rng([seed, 1])
    points = rng.standard_normal((50, n))
    miss = relative_miss(transform, points, points @ matrix.T)
    ReconstructionMismatch.unless_below(miss, tol, "relative reconstruction miss")
    return OrthogonalReconstruction(
        matrix=matrix, orthogonality_residual=residual, isometry=report
    )
