"""Numerical Wirtinger calculus for maps on C^n.

A map T is viewed as a function of the real coordinates x = Re z and
y = Im z. The complex derivative pair is assembled from central finite
differences in each real direction:

    d_z    = (d/dx - i d/dy) / 2
    d_zbar = (d/dx + i d/dy) / 2

Column nu of each matrix differentiates with respect to coordinate nu;
row nu is output component nu. A map is analytic at a point exactly when
its d_zbar block vanishes there, which is what `analyticity_test`
measures. Central differences are second order, so evaluators need to be
smooth enough for that (no attempt is made to handle weaker regularity,
and no one-sided stencils are provided).

Richardson refinement re-evaluates the stencil at halved steps and
cancels the leading truncation terms; each level raises the error order
by two for sufficiently smooth maps.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteEvaluation, SchemaError, require_settings
from .states import Transformation, as_state

DEFAULT_STEP = 1e-5


@dataclass
class WirtingerJacobian:
    """The pair (d_z T, d_zbar T) at a point, with the step that produced it."""

    d_z: np.ndarray
    d_zbar: np.ndarray
    at: np.ndarray
    step: float

    @property
    def dimension(self) -> int:
        return self.d_z.shape[0]

    @property
    def d_z_norm(self) -> float:
        """Max-norm of the d_z block."""
        return float(np.abs(self.d_z).max())

    @property
    def d_zbar_norm(self) -> float:
        """Max-norm of the d_zbar block."""
        return float(np.abs(self.d_zbar).max())


def _central_differences(transform, at: np.ndarray, step: float, units) -> np.ndarray:
    """Stack of matrices, one per axis unit u in `units`: column nu of each
    is (T(at + h e_nu) - T(at - h e_nu)) / (2 step) with h = u * step.

    Unit 1 differentiates along the real axes, unit i along the imaginary
    ones. Costs 2n evaluations per unit, all sent as one batch: the +h and
    -h offsets of the first unit, then those of the next. Finite images
    whose difference overflows raise NonFiniteEvaluation. The step must be
    a positive finite real, not in STEP_RANGE: Richardson rungs go below it.
    """
    require_settings({"stencil step": step})
    n = transform.dimension
    points = []
    for unit in units:
        offsets = unit * step * np.eye(n)
        points += [at + offsets, at - offsets]
    images = transform(np.concatenate(points)).reshape(len(units), 2, n, n)
    with np.errstate(over="ignore", invalid="ignore"):
        quotients = (images[:, 0] - images[:, 1]) / (2.0 * step)
    if not np.isfinite(quotients).all():
        raise NonFiniteEvaluation(f"central differences at step {step:g} overflow")
    return quotients.transpose(0, 2, 1)


def wirtinger_jacobian(
    transform: Transformation, at, step: float = DEFAULT_STEP
) -> WirtingerJacobian:
    """Both Wirtinger matrices of `transform` at `at` by central differences.

    Uses 4n evaluations, sent as one batch: +-step along each real axis and
    +-i*step along each imaginary axis. Entries are accurate to O(step^2)
    for thrice differentiable maps. Raises NonFiniteEvaluation if any probe returns
    NaN/Inf and DimensionMismatch if the evaluator changes dimension.
    """
    z = as_state(at, transform.dimension)
    df_dx, df_dy = _central_differences(transform, z, step, (1.0, 1j))
    # halved before the sum, which then stays below the largest float
    d_z, d_zbar = 0.5 * df_dx - 0.5j * df_dy, 0.5 * df_dx + 0.5j * df_dy
    return WirtingerJacobian(d_z=d_z, d_zbar=d_zbar, at=z, step=float(step))


def richardson_refine(
    transform: Transformation, at, base_step: float, levels: int
) -> WirtingerJacobian:
    """Richardson-extrapolated Jacobian pair.

    `levels` in 0..4; each level halves the step once more and cancels the
    next even-order truncation term (error order 2*(levels+1) for smooth
    maps), and level 0 is the plain Jacobian, bit for bit. Costs (levels+1)
    plain Jacobians. Finite Jacobians whose combination overflows raise
    NonFiniteEvaluation.
    """
    require_settings({"levels": levels, "stencil step": base_step})
    ladder = [
        wirtinger_jacobian(transform, at, base_step / 2.0**k)
        for k in range(levels + 1)
    ]
    pairs = [(j.d_z, j.d_zbar) for j in ladder]
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, levels + 1):
            weight = 4.0**m
            pairs = [
                tuple((weight * fine - coarse) / (weight - 1.0) for fine, coarse in zip(hi, lo))
                for lo, hi in zip(pairs[:-1], pairs[1:])
            ]
    d_z, d_zbar = pairs[0]
    if not (np.isfinite(d_z).all() and np.isfinite(d_zbar).all()):
        raise NonFiniteEvaluation(f"Richardson combination at step {base_step:g} overflows")
    return WirtingerJacobian(
        d_z=d_z, d_zbar=d_zbar, at=ladder[0].at, step=float(base_step)
    )


@dataclass
class AnalyticityReport:
    """Per-point analyticity verdicts plus the aggregate."""

    per_point: list[bool]
    residuals: list[float]
    tolerance: float

    @property
    def analytic(self) -> bool:
        return all(self.per_point)


def analyticity_test(
    transform: Transformation, points, tol: float, step: float = DEFAULT_STEP
) -> AnalyticityReport:
    """True at a point iff the max-norm of d_zbar there is below `tol`."""
    points = list(points)
    if not points:
        raise SchemaError("points must be non-empty")
    require_settings({"tol": tol})
    residuals = [
        wirtinger_jacobian(transform, p, step).d_zbar_norm for p in points
    ]
    return AnalyticityReport(
        per_point=[r < tol for r in residuals],
        residuals=residuals,
        tolerance=float(tol),
    )


def real_jacobian(transform, at, step: float = DEFAULT_STEP) -> np.ndarray:
    """Central-difference Jacobian of a real map: the x-half of the stencil.

    `transform` maps float64 vectors on R^n to float64 vectors, like a
    `RealTransformation`; shared by the real Euclidean analysis. Uses 2n
    evaluations, sent as one batch.
    """
    x = as_state(at, transform.dimension, np.float64)
    return _central_differences(transform, x, step, (1.0,))[0]
