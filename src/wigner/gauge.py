"""Phase extraction and gauge fixing for modulus-preserving maps.

For a map T that preserves |<w|z>| there is a real phase function theta
relating transformed and original overlaps. Reading it off a pair:

    branch A:  <Tw|Tz> = exp(i*theta) <w|z>
    branch B:  <Tz|Tw> = exp(-i*theta) <w|z>

Both readings are arguments of mutually conjugate numbers once the
overlap is factored out, so theta_B = -theta_A identically; the branch
tag on a sample is a label, not a verdict (the classifier decides the
branch from Jacobian blocks after gauge fixing).

Gauge fixing multiplies T by a unimodular factor exp(i*alpha(z)) chosen
so the residual phase against the origin vanishes: alpha(z) is minus the
limit of theta(eps*z, z) as eps -> 0. Probing along w = eps*z keeps the
overlap eps*|z|^2 real positive and never degenerate, and makes the same
probe formula valid on both branches. The limit is taken numerically by
second-order Richardson extrapolation over (eps, eps/2, eps/4), leaving
an O(eps^3) residual. Probed phases are memoized per point behind a lock
so repeated evaluation is deterministic and cheap.

All angles live in (-pi, pi]; comparisons are wrap-aware.
"""

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneratePair, NotProbabilityPreserving, OriginNotFixed
from .states import Transformation, as_state, random_state, zero_state

PROBE_SCALE = 1e-4
DEGENERATE_TOL = 1e-8
PRESERVE_TOL = 1e-8
# gauge_fix's origin check and its post-hoc self-check on the residual phase
ORIGIN_TOL = 1e-9
REFERENCE_SAMPLES = 8
RESIDUAL_PHASE_TOL = 1e-6

_TWO_PI = 2.0 * math.pi


def wrap_angle(theta: float) -> float:
    """Reduce an angle to (-pi, pi] (pi maps to pi, -pi maps to pi)."""
    return math.pi - (math.pi - theta) % _TWO_PI


def angle_distance(a: float, b: float) -> float:
    """Wrap-aware distance between two angles."""
    return abs(wrap_angle(a - b))


@dataclass(frozen=True)
class PhaseSample:
    """A measured theta(w, w*, z, z*) with the branch reading that produced it."""

    w: np.ndarray = field(compare=False)
    z: np.ndarray = field(compare=False)
    theta: float = 0.0
    branch: str = "A"
    overlap_modulus: float = 0.0


def _theta_from(numerator: complex, overlap: complex, preserve_tol: float) -> float:
    ratio = numerator / overlap
    if abs(abs(ratio) - 1.0) > preserve_tol:
        raise NotProbabilityPreserving(
            f"|<Tw|Tz>| / |<w|z>| = {abs(ratio):.6g}, expected 1 within {preserve_tol:g}"
        )
    return wrap_angle(math.atan2(ratio.imag, ratio.real))


def extract_theta(
    transform: Transformation, w, z, branch: str = "A", preserve_tol: float = PRESERVE_TOL
) -> PhaseSample:
    """Measure the relative phase of a non-orthogonal pair under `transform`.

    Raises DegeneratePair when |<w|z>| <= DEGENERATE_TOL * |w| * |z| (the
    phase of a vanishing overlap is meaningless) and
    NotProbabilityPreserving when the overlap modulus is not preserved.
    """
    w = as_state(w, transform.dimension)
    z = as_state(z, transform.dimension)
    overlap = complex(np.vdot(w, z))
    bound = DEGENERATE_TOL * float(np.linalg.norm(w)) * float(np.linalg.norm(z))
    if abs(overlap) <= bound or overlap == 0:
        raise DegeneratePair(
            f"|<w|z>| = {abs(overlap):.3g} at or below threshold {bound:.3g}"
        )
    tw, tz = transform(np.stack([w, z]))
    if branch == "A":
        theta = _theta_from(complex(np.vdot(tw, tz)), overlap, preserve_tol)
    elif branch == "B":
        theta = _theta_from(
            complex(np.vdot(tz, tw)), complex(np.vdot(z, w)), preserve_tol
        )
    else:
        raise ValueError(f"branch must be 'A' or 'B', got {branch!r}")
    return PhaseSample(
        w=w, z=z, theta=theta, branch=branch, overlap_modulus=abs(overlap)
    )


def origin_phase(transform: Transformation, z, preserve_tol: float = PRESERVE_TOL) -> float:
    """Estimate theta(0, 0, z, z*) as the limit of theta(eps*z, z).

    Probes at eps = PROBE_SCALE, eps/2 and eps/4 and extrapolates to
    eps = 0 with a second-order Richardson combination, computed on wrapped
    increments so branch-cut crossings cannot corrupt it. The point and its
    three probes are evaluated as one batch; at z = 0 nothing is evaluated.
    """
    z = as_state(z, transform.dimension)
    denom_base = float(np.vdot(z, z).real)  # eps * |z|^2 is the probe overlap
    if denom_base == 0.0:
        return 0.0
    scales = (PROBE_SCALE, PROBE_SCALE / 2.0, PROBE_SCALE / 4.0)
    tz, *probes = transform(np.array((1.0,) + scales)[:, None] * z)
    thetas = [
        _theta_from(complex(np.vdot(tw, tz)), eps * denom_base, preserve_tol)
        for eps, tw in zip(scales, probes)
    ]
    d1 = wrap_angle(thetas[1] - thetas[0])
    d2 = wrap_angle(thetas[2] - thetas[1])
    return wrap_angle(thetas[0] + (2.0 * d1 + 8.0 * d2) / 3.0)


@dataclass
class GaugeFixedTransformation(Transformation):
    """A transformation multiplied by exp(i*alpha(z)) so its origin phase vanishes."""

    base: Transformation | None = None


def gauge_fix(
    transform: Transformation, preserve_tol: float = PRESERVE_TOL, seed: int = 0
) -> GaugeFixedTransformation:
    """Wrap `transform` with the phase gauge that cancels theta(0, 0, z, z*).

    Requires T(0) = 0 within ORIGIN_TOL (raises OriginNotFixed otherwise;
    a map that moves the origin cannot be a candidate symmetry). After
    construction the residual origin phase is re-measured on
    REFERENCE_SAMPLES points drawn from `seed` and must vanish within
    RESIDUAL_PHASE_TOL, which it does for any map preserving overlap
    moduli; a violation is reported as NotProbabilityPreserving.

    The wrapped evaluator returns exactly 0 at z = 0 and
    exp(i*alpha(z)) * T(z) elsewhere, with alpha(z) = -origin_phase(z)
    memoized per queried point (thread-safe, as-if-pure). On a batch it
    skips the zero rows, looks up or probes alpha row by row, and
    evaluates T once on the remaining rows.
    """
    n = transform.dimension
    origin_image = transform(zero_state(n))
    origin_norm = float(np.linalg.norm(origin_image))
    if origin_norm > ORIGIN_TOL:
        raise OriginNotFixed(
            f"|T(0)| = {origin_norm:.3g} exceeds {ORIGIN_TOL:g}; the origin must be fixed"
        )

    cache: dict[bytes, float] = {}
    lock = threading.Lock()

    def alpha(zv: np.ndarray) -> float:
        key = zv.tobytes()
        with lock:
            hit = cache.get(key)
        if hit is not None:
            return hit
        value = -origin_phase(transform, zv, preserve_tol)
        with lock:
            cache[key] = value
        return value

    def evaluator(zv: np.ndarray) -> np.ndarray:
        rows = zv.reshape(-1, n)
        out = np.zeros_like(rows)
        live = rows.any(axis=1)
        if live.any():
            points = rows[live]
            phases = np.array([alpha(p) for p in points])
            out[live] = np.exp(1j * phases)[:, None] * transform(points)
        return out.reshape(zv.shape)

    fixed = GaugeFixedTransformation(
        evaluator=evaluator, dimension=n, vectorized=True, base=transform
    )

    rng = np.random.default_rng(seed)
    for _ in range(REFERENCE_SAMPLES):
        residual = origin_phase(fixed, random_state(n, rng), preserve_tol)
        if angle_distance(residual, 0.0) > RESIDUAL_PHASE_TOL:
            raise NotProbabilityPreserving(
                f"residual origin phase {residual:.3g} after gauge fixing"
            )
    return fixed


@dataclass
class AntisymmetryReport:
    """Wrap-aware |theta(w,z) + theta(z,w)| per pair, with the maximum."""

    deviations: list[float]
    max_deviation: float
    tolerance: float
    passed: bool


def verify_theta_antisymmetry(
    transform: Transformation,
    pairs,
    tol: float,
    preserve_tol: float = PRESERVE_TOL,
) -> AntisymmetryReport:
    """Check theta(z, z*, w, w*) = -theta(w, w*, z, z*) over the given pairs."""
    deviations = []
    for w, z in pairs:
        forward = extract_theta(transform, w, z, preserve_tol=preserve_tol).theta
        backward = extract_theta(transform, z, w, preserve_tol=preserve_tol).theta
        deviations.append(angle_distance(forward, -backward))
    worst = max(deviations)
    return AntisymmetryReport(
        deviations=deviations,
        max_deviation=worst,
        tolerance=float(tol),
        passed=worst < tol,
    )
