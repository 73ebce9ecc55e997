"""Phase extraction and gauge fixing for modulus-preserving maps.

For a map T that preserves |<w|z>| there is a real phase function theta
relating transformed and original overlaps, read off a pair as

    <Tw|Tz> = exp(i*theta) <w|z>

on either branch (the classifier decides the branch from Jacobian blocks
after gauge fixing).

Gauge fixing multiplies T by a unimodular factor exp(i*alpha(z)) chosen
so the residual phase against the origin vanishes: alpha(z) is minus the
limit of theta(eps*z, z) as eps -> 0. Probing along w = eps*z keeps the
overlap eps*|z|^2 real positive and never degenerate, and makes the same
probe formula valid on both branches. The limit is taken numerically by
second-order Richardson extrapolation over (eps, eps/2, eps/4), leaving
an O(eps^3) residual. Probed phases are memoized per point behind a lock,
up to MEMO_MAX_POINTS points, so repeated evaluation is deterministic and
cheap; the probes of the points a batch misses in the memo are evaluated
in one base call per PROBE_CHUNK_ROWS = 64 points (256 probe points).

All angles live in (-pi, pi]; comparisons are wrap-aware.
"""

import math
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegeneratePair,
    DimensionMismatch,
    MixedBranch,
    NonFiniteEvaluation,
    NotProbabilityPreserving,
    OriginNotFixed,
    SchemaError,
    require_settings,
)
from .states import Transformation, as_array, as_state, random_state

# the Richardson limit leaves about phi'''(0) (eps |z|)^3 / 6 of the phase phi along the
# probe ray, below RESIDUAL_PHASE_TOL for exp(i sin(c Re z1)) U z up to c = 1e4
PROBE_SCALE = 1e-6
DEGENERATE_TOL = 1e-8
PRESERVE_TOL = 1e-8
# gauge_fix's origin check and its post-hoc self-check on the residual phase
ORIGIN_TOL = 1e-9
REFERENCE_SAMPLES = 8
RESIDUAL_PHASE_TOL = 1e-6
# the point and its three probes, (1, eps, eps/2, eps/4) as a column
_PROBES = np.array([1.0, PROBE_SCALE, PROBE_SCALE / 2.0, PROBE_SCALE / 4.0])[:, None]
# the three probe scales as Python floats, so origin_phase reads with scalar arithmetic
_EPS = tuple(_PROBES[1:, 0].tolist())
# a probe overlap below the smallest normal float has lost its precision
_MIN_NORMAL = sys.float_info.min
# memo misses whose probes gauge_fix evaluates in one base call (4 points each,
# so 256 points): a one-batch Wirtinger stencil at n = 64 misses on 256 rows,
# and the dressed base map costs more per point in calls of 1024 points
PROBE_CHUNK_ROWS = 64
# gauge_fix's memo is cleared before a store would take it past this many points
MEMO_MAX_POINTS = 16384

_TWO_PI = 2.0 * math.pi


def wrap_angle(theta: float) -> float:
    """Reduce an angle to (-pi, pi] (pi maps to pi, -pi maps to pi)."""
    return math.pi - (math.pi - theta) % _TWO_PI


def angle_distance(a: float, b: float) -> float:
    """Wrap-aware distance between two angles."""
    return abs(wrap_angle(a - b))


def require_origin_fixed(transform: Transformation) -> float:
    """|T(0)| below ORIGIN_TOL, else OriginNotFixed; at real zeros, which a
    real map takes without the warning that complex ones raise."""
    origin = float(np.linalg.norm(transform(np.zeros(transform.dimension))))
    return OriginNotFixed.unless_below(origin, ORIGIN_TOL, "|T(0)| =")


def _theta_from(numerator: complex, overlap: complex, preserve_tol: float) -> float:
    ratio = numerator / overlap
    # the one pass rule, inline on the probe hot path: at the tolerance or NaN fails
    if not abs(abs(ratio) - 1.0) < preserve_tol:
        raise NotProbabilityPreserving(
            f"|<Tw|Tz>| / |<w|z>| = {abs(ratio):.6g}, expected 1 within {preserve_tol:g}"
        )
    return wrap_angle(math.atan2(ratio.imag, ratio.real))


def extract_theta(
    transform: Transformation, w, z, preserve_tol: float = PRESERVE_TOL
) -> float:
    """theta(w, z) of a non-orthogonal pair: <Tw|Tz> = exp(i*theta) <w|z>.

    Raises DegeneratePair when |<w|z>| <= DEGENERATE_TOL * |w| * |z| (the
    phase of a vanishing overlap is meaningless) and
    NotProbabilityPreserving when the overlap modulus is not preserved;
    SchemaError, before anything is evaluated, for a bad `preserve_tol`.
    """
    require_settings({"preserve_tol": preserve_tol})
    w = as_state(w, transform.dimension)
    z = as_state(z, transform.dimension)
    overlap = complex(np.vdot(w, z))
    bound = DEGENERATE_TOL * float(np.linalg.norm(w)) * float(np.linalg.norm(z))
    # a NaN bound (norms past float range) cannot clear the pair either
    if not abs(overlap) > bound:
        raise DegeneratePair(
            f"|<w|z>| = {abs(overlap):.3g} at or below threshold {bound:.3g}"
        )
    tw, tz = transform(np.stack([w, z]))
    return _theta_from(complex(np.vdot(tw, tz)), overlap, preserve_tol)


def origin_phase(
    transform: Transformation, z, preserve_tol: float = PRESERVE_TOL, images=None
) -> float:
    """Estimate theta(0, 0, z, z*) as the limit of theta(eps*z, z).

    Probes at eps = PROBE_SCALE, eps/2 and eps/4 and extrapolates to
    eps = 0 with a second-order Richardson combination, computed on wrapped
    increments so branch-cut crossings cannot corrupt it. The point and its
    three probes `_PROBES * z` are evaluated as one batch, unless `images`
    already holds their four images (shape (4, n), in that order); at z = 0
    nothing is evaluated and the phase is 0.

    Checks run in this order, before anything is evaluated: SchemaError
    unless `z` is numeric; DimensionMismatch unless it is one point of width
    n (a scalar counts at n = 1); NonFiniteEvaluation for a non-finite
    component, or when |z|^2 overflows (|z| above about 1e154);
    DegeneratePair when the smallest probe overlap eps/4 * |z|^2 of a
    nonzero z falls below the smallest normal float (|z| below about
    3e-151), where the overlaps have lost their digits; DimensionMismatch
    unless a given `images` has shape (4, n). Reading the phases raises
    NotProbabilityPreserving when a probe overlap modulus is not preserved,
    a NaN overlap included.
    """
    n = transform.dimension
    z = as_array(z, "point")
    if z.shape != (n,):
        z = as_state(z, n)
    denom_base = float(np.vdot(z, z).real)  # eps * |z|^2 is the probe overlap
    if not math.isfinite(denom_base):
        as_state(z, n)  # raises first for a non-finite component
        raise NonFiniteEvaluation("|z|^2 overflows although every component is finite")
    if _EPS[2] * denom_base < _MIN_NORMAL:
        if not z.any():
            return 0.0
        raise DegeneratePair(
            f"probe overlap {_EPS[2]:g} * |z|^2 underflows below {_MIN_NORMAL:.3g}"
        )
    if images is None:
        images = transform(_PROBES * z)
    elif np.shape(images) != (4, n):
        raise DimensionMismatch(
            f"expected images of shape (4, {n}), got {np.shape(images)}"
        )
    tz = images[0]
    theta1 = _theta_from(complex(np.vdot(images[1], tz)), _EPS[0] * denom_base, preserve_tol)
    theta2 = _theta_from(complex(np.vdot(images[2], tz)), _EPS[1] * denom_base, preserve_tol)
    theta3 = _theta_from(complex(np.vdot(images[3], tz)), _EPS[2] * denom_base, preserve_tol)
    d1 = wrap_angle(theta2 - theta1)
    d2 = wrap_angle(theta3 - theta2)
    return wrap_angle(theta1 + (2.0 * d1 + 8.0 * d2) / 3.0)


def _probe_points(rows: np.ndarray) -> np.ndarray:
    """Each row of an (m, n) array followed by its three probes, (4m, n)."""
    return (_PROBES * rows[:, None, :]).reshape(-1, rows.shape[-1])


@dataclass
class GaugeFixedTransformation(Transformation):
    """A transformation multiplied by exp(i*alpha(z)) so its origin phase vanishes."""

    base: Transformation | None = None


def gauge_fix(
    transform: Transformation, preserve_tol: float = PRESERVE_TOL, seed: int = 0
) -> GaugeFixedTransformation:
    """Wrap `transform` with the phase gauge that cancels theta(0, 0, z, z*).

    Raises SchemaError for a bad `preserve_tol` or `seed` before anything
    is evaluated. Requires T(0) = 0 within ORIGIN_TOL (raises
    OriginNotFixed otherwise; a map that moves the origin cannot be a
    candidate symmetry). After construction the residual origin phase is
    re-measured on REFERENCE_SAMPLES points drawn from `seed`, whose probes
    the fixed map evaluates as one batch, and must vanish within
    RESIDUAL_PHASE_TOL, which it does for any map preserving overlap
    moduli whose phase is smooth enough at the origin; a violation measures
    a phase, not a modulus, and is reported as MixedBranch (not
    gauge-fixable).

    The wrapped evaluator returns exactly 0 at z = 0 and
    exp(i*alpha(z)) * T(z) elsewhere, with alpha(z) = -origin_phase(z)
    memoized per queried point (thread-safe, as-if-pure). On a batch it
    skips the zero rows and looks the others up in the memo. The probes of
    the distinct rows that miss are evaluated in one base call per
    PROBE_CHUNK_ROWS rows, each row's phase is read from its four images
    by origin_phase, and T is evaluated once on the nonzero rows. The memo
    is emptied before a store would take it past MEMO_MAX_POINTS points
    (about 18 MB at n = 64), so it holds at most that many, or the misses
    of one larger batch. A point probed again after that gets its phase
    from a new base call, the same up to any roundoff by which the base
    map's image of a row depends on the rest of its batch.
    """
    require_settings({"preserve_tol": preserve_tol, "seed": seed})
    n = transform.dimension
    require_origin_fixed(transform)

    cache: dict[bytes, float] = {}
    lock = threading.Lock()

    def evaluator(zv: np.ndarray) -> np.ndarray:
        rows = zv.reshape(-1, n)
        out = np.zeros_like(rows)
        live = rows.any(axis=1)
        if live.any():
            points = rows[live]
            keys = [p.tobytes() for p in points]
            with lock:
                known = [cache.get(key) for key in keys]
            missing: dict[bytes, int] = {}
            for k, (key, hit) in enumerate(zip(keys, known)):
                if hit is None:
                    missing.setdefault(key, k)
            fresh: dict[bytes, float] = {}
            pending = list(missing.items())
            for start in range(0, len(pending), PROBE_CHUNK_ROWS):
                chunk = pending[start : start + PROBE_CHUNK_ROWS]
                probed = points[[k for _, k in chunk]]
                images = transform(_probe_points(probed)).reshape(len(chunk), len(_PROBES), n)
                for (key, _), row, row_images in zip(chunk, probed, images):
                    fresh[key] = -origin_phase(transform, row, preserve_tol, images=row_images)
            with lock:
                if len(cache) + len(fresh) > MEMO_MAX_POINTS:
                    cache.clear()
                cache.update(fresh)
            phases = np.array(
                [fresh[key] if hit is None else hit for key, hit in zip(keys, known)]
            )
            out[live] = np.exp(1j * phases)[:, None] * transform(points)
        return out.reshape(zv.shape)

    fixed = GaugeFixedTransformation(
        evaluator=evaluator, dimension=n, vectorized=True, base=transform
    )

    references = random_state(n, np.random.default_rng(seed), (REFERENCE_SAMPLES,))
    images = fixed(_probe_points(references)).reshape(REFERENCE_SAMPLES, len(_PROBES), n)
    for z, z_images in zip(references, images):
        residual = origin_phase(fixed, z, preserve_tol, images=z_images)
        if not angle_distance(residual, 0.0) < RESIDUAL_PHASE_TOL:
            raise MixedBranch(f"residual origin phase {residual:.3g} after gauge fixing")
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
    """Check theta(z, z*, w, w*) = -theta(w, w*, z, z*) over the given pairs.

    SchemaError, before anything is evaluated, for no pairs or a bad tolerance."""
    pairs = list(pairs)
    if not pairs:
        raise SchemaError("pairs must be non-empty")
    require_settings({"tol": tol})
    deviations = []
    for w, z in pairs:
        forward = extract_theta(transform, w, z, preserve_tol=preserve_tol)
        backward = extract_theta(transform, z, w, preserve_tol=preserve_tol)
        deviations.append(angle_distance(forward, -backward))
    worst = max(deviations)
    return AntisymmetryReport(
        deviations=deviations,
        max_deviation=worst,
        tolerance=float(tol),
        passed=worst < tol,
    )
