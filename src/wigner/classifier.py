"""End-to-end classification: preservation check, gauge fixing, branch
decision from the origin Jacobian, operator reconstruction, residuals.

The pipeline for `classify`:

1. sample the modulus-preservation condition (NotASymmetry on failure);
2. gauge-fix the map (MixedBranch when a residual origin phase survives);
3. take the Wirtinger Jacobian of the fixed map at the origin
   (Richardson level 1, where accuracy matters most);
4. exactly one block must be negligible: d_zbar ~ 0 gives the linear
   branch with M = d_z, d_z ~ 0 the antilinear branch with M = d_zbar
   (MixedBranch otherwise - a diagnostic, never a forced verdict);
5. M must be unitary and must reproduce the fixed map globally, and the
   Jacobian must be constant (up to one unimodular scalar per run) at
   off-origin points.

The reconstructed operator is canonical only up to a global phase, which
is why oracle comparisons go through `align_global_phase`.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    MixedBranch,
    NotASymmetry,
    NotUnitary,
    ReconstructionMismatch,
    SchemaError,
    ZeroReference,
    require_settings,
)
from .gauge import PRESERVE_TOL, gauge_fix
from .states import Transformation, as_array, random_state, zero_state
from .wirtinger import DEFAULT_STEP, WirtingerJacobian, ladder, richardson_refine, wirtinger_jacobian

LINEAR = "linear"
ANTILINEAR = "antilinear"

# documented caveat: on C^1 every smooth phase map gauge-fixes toward the
# identity, so linear vs antilinear is indistinct on rays
CAVEAT_N1 = "n1_branch_indistinct"

# classify refuses maps on C^n with n above this
DIMENSION_CAP = 64


@dataclass(frozen=True)
class ClassifyConfig:
    """The run settings of `classify`; the CLI offers each field a
    subcommand reads as --<name>, with this type and default.

    Construction raises SchemaError for any field that breaks a bound of
    `errors.setting_problem`, so nothing is evaluated with it."""

    step: float = DEFAULT_STEP
    tol_preserve: float = PRESERVE_TOL
    tol_unitary: float = 1e-6
    tol_branch: float = 1e-4
    samples: int = 50
    seed: int = 0

    def __post_init__(self):
        require_settings(vars(self))


@dataclass
class PreservationReport:
    """A sampled preservation check: `labels` names each pair and row k of
    the (P, 4) `columns` holds pair k's numbers, named by PAIR_COLUMNS."""

    pairs_tested: int
    max_deviation: float
    tolerance: float
    passed: bool
    labels: list[str] = field(repr=False)
    columns: np.ndarray = field(repr=False, compare=False)


@dataclass
class SmoothnessDiagnostic:
    """Step-halving behaviour of the origin Jacobian.

    For twice differentiable maps the coarse/fine difference ratio sits
    near 4 (second-order convergence); for maps that are linear to
    roundoff both differences collapse to the noise floor and the ratio is
    reported as None.
    """

    coarse_difference: float
    fine_difference: float
    halving_ratio: float | None


@dataclass
class ClassificationResult:
    branch: str
    operator: np.ndarray
    unitarity_residual: float
    reconstruction_residual: float
    preservation: PreservationReport
    origin_d_z_norm: float
    origin_d_zbar_norm: float
    smoothness: SmoothnessDiagnostic
    caveats: tuple[str, ...] = ()


@dataclass(frozen=True)
class PhaseAlignment:
    phase: float
    aligned_residual: float


def align_global_phase(matrix, reference) -> PhaseAlignment:
    """Best single-phase match of `matrix` against `reference`, arrays of
    any one shape (a state vector too): the phase is read at the reference's
    largest entry, the residual is max |exp(-i*phase)*matrix - reference|.
    Unequal or empty shapes (DimensionMismatch) and a non-finite entry
    (SchemaError) are refused before any arithmetic."""
    m = as_array(matrix, "matrix")
    r = as_array(reference, "reference")
    if m.shape != r.shape or not r.size:
        raise DimensionMismatch(f"shapes must be equal and non-empty: {m.shape} vs {r.shape}")
    if not (np.isfinite(m).all() and np.isfinite(r).all()):
        raise SchemaError("matrix and reference must be finite")
    peak = np.unravel_index(np.abs(r).argmax(), r.shape)
    if abs(r[peak]) <= 1e-8:
        raise ZeroReference("reference matrix has no entry of modulus above 1e-8")
    # the wrapped difference of two angles: the quotient m / r can overflow to 0
    phase = math.remainder(float(np.angle(m[peak]) - np.angle(r[peak])), 2 * math.pi)
    with np.errstate(all="ignore"):  # entries near the largest float: the residual reads inf
        residual = float(np.abs(np.exp(-1j * phase) * m - r).max())
    return PhaseAlignment(phase=phase, aligned_residual=residual)


def check_preservation(
    transform: Transformation, num_pairs: int, seed: int, tol: float
) -> PreservationReport:
    """Sample | |<Tw|Tz>| - |<w|z>| | over forced special pairs, then random ones.

    The specials are the rows (w, z) of one zeroed (S, 2, n) array, filled
    by slices and scalar stores with no loop over the basis, in this
    order: (0, a) for a random anchor a; (e_k, a) for k = 1..n, whose e_k
    are the diagonal of their (n, n) block; (e_1, e_2) when n >= 2; (p, p)
    and (p, 2.5 p) for a random p. Then `num_pairs` (1..MAX_SAMPLES) random
    pairs follow if all pass: standard complex Gaussian directions, scaled
    by `sample_pairs`. Deterministic given `seed`; SchemaError for a bad
    setting.
    """
    require_settings({"num_pairs": num_pairs, "seed": seed, "tol": tol})
    n = transform.dimension
    rng = np.random.default_rng(seed)
    anchor, parallel = random_state(n, rng, (2,))

    labels = ["zero"] + ["basis"] * n + ["orthogonal"] * (n >= 2) + ["parallel", "parallel_scaled"]
    points = np.zeros((len(labels), 2, n), dtype=np.complex128)
    points[: n + 1, 1] = anchor
    np.fill_diagonal(points[1 : n + 1, 0], 1.0)
    if n >= 2:
        points[n + 1, 0, 0] = points[n + 1, 1, 1] = 1.0
    points[-2:, 0] = parallel
    points[-2:, 1] = parallel, 2.5 * parallel

    draw = lambda: random_state(n, rng, (num_pairs, 2))
    product = lambda w, z: np.abs(np.einsum("ij,ij->i", w.conj(), z))
    return sample_pairs(transform, labels, points, draw, rng, product, tol)


def sample_pairs(
    transform, labels, specials, draw, rng, product, tol: float
) -> PreservationReport:
    """Deviation |product(Tw, Tz) - product(w, z)| of labelled pairs.

    The one sampler behind `check_preservation` (overlap moduli) and
    `mazurulam.check_isometry` (real scalar products). `specials` holds one
    (w, z) pair per label, shape (S, 2, n); `product` maps two (P, n) arrays
    to P values. One failing pair refutes the map, so only when every special
    passes is `draw()` called for the (R, 2, n) directions of the pairs
    labelled "random". Each of their vectors is scaled in place to a radius
    10^U(-2, 2) drawn from `rng` after them, so that the deviation is sampled
    at every scale from 1e-2 to 1e2, and they are scored as a second batch.
    Passes when the largest deviation is below `tol`.
    """
    columns = _score_pairs(transform, specials, product)
    worst = float(columns[:, -1].max())
    if worst < tol:
        pairs = draw()
        radii = 10.0 ** rng.uniform(-2.0, 2.0, (*pairs.shape[:-1], 1))
        reals = pairs.view(np.float64)  # |z|^2 without a complex temporary
        pairs *= radii / np.sqrt(np.einsum("...k,...k->...", reals, reals))[..., None]
        randoms = _score_pairs(transform, pairs, product)
        worst = max(worst, float(randoms[:, -1].max()))
        columns = np.concatenate([columns, randoms])
    labels = labels + ["random"] * (len(columns) - len(labels))
    return PreservationReport(
        pairs_tested=len(labels),
        max_deviation=worst,
        tolerance=float(tol),
        passed=worst < tol,
        labels=labels,
        columns=columns,
    )


#: The numbers of a tested pair, in the order of the columns of `_score_pairs`.
PAIR_COLUMNS = ("norm_w", "norm_z", "expected", "deviation")


def _score_pairs(transform, points, product) -> np.ndarray:
    """Rows (norm_w, norm_z, expected, deviation) of the (w, z) rows of `points`,
    where expected is product(w, z) and deviation |product(Tw, Tz) - expected|.
    The 2P points are evaluated in one batch, ordered w0, z0, w1, z1, ...

    The rows are written into one (P, 4) array. The norms are the square
    roots of one einsum over the float view of `points`, as `sample_pairs`
    reads the radii."""
    columns = np.empty((len(points), len(PAIR_COLUMNS)))
    reals = points.view(np.float64)
    norms = np.einsum("...k,...k->...", reals, reals, out=columns[:, :2])
    np.sqrt(norms, out=norms)
    expected = columns[:, 2]
    expected[:] = product(points[:, 0], points[:, 1])
    images = transform(points.reshape(-1, points.shape[-1])).reshape(points.shape)
    deviation = np.abs(product(images[:, 0], images[:, 1]) - expected, out=columns[:, 3])
    deviation[np.isnan(deviation)] = np.inf  # an overflowed product misses by all
    return columns


def require_preserved(report: PreservationReport) -> None:
    """Raise NotASymmetry, carrying `report`, unless the check passed."""
    NotASymmetry.unless_below(
        report.max_deviation, report.tolerance, "max modulus deviation", report
    )


def unitarity_residual(matrix: np.ndarray) -> float:
    """Max-norm of M*M - I (M^T M - I for a real M), unwarned: NaN or inf past float range."""
    with np.errstate(all="ignore"):
        return float(np.abs(matrix.conj().T @ matrix - np.eye(matrix.shape[0])).max())


def relative_miss(transform, points: np.ndarray, model: np.ndarray) -> float:
    """max |T(p) - model(p)| / |p| over the rows p of `points` and of `model`."""
    misses = np.linalg.norm(transform(points) - model, axis=1)
    return float((misses / np.linalg.norm(points, axis=1)).max())


def _decide_branch(jacobian: WirtingerJacobian, tol_branch: float) -> tuple[str, np.ndarray]:
    """Pick the branch whose complementary block is negligible."""
    nz = jacobian.d_z_norm
    nb = jacobian.d_zbar_norm
    if nb < tol_branch and nz >= tol_branch:
        return LINEAR, jacobian.d_z
    if nz < tol_branch and nb >= tol_branch:
        return ANTILINEAR, jacobian.d_zbar
    raise MixedBranch(
        f"origin Jacobian blocks |d_z| = {nz:.3g}, |d_zbar| = {nb:.3g} "
        f"do not separate at tol_branch = {tol_branch:g}"
    )


def _require_unitary(matrix: np.ndarray, tol: float) -> float:
    return NotUnitary.unless_below(unitarity_residual(matrix), tol, "|M*M - I| =")


def _smoothness_diagnostic(fixed, step: float) -> SmoothnessDiagnostic:
    rungs = ladder(fixed, zero_state(fixed.dimension), step, 3)
    coarse, fine = map(float, np.abs(np.diff(rungs, axis=0)).max(axis=(1, 2, 3)))
    ratio = coarse / fine if fine > 1e-13 else None
    return SmoothnessDiagnostic(
        coarse_difference=coarse, fine_difference=fine, halving_ratio=ratio
    )


def classify(
    transform: Transformation, config: ClassifyConfig = ClassifyConfig()
) -> ClassificationResult:
    """Full verdict for a candidate symmetry; see the module docstring.

    Raises NotASymmetry, MixedBranch, NotUnitary or ReconstructionMismatch;
    every accepted result carries the reconstructed operator, residual
    diagnostics and the preservation report.
    """
    n = transform.dimension
    if n > DIMENSION_CAP:
        raise DimensionMismatch(f"dimension {n} exceeds the configured cap {DIMENSION_CAP}")

    preservation = check_preservation(transform, config.samples, config.seed, config.tol_preserve)
    require_preserved(preservation)

    fixed = gauge_fix(transform, preserve_tol=config.tol_preserve, seed=config.seed)
    origin_jac = richardson_refine(fixed, zero_state(n), config.step, levels=1)
    branch, operator = _decide_branch(origin_jac, config.tol_branch)
    unitarity = _require_unitary(operator, config.tol_unitary)

    # global reconstruction against the origin operator
    rng = np.random.default_rng([config.seed, 1])
    points = random_state(n, rng, (config.samples,))
    model = (points if branch == LINEAR else np.conj(points)) @ operator.T
    miss = relative_miss(fixed, points, model)
    ReconstructionMismatch.unless_below(miss, config.tol_unitary, "relative reconstruction miss")

    # Jacobian constancy away from the origin, up to one unimodular scalar
    # per run (pointwise gauge noise can drift as a near-constant phase)
    constancy_tol = 10.0 * config.tol_unitary
    rng_points = np.random.default_rng([config.seed, 2])
    run_phase = None
    for z in random_state(n, rng_points, (3,)):
        jac = wirtinger_jacobian(fixed, z, config.step)
        block = jac.d_z if branch == LINEAR else jac.d_zbar
        if run_phase is None:
            run_phase = align_global_phase(block, operator).phase
        drift = float(np.abs(np.exp(-1j * run_phase) * block - operator).max())
        ReconstructionMismatch.unless_below(drift, constancy_tol, "off-origin Jacobian drift")

    return ClassificationResult(
        branch=branch,
        operator=operator,
        unitarity_residual=unitarity,
        reconstruction_residual=miss,
        preservation=preservation,
        origin_d_z_norm=origin_jac.d_z_norm,
        origin_d_zbar_norm=origin_jac.d_zbar_norm,
        smoothness=_smoothness_diagnostic(fixed, config.step),
        caveats=(CAVEAT_N1,) if n == 1 else (),
    )
