"""End-to-end classification: preservation check, gauge fixing, branch
decision from the origin Jacobian, operator reconstruction, residuals.

The pipeline for `classify`:

1. sample the modulus-preservation condition (NotASymmetry on failure);
2. gauge-fix the map;
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

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    MixedBranch,
    NotASymmetry,
    NotUnitary,
    ReconstructionMismatch,
    ZeroReference,
)
from .gauge import DEFAULT_PROBE_SCALE, gauge_fix
from .states import Transformation, basis_state, random_state, zero_state
from .wirtinger import WirtingerJacobian, richardson_refine, wirtinger_jacobian

LINEAR = "linear"
ANTILINEAR = "antilinear"

# documented caveat: on C^1 every smooth phase map gauge-fixes toward the
# identity, so linear vs antilinear is indistinct on rays
CAVEAT_N1 = "n1_branch_indistinct"


@dataclass(frozen=True)
class ClassifyConfig:
    step: float = 1e-5
    tol_preserve: float = 1e-8
    tol_unitary: float = 1e-6
    tol_branch: float = 1e-4
    samples: int = 50
    seed: int = 0
    probe_scale: float = DEFAULT_PROBE_SCALE
    dimension_cap: int = 64


@dataclass(frozen=True)
class PairRecord:
    """One tested pair in a preservation report."""

    label: str
    norm_w: float
    norm_z: float
    expected: float  # product(w, z), e.g. |<w|z>|
    deviation: float  # |product(Tw, Tz) - product(w, z)|


@dataclass
class PreservationReport:
    pairs_tested: int
    max_deviation: float
    tolerance: float
    passed: bool
    records: list[PairRecord] = field(default_factory=list)


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
    """Best single-phase match of `matrix` against `reference`.

    The phase is read at the largest-modulus entry of the reference;
    the residual is the max-norm of exp(-i*phase)*matrix - reference.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    r = np.asarray(reference, dtype=np.complex128)
    if m.shape != r.shape:
        raise DimensionMismatch(f"shapes differ: {m.shape} vs {r.shape}")
    k, l = np.unravel_index(np.abs(r).argmax(), r.shape)
    if abs(r[k, l]) <= 1e-8:
        raise ZeroReference("reference matrix has no entry of modulus above 1e-8")
    phase = float(np.angle(m[k, l] / r[k, l]))
    residual = float(np.abs(np.exp(-1j * phase) * m - r).max())
    return PhaseAlignment(phase=phase, aligned_residual=residual)


def check_preservation(
    transform: Transformation, num_pairs: int, seed: int, tol: float
) -> PreservationReport:
    """Sample | |<Tw|Tz>| - |<w|z>| | over random and forced special pairs.

    Specials always include the zero vector, every basis vector against a
    fixed random anchor, an orthogonal pair, a parallel pair and a scaled
    parallel pair; `num_pairs` standard complex Gaussian pairs follow.
    Deterministic given `seed`.
    """
    if num_pairs < 1:
        raise ValueError("num_pairs must be at least 1")
    n = transform.dimension
    rng = np.random.default_rng(seed)
    anchor = random_state(n, rng)
    parallel = random_state(n, rng)

    pairs: list[tuple[str, np.ndarray, np.ndarray]] = [("zero", zero_state(n), anchor)]
    pairs += [("basis", basis_state(n, k), anchor) for k in range(n)]
    if n >= 2:
        pairs.append(("orthogonal", basis_state(n, 0), basis_state(n, 1)))
    pairs.append(("parallel", parallel, parallel))
    pairs.append(("parallel_scaled", parallel, 2.5 * parallel))
    pairs += [
        ("random", random_state(n, rng), random_state(n, rng))
        for _ in range(num_pairs)
    ]
    return sample_pairs(
        transform, pairs, lambda a, b: abs(complex(np.vdot(a, b))), tol
    )


def sample_pairs(transform, pairs, product, tol: float) -> PreservationReport:
    """Deviation |product(Tw, Tz) - product(w, z)| of each (label, w, z) pair.

    The one sampler behind `check_preservation` (overlap moduli) and
    `mazurulam.check_isometry` (real scalar products); evaluates all 2P
    points in one batch and passes when the largest deviation is below
    `tol`.
    """
    images = transform(np.array([p for _, w, z in pairs for p in (w, z)]))
    records = []
    for (label, w, z), tw, tz in zip(pairs, images[0::2], images[1::2]):
        expected = product(w, z)
        records.append(
            PairRecord(
                label=label,
                norm_w=float(np.linalg.norm(w)),
                norm_z=float(np.linalg.norm(z)),
                expected=expected,
                deviation=abs(product(tw, tz) - expected),
            )
        )
    worst = max(r.deviation for r in records)
    return PreservationReport(
        pairs_tested=len(records),
        max_deviation=worst,
        tolerance=float(tol),
        passed=worst < tol,
        records=records,
    )


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
    residual = float(
        np.abs(matrix.conj().T @ matrix - np.eye(matrix.shape[0])).max()
    )
    if residual >= tol:
        raise NotUnitary(f"|M*M - I| = {residual:.3g} exceeds {tol:g}")
    return residual


def _smoothness_diagnostic(fixed, step: float) -> SmoothnessDiagnostic:
    j0 = wirtinger_jacobian(fixed, zero_state(fixed.dimension), step)
    j1 = wirtinger_jacobian(fixed, zero_state(fixed.dimension), step / 2.0)
    j2 = wirtinger_jacobian(fixed, zero_state(fixed.dimension), step / 4.0)
    coarse = float(
        max(np.abs(j0.d_z - j1.d_z).max(), np.abs(j0.d_zbar - j1.d_zbar).max())
    )
    fine = float(
        max(np.abs(j1.d_z - j2.d_z).max(), np.abs(j1.d_zbar - j2.d_zbar).max())
    )
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
    if n > config.dimension_cap:
        raise DimensionMismatch(
            f"dimension {n} exceeds the configured cap {config.dimension_cap}"
        )

    preservation = check_preservation(
        transform, config.samples, config.seed, config.tol_preserve
    )
    if not preservation.passed:
        raise NotASymmetry(
            f"max modulus deviation {preservation.max_deviation:.3g} "
            f"exceeds {config.tol_preserve:g}",
            report=preservation,
        )

    fixed = gauge_fix(
        transform,
        probe_scale=config.probe_scale,
        preserve_tol=config.tol_preserve,
        seed=config.seed,
    )
    origin_jac = richardson_refine(fixed, zero_state(n), config.step, levels=1)
    branch, operator = _decide_branch(origin_jac, config.tol_branch)
    unitarity_residual = _require_unitary(operator, config.tol_unitary)

    # global reconstruction against the origin operator
    rng = np.random.default_rng([config.seed, 1])
    points = np.array([random_state(n, rng) for _ in range(config.samples)])
    model = (points if branch == LINEAR else np.conj(points)) @ operator.T
    worst_reconstruction = float(
        (
            np.linalg.norm(fixed(points) - model, axis=1)
            / np.linalg.norm(points, axis=1)
        ).max()
    )
    if worst_reconstruction >= config.tol_unitary:
        raise ReconstructionMismatch(
            f"origin operator misses the map by {worst_reconstruction:.3g} "
            f"relative at sampled points (tol {config.tol_unitary:g})"
        )

    # Jacobian constancy away from the origin, up to one unimodular scalar
    # per run (pointwise gauge noise can drift as a near-constant phase)
    constancy_tol = 10.0 * config.tol_unitary
    rng_points = np.random.default_rng([config.seed, 2])
    run_phase = None
    for _ in range(3):
        z = random_state(n, rng_points)
        jac = wirtinger_jacobian(fixed, z, config.step)
        block = jac.d_z if branch == LINEAR else jac.d_zbar
        if run_phase is None:
            run_phase = align_global_phase(block, operator).phase
        drift = float(np.abs(np.exp(-1j * run_phase) * block - operator).max())
        if drift >= constancy_tol:
            raise ReconstructionMismatch(
                f"origin Jacobian is not constant: off-origin block drifts "
                f"by {drift:.3g} (tol {constancy_tol:g})"
            )

    return ClassificationResult(
        branch=branch,
        operator=operator,
        unitarity_residual=unitarity_residual,
        reconstruction_residual=worst_reconstruction,
        preservation=preservation,
        origin_d_z_norm=origin_jac.d_z_norm,
        origin_d_zbar_norm=origin_jac.d_zbar_norm,
        smoothness=_smoothness_diagnostic(fixed, config.step),
        caveats=(CAVEAT_N1,) if n == 1 else (),
    )
