"""Exception types shared across the package.

Every error carries the policy that drivers apply to it. `code` is the
report code, the class name in snake case (NotASymmetry ->
not_a_symmetry; the base class itself is analysis_error). `exit_code`
names one of two families. Input/definition problems (malformed
expressions, unknown matrices, bad vector shapes, broken manifest files)
mean the question itself was ill-posed: exit code 1. Verdict failures
(the analyzed map turned out not to be a symmetry, or a reconstruction
check did not close) are legitimate analysis outcomes: exit code 2, the
default, and the CLI still emits a diagnostic report. A failed sampling
check attaches its report as `.report` (None otherwise).

A verdict check on a measured value passes by one rule,
`WignerError.unless_below`: its value must be below its tolerance, so a
NaN fails too. Preservation, unitarity, reconstruction, the fixed origin,
the isometry, orthogonality, a real map's imaginary part and a
generator's unitary input pass through it. Six checks raise by hand
instead: `gauge._theta_from` (NotProbabilityPreserving), the residual-phase
self-check of `gauge_fix` (MixedBranch: it measures a phase, not a modulus),
`classifier._decide_branch` (MixedBranch, a two-sided test), the
DegeneratePair checks of `extract_theta` and of `origin_phase`, and
`align_global_phase` (ZeroReference). The two gauge checks still follow
the rule (a value at its tolerance, or NaN, fails), written inline on the
probe hot path. Every setting
passes by one table, `setting_problem`: every module reads its bounds
through `require_settings`, which raises SchemaError.
"""

import math
import re
import sys
from numbers import Integral, Real

# most random pairs one preservation check draws (20 MB of points at n = 64)
MAX_SAMPLES = 10_000
# Steps outside this range leave the stencil to roundoff (z +- step == z away
# from the origin) or to the map's curvature, and give wrong verdicts.
STEP_RANGE = (1e-8, 1e-1)
# A unitary at n <= 64 has an entry of modulus at least 1/8 in every row, so a
# branch tolerance up to 0.1 still tells the two Jacobian blocks apart.
TOL_BRANCH_MAX = 0.1
# highest degree of a generated dressing phase
MAX_DRESSING_DEGREE = 4

# every integer setting, as name: (least, most)
_INTEGER_RANGES = {
    "samples": (1, MAX_SAMPLES),  # a sample count
    "num_pairs": (1, MAX_SAMPLES),
    "seed": (0, math.inf),
    "n": (1, math.inf),  # a dimension
    "extent": (0, math.inf),  # of a batch axis
    "degree": (0, MAX_DRESSING_DEGREE),  # of a dressing phase
    "dressing_degree": (0, MAX_DRESSING_DEGREE),
    "levels": (0, 4),  # Richardson levels
}


class WignerError(Exception):
    """Base class for every error raised by this package."""

    code = "analysis_error"
    exit_code = 2

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report

    @classmethod
    def unless_below(cls, value: float, tol: float, what: str, report=None) -> float:
        """`value` if below `tol`, else this error, detail "<what> <value> exceeds <tol>"."""
        if value < tol:
            return value
        raise cls(f"{what} {value:.3g} exceeds {tol:g}", report=report)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.code = re.sub(r"(?<!^)(?=[A-Z])", "_", cls.__name__).lower()


class DimensionMismatch(WignerError):
    """A vector or matrix has a dimension inconsistent with the analysis."""

    exit_code = 1


class NonFiniteEvaluation(WignerError):
    """A transformation produced NaN or Inf."""


class DegeneratePair(WignerError):
    """The pair (w, z) is numerically orthogonal; no relative phase exists."""


class NotProbabilityPreserving(WignerError):
    """|<Tw|Tz>| differs from |<w|z>| beyond tolerance."""


class OriginNotFixed(WignerError):
    """T(0) is not the zero vector within tolerance."""


class NotASymmetry(WignerError):
    """The modulus-preservation check failed; `.report` is the failing
    PreservationReport, for per-pair diagnostics."""


class MixedBranch(WignerError):
    """Neither Wirtinger block at the origin is negligible (or both are).

    Signals a map that is not twice differentiable, not gauge-fixable, or
    numerically pathological; never forced into a verdict.
    """


class NotUnitary(WignerError):
    """The candidate operator fails M*M = I beyond tolerance."""


class ReconstructionMismatch(WignerError):
    """The origin Jacobian does not reproduce the map away from the origin."""


class ZeroReference(WignerError):
    """Phase alignment was attempted against an all-zero reference matrix."""


class NotUnitaryInput(WignerError):
    """A generator was handed a matrix that is not unitary."""

    exit_code = 1


class NotIsometry(WignerError):
    """The real scalar-product preservation check failed; `.report` is the
    failing isometry report."""


class NotOrthogonal(WignerError):
    """The reconstructed real Jacobian fails O^T O = I beyond tolerance."""


class NotRealMap(WignerError):
    """A point, image or state of a real (Euclidean) map is complex beyond states.REAL_TOL."""

    exit_code = 1


class ParseError(WignerError):
    """Syntax error in a transform definition file.

    `line` and `column` are 1-based; `expected` lists the token kinds that
    would have been accepted.
    """

    exit_code = 1

    def __init__(self, message, line, column, expected=()):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
        self.expected = tuple(expected)


class UnknownIdentifier(ParseError):
    """An identifier in an expression does not name a variable or function."""


class UnknownMatrix(WignerError):
    """A mat(...) reference has no entry in the constants mapping."""

    exit_code = 1


class DivisionNearZero(WignerError):
    """A division node evaluated with a divisor of modulus below 1e-300."""

    def __init__(self, message, line=0, column=0):
        super().__init__(message)
        self.line = line
        self.column = column


class SchemaError(WignerError):
    """A JSON input file (constants, manifest) or a setting violates its schema."""

    exit_code = 1


def setting_problem(name: str, value) -> str | None:
    """Every setting bound: the one `value` breaks, as "must be ...", or None.

    A name of `_INTEGER_RANGES` is an integer in its range; any other name
    (a step or a tolerance) a positive finite real, a `step` also in
    STEP_RANGE and a `tol_branch` at most TOL_BRANCH_MAX. A bool is neither."""
    integral = name in _INTEGER_RANGES
    kinds = (int, Integral) if integral else (float, int, Real)  # builtins first: ABCs are slow
    if isinstance(value, bool) or not isinstance(value, kinds):
        kind = "an integer" if integral else "a real number"
        return f"must be {kind}, got {type(value).__name__}"
    if integral:
        least, most = _INTEGER_RANGES[name]
        if least <= value <= most:
            return None
        if least == 0:
            return "must be non-negative" if most == math.inf else f"must be in 0..{most}"
        return f"must be at least {least}" if value < least else f"must be at most {most}"
    if not abs(value) <= sys.float_info.max:  # NaN, +-inf or an int past every float
        return "must be finite"
    if value <= 0:
        return "must be positive"
    if name == "step" and not STEP_RANGE[0] <= value <= STEP_RANGE[1]:
        return f"must be in [{STEP_RANGE[0]:g}, {STEP_RANGE[1]:g}]"
    if name == "tol_branch" and value > TOL_BRANCH_MAX:
        return f"must be at most {TOL_BRANCH_MAX:g}"
    return None


def require_settings(settings: dict, label=str) -> None:
    """Raise SchemaError, naming label(name), for the first name: value out of bounds."""
    for name, value in settings.items():
        if problem := setting_problem(name, value):
            raise SchemaError(f"{label(name)} {problem}")
