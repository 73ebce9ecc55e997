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
"""

import re


class WignerError(Exception):
    """Base class for every error raised by this package."""

    code = "analysis_error"
    exit_code = 2

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report

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
    """A map used in the real (Euclidean) analysis returned complex output."""

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
    """A JSON input file (constants, manifest) violates its schema."""

    exit_code = 1
