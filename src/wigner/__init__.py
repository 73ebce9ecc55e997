"""Decide whether a smooth probability-preserving transformation on C^n is
unitary-linear or antiunitary-antilinear, and reconstruct the operator.

The pipeline: sample the modulus-preservation condition, fix the phase
gauge so the residual phase against the origin vanishes, read the
operator off the Wirtinger Jacobian at the origin, and verify unitarity,
global reconstruction and Jacobian constancy. The real Euclidean
analogue (orthogonal matrix recovery for scalar-product-preserving maps)
ships alongside, as do a small expression language for defining
transformations in text files and deterministic instance generators for
fuzzing.
"""

from . import errors
from .classifier import (
    ANTILINEAR,
    CAVEAT_N1,
    LINEAR,
    ClassificationResult,
    ClassifyConfig,
    PhaseAlignment,
    PreservationReport,
    align_global_phase,
    check_preservation,
    classify,
)
from .dsl import (
    TransformSpec,
    compile_to_transformation,
    evaluate,
    load_constants,
    parse,
    pretty_print,
)
from .gauge import (
    GaugeFixedTransformation,
    angle_distance,
    extract_theta,
    gauge_fix,
    origin_phase,
    verify_theta_antisymmetry,
    wrap_angle,
)
from .generators import (
    DressingSpec,
    default_manifest,
    haar_orthogonal,
    haar_unitary,
    make_adversary,
    make_symmetry,
    transformation_from_entry,
    validate_manifest,
)
from .mazurulam import (
    OrthogonalReconstruction,
    RealTransformation,
    check_isometry,
    reconstruct_orthogonal,
)
from .states import Transformation, as_state, random_state, zero_state
from .wirtinger import (
    AnalyticityReport,
    WirtingerJacobian,
    analyticity_test,
    real_jacobian,
    richardson_refine,
    wirtinger_jacobian,
)

__version__ = "0.1.0"
