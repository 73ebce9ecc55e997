"""Only typed errors leave the library.

`classify` and `check_preservation` are called with any values for the
`ClassifyConfig` fields (integers, floats, bools, numpy scalars, strings,
NaN, infinities and numbers past every bound) on generated symmetries,
adversaries and random specs of the expression language. Each call must
return a result or raise a `WignerError` whose exit code is the one the
README's exit-code table gives for its report code: no other exception,
and no warning (the suite turns warnings into errors). So must a call of
a complex or real map on any point, or with an evaluator that returns any
value, and `align_global_phase`, `make_symmetry` and a compiled `mat(U)`
spec on any matrix operand.

Separately, a bad setting given to any public entry point is refused with
`SchemaError` before the map is evaluated at all.
"""

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import wigner as wg
from wigner import dsl
from wigner.errors import MAX_DRESSING_DEGREE, SchemaError, WignerError
from wigner.generators import ADVERSARY_KINDS, SYMMETRY_KINDS
from wigner.mazurulam import RealTransformation

from test_dsl_properties import MATRIX_NAMES, trees


def readme_exit_codes() -> dict[str, int]:
    """Report code -> exit code, read off the README's exit-code table."""
    table = {}
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    for exit_code, codes in re.findall(r"^\| ([12]) \|[^|]*\|([^\n]*)\|$", readme, re.MULTILINE):
        for code in re.findall(r"`([a-z_]+)`", codes):
            table[code] = int(exit_code)
    return table


EXIT_CODES = readme_exit_codes()
FIELDS = tuple(f.name for f in dataclasses.fields(wg.ClassifyConfig))
TREES = {n: trees(n) for n in (1, 2, 3)}

SURFACE_SETTINGS = settings(max_examples=150, deadline=None, database=None)

setting_values = st.one_of(
    st.integers(-3, 60),
    st.integers(0, 60).map(np.int64),
    st.floats(),  # NaN and the infinities included
    st.floats(1e-9, 0.2),  # about the step and tolerance bounds
    st.floats(1e-9, 0.2).map(np.float64),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.text(max_size=2),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, 10**30, 0, 10_001]),
)


# anything a caller might hand over as a point: numbers and arrays of any
# shape, numbers past every float, and values that are not numbers at all
point_entries = st.one_of(
    st.complex_numbers(),  # NaN and the infinities included
    st.floats(),
    st.integers(-(10**400), 10**400),
    st.text(max_size=2),
    st.none(),
)
points = st.one_of(
    point_entries,
    st.binary(max_size=2),
    st.builds(object),
    st.lists(point_entries, max_size=9),
    st.lists(st.lists(st.complex_numbers(max_magnitude=2.0), max_size=3), max_size=3),  # ragged or a batch
    st.dictionaries(st.text(max_size=1), st.integers(), max_size=2),
)


@st.composite
def maps(draw):
    """A generated symmetry, an adversary or a compiled random spec."""
    family = draw(st.sampled_from(("symmetry", "adversary", "spec")))
    seed = draw(st.integers(0, 2**16))
    if family == "symmetry":
        n = draw(st.integers(1, 8))
        degree = draw(st.integers(0, MAX_DRESSING_DEGREE))
        dressing = wg.DressingSpec.random(n, degree, seed) if degree else None
        return wg.make_symmetry(draw(st.sampled_from(SYMMETRY_KINDS)), wg.haar_unitary(n, seed), dressing)
    if family == "adversary":
        kind = draw(st.sampled_from(ADVERSARY_KINDS))
        n = draw(st.integers(2 if kind in ("shear", "rank_deficient") else 1, 8))
        return wg.make_adversary(kind, n, seed)
    n = draw(st.sampled_from(sorted(TREES)))
    spec = dsl.TransformSpec(n, tuple(draw(TREES[n]) for _ in range(n)))
    rng = np.random.default_rng(seed)
    constants = {
        name: rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for name in MATRIX_NAMES
    }
    return dsl.compile_to_transformation(spec, constants)


def assert_typed(exc: WignerError) -> None:
    assert EXIT_CODES[exc.code] == exc.exit_code, f"{exc.code}: {exc}"


def test_readme_table_covers_every_error_type():
    import wigner.errors as errs

    defined = {
        obj.code: obj.exit_code
        for obj in vars(errs).values()
        if isinstance(obj, type) and issubclass(obj, WignerError)
    }
    defined.pop("analysis_error")  # the base class, never raised itself
    assert {code: EXIT_CODES[code] for code in defined} == defined


@SURFACE_SETTINGS
@given(maps(), st.dictionaries(st.sampled_from(FIELDS), setting_values, max_size=3))
def test_any_settings_give_a_result_or_a_typed_error(transform, values):
    defaults = wg.ClassifyConfig()
    samples, seed, tol = (values.get(name, getattr(defaults, name)) for name in ("samples", "seed", "tol_preserve"))
    try:
        report = wg.check_preservation(transform, samples, seed, tol)
    except WignerError as exc:
        assert_typed(exc)
    else:
        # a failed special pair ends the listing before the random pairs
        specials = transform.dimension + (4 if transform.dimension >= 2 else 3)
        assert report.pairs_tested in (specials, specials + samples)
        assert report.passed <= (report.pairs_tested == specials + samples)
    try:
        result = wg.classify(transform, wg.ClassifyConfig(**values))
    except WignerError as exc:
        assert_typed(exc)
    else:
        assert result.branch in (wg.LINEAR, wg.ANTILINEAR)


@st.composite
def real_maps(draw):
    """An orthogonal map on R^n, or a complex map read as a real one, as
    `wigner mazur-ulam` reads a compiled spec."""
    if draw(st.booleans()):
        n, vectorized = draw(st.integers(1, 8)), draw(st.booleans())
        q = wg.haar_orthogonal(n, draw(st.integers(0, 2**16)))
        return RealTransformation(lambda u: u @ q.T, n, vectorized=vectorized)
    transform = draw(maps())
    return RealTransformation(transform, transform.dimension, vectorized=True)


@SURFACE_SETTINGS
@given(st.one_of(maps(), real_maps()), points)
def test_any_point_gives_an_image_or_a_typed_error(transform, point):
    for call in (transform, lambda z: wg.origin_phase(transform, z)):
        try:
            call(point)
        except WignerError as exc:
            assert_typed(exc)


def images(shape):
    """Anything an evaluator might return for points of `shape`."""
    return st.one_of(
        points,
        st.lists(st.complex_numbers(), min_size=shape[-1], max_size=shape[-1]).map(np.array),
        st.builds(np.full, st.just(shape), st.complex_numbers(max_magnitude=2.0)),
        st.sampled_from(["1", complex(1, math.nan), np.full(shape, 1 + 1e-12j)]),
    )


@SURFACE_SETTINGS
@given(st.sampled_from((wg.Transformation, RealTransformation)), st.data())
def test_any_image_gives_an_image_or_a_typed_error(kind, data):
    n, vectorized = data.draw(st.integers(1, 3)), data.draw(st.booleans())
    for shape in ((n,), (2, n)):
        image = data.draw(images(shape if vectorized else (n,)))
        transform = kind(lambda z: image, n, vectorized=vectorized)
        try:
            out = transform(np.ones(shape))
        except WignerError as exc:
            assert_typed(exc)
        else:
            assert out.shape == shape and out.dtype == kind.dtype and np.isfinite(out).all()


# numbers no finite matrix check may leave to numpy: NaN, the infinities
# and entries near 1e200, whose products overflow
extreme_entries = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, complex(0, -math.inf), complex(math.nan, 1)]),
    st.builds(complex, *[st.floats(1e199, 1e201) | st.floats(-1e201, -1e199)] * 2),
    st.complex_numbers(max_magnitude=2.0),
)
matrix_shapes = st.one_of(
    st.integers(1, 3).map(lambda n: (n, n)),
    array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
)
matrix_operands = st.one_of(arrays(np.complex128, matrix_shapes, elements=extreme_entries), points)


@SURFACE_SETTINGS
@given(matrix_operands, st.sampled_from(SYMMETRY_KINDS))
def test_any_matrix_operand_gives_a_result_or_a_typed_error(operand, kind):
    try:
        shape = np.shape(operand)
    except ValueError:  # a ragged list
        shape = ()
    n = shape[0] if len(shape) == 2 and shape[0] else 2
    spec = dsl.parse(f"dim {n};" + "".join(f" T{k} = mat(U);" for k in range(1, n + 1)))
    calls = (
        lambda: wg.align_global_phase(operand, np.ones(shape)),
        lambda: wg.align_global_phase(np.ones(shape), operand),
        lambda: wg.make_symmetry(kind, operand),
        lambda: dsl.compile_to_transformation(spec, {"U": operand})(np.ones(n)),
    )
    for call in calls:
        try:
            call()
        except WignerError as exc:
            assert_typed(exc)


REFUSED = {
    "check_preservation-tol-nan": lambda t, r: wg.check_preservation(t, 5, 0, math.nan),
    "check_preservation-seed--1": lambda t, r: wg.check_preservation(t, 5, -1, 1e-8),
    "check_isometry-tol-nan": lambda t, r: wg.check_isometry(r, 5, 0, math.nan),
    "check_isometry-pairs-0": lambda t, r: wg.check_isometry(r, 0, 0, 1e-8),
    "reconstruct_orthogonal-tol-nan": lambda t, r: wg.reconstruct_orthogonal(r, tol=math.nan),
    "wirtinger_jacobian-step-0": lambda t, r: wg.wirtinger_jacobian(t, np.zeros(2), 0.0),
    "wirtinger_jacobian-step-nan": lambda t, r: wg.wirtinger_jacobian(t, np.zeros(2), math.nan),
    "wirtinger_jacobian-step-inf": lambda t, r: wg.wirtinger_jacobian(t, np.zeros(2), math.inf),
    "richardson_refine-levels-9": lambda t, r: wg.richardson_refine(t, np.zeros(2), 1e-3, 9),
    "richardson_refine-step-0": lambda t, r: wg.richardson_refine(t, np.zeros(2), 0.0, 1),
    "analyticity_test-tol-0": lambda t, r: wg.analyticity_test(t, [np.zeros(2)], 0.0),
    "analyticity_test-tol-nan": lambda t, r: wg.analyticity_test(t, [np.zeros(2)], math.nan),
    "classify-seed-bool": lambda t, r: wg.classify(t, wg.ClassifyConfig(seed=True)),
    "haar_unitary-seed--1": lambda t, r: wg.haar_unitary(2, -1),
    "haar_unitary-seed-1.5": lambda t, r: wg.haar_unitary(2, 1.5),
    "haar_unitary-n-1.5": lambda t, r: wg.haar_unitary(1.5, 1),
    "haar_orthogonal-seed--1": lambda t, r: wg.haar_orthogonal(2, -1),
    "make_adversary-seed--1": lambda t, r: wg.make_adversary("shear", 2, -1),
    "DressingSpec.random-seed--1": lambda t, r: wg.DressingSpec.random(2, 1, -1),
    "DressingSpec.random-degree-bool": lambda t, r: wg.DressingSpec.random(2, True, 1),
    "extract_theta-preserve_tol-nan": lambda t, r: wg.extract_theta(
        t, np.ones(2), np.ones(2), preserve_tol=math.nan
    ),
    "verify_theta_antisymmetry-pairs-empty": lambda t, r: wg.verify_theta_antisymmetry(
        t, [], tol=1e-8
    ),
    "verify_theta_antisymmetry-tol-nan": lambda t, r: wg.verify_theta_antisymmetry(
        t, [(np.ones(2), np.ones(2))], tol=math.nan
    ),
    "analyticity_test-tol-str": lambda t, r: wg.analyticity_test(t, [np.zeros(2)], "a"),
    "wirtinger_jacobian-step-str": lambda t, r: wg.wirtinger_jacobian(t, np.zeros(2), "1e-5"),
    "extract_theta-preserve_tol-None": lambda t, r: wg.extract_theta(
        t, np.ones(2), np.ones(2), preserve_tol=None
    ),
    "verify_theta_antisymmetry-tol-str": lambda t, r: wg.verify_theta_antisymmetry(
        t, [(np.ones(2), np.ones(2))], tol="x"
    ),
    "richardson_refine-levels-1.5": lambda t, r: wg.richardson_refine(t, np.zeros(2), 1e-5, 1.5),
    "richardson_refine-levels-bool": lambda t, r: wg.richardson_refine(t, np.zeros(2), 1e-5, True),
    "richardson_refine-levels--1": lambda t, r: wg.richardson_refine(t, np.zeros(2), 1e-5, -1),
    "gauge_fix-seed--1": lambda t, r: wg.gauge_fix(t, seed=-1),
    "gauge_fix-seed-1.5": lambda t, r: wg.gauge_fix(t, seed=1.5),
    "gauge_fix-preserve_tol-str": lambda t, r: wg.gauge_fix(t, preserve_tol="x"),
    "gauge_fix-preserve_tol-nan": lambda t, r: wg.gauge_fix(t, preserve_tol=math.nan),
    "Transformation-dimension-str": lambda t, r: wg.Transformation(t.evaluator, "2"),
    "random_state-dim-str": lambda t, r: wg.random_state("a", np.random.default_rng(0)),
    "random_state-shape-str": lambda t, r: wg.random_state(2, np.random.default_rng(0), "x"),
    "random_state-shape-list": lambda t, r: wg.random_state(2, np.random.default_rng(0), [2]),
    "random_state-shape--1": lambda t, r: wg.random_state(2, np.random.default_rng(0), (2, -1)),
    "random_state-shape-float": lambda t, r: wg.random_state(2, np.random.default_rng(0), (2.0,)),
    "as_state-str": lambda t, r: wg.as_state("ab"),
    "align_global_phase-str": lambda t, r: wg.align_global_phase("ab", "cd"),
}


@pytest.mark.parametrize("call", REFUSED.values(), ids=REFUSED)
def test_bad_setting_is_refused_before_any_evaluation(call):
    points = []

    def identity(z):
        points.append(len(z))
        return z

    complex_map = wg.Transformation(identity, 2, vectorized=True)
    real_map = RealTransformation(identity, 2, vectorized=True)
    with pytest.raises(SchemaError):
        call(complex_map, real_map)
    assert points == []
