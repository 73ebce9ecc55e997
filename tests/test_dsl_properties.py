"""Properties of the expression language on random, bounded trees.

The strategy draws specs of dimension 1-3 whose trees use every node
kind: literals the parser can produce, variables, `mat(NAME)`, `norm2()`,
every one-argument function, unary minus and all four operators,
including `/`. Points lie in the unit polydisc. Compiled values are
checked against `tests/oracles.py`, which evaluates each tree on its own,
one point at a time, in Python complex arithmetic.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

import wigner as wg
from wigner import dsl
from wigner.errors import DivisionNearZero, NonFiniteEvaluation

from oracles import jacobian_oracle, subterm_values, value_oracle

MATRIX_NAMES = ("A", "B")
UNARY = tuple(name for name in dsl.FUNCTIONS if name != "norm2")
# beyond this subterm modulus, roundoff and stencil error swamp the tolerances
MAX_SCALE = 1e3

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, database=None)

magnitudes = st.floats(0.0, 3.0, allow_nan=False, allow_infinity=False).map(abs)
literals = st.one_of(
    magnitudes.map(lambda x: dsl.Literal(complex(x, 0.0))),
    magnitudes.map(lambda x: dsl.Literal(complex(0.0, x))),
    st.just(dsl.Literal(1j)),
)


def trees(n: int):
    leaves = st.one_of(
        literals,
        st.integers(1, n).map(dsl.Var),
        st.sampled_from(MATRIX_NAMES).map(dsl.MatApply),
        st.just(dsl.Call("norm2", ())),
    )

    def extend(children):
        return st.one_of(
            children.map(dsl.Neg),
            st.builds(dsl.BinOp, st.sampled_from("+-*/"), children, children),
            st.builds(lambda func, arg: dsl.Call(func, (arg,)), st.sampled_from(UNARY), children),
        )

    return st.recursive(leaves, extend, max_leaves=8)


TREES = {n: trees(n) for n in (1, 2, 3)}


@st.composite
def cases(draw):
    """(spec, constants, points): a random spec with its matrices and 1-6 points."""
    n = draw(st.sampled_from(sorted(TREES)))
    outputs = tuple(draw(TREES[n]) for _ in range(n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    constants = {
        name: rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for name in MATRIX_NAMES
    }
    m = draw(st.integers(1, 6))
    radius = rng.uniform(0.0, 1.0, (m, n))
    points = radius * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, (m, n)))
    return dsl.TransformSpec(n, outputs), constants, points


def evaluate_or_none(transform, z):
    """transform(z), or None when the image is not finite."""
    try:
        return transform(z)
    except NonFiniteEvaluation:
        return None


@PROPERTY_SETTINGS
@given(cases())
def test_print_parse_round_trip(case):
    spec, _, _ = case
    reparsed = dsl.parse(dsl.pretty_print(spec))
    assert reparsed.dimension == spec.dimension
    assert reparsed.outputs == spec.outputs


@PROPERTY_SETTINGS
@given(cases())
def test_compiled_values_match_oracle(case):
    spec, constants, points = case
    transform = dsl.compile_to_transformation(spec, constants)
    for z in points:
        try:
            with np.errstate(all="ignore"):
                want = value_oracle(spec, z, constants)
                scale = max(abs(v) for _, _, v in subterm_values(spec, z, constants))
        except DivisionNearZero:
            try:
                transform(z)
            except DivisionNearZero:
                continue
            raise AssertionError("the oracle divides by zero, the compiled map does not")
        except (OverflowError, ZeroDivisionError):
            continue  # cmath overflows where numpy returns Inf
        if not np.isfinite(want).all():
            continue
        got = evaluate_or_none(transform, z)
        assume(got is not None and scale <= MAX_SCALE)
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, scale)


@PROPERTY_SETTINGS
@given(cases())
def test_batch_rows_equal_single_points(case):
    """Each row of a batch equals that point sent as a batch of one, bit for bit.

    A lone (n,) point is not compared bit for bit: its subterms are numpy
    scalars, and a Python literal meeting one divides with Python's complex
    arithmetic, which rounds differently from numpy's array loop (the
    oracle test covers that path).
    """
    spec, constants, points = case
    transform = dsl.compile_to_transformation(spec, constants)
    try:
        batch = transform.evaluator(points)
    except DivisionNearZero:
        return  # some row divides by zero; the per-point check is the oracle test's
    single = np.concatenate([transform.evaluator(points[i : i + 1]) for i in range(len(points))])
    if spec.matrix_names and spec.dimension > 1:
        # BLAS rounds a matrix product of one row (gemv) and of a batch (gemm)
        # differently; every other step is elementwise and must match exactly
        assert np.allclose(batch, single, rtol=1e-13, atol=0.0, equal_nan=True)
    else:
        assert batch.tobytes() == single.tobytes()


@PROPERTY_SETTINGS
@given(cases())
def test_each_output_alone_equals_its_column(case):
    spec, constants, points = case
    try:
        joint = dsl.compile_to_transformation(spec, constants).evaluator(points)
    except DivisionNearZero:
        return
    zero = dsl.Literal(0j)
    for k, tree in enumerate(spec.outputs):
        alone = tuple(tree if j == k else zero for j in range(spec.dimension))
        transform = dsl.compile_to_transformation(
            dsl.TransformSpec(spec.dimension, alone), constants
        )
        try:
            column = transform.evaluator(points)[:, k]
        except DivisionNearZero:
            raise AssertionError(f"T{k + 1} alone divides by zero, the joint program does not")
        assert column.tobytes() == joint[:, k].tobytes()


@PROPERTY_SETTINGS
@given(cases())
def test_jacobian_matches_forward_mode_oracle(case):
    spec, constants, points = case
    z = points[0]
    try:
        with np.errstate(all="ignore"):
            values = subterm_values(spec, z, constants)
            d_z, d_zbar = jacobian_oracle(spec, z, constants)
    except (DivisionNearZero, OverflowError, ZeroDivisionError):
        assume(False)
    value = {(k, id(node)): v for k, node, v in values}
    scale = max(abs(v) for v in value.values())
    # the stencil's 1e-5 steps must stay well clear of every pole
    pole = min(
        (abs(value[k, id(node.right)]) for k, node, _ in values
         if isinstance(node, dsl.BinOp) and node.op == "/"),
        default=np.inf,
    )
    assume(scale <= 1e2 and pole >= 0.1)
    numeric = wg.wirtinger_jacobian(dsl.compile_to_transformation(spec, constants), z)
    tol = 1e-6 * max(1.0, scale, np.abs(d_z).max(), np.abs(d_zbar).max())
    assert np.abs(numeric.d_z - d_z).max() <= tol
    assert np.abs(numeric.d_zbar - d_zbar).max() <= tol
