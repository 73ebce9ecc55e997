import cmath
import pathlib

import numpy as np
import pytest

import wigner as wg
from wigner import dsl
from wigner.errors import (
    DimensionMismatch,
    DivisionNearZero,
    ParseError,
    SchemaError,
    UnknownIdentifier,
    UnknownMatrix,
)

from oracles import jacobian_oracle

CORPUS = pathlib.Path(__file__).parent / "corpus"
CORPUS_FILES = sorted(CORPUS.glob("*.wig"))
CONSTANTS = dsl.load_constants(CORPUS / "constants.json")


def uses_conjugation(spec) -> bool:
    """True when any node of `spec` can couple to the conjugated input."""
    return any(
        isinstance(node, dsl.Call) and node.func in ("conj", "re", "im", "abs2", "norm2")
        for out in spec.outputs
        for node in dsl.walk(out)
    )


# canonical form of a representative file, frozen byte for byte
GOLDEN_SOURCE = "dim 2;\nT1 = conj(z2) * (1.0 + 2.0i);\nT2 = -z1 / (0.5 - im(z2));\n"


def test_parse_conjugation_structure():
    spec = dsl.parse("dim 2; T1 = conj(z1); T2 = conj(z2);")
    assert spec.dimension == 2
    assert spec.outputs == (
        dsl.Call("conj", (dsl.Var(1),)),
        dsl.Call("conj", (dsl.Var(2),)),
    )
    assert uses_conjugation(spec)


def test_parse_phase_dressed_structure():
    spec = dsl.parse("dim 1; T1 = expi(norm2()) * z1;")
    (out,) = spec.outputs
    assert out == dsl.BinOp("*", dsl.Call("expi", (dsl.Call("norm2", ()),)), dsl.Var(1))


def test_dangling_operator_reports_position():
    with pytest.raises(ParseError) as err:
        dsl.parse("dim 2; T1 = z1 + ;")
    assert err.value.line == 1
    assert err.value.column == 18
    assert err.value.expected


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier):
        dsl.parse("dim 1; T1 = q7;")


def test_variable_out_of_range():
    with pytest.raises(UnknownIdentifier):
        dsl.parse("dim 2; T1 = z3; T2 = z1;")


def test_output_count_mismatch():
    with pytest.raises(DimensionMismatch):
        dsl.parse("dim 2; T1 = z1;")


def test_duplicate_output():
    with pytest.raises(ParseError):
        dsl.parse("dim 1; T1 = z1; T1 = z1;")


def test_output_index_out_of_range():
    with pytest.raises(DimensionMismatch):
        dsl.parse("dim 1; T1 = z1; T2 = z1;")


def test_evaluate_conjugation():
    spec = dsl.parse("dim 2; T1 = conj(z1); T2 = conj(z2);")
    out = dsl.evaluate(spec, np.array([1 + 2j, 3 + 0j]))
    assert np.array_equal(out, np.array([1 - 2j, 3 - 0j]))


def test_evaluate_permutation_matrix():
    spec = dsl.parse("dim 2; T1 = mat(U); T2 = mat(U);")
    out = dsl.evaluate(spec, np.array([5 + 1j, 7 - 2j]), CONSTANTS)
    assert np.abs(out - np.array([7 - 2j, 5 + 1j])).max() < 1e-15


def test_evaluate_expi_literal_point():
    spec = dsl.parse("dim 1; T1 = expi(re(z1)) * z1;")
    out = dsl.evaluate(spec, np.array([2.0 + 0j]))
    expected = cmath.exp(2j) * 2.0  # -0.832294 + 1.818595i
    assert abs(out[0] - expected) < 1e-12
    assert abs(out[0] - complex(-0.8322936730942848, 1.8185948536513634)) < 1e-12


def test_complex_literal_sugar():
    spec = dsl.parse("dim 1; T1 = (1+2i) * z1;")
    out = dsl.evaluate(spec, np.array([3.0 + 0j]))
    assert out[0] == (1 + 2j) * 3.0


def test_division_near_zero():
    spec = dsl.parse("dim 1; T1 = z1 / (z1 - z1);")
    with pytest.raises(DivisionNearZero):
        dsl.evaluate(spec, np.array([1.0 + 0j]))
    # a divisor of modulus exactly 1e-300 is not below the floor
    out = dsl.evaluate(dsl.parse("dim 1; T1 = z1 / 1e-300;"), np.array([2.0 + 0j]))
    assert out[0] == pytest.approx(2e300)


def test_unknown_matrix_at_compile():
    cases = [
        ("dim 2; T1 = mat(W); T2 = z2;", CONSTANTS, "W"),
        # matrices resolve in sorted-name order, not in the order first used
        ("dim 2; T1 = mat(B); T2 = mat(A);", None, "A"),
    ]
    for source, constants, name in cases:
        spec = dsl.parse(source)
        with pytest.raises(UnknownMatrix) as err:
            dsl.compile_to_transformation(spec, constants)
        assert str(err.value) == f"matrix {name!r} not found in constants"


@pytest.mark.parametrize("constants", ["U", 3, [], np.eye(1)])
def test_constants_that_are_not_a_mapping_are_a_schema_error(constants):
    spec = dsl.parse("dim 1; T1 = mat(U);")
    with pytest.raises(SchemaError) as err:
        dsl.compile_to_transformation(spec, constants)
    assert str(err.value) == "constants must be a mapping of matrix names to matrices"
    assert err.value.exit_code == 1


def test_matrix_shape_checked():
    spec = dsl.parse("dim 1; T1 = mat(U);")
    with pytest.raises(DimensionMismatch):
        dsl.compile_to_transformation(spec, CONSTANTS)


def test_compiled_specs_classify_downstream():
    conj = dsl.compile_to_transformation(dsl.parse("dim 2; T1 = conj(z1); T2 = conj(z2);"))
    assert wg.classify(conj).branch == "antilinear"
    ident = dsl.compile_to_transformation(dsl.parse("dim 2; T1 = z1; T2 = z2;"))
    result = wg.classify(ident)
    assert result.branch == "linear"
    assert np.abs(result.operator - np.eye(2)).max() < 1e-9


def test_compiled_matches_manual_matvec():
    spec = dsl.parse("dim 2; T1 = mat(V); T2 = mat(V);")
    transform = dsl.compile_to_transformation(spec, CONSTANTS)
    v = CONSTANTS["V"]
    rng = np.random.default_rng(3)
    for _ in range(10):
        z = wg.random_state(2, rng)
        assert np.abs(transform(z) - v @ z).max() < 1e-12


def test_compiled_evaluator_computes_in_complex_arithmetic_on_real_points():
    # numpy's complex division rounds unlike its real one, so a real point
    # must be divided as the complex point it stands for
    evaluator = dsl.compile_to_transformation(dsl.parse("dim 2; T1 = z1 / z2; T2 = z2;")).evaluator
    x = np.random.default_rng(0).standard_normal((200, 2))
    assert np.array_equal(evaluator(x), evaluator(x.astype(complex)))


def test_parse_constant():
    assert dsl.parse_constant("1+2i") == 1 + 2j
    assert dsl.parse_constant("-i") == -1j
    assert dsl.parse_constant("2.5e-3") == 2.5e-3
    with pytest.raises(ParseError):
        dsl.parse_constant("z1")


def test_golden_canonical_form():
    spec = dsl.parse(GOLDEN_SOURCE)
    assert dsl.pretty_print(spec) == GOLDEN_SOURCE


@pytest.mark.parametrize(
    "expression", ["z1 - z1 - z1", "z1 / z1 * z1", "z1 + z1 * z1 - z1", "-z1 * z1", "z1 - -z1 / z1"]
)
def test_left_nested_chain_prints_back_unchanged(expression):
    # the printer brackets a right operand of equal precedence, so an
    # unbracketed chain prints back as itself only if it parsed left-nested
    tree = dsl.parse(f"dim 1; T1 = {expression};").outputs[0]
    assert dsl.format_expression(tree) == expression


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_print_parse_round_trip(path):
    spec = dsl.parse(path.read_text())
    printed = dsl.pretty_print(spec)
    reparsed = dsl.parse(printed)
    assert reparsed.dimension == spec.dimension
    assert reparsed.outputs == spec.outputs
    # canonical form is a fixed point
    assert dsl.pretty_print(reparsed) == printed


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_corpus_jacobians_match_symbolic_oracle(path):
    spec = dsl.parse(path.read_text())
    transform = dsl.compile_to_transformation(spec, CONSTANTS)
    rng = np.random.default_rng(len(path.name))
    for _ in range(5):
        z = wg.random_state(spec.dimension, rng)
        numeric = wg.wirtinger_jacobian(transform, z)
        d_z, d_zbar = jacobian_oracle(spec, z, CONSTANTS)
        assert np.abs(numeric.d_z - d_z).max() < 1e-6
        assert np.abs(numeric.d_zbar - d_zbar).max() < 1e-6


def test_analytic_fragment_passes_analyticity():
    rng = np.random.default_rng(23)
    for path in CORPUS_FILES:
        if not path.name.startswith("analytic_"):
            continue
        spec = dsl.parse(path.read_text())
        assert not uses_conjugation(spec)
        transform = dsl.compile_to_transformation(spec, CONSTANTS)
        points = [wg.random_state(spec.dimension, rng) for _ in range(20)]
        assert wg.analyticity_test(transform, points, tol=1e-6).analytic


def test_conjugating_specs_fail_analyticity():
    rng = np.random.default_rng(29)
    for path in CORPUS_FILES:
        if not path.name.startswith("nonanal_"):
            continue
        spec = dsl.parse(path.read_text())
        assert uses_conjugation(spec)
        transform = dsl.compile_to_transformation(spec, CONSTANTS)
        points = [wg.random_state(spec.dimension, rng) for _ in range(20)]
        report = wg.analyticity_test(transform, points, tol=1e-6)
        assert not any(report.per_point)


def test_constants_schema_errors(tmp_path):
    bad = tmp_path / "c.json"
    bad.write_text('{"U": [[1, 2], [3, 4]]}')
    with pytest.raises(SchemaError) as err:
        dsl.load_constants(bad)
    assert str(err.value) == "matrix 'U' must be rows of [re, im] entries, got shape (2, 2)"
    bad.write_text("not json")
    with pytest.raises(SchemaError):
        dsl.load_constants(bad)
    # a matrix's finiteness is checked where a spec reads it, and only there
    for entry in ("NaN", "Infinity", "-Infinity"):
        bad.write_text('{"W": [[[1, 0]]], "U": [[[%s, 0]]]}' % entry)
        constants = dsl.load_constants(bad)
        dsl.compile_to_transformation(dsl.parse("dim 1; T1 = mat(W);"), constants)
        with pytest.raises(SchemaError) as err:
            dsl.compile_to_transformation(dsl.parse("dim 1; T1 = mat(U);"), constants)
        assert str(err.value) == "matrix 'U' has a non-finite entry"


def test_shared_vanishing_divisor_reports_first_output():
    # T2 is written first, but T1 is evaluated first: its division is the
    # one that raises, as it was when every output was its own tree
    source = "dim 2;\nT2 = z2 + 1 / (z1 - z1);\nT1 = z1 + 1 / (z1 - z1);\n"
    with pytest.raises(DivisionNearZero) as err:
        dsl.evaluate(dsl.parse(source), np.array([1.0 + 0j, 2.0 + 0j]))
    assert (err.value.line, err.value.column) == (3, 13)
    assert str(err.value) == "3:13: divisor modulus below 1e-300"


def test_shared_phase_reads_each_row_of_mat():
    spec = dsl.parse("dim 3;\n" + "".join(f"T{k} = expi(re(z1)) * mat(U);\n" for k in (1, 2, 3)))
    u = np.arange(9).reshape(3, 3) + 1j * np.arange(9, 18).reshape(3, 3)
    z = np.array([0.3 + 0.1j, -0.2 + 0.5j, 0.7 - 0.4j])
    out = dsl.evaluate(spec, z, {"U": u})
    assert np.abs(out - np.exp(0.3j) * (u @ z)).max() < 1e-13
    assert len(set(out.tolist())) == 3


def positions(spec) -> list:
    """The (line, column) of every node, output by output, in walk order."""
    return [[node.pos for node in dsl.walk(out)] for out in spec.outputs]


PHASE_AT = "expi(re(z1)) * mat(U)"


@pytest.mark.parametrize(
    "source, want",
    [
        pytest.param(
            "dim 10;\n" + "".join(f"T{k} = z{k};\n" for k in range(1, 9))
            + f"T9 = {PHASE_AT};\nT10 = {PHASE_AT};\n",
            [[(k + 1, 6)] for k in range(1, 9)]
            + [[(10, 19), (10, 6), (10, 11), (10, 14), (10, 21)],
               [(11, 20), (11, 7), (11, 12), (11, 15), (11, 22)]],
            id="T9_to_T10_moves_one_column",
        ),
        pytest.param(
            "dim 2;\nT1 = z1 *\n  sin(z2);  T2 = z1 *\n  sin(z2);\n",
            [[(2, 9), (2, 6), (3, 3), (3, 7)], [(3, 21), (3, 18), (4, 3), (4, 7)]],
            id="spanning_two_lines",
        ),
        pytest.param(
            "dim 2;\r\nT1 = expi(re(z1)) *\r\n mat(U);\r\nT2 = expi(re(z1)) *\r\n mat(U);\r\n",
            [[(2, 19), (2, 6), (2, 11), (2, 14), (3, 2)], [(4, 19), (4, 6), (4, 11), (4, 14), (5, 2)]],
            id="crlf_line_ends",
        ),
        # the text up to the first ';' ends inside the comment, where no
        # parse stopped: T2 is parsed again, not reused
        pytest.param(
            "dim 2;\nT1 = z1 # ; here\n + z2;\nT2 = z1 # ; here\n + z2;\n",
            [[(3, 2), (2, 6), (3, 4)], [(5, 2), (4, 6), (5, 4)]],
            id="semicolon_in_a_comment",
        ),
    ],
)
def test_repeated_right_hand_side_keeps_each_nodes_position(source, want):
    spec = dsl.parse(source)
    assert positions(spec) == want
    assert spec.outputs[-1] == spec.outputs[-2]


def without_repeats(source: str) -> str:
    """`source`, one output a line, with a distinct comment ending each
    right-hand side: no two are the same text, so each is parsed anew."""
    lines = source.splitlines(keepends=True)
    return "".join(
        line.replace(";", f" # {k}\n;") if line.startswith("T") else line
        for k, line in enumerate(lines)
    )


def dressed(n: int) -> str:
    """exp(i alpha(z)) U z on C^n, the phase repeated in every output."""
    phase = f"0.1*re(z1) - 0.2*im(z{n}) + 0.3*re(z{n // 2})*im(z2)"
    return f"dim {n};\n" + "".join(f"T{k} = expi({phase}) * mat(U);\n" for k in range(1, n + 1))


@pytest.mark.parametrize(
    "source",
    [path.read_text(encoding="utf-8") for path in CORPUS_FILES] + [dressed(8), dressed(64)],
    ids=[path.stem for path in CORPUS_FILES] + ["dressed_n8", "dressed_n64"],
)
def test_reused_trees_equal_trees_parsed_anew(source):
    spec, reference = dsl.parse(source), dsl.parse(without_repeats(source))
    assert spec.outputs == reference.outputs
    # output k of the reference stands k - 1 comment lines further down
    moved = [[(line + k, column) for line, column in out] for k, out in enumerate(positions(spec))]
    assert moved == positions(reference)


@pytest.mark.parametrize(
    "expression, column",
    [
        (" + ".join(["0.001*z1"] * 1200), 5 + 98 * 11 + 10),  # the 99th '+'
        ("(" * 400 + "z1" + ")" * 400, 5 + 100),  # the 100th '('
        ("-" * 1200 + "z1", 5 + 100),  # the 100th '-'
        # mixed precedences and groups count against the same limit
        (" + ".join(["z1*z1"] * 200), 796),
        (" - ".join(["z1/z1*z1"] * 120), 1082),
        ("*".join(["(z1 - z1)"] * 150), 985),
        (" + ".join(["-z1*sin(z1)"] * 150), 1376),
    ],
    ids=[
        "long_sum", "nested_parentheses", "chained_minus",
        "sum_of_products", "difference_of_quotients", "product_of_groups", "sum_of_negated_products",
    ],
)
def test_too_deep_expression_is_refused_at_its_token(expression, column):
    with pytest.raises(ParseError) as err:
        dsl.parse(f"dim 1;\nT1 = {expression};\n")
    assert (err.value.line, err.value.column) == (2, column)
    assert f"deeper than {dsl.MAX_DEPTH}" in str(err.value)


def nest_to(depth: int, kind: str) -> str:
    """An expression `depth` levels deep, built from one kind of nesting."""
    if kind == "sum":
        return " + ".join(["z1"] * depth)
    if kind == "minus":
        return "-" * (depth - 1) + "z1"
    if kind == "parentheses":
        return "(" * (depth - 1) + "z1" + ")" * (depth - 1)
    return "sin(" * (depth - 1) + "z1" + ")" * (depth - 1)


def recurse_then(depth: int, fn):
    """Call fn under `depth` extra stack frames."""
    return recurse_then(depth - 1, fn) if depth else fn()


@pytest.mark.parametrize("kind", ["sum", "minus", "parentheses", "call"])
def test_deepest_accepted_tree_stays_within_recursion_limit(kind):
    with pytest.raises(ParseError):
        dsl.parse(f"dim 1;\nT1 = {nest_to(dsl.MAX_DEPTH + 1, kind)};\n")
    z = np.array([0.3 + 0.1j, -0.2j])

    def exercise():
        # everything that recurses over a tree, with 200 frames to spare; T2
        # repeats T1, whose tree is rebuilt at T2's positions
        deepest = nest_to(dsl.MAX_DEPTH, kind)
        spec = dsl.parse(f"dim 2;\nT1 = {deepest};\nT2 = {deepest};\n")
        twin = dsl.parse(dsl.pretty_print(spec))
        assert twin.outputs == spec.outputs and hash(twin.outputs) == hash(spec.outputs)
        jacobian_oracle(spec, z)
        return dsl.evaluate(spec, z)

    assert np.isfinite(recurse_then(200, exercise)).all()


def test_dense_linear_form_at_the_dimension_cap_classifies():
    # a Householder reflection H = I - 2vv^T, v = (1, ..., 1)/8: every row
    # holds the dense 64-term form v.z, which the program computes once
    n = 64
    form = " + ".join(f"0.125*z{j}" for j in range(1, n + 1))
    rows = "".join(f"T{k} = z{k} - 2*0.125*({form});\n" for k in range(1, n + 1))
    spec = dsl.parse(f"dim {n};\n{rows}")
    result = wg.classify(dsl.compile_to_transformation(spec))
    assert result.branch == "linear"
    assert np.abs(result.operator - (np.eye(n) - 1 / 32)).max() < 1e-9


def test_dense_complex_linear_form_parses_at_the_cap():
    n = 64
    form = " - ".join(f"(0.1+0.2i)*z{j}" for j in range(1, n + 1))
    rest = "".join(f"T{k} = z{k};\n" for k in range(2, n + 1))
    spec = dsl.parse(f"dim {n};\nT1 = -(1.5i)*{form};\n{rest}")
    assert sum(isinstance(node, dsl.Var) for node in dsl.walk(spec.outputs[0])) == n


def test_non_finite_matrix_is_schema_error():
    spec = dsl.parse("dim 1;\nT1 = mat(U);\n")
    for bad in (np.nan, np.inf):
        with pytest.raises(SchemaError, match="'U'"):
            dsl.compile_to_transformation(spec, {"U": np.array([[bad]])})


EXPRESSION = ("number", "identifier", "(", "-")
IDENTIFIERS = tuple(sorted(dsl.FUNCTIONS)) + ("mat", "i", "z<k>")

# (source, error class, message, line, column, expected-set); each entry
# was recorded from the parser it pins, message without its "line:col: "
MALFORMED = {
    "bad_character_before_syntax_error": (
        "dim 1;\nT1 = $ z1 + ;\n", ParseError, "unexpected character '$'", 2, 6, ()
    ),
    "bad_character_after_syntax_error": (
        "dim 1;\nT1 = z1 + ; $\n", ParseError, "expected an expression, found ';'", 2, 11, EXPRESSION
    ),
    "non_ascii_digit_after_variable_name": (
        "dim 1;\nT1 = z٣;\n", UnknownIdentifier, "unknown identifier 'z'", 2, 6, IDENTIFIERS
    ),
    "missing_final_semicolon": (
        "dim 1;\nT1 = z1", ParseError, "expected ';', found end of input", 2, 1, (";",)
    ),
    "missing_semicolon_before_comment": (
        "dim 1;\nT1 = z1\n# $ trailing\n", ParseError, "expected ';', found end of input", 4, 1, (";",)
    ),
    "empty_source": (
        "", ParseError, "a transform file starts with 'dim <n>;'", 1, 1, ("dim",)
    ),
    "misspelt_dim": (
        "# header\ndimm 1;", ParseError, "a transform file starts with 'dim <n>;'", 2, 1, ("dim",)
    ),
    "dim_zero": ("dim 0;", ParseError, "dimension must be at least 1", 1, 5, ()),
    "dim_not_integer": (
        "dim 1.5;", ParseError, "expected an integer, found '1.5'", 1, 5, ("integer",)
    ),
    "dim_without_semicolon": ("dim 2 T1 = z1;", ParseError, "expected ';', found 'T1'", 1, 7, (";",)),
    "output_zero": (
        "dim 2;\nT0 = z1;",
        ParseError, "expected an output assignment 'T<k> = ...;', found 'T0'", 2, 1, ("T<k>",),
    ),
    "output_assigned_twice": (
        "dim 2;\nT1 = z1;\nT1 = z2;", ParseError, "output T1 assigned twice", 3, 1, ()
    ),
    "matrix_name_missing": (
        "dim 1;\nT1 = mat(3);", ParseError, "expected a matrix name", 2, 10, ("name",)
    ),
    "norm2_with_argument": (
        "dim 1;\nT1 = norm2(z1);", ParseError, "expected ')', found 'z1'", 2, 12, (")",)
    ),
    "doubled_operator": (
        "dim 1;\nT1 = z1 ** 2;", ParseError, "expected an expression, found '*'", 2, 10, EXPRESSION
    ),
    "carriage_return_and_tab": (
        "dim 1;\r\nT1 =\tq;", UnknownIdentifier, "unknown identifier 'q'", 2, 6, IDENTIFIERS
    ),
    "line_separator_is_not_a_newline": (
        "dim 1; T1 = z1 +\xa0 ;",
        ParseError, "expected an expression, found ';'", 1, 19, EXPRESSION,
    ),
    "too_deep_calls": (
        "dim 1;\nT1 = " + "sin(" * 150 + "z1" + ")" * 150 + ";",
        ParseError, "expression nests deeper than 100 levels", 2, 402, (),
    ),
    # past the 4300 digits int() reads: out of range without a conversion
    "variable_index_of_5000_digits": (
        "dim 1;\nT1 = z" + "1" * 5000 + ";",
        UnknownIdentifier, f"variable z{'1' * 5000} out of range for dimension 1", 2, 6, (),
    ),
    # after a repeated right-hand side, errors stand at their own tokens
    "syntax_error_after_a_repeat": (
        f"dim 3;\nT1 = {PHASE_AT};\nT2 = {PHASE_AT};\nT3 = {PHASE_AT} +;\n",
        ParseError, "expected an expression, found ';'", 4, 29, EXPRESSION,
    ),
    "bad_character_after_a_repeat_before_a_syntax_error": (
        f"dim 3;\nT1 = {PHASE_AT};\nT2 = {PHASE_AT};$ T3 = +;\n",
        ParseError, "unexpected character '$'", 3, 28, (),
    ),
    "variable_out_of_range_after_a_repeat_on_its_line": (
        f"dim 3;\nT1 = {PHASE_AT};\nT2 = {PHASE_AT}; T3 = z9; $\n",
        UnknownIdentifier, "variable z9 out of range for dimension 3", 3, 34, (),
    ),
    # a literal that rounds to infinity is refused at its token, before
    # anything after it is read
    "real_literal_past_float_range": (
        "dim 2; T1 = 1e400 * z1; T2 = z2;", ParseError, "number out of float range", 1, 13, ()
    ),
    "imaginary_literal_past_float_range": (
        "dim 1;\nT1 = z1 + 2e308i $", ParseError, "number out of float range", 2, 11, ()
    ),
    "dimension_of_5000_digits": (
        "dim " + "1" * 5000 + ";\nT1 = z1;", ParseError, "dimension has too many digits", 1, 5, ()
    ),
}


@pytest.mark.parametrize("source, kind, message, line, column, expected", MALFORMED.values(), ids=MALFORMED)
def test_malformed_source_is_refused_exactly(source, kind, message, line, column, expected):
    with pytest.raises(ParseError) as err:
        dsl.parse(source)
    assert type(err.value) is kind
    assert str(err.value) == f"{line}:{column}: {message}"
    assert (err.value.line, err.value.column, err.value.expected) == (line, column, expected)


@pytest.mark.parametrize(
    "source, message",
    [
        ("dim 2;\nT1 = z1;\nT3 = z2;", "output T3 out of range for dimension 2"),
        ("dim 2;\nT1 = z1;\n", "1 outputs for dimension 2 (missing T2)"),
        # the missing output is named without a pass over the dimension
        pytest.param(
            "dim 1000000000000000000; T1 = z1;",
            "1 outputs for dimension 1000000000000000000 (missing T2)",
            id="missing_output_of_huge_dimension",
        ),
        # past the 4300 digits int() reads: out of range without a conversion
        pytest.param(
            "dim 1; T" + "1" * 5000 + " = z1;",
            f"output T{'1' * 5000} out of range for dimension 1",
            id="output_index_of_5000_digits",
        ),
    ],
)
def test_output_set_mismatch_is_a_dimension_error(source, message):
    with pytest.raises(DimensionMismatch) as err:
        dsl.parse(source)
    assert str(err.value) == message


def test_comments_and_non_ascii_digits():
    # a comment hides any character; a decimal digit of any script is a digit
    spec = dsl.parse("dim ٣; # $ é @\nT1 = z1;\nT2 = z2;\nT3 = z3 * ٣; # ;;\n")
    assert spec.dimension == 3
    assert spec.outputs[2] == dsl.BinOp("*", dsl.Var(3), dsl.Literal(3 + 0j))


CONSTANTS_MALFORMED = {
    "1+2i)": ("trailing input ')'", 1, 5, ()),
    "z1": ("constant expressions cannot reference the state", 1, 1, ()),
    "1 + norm2()": ("constant expressions cannot reference the state", 1, 5, ()),
    "2*mat(U)": ("constant expressions cannot reference the state", 1, 3, ()),
    "": ("expected an expression, found end of input", 1, 1, EXPRESSION),
    "2 $": ("unexpected character '$'", 1, 3, ()),
    "2*(3": ("expected ')', found end of input", 1, 1, (")",)),
    # an index past the 4300 digits int() reads is refused like any other,
    # after the parse, so a trailing-input error still comes first
    "z" + "1" * 5000: ("constant expressions cannot reference the state", 1, 1, ()),
    "z" + "1" * 5000 + ")": ("trailing input ')'", 1, 5002, ()),
    "1e400": ("number out of float range", 1, 1, ()),
    "1 + 1" + "0" * 400 + "i": ("number out of float range", 1, 5, ()),
}


@pytest.mark.parametrize(
    "text", CONSTANTS_MALFORMED,
    ids=lambda text: repr(text if len(text) < 40 else f"{text[:4]}...{text[-4:]}"),
)
def test_malformed_constant_is_refused_exactly(text):
    message, line, column, expected = CONSTANTS_MALFORMED[text]
    with pytest.raises(ParseError) as err:
        dsl.parse_constant(text)
    assert type(err.value) is ParseError
    assert str(err.value) == f"{line}:{column}: {message}"
    assert (err.value.line, err.value.column, err.value.expected) == (line, column, expected)


@pytest.mark.parametrize(
    "text, value",
    [("١+1", 2 + 0j), ("-i*2.5e-3", -0.0025j), ("\t(1 + 2i) * 2\xa0", 2 + 4j), ("1 # 2", 1 + 0j),
     ("1.7976931348623157e308", 1.7976931348623157e308 + 0j)],
)
def test_constant_values(text, value):
    assert dsl.parse_constant(text) == value
