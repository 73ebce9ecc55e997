"""Expression language for defining transformations in text files.

A transform file declares a dimension and one expression per output
component:

    # conjugate and swap
    dim 2;
    T1 = conj(z2);
    T2 = conj(z1);

Grammar ('#' comments run to end of line; whitespace is insignificant):

    file    :=  "dim" INT ";" assign*
    assign  :=  "T" INT "=" expr ";"
    expr    :=  term (("+" | "-") term)*
    term    :=  factor (("*" | "/") factor)*
    factor  :=  "-" factor | atom
    atom    :=  NUMBER | "i" | FUNC "(" expr ")" | "norm2" "(" ")"
              | "mat" "(" NAME ")" | VAR | "(" expr ")"

Lines split at "\\n" only ("\\r\\n" ends a line, "\\u2028" does not), and
whitespace is every character that `str.isspace` accepts. Line and column
are 1-based and count characters; the end of input stands at column 1 of
the last line. Errors are raised lazily, in reading order: a character
that starts no token is refused only once the parser reaches it.

NUMBER is an unsigned decimal, optionally in scientific notation, with an
optional trailing `i` marking an imaginary literal; bare `i` is the
imaginary unit. Its value must fit a double: one that rounds to infinity
is a ParseError at its token. A complex constant `a+bi` is therefore
ordinary addition of two literals and binds with standard precedence, so
write `(1+2i)*z1` to scale by a full complex constant. VAR is `z1` ..
`zn`. FUNC is one of conj, re, im, abs2, exp, sin, cos, expi, with
expi(x) = exp(i*x); norm2() is |z1|^2 + ... + |zn|^2. Every assignment
T1..Tn must appear exactly once.

`mat(NAME)` applies the named constant matrix to the whole input vector
and yields the component for the output row being defined: in the
expression for Tk, `mat(U)` reads row k of U*z. Matrices live in a
separate JSON constants file mapping names to row-major n x n matrices
whose entries are [re, im] pairs.

An expression nests at most MAX_DEPTH = 100 levels: the root is level 1,
and each operator, unary minus, function call and parenthesised group
adds one. A deeper one is a ParseError. Matrix entries must be finite.

A right-hand side whose text, from its first token to its ';', repeats
an earlier output's is parsed once: the repeat gets a copy of that tree in
which every node keeps its own line and column. The n trees compile to
one program that evaluates each distinct subterm once per batch of points,
so a phase shared by every output is computed once. It runs in double-precision complex arithmetic over numpy arrays,
associating left to right as parsed; conj/re/im/abs2 read the actual
conjugate of the input, which is what makes the conj-free fragment
exactly the analytic one. Division is the only partial operation: a
divisor of modulus below 1e-300 at any point of the batch raises
DivisionNearZero, located at the first such division in output order.
"""

import json
import operator
import re as _re
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import (
    DimensionMismatch,
    DivisionNearZero,
    ParseError,
    SchemaError,
    UnknownIdentifier,
    UnknownMatrix,
)
from .states import Transformation, as_array

#: Each function's operation; norm2 takes no argument and reads the points.
FUNCTIONS = {
    "conj": np.conj,
    "re": np.real,
    "im": np.imag,
    "abs2": lambda v: v.real * v.real + v.imag * v.imag,
    "norm2": lambda z: (z.real * z.real + z.imag * z.imag).sum(axis=-1),
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "expi": lambda v: np.exp(1j * v),
}

_DIVISOR_FLOOR = 1e-300

#: Deepest expression level the parser accepts; recursive tree code
#: (dataclass ==/hash, format_expression) stays within Python's limit.
MAX_DEPTH = 100

#: Binding strength of each binary operator; the parser climbs it and the
#: printer parenthesises by it (a unary minus binds at 3, an atom at 4).
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


# ---------------------------------------------------------------------------
# syntax trees

@dataclass(frozen=True)
class Literal:
    value: complex
    pos: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class Var:
    index: int  # 1-based
    pos: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple
    pos: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class MatApply:
    name: str
    pos: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class Neg:
    operand: object
    pos: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object
    pos: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)


_OPERANDS = {
    Call: operator.attrgetter("args"),
    Neg: lambda node: (node.operand,),
    BinOp: operator.attrgetter("left", "right"),
}


def walk(node):
    """Yield every node of a tree, depth first, left to right."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        operands = _OPERANDS.get(type(node))
        if operands is not None:
            stack.extend(reversed(operands(node)))


@dataclass(frozen=True)
class TransformSpec:
    """A parsed transform definition: n output expression trees on C^n."""

    dimension: int
    outputs: tuple


# ---------------------------------------------------------------------------
# tokenizer

# One match per token: the whitespace and comments before it, then the
# token. "\n" is a token of its own, so that lines are counted; any other
# character that starts no token is refused when the parser reaches it.
_TOKEN_RE = _re.compile(
    r"(?:[^\S\n]+|#[^\n]*)*"
    r"(?:(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?i?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<punct>[;=()+\-*/])"
    r"|(?P<newline>\n)|(?P<eof>\Z)|(?P<bad>.))"
)
_VAR = _re.compile(r"z([1-9][0-9]*)").fullmatch
_TARGET = _re.compile(r"T([1-9][0-9]*)").fullmatch


def _tokenize(source: str, start: int = 0, line: int = 1):
    """Yield (kind, text, line, column, offset) per token of `source` from
    `start`, which lies on `line`; kind "number", "ident", "punct" or last
    "eof" (text "", column 1); lazily, so a parse never holds every token
    and a bad character raises only once reached."""
    line_start = source.rfind("\n", 0, start) + 1
    for match in _TOKEN_RE.finditer(source, start):
        kind = match.lastgroup
        if kind == "newline":
            line, line_start = line + 1, match.end()
            continue
        text = match[kind]
        if kind == "eof":
            yield kind, text, line, 1, match.end()
            return
        offset = match.end() - len(text)
        if kind == "bad":
            raise ParseError(f"unexpected character {text!r}", line, offset - line_start + 1)
        yield kind, text, line, offset - line_start + 1, offset


# ---------------------------------------------------------------------------
# parser

_EXPRESSION_START = ("number", "identifier", "(", "-")


def _found(tok) -> str:
    return repr(tok[1]) if tok[1] else "end of input"


class _Parser:
    """Recursive descent with `tok`, the next (kind, text, line, column,
    offset) token, as its one lookahead.

    A punctuation token is told by its text alone, which no other token
    has. Each parse_* method parses a node at `level` (root 1) and returns
    it with its deepest leaf's level; `nest` keeps that within MAX_DEPTH,
    and an operator pushes its operands down. An index is compared with
    `bound` as text, since one too long for int() is out of range too.
    """

    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.tok = next(self.tokens)
        self.bound = ()  # (digits, decimal) of the dimension, once known

    def fail(self, message: str, tok, expected=()):
        raise ParseError(message, tok[2], tok[3], expected)

    def expect(self, text: str) -> None:
        """Move past the punctuation `text`, or fail at the token in its place."""
        tok = self.tok
        if tok[1] != text:
            self.fail(f"expected {text!r}, found {_found(tok)}", tok, (text,))
        self.tok = next(self.tokens)

    def nest(self, tok, level: int) -> int:
        """`level` + 1, refused at `tok` when that passes MAX_DEPTH."""
        if level >= MAX_DEPTH:
            self.fail(f"expression nests deeper than {MAX_DEPTH} levels", tok)
        return level + 1

    def parse_expression(self, level: int = 1, tightest: int = 1):
        """Operators binding at least as tightly as `tightest`, left to right.

        Precedence climbing: a right operand takes only operators that bind
        tighter than its own, so equal ones associate to the left.
        """
        node, reach = self.parse_factor(level)
        while (binding := _PRECEDENCE.get((op := self.tok)[1], 0)) >= tightest:
            self.tok = next(self.tokens)
            right, right_reach = self.parse_expression(level, binding + 1)
            reach = self.nest(op, max(reach, right_reach))
            node = BinOp(op[1], node, right, (op[2], op[3]))
        return node, reach

    def parse_factor(self, level: int):
        """A unary minus, a literal, a parenthesised group or a name's atom."""
        tok = self.tok
        kind, text, line, column, _ = tok
        if text == "-" or text == "(":
            self.tok = next(self.tokens)
            if text == "-":
                node, reach = self.parse_factor(self.nest(tok, level))
                return Neg(node, (line, column)), reach
            node = self.parse_expression(self.nest(tok, level))
            self.expect(")")
            return node
        if kind == "number":
            imaginary = text[-1] == "i"
            value = float(text[:-1] if imaginary else text)
            if value == np.inf:
                self.fail("number out of float range", tok)
            self.tok = next(self.tokens)
            value = complex(0.0, value) if imaginary else complex(value, 0.0)
            return Literal(value, (line, column)), level
        if kind != "ident":
            self.fail(f"expected an expression, found {_found(tok)}", tok, _EXPRESSION_START)
        self.tok = next(self.tokens)
        if text in FUNCTIONS:
            self.expect("(")
            args, reach = (), level
            if text != "norm2":
                arg, reach = self.parse_expression(self.nest(tok, level))
                args = (arg,)
            self.expect(")")
            return Call(text, args, (line, column)), reach
        var = _VAR(text)
        if var:
            if self.bound and (len(var[1]), var[1]) > self.bound:
                message = f"variable z{var[1]} out of range for dimension {self.bound[1]}"
                raise UnknownIdentifier(message, line, column)
            # a constant expression (no bound) refuses every variable once parsed
            return Var(int(var[1]) if self.bound else 0, (line, column)), level
        if text == "i":
            return Literal(1j, (line, column)), level
        if text == "mat":
            self.expect("(")
            name = self.tok
            if name[0] != "ident":
                self.fail("expected a matrix name", name, ("name",))
            self.tok = next(self.tokens)
            self.expect(")")
            return MatApply(name[1], (line, column)), level
        expected = tuple(sorted(FUNCTIONS)) + ("mat", "i", "z<k>")
        raise UnknownIdentifier(f"unknown identifier {text!r}", line, column, expected)

    def right_hand_side(self, parsed: dict):
        """The expression up to the next ';', parsed once per text.

        `parsed` maps each right-hand side that parsed cleanly and ended at
        the first ';' after it (so it holds no ';', not even in a comment)
        to its tree and the line and column of its first token. A repeat of
        such text has the same tokens and tree: it is skipped, and the tree
        is rebuilt with its positions moved to where the repeat stands.
        """
        _, _, line, column, start = self.tok
        end = self.source.find(";", start)
        text = self.source[start:end] if end >= 0 else None
        if text in parsed:
            tree, first_line, first_column = parsed[text]
            self.tokens = _tokenize(self.source, end, line + text.count("\n"))
            self.tok = next(self.tokens)
            return _moved(tree, first_line, line - first_line, column - first_column)
        tree = self.parse_expression()[0]
        if self.tok[4] == end:
            parsed[text] = tree, line, column
        return tree


def _moved(tree, first_line: int, lines: int, columns: int):
    """`tree` rebuilt with every node `lines` lines further down, and those
    on `first_line` also `columns` columns further right."""

    def move(node):
        line, column = node.pos
        pos = (line + lines, column + columns if line == first_line else column)
        kind = type(node)
        if kind is BinOp:
            return BinOp(node.op, move(node.left), move(node.right), pos)
        if kind is Call:
            return Call(node.func, tuple(map(move, node.args)), pos)
        if kind is Neg:
            return Neg(move(node.operand), pos)
        if kind is Var:
            return Var(node.index, pos)
        if kind is MatApply:
            return MatApply(node.name, pos)
        return Literal(node.value, pos)

    return move(tree)


def parse(source: str) -> TransformSpec:
    """Parse a transform definition; see the module docstring for the grammar.

    Raises ParseError (with 1-based line/column and an expected-set),
    UnknownIdentifier for stray names or out-of-range variables, and
    DimensionMismatch when the assignments do not cover T1..Tn exactly.
    """
    parser = _Parser(source)
    if parser.tok[1] != "dim":
        parser.fail("a transform file starts with 'dim <n>;'", parser.tok, ("dim",))
    parser.tok = dim_tok = next(parser.tokens)
    if dim_tok[0] != "number" or not dim_tok[1].isdigit():
        parser.fail(f"expected an integer, found {_found(dim_tok)}", dim_tok, ("integer",))
    parser.tok = next(parser.tokens)
    try:
        dimension = int(dim_tok[1])
    except ValueError:  # past the interpreter's limit on digits read
        parser.fail("dimension has too many digits", dim_tok)
    if dimension < 1:
        parser.fail("dimension must be at least 1", dim_tok)
    parser.expect(";")
    decimal = str(dimension)
    parser.bound = (len(decimal), decimal)

    outputs: dict[int, object] = {}
    parsed: dict[str, tuple] = {}
    while (tok := parser.tok)[0] != "eof":
        target = _TARGET(tok[1])
        if target is None:
            found = f"found {tok[1]!r}"
            parser.fail(f"expected an output assignment 'T<k> = ...;', {found}", tok, ("T<k>",))
        if (len(target[1]), target[1]) > parser.bound:
            raise DimensionMismatch(f"output T{target[1]} out of range for dimension {dimension}")
        index = int(target[1])
        if index in outputs:
            parser.fail(f"output T{index} assigned twice", tok)
        parser.tok = next(parser.tokens)
        parser.expect("=")
        outputs[index] = parser.right_hand_side(parsed)
        parser.expect(";")

    if len(outputs) < dimension:  # none past n, none twice: one of T1..T(len + 1) is missing
        missing = next(k for k in range(1, len(outputs) + 2) if k not in outputs)
        message = f"{len(outputs)} outputs for dimension {dimension} (missing T{missing})"
        raise DimensionMismatch(message)
    return TransformSpec(dimension, tuple(outputs[k] for k in range(1, dimension + 1)))


# ---------------------------------------------------------------------------
# evaluation

def _divide(pos: tuple[int, int], left, right):
    if np.any(np.abs(right) < _DIVISOR_FLOOR):
        raise DivisionNearZero(f"divisor modulus below {_DIVISOR_FLOOR:g}", *pos)
    return left / right


_STEPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_STEPS.update(FUNCTIONS)


def _program(trees, constants=None) -> tuple:
    """Lower output trees, tree k defining output row k, to one program.

    The program is (values, steps, roots): slot 0 of `values` takes the
    points, literal and matrix slots hold constants, and a step (slot, fn,
    a, b) stores fn(values[a]) (b < 0) or fn(values[a], values[b]). Each
    distinct subterm, keyed by its kind and its operands' slots, is one
    step, in the order the trees first reach it; `mat(NAME)` is one shared
    `z @ M.T` step plus a column step per row. Output k is `roots[k]`.
    """
    slots: dict[tuple, int] = {}  # (tag, operand slot or name, operand slot or column)
    values: list = [None]
    steps: list[tuple] = []

    def slot(key, fn=None, a=-1, b=-1, value=None) -> int:
        """The slot of `key`, added with its step or value on first use."""
        got = slots.get(key)
        if got is None:
            got = slots[key] = len(values)
            values.append(value)
            if fn is not None:
                steps.append((got, fn, a, b))
        return got

    def lower(node, row: int) -> int:
        """The slot of `node`, its operands lowered first, left to right."""
        kind = type(node)
        if kind is BinOp:
            a, b = lower(node.left, row), lower(node.right, row)
            fn = partial(_divide, node.pos) if node.op == "/" else _STEPS[node.op]
            return slot((node.op, a, b), fn, a, b)
        if kind is Call:
            a = lower(node.args[0], row) if node.args else 0  # norm2() reads slot 0
            return slot((node.func, a, -1), _STEPS[node.func], a)
        if kind is Neg:
            a = lower(node.operand, row)
            return slot(("neg", a, -1), operator.neg, a)
        if kind is Var:
            return slot(("col", 0, node.index - 1), operator.itemgetter((..., node.index - 1)), 0)
        if kind is MatApply:
            matrix = slot(("mat", node.name, -1))  # M.T, set once resolved below
            product = slot(("@", 0, matrix), operator.matmul, 0, matrix)
            return slot(("col", product, row), operator.itemgetter((..., row)), product)
        return slot(("lit", repr(node.value), -1), value=node.value)

    roots = [lower(tree, row) for row, tree in enumerate(trees)]
    available, shape = {} if constants is None else constants, (len(trees), len(trees))
    if not isinstance(available, Mapping):
        raise SchemaError("constants must be a mapping of matrix names to matrices")
    for name, at in sorted((key[1], at) for key, at in slots.items() if key[0] == "mat"):
        if name not in available:
            raise UnknownMatrix(f"matrix {name!r} not found in constants")
        m = as_array(available[name], f"matrix {name!r}")
        if m.shape != shape:
            raise DimensionMismatch(f"matrix {name!r} has shape {m.shape}, expected {shape}")
        if not np.isfinite(m).all():
            raise SchemaError(f"matrix {name!r} has a non-finite entry")
        values[at] = m.T
    return values, steps, roots


def _run(program: tuple, z) -> list:
    """Run `program` on the points `z`; returns the value of every output."""
    values, steps, roots = program
    values = values.copy()
    values[0] = z
    for out, fn, a, b in steps:
        values[out] = fn(values[a]) if b < 0 else fn(values[a], values[b])
    return [values[r] for r in roots]


def evaluate(spec: TransformSpec, z, constants=None) -> np.ndarray:
    """Evaluate all output components of `spec` at the state `z`."""
    return compile_to_transformation(spec, constants)(z)


def compile_to_transformation(spec: TransformSpec, constants=None) -> Transformation:
    """Compile the spec, closed over its resolved constants, to a Transformation.

    Matrix references are resolved once, up front (UnknownMatrix,
    DimensionMismatch, and SchemaError for `constants` not a mapping or a
    non-finite matrix, surface here), and the n output trees are lowered to one
    program in which each distinct subterm is evaluated once per batch: a
    phase shared by every output is computed once, not n times. The returned
    evaluator is vectorized, immutable and safe for concurrent callers.
    Floating-point overflow is not warned about: it yields Inf or NaN, which
    the Transformation call rejects as NonFiniteEvaluation.
    """
    program = _program(spec.outputs, constants)

    def evaluator(zv: np.ndarray) -> np.ndarray:
        zv = zv.astype(np.complex128, copy=False)  # real points too: complex `/` rounds apart
        out = np.empty_like(zv)
        with np.errstate(all="ignore"):
            for k, value in enumerate(_run(program, zv)):
                out[..., k] = value
        return out

    return Transformation(evaluator=evaluator, dimension=spec.dimension, vectorized=True)


def parse_constant(text: str) -> complex:
    """Parse a constant expression (no variables, matrices or norm2).

    Used for inline point components on the command line, e.g. '1+2i' or
    '-0.5i*2'.
    """
    parser = _Parser(text)
    node = parser.parse_expression()[0]
    kind, tail, line, column, _ = parser.tok
    if kind != "eof":
        raise ParseError(f"trailing input {tail!r}", line, column)
    for sub in walk(node):
        if isinstance(sub, (Var, MatApply)) or getattr(sub, "func", "") == "norm2":
            raise ParseError("constant expressions cannot reference the state", *sub.pos)
    with np.errstate(all="ignore"):
        return complex(_run(_program((node,)), np.zeros(1, dtype=np.complex128))[0])


# ---------------------------------------------------------------------------
# pretty printer

def _prec(node) -> int:
    if isinstance(node, BinOp):
        return _PRECEDENCE[node.op]
    if isinstance(node, Neg):
        return 3
    return 4


def _format_literal(value: complex) -> str:
    if value.imag == 0.0:
        return repr(value.real)
    if value == 1j:
        return "i"
    return repr(value.imag) + "i"


def format_expression(node) -> str:
    """Canonical text for a tree; reparsing yields a structurally equal tree."""
    if isinstance(node, Literal):
        return _format_literal(node.value)
    if isinstance(node, Var):
        return f"z{node.index}"
    if isinstance(node, MatApply):
        return f"mat({node.name})"
    if isinstance(node, Call):
        inner = ", ".join(format_expression(a) for a in node.args)
        return f"{node.func}({inner})"
    if isinstance(node, Neg):
        inner = format_expression(node.operand)
        return f"-({inner})" if _prec(node.operand) < 3 else f"-{inner}"
    left = format_expression(node.left)
    right = format_expression(node.right)
    if _prec(node.left) < _PRECEDENCE[node.op]:
        left = f"({left})"
    # same-precedence right children stay parenthesized to preserve the
    # left-associative tree shape on reparse
    if _prec(node.right) <= _PRECEDENCE[node.op]:
        right = f"({right})"
    return f"{left} {node.op} {right}"


def pretty_print(spec: TransformSpec) -> str:
    lines = [f"dim {spec.dimension};"]
    lines += [
        f"T{k} = {format_expression(tree)};"
        for k, tree in enumerate(spec.outputs, start=1)
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON files

def read_json(path, what: str):
    """The JSON value in the UTF-8 file at `path`; SchemaError, detail
    "<what> file is not valid JSON: ...", unless the file holds one."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    # not JSON, nested past the recursion limit, or an integer past int()'s digits
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"{what} file is not valid JSON: {exc}") from exc


def load_constants(path) -> dict[str, np.ndarray]:
    """Load a JSON constants file: {name: [[[re, im], ...] per row, ...]}. Only
    that layout is checked here; a matrix's shape and finiteness, where a spec reads it."""
    raw = read_json(path, "constants")
    if not isinstance(raw, dict):
        raise SchemaError("constants file must be a JSON object")
    constants = {}
    for name, rows in raw.items():
        arr = as_array(rows, f"matrix {name!r}", np.float64)
        if arr.ndim != 3 or arr.shape[2] != 2:
            raise SchemaError(
                f"matrix {name!r} must be rows of [re, im] entries, got shape {arr.shape}"
            )
        constants[name] = arr[:, :, 0] + 1j * arr[:, :, 1]
    return constants
