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

NUMBER is an unsigned decimal, optionally in scientific notation, with an
optional trailing `i` marking an imaginary literal; bare `i` is the
imaginary unit. A complex constant `a+bi` is therefore ordinary addition
of two literals and binds with standard precedence, so write `(1+2i)*z1`
to scale by a full complex constant. VAR is `z1` .. `zn`. FUNC is one of
conj, re, im, abs2, exp, sin, cos, expi, with expi(x) = exp(i*x); norm2()
is |z1|^2 + ... + |zn|^2. Every assignment T1..Tn must appear exactly
once.

`mat(NAME)` applies the named constant matrix to the whole input vector
and yields the component for the output row being defined: in the
expression for Tk, `mat(U)` reads row k of U*z. Matrices live in a
separate JSON constants file mapping names to row-major n x n matrices
whose entries are [re, im] pairs.

Trees evaluate in double-precision complex arithmetic over numpy arrays,
one batch of points at a time, associating left to right as parsed;
conj/re/im/abs2 read the actual conjugate of the input, which is what
makes the conj-free fragment exactly the analytic one. Division is the
only partial operation: a divisor of modulus below 1e-300 at any point of
the batch raises DivisionNearZero.
"""

import json
import re as _re
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    DivisionNearZero,
    ParseError,
    SchemaError,
    UnknownIdentifier,
    UnknownMatrix,
)
from .states import Transformation

FUNCTIONS = {
    "conj": 1,
    "re": 1,
    "im": 1,
    "abs2": 1,
    "norm2": 0,
    "exp": 1,
    "sin": 1,
    "cos": 1,
    "expi": 1,
}

_DIVISOR_FLOOR = 1e-300


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


def walk(node):
    """Yield every node of a tree, depth first."""
    yield node
    if isinstance(node, Call):
        for arg in node.args:
            yield from walk(arg)
    elif isinstance(node, Neg):
        yield from walk(node.operand)
    elif isinstance(node, BinOp):
        yield from walk(node.left)
        yield from walk(node.right)


@dataclass(frozen=True)
class TransformSpec:
    """A parsed transform definition: n output expression trees on C^n."""

    dimension: int
    outputs: tuple
    source: str = field(compare=False)

    @property
    def matrix_names(self) -> frozenset:
        return frozenset(
            node.name for out in self.outputs for node in walk(out)
            if isinstance(node, MatApply)
        )

    @property
    def has_division(self) -> bool:
        return any(
            isinstance(node, BinOp) and node.op == "/"
            for out in self.outputs for node in walk(out)
        )

    @property
    def uses_conjugation(self) -> bool:
        """True when any node can couple to the conjugated input."""
        return any(
            isinstance(node, Call) and node.func in ("conj", "re", "im", "abs2", "norm2")
            for out in self.outputs for node in walk(out)
        )


# ---------------------------------------------------------------------------
# tokenizer

_TOKEN_RE = _re.compile(
    r"(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?i?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<punct>[;=()+\-*/])"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "ident" | "punct" | "eof"
    text: str
    line: int
    col: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    for lineno, line in enumerate(source.split("\n"), start=1):
        pos = 0
        comment = line.find("#")
        if comment != -1:
            line = line[:comment]
        while pos < len(line):
            if line[pos].isspace():
                pos += 1
                continue
            match = _TOKEN_RE.match(line, pos)
            if match is None:
                raise ParseError(
                    f"unexpected character {line[pos]!r}", lineno, pos + 1
                )
            kind = match.lastgroup
            tokens.append(_Token(kind, match.group(), lineno, pos + 1))
            pos = match.end()
    last_line = source.count("\n") + 1
    tokens.append(_Token("eof", "", last_line, 1))
    return tokens


# ---------------------------------------------------------------------------
# parser

class _Parser:
    def __init__(self, tokens: list[_Token], dimension: int = 0):
        self.tokens = tokens
        self.pos = 0
        self.dimension = dimension

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token, expected=()):
        raise ParseError(message, tok.line, tok.col, expected)

    @staticmethod
    def describe(tok: _Token) -> str:
        return repr(tok.text) if tok.text else "end of input"

    def expect_punct(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "punct" or tok.text != text:
            self.fail(
                f"expected {text!r}, found {self.describe(tok)}",
                tok,
                expected=(text,),
            )
        return self.advance()

    def expect_int(self) -> tuple[int, _Token]:
        tok = self.peek()
        if tok.kind != "number" or not tok.text.isdigit():
            self.fail(
                f"expected an integer, found {self.describe(tok)}",
                tok,
                expected=("integer",),
            )
        self.advance()
        return int(tok.text), tok

    # expression grammar: + - over * / over unary minus over atoms
    def parse_expression(self):
        node = self.parse_term()
        while self.peek().kind == "punct" and self.peek().text in "+-":
            op = self.advance()
            right = self.parse_term()
            node = BinOp(op.text, node, right, pos=(op.line, op.col))
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.peek().kind == "punct" and self.peek().text in "*/":
            op = self.advance()
            right = self.parse_factor()
            node = BinOp(op.text, node, right, pos=(op.line, op.col))
        return node

    def parse_factor(self):
        tok = self.peek()
        if tok.kind == "punct" and tok.text == "-":
            self.advance()
            return Neg(self.parse_factor(), pos=(tok.line, tok.col))
        return self.parse_atom()

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            if tok.text.endswith("i"):
                return Literal(complex(0.0, float(tok.text[:-1])), pos=(tok.line, tok.col))
            return Literal(complex(float(tok.text), 0.0), pos=(tok.line, tok.col))
        if tok.kind == "punct" and tok.text == "(":
            self.advance()
            node = self.parse_expression()
            self.expect_punct(")")
            return node
        if tok.kind == "ident":
            return self.parse_identifier()
        self.fail(
            f"expected an expression, found {self.describe(tok)}",
            tok,
            expected=("number", "identifier", "(", "-"),
        )

    def parse_identifier(self):
        tok = self.advance()
        name = tok.text
        if name == "i":
            return Literal(1j, pos=(tok.line, tok.col))
        if name == "mat":
            self.expect_punct("(")
            ident = self.peek()
            if ident.kind != "ident":
                self.fail("expected a matrix name", ident, expected=("name",))
            self.advance()
            self.expect_punct(")")
            return MatApply(ident.text, pos=(tok.line, tok.col))
        if name in FUNCTIONS:
            arity = FUNCTIONS[name]
            self.expect_punct("(")
            args = ()
            if arity == 1:
                args = (self.parse_expression(),)
            self.expect_punct(")")
            return Call(name, args, pos=(tok.line, tok.col))
        var = _re.fullmatch(r"z([1-9][0-9]*)", name)
        if var:
            index = int(var.group(1))
            if self.dimension and index > self.dimension:
                raise UnknownIdentifier(
                    f"variable z{index} out of range for dimension {self.dimension}",
                    tok.line,
                    tok.col,
                )
            return Var(index, pos=(tok.line, tok.col))
        raise UnknownIdentifier(
            f"unknown identifier {name!r}",
            tok.line,
            tok.col,
            expected=tuple(sorted(FUNCTIONS)) + ("mat", "i", "z<k>"),
        )


def parse(source: str) -> TransformSpec:
    """Parse a transform definition; see the module docstring for the grammar.

    Raises ParseError (with 1-based line/column and an expected-set),
    UnknownIdentifier for stray names or out-of-range variables, and
    DimensionMismatch when the assignments do not cover T1..Tn exactly.
    """
    parser = _Parser(_tokenize(source))
    head = parser.peek()
    if head.kind != "ident" or head.text != "dim":
        parser.fail("a transform file starts with 'dim <n>;'", head, expected=("dim",))
    parser.advance()
    dimension, dim_tok = parser.expect_int()
    if dimension < 1:
        raise ParseError("dimension must be at least 1", dim_tok.line, dim_tok.col)
    parser.expect_punct(";")
    parser.dimension = dimension

    outputs: dict[int, object] = {}
    while parser.peek().kind != "eof":
        tok = parser.peek()
        target = _re.fullmatch(r"T([1-9][0-9]*)", tok.text) if tok.kind == "ident" else None
        if target is None:
            parser.fail(
                f"expected an output assignment 'T<k> = ...;', found {tok.text!r}",
                tok,
                expected=("T<k>",),
            )
        index = int(target.group(1))
        if index > dimension:
            raise DimensionMismatch(
                f"output T{index} out of range for dimension {dimension}"
            )
        if index in outputs:
            raise ParseError(f"output T{index} assigned twice", tok.line, tok.col)
        parser.advance()
        parser.expect_punct("=")
        outputs[index] = parser.parse_expression()
        parser.expect_punct(";")

    if set(outputs) != set(range(1, dimension + 1)):
        missing = sorted(set(range(1, dimension + 1)) - set(outputs))
        raise DimensionMismatch(
            f"{len(outputs)} outputs for dimension {dimension}"
            + (f" (missing T{missing[0]})" if missing else "")
        )
    return TransformSpec(
        dimension=dimension,
        outputs=tuple(outputs[k] for k in range(1, dimension + 1)),
        source=source,
    )


# ---------------------------------------------------------------------------
# evaluation

class _EvalContext:
    """The input points (one (n,) point or an (m, n) batch) and their
    shared subterms; every node evaluates over the leading batch axes."""

    __slots__ = ("z", "row", "mats", "matvecs", "norm2")

    def __init__(self, z: np.ndarray, mats: dict):
        self.z = z
        self.row = 0
        self.mats = mats
        self.matvecs: dict[str, np.ndarray] = {}
        self.norm2 = (z.real * z.real + z.imag * z.imag).sum(axis=-1)

    def matvec(self, name: str) -> np.ndarray:
        got = self.matvecs.get(name)
        if got is None:
            if name not in self.mats:
                raise UnknownMatrix(f"matrix {name!r} not found in constants")
            got = self.z @ self.mats[name].T
            self.matvecs[name] = got
        return got


def _eval(node, ctx: _EvalContext):
    if isinstance(node, Literal):
        return node.value
    if isinstance(node, Var):
        return ctx.z[..., node.index - 1]
    if isinstance(node, Neg):
        return -_eval(node.operand, ctx)
    if isinstance(node, BinOp):
        left = _eval(node.left, ctx)
        right = _eval(node.right, ctx)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if np.any(np.abs(right) < _DIVISOR_FLOOR):
            raise DivisionNearZero(
                f"divisor modulus below {_DIVISOR_FLOOR:g}", *node.pos
            )
        return left / right
    if isinstance(node, MatApply):
        return ctx.matvec(node.name)[..., ctx.row]
    func = node.func
    if func == "norm2":
        return ctx.norm2
    val = _eval(node.args[0], ctx)
    if func == "conj":
        return np.conj(val)
    if func == "re":
        return np.real(val)
    if func == "im":
        return np.imag(val)
    if func == "abs2":
        return val.real * val.real + val.imag * val.imag
    if func == "exp":
        return np.exp(val)
    if func == "sin":
        return np.sin(val)
    if func == "cos":
        return np.cos(val)
    # expi
    return np.exp(1j * val)


def _prepare_constants(spec: TransformSpec, constants) -> dict:
    mats = {}
    needed = spec.matrix_names
    available = constants or {}
    for name in sorted(needed):
        if name not in available:
            raise UnknownMatrix(f"matrix {name!r} not found in constants")
        m = np.asarray(available[name], dtype=np.complex128)
        if m.shape != (spec.dimension, spec.dimension):
            raise DimensionMismatch(
                f"matrix {name!r} has shape {m.shape}, expected "
                f"({spec.dimension}, {spec.dimension})"
            )
        mats[name] = m
    return mats


def evaluate(spec: TransformSpec, z, constants=None) -> np.ndarray:
    """Evaluate all output components of `spec` at the state `z`."""
    return compile_to_transformation(spec, constants)(z)


def compile_to_transformation(spec: TransformSpec, constants=None) -> Transformation:
    """Close the spec over its resolved constants as a reusable Transformation.

    Matrix references are resolved once, up front (UnknownMatrix /
    DimensionMismatch surface here, not at evaluation time); the returned
    evaluator is vectorized, immutable and safe for concurrent callers.
    Floating-point overflow is not warned about: it yields Inf or NaN,
    which the Transformation call rejects as NonFiniteEvaluation.
    """
    mats = _prepare_constants(spec, constants)
    outputs = spec.outputs

    def evaluator(zv: np.ndarray) -> np.ndarray:
        out = np.empty(zv.shape, dtype=np.complex128)
        with np.errstate(all="ignore"):
            ctx = _EvalContext(zv, mats)
            for k, tree in enumerate(outputs):
                ctx.row = k
                out[..., k] = _eval(tree, ctx)
        return out

    return Transformation(
        evaluator=evaluator, dimension=spec.dimension, source=spec.source, vectorized=True
    )


def parse_constant(text: str) -> complex:
    """Parse a constant expression (no variables, matrices or norm2).

    Used for inline point components on the command line, e.g. '1+2i' or
    '-0.5i*2'.
    """
    parser = _Parser(_tokenize(text))
    node = parser.parse_expression()
    tail = parser.peek()
    if tail.kind != "eof":
        raise ParseError(f"trailing input {tail.text!r}", tail.line, tail.col)
    for sub in walk(node):
        if isinstance(sub, (Var, MatApply)) or (
            isinstance(sub, Call) and sub.func == "norm2"
        ):
            raise ParseError(
                "constant expressions cannot reference the state",
                *getattr(sub, "pos", (1, 1)),
            )
    with np.errstate(all="ignore"):
        return complex(_eval(node, _EvalContext(np.zeros(1, dtype=np.complex128), {})))


# ---------------------------------------------------------------------------
# pretty printer

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


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
# constants files

def load_constants(path) -> dict[str, np.ndarray]:
    """Load a JSON constants file: {name: [[[re, im], ...] per row, ...]}."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"constants file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError("constants file must be a JSON object")
    constants = {}
    for name, rows in raw.items():
        try:
            arr = np.asarray(rows, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"matrix {name!r} is not numeric") from exc
        if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
            raise SchemaError(
                f"matrix {name!r} must be square with [re, im] entries, "
                f"got shape {arr.shape}"
            )
        constants[name] = arr[:, :, 0] + 1j * arr[:, :, 1]
    return constants
