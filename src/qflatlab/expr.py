"""Recursive-descent parser and evaluator for field expressions.

Grammar (fixed):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := number | ident | ident '(' args ')' | '(' expr ')'

Identifiers are the coordinates ``x1 .. xn``, the radius ``r`` (sugar for
sqrt(x1^2 + ... + xn^2)), and the function names below.  Evaluation is
total on its domain: log/sqrt of a negative argument, division by zero and
non-finite results raise DomainEvalError instead of producing NaN.
``compile_ast`` turns an AST into a program once, a tree of closures with
its constants as Python floats, so that numpy broadcasts them (``x^2``
takes a scalar exponent); ``evaluate`` runs a program, or compiles and
runs an AST.

``cutoff(s, a, b)`` is the smooth step that equals 1 for s <= a and 0 for
s >= b, built from sigma(t) = exp(-1/t):

    cutoff(s, a, b) = 1 - sigma(t) / (sigma(t) + sigma(1 - t)),
    t = (s - a) / (b - a),

point by point: a band that is not a < b at some point raises
DomainEvalError.
"""

import re
from dataclasses import dataclass

import numpy as np

from .errors import ArityError, DomainEvalError, FieldSyntaxError, UnknownSymbolError

FUNCTIONS = {
    "log": 1,
    "exp": 1,
    "sqrt": 1,
    "atan": 1,
    "pow": 2,
    "min": 2,
    "max": 2,
    "cutoff": 3,
}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Sym:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple


def tokenize(src):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None or m.end() == pos:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            at = len(src) - len(stripped)
            raise FieldSyntaxError(f"unexpected character {src[at]!r}", at)
        if m.group("num") is not None:
            tokens.append(("num", float(m.group("num")), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(src)))
    return tokens


class _Parser:
    def __init__(self, src, dim):
        self.src = src
        self.dim = dim
        self.tokens = tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise FieldSyntaxError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self):
        node = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise FieldSyntaxError("trailing input after expression", pos)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                node = Bin(val, node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                node = Bin(val, node, self.unary())
            else:
                return node

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            return Bin("^", base, self.unary())
        return base

    def atom(self):
        kind, val, pos = self.advance()
        if kind == "num":
            return Num(val)
        if kind == "ident":
            nxt_kind, nxt_val, _ = self.peek()
            if nxt_kind == "op" and nxt_val == "(":
                if val not in FUNCTIONS:
                    raise UnknownSymbolError(f"unknown function {val!r}", pos)
                self.advance()
                args = [self.expr()]
                while True:
                    k2, v2, p2 = self.peek()
                    if k2 == "op" and v2 == ",":
                        self.advance()
                        args.append(self.expr())
                    elif k2 == "op" and v2 == ")":
                        self.advance()
                        break
                    else:
                        raise FieldSyntaxError("expected ',' or ')'", p2)
                if len(args) != FUNCTIONS[val]:
                    raise ArityError(
                        f"{val} takes {FUNCTIONS[val]} argument(s), got {len(args)}", pos)
                return Call(val, tuple(args))
            if val == "r" or _coord_index(val, self.dim) is not None:
                return Sym(val)
            raise UnknownSymbolError(f"unknown identifier {val!r}", pos)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise FieldSyntaxError("expected a number, identifier or '('", pos)


def _coord_index(name, dim):
    if re.fullmatch(r"x\d+", name):
        k = int(name[1:])
        if 1 <= k <= dim:
            return k - 1
    return None


def parse(src, dim):
    """Parse an expression over x1..x{dim}, r.  Raises FieldSyntaxError."""
    if not src or not src.strip():
        raise FieldSyntaxError("empty expression", 0)
    return _Parser(src, dim).parse()


def free_symbols(node):
    if isinstance(node, Num):
        return set()
    if isinstance(node, Sym):
        return {node.name}
    if isinstance(node, Neg):
        return free_symbols(node.arg)
    if isinstance(node, Bin):
        return free_symbols(node.left) | free_symbols(node.right)
    if isinstance(node, Call):
        out = set()
        for a in node.args:
            out |= free_symbols(a)
        return out
    raise TypeError(f"not an AST node: {node!r}")


# ---------------------------------------------------------------------------
# printing (round-trips through parse with identical structure)
# ---------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def to_source(node):
    return _print(node, 0)


def _print(node, parent_prec):
    if isinstance(node, Num):
        s = repr(node.value)
        return s if node.value >= 0 else f"({s})"
    if isinstance(node, Sym):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({', '.join(_print(a, 0) for a in node.args)})"
    if isinstance(node, Neg):
        inner = f"-{_print(node.arg, _PREC['neg'])}"
        return f"({inner})" if parent_prec > _PREC["neg"] else inner
    if isinstance(node, Bin):
        prec = _PREC[node.op]
        if node.op == "^":
            # right operand of '^' sits in unary position
            s = f"{_print(node.left, prec + 1)}^{_print(node.right, _PREC['neg'])}"
        else:
            # left-associative: right child needs strictly higher precedence
            s = f"{_print(node.left, prec)} {node.op} {_print(node.right, prec + 1)}"
        return f"({s})" if parent_prec > prec else s
    raise TypeError(f"not an AST node: {node!r}")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _check_domain(ok, message):
    # a comparison of constants is a Python bool, which has no .all()
    if not (ok if isinstance(ok, bool) else ok.all()):
        raise DomainEvalError(message)


def _sigma(t):
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        return np.where(t > 0, np.exp(-1.0 / t), 0.0)


def smooth_cutoff(s, a, b):
    """C-infinity step: 1 for s <= a, 0 for s >= b."""
    s = np.asarray(s, dtype=float)
    t = (s - a) / (b - a)
    num = _sigma(t)
    den = num + _sigma(1.0 - t)
    return 1.0 - num / den


def evaluate(program, env):
    """Evaluate a compiled program (or an AST, compiled first) against an
    environment of coordinate arrays.

    ``env`` maps 'x1'.., 'r' to numpy arrays of a common shape; a constant
    expression comes back at that shape too.  Raises DomainEvalError
    instead of returning NaN/inf.
    """
    if not callable(program):
        program = compile_ast(program)
    val = program(env)
    _check_domain(np.isfinite(val), "expression evaluated to a non-finite value")
    if np.ndim(val) == 0 and env:
        return np.full(next(iter(env.values())).shape, val)
    return val


def compile_ast(node):
    """The AST as a program: a function of the environment built once, one
    closure per node.  Constants are Python floats that numpy broadcasts,
    symbols are environment lookups, and every domain check runs when the
    program is evaluated."""
    return _compile(node)


def _compile(node):
    if isinstance(node, Num):
        value = float(node.value)
        return lambda env: value
    if isinstance(node, Sym):
        name = node.name
        return lambda env: env[name]
    if isinstance(node, Neg):
        arg = _compile(node.arg)
        return lambda env: -arg(env)
    if isinstance(node, Bin):
        left, right = _compile(node.left), _compile(node.right)
        if node.op == "+":
            return lambda env: left(env) + right(env)
        if node.op == "-":
            return lambda env: left(env) - right(env)
        if node.op == "*":
            return lambda env: left(env) * right(env)
        if node.op == "/":
            def divide(env):
                a, b = left(env), right(env)
                _check_domain(b != 0, "division by zero")
                return a / b
            return divide
        if node.op == "^":
            return lambda env: _power(left(env), right(env))
        raise TypeError(node.op)
    if isinstance(node, Call):
        args = tuple(_compile(a) for a in node.args)
        if node.fn not in _CALLS:
            raise UnknownSymbolError(f"unknown function {node.fn!r}", 0)
        apply = _CALLS[node.fn]
        if len(args) == 1:
            (arg,) = args
            return lambda env: apply(arg(env))
        return lambda env: apply(*[a(env) for a in args])
    raise TypeError(f"not an AST node: {node!r}")


def _power(a, b):
    neg_base = a < 0
    if np.any(neg_base):
        _reject(neg_base & (b != np.floor(b)), "negative base with non-integer exponent")
    if np.any(b < 0):
        _reject((a == 0) & (b < 0), "zero raised to a negative power")
    with np.errstate(over="ignore"):
        return np.power(a, b)


def _reject(bad, message):
    if np.any(bad):
        raise DomainEvalError(message)


def _log(a):
    _check_domain(a > 0, "log of a non-positive argument")
    return np.log(a)


def _exp(a):
    with np.errstate(over="ignore"):
        return np.exp(a)


def _sqrt(a):
    _check_domain(a >= 0, "sqrt of a negative argument")
    return np.sqrt(a)


def _cutoff(s, a, b):
    _check_domain(np.less(a, b), "cutoff requires a < b")
    return smooth_cutoff(s, a, b)


_CALLS = {
    "log": _log,
    "exp": _exp,
    "sqrt": _sqrt,
    "atan": np.arctan,
    "pow": _power,
    "min": np.minimum,
    "max": np.maximum,
    "cutoff": _cutoff,
}
