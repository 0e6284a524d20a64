"""Target-function registry and a small arithmetic expression parser.

Targets reach the tooling either as named builtins (the demo polynomials and
low-degree monomials) or as expression strings over +, -, *, /, ^ and
parentheses with variables ``y`` (one argument) or ``y1``/``y2`` (two).
Builtins are stored as expression sources too, so every resolved target is
a parsed expression or a product of two.  Parsed expressions evaluate on
scalars and numpy arrays alike.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bivariate import SeparableFunction
from .errors import EvaluationError

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


class ExpressionError(ValueError):
    """The expression string cannot be parsed or uses unknown names."""


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ExpressionError(f"unexpected character {text[pos]!r} at position {pos}")
        pos = match.end()
        tokens.append(match.group().strip())
    return tokens


class _Parser:
    """Recursive descent over: expr > term > factor > power > atom."""

    def __init__(self, tokens: list[str], variables: tuple[str, ...]):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ExpressionError("expression ended unexpectedly")
        self.pos += 1
        return tok

    def parse(self):
        node = self.expr()
        if self.peek() is not None:
            raise ExpressionError(f"unexpected token {self.peek()!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            node = ("add" if op == "+" else "sub", node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            node = ("mul" if op == "*" else "div", node, self.factor())
        return node

    def factor(self):
        if self.peek() in ("+", "-"):
            op = self.take()
            child = self.factor()
            return child if op == "+" else ("neg", child)
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            self.take()
            # Right associative: y^2^3 is y^(2^3).
            return ("pow", base, self.factor())
        return base

    def atom(self):
        tok = self.take()
        if tok == "(":
            node = self.expr()
            if self.take() != ")":
                raise ExpressionError("missing closing parenthesis")
            return node
        if re.fullmatch(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?", tok):
            return ("num", float(tok))
        if re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", tok):
            if tok not in self.variables:
                allowed = ", ".join(self.variables)
                raise ExpressionError(f"unknown name {tok!r}; allowed variables: {allowed}")
            return ("var", tok)
        raise ExpressionError(f"unexpected token {tok!r}")


def _eval_node(node, env):
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "var":
        return env[node[1]]
    if kind == "neg":
        return -_eval_node(node[1], env)
    left = _eval_node(node[1], env)
    right = _eval_node(node[2], env)
    if kind == "add":
        return left + right
    if kind == "sub":
        return left - right
    if kind == "mul":
        return left * right
    if kind == "div":
        return left / right
    return left ** right


@dataclass(frozen=True)
class Expression:
    """Compiled expression; callable with one argument per variable."""

    source: str
    variables: tuple[str, ...]
    _ast: tuple

    def __call__(self, *args):
        if len(args) != len(self.variables):
            raise TypeError(
                f"expression over {self.variables} takes {len(self.variables)} arguments"
            )
        env = dict(zip(self.variables, args))
        try:
            # Non-finite array values are left to the caller's finiteness
            # check, which reports them once.
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                result = _eval_node(self._ast, env)
        except OverflowError:
            raise EvaluationError(f"expression {self.source!r} overflows a float") from None
        if np.iscomplexobj(result):
            raise EvaluationError(f"expression {self.source!r} has a complex value")
        # A result that uses only some arguments (a constant, or y1^2 over
        # y1 and y2) has a smaller shape; callers expect the broadcast one.
        if any(isinstance(a, np.ndarray) for a in args):
            shape = np.broadcast(*[np.asarray(a) for a in args]).shape
            if np.shape(result) != shape:
                return np.full(shape, result, dtype=float)
        return result

    def __repr__(self):
        return f"Expression({self.source!r})"


def parse_expression(text: str, variables: tuple[str, ...] = ("y",)) -> Expression:
    tokens = _tokenize(text)
    if not tokens:
        raise ExpressionError("empty expression")
    ast = _Parser(tokens, variables).parse()
    return Expression(source=text, variables=variables, _ast=ast)


#: Builtin name -> expression source over ``y``.  A pair of sources names a
#: separable two-argument target, the product of one factor per argument.
BUILTINS: dict[str, str | tuple[str, str]] = {
    "table1-poly": "y^3 - 5*y^2 + 6*y + 2",
    "fig3-poly": ("y^3", "y^2"),
    **{f"e{k}": f"y^{k}" for k in range(5)},
}


def resolve_function(text: str, arity: int = 1) -> Callable:
    """Builtin name, ``const:C``, or expression string to a callable.

    ``arity`` selects the variable set: 1 exposes ``y``, 2 exposes ``y1``
    and ``y2``.  Raises ExpressionError for anything unresolvable.
    """
    if arity not in (1, 2):
        raise ExpressionError("arity must be 1 or 2")
    name = text.strip()
    variables = ("y",) if arity == 1 else ("y1", "y2")
    entry = BUILTINS.get(name)
    if entry is not None:
        takes = 2 if isinstance(entry, tuple) else 1
        if takes != arity:
            raise ExpressionError(f"{name!r} takes {takes} argument(s), not {arity}")
        if arity == 1:
            return parse_expression(entry)
        return SeparableFunction(*map(parse_expression, entry))
    if name.startswith("const:"):
        try:
            value = float(name[len("const:"):])
        except ValueError:
            raise ExpressionError(f"bad constant in {name!r}") from None
        return Expression(source=name, variables=variables, _ast=("num", value))
    return parse_expression(name, variables)
