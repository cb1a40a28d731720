"""Restricted arithmetic/boolean expressions over treatment histories.

Pattern files and generative-model files share one expression grammar:
numbers, the names t and T (and u where a latent class exists), history
lookups z[s] and x[s][i], comparisons, and/or/not, and +, -, *. Anything
else in the source text is rejected up front, and evaluation runs with no
builtins, so expression files cannot reach the interpreter.

History lookups follow one convention everywhere: positions s below 1
read as the reference value 0, positions beyond what the evaluation point
determines are an error, and covariate components i are 1-based to match
the x{s}_{i} column labels.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from types import CodeType
from typing import Callable, Sequence

from .errors import PatternError

_BOOL_OPS = (ast.And, ast.Or)
_UNARY_OPS = (ast.Not, ast.USub, ast.UAdd)
_BIN_OPS = (ast.Add, ast.Sub, ast.Mult)
_CMP_OPS = (ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE)


@dataclass(frozen=True)
class CompiledExpr:
    """A validated expression, ready to evaluate against a history env."""

    text: str
    code: CodeType
    uses: frozenset[str]

    def eval(self, env: dict) -> object:
        return eval(self.code, {"__builtins__": {}}, env)

    def eval_number(self, env: dict) -> float:
        value = self.eval(env)
        if isinstance(value, bool):
            return float(value)
        if not isinstance(value, (int, float)):
            raise PatternError(f"expression {self.text!r} is not numeric")
        return float(value)

    def eval_predicate(self, env: dict) -> bool:
        return bool(self.eval(env))


def compile_expr(
    text: str,
    allowed_names: frozenset[str] | set[str] = frozenset({"t", "T"}),
    error_cls: type[Exception] = PatternError,
) -> CompiledExpr:
    """Parse, validate, and compile one expression.

    allowed_names lists the bare names usable besides the z/x history
    lookups. Violations raise error_cls with the offending construct.
    """
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise error_cls(f"bad expression {text!r}: {exc.msg}") from None
    uses: set[str] = set()
    _validate(tree.body, text, frozenset(allowed_names), uses, error_cls)
    code = compile(tree, "<expr>", "eval")
    return CompiledExpr(text, code, frozenset(uses))


def _validate(node, text, allowed, uses, error_cls) -> None:
    def fail(what: str):
        raise error_cls(f"bad expression {text!r}: {what}")

    if isinstance(node, ast.BoolOp):
        if not isinstance(node.op, _BOOL_OPS):
            fail("unsupported boolean operator")
        for part in node.values:
            _validate(part, text, allowed, uses, error_cls)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, _UNARY_OPS):
            fail("unsupported unary operator")
        _validate(node.operand, text, allowed, uses, error_cls)
    elif isinstance(node, ast.BinOp):
        if not isinstance(node.op, _BIN_OPS):
            fail("only +, - and * are available")
        _validate(node.left, text, allowed, uses, error_cls)
        _validate(node.right, text, allowed, uses, error_cls)
    elif isinstance(node, ast.Compare):
        if not all(isinstance(op, _CMP_OPS) for op in node.ops):
            fail("unsupported comparison")
        _validate(node.left, text, allowed, uses, error_cls)
        for part in node.comparators:
            _validate(part, text, allowed, uses, error_cls)
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)) or isinstance(node.value, complex):
            fail(f"constant {node.value!r} is not a number")
    elif isinstance(node, ast.Name):
        if node.id == "z":
            fail("z must be indexed, like z[1]")
        if node.id == "x":
            fail("x must be indexed twice, like x[1][1]")
        if node.id not in allowed:
            fail(f"unknown name {node.id!r}")
        uses.add(node.id)
    elif isinstance(node, ast.Subscript):
        target = node.value
        if isinstance(target, ast.Name) and target.id == "z":
            uses.add("z")
            _validate(node.slice, text, allowed, uses, error_cls)
        elif (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Name)
            and target.value.id == "x"
        ):
            uses.add("x")
            _validate(target.slice, text, allowed, uses, error_cls)
            _validate(node.slice, text, allowed, uses, error_cls)
        elif isinstance(target, ast.Name) and target.id == "x":
            fail("x[s] needs a component index, like x[s][1]")
        else:
            fail("only z[s] and x[s][i] can be indexed")
    else:
        fail(f"unsupported syntax ({type(node).__name__})")


def _position(value, error_cls, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise error_cls(f"{what} position must be an integer, got {value!r}")
    return value


class _Row:
    __slots__ = ("_vec", "_error")

    def __init__(self, vec: Sequence[int] | None, error_cls):
        self._vec = vec
        self._error = error_cls

    def __getitem__(self, i) -> int:
        i = _position(i, self._error, "covariate component")
        if self._vec is None:
            return 0
        if not 1 <= i <= len(self._vec):
            raise self._error(
                f"covariate component {i} is outside 1..{len(self._vec)}"
            )
        return self._vec[i - 1]


class TreatmentView:
    """z[s] over the values known at positions first, first + 1, ...;
    s < 1 reads as control, and any other position raises
    error_cls(missing(s))."""

    __slots__ = ("_first", "_values", "_error", "_missing")
    _what = "treatment"

    def __init__(
        self, first: int, values: Sequence, error_cls, missing: Callable[[int], str]
    ):
        self._first = first
        self._values = values
        self._error = error_cls
        self._missing = missing

    def __getitem__(self, s):
        s = _position(s, self._error, self._what)
        if s < 1:
            return self._read(None)
        if not 0 <= s - self._first < len(self._values):
            raise self._error(self._missing(s))
        return self._read(self._values[s - self._first])

    def _read(self, value):
        return 0 if value is None else value


class CovariateView(TreatmentView):
    """x[s][i] over the vectors known at positions first, first + 1, ...;
    s < 1 reads as the reference vector of zeros."""

    __slots__ = ()
    _what = "covariate"

    def _read(self, vec) -> _Row:
        return _Row(vec, self._error)
