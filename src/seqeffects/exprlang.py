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

`CompiledExpr.eval_arrays` evaluates an expression once over many
evaluation points that share t and T, with views whose lookups return
columns. It walks the tree that `compile_expr` parsed and validated,
while a single point runs the code CPython compiled from the same text.
The walk gives each point the value `eval` would, bit for bit, or
raises: a PatternError where a lookup fails, and `InexactArrays` where
array arithmetic could differ from Python's, so that the caller can
evaluate those points one at a time.
"""

from __future__ import annotations

import ast
import operator
from dataclasses import dataclass, field, replace
from functools import cached_property
from types import CodeType
from typing import Callable, Sequence

import numpy as np

from .errors import PatternError

_BOOL_OPS = (ast.And, ast.Or)
_UNARY_OPS = (ast.Not, ast.USub, ast.UAdd)
_BIN_OPS = (ast.Add, ast.Sub, ast.Mult)
_CMP_OPS = (ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE)


@dataclass(frozen=True)
class CompiledExpr:
    """A validated expression, ready to evaluate against a history env.

    Its array form is the same expression with no code: `eval` then walks
    `tree` over columns.
    """

    text: str
    code: CodeType | None
    uses: frozenset[str]
    tree: ast.expr = field(compare=False, repr=False)

    def eval(self, env: dict) -> object:
        if self.code is None:
            return _evaluate(self.tree, env)
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

    def eval_arrays(self, env: dict) -> object:
        """The value at every point of a batch: a scalar shared by all, or
        an array with one entry per point. `env` holds t and T as numbers
        and views over columns; raises PatternError or `InexactArrays`
        where a point must be evaluated alone (see the module docstring)."""
        return self._arrays.eval(env)

    @cached_property
    def _arrays(self) -> "CompiledExpr":
        return replace(self, code=None)


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
    return CompiledExpr(text, code, frozenset(uses), tree.body)


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


# -- evaluation over arrays ----------------------------------------------

# Integers up to this magnitude are exact in int64 and in float64, so
# array arithmetic and comparisons on them agree with Python's.
_EXACT = 2**53


class InexactArrays(ArithmeticError):
    """Array evaluation could differ from Python's for some point."""


def _integral(v) -> bool:
    if isinstance(v, np.ndarray):
        return v.dtype.kind in "bi"
    return not isinstance(v, float)


def _operand(v):
    """v with booleans read as the integers Python computes with."""
    if isinstance(v, np.ndarray):
        return v.astype(np.int64) if v.dtype.kind == "b" else v
    return int(v) if isinstance(v, bool) else v


def _bound(v) -> int:
    return int(np.abs(v).max()) if isinstance(v, np.ndarray) else abs(v)


def _require_exact(*values) -> list[int]:
    """The magnitude bounds of the integral values, all within 2**53."""
    bounds = [_bound(v) for v in values if _integral(v)]
    if max(bounds, default=0) > _EXACT:
        raise InexactArrays("an integer beyond 2**53 meets an array")
    return bounds


def _arith(op):
    def apply(a, b):
        if not (isinstance(a, np.ndarray) or isinstance(b, np.ndarray)):
            return op(a, b)
        a, b = _operand(a), _operand(b)
        bounds = _require_exact(a, b)
        if len(bounds) == 2:  # integer arithmetic: its result must stay exact too
            _require_exact(op(*bounds) if op is operator.mul else sum(bounds))
        with np.errstate(all="ignore"):
            return op(a, b)

    return apply


def _compare(op):
    def apply(a, b):
        if not (isinstance(a, np.ndarray) or isinstance(b, np.ndarray)):
            return op(a, b)
        a, b = _operand(a), _operand(b)
        _require_exact(a, b)
        return op(a, b)

    return apply


def _truth(v) -> np.ndarray:
    return v != 0


def _pick(cond, x, y):
    """x where cond holds, else y; both integral or both floats, so that
    no point's value changes type."""
    if _integral(x) != _integral(y):
        raise InexactArrays("and/or mixes integers and floats across points")
    _require_exact(x, y)
    return np.where(cond, x, y)


def _and(a, b):
    """a and b, where a is not false at every point."""
    if not isinstance(a, np.ndarray):
        return b
    truth = _truth(a)
    return b if truth.all() else _pick(truth, b, a)


def _or(a, b):
    """a or b, where a is not true at every point."""
    if not isinstance(a, np.ndarray):
        return b
    truth = _truth(a)
    return b if not truth.any() else _pick(truth, a, b)


def _stop_and(a) -> bool:
    return not (_truth(a).any() if isinstance(a, np.ndarray) else a)


def _stop_or(a) -> bool:
    return bool(_truth(a).all() if isinstance(a, np.ndarray) else a)


_OPS = {
    ast.Add: _arith(operator.add),
    ast.Sub: _arith(operator.sub),
    ast.Mult: _arith(operator.mul),
    ast.Eq: _compare(operator.eq),
    ast.NotEq: _compare(operator.ne),
    ast.Lt: _compare(operator.lt),
    ast.LtE: _compare(operator.le),
    ast.Gt: _compare(operator.gt),
    ast.GtE: _compare(operator.ge),
    ast.Not: lambda a: np.logical_not(a) if isinstance(a, np.ndarray) else not a,
    ast.USub: lambda a: -_operand(a) if isinstance(a, np.ndarray) else -a,
    ast.UAdd: lambda a: _operand(a) if isinstance(a, np.ndarray) else +a,
}


def _evaluate(node: ast.expr, env: dict) -> object:
    """The value of a validated tree, its operands taken in Python's order.

    and/or and chained comparisons keep Python's laziness: a later operand
    is evaluated only when some point still needs it.
    """
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        return env[node.id]
    if isinstance(node, ast.Subscript):
        return _evaluate(node.value, env)[_evaluate(node.slice, env)]
    if isinstance(node, ast.BinOp):
        return _OPS[type(node.op)](_evaluate(node.left, env), _evaluate(node.right, env))
    if isinstance(node, ast.UnaryOp):
        return _OPS[type(node.op)](_evaluate(node.operand, env))
    if isinstance(node, ast.BoolOp):
        stop, join = (_stop_and, _and) if isinstance(node.op, ast.And) else (_stop_or, _or)
        result = _evaluate(node.values[0], env)
        for value in node.values[1:]:
            if stop(result):
                break
            result = join(result, _evaluate(value, env))
        return result
    left, result = _evaluate(node.left, env), None  # a Compare
    for op, comparator in zip(node.ops, node.comparators):
        if result is not None and _stop_and(result):
            break
        right = _evaluate(comparator, env)
        test = _OPS[type(op)](left, right)
        result = test if result is None else _and(result, test)
        left = right
    return result
