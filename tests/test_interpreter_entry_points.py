"""Expression files cannot reach the interpreter except through exprlang.

The builtins `eval`, `exec` and `compile` may be named in the package only
inside `exprlang.compile_expr`, which compiles a tree it has validated, and
`CompiledExpr.eval`, which runs that code with no builtins. Any other use,
even an alias such as `run = eval`, fails this test.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "seqeffects"
BUILTINS = {"eval", "exec", "compile"}
ALLOWED = {("exprlang", "compile_expr", "compile"), ("exprlang", "CompiledExpr.eval", "eval")}


def _uses(tree: ast.AST, module: str, scope: tuple[str, ...] = ()):
    """(module, enclosing qualified name, builtin) for every bare name or
    `builtins.<name>` attribute that reads one of BUILTINS."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _uses(node, module, scope + (node.name,))
            continue
        if isinstance(node, ast.Name) and node.id in BUILTINS:
            yield module, ".".join(scope), node.id
        if (
            isinstance(node, ast.Attribute)
            and node.attr in BUILTINS
            and isinstance(node.value, ast.Name)
            and node.value.id in {"builtins", "__builtins__"}
        ):
            yield module, ".".join(scope), node.attr
        yield from _uses(node, module, scope)


def test_only_exprlang_compiles_and_evaluates():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found.update(_uses(ast.parse(path.read_text()), path.stem))
    # Equality, not a subset: a scanner that found nothing would pass vacuously.
    assert found == ALLOWED
