"""Count the settable values of the fwlab sources.

A settable value is a parameter of a function or method (nested functions
included, lambdas not; a method's leading ``self`` or ``cls`` is not one) or
a field of a dataclass.  The script prints the count, and how many of the
parameters have a default, read from the source with ``ast``.

Usage: python3 scripts/settable_values.py
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fwlab"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def count(tree: ast.AST) -> tuple[int, int]:
    """(settable values, parameters with a default) in one parsed module."""
    total = defaults = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            positional = a.posonlyargs + a.args
            if positional and positional[0].arg in ("self", "cls"):
                positional = positional[1:]
            total += len(positional) + len(a.kwonlyargs)
            total += (a.vararg is not None) + (a.kwarg is not None)
            defaults += len(a.defaults) + sum(d is not None for d in a.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    total += 1
    return total, defaults


def main():
    total = defaults = 0
    for path in sorted(SRC.glob("*.py")):
        t, d = count(ast.parse(path.read_text(), str(path)))
        total, defaults = total + t, defaults + d
    print(f"settable values: {total}")
    print(f"parameters with defaults: {defaults}")


if __name__ == "__main__":
    main()
