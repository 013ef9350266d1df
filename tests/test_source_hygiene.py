"""Static checks over the package source.

Guarantees must raise typed errors: ``assert`` statements vanish under
``python -O`` and an ``AssertionError`` escapes the CLI's error handling.
Names imported from sibling modules must be used, so dead imports do not
accumulate; ``__init__`` only re-exports and is exempt from that check.
Likewise every local name a function assigns must be read somewhere in it;
names that start with ``_`` mark values discarded on purpose.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "balanced_lines"


def _problems(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    problems = []
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            problems.append(f"{path.name}:{node.lineno}: assert statement")
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                problems.append(f"{path.name}:{node.lineno}: raise AssertionError")
        elif isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    if path.name != "__init__.py":
        problems += [
            f"{path.name}:{line}: unused import {name}"
            for name, line in imported.items() if name not in used
        ]
    return problems


def _unread_in(path: Path, func: ast.AST) -> list[str]:
    """Names the function (or a closure inside it) stores but never loads."""
    stored: dict[str, int] = {}
    loaded = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            loaded.update(node.names)
        elif isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Store):
                stored.setdefault(node.id, node.lineno)
            else:
                loaded.add(node.id)
    return [
        f"{path.name}:{line}: local {name} in {func.name} is assigned but never read"
        for name, line in stored.items() if name not in loaded and not name.startswith("_")
    ]


def test_no_asserts_or_unused_relative_imports():
    problems = [p for path in sorted(PACKAGE.glob("*.py")) for p in _problems(path)]
    assert not problems, "\n".join(problems)


def test_no_unread_locals():
    problems = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                problems += _unread_in(path, node)
    assert not problems, "\n".join(problems)
