"""Static checks over the package source.

Guarantees must raise typed errors: ``assert`` statements vanish under
``python -O`` and an ``AssertionError`` escapes the CLI's error handling.
Names imported from sibling modules must be used, so dead imports do not
accumulate; ``__init__`` only re-exports and is exempt from that check.
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


def test_no_asserts_or_unused_relative_imports():
    problems = [p for path in sorted(PACKAGE.glob("*.py")) for p in _problems(path)]
    assert not problems, "\n".join(problems)
