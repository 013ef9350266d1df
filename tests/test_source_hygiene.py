"""Static checks over the package source.

Guarantees must raise typed errors: ``assert`` statements vanish under
``python -O`` and an ``AssertionError`` escapes the CLI's error handling.
Names imported from sibling modules must be used, so dead imports do not
accumulate; ``__init__`` only re-exports and is exempt from that check.
Likewise every local name a function assigns must be read somewhere in it;
names that start with ``_`` mark values discarded on purpose.  Global memos
stay the two that exist: a new ``lru_cache`` or ``functools.cache`` would
hold the directions of every instance ever seen, where per-instance tables
(``Instance.fences``) are freed with their instance, and the package itself
never reads those two: it keeps no state between instances.  Outside the SVG
renderer the package computes exactly: no float literal, no ``float(``
call and nothing from ``math`` but ``gcd``.  Every module-level function,
class and constant of the package is read somewhere in ``src/``, ``tests/``
or ``perfbench/``, so dead definitions do not accumulate either.  The two
independent checkers, ``geometry.is_balanced`` and ``oracle.enumerate_naive``,
load nothing of the angular machinery the construction is built from, so a
fault there cannot hide behind the check meant to catch it.  No handler
catches a theorem-level failure (``GuaranteeViolation``,
``CertificateFailure``), and there is no bare ``except:``: a guarantee that
fails must reach the caller.  One function assembles curves:
``sliding._curve_through`` is the only place that constructs a
``SlidingRotation``, and one reads their pieces: ``sliding.curve_pieces``
is the only place that constructs a ``RotateArc`` or a ``Slide``.  No
parameter of a package function is passed the same literal or enum member by
every call in the package: a knob with one setting belongs in the body.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "balanced_lines"


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


MEMO_NAMES = {"lru_cache", "cache"}
ALLOWED_MEMOS = {"Direction.of", "direction_key_from"}  # perfbench/spans.py reads both


def _memo_sites(path: Path) -> list[str]:
    """Where the module wraps a function in a memo: the qualified name it defines.

    A memo mentioned anywhere else (called inline, imported under another
    name) is reported by its line.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    sites = []

    def mentions(node) -> bool:
        return any(
            (isinstance(n, ast.Name) and n.id in MEMO_NAMES)
            or (isinstance(n, ast.Attribute) and n.attr in MEMO_NAMES)
            for n in ast.walk(node)
        )

    def visit(nodes, scope):
        for child in nodes:
            if isinstance(child, ast.ImportFrom):
                sites.extend(f"{path.name}:{child.lineno}: {a.name} as {a.asname}"
                             for a in child.names if a.name in MEMO_NAMES and a.asname)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = ".".join(scope + (child.name,))
                sites.extend(name for d in child.decorator_list if mentions(d))
                visit(child.body, scope + (child.name,))
            elif isinstance(child, ast.Assign) and mentions(child.value):
                sites.extend(".".join(scope + (t.id,)) if isinstance(t, ast.Name)
                             else f"{path.name}:{child.lineno}" for t in child.targets)
            elif isinstance(child, ast.expr) and mentions(child):
                sites.append(f"{path.name}:{child.lineno}")
            else:
                visit(ast.iter_child_nodes(child), scope)

    visit(tree.body, ())
    return sites


def test_no_new_global_memos():
    sites = [s for path in sorted(PACKAGE.glob("*.py")) for s in _memo_sites(path)]
    assert set(sites) <= ALLOWED_MEMOS, sorted(set(sites) - ALLOWED_MEMOS)
    assert ALLOWED_MEMOS <= set(sites)  # the check still finds the memos that exist


def _memo_reads(path: Path) -> list[str]:
    """Where the module loads ``Direction.of`` or ``direction_key_from``, or imports the latter.

    Their definitions store the names and load neither, so they pass.
    """
    problems = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            problems += [f"{path.name}:{node.lineno}: imports {a.name}"
                         for a in node.names if a.name == "direction_key_from"]
        elif not isinstance(getattr(node, "ctx", None), ast.Load):
            continue
        elif isinstance(node, ast.Name) and node.id == "direction_key_from":
            problems.append(f"{path.name}:{node.lineno}: loads direction_key_from")
        elif isinstance(node, ast.Attribute) and node.attr == "of":
            problems.append(f"{path.name}:{node.lineno}: loads .of")
    return problems


def test_package_never_reads_the_global_memos():
    problems = [p for path in sorted(PACKAGE.glob("*.py")) for p in _memo_reads(path)]
    assert not problems, "\n".join(problems)


def _inexact(path: Path) -> list[str]:
    """Float literals, ``float(`` calls and ``math`` imports other than ``gcd``."""
    problems = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            problems.append(f"{path.name}:{node.lineno}: float literal {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            problems.append(f"{path.name}:{node.lineno}: float() call")
        elif isinstance(node, ast.Import):
            problems += [f"{path.name}:{node.lineno}: import {a.name}"
                         for a in node.names if a.name.split(".")[0] in ("math", "cmath")]
        elif isinstance(node, ast.ImportFrom) and node.module in ("math", "cmath"):
            problems += [f"{path.name}:{node.lineno}: from {node.module} import {a.name}"
                         for a in node.names if node.module != "math" or a.name != "gcd"]
    return problems


def test_no_floats_in_exact_core():
    paths = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "svg.py"]
    assert len(paths) >= 8  # the check still finds the package
    problems = [p for path in paths for p in _inexact(path)]
    assert not problems, "\n".join(problems)


def _module_names(path: Path) -> dict[str, int]:
    """The functions, classes and constants a module defines at top level, with their lines."""
    names = {}
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update((n.id, node.lineno) for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return names


def _loads(tree: ast.AST) -> set[str]:
    """Every name the tree loads, bare or as an attribute."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def _read_names(path: Path) -> set[str]:
    """Every name the file loads, bare or as an attribute."""
    return _loads(ast.parse(path.read_text(), filename=str(path)))


def test_no_unread_module_names():
    # perfbench/reference is a frozen earlier copy of the package: its reads
    # would keep names alive that the package itself no longer needs
    sources = [path for top in ("src", "tests", "perfbench") for path in (ROOT / top).rglob("*.py")
               if "reference" not in path.relative_to(ROOT).parts]
    read = set().union(*map(_read_names, sources))
    problems = [
        f"{path.name}:{line}: {name} is defined but never read"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, line in _module_names(path).items()
        if name not in read and name != "__version__"
    ]
    assert len(sources) > 20  # the check still finds the sources
    assert not problems, "\n".join(problems)


INDEPENDENT_CHECKERS = (("geometry.py", "is_balanced"), ("oracle.py", "enumerate_naive"))
CONSTRUCTION_NAMES = {
    "Direction", "DirectedLine", "direction_of", "direction_key", "direction_key_from",
    "fences", "fence_rows", "pair_fences", "halfplane_weight", "just_after_keys", "offset",
}


def test_independent_checkers_share_nothing_with_the_construction():
    problems = []
    for module, name in INDEPENDENT_CHECKERS:
        path = PACKAGE / module
        funcs = [node for node in ast.parse(path.read_text(), filename=str(path)).body
                 if isinstance(node, ast.FunctionDef) and node.name == name]
        assert len(funcs) == 1, f"{module} defines no single {name}"
        shared = _loads(funcs[0]) & CONSTRUCTION_NAMES
        if shared:
            problems.append(f"{module}:{funcs[0].lineno}: {name} loads {sorted(shared)}")
    assert not problems, "\n".join(problems)


GUARANTEE_ERRORS = {"GuaranteeViolation", "CertificateFailure"}


def _swallowed_guarantees(path: Path) -> list[str]:
    """Bare ``except:`` handlers, and handlers that name a guarantee error."""
    problems = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            problems.append(f"{path.name}:{node.lineno}: bare except")
            continue
        named = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node.type)
                 if isinstance(n, (ast.Name, ast.Attribute))}
        problems += [f"{path.name}:{node.lineno}: except {name}"
                     for name in sorted(named & GUARANTEE_ERRORS)]
    return problems


def test_no_guarantee_is_caught():
    problems = [p for path in sorted(PACKAGE.glob("*.py")) for p in _swallowed_guarantees(path)]
    assert not problems, "\n".join(problems)


CURVE_TYPES = {"RotateArc": "curve_pieces", "Slide": "curve_pieces",
               "SlidingRotation": "_curve_through"}


def _curve_constructions(path: Path) -> list[str]:
    """Calls of a curve type, by the innermost function that makes them."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id in CURVE_TYPES):
                sites.append(f"{path.stem}.{'.'.join(scope)}: {child.func.id}")
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), ())
    return sites


def test_one_curve_assembly():
    sites = {s for path in sorted(PACKAGE.glob("*.py")) for s in _curve_constructions(path)}
    # each type is still made, and only by its one function
    assert sites == {f"sliding.{maker}: {kind}" for kind, maker in CURVE_TYPES.items()}


def _fixed(expr: ast.expr, enums: set[str]):
    """The literal or enum member an argument spells, or None for anything computed."""
    if isinstance(expr, ast.Constant):
        return repr(expr.value)
    if (isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name)
            and expr.value.id in enums):
        return f"{expr.value.id}.{expr.attr}"
    return None


def test_no_single_value_parameters():
    """No package function has a parameter that every package call passes the same value.

    Calls by bare name to the module-level functions are read; a parameter
    counts when each such call spells it as the same literal or enum member.
    A call with ``*args`` or ``**kwargs`` leaves its function out.  Such a
    parameter is a knob with one setting: the value belongs in the body.
    """
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))]
    enums = {node.name for tree in trees for node in tree.body if isinstance(node, ast.ClassDef)
             and any(isinstance(b, ast.Name) and b.id == "Enum" for b in node.bases)}
    funcs = {node.name: node for tree in trees for node in tree.body
             if isinstance(node, ast.FunctionDef)}
    passed: dict[str, dict[str, list]] = {}
    opaque = set()
    for tree in trees:
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in funcs):
                continue
            func = funcs[node.func.id]
            if (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords)):
                opaque.add(func.name)
                continue
            params = func.args.posonlyargs + func.args.args + func.args.kwonlyargs
            given = {p.arg: a for p, a in zip(params, node.args)}
            given.update((k.arg, k.value) for k in node.keywords)
            values = passed.setdefault(func.name, {})
            for p in params:
                spelled = _fixed(given[p.arg], enums) if p.arg in given else None
                values.setdefault(p.arg, []).append(spelled)
    assert {"Color", "Side"} <= enums and "halfplane_weight" in passed  # the check still reads
    problems = [
        f"{name}({param}): every call passes {spelled[0]}"
        for name, values in sorted(passed.items()) if name not in opaque
        for param, spelled in values.items()
        if spelled[0] is not None and len(set(spelled)) == 1
    ]
    assert not problems, "\n".join(problems)
