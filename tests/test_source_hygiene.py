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
or ``perfbench/``, so dead definitions do not accumulate either; and every
public function, class and method is read outside the tests, in ``src/`` or
``perfbench/``, so no public name serves the tests alone; README's code
reads only the few names ``README_READERS`` lists, each with its reason.
Every field of a package record (a ``NamedTuple`` or a dataclass) is read
in ``src/`` or ``perfbench/``, by an attribute load or through ``asdict``.
README's ``python`` quick tour, which keeps names alive, is run.  The two
independent checkers, ``geometry.is_balanced`` and ``oracle.enumerate_naive``,
load nothing of the angular machinery the construction is built from, so a
fault there cannot hide behind the check meant to catch it.  No handler
catches a theorem-level failure (``GuaranteeViolation``,
``CertificateFailure``), and there is no bare ``except:``: a guarantee that
fails must reach the caller.  One function assembles curves:
``sliding._curve_through`` is the only place that constructs a
``SlidingRotation``, and one reads their pieces: ``sliding.curve_pieces``
is the only place that constructs a ``RotateArc`` or a ``Slide``.  One
function makes instances: ``geometry._instance`` is the only place that
constructs an ``Instance``, so none exists without its slope-prefix rows.  ``gcd``
is called only where a slope, a direction or a fence row is reduced and
for ``enumerate_naive``'s common denominator: every other slope question
reads the 64-bit prefixes of ``geometry.slopes``.  No
parameter of a package function is passed the same literal or enum member by
every call in the package: a knob with one setting belongs in the body.
"""

import ast
import re
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


def _attribute_loads(tree: ast.AST) -> set[str]:
    """The names the tree loads as an attribute (``x.name``), not bare."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


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


def _call_sites(path: Path, names) -> list[str]:
    """Calls of the named functions or types, by the innermost function that makes them."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id in names):
                sites.append(f"{path.stem}.{'.'.join(scope)}: {child.func.id}")
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), ())
    return sites


def test_one_curve_assembly():
    sites = {s for path in sorted(PACKAGE.glob("*.py")) for s in _call_sites(path, CURVE_TYPES)}
    # each type is still made, and only by its one function
    assert sites == {f"sliding.{maker}: {kind}" for kind, maker in CURVE_TYPES.items()}


def test_one_instance_constructor():
    """``Instance(`` is called in one place, the constructor that ``validate``
    and ``gen_random`` share, so every instance carries its ``prefix_rows``."""
    sites = {s for path in sorted(PACKAGE.glob("*.py")) for s in _call_sites(path, {"Instance"})}
    assert sites == {"geometry._instance: Instance"}


GCD_CALLERS = {"geometry.slope", "geometry.direction_of", "geometry.Instance.fences",
               "oracle.enumerate_naive"}


def test_gcd_only_in_the_exact_reductions():
    """``gcd`` reduces one slope, one direction and the rows of a fence table,
    and finds the naive oracle's common denominator; nothing else calls it.
    Every other slope question reads the 64-bit prefixes of ``slopes``, so
    no second slope loop grows back."""
    sites = {s for path in sorted(PACKAGE.glob("*.py")) for s in _call_sites(path, {"gcd"})}
    assert sites == {f"{caller}: gcd" for caller in GCD_CALLERS}


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
    assert "Color" in enums and "halfplane_weight" in passed  # the check still reads
    problems = [
        f"{name}({param}): every call passes {spelled[0]}"
        for name, values in sorted(passed.items()) if name not in opaque
        for param, spelled in values.items()
        if spelled[0] is not None and len(set(spelled)) == 1
    ]
    assert not problems, "\n".join(problems)


def _public_definitions(path: Path) -> dict[str, int]:
    """The public functions and classes of a module and the public methods of its classes.

    Qualified names (``Direction.offset``) with their lines; dunders and
    ``_`` names are left out, and so are the members of a ``_`` class.
    """
    found = {}

    def visit(body, scope):
        for node in body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                found[".".join(scope + (node.name,))] = node.lineno
                if isinstance(node, ast.ClassDef):
                    visit(node.body, scope + (node.name,))

    visit(ast.parse(path.read_text(), filename=str(path)).body, ())
    return found


IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
FENCED = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)


def _readme_names() -> set[str]:
    """The identifiers README spells in code: fenced blocks and inline code spans."""
    text = (ROOT / "README.md").read_text()
    code = FENCED.findall(text) + re.findall(r"`([^`\n]+)`", FENCED.sub("", text))
    return {name for span in code for name in IDENTIFIER.findall(span)}


def _perfbench_strings(path: Path) -> set[str]:
    """The identifiers in the file's string constants (``spans.LAYERS`` names functions so)."""
    return {name for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            for name in IDENTIFIER.findall(node.value)}


README_READERS = {
    "count_balanced": "the quick tour counts the balanced lines with it",
    "is_delta_preserving": "the paper's delta-preservation condition on a level rotation",
    "is_delta_preserving_sliding": "the paper's delta-preservation condition on a sliding rotation",
    "is_positively_oriented": "the paper's orientation condition on a sliding rotation",
}


def test_every_public_name_has_a_reader():
    """Each public function, class and method is read outside the tests.

    A reader is a load in ``src/`` or in ``perfbench/`` (not its frozen
    ``reference`` copy), an identifier in a string constant of
    ``perfbench/``, or, for the names of ``README_READERS`` alone, a
    mention in README's code.  Each of those must be spelled in README's
    code and read nowhere else, so the set names exactly the public names
    that README alone keeps.  A method or property
    is read only by an attribute load there (``x.name``): a bare name of
    the same spelling, such as the builtin ``reversed(...)`` or a local
    ``rank``, is not a read of ``DirectedLine.reversed`` or
    ``Direction.rank``.  A name only the tests call belongs in
    ``tests/support.py``; ``__init__``'s re-exports load nothing, so they
    keep no name alive.
    """
    bench = [path for path in (ROOT / "perfbench").rglob("*.py")
             if "reference" not in path.relative_to(ROOT).parts]
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in list(PACKAGE.glob("*.py")) + bench]
    named = set().union(*map(_perfbench_strings, bench))
    read = set().union(*map(_loads, trees)) | named
    read_members = set().union(*map(_attribute_loads, trees)) | named
    assert set(README_READERS) <= _readme_names() and not set(README_READERS) & read
    read |= set(README_READERS)
    problems = [
        f"{path.name}:{line}: {name} has no reader outside the tests"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, line in _public_definitions(path).items()
        if name.rsplit(".", 1)[-1] not in (read_members if "." in name else read)
    ]
    assert bench and {"rank", "build_shift"} <= read  # the check still reads
    probe = ast.parse("reversed(xs)\nordered[rank]\nline.offset(d)")  # a member read is x.name
    assert _attribute_loads(probe) == {"offset"} and {"reversed", "rank", "offset"} <= _loads(probe)
    assert not problems, "\n".join(problems)


def _is_record(node: ast.ClassDef) -> bool:
    """A ``NamedTuple`` subclass or a ``@dataclass`` class, with or without arguments."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return (any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases)
            or any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators))


def _unread_fields(modules: dict[str, ast.Module], readers: list[ast.Module]) -> list[str]:
    """The record fields of ``modules`` that no reader loads.

    A field is an annotated name in a record's body.  It is read by an
    attribute load (``x.field``) in a reader; a record whose own code calls
    ``asdict`` (``RunReport.to_json``) reads all its fields there.
    """
    read = set().union(*map(_attribute_loads, readers))
    problems = []
    for module, tree in modules.items():
        for node in tree.body:
            if not (isinstance(node, ast.ClassDef) and _is_record(node)) or "asdict" in _loads(node):
                continue
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    field = f"{node.name}.{stmt.target.id}"
                    if stmt.target.id not in read:
                        problems.append(f"{module}:{stmt.lineno}: {field} is never read")
    return problems


SCRATCH_RECORDS = """
@dataclass(frozen=True)
class Scratch:
    kept: int
    dropped: int

class Pair(NamedTuple):
    left: int
    right: int

@dataclass
class Report:
    total: int

    def to_json(self):
        return asdict(self)
"""


def test_every_record_field_has_a_reader():
    """Each field of a package ``NamedTuple`` or dataclass is read in ``src/`` or ``perfbench/``.

    A field nothing reads is state that every construction pays for and no
    answer depends on.  ``perfbench``'s frozen ``reference`` copy reads
    nothing here, and neither do the tests.  The check flags a scratch
    record's unread field and nothing else of it.
    """
    bench = [path for path in (ROOT / "perfbench").rglob("*.py")
             if "reference" not in path.relative_to(ROOT).parts]
    modules = {path.name: ast.parse(path.read_text(), filename=str(path))
               for path in sorted(PACKAGE.glob("*.py"))}
    readers = list(modules.values()) + [ast.parse(path.read_text(), filename=str(path)) for path in bench]
    scratch = {"scratch.py": ast.parse(SCRATCH_RECORDS)}
    reader = ast.parse("def f(s, p):\n    return s.kept + p.left + p.right")
    assert _unread_fields(scratch, [reader]) == ["scratch.py:5: Scratch.dropped is never read"]
    problems = _unread_fields(modules, readers)
    assert not problems, "\n".join(problems)


def test_readme_quick_tour_runs():
    """README's ``python`` block runs as written, with its own asserts."""
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
