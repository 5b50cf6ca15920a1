"""Source rules for src/sturmia, checked on its syntax trees.

No bare `assert` (checks must still run under python -O), no name imported
but unused (the package's re-exports in __init__.py excepted), no
module-level private function that nothing in the package references, no
module-level public function that is neither in `sturmia.__all__` nor
referenced in the package or in perfbench, and no public method or property
whose name no attribute access in the package or in perfbench carries.

The method rule matches names only: a method is taken as called when any
`.name` attribute of that name appears, whatever object it is read from.  It
cannot flag a method whose name is also a field or another class's method,
such as a `value()` method beside the many `.value` fields.

Every name in `sturmia.__all__` resolves on the package and is listed
once, so `from sturmia import *` finds no stale or doubled name.

Rauzy graphs are read off the characteristic prefix by string searches, so
`sturmia.rauzy` does not bind `window_walk`: the window walk stays the
factor-set scan and the oracle the graphs are checked against, not a second
way to build them.

Importing the package must not load `dataclasses`, `inspect` or `typing`:
each cost a large share of what importing sturmia did, which every CLI call
pays.  Records are `collections.namedtuple` classes and annotations name
`collections.abc` types, so no module imports `dataclasses` or `typing`, and
a fresh interpreter shows none of the three loaded after the import.  Nor
does importing the CLI load the acceptance suite, which only `verify` runs.

No function that takes arguments is wrapped in `functools.lru_cache` or
`functools.cache`: a module-level cache keyed by value holds its arguments,
slopes among them, and their results for the life of the process.  What a
slope computes once is kept on the slope, and dies with it.  A cached
function of no arguments (the CLI's shared parser) holds one value.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _attributes(nodes) -> set[str]:
    return {node.attr for node in nodes if isinstance(node, ast.Attribute)}


def _references(nodes) -> set[str]:
    return {node.id for node in nodes if isinstance(node, ast.Name)} | _attributes(nodes)


def scan(root: Path) -> dict[str, list[str]]:
    """Violations found in root/src/sturmia, by rule; root/perfbench counts
    as a caller of public functions and methods."""
    src = root / "src" / "sturmia"
    found: dict[str, list[str]] = {
        "bare assert": [],
        "unused import": [],
        "private function": [],
        "public function": [],
        "public method": [],
    }
    defs = []  # (path, node) of each module-level def
    methods = []  # (path, class name, node) of each def in a class body
    referenced = set()
    attributes = set()
    exported = set()
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        nodes = list(ast.walk(tree))
        defs += [
            (path, node)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        methods += [
            (path, cls.name, node)
            for cls in nodes
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        used = {node.id for node in nodes if isinstance(node, ast.Name)}
        referenced |= _references(nodes)
        attributes |= _attributes(nodes)
        found["bare assert"] += [
            f"{path}:{node.lineno}: bare assert; raise AssertionError instead"
            for node in nodes
            if isinstance(node, ast.Assert)
        ]
        if path.name == "__init__.py":
            exported |= {
                name
                for node in tree.body
                if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for name in ast.literal_eval(node.value)
            }
            continue  # imports there are the package's re-exports
        found["unused import"] += [
            f"{path}:{node.lineno}: {name} imported but unused"
            for node in nodes
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            for name in [(alias.asname or alias.name).split(".")[0]]
            if name not in used
        ]
    callers = set(referenced)
    for path in sorted((root / "perfbench").glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(), str(path))))
        callers |= _references(nodes)
        attributes |= _attributes(nodes)
    for path, node in defs:
        if node.name.startswith("__"):
            continue
        if node.name.startswith("_"):
            if node.name not in referenced:
                found["private function"].append(
                    f"{path}:{node.lineno}: private function {node.name}"
                    " is referenced nowhere in src/sturmia"
                )
        elif node.name not in exported and node.name not in callers:
            found["public function"].append(
                f"{path}:{node.lineno}: public function {node.name} is neither in"
                " sturmia.__all__ nor referenced in src/sturmia or perfbench"
            )
    found["public method"] += [
        f"{path}:{node.lineno}: public method {cls}.{node.name} is read as an"
        " attribute nowhere in src/sturmia or perfbench"
        for path, cls, node in methods
        if not node.name.startswith("_") and node.name not in attributes
    ]
    return found


@pytest.fixture(scope="module")
def violations() -> dict[str, list[str]]:
    return scan(ROOT)


@pytest.mark.parametrize(
    "rule",
    ["bare assert", "unused import", "private function", "public function", "public method"],
)
def test_source_hygiene(violations, rule):
    if violations[rule]:
        raise AssertionError("\n".join(violations[rule]))


def test_all_names_resolve_once():
    import sturmia

    names = sturmia.__all__
    problems = [f"{name} is listed {names.count(name)} times" for name in sorted(set(names))
                if names.count(name) > 1]
    problems += [f"{name} is not an attribute of sturmia" for name in names
                 if not hasattr(sturmia, name)]
    if problems:
        raise AssertionError("\n".join(problems))


def test_rauzy_does_not_bind_the_window_walk():
    from sturmia import rauzy

    assert not hasattr(rauzy, "window_walk")


def test_no_module_imports_typing_or_dataclasses():
    found = []
    for path in sorted((ROOT / "src" / "sturmia").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path}:{node.lineno}: imports {name}" for name in names
                      if name.split(".")[0] in {"dataclasses", "typing"}]
    if found:
        raise AssertionError("\n".join(found))


def _functools_cache(node: ast.expr) -> str | None:
    """"cache" or "lru_cache" when node names one, called or not."""
    if isinstance(node, ast.Call):
        node = node.func
    name = getattr(node, "id", None) or getattr(node, "attr", None)
    return name if name in {"cache", "lru_cache"} else None


def test_no_function_of_arguments_is_functools_cached():
    found = []
    for path in sorted((ROOT / "src" / "sturmia").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                if not (a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg):
                    continue
                found += [
                    f"{path}:{d.lineno}: {node.name} is cached by functools.{_functools_cache(d)}"
                    for d in node.decorator_list
                    if _functools_cache(d)
                ]
    if found:
        raise AssertionError("\n".join(found))


def test_import_loads_no_dataclasses_inspect_or_typing():
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
        "import sturmia, sturmia.cli, sturmia.acceptance; "
        "print(' '.join(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules))))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-E", "-c", code], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == ""


def test_cli_import_leaves_acceptance_unloaded():
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
        "import sturmia.cli; print('sturmia.acceptance' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-E", "-c", code], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"
