"""Source rules for src/sturmia, checked on its syntax trees.

No bare `assert` (checks must still run under python -O), no name imported
but unused (the package's re-exports in __init__.py excepted), no
module-level private function that nothing in the package references, no
module-level public function that nothing in the package or in perfbench
references, and no public method or property whose name no attribute access
in the package or in perfbench carries.

Every name in `sturmia.__all__` earns its place: a CLI command, an
acceptance criterion or the benchmark reaches it.  The roots are the
`cmd_*` handlers in `cli._COMMANDS`, the checks in `acceptance.CHECKS` and
every name or attribute that perfbench reads; a module-level definition in
src/sturmia is reached when a reached definition mentions its name.  Like
the method rule this matches names only, across modules.

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

Only `slope`, `ostrowski`, `words` and `intercept` read a slope's
`known_depth`.  How far a finite slope [0; a_1, ..., a_D] goes is known to
the ladder and the digit rules, to `words` for the letters of its
characteristic word and to `intercept` for the letters of a window's word
(`max_certified_length`); every other module reads words through them.
The letters that word certifies are stated once, in
`words.certified_letters`, and refused past once, in
`words._past_certified`: no other definition reads q_D, the continuant at
a slope's `known_depth`, or writes an f-string saying "... the word of
... certifies".

A contract check, a `raise AssertionError` that a correct program never
reaches, guards an answer read off the word, such as the cycles of a Rauzy
graph.  Each one is declared by the function it sits in, so a check that
re-derives a verdict the code has just reached, or restates arithmetic it
builds, belongs in the test suite instead.

Importing the package must not load `dataclasses`, `inspect` or `typing`:
each cost a large share of what importing sturmia did, which every CLI call
pays.  Records are `collections.namedtuple` classes and annotations name
`collections.abc` types, so no module imports `dataclasses` or `typing`, and
a fresh interpreter shows none of the three loaded after the import.  Nor
does importing the CLI load the acceptance suite, which only `verify` runs,
nor importing the suite load `pickle`, which only a criterion that splits
its corpus across CPUs needs.

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


# (module file, table) -> the prefix of the names in the table that are roots
_ROOT_TABLES = {("cli.py", "_COMMANDS"): "cmd_", ("acceptance.py", "CHECKS"): "check_"}


def _bound(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines or assigns."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def scan(root: Path) -> dict[str, list[str]]:
    """Violations found in root/src/sturmia, by rule; root/perfbench counts
    as a caller of public functions and methods, and what it reads is where
    the exports are reached from."""
    src = root / "src" / "sturmia"
    found: dict[str, list[str]] = {
        "bare assert": [],
        "unused import": [],
        "private function": [],
        "public function": [],
        "public method": [],
        "unreached export": [],
    }
    defs = []  # (path, node) of each module-level def
    methods = []  # (path, class name, node) of each def in a class body
    referenced = set()
    attributes = set()
    exported = set()
    mentions: dict[str, set[str]] = {}  # module-level name -> names its definitions mention
    roots = set()
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
        for node in tree.body:
            names = _references(ast.walk(node))
            for name in _bound(node):
                mentions.setdefault(name, set()).update(names)
                prefix = _ROOT_TABLES.get((path.name, name))
                if prefix:
                    roots |= {ref for ref in names if ref.startswith(prefix)}
        found["unused import"] += [
            f"{path}:{node.lineno}: {name} imported but unused"
            for node in nodes
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            for name in [(alias.asname or alias.name).split(".")[0]]
            if name not in used
        ]
    for path in sorted((root / "perfbench").glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(), str(path))))
        roots |= _references(nodes)
        attributes |= _attributes(nodes)
    callers = referenced | roots
    reached = set()
    pending = list(roots)
    while pending:
        name = pending.pop()
        if name not in reached:
            reached.add(name)
            pending += mentions.get(name, ())
    found["unreached export"] += [
        f"sturmia.__all__ lists {name}, which no command, criterion or benchmark read reaches"
        for name in sorted(exported - reached)
    ]
    for path, node in defs:
        if node.name.startswith("__"):
            continue
        if node.name.startswith("_"):
            if node.name not in referenced:
                found["private function"].append(
                    f"{path}:{node.lineno}: private function {node.name}"
                    " is referenced nowhere in src/sturmia"
                )
        elif node.name not in callers:
            found["public function"].append(
                f"{path}:{node.lineno}: public function {node.name} is"
                " referenced nowhere in src/sturmia or perfbench"
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
    [
        "bare assert",
        "unused import",
        "private function",
        "public function",
        "public method",
        "unreached export",
    ],
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


# the modules that may read how deep a finite slope's quotients go
_DEPTH_READERS = {"slope.py", "ostrowski.py", "words.py", "intercept.py"}


def depth_reads(root: Path) -> list[str]:
    """Each read of `known_depth` in root/src/sturmia outside _DEPTH_READERS,
    with the module-level definition it is in."""
    found = []
    for path in sorted((root / "src" / "sturmia").rglob("*.py")):
        if path.name in _DEPTH_READERS:
            continue
        for top in ast.parse(path.read_text(), str(path)).body:
            found += [
                f"{path.name}:{node.lineno}: {getattr(top, 'name', '<module>')} reads known_depth"
                for node in ast.walk(top)
                if isinstance(node, ast.Attribute) and node.attr == "known_depth"
            ]
    return found


def test_only_the_word_and_window_layers_read_a_finite_depth():
    found = depth_reads(ROOT)
    if found:
        raise AssertionError("\n".join(found))


# the definitions that state the letters a finite slope's word certifies
_CERTIFIED_LETTERS = {("words.py", "certified_letters"), ("words.py", "_past_certified")}


def _is_known_depth(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "known_depth"


def certified_letter_statements(root: Path) -> list[str]:
    """Each `.q` call on a `known_depth`, read directly or through a name the
    same module-level definition binds to it, and each f-string saying
    "... the word of ... certifies" in root/src/sturmia, outside
    the definitions in _CERTIFIED_LETTERS."""
    found = []
    for path in sorted((root / "src" / "sturmia").rglob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            name = getattr(top, "name", "<module>")
            if (path.name, name) in _CERTIFIED_LETTERS:
                continue
            nodes = list(ast.walk(top))
            depths = {
                target.id
                for node in nodes
                if isinstance(node, ast.Assign) and _is_known_depth(node.value)
                for target in node.targets
                if isinstance(target, ast.Name)
            }
            for node in nodes:
                if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "q":
                    if any(
                        _is_known_depth(arg) or getattr(arg, "id", None) in depths
                        for arg in node.args
                    ):
                        found.append(f"{path.name}:{node.lineno}: {name} reads q_D")
                elif isinstance(node, ast.JoinedStr):
                    text = "".join(
                        part.value for part in node.values if isinstance(part, ast.Constant)
                    )
                    if "the word of" in text and "certifies" in text:
                        found.append(f"{path.name}:{node.lineno}: {name} words the refusal")
    return found


def test_only_words_states_the_letters_a_finite_slope_certifies():
    found = certified_letter_statements(ROOT)
    if found:
        raise AssertionError("\n".join(found))


# the contract checks, by module and the function they sit in: each guards
# an answer read off the word, so a new one is declared here
_CONTRACT_CHECKS = {
    ("rauzy.py", "RauzyGraph.to_dot"): 1,
    ("rauzy.py", "_cycles"): 3,
    ("torsion.py", "_halved_window"): 1,
    ("torsion.py", "palindromic_center_word"): 2,
}


def contract_checks(root: Path) -> dict[tuple[str, str], int]:
    """The `raise AssertionError` statements in root/src/sturmia, counted by
    module and by the class-qualified name of the definition they sit in."""
    counts: dict[tuple[str, str], int] = {}

    def visit(node: ast.AST, path: Path, name: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, path, f"{name}.{child.name}" if name else child.name)
                continue
            if isinstance(child, ast.Raise):
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if getattr(exc, "id", None) == "AssertionError":
                    key = (path.name, name or "<module>")
                    counts[key] = counts.get(key, 0) + 1
            visit(child, path, name)

    for path in sorted((root / "src" / "sturmia").rglob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path, "")
    return counts


def test_every_contract_check_is_declared():
    assert contract_checks(ROOT) == _CONTRACT_CHECKS


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


def test_acceptance_import_leaves_pickle_unloaded():
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
        "import sturmia.acceptance; print('pickle' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-E", "-c", code], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"
