"""Source rules for src/sturmia, checked on its syntax trees.

No bare `assert` (checks must still run under python -O), no name imported
but unused (the package's re-exports in __init__.py excepted), no
module-level private function that nothing in the package references, and
no module-level public function that is neither in `sturmia.__all__` nor
referenced in the package or in perfbench.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _references(nodes) -> set[str]:
    return {node.id for node in nodes if isinstance(node, ast.Name)} | {
        node.attr for node in nodes if isinstance(node, ast.Attribute)
    }


def scan(root: Path) -> dict[str, list[str]]:
    """Violations found in root/src/sturmia, by rule; root/perfbench counts
    as a caller of public functions."""
    src = root / "src" / "sturmia"
    found: dict[str, list[str]] = {
        "bare assert": [],
        "unused import": [],
        "private function": [],
        "public function": [],
    }
    defs = []  # (path, node) of each module-level def
    referenced = set()
    exported = set()
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        nodes = list(ast.walk(tree))
        defs += [
            (path, node)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        used = {node.id for node in nodes if isinstance(node, ast.Name)}
        referenced |= _references(nodes)
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
        callers |= _references(list(ast.walk(ast.parse(path.read_text(), str(path)))))
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
    return found


@pytest.fixture(scope="module")
def violations() -> dict[str, list[str]]:
    return scan(ROOT)


@pytest.mark.parametrize(
    "rule", ["bare assert", "unused import", "private function", "public function"]
)
def test_source_hygiene(violations, rule):
    if violations[rule]:
        raise AssertionError("\n".join(violations[rule]))
