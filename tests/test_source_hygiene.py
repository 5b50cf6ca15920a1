"""Source rules for src/sturmia, checked on its syntax trees.

No bare `assert` (checks must still run under python -O), no name imported
but unused (the package's re-exports in __init__.py excepted), and no
module-level private function that nothing in the package references.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sturmia"


def scan(src: Path) -> dict[str, list[str]]:
    """Violations found under `src`, by rule."""
    found: dict[str, list[str]] = {"bare assert": [], "unused import": [], "private function": []}
    private = []  # (path, node) of each module-level def _name
    referenced = set()
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        nodes = list(ast.walk(tree))
        private += [
            (path, node)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_")
            and not node.name.startswith("__")
        ]
        used = {node.id for node in nodes if isinstance(node, ast.Name)}
        referenced |= used | {node.attr for node in nodes if isinstance(node, ast.Attribute)}
        found["bare assert"] += [
            f"{path}:{node.lineno}: bare assert; raise AssertionError instead"
            for node in nodes
            if isinstance(node, ast.Assert)
        ]
        if path.name == "__init__.py":
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
    found["private function"] += [
        f"{path}:{node.lineno}: private function {node.name} is referenced nowhere in src/sturmia"
        for path, node in private
        if node.name not in referenced
    ]
    return found


@pytest.fixture(scope="module")
def violations() -> dict[str, list[str]]:
    return scan(SRC)


@pytest.mark.parametrize("rule", ["bare assert", "unused import", "private function"])
def test_source_hygiene(violations, rule):
    if violations[rule]:
        raise AssertionError("\n".join(violations[rule]))
