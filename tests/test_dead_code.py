"""Every public top-level function and class of roisolve has a user.

A user is a reference by name (ast.Name) or attribute (ast.Attribute)
somewhere in src/ outside the definition itself, or the name written in the
text of bench/ or tools/, which look some functions up by string. Imports
and docstring mentions do not count.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "roisolve").glob("*.py"))

# Used by the tests alone, on purpose: name -> reason.
ALLOWED = {
    "effective_psf_positive": "the acceptance suite checks the paper's positivity "
    "condition with it; recover is to call it after a solve",
    "ad_spot_check": "acceptance criterion 05 measures the model fidelity of systems "
    "with thousands of unknowns with it, too slow for any command",
}


def _public_definitions(trees: dict[Path, ast.Module]):
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path, node


def _names_read(statement: ast.AST) -> set[str]:
    """Names read by the Name and Attribute nodes of one statement."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(statement)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_every_public_definition_has_a_user():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    tool_text = "\n".join(
        p.read_text(encoding="utf-8")
        for folder in ("bench", "tools")
        for p in sorted((ROOT / folder).iterdir())
        if p.is_file()
    )
    # every top-level statement of src/ and what it reads; a definition's
    # own body does not count as a use of it
    reads = [(stmt, _names_read(stmt)) for tree in trees.values() for stmt in tree.body]
    definitions = list(_public_definitions(trees))
    assert set(ALLOWED) <= {node.name for _, node in definitions}, "stale allowlist entry"
    unused = []
    for path, node in definitions:
        if node.name in ALLOWED:
            continue
        if any(node.name in names for stmt, names in reads if stmt is not node):
            continue
        if not re.search(rf"\b{re.escape(node.name)}\b", tool_text):
            unused.append(f"{path.stem}.{node.name}")
    assert not unused, f"no command, workload or check uses: {', '.join(unused)}"
