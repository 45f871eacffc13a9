"""Every public top-level function and class of roisolve has a user, and so
does every public method and property of a public class.

A user of a top-level definition is a reference by name (ast.Name) or
attribute (ast.Attribute) somewhere in src/ outside the definition itself,
or the name written in the text of bench/ or tools/, which look some
functions up by string. A user of a method is an attribute read of its name
in src/ outside the method's own body (the rest of its class counts), or
".name" written in the text of bench/ or tools/. Imports and docstring
mentions do not count.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "roisolve").glob("*.py"))

# Used by the tests alone, on purpose: name -> reason.
ALLOWED = {
    "effective_psf_positive": "the acceptance suite checks the paper's positivity "
    "condition of the kernel window with it; no command checks it yet",
}


def _public_definitions(trees: dict[Path, ast.Module]):
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path, node


def _public_methods(trees: dict[Path, ast.Module]):
    for path, node in _public_definitions(trees):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield path, node, item


def _attributes_read(statement: ast.AST) -> set[str]:
    return {node.attr for node in ast.walk(statement) if isinstance(node, ast.Attribute)}


def _names_read(statement: ast.AST) -> set[str]:
    """Names read by the Name and Attribute nodes of one statement."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(statement)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def _trees() -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}


def _tool_text() -> str:
    return "\n".join(
        p.read_text(encoding="utf-8")
        for folder in ("bench", "tools")
        for p in sorted((ROOT / folder).iterdir())
        if p.is_file()
    )


def test_every_public_definition_has_a_user():
    trees = _trees()
    tool_text = _tool_text()
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


def test_every_public_method_has_a_user():
    trees = _trees()
    tool_text = _tool_text()
    # top-level statements of src/, each class split into its body
    # statements, so a method's own body is one unit and the rest of its
    # class are others
    units = [
        unit
        for tree in trees.values()
        for stmt in tree.body
        for unit in (stmt.body if isinstance(stmt, ast.ClassDef) else [stmt])
    ]
    reads = [(unit, _attributes_read(unit)) for unit in units]
    unused = []
    for path, cls, method in _public_methods(trees):
        if method.name in ALLOWED:
            continue
        if any(method.name in names for unit, names in reads if unit is not method):
            continue
        if not re.search(rf"\.{re.escape(method.name)}\b", tool_text):
            unused.append(f"{path.stem}.{cls.name}.{method.name}")
    assert not unused, f"no command, workload or check uses: {', '.join(unused)}"
