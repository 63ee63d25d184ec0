"""Every imported name is used: a stdlib-only stand-in for a linter.

No linter runs here or in CI, so this test parses every module under
``src/repro`` and ``tests`` and fails on any name a module imports but
never references. References count wherever Python can resolve them:
loads anywhere in the module, attribute bases, string annotations, and
``__all__``. ``__init__.py`` files (package re-exports) and
``__future__`` imports are skipped.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = (ROOT / "src" / "repro", ROOT / "tests")


def _imported(tree: ast.Module):
    """``(name, line)`` for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _annotation_names(node: ast.AST):
    """Names inside string annotations such as ``"Optional[Cache]"``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            yield from (n.id for n in ast.walk(parsed)
                        if isinstance(n, ast.Name))


def _referenced(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            if node.annotation is not None:
                names.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                names.update(_annotation_names(node.returns))
        elif isinstance(node, ast.AnnAssign):
            names.update(_annotation_names(node.annotation))
        elif isinstance(node, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in node.targets):
                names.update(
                    elt.value for elt in ast.walk(node.value)
                    if isinstance(elt, ast.Constant)
                    and isinstance(elt.value, str))
    return names


def _unused_imports():
    found = []
    for base in SCANNED:
        for path in sorted(base.rglob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            used = _referenced(tree)
            for name, line in _imported(tree):
                if name not in used:
                    found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    return found


def test_every_imported_name_is_used():
    unused = _unused_imports()
    assert not unused, "unused imports:\n" + "\n".join(unused)
