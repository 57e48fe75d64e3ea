import ast
from pathlib import Path

import triorbit


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so every check of the library is
    # an explicit raise; CI runs the tests under -O as well.
    root = Path(triorbit.__file__).parent
    modules = sorted(root.glob("*.py"))
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert len(modules) >= 10
    assert found == []


def _package_imports(path):
    """The modules of the package that a module imports by a relative import."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names |= {node.module} if node.module else {a.name for a in node.names}
    return names


def test_paper_construction_is_one_module():
    # paper holds the paper's pivot route and the dense elimination only it
    # uses; it builds on errors and trimat alone, and only the package's
    # __init__ imports it.
    root = Path(triorbit.__file__).parent
    paths = sorted(root.glob("*.py"))
    assert _package_imports(root / "paper.py") == {"errors", "trimat"}
    assert [path.name for path in paths if "paper" in _package_imports(path)] == ["__init__.py"]
    moved = {"select_pivots", "build_v", "build_k", "_echelon_insert", "matrix_rank",
             "solve_mod_p"}
    defined = sorted((path.name, node.name)
                     for path in paths
                     for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if isinstance(node, ast.FunctionDef) and node.name in moved)
    assert defined == sorted(("paper.py", name) for name in moved)
    for name in ("select_pivots", "build_v", "build_k"):
        assert getattr(triorbit, name) is getattr(triorbit.paper, name)


def _unused_imports(path):
    """Names that the module imports and never reads, other than those in ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= {elt.value for elt in node.value.elts}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items())
            if name not in used and name not in exported]


def test_every_import_is_used():
    # Library modules and test files alike; a name re-exported through
    # __all__ counts as used.
    root = Path(triorbit.__file__).parent
    paths = sorted(root.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    assert len(paths) >= 20
    assert [entry for path in paths for entry in _unused_imports(path)] == []
