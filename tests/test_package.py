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
