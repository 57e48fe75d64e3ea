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


def _scoped(tree, scope=()):
    """Each node below ``tree``, with the names of the classes and defs around it."""
    for node in ast.iter_child_nodes(tree):
        yield scope, node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _scoped(node, scope + (node.name,))
        else:
            yield from _scoped(node, scope)


def test_the_budget_has_one_source():
    # TRIORBIT_BUDGET is the only source of the enumeration cap: no
    # function takes a budget or a cap, and the environment is read in
    # modpairs.enumeration_budget alone.
    root = Path(triorbit.__file__).parent
    params, reads = [], []
    for path in sorted(root.glob("*.py")):
        for scope, node in _scoped(ast.parse(path.read_text(encoding="utf-8"))):
            where = ".".join((path.stem, *scope))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs
                         + [a.vararg, a.kwarg] if x is not None]
                params += [f"{where}.{getattr(node, 'name', '<lambda>')}:{x}" for x in names
                           if x in ("budget", "cap")]
            if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
                    or isinstance(node, ast.ImportFrom) and node.module == "os"):
                reads.append(where)
    assert params == []
    assert reads == ["modpairs.enumeration_budget"]


def _field_equalities(tree):
    """Lines comparing by == or != an operand that is a ``.field`` or a ``GF(...)`` call."""
    def is_field(node):
        return (isinstance(node, ast.Attribute) and node.attr == "field"
                or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "GF")

    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
            for op, left, right in zip(node.ops, [node.left] + node.comparators, node.comparators)
            if isinstance(op, (ast.Eq, ast.NotEq)) and (is_field(left) or is_field(right))]


def test_fields_compare_by_identity():
    # GF(p) is one registered object per prime, so `is` is the one field
    # test: GF defines no __init__, __eq__ or __hash__, and no comparison in
    # the library uses == or != on a field.
    root = Path(triorbit.__file__).parent
    field = ast.parse((root / "field.py").read_text(encoding="utf-8"))
    gf, = [node for node in field.body if isinstance(node, ast.ClassDef) and node.name == "GF"]
    methods = {node.name for node in gf.body if isinstance(node, ast.FunctionDef)}
    assert methods & {"__init__", "__eq__", "__hash__"} == set()
    assert _field_equalities(ast.parse("a.field == b\nif GF(3) != f is g: pass")) == [1, 2]
    found = [f"{path.name}:{line}" for path in sorted(root.glob("*.py"))
             for line in _field_equalities(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []
