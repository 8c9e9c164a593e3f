"""The package's module graph, read from the source without importing it.

The three deformation routes (ladder in ``saturation``, ``bibi``,
``altmethod``) share their value types through ``weil`` and meet only in
``saturation.decide``, so the imports between modules form a DAG, every
import sits at module level, and the top-level API is the short list the
CLI and README use.
"""

import ast
from collections import Counter
from pathlib import Path

import trisat

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "trisat"

API = {
    "BibiConfig", "CohomologyReport", "CycleType", "DynkinType", "Status", "Triple",
    "Verdict", "alt_saturation_check", "bibi_criterion", "check_table",
    "decide", "h1_alt", "h1_bibi", "h1_principal", "ladder_verdict", "search_bibi",
}


def _trees():
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _imported_modules(node):
    """The sibling modules an import node reads ("" for none)."""
    if isinstance(node, ast.ImportFrom) and node.level == 1:
        if node.module is None:  # from . import a, b
            return [alias.name for alias in node.names]
        return [node.module.split(".")[0]]
    if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("trisat."):
        return [node.module.split(".")[1]]
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names if a.name.startswith("trisat.")]
    return []


def _graph():
    """Module -> the sibling modules it imports, wherever the import sits."""
    return {name: {dep for node in ast.walk(tree) for dep in _imported_modules(node)}
            for name, tree in _trees().items()}


def test_every_import_is_at_module_level():
    nested = []
    for name, tree in _trees().items():
        top = {id(node) for node in tree.body}
        nested += [f"{name}.py:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]
    assert nested == []


def test_module_graph_is_acyclic():
    graph = _graph()
    assert graph["saturation"] >= {"altmethod", "bibi", "tables", "weil"}
    done: set[str] = set()

    def visit(name, path):
        assert name not in path, " -> ".join(path + [name])
        if name in done:
            return
        for dep in sorted(graph[name]):
            visit(dep, path + [name])
        done.add(name)

    for name in graph:
        visit(name, [])


def test_routes_do_not_import_each_other():
    graph = _graph()
    assert not graph["altmethod"] & {"bibi", "saturation"}
    assert "saturation" not in graph["bibi"]


def test_top_level_api():
    assert set(trisat.__all__) == API and len(trisat.__all__) == 16
    assert all(hasattr(trisat, name) for name in API)


def test_only_shared_crosses_modules_privately():
    """rootsys._shared is the one private name a module reads from another,
    by a from-import or as an attribute of a sibling module it imports."""
    private = {}
    for name, tree in _trees().items():
        siblings = {}  # local name -> sibling module, for each `from . import module`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        siblings[alias.asname or alias.name] = alias.name
                    if alias.name.startswith("_"):
                        private.setdefault(f"{node.module}.{alias.name}", set()).add(name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in siblings and node.attr.startswith("_")
                    and not node.attr.startswith("__")):
                private.setdefault(f"{siblings[node.value.id]}.{node.attr}", set()).add(name)
    assert private == {"rootsys._shared": {"altmethod", "bibi", "saturation"}}


def _reads(node):
    """How often each name is read under ``node``, as a name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_private_name_is_read_in_the_package():
    """Each module-level private name of the package is read somewhere in
    the package outside its own definition, so no helper lives on for the
    tests alone."""
    trees = _trees()
    reads = sum(map(_reads, trees.values()), Counter())
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            own = _reads(node)
            unread += [f"{module}.{name}" for name in names
                       if name.startswith("_") and not name.startswith("__") and reads[name] == own[name]]
    assert unread == []
