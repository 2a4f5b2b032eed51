"""Static checks over the sources, read with the stdlib ``ast`` module:
no module imports a name it never uses, no private function or class of
the package is left without a caller in the package, and no public one is
left both unexported and unused by the package, the demos and the
benchmarks (a helper that only tests call belongs in the tests). No test
sets a private attribute (``obj._name = ...``) that nothing in the package
reads: such a line sets up state the code under test never sees. Every
irflab name the benchmarks import, read or trace exists, so dropping one
fails here rather than in a benchmark run."""

import ast
import importlib
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "irflab"
MODULES = sorted([*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")])
BENCHMARKS = sorted((ROOT / "benchmarks").glob("*.py"))
USERS = sorted([*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"), *BENCHMARKS])
RE_EXPORTING = {PACKAGE / "__init__.py"}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def imported_names(tree: ast.Module):
    """(bound name, line) of every import in the module, nested ones too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def read_names(tree: ast.Module) -> set[str]:
    """The names the module reads: every Name node, and the strings listed
    in an ``__all__``."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return names


@pytest.mark.parametrize("path", [p for p in MODULES if p not in RE_EXPORTING],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    tree = parse(path)
    used = read_names(tree)
    unused = [f"line {line}: {name}" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.relative_to(ROOT)} imports names it never uses: {unused}"


def test_every_private_definition_is_referenced_in_the_package():
    trees = {path: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    defined = []
    referenced: dict[str, int] = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.append((path, node.name))
            elif isinstance(node, ast.Name):
                referenced[node.id] = referenced.get(node.id, 0) + 1
            elif isinstance(node, ast.Attribute):
                referenced[node.attr] = referenced.get(node.attr, 0) + 1
    unreferenced = [f"{path.name}: {name}" for path, name in defined if not referenced.get(name)]
    assert not unreferenced, f"private definitions nothing in src/irflab refers to: {unreferenced}"


def unused_public(package: dict[str, ast.Module], users: list[ast.Module]) -> list[str]:
    """``module: name`` of each public function, method or class defined in
    the package modules that no ``__all__`` lists and no user module names,
    imports or reads as an attribute."""
    used: set[str] = set()
    for tree in users:
        used |= read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used |= {alias.name for alias in node.names}
    return [f"{module}: {node.name}" for module, tree in package.items() for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in used]


def test_every_public_definition_is_exported_or_used():
    package = {path.name: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    unused = unused_public(package, [parse(path) for path in USERS])
    assert not unused, f"public definitions no __all__ lists and only tests use: {unused}"


def private_assignments(tree: ast.Module):
    """(attribute, line) of every private attribute the module assigns:
    ``obj._name = ...``, augmented, annotated or in a tuple target."""
    for node in ast.walk(tree):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
        for target in targets:
            for sub in ast.walk(target):
                if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                        and sub.attr.startswith("_") and not sub.attr.startswith("__")):
                    yield sub.attr, sub.lineno


def attributes_read(tree: ast.Module) -> set[str]:
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_no_test_sets_a_private_attribute_the_package_never_reads():
    read = set().union(*(attributes_read(parse(path)) for path in PACKAGE.glob("*.py")))
    dead = [f"{path.name}:{line}: {name}" for path in sorted((ROOT / "tests").glob("*.py"))
            for name, line in private_assignments(parse(path)) if name not in read]
    assert not dead, f"tests set private attributes nothing in src/irflab reads: {dead}"


def irflab_reads(tree: ast.Module):
    """The dotted irflab path of every name the module imports from irflab,
    and of every attribute it reads off a name such an import bound."""
    bound: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "irflab":
                    bound[alias.asname or "irflab"] = alias.name if alias.asname else "irflab"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "irflab":
            for alias in node.names:
                yield f"{node.module}.{alias.name}"
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound:
            yield f"{bound[node.value.id]}.{node.attr}"


def resolve(dotted: str):
    """The object at a dotted path, importing the submodules on the way."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if isinstance(obj, types.ModuleType) and not hasattr(obj, part):
            importlib.import_module(".".join(parts[:i]))
        obj = getattr(obj, part)
    return obj


def missing(paths) -> list[str]:
    out = []
    for dotted in paths:
        try:
            resolve(dotted)
        except (AttributeError, ImportError):
            out.append(dotted)
    return out


@pytest.mark.parametrize("path", BENCHMARKS, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_irflab_name_a_benchmark_reads_exists(path):
    absent = missing(irflab_reads(parse(path)))
    assert not absent, f"{path.relative_to(ROOT)} reads irflab names that do not exist: {absent}"


def test_every_traced_function_exists():
    tree = parse(ROOT / "benchmarks" / "tracing.py")
    (layers,) = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "LAYER_FUNCTIONS" for t in node.targets)]
    traced = [f"irflab.{layer}.{name}" for layer, names in layers.items() for name in names]
    assert traced
    absent = missing(traced)
    assert not absent, f"benchmarks/tracing.py LAYER_FUNCTIONS names functions that do not exist: {absent}"
    assert all(callable(resolve(dotted)) for dotted in traced)


def test_the_checks_catch_what_they_are_for():
    stale = ast.parse("import os\nfrom typing import Mapping, Sequence\n\nx: Mapping = {}\n")
    assert [name for name, _ in imported_names(stale) if name not in read_names(stale)] == ["os", "Sequence"]
    exported = ast.parse("from .a import f\n__all__ = ['f']\n")
    assert all(name in read_names(exported) for name, _ in imported_names(exported))
    module = ast.parse("class C:\n    def m(self): ...\n    def _p(self): ...\ndef f(): ...\ndef g(): ...\n"
                       "def h(): ...\ndef k(): ...\n")
    users = [ast.parse("from a import f\nc.m()\n__all__ = ['g']\n"), ast.parse("h()\n")]
    assert unused_public({"a.py": module}, users) == ["a.py: C", "a.py: k"]
    sets = ast.parse("m._pid_to_row = {}\nm._memo['k'] = 1\nm._n += 1\nm._a, x = 1, 2\nm.public = 3\nm.__d = 4\n")
    assert sorted(name for name, _ in private_assignments(sets)) == ["_a", "_n", "_pid_to_row"]
    assert attributes_read(ast.parse("x = m._memo\nm._pid_to_row = 1\n")) == {"_memo"}
    reads = ast.parse("import irflab\nfrom irflab import retrieval as r, nothing_here\n"
                      "from irflab.retrieval import rank_ql\nirflab.gone()\nr.RankedList\nr.dropped\n")
    dotted = list(irflab_reads(reads))
    assert sorted(dotted) == ["irflab.gone", "irflab.nothing_here", "irflab.retrieval", "irflab.retrieval.RankedList",
                              "irflab.retrieval.dropped", "irflab.retrieval.rank_ql"]
    assert sorted(missing(dotted)) == ["irflab.gone", "irflab.nothing_here", "irflab.retrieval.dropped"]
