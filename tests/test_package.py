"""The lazy package namespace: names resolve to their defining modules,
and importing the package loads no submodule."""

import ast
import builtins
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import liecoh

# the package's public names by defining module; `torus` is not among
# them, because `liecoh.torus` always names the submodule
EXPORTED = {
    "scalars": ["GaussianRational", "ScalarParseError", "format_scalar", "parse_scalar"],
    "matrix": ["ExactMatrix"],
    # ExactMatrix is defined in liecoh.matrix; linalg still binds it, as
    # the same object
    "linalg": [
        "EigenSplit", "ExactMatrix", "Inertia", "NonHermitianError", "NonSplitError",
        "char_poly", "hermitian_inertia", "rank_kernel", "solve_linear", "split_eigen",
    ],
    # Subalgebra and parse_span are defined in liecoh.subalgebra; the
    # algebra module still serves them, as the same objects
    "algebra": [
        "AlgebraError", "ClosureError", "LieAlgebra", "ParentMismatchError", "Subalgebra",
        "builtin_algebra", "parse_span", "su2", "su3",
    ],
    "subalgebra": ["Subalgebra", "parse_span"],
    "classify": [
        "BctReport", "ClassificationReport", "bct_check", "characteristic_space",
        "classify_structure", "levi_form",
    ],
    "roots": [
        "PositiveSystem", "RootDatum", "StandardStructure", "build_standard",
        "positive_system", "root_decomposition",
    ],
    "cochains": ["CohomologyTable", "GModule"],
    # CohomologyTable and GModule are defined in liecoh.cochains; the
    # cohomology module still binds them, as the same objects
    "cohomology": [
        "BigradedComplex", "CochainComplex", "CohomologyTable", "GModule",
        "bigraded_cohomology", "bigraded_complex", "ce_cohomology", "ce_complex",
        "ce_differential", "relative_ce_cohomology",
    ],
    "decompose": [
        "AssemblyReport", "bott_dolbeault", "full_assembly",
        "killing_form", "kunneth_assemble",
    ],
    "torus": [
        "DivisorReport", "FourierData", "MuSpec", "liouville_report", "singular_lattice",
        "solve_dprime",
    ],
}
SUBMODULES = ["scalars", "matrix", "linalg", "algebra", "subalgebra", "classify", "roots",
              "cochains", "cohomology", "decompose", "torus", "cli"]


def run_fresh(code: str) -> str:
    """stdout of `code` run by a fresh interpreter on this checkout's liecoh."""
    env = dict(os.environ, PYTHONPATH=str(Path(liecoh.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return done.stdout


@pytest.mark.parametrize("module,name", [(m, n) for m, names in EXPORTED.items() for n in names])
def test_exported_name_is_the_defining_modules_object(module, name):
    defined = getattr(importlib.import_module(f"liecoh.{module}"), name)
    assert getattr(liecoh, name) is defined
    assert getattr(liecoh, name) is defined  # the second lookup finds the bound name
    assert name in dir(liecoh)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_name_is_the_submodule(name):
    assert getattr(liecoh, name) is importlib.import_module(f"liecoh.{name}")
    assert name in dir(liecoh)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        liecoh.no_such_name
    assert not hasattr(liecoh, "no_such_name")


def test_input_errors_share_one_base():
    from liecoh import InputError
    from liecoh.torus import TorusError

    errors = [getattr(liecoh, n) for names in EXPORTED.values() for n in names
              if inspect.isclass(getattr(liecoh, n)) and issubclass(getattr(liecoh, n), Exception)]
    assert {e.__name__ for e in errors} == {
        "AlgebraError", "ClosureError", "NonHermitianError", "NonSplitError",
        "ParentMismatchError", "ScalarParseError",
    }
    for error in errors + [TorusError]:
        assert issubclass(error, InputError)
    assert issubclass(InputError, ValueError)


def test_exception_classes_are_the_families():
    # a refusal is told apart by its message, not by its class: the package
    # defines only the exported errors, the families that some caller
    # catches by type, and the CLI's own Failure
    defined = {}
    for path, tree in package_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = [getattr(b, "id", getattr(b, "attr", None)) for b in node.bases]
                defined[node.name] = (str(path), bases)
    builtin = {n for n, v in vars(builtins).items()
               if isinstance(v, type) and issubclass(v, BaseException)}
    errors = set()
    while True:
        found = {name for name, (_, bases) in defined.items()
                 if any(b in errors or b in builtin for b in bases)}
        if found == errors:
            break
        errors = found
    families = {
        "InputError", "ScalarParseError", "AlgebraError", "ParentMismatchError", "ClosureError",
        "NonHermitianError", "NonSplitError", "TorusError", "PositiveSystemError", "Failure",
    }
    assert errors == families, "\n".join(
        ["exception classes beyond the families:"]
        + sorted(f"{defined[name][0]} {name}" for name in errors - families))


def test_bare_import_loads_no_submodule():
    out = run_fresh(
        "import sys, liecoh\n"
        "print(sorted(m for m in sys.modules if m.startswith('liecoh.')))"
    )
    assert out.strip() == "[]"


def test_torus_is_always_the_submodule():
    # the builtin algebra builder `liecoh.algebra.torus` is loaded first
    out = run_fresh(
        "import json, sys, types\n"
        "from liecoh.algebra import builtin_algebra, torus as builder\n"
        "loaded = 'liecoh.torus' in sys.modules\n"
        "from liecoh import torus as first\n"
        "import liecoh.torus\n"
        "from liecoh import torus as second\n"
        "print(json.dumps([\n"
        "    loaded,\n"
        "    first is second is liecoh.torus and isinstance(first, types.ModuleType),\n"
        "    first.__name__,\n"
        "    builder(3).to_json_dict() == builtin_algebra('torus3').to_json_dict(),\n"
        "    builder.__module__,\n"
        "    liecoh.algebra.torus is builder,\n"
        "]))"
    )
    assert json.loads(out) == [False, True, "liecoh.torus", True, "liecoh.algebra", True]


# liecoh.algebra still serves Subalgebra and parse_span (PEP 562) from
# liecoh.subalgebra, which imports liecoh.algebra: the one cycle kept
SHIM = ("liecoh.algebra", "liecoh.subalgebra", "__getattr__")


def relative_imports():
    """(importer, imported module, enclosing function or None) for every
    relative import in the package's source, at module level and inside
    functions; `from . import name` imports the submodule `name` if there
    is one, else the package."""
    root = Path(liecoh.__file__).parent
    trees = {}
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root.parent).with_suffix("").parts
        name = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        package = name if path.name == "__init__.py" else name.rpartition(".")[0]
        trees[name] = package, ast.parse(path.read_text(encoding="utf-8"))
    found = []

    def walk(importer, package, node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and child.level:
                base = package.rsplit(".", child.level - 1)[0]
                if child.module:
                    targets = [f"{base}.{child.module}"]
                else:
                    targets = [f"{base}.{a.name}" if f"{base}.{a.name}" in trees else base
                               for a in child.names]
                found.extend((importer, target, function) for target in targets)
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                else function
            walk(importer, package, child, inner)

    for name, (package, tree) in trees.items():
        walk(name, package, tree, None)
    return found


def find_cycle(graph):
    """Modules that import each other in a ring, the first repeated at the
    end, or None."""
    path, done = [], set()

    def visit(node):
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return None
        path.append(node)
        for target in sorted(graph.get(node, ())):
            cycle = visit(target)
            if cycle:
                return cycle
        path.pop()
        done.add(node)
        return None

    return next(filter(None, map(visit, sorted(graph))), None)


def test_relative_imports_form_no_cycle_but_the_subalgebra_shim():
    imports = relative_imports()
    assert SHIM in imports
    graph = {}
    for importer, target, function in imports:
        if (importer, target, function) != SHIM:
            graph.setdefault(importer, set()).add(target)
    assert find_cycle(graph) is None


# liecoh.cli re-exports the exit codes for callers of main; it reads only
# some of them itself
REEXPORTED = {"liecoh.cli": {"EX_OK", "EX_NOINPUT"}}


def module_level_imports(tree):
    """(bound name, line) for every import at module level, outside any
    function or class body; `from __future__` imports bind no name."""
    found = []

    def walk(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(child, ast.Import):
                found.extend((a.asname or a.name.partition(".")[0], child.lineno)
                             for a in child.names)
            elif isinstance(child, ast.ImportFrom) and child.module != "__future__":
                found.extend((a.asname or a.name, child.lineno) for a in child.names)
            else:
                walk(child)

    walk(tree)
    return found


def test_no_unused_module_imports():
    root = Path(liecoh.__file__).parent
    unused = []
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root.parent).with_suffix("").parts
        name = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused.extend(f"{name}:{line} {bound}" for bound, line in module_level_imports(tree)
                      if bound not in used and bound not in REEXPORTED.get(name, ()))
    assert unused == []


def module_level_private_names(tree):
    """(name, line) for every function, class or constant with a leading
    underscore (dunders aside) that a module defines at module level."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.extend((t.id, node.lineno) for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name))
    return [(n, line) for n, line in found if n.startswith("_") and not n.startswith("__")]


def package_trees():
    root = Path(liecoh.__file__).parent
    return {path.relative_to(root.parent): ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(root.rglob("*.py"))}


def reads(trees):
    """(kind, name) for every name that a module of the package loads as
    a name, an attribute or an import, kind being the node's class."""
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield ast.Name, node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                yield ast.Attribute, node.attr
            elif isinstance(node, ast.ImportFrom):
                yield from ((ast.ImportFrom, a.name) for a in node.names)


def names_read(trees):
    """The names that `reads` finds, whatever their kind."""
    return {name for _, name in reads(trees)}


def test_no_unused_private_module_names():
    # a private helper that a deletion leaves behind: no module of the
    # package loads it as a name, an attribute or an import
    trees = package_trees()
    read = names_read(trees)
    unused = [f"{path}:{line} {name}" for path, tree in trees.items()
              for name, line in module_level_private_names(tree) if name not in read]
    assert unused == []


def test_only_scalars_reads_the_private_triple():
    # outside scalars a Gaussian rational is read through integer_form and
    # the views (re_num, im_num, ...), never through its slot _t
    readers = sorted({(str(path), node.lineno) for path, tree in package_trees().items()
                      if path.name != "scalars.py" for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr == "_t"})
    assert not readers, "\n".join(["read GaussianRational._t:"]
                                   + [f"{path}:{line}" for path, line in readers])


def public_functions(tree):
    """(name, line) for every public function at module level and every
    public method or `name = property(...)` of a public class; a private
    class's methods are not public, whatever their names."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append((node.name, node.lineno))
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    found.append((f"{node.name}.{item.name}", item.lineno))
                elif (isinstance(item, ast.Assign) and isinstance(item.value, ast.Call)
                      and getattr(item.value.func, "id", None) == "property"):
                    found.extend((f"{node.name}.{t.id}", item.lineno) for t in item.targets
                                 if isinstance(t, ast.Name))
    return [(n, line) for n, line in found if not n.rpartition(".")[2].startswith("_")]


def readme_names():
    """The identifiers in README's code: inline code and code blocks."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    code = re.findall(r"```.*?```|`[^`\n]+`", text, re.S)
    return set(re.findall(r"[A-Za-z_]\w*", " ".join(code)))


def test_no_unused_public_functions():
    # a public function or method that the package never reads, that
    # liecoh does not export and that README does not name is a second way
    # to read what the rest of the API gives
    trees = package_trees()
    kept = names_read(trees) | set(liecoh.__all__) | readme_names()
    unused = [f"{path}:{line} {name}" for path, tree in trees.items()
              for name, line in public_functions(tree) if name.rpartition(".")[2] not in kept]
    assert not unused, "\n".join(["read by nothing:"] + unused)


def record_fields(tree):
    """(record.field, line) for every field of every namedtuple that a
    module defines, its field names given as one string or as a list."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "namedtuple":
            name, fields = (ast.literal_eval(arg) for arg in node.args[:2])
            if isinstance(fields, str):
                fields = fields.replace(",", " ").split()
            found.extend((f"{name}.{field}", node.lineno) for field in fields)
    return found


def test_every_record_field_is_read():
    # a field that no module of the package reads as an attribute echoes
    # an input back or keeps what nothing uses
    trees = package_trees()
    read = {name for kind, name in reads(trees) if kind is ast.Attribute}
    unread = [f"{path}:{line} {field}" for path, tree in trees.items()
              for field, line in record_fields(tree) if field.rpartition(".")[2] not in read]
    assert not unread, "\n".join(["record fields read by nothing:"] + unread)


# the most syntax-tree nodes one module of the package may parse to
MAX_COMPILE_NODES = 4000


def test_no_module_is_a_large_compile_unit():
    """A query child runs from source: it compiles every module it
    imports, and the compiler's peak memory grows with the syntax tree of
    the one module it is compiling.  So a from-source query's peak RSS
    (VmHWM) follows its largest compile units, and a module past this size
    raises it for every query that loads it.  `cohomology.py` at 6637
    nodes and `linalg.py` at 5764 were split into `cochains.py` and
    `matrix.py` for this.  The count is `ast.walk` over the parsed source,
    so it is the same on every run."""
    sizes = {str(path): sum(1 for _ in ast.walk(tree)) for path, tree in package_trees().items()}
    large = sorted(f"{path} {n}" for path, n in sizes.items() if n > MAX_COMPILE_NODES)
    assert not large, "\n".join([f"modules of more than {MAX_COMPILE_NODES} nodes:"] + large)
