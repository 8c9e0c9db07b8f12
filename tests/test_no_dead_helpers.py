"""No helper that nothing calls, and no parameter that nothing reads.

Every top-level function and non-dunder method of `src/stonesheaf/*.py`
must be referenced: its name must be loaded, read as an attribute or
imported somewhere in the Python files of `src/` or `tests/` outside its
own definition.  An attribute `base.name` refers to a top-level function
only when `base` is bound in its file by an import of that function's
module (`json.dumps` is no reference to `serialize.dumps`), while a method
is referred to by any attribute of its name.  A docstring, a comment or a
string is no reference, and a helper whose only caller is its own recursion
counts as unreferenced.  The methods of `OVERRIDES`, which a library
outside the package calls, are exempt by name.

A public top-level function, and a public method of a public class, needs
more: a reference in `src/` itself.  Only the functions of `TEST_FACING`
and the methods of `TEST_FACING_METHODS`, each kept for callers outside the
package and listed with its reason, may be called from tests alone, and
each of them must still be such a name.

Every parameter with a default value, in any function of
`src/stonesheaf/*.py`, must be read somewhere in its function's body.

Every name bound by a top-level import of `src/stonesheaf/*.py` must be
loaded somewhere in its module; `__future__` imports are exempt.

No function body in `src/stonesheaf/*.py` may import: the modules import
each other without cycles, so every import belongs at the top.

No two top-level functions or methods of `src/stonesheaf/*.py` may have the
same body up to the names of their parameters and their own name (for a
recursion), docstrings aside: a second copy of a function is deleted in
favour of the first.  The sets of functions that do share a body must equal
`SAME_BODY`, where each is listed with its reason.
"""

import ast
import copy
import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]


def definitions():
    """(path, first line, last line, qualified name) of every checked definition."""
    for path in sorted((ROOT / "src" / "stonesheaf").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                yield path, node.lineno, node.end_lineno, node.name
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not (
                            sub.name.startswith("__") and sub.name.endswith("__")):
                        yield path, sub.lineno, sub.end_lineno, f"{node.name}.{sub.name}"


# Public functions that no module of `src/` calls.
TEST_FACING = {
    # the JSON codecs of the documented format (SCHEMA.md), one pair per type
    "serialize.clopen_to_json", "serialize.clopen_from_json",
    "serialize.cfun_to_json", "serialize.cfun_from_json",
    "serialize.ses_to_json", "serialize.ses_from_json",
    "serialize.equiv_to_json", "serialize.equiv_from_json",
    "serialize.section_to_json", "serialize.section_from_json",
    "serialize.eqcfun_to_json", "serialize.eqcfun_from_json",
    "serialize.diagmod_to_json", "serialize.diagmod_from_json",
    "serialize.loads_document",
    # the reader of the lattice documents that `catalog sublattices` writes:
    # the serialize golden requires a reader for every writer
    "serialize.lattice_from_json",
    # evaluation, sampling and probing entry points of the engine's data
    "sheaf.sec_eval", "sheaf.random_section", "space.find_isolated",
    "weyl.check_germ_equivariance",
    # the sampler of sheaf maps, beside `random_csheaf` and `random_section`
    "homalg.random_hom",
    # realizes Ext^1 classes as extensions (the README's `homalg` row)
    "homalg.ext1",
    # extension by zero of a section over a clopen: softness
    "sheaf.extend_section",
    # the clopen neighbourhood basis at a point
    "space.nbhd_basis",
    # the flag-checked entry to one ring sheaf of the cube
    "cube.ring_sheaf",
    # the initial vertex of a punctured diagram, as a finite limit
    "models.limit_vertex",
    # operations that the benchmark workloads under `perfbench/` call: the
    # cube map of ring data and stalkwise averaging
    "adelic.dmap", "weyl.average",
    # the idempotent of a clopen, as a ring element
    "adelic.indicator",
    # restriction to an open union of strata, and its pushforward back
    "cube.restrict_open", "cube.pushforward_open",
    # the tensor product of sheaves, beside `direct_sum`
    "sheaf.tensor",
    # the aligned presentations of a pair that tests pin
    "sheaf.align_pair",
    # the kernel of a sheaf map, beside `cokernel`
    "sheaf.kernel",
    # sections over a clopen set, finite or by their finite-exception module
    "sheaf.sections",
    # the byte format of a JSON document, which the goldens pin
    "serialize.dumps",
    # the union of two clopen sets, beside `meet`
    "space.join",
    # membership of a point in a clopen, and the clopen of an isolated point
    "space.member", "space.singleton",
    # a sheaf with every group acting trivially, the simplest equivariant one
    "weyl.trivial_equiv",
}


# Public methods of public classes that no module of `src/` calls; a
# separate set, so that `TEST_FACING` only shrinks.
TEST_FACING_METHODS = {
    # the planted-sampler tests of tests/test_acceptance.py build cochains
    # with it, and splitting equivariant data at a root `Sum` sizes its zero
    "adelic.AdelicComplex.zero_cochain",
    # the module structure, which a reconstruction from module data needs
    "homalg.GammaModule.act",
    # the oracle of the group at a point in tests/test_weyl.py and
    # tests/test_catalog.py
    "weyl.ComponentStructure.group_at",
}


# Methods that a library outside the package calls by name.
OVERRIDES = {
    # argparse calls `error` on its parser when the arguments do not parse
    "cli._Parser.error",
}


def module_names(tree) -> dict:
    """The names that the imports of a file bind to a module of the package,
    with the module's name."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((alias.asname, alias.name.rpartition(".")[2]) for alias in node.names
                         if alias.asname and alias.name.startswith("stonesheaf."))
        elif isinstance(node, ast.ImportFrom) and (node.module == "stonesheaf" or (
                node.level and node.module is None)):
            bound.update((alias.asname or alias.name, alias.name) for alias in node.names)
    return bound


def references(path: pathlib.Path) -> list[tuple[int, str, str | None]]:
    """(line, name, owner) of every loaded name and every imported name, with
    owner None, and of every attribute name, with owner the module that its
    base is bound to by an import, or "" for any other base; docstrings,
    comments and strings hold none."""
    tree = ast.parse(path.read_text())
    modules = module_names(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.append((node.lineno, node.id, None))
        elif isinstance(node, ast.Attribute):
            base = node.value.id if isinstance(node.value, ast.Name) else None
            found.append((node.lineno, node.attr, modules.get(base, "")))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(node.lineno, alias.name.rpartition(".")[2], None) for alias in node.names]
    return found


def unreferenced(tops=("src", "tests")) -> list[str]:
    """`module.name` of every checked definition outside `OVERRIDES` that the
    Python files under `tops` refer to only inside its own definition."""
    refs = {path: references(path) for top in tops for path in sorted((ROOT / top).rglob("*.py"))}
    owners = {}
    for found in refs.values():
        for _, name, owner in found:
            owners.setdefault(name, Counter())[owner] += 1
    dead = []
    for path, first, last, name in definitions():
        short = name.rpartition(".")[2]
        def reaches(owner):
            return owner is None or owner == path.stem or "." in name
        total = sum(n for owner, n in owners.get(short, {}).items() if reaches(owner))
        own = sum(1 for line, ref, owner in refs.get(path, ())
                  if ref == short and reaches(owner) and first <= line <= last)
        if total == own and f"{path.stem}.{name}" not in OVERRIDES:
            dead.append(f"{path.stem}.{name}")
    return dead


def test_every_function_and_method_is_referenced():
    assert unreferenced() == []


def test_public_functions_are_referenced_in_src():
    public = {name for name in unreferenced(("src",)) if re.fullmatch(r"\w+\.[^\W_]\w*", name)}
    assert public == TEST_FACING


def test_public_methods_are_referenced_in_src():
    public = {name for name in unreferenced(("src",))
              if re.fullmatch(r"\w+(\.[^\W_]\w*){2}", name)}
    assert public == TEST_FACING_METHODS


def unread_defaults() -> list[str]:
    """`function.parameter` for every parameter with a default value that its
    function's body (nested functions included) never reads."""
    unread = []
    for path in sorted((ROOT / "src" / "stonesheaf").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            unread += [f"{name}.{a.arg}" for a in defaulted if a.arg not in read]
    return unread


def test_every_defaulted_parameter_is_read():
    assert unread_defaults() == []


def unused_imports() -> list[str]:
    """`module.name` for every name a top-level import binds in a module of
    `src/stonesheaf` that the module never loads."""
    unused = []
    for path in sorted((ROOT / "src" / "stonesheaf").glob("*.py")):
        tree = ast.parse(path.read_text())
        loaded = {n.id for n in ast.walk(tree)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in loaded:
                        unused.append(f"{path.stem}.{bound}")
    return unused


def test_every_imported_name_is_used():
    assert unused_imports() == []


def function_imports() -> list[str]:
    """`module.function:line` for every import statement inside a function
    (nested functions and methods included) of `src/stonesheaf`."""
    found = []
    for path in sorted((ROOT / "src" / "stonesheaf").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.stem}.{node.name}:{sub.lineno}"
                          for stmt in node.body for sub in ast.walk(stmt)
                          if isinstance(sub, (ast.Import, ast.ImportFrom))]
    return found


def test_no_function_imports():
    assert function_imports() == []


# Functions and methods that may share a body, with the reason.
SAME_BODY = {
    # a sheaf and a map between sheaves store their cone parts alike
    frozenset({"sheaf.CSheaf.tail", "sheaf.SheafMap.tail_map"}),
    frozenset({"sheaf.CSheaf.apex", "sheaf.SheafMap.apex_map"}),
    # per-object memos, each an empty dict filled by its own function
    frozenset({"models.CMod._extended", "sheaf.CSheaf._localized",
               "weyl.ComponentStructure.kept"}),
}


class _Rename(ast.NodeTransformer):
    def __init__(self, names):
        self.names = names

    def visit_Name(self, node):
        node.id = self.names.get(node.id, node.id)
        return node


def body_shape(fn) -> str:
    """`ast.dump` of a function's body without its docstring, its parameters
    renamed by position and its own name renamed."""
    a = fn.args
    params = a.posonlyargs + a.args + [a.vararg] + a.kwonlyargs + [a.kwarg]
    names = {p.arg: f"_arg{i}" for i, p in enumerate(params) if p is not None}
    names[fn.name] = "_self"
    body = fn.body
    if ast.get_docstring(fn) is not None:
        body = body[1:]
    return ast.dump(_Rename(names).visit(copy.deepcopy(ast.Module(body, []))))


def functions():
    """(`module.name`, node) of every top-level function and method of
    `src/stonesheaf/*.py`, dunders included."""
    for path in sorted((ROOT / "src" / "stonesheaf").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                yield f"{path.stem}.{node.name}", node
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        yield f"{path.stem}.{node.name}.{sub.name}", sub


def same_bodies() -> set[frozenset]:
    """The sets of two or more functions and methods with equal bodies."""
    groups = {}
    for name, fn in functions():
        groups.setdefault(body_shape(fn), set()).add(name)
    return {frozenset(names) for names in groups.values() if len(names) > 1}


def test_no_two_functions_share_a_body():
    assert same_bodies() == SAME_BODY
