"""Package-wide checks on the source: what each module defines, imports and uses.

The channel solver (spectrum) and det and FD (oracles) check each other,
so neither solver module imports the other; what all three share lives in
one module, levels.
"""

import ast
from collections import Counter
from pathlib import Path

from defectline import errors

SRC = Path(errors.__file__).parent


def _trees() -> dict[str, ast.Module]:
    # Every module of the package by its name without .py.
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _package_imports(tree) -> set[str]:
    # The package modules a module imports anywhere in it, a TYPE_CHECKING
    # block too: from .x import ..., from . import x, or defectline.x.
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.partition(".")[0])
            elif node.level == 1 or node.module == "defectline":
                found.update(alias.name for alias in node.names)
            elif (node.module or "").startswith("defectline."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("defectline."))
    return found


def test_the_three_solvers_import_one_shared_module_and_nothing_from_each_other():
    # The solvers' independence is the import graph: the channel solver and
    # det / FD reach each other by no chain of imports, both import levels,
    # boundary imports no solver module, and levels none of the package but
    # errors, so nothing it holds can lean on a solver.
    imports = {name: _package_imports(tree) for name, tree in _trees().items()}

    def reach(module: str) -> set[str]:
        seen, todo = set(), [module]
        while todo:
            for name in imports[todo.pop()] - seen:
                seen.add(name)
                todo.append(name)
        return seen

    assert "oracles" not in reach("spectrum") and "spectrum" not in reach("oracles")
    assert "levels" in imports["spectrum"] and "levels" in imports["oracles"]
    assert not {"spectrum", "oracles", "isospectral", "anholonomy", "cli"} & reach("boundary")
    assert imports["levels"] <= {"errors"}


def test_what_the_solvers_share_is_defined_once():
    # eps, the floor, the kind names, the kind rule and the box check each
    # have one definition, in levels; every box is checked by that one
    # function (no throwaway Channel validates one), and its error text
    # exists once.
    trees = _trees()
    defined, homes, texts, box_callers = Counter(), {}, Counter(), set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
                if any(isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_box"
                       for call in ast.walk(node)):
                    box_callers.add(node.name)
            else:
                continue
            defined.update(names)
            homes.update(dict.fromkeys(names, module))
        texts.update(node.value for node in ast.walk(tree)
                     if isinstance(node, ast.Constant) and isinstance(node.value, str))
    shared = ["_EPS", "KAPPA_CEILING", "KIND_POSITIVE", "KIND_ZERO", "KIND_BOUND", "KINDS",
              "_kind_codes", "_box"]
    assert {name: (defined[name], homes[name]) for name in shared} == dict.fromkeys(shared, (1, "levels"))
    assert box_callers == {"Channel", "BoundaryCondition", "PathSpec", "solve_channels"}
    assert texts["l must be a positive length"] == texts["L0 must be a positive length"] == 1


def test_every_module_level_function_and_class_of_the_package_has_a_use():
    # Code that only tests call belongs in the tests: each function or class
    # defined at module level in the package is named in an __all__ or
    # referenced in the package's own code.  An exception class is raised
    # in the package, or is the base of one that is: __all__ naming it is
    # not a use.
    defined, used, raised = set(), set(), set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign) and ast.unparse(node.targets) == "__all__":
                used.update(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(ast.unparse(exc))
    assert sorted(defined - used) == []
    classes = {name: cls for name, cls in vars(errors).items()
               if isinstance(cls, type) and cls.__module__ == errors.__name__}
    raised = [classes[name] for name in raised if name in classes]
    assert sorted(name for name, cls in classes.items()
                  if not any(issubclass(r, cls) for r in raised)) == []


def _read_names(tree) -> set[str]:
    # Every name a module reads: in its code, in a string annotation, or
    # re-exported through __all__.
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Assign) and ast.unparse(node.targets) == "__all__":
            names.update(ast.literal_eval(node.value))
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for part in ast.walk(annotation) if annotation is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    names.update(n.id for n in ast.walk(ast.parse(part.value, mode="eval"))
                                 if isinstance(n, ast.Name))
    return names


def test_every_name_a_module_of_the_package_imports_is_used():
    # No module imports what it does not read.  Each decision has one
    # owner: anholonomy reads the branch labels the channel solver placed
    # its roots by and computes none, and a level's kind is derived from E
    # by Spectrum alone, which stores no kind and leaves oracles none to name.
    unused, trees = [], {}
    for path in sorted(SRC.glob("*.py")):
        tree = trees[path.name] = ast.parse(path.read_text(encoding="utf-8"))
        read = _read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                unused += [(path.name, alias.asname or alias.name) for alias in node.names
                           if (alias.asname or alias.name).partition(".")[0] not in read]
    assert unused == []
    called = {ast.unparse(node.func) for node in ast.walk(trees["anholonomy.py"]) if isinstance(node, ast.Call)}
    assert not {name for name in called if name.rpartition(".")[2] in ("arctan2", "atan2")}
    named = {getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
             for node in ast.walk(trees["oracles.py"])}
    assert not {name for name in named if name and name.startswith("KIND_")}
    spectrum = next(node for node in trees["levels.py"].body
                    if isinstance(node, ast.ClassDef) and node.name == "Spectrum")
    fields = [node.target.id for node in spectrum.body if isinstance(node, ast.AnnAssign)]
    assert fields and "kind" not in fields


def test_every_solver_builds_its_levels_through_the_one_record():
    # EigenLevel objects are made only by Spectrum.levels, from the columns
    # every solver returns, and the pairing rule exists once, as an array
    # function: no list-based copy of it is defined in the package.
    calls, defined = [], set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "EigenLevel":
                calls.append((path.name, node.lineno))
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
                if path.name == "levels.py" and node.name == "Spectrum":
                    levels = next(f for f in node.body if getattr(f, "name", None) == "levels")
    assert calls
    for module, line in calls:
        assert module == "levels.py" and levels.lineno <= line <= levels.end_lineno
    assert "flag_degenerate" not in defined


_MUTATORS = {"setdefault", "update", "pop", "popitem", "clear", "append", "extend", "add", "insert",
             "__setitem__"}


def _written_in_calls(tree, names) -> list[str]:
    # Each module-level name in names that a function writes into: an item
    # stored or deleted, a mutating method called, or the name rebound
    # through a global statement.
    found = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        local = {a.arg for a in ast.walk(function.args) if isinstance(a, ast.arg)}
        local |= {n.id for n in ast.walk(function) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        for node in ast.walk(function):
            if isinstance(node, ast.Global):
                found += [name for name in node.names if name in names]
            elif (isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
                    and isinstance(node.value, ast.Name)):
                found.append(node.value.id)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATORS and isinstance(node.func.value, ast.Name)):
                found.append(node.func.value.id)
        found = [name for name in found if name in names and name not in local]
    return found


def test_no_module_holds_a_cache_that_outlives_a_call():
    # A result kept past its call would let a repeated call skip its work,
    # and share it between callers.  The one parser, built once per process
    # and left as it was by each parse, is the exception, and cached_property
    # keeps a value on its own instance.  So functools' cache and lru_cache
    # are named only to decorate cli._build_parser, cached_property decorates
    # methods only, no call writes into a module-level name, and no default
    # argument is a container a call could fill.
    caches, properties, memos, defaults = [], [], [], []
    for name, tree in _trees().items():
        methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef) for item in node.body}
        for node in ast.walk(tree):
            if getattr(node, "id", None) in ("cache", "lru_cache") or getattr(node, "attr", None) in (
                    "cache", "lru_cache"):
                caches.append((name, node.lineno))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any("cached_property" in ast.unparse(d) for d in node.decorator_list):
                    properties.append(id(node) in methods)
                defaults += [f"{name}.{node.name}" for d in [*node.args.defaults, *node.args.kw_defaults]
                             if isinstance(d, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp))]
        top = {t.id for stmt in tree.body if isinstance(stmt, (ast.Assign, ast.AnnAssign))
               for target in (stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target])
               for t in ast.walk(target) if isinstance(t, ast.Name)}
        memos += [f"{name}.{n}" for n in _written_in_calls(tree, top)]
    build = next(node for node in _trees()["cli"].body
                 if isinstance(node, ast.FunctionDef) and node.name == "_build_parser")
    assert caches == [("cli", decorator.lineno) for decorator in build.decorator_list]
    assert properties and all(properties)
    assert memos == [] and defaults == []
