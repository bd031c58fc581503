"""The library surface: every function, class and method in ``src/ultranorm``
is reached from the CLI or from the acceptance criteria, and every name a
module imports is read in it.

Reachability is by name through ``ast``: a definition is reached when a
reached body mentions its name, as a variable or an attribute; importing a
name does not reach it.  The roots are all of ``cli.py``, all of ``tests/test_acceptance.py`` and the
module-level statements of every source module, which run on import.  A
reached class also reaches its dunders and properties, which run without
being named.  The check is coarse (one mention of ``norm`` reaches every
method called ``norm``), so it errs toward keeping code.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Set

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "ultranorm"

# accessors that only tests read, to probe state that a command reaches
ALLOWED = {
    "metrics.QuotientMetric.frame_forms": "the orthogonal frame the metric keeps",
    "metrics.QuotientMetric.substitution": "the inverse change of frame the metric keeps",
    "metrics.QuotientMetric.local_frame_value": "D(x) at the normalized point, from sigma's cache",
    "fields.ValuedField.uniformizer": "shows which fields refuse an element p or T",
    "adelic.NormedLattice.arch": "the norm that lambda_Z's basis attains",
}


def _names(node: ast.AST) -> Set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _implicit(node: ast.AST) -> bool:
    """A dunder or a property: it runs without its name being mentioned."""
    name = node.name
    if name.startswith("__") and name.endswith("__"):
        return True
    return any(_names(d) & {"property", "cached_property"}
               for d in getattr(node, "decorator_list", []))


def _definitions(tree: ast.Module, module: str) -> Dict[str, ast.AST]:
    """Top-level functions and classes, and the methods of those classes,
    by qualified name; a class keeps its statements but not its methods."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs[f"{module}.{node.name}"] = node
        elif isinstance(node, ast.ClassDef):
            methods = [n for n in node.body
                       if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
            for method in methods:
                defs[f"{module}.{node.name}.{method.name}"] = method
            shell = ast.ClassDef(name=node.name, bases=node.bases, keywords=node.keywords,
                                 decorator_list=node.decorator_list,
                                 body=[n for n in node.body if n not in methods])
            defs[f"{module}.{node.name}"] = shell
    return defs


def unreached() -> List[str]:
    defs: Dict[str, ast.AST] = {}
    seen: Set[str] = set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs.update(_definitions(tree, path.stem))
        body = tree if path.stem == "cli" else ast.Module(
            body=[n for n in tree.body if not isinstance(
                n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))],
            type_ignores=[])
        seen |= _names(body)
    seen |= _names(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(
        encoding="utf-8")))
    reached: Set[str] = set()
    grew = True
    while grew:
        grew = False
        for qualname, node in defs.items():
            if qualname in reached:
                continue
            parts = qualname.split(".")
            owner = ".".join(parts[:2])
            if parts[-1] in seen or (len(parts) == 3 and owner in reached
                                     and _implicit(node)):
                reached.add(qualname)
                seen |= _names(node)
                grew = True
    return sorted(q for q, node in defs.items()
                  if q not in reached and not _implicit(node))


def test_every_definition_is_reached_from_a_command_or_a_criterion():
    assert [q for q in unreached() if q not in ALLOWED] == []


def test_every_allowed_accessor_is_defined_and_unreached():
    assert sorted(ALLOWED) == sorted(q for q in unreached() if q in ALLOWED)


def unused_imports() -> List[str]:
    """``module.name`` for each name that a source module imports (``from
    __future__`` aside) but neither reads, as a variable or as the base of
    an attribute, nor lists in ``__all__``: a stale import line still counts
    toward the source size."""
    out = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, read, exported = set(), set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Assign) and
                  any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                exported |= set(ast.literal_eval(node.value))
        out += [f"{path.stem}.{name}" for name in sorted(imported - read - exported)]
    return out


def test_every_imported_name_is_read_or_exported():
    assert unused_imports() == []


# A section is one integer list over one denominator: the dict product and
# the dict-to-integers conversion it replaced live on only as the tests'
# oracle (``dict_sections``), and must not come back as a second
# representation of a form.
RETIRED = {"_polynomial_product", "_integer_coeffs"}


def test_no_retired_dict_kernel_is_defined_or_named():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = {n.name for n in ast.walk(tree)
                   if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
        found += [f"{path.stem}.{name}" for name in sorted((defined | _names(tree)) & RETIRED)]
    assert found == []
