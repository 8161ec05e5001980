"""Layering rules over the kernel's source, read from its syntax trees.

Imports happen at module level, so the import graph is what the module
headers say; the few late imports left break real cycles or keep ``gen``
out of start-up. Declarations are reached through the signature's
lookups by kind, never by scanning ``Signature.decls``, and a term
constant's type, body and engine entries through ``Signature.function``
and ``entry``: a postulated term constant is a neutral ``Const`` head with
no body, whose entry is that head.
"""

import ast
from pathlib import Path

import ttkernel
from ttkernel import domain, nbe
from ttkernel.syntax import Node

SRC = Path(ttkernel.__file__).parent

# (module, function) pairs allowed to import inside a function body
LATE_IMPORTS = {
    ("errors", "Mismatch.__str__"),  # rendering a mismatch prints through surface
    ("errors", "_normalize"),  # and normalizes through nbe, which the oracle never loads
    ("cli", "_cmd_fuzz"),  # only fuzzing needs gen: keep it out of start-up
}
# (module, function) pairs outside signature.py allowed to read ``decls``
DECLS_READERS = {("cli", "_cmd_check")}  # the declaration count


def _scoped(module: str):
    """Every node of ``module`` with the qualified name of its enclosing
    function, or None at module level."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    stack = [(tree, None, "")]
    while stack:
        node, func, prefix = stack.pop()
        yield node, func
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                inner = func if isinstance(child, ast.ClassDef) else name
                stack.append((child, inner, name + "."))
            else:
                stack.append((child, func, prefix))


def _modules():
    return sorted(p.stem for p in SRC.glob("*.py"))


def test_imports_only_at_module_level_but_the_cycle_breakers():
    late = {
        (m, func)
        for m in _modules()
        for node, func in _scoped(m)
        if func is not None and isinstance(node, (ast.Import, ast.ImportFrom))
    }
    assert late <= LATE_IMPORTS, late - LATE_IMPORTS


def test_only_the_signature_reads_its_declarations():
    readers = {
        (m, func)
        for m in _modules()
        if m != "signature"
        for node, func in _scoped(m)
        if isinstance(node, ast.Attribute) and node.attr == "decls"
    }
    assert readers <= DECLS_READERS, readers - DECLS_READERS


def _kernel_imports(module: str) -> set[str]:
    return {
        node.module
        for node, _ in _scoped(module)
        if isinstance(node, ast.ImportFrom) and node.level > 0
    }


def test_signature_is_a_data_module():
    # it imports the syntax it is made of, and nothing that checks or computes
    assert _kernel_imports("signature") == {"syntax"}


def test_domain_is_a_data_module():
    # values hold syntax in closures; evaluating them is nbe's business
    assert _kernel_imports("domain") == {"syntax"}


def test_the_domain_adds_only_closures_and_variables_to_syntax():
    # every other value, neutrals included, is a syntax node over values,
    # so no wrapper class copies a syntax node field for field
    classes = {name for name, c in vars(domain).items() if isinstance(c, type) and c.__module__ == domain.__name__}
    assert classes == {"Closure", "NVar"}


def _names(module: str) -> set[str]:
    """Every name ``module`` binds, imports, reads or reads as an attribute."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    return _named(tree) | {n.name for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.ClassDef))}


def _named(tree) -> set[str]:
    """Every name ``tree`` imports, reads or reads as an attribute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def test_only_the_signature_makes_a_term_constant_a_function():
    # its type and body come from one place, Signature.function
    makers = {m for m in _modules() if _names(m) & {"eta_constant", "pi_over"}}
    assert makers <= {"signature", "syntax"}, makers


def test_no_other_module_reads_the_signatures_private_attributes():
    private = {"_cache", "_decls", "_index", "_length"}
    readers = {m: _names(m) & private for m in _modules() if m != "signature"}
    assert {m: names for m, names in readers.items() if names} == {}


def test_normal_forms_are_syntax():
    # normal.py decides the normal judgments over syntax and defines no tree
    # family of its own, and every node NbE builds is a syntax or domain
    # node; its successor chains, in values and in normal forms alike, it
    # builds only through ``syntax.succ``, and its neutral values are the
    # syntax's own App and NatInd over a variable or a postulate's Const
    # head, which the signature's entry supplies
    tree = ast.parse((SRC / "normal.py").read_text(encoding="utf-8"))
    assert [c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)] == []
    built = set()
    for node, _ in _scoped("nbe"):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            built.add(node.func.id)
    assert "succ" in built and "Succ" not in built
    classes = {name: getattr(nbe, name) for name in built if isinstance(getattr(nbe, name, None), type)}
    nodes = {name: cls.__module__ for name, cls in classes.items() if issubclass(cls, Node)}
    assert {"Lam", "Closure", "TyConst", "NVar", "App", "NatInd"} <= set(nodes)
    assert set(nodes.values()) == {"ttkernel.syntax", "ttkernel.domain"}, nodes


def test_nothing_in_the_kernel_is_there_for_the_tests_alone():
    # every module-level function and class is named by another part of the
    # kernel, besides the package's re-exports, or by the benchmark; code
    # that only the tests use lives with them
    used = set()
    for path in (Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"):
        used |= _named(ast.parse(path.read_text(encoding="utf-8")))
    defined = set()
    for m in _modules():
        if m == "__init__":
            continue
        for stmt in ast.parse((SRC / f"{m}.py").read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.add(stmt.name)
                used |= _named(stmt) - {stmt.name}  # a definition does not use itself
            else:
                used |= _named(stmt)
    assert defined <= used, sorted(defined - used)
