"""Static checks on the alk sources."""

import ast
from pathlib import Path

import alk


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so every check in alk must raise
    found = []
    for path in sorted(Path(alk.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def _private_definitions(tree):
    """(name, node) for each module-level _name bound by a def, a class or
    an assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node) for name in names
                    if name.startswith("_") and not name.startswith("__"))


def _names_read(node):
    """Every name node reads: loaded names, attributes and imported names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def _public_definitions(tree):
    """(name, node) for each module-level function or class without a
    leading underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node


def _unread(definitions):
    """The names definitions yields, over every package module, that no
    module-level statement of the package reads other than their own
    definition; alk/__init__.py reads each name it exports."""
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in sorted(Path(alk.__file__).parent.glob("*.py"))]
    reads = [(node, set(_names_read(node))) for tree in trees for node in tree.body]
    return [name for tree in trees for name, own in definitions(tree)
            if not any(name in names for node, names in reads if node is not own)]


def test_private_helpers_are_used_in_the_package():
    # a module-level _helper that only its own definition (or the tests)
    # reads is dead package code
    assert _unread(_private_definitions) == []


def test_public_helpers_are_used_or_exported():
    # a public function or class that the package neither reads nor
    # exports is read by the tests alone: dead package code
    assert _unread(_public_definitions) == []


def _enclosing_functions(tree):
    """{id(node): the names of the functions that enclose it}."""
    found = {}

    def visit(node, names):
        for child in ast.iter_child_nodes(node):
            found[id(child)] = names
            inner = names + (child.name,) if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else names
            visit(child, inner)

    visit(tree, ())
    return found


def test_a_lattice_is_built_once_and_the_kernel_eliminates_nothing():
    # _lattice makes the one Bareiss pass of a lattice, and the theta kernel
    # walks the rows the lattice keeps from it
    stray = []
    for path in sorted(Path(alk.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        scopes = _enclosing_functions(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "EuclideanLattice" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)) \
                    and "_lattice" not in scopes[id(node)]:
                stray.append(f"{path.name}:{node.lineno}")
    assert stray == []
    kernel = Path(alk.__file__).parent / "_fpenum_py.py"
    assert "bareiss" not in set(_names_read(ast.parse(kernel.read_text())))


def test_lattices_reach_the_builder_in_integers():
    # the dual and the reduced rank-2 side hand _lattice integer Grams; no
    # Fraction is built between two lattices
    tree = ast.parse((Path(alk.__file__).parent / "arakelov.py").read_text())
    funcs = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert [name for name in ("dual", "theta_invariants_euclidean", "_dual_gram", "_lattice")
            if "Fraction" in set(_names_read(funcs[name]))] == []


def test_gaussian_towers_are_built_from_integers():
    # delta comes in closed form as two odd integers, and the tower's delta
    # and alpha are NFElems built from them directly
    src = Path(alk.__file__).parent
    funcs = {node.name: node for name in ("nfpoly.py", "quartics.py")
             for node in ast.walk(ast.parse((src / name).read_text()))
             if isinstance(node, ast.FunctionDef)}
    assert [name for name in ("gaussian_period_delta", "gaussian_period_tower")
            if "Fraction" in set(_names_read(funcs[name]))] == []
