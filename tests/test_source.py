"""Static checks on the alk sources."""

import ast
from pathlib import Path

import alk
from alk import git4


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
    # the dual, the reduced rank-2 side and a bundle's direct image hand
    # _lattice integer Grams; no Fraction is built between two lattices, and
    # a bundle's Gram passes through no euclidean_lattice, real or float
    src = Path(alk.__file__).parent
    funcs = {node.name: node for name in ("arakelov.py", "quadforms.py")
             for node in ast.walk(ast.parse((src / name).read_text()))
             if isinstance(node, ast.FunctionDef)}
    assert [name for name in ("dual", "theta_invariants_euclidean", "_dual_gram", "_lattice",
                              "_image_and_box", "box_form", "lattice_gram")
            if "Fraction" in set(_names_read(funcs[name]))] == []
    bundle_route = [funcs[name] for name in ("_image_and_box", "box_form", "lattice_gram")]
    assert [node.name for node in bundle_route
            if {"euclidean_lattice", "real", "float", "sqrt"} & set(_names_read(node))] == []
    assert [node.name for node in bundle_route for sub in ast.walk(node)
            if isinstance(sub, ast.Constant) and isinstance(sub.value, float)] == []


def test_a_bundle_degree_is_one_log_of_its_exact_data():
    # adeg takes no section, so it coerces and tests no element and makes
    # no float embedding
    tree = ast.parse((Path(alk.__file__).parent / "arakelov.py").read_text())
    (adeg,) = [node for node in tree.body if getattr(node, "name", None) == "adeg"]
    body = {name for stmt in adeg.body for name in _names_read(stmt)}
    assert {"embeddings", "float", "coerce", "contains"} & body == set()


def test_theta_sums_take_no_tail_tolerance():
    # the tolerance is enumeration.DEFAULT_TAIL_TOL; truncation_radius, the
    # radius at a given tolerance, is the one function that takes it
    src = Path(alk.__file__).parent
    found = [f"{name}.{fn}" for name in ("arakelov", "enumeration")
             for fn, node in _public_definitions(ast.parse((src / f"{name}.py").read_text()))
             if isinstance(node, ast.FunctionDef) and fn != "truncation_radius"
             and "tail_tol" in {arg.arg for arg in ast.walk(node.args) if isinstance(arg, ast.arg)}]
    assert found == []


def test_gaussian_towers_are_built_from_integers():
    # delta comes in closed form as two odd integers, and the tower's delta
    # and alpha are NFElems built from them directly
    src = Path(alk.__file__).parent
    funcs = {node.name: node for name in ("nfpoly.py", "quartics.py")
             for node in ast.walk(ast.parse((src / name).read_text()))
             if isinstance(node, ast.FunctionDef)}
    assert [name for name in ("gaussian_period_delta", "gaussian_period_tower")
            if "Fraction" in set(_names_read(funcs[name]))] == []


# the exact binary-form code, as quadforms names it, and the names it had or
# that arakelov gave it before
QUADFORMS_NAMES = {"positive_radii", "_GRAM_BITS", "_surd_negative", "_floor_surd", "lagrange",
                   "reduce_forms", "box_form", "lattice_gram", "box_count", "count_rows"}
FORMER_NAMES = {"_positive_radii", "_surd_sign", "_lagrange", "_reduce_forms", "_box_form",
                "_rounded_gram", "ideal_gram", "_count_rows", "_surd_float", "rounded_gram"}


def test_no_module_imports_a_private_name_of_arakelov_or_quadforms():
    # nor does boxcount import a private name of any module
    found = []
    for path in sorted(Path(alk.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (path.name == "boxcount.py" or (
                    node.module or "").split(".")[-1] in ("arakelov", "quadforms")):
                found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in ("arakelov", "quadforms") and node.attr.startswith("_"):
                found.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
    assert found == []


def _module_level_names(name):
    """(defined, renamed): the names a module's def, class and assignment
    statements bind, and the `as` names of its imports."""
    tree = ast.parse((Path(alk.__file__).parent / f"{name}.py").read_text())
    defined = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {t.id for node in tree.body if isinstance(node, ast.Assign)
                for t in node.targets if isinstance(t, ast.Name)}
    renamed = {alias.asname for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
               for alias in node.names if alias.asname}
    return defined, renamed


def test_the_binary_form_code_lives_in_quadforms_alone():
    defined, renamed = _module_level_names("arakelov")
    assert (defined | renamed) & (QUADFORMS_NAMES | FORMER_NAMES) == set()
    assert QUADFORMS_NAMES <= _module_level_names("quadforms")[0]
    assert FORMER_NAMES & _module_level_names("quadforms")[0] == set()


def test_every_module_has_a_readme_row():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = {line.split("|")[1].strip() for line in readme.splitlines()
            if line.startswith("| `alk.")}
    modules = {f"`alk.{path.stem}`" for path in Path(alk.__file__).parent.glob("*.py")
               if path.stem not in ("__init__", "_fpenum_py")}
    assert modules - rows == set()


def test_psi_is_one_formula_at_every_place():
    # psi_invariant and psi_invariant_arch share localgeom._psi: no
    # Conjugation route, no complex arithmetic and no float eigenbasis
    tree = ast.parse((Path(alk.__file__).parent / "localgeom.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    assert "cmath" not in imported
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert {"local_coords", "conjugate"} & set(_names_read(funcs["psi_invariant"])) == set()
    assert {"arch_conjugator", "arch_local_coords"} & set(funcs) == set()
    assert all("_psi" in set(_names_read(funcs[name]))
               for name in ("psi_invariant", "psi_invariant_arch"))


def test_torus_coordinates_are_one_closed_form():
    # local_coords and the GL4 blocks read (b1, b2) from localgeom._coords:
    # no Conjugation, no field eigenbasis and no re-check of the sigma
    # pattern; Conjugation serves git4's g^-1 gamma g by `entry` alone
    tree = ast.parse((Path(alk.__file__).parent / "localgeom.py").read_text())
    assert "Conjugation" not in set(_names_read(tree))
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert {"_inv2", "_sigma_pattern", "eigenbasis", "conjugate"} & defined == set()
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert all("_coords" in set(_names_read(funcs[name]))
               for name in ("local_coords", "block_coordinates_gl4"))
    assert "__call__" not in vars(git4.Conjugation)


def test_relations_are_read_from_the_certificate():
    # pattern_and_relation_check reads gamma by _clear and both relations
    # from the embedding's cached proof: per gamma it conjugates no entry
    # and forms no Psi value
    tree = ast.parse((Path(alk.__file__).parent / "git4.py").read_text())
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    names = set(_names_read(funcs["pattern_and_relation_check"]))
    assert {"_profile", "_entries", "_psi_values", "conjugation_table"} & names == set()
    assert {"relation_certificate", "_clear"} <= names


def test_gl4_invariants_take_one_integer_pass():
    # git4 takes det(v) of the cleared gamma in closed form, with no
    # elimination, and Conjugation lives next to its one caller, git4
    package = Path(alk.__file__).parent
    assert "bareiss" not in set(_names_read(ast.parse((package / "git4.py").read_text())))
    nfpoly = ast.parse((package / "nfpoly.py").read_text())
    assert "Conjugation" not in {node.name for node in ast.walk(nfpoly)
                                 if isinstance(node, ast.ClassDef)}
