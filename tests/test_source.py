"""Checks on the library source itself."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "kpmod"


def test_no_assert_statements_in_src():
    # ``python -O`` strips assert statements, so an invariant written as one
    # goes unchecked there; invariants must raise explicit errors instead.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in src: {found}"


def names_in(path: str) -> set:
    """Every name a module imports, reads or looks up as an attribute."""
    tree = ast.parse((SRC / path).read_text())
    names = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return names


def test_schubert_layer_builds_no_permutation():
    # the staircase reads the code's window and the plethysm runs the
    # branching rule: neither needs a Permutation, a sign or all of S_ell
    assert not names_in("schubert.py") & {"Permutation", "perm_of", "longest_element", "permutations", "sign"}


def test_verify_sweeps_build_no_permutation():
    # the sweeps over S_m walk _codes(m) and read windows off each code:
    # none builds a Permutation only to turn it back into a code
    assert not names_in("verify.py") & {"Permutation", "all_permutations", "perm_of", "code", "transition"}


def test_filtration_imports_only_the_criterion_privately_from_modules():
    # the closure steps live in modules.py; filtration.py reads _raised alone
    tree = ast.parse((SRC / "filtration.py").read_text())
    private = {
        a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "modules"
        for a in node.names
        if a.name.startswith("_")
    }
    assert private == {"_raised"}


def test_criterion_reads_the_presentation_alone():
    # the m_ij come from permutations._presentation with their pairs: the
    # criterion neither reads a window nor pairs exponents with raising_pairs
    tree = ast.parse((SRC / "filtration.py").read_text())
    names = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
    assert not names & {"_code_window", "_window_m_table"}
    assert not [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "raising_pairs"
    ]


def loops_over(path: str, cls_name, source: str) -> list:
    """Methods of a class, or with ``cls_name`` None the module's own
    functions, that hold a for loop over ``source``, as written."""
    tree = ast.parse((SRC / path).read_text())
    scope = tree
    if cls_name is not None:
        scope = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls_name)
    return [
        f.name
        for f in scope.body
        if isinstance(f, ast.FunctionDef)
        for node in ast.walk(f)
        if isinstance(node, ast.For) and ast.unparse(node.iter) == source
    ]


def test_each_closure_loop_is_written_once():
    # every closure runs the bit-field moves (apply, simple_images) and the
    # echelon reduction (the closer's inserts, a closed module's columns):
    # each is one loop, so a rule such as the orbit-sum step is said in one
    # place, and Echelon and the closed modules share linalg.reduce
    assert loops_over("modules.py", "_DiagramAmbient", "vec.items()") == ["_move"]
    assert loops_over("linalg.py", None, "sorted(vec.keys() & pivots.keys())") == ["reduce"]
    tree = ast.parse((SRC / "linalg.py").read_text())
    echelon = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Echelon")
    assert not [node for node in ast.walk(echelon) if isinstance(node, ast.For) and "sorted" in ast.unparse(node.iter)]


def test_closure_queue_loop_is_written_once():
    # the full-weight-space rule masks the images a popped vector asks for;
    # it does not fork the queue loop for enumerated modules
    tree = ast.parse((SRC / "modules.py").read_text())
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "SubmoduleCloser")
    loops = [
        f.name
        for f in cls.body
        if isinstance(f, ast.FunctionDef)
        for node in ast.walk(f)
        if isinstance(node, ast.While) and ast.unparse(node.test) == "queue"
    ]
    assert loops == ["add"]
