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
