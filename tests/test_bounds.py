"""Every numeric bound of the library is written once, as a module-level name.

A bound is a number token with a negative exponent, such as ``1e-9``.  The
source is read with the standard library's ``tokenize``, so docstrings,
comments and strings never count, and ``ast`` gives the lines of each
module-level assignment to upper-case names, where such tokens belong.
"""

import ast
import io
import pathlib
import re
import tokenize

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "spinstar"

BOUND = re.compile(r"[0-9.]+[eE]-[0-9]+")


def _is_constant_assignment(node: ast.stmt) -> bool:
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return False
    names = [
        name
        for target in targets
        for name in (target.elts if isinstance(target, ast.Tuple) else [target])
    ]
    return all(isinstance(name, ast.Name) and name.id.isupper() for name in names)


def stray_bounds(source: str) -> list[str]:
    """'line N: token' for each bound written outside a module-level constant."""
    named = {
        line
        for node in ast.parse(source).body
        if _is_constant_assignment(node)
        for line in range(node.lineno, node.end_lineno + 1)
    }
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return [
        f"line {tok.start[0]}: {tok.string}"
        for tok in tokens
        if tok.type == tokenize.NUMBER
        and BOUND.fullmatch(tok.string)
        and tok.start[0] not in named
    ]


def test_detects_a_stray_bound():
    source = (
        '"""Bounds such as 1e-9 in a docstring are text."""\n'
        "TOL = 1e-9  # named here, and 1e-8 in a comment\n"
        "LOW, HIGH = (\n    -1e-8,\n    2.5E-3,\n)\n"
        "scale = 1e-3\n"
        "def check(x, floor=1e-10):\n"
        '    return x > TOL and "1e-7" != x < 1e-12 + 1e3\n'
    )
    assert stray_bounds(source) == ["line 7: 1e-3", "line 8: 1e-10", "line 9: 1e-12"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_names_each_bound(path):
    assert stray_bounds(path.read_text()) == []
