"""Every numeric bound of the library is written once, as a module-level name.

A bound is a number with a negative exponent, such as ``1e-9``, written as a
number token or in a docstring.  The source is read with the standard
library's ``tokenize``, so comments and other strings never count, and
``ast`` gives the docstrings and the lines of each module-level assignment to
upper-case names, where such tokens belong.  A docstring names the constant
instead of restating its value.
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


DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_bounds(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, text) of each bound in a module, class or function docstring."""
    found = []
    for node in ast.walk(tree):
        doc = ast.get_docstring(node, clean=False) if isinstance(node, DOCUMENTED) else None
        if doc is not None:
            first = node.body[0].lineno
            found += [
                (first + doc.count("\n", 0, m.start()), m.group()) for m in BOUND.finditer(doc)
            ]
    return found


def stray_bounds(source: str) -> list[str]:
    """'line N: token' for each bound written outside a module-level constant."""
    tree = ast.parse(source)
    named = {
        line
        for node in tree.body
        if _is_constant_assignment(node)
        for line in range(node.lineno, node.end_lineno + 1)
    }
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    numbers = [
        (tok.start[0], tok.string)
        for tok in tokens
        if tok.type == tokenize.NUMBER
        and BOUND.fullmatch(tok.string)
        and tok.start[0] not in named
    ]
    return [f"line {line}: {text}" for line, text in sorted(numbers + _docstring_bounds(tree))]


def test_detects_a_stray_bound():
    source = (
        '"""Bounds such as 1e-9 in a docstring restate a value."""\n'
        "TOL = 1e-9  # named here, and 1e-8 in a comment\n"
        "LOW, HIGH = (\n    -1e-8,\n    2.5E-3,\n)\n"
        "scale = 1e-3\n"
        "def check(x, floor=1e-10):\n"
        '    """Whether x is above TOL,\n\n    and not below -1e-11."""\n'
        '    return x > TOL and "1e-7" != x < 1e-12 + 1e3\n'
    )
    assert stray_bounds(source) == [
        "line 1: 1e-9",
        "line 7: 1e-3",
        "line 8: 1e-10",
        "line 11: 1e-11",
        "line 12: 1e-12",
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_names_each_bound(path):
    assert stray_bounds(path.read_text()) == []
