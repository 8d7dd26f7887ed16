"""Every name a library module imports is used in that module.

Parsed with the standard library's ``ast``, since no linter is a dependency.
A name counts as used when it appears as an identifier or attribute base
anywhere in the module, or as a string in ``__all__`` (a re-export).
Imports under ``if TYPE_CHECKING:`` serve annotations only and are exempt.

Every name the benchmark tracer patches also still resolves in its module,
the package version is written once, as ``spinstar.__version__``, and the
``test`` extra installs what the test modules import.
"""

import ast
import importlib
import pathlib
import re
import sys
import tomllib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "spinstar"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _is_type_checking_block(node: ast.AST) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    exempt: set[int] = set()
    for node in ast.walk(tree):
        if _is_type_checking_block(node):
            exempt.update(id(child) for child in ast.walk(node))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in exempt:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_detects_an_unused_import():
    source = (
        "from typing import TYPE_CHECKING\n"
        "import math\n"
        "import os\n"
        "if TYPE_CHECKING:\n"
        "    import sys\n"
        "__all__ = ['os']\n"
        "print(TYPE_CHECKING)\n"
    )
    assert unused_imports(source) == ["math (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


SPANS = pathlib.Path(__file__).resolve().parents[1] / "spinbench" / "spans.py"


def span_targets() -> tuple[tuple[str, str, str], ...]:
    """The (layer, module, attribute) table `LAYERS` of the benchmark tracer.

    Read from the source, so the tracer and its dependencies are not imported.
    """
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {SPANS}")


@pytest.mark.parametrize("layer, module, attr", span_targets())
def test_traced_layer_resolves(layer, module, attr):
    """Every function the benchmark tracer wraps still lives where it looks."""
    owner = importlib.import_module(module)
    if "." in attr:
        class_name, attr = attr.split(".")
        assert attr in vars(getattr(owner, class_name))
    else:
        assert callable(getattr(owner, attr))


ROOT = pathlib.Path(__file__).resolve().parents[1]


def readme_example() -> str:
    """The Python code block under the README's "Library example" heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def referenced_names(source: str) -> set[str]:
    """Identifiers read as a name, and attributes read off any object, in the source."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_name_has_a_user():
    """Each name `spinstar` exports is read by the library itself, the README
    example, the acceptance criteria or the benchmark tracer; a name only unit
    tests read is not public.  String entries of ``__all__``, definitions and
    imports do not count as a use."""
    spinstar = importlib.import_module("spinstar")
    used = referenced_names(readme_example())
    used |= referenced_names((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    for path in PACKAGE.glob("*.py"):
        used |= referenced_names(path.read_text(encoding="utf-8"))
    for _, _, attr in span_targets():
        used.update(attr.split("."))
    exported = [name for name in spinstar.__all__ if not name.startswith("__")]
    assert [name for name in exported if name not in used] == []
    assert len(set(spinstar.__all__)) == len(spinstar.__all__)


def test_version_is_written_once():
    """pyproject.toml reads the version from the package instead of repeating it.

    tomllib reads the file as written: setuptools' own reader would expand the
    attribute but warns that its `[tool.setuptools]` support is beta, which
    this suite turns into an error."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        config = tomllib.load(fh)
    assert "version" not in config["project"]
    assert config["project"]["dynamic"] == ["version"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "spinstar.__version__"}
    version = importlib.import_module("spinstar").__version__
    assert isinstance(version, str) and version


def imported_modules(source: str) -> set[str]:
    """Top-level names of the absolute imports anywhere in the source, nested ones too."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_test_extra_installs_what_the_tests_import():
    """`pip install -e ".[test]"` is enough to collect every test module: each
    third-party module they import is numpy, the runtime dependency, or is
    named in the `test` extra."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        extra = tomllib.load(fh)["project"]["optional-dependencies"]["test"]
    named = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_") for req in extra}
    modules = sorted((ROOT / "tests").glob("*.py"))
    imported = set().union(*(imported_modules(p.read_text(encoding="utf-8")) for p in modules))
    local = {"spinstar"} | {p.stem for p in modules}
    third_party = imported - local - set(sys.stdlib_module_names)
    assert {"numpy", "pytest"} <= third_party
    assert sorted(third_party - {"numpy"} - named) == []
