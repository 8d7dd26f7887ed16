"""The README's library example runs against the current API."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under the library example heading"
    return match.group(1)


def test_library_example_runs(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9
    for line in lines:
        _, closed, numeric = re.fullmatch(r"\s*(\S+)  closed (\S+)  numeric (\S+)", line).groups()
        assert closed == numeric
