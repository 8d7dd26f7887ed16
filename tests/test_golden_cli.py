"""Golden outputs of the command-line interface.

Each case in ``golden_cli.json`` is one flag set run through ``main(argv)``
in-process.  The stored record holds the exit code, the exact stderr text and
the sha256 of stdout and of any ``--output`` / ``--svg`` file, so a change
that moves one CSV digit, one report line or one exit code fails here.
``{output}`` and ``{svg}`` in an argv are replaced by fresh temporary paths.

The records were captured from the code before a refactor that must leave
every byte unchanged.  To capture them again after an intended output
change, run ``PYTHONPATH=src python tests/test_golden_cli.py`` from the repo
root and review the diff of the JSON file.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile
from unittest import mock

import pytest

from spinstar.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")

CASES = [
    ["sweep"],
    ["sweep", "--log-base", "2", "--steps", "200"],
    ["sweep", "--log-base", "e", "--steps", "200"],
    ["sweep", "--log-base", "10", "--steps", "200", "--output", "{output}"],
    ["sweep", "--p", "0", "--steps", "150", "--t-max", "9.0"],
    ["sweep", "--p", "1", "--steps", "150", "--t-max", "9.0"],
    ["sweep", "--alpha", "0", "--steps", "150"],
    ["sweep", "--env-spins", "5", "--p", "0.3", "--alpha", "0.7", "--beta", "1.2", "--steps", "300"],
    ["sweep", "--large-n", "--steps", "300", "--t-max", "20.0", "--p", "0.8"],
    ["sweep", "--coupling", "0.37", "--steps", "300", "--beta", "0.4"],
    ["sweep", "--oracle", "--env-spins", "6", "--steps", "100"],
    ["sweep", "--steps", "64", "--t-max", "6.0", "--output", "{output}", "--svg", "{svg}"],
    ["hidden"],
    ["hidden", "--steps", "333", "--t-max", "7.5", "--output", "{output}"],
    ["kraus-check"],
    ["kraus-check", "--env-spins", "5", "--p", "0.3", "--alpha", "0.9"],
    ["kraus-check", "--seed", "7"],
    ["kraus-check", "--seed", "7", "--env-spins", "4"],
    ["kraus-check", "--t", "1.3"],
    ["kraus-check", "--t", "2.2", "--alpha", "0.9", "--env-spins", "4"],
    ["markov-check", "--scenario", "eq-mixture"],
    ["markov-check", "--scenario", "w-state"],
    ["markov-check", "--scenario", "factorized"],
    ["markov-check", "--scenario", "custom-markov"],
    ["sweep", "--steps", "1"],
    ["sweep", "--t-max", "-1"],
    ["sweep", "--large-n", "--env-spins", "3"],
    ["sweep", "--oracle"],
    ["sweep", "--p", "2"],
    ["bogus"],
    [],
    ["sweep", "--oracle", "--env-spins", "2", "--steps", "40"],
    [
        "sweep", "--oracle", "--env-spins", "10", "--steps", "300", "--p", "0.3", "--alpha", "0.7",
        "--beta", "1.2", "--log-base", "2",
    ],
    [
        "sweep", "--oracle", "--env-spins", "9", "--coupling", "0.37", "--t-max", "40",
        "--steps", "257", "--log-base", "e", "--output", "{output}", "--svg", "{svg}",
    ],
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(argv: list[str]) -> dict:
    """Run one flag set and return its record."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"{output}": pathlib.Path(tmp, "out.csv"), "{svg}": pathlib.Path(tmp, "plot.svg")}
        real = [str(paths.get(a, a)) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        # argparse wraps its usage text to the terminal width
        with mock.patch.dict(os.environ, {"COLUMNS": "100"}), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(real)
        record = {
            "argv": argv,
            "exit": code,
            "stdout": _sha(out.getvalue().encode()),
            "stderr": err.getvalue(),
        }
        for key, name in (("{output}", "output"), ("{svg}", "svg")):
            if key in argv:
                record[name] = _sha(paths[key].read_bytes())
    return record


def _golden() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_cases_match_the_golden_file():
    assert [r["argv"] for r in _golden()] == CASES


@pytest.mark.parametrize("index", range(len(CASES)), ids=[" ".join(a) or "<none>" for a in CASES])
def test_cli_output_is_unchanged(index):
    assert run_case(CASES[index]) == _golden()[index]


if __name__ == "__main__":
    records = [run_case(argv) for argv in CASES]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {GOLDEN}", file=sys.stderr)
