"""Golden JSON reports: every committed scene through every scene command.

Pins the byte-stable report rule: for each `scenes/*.json` and each of
`invariants`, `pencil` and `resolve` with `--format json` (plus `--oracle`
where the command takes it), `cli.main` must print exactly the recorded
stdout and stderr and return the recorded exit code.  Regenerate the
golden file only for an intended change of output:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from folindex.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_reports.json"
COMMANDS = (("invariants",), ("invariants", "--oracle"), ("pencil",),
            ("pencil", "--oracle"), ("resolve",))


def cases():
    scenes = sorted(p.name for p in (ROOT / "scenes").glob("*.json"))
    return [(scene, command) for scene in scenes for command in COMMANDS]


def case_id(scene, command):
    return " ".join((scene, *command))


def run_case(scene, command):
    argv = [command[0], "--scene", f"scenes/{scene}", "--format", "json",
            *command[1:]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(case_id(*c) for c in cases())


@pytest.mark.parametrize("scene,command", cases(),
                         ids=[case_id(*c) for c in cases()])
def test_report_matches_golden(scene, command, golden, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert run_case(scene, command) == golden[case_id(scene, command)]


if __name__ == "__main__":
    os.chdir(ROOT)
    records = {case_id(*c): run_case(*c) for c in cases()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} reports to {GOLDEN}")
