"""Golden demo output: each `demos/*.py` prints exactly its recorded text.

Each demo runs in a fresh interpreter that imports the package from
./src.  Regenerate a golden file only for an intended change of output:

    PYTHONPATH=src python demos/<name>.py > tests/golden/demos/<name>.txt
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "demos"
DEMOS = sorted(p.stem for p in (ROOT / "demos").glob("*.py"))


def test_golden_covers_every_demo():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == DEMOS


@pytest.mark.parametrize("name", DEMOS)
def test_demo_matches_golden(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"{name}.txt").read_text()
