"""Each demo prints exactly its golden output in tests/data/demos/.

The demos run in a subprocess with PYTHONPATH=src, as a reader would run
them from the root of a checkout.  A deliberate change to a demo's output
means regenerating its golden file.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "data" / "demos"
DEMOS = sorted(path.stem for path in (ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden_output():
    assert DEMOS == sorted(path.stem for path in GOLDEN.glob("*.txt"))
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_prints_its_golden_output(demo):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"{demo}.txt").read_text()
