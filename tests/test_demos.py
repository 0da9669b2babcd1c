"""Every demo runs to completion against the package under test."""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import sumess

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("0*.py")))
def test_demo_runs(demo, tmp_path):
    # demos read demos/specs/ relative to the working directory and write
    # there too, so each runs in a copy
    shutil.copytree(DEMOS, tmp_path / "demos")
    src = str(Path(sumess.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "demos" / demo)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
