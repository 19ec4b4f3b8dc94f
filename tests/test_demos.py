"""Every narrative script under demos/ runs to completion and prints its
pinned bytes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import GOLDEN

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert [p.name for p in DEMOS] == sorted(GOLDEN["demo_stdout"])


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN["demo_stdout"][script.name]
