"""The shared vocabulary, and the warning service that runs on it alone."""

import os
import subprocess
import sys
from pathlib import Path

from roadwarn import classifiers, decision, labels

ROOT = Path(__file__).resolve().parent.parent

# Runs in a fresh interpreter in which any import of numpy fails.
_WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None
from roadwarn import deployment, labels, warnd

plan = deployment.load_plan_config(sys.argv[1])
dispatcher = warnd.Dispatcher(plan)
inbox = []
assert dispatcher.handle_line("REG c1 30.0 1.0 0.0", inbox.append) == "OK c1"
result = labels.DetectionResult(climax_index=9, sound_type=labels.SoundClass.H,
                                direction=labels.APPROACHING)
assert dispatcher.dispatch(result, 1, 1.0) == {"c1"}
assert inbox == [warnd.warn_line(result, 1, 1.0)] == ["WARN 1 H approaching 1.000"], inbox
print("ok")
"""


def test_warning_service_runs_without_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, str(ROOT / "perfbench" / "plan.ini")],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_processor_modules_use_the_same_names():
    assert classifiers.SoundClass is labels.SoundClass
    assert classifiers.CLASS_ORDER is labels.CLASS_ORDER
    assert decision.DetectionResult is labels.DetectionResult


def test_most_dangerous_follows_the_danger_order():
    for i, riskiest in enumerate(labels.DANGER_ORDER):
        assert labels.most_dangerous(labels.DANGER_ORDER[i:][::-1]) is riskiest
