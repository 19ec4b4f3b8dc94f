"""Every package name the benchmark's traced runs wrap still exists.

`perfbench/spans.py` replaces package attributes by timing wrappers, so
deleting or renaming one of them makes every traced benchmark run fail.
This loads spans.py by path (it only reads it), installs the client and
the server wrappers, and undoes them.
"""

import importlib.util
from pathlib import Path

from roadwarn import classifiers, features, warnd

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_runs_find_every_wrapped_name():
    spans = _load_spans()
    watched = [(classifiers.MlpModel, "loss"), (classifiers.KnnModel, "predict_batch"),
               (features, "lpc"), (warnd.Dispatcher, "dispatch")]
    originals = [getattr(owner, attr) for owner, attr in watched]
    tracer = spans.Tracer("hooks")
    try:
        spans.install_client(tracer)
        spans.install_server(tracer)
        assert all(getattr(owner, attr) is not original
                   for (owner, attr), original in zip(watched, originals))
    finally:
        tracer.restore()
    assert [getattr(owner, attr) for owner, attr in watched] == originals
