"""Every package name and config file the benchmark uses still works.

`perfbench/spans.py` replaces package attributes by timing wrappers, so
deleting or renaming one of them makes every traced benchmark run fail.
This loads spans.py by path (it only reads it), installs the client and
the server wrappers, and undoes them.  The benchmark's INI files are read
the same way, through the loaders its runs call.
"""

import importlib.util
from pathlib import Path

from roadwarn import classifiers, cli, deployment, features, warnd

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


def test_benchmark_config_files_load():
    # a reader that rejected a key these files use would fail every benchmark run
    bench = SPANS.parent
    assert cli.RunConfig(bench / "criterion02.ini").classifier_kwargs["mlp"] == {
        "learning_rate": 0.5, "epochs": 300}
    assert len(deployment.load_plan_config(bench / "plan.ini").processors) == 9
