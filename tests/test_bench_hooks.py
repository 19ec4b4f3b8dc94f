"""Every package name and config file the benchmark uses still works.

`perfbench/spans.py` replaces package attributes by timing wrappers, so
deleting or renaming one of them makes every traced benchmark run fail.
This loads spans.py by path (it only reads it), installs the client and
the server wrappers, and undoes them.  The benchmark's INI files are read
the same way, through the loaders its runs call.
"""

import importlib.util
from pathlib import Path

import numpy as np

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
               (classifiers.MlpModel, "predict_batch"), (classifiers, "train_mlp"),
               (features, "lpc"), (warnd.Dispatcher, "dispatch"),
               (warnd.Dispatcher, "handle_line"), (warnd, "parse_event_line")]
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


def test_traced_fits_and_predictions_record_spans():
    # a trainer bound to the function object when make_trainer runs (a
    # table of functions, functools.partial) would bypass the wrapper
    spans = _load_spans()
    rng = np.random.default_rng(0)
    data = classifiers.LabeledDataset(rng.standard_normal((16, 3)),
                                      [classifiers.CLASS_ORDER[i % 4] for i in range(16)])
    tracer = spans.Tracer("hooks")
    try:
        spans.install_client(tracer)
        mlp = classifiers.make_trainer("mlp", epochs=3)(data)
        mlp.predict_batch(data.X)
        classifiers.make_trainer("knn", k=3)(data).predict_batch(data.X)
    finally:
        tracer.restore()
    names = [span[2] for span in tracer.spans]
    for name in ("classifiers.train_mlp", "classifiers.MlpModel.predict_batch",
                 "classifiers.KnnModel.predict_batch"):
        assert names.count(name) == 1, name
    assert tracer.counts["classifiers.mlp.forward_passes"] >= 4  # 1 + one per epoch


def test_benchmark_config_files_load():
    # a reader that rejected a key these files use would fail every benchmark run
    bench = SPANS.parent
    assert cli.RunConfig(bench / "criterion02.ini").classifier_kwargs["mlp"] == {
        "learning_rate": 0.5, "epochs": 300}
    assert len(deployment.load_plan_config(bench / "plan.ini").processors) == 9
