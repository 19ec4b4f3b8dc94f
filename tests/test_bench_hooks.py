"""Every package name and config file the benchmark uses still works.

`perfbench/spans.py` replaces package attributes by timing wrappers, so
deleting or renaming one of them makes every traced benchmark run fail.
This loads spans.py by path (it only reads it), installs the client and
the server wrappers, checks that the code the benchmark runs calls them,
and undoes them.  The benchmark's INI files are read the same way, through
the loaders its runs call, and the danger areas fanout.py derives from its
plan must be the ones `deployment` derives.
"""

import importlib.util
import io
import socket
import threading
from pathlib import Path

import numpy as np

from roadwarn import classifiers, cli, deployment, features, warnd

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_by_path(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_spans():
    return _load_by_path("bench_spans", SPANS)


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
    # a pass called through a local alias would not be counted
    assert tracer.counts["classifiers.mlp.forward_passes"] == 1 + 3 + mlp.convergence.halvings


def test_traced_server_records_the_event_path():
    # the server's loop must look `parse_event_line` and `dispatch` up where
    # spans.py wraps them; a local alias would leave the traced warn_fanout
    # figures of both at 0
    spans = _load_spans()
    tracer = spans.Tracer("hooks")
    feed, server_feed = socket.socketpair()
    out, err = io.StringIO(), io.StringIO()
    try:
        spans.install_server(tracer)
        server = warnd.WarnServer(("127.0.0.1", 0), deployment.DeploymentPlan(100.0), server_feed,
                                  out, err)
        loop = threading.Thread(target=server.run, daemon=True)
        loop.start()
        try:
            with socket.create_connection(server.server_address, timeout=10) as client:
                client.sendall(b"REG a 30.0 1.0 0.0\n")
                assert client.recv(100) == b"OK a\n"
                feed.sendall(b"EVENT 1 H approaching 1.000\n")
                assert client.recv(100) == b"WARN 1 H approaching 1.000\n"
        finally:
            feed.close()  # EOF ends the loop
            loop.join(10)
        assert not loop.is_alive()
        server.server_close()
    finally:
        tracer.restore()
        server_feed.close()
    assert (out.getvalue(), err.getvalue()) == ("dispatched to 1 client(s)\n", "")
    names = [span[2] for span in tracer.spans]
    for name in ("warnd.parse_event_line", "warnd.Dispatcher.dispatch"):
        assert names.count(name) == 1, name


def test_benchmark_config_files_load(monkeypatch):
    # a reader that rejected a key these files use would fail every benchmark run
    bench = SPANS.parent
    assert cli._read_run_config(bench / "criterion02.ini")["mlp"] == {
        "learning_rate": 0.5, "epochs": 300}
    plan = deployment.load_plan_config(bench / "plan.ini")
    assert plan.processor_count == 9
    # warn_fanout places its registry by the areas fanout.py derives from the
    # same file; they must be the ones warnd serves
    monkeypatch.syspath_prepend(str(bench))  # fanout.py imports its sibling modules
    fanout = _load_by_path("bench_fanout", bench / "fanout.py")
    areas, width, window = fanout.read_plan(bench / "plan.ini")
    assert areas == [(a.x0, a.x0 + a.length)
                     for a in map(plan.processor, range(plan.processor_count))]
    assert (width, window) == (plan.road_width, plan.freshness_window)
