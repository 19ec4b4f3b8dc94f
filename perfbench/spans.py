"""Span recording around the public functions of the roadwarn layers.

The benchmark never edits the package: it replaces module and class
attributes with timing wrappers, at the place where the caller looks the
name up (``features.lpc`` inside ``features``, ``warnd.warning_decision``
rather than ``deployment.warning_decision``).  Each call becomes a span
(id, parent id, name, start, end) kept in memory; parents are tracked per
thread, so spans from the server's session threads nest correctly.  Self
time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import statistics
import threading
import time
import types


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []            # (id, parent, name, start, end)
        self.counts = collections.Counter()     # plain event counters
        self.values = collections.defaultdict(list)  # name -> observed numbers
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace owner.attr by a span-recording wrapper.

        `observe(args, result)` runs after the call, outside the span, to
        record counts or values derived from the call.
        """
        original = getattr(owner, attr)
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if observe is not None:
                observe(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def count_calls(self, owner, attr: str, name: str) -> None:
        """Replace owner.attr by a wrapper that only counts calls."""
        original = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path) -> None:
        """Write spans, counts and values as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans,
                       "counts": dict(self.counts), "values": dict(self.values)}, fh)


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        stack = self.tracer._stack()
        self.sid = next(self.tracer._ids)
        self.parent = stack[-1] if stack else 0
        stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans.append((self.sid, self.parent, self.name, self.start, end))
        return False


def span_totals(spans) -> dict:
    """name -> [calls, total seconds, self seconds]."""
    child_time = collections.defaultdict(float)
    for _sid, parent, _name, start, end in spans:
        if parent:
            child_time[parent] += end - start
    totals = collections.defaultdict(lambda: [0, 0.0, 0.0])
    for sid, _parent, name, start, end in spans:
        entry = totals[name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += (end - start) - child_time[sid]
    return dict(totals)


def wrapper_cost_s(calls: int = 20000, rounds: int = 7) -> float:
    """Seconds one span-recording wrapper adds to a call, measured here: the
    median over `rounds` of a wrapped no-op minus the bare no-op."""
    holder = types.SimpleNamespace(noop=lambda *args, **kwargs: None)
    bare = holder.noop
    tracer = Tracer("calibration")
    tracer.wrap(holder, "noop", "noop")
    wrapped = holder.noop
    samples = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for i in range(calls):
            bare(i)
        t1 = time.perf_counter()
        for i in range(calls):
            wrapped(i)
        t2 = time.perf_counter()
        tracer.spans.clear()
        samples.append(((t2 - t1) - (t1 - t0)) / calls)
    return max(0.0, statistics.median(samples))


# ---------------------------------------------------------------------------
# Which attributes are wrapped, and under which span name

def install_client(tracer: Tracer) -> None:
    """Wrap every layer the in-process workloads (train_cv, detect_clips) call."""
    from roadwarn import audio_io, classifiers, cli, decision, deployment, features, synth

    tracer.wrap(synth, "render_corpus_clip", "synth.render_corpus_clip")
    tracer.wrap(synth, "write_wav", "audio_io.write_wav")
    tracer.wrap(audio_io, "load_wav", "audio_io.load_wav")
    tracer.wrap(audio_io, "frame_signal", "audio_io.frame_signal")
    tracer.wrap(features, "extract_features", "features.extract_features")
    tracer.wrap(features, "lpc", "features.lpc")
    tracer.wrap(features, "spectral_features", "features.spectral_features")
    tracer.wrap(features, "fft_magnitude", "features.fft_magnitude")
    tracer.wrap(features, "load_dataset_csv", "features.load_dataset_csv")
    tracer.wrap(classifiers, "train_mlp", "classifiers.train_mlp")
    tracer.wrap(classifiers, "evaluate_cv", "classifiers.evaluate_cv")
    tracer.count_calls(classifiers.MlpModel, "loss", "classifiers.mlp.forward_passes")
    tracer.count_calls(classifiers.MlpModel, "loss_and_gradients",
                       "classifiers.mlp.forward_passes")
    tracer.wrap(classifiers.MlpModel, "predict_batch", "classifiers.MlpModel.predict_batch")

    def knn_queries(args, _result):
        tracer.counts["classifiers.KnnModel.predict_batch.queries"] += len(args[1])

    tracer.wrap(classifiers.KnnModel, "predict_batch", "classifiers.KnnModel.predict_batch",
                observe=knn_queries)
    tracer.wrap(decision, "track_frames", "decision.track_frames")
    tracer.wrap(decision, "detect_climax", "decision.detect_climax")
    tracer.wrap(decision, "finalize_detection", "decision.finalize_detection")
    tracer.wrap(cli, "detect_buffer", "cli.detect_buffer")
    tracer.wrap(deployment, "warning_decision", "deployment.warning_decision")


def install_server(tracer: Tracer) -> None:
    """Wrap the warnd service layers inside the server process."""
    from roadwarn import deployment, warnd

    counts_lock = threading.Lock()  # session threads update the counters concurrently

    def dispatch_observe(args, delivered):
        dispatcher, result = args[0], args[1]
        if result.sound_type.value in ("H", "LH") and result.direction != "receding":
            # only warnable events scan the registry
            tracer.values["warnd.dispatch.registry_size"].append(len(dispatcher))
            tracer.values["warnd.dispatch.delivered"].append(len(delivered))

    def handle_observe(_args, response):
        reason = response.split(" ")[1] if response.startswith("ERR") else "OK"
        with counts_lock:
            tracer.counts["warnd.Dispatcher.handle_line." + reason] += 1

    tracer.wrap(warnd.Dispatcher, "dispatch", "warnd.Dispatcher.dispatch",
                observe=dispatch_observe)
    tracer.wrap(warnd.Dispatcher, "handle_line", "warnd.Dispatcher.handle_line",
                observe=handle_observe)
    tracer.wrap(warnd, "parse_event_line", "warnd.parse_event_line")
    tracer.wrap(warnd, "warning_decision", "deployment.warning_decision")
    tracer.wrap(deployment.DeploymentPlan, "processor", "deployment.DeploymentPlan.processor")
