#!/usr/bin/env python3
"""The roadwarn benchmark.

    python3 perfbench/run.py --workload {train_cv,detect_clips,warn_fanout}
                             --seed N --seconds S --trace {0,1}
                             [--size {full,smoke}] [--update-expected]

Run from a checkout that holds `src/roadwarn`.  It prints one line per
figure (name, value, unit), writes a run record under perfbench/out/runs/,
and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json
(setup_s, p50_ms); with --trace 1 they are the per-layer ones, computed
from spans recorded around the package's public functions.  End-to-end
numbers come only from untraced runs.  On detect_clips and warn_fanout,
p50_ms is the median latency scaled to the reference speed of speed.py,
because the shared machine changes speed by up to 2x from one minute to
the next; the wall-clock median and tail are printed beside it.  The tail
latency (the highest percentile with at least 10 samples beyond it) is
printed and recorded but not part of the result line: on a shared 2-core
machine it moves with other tenants' load far more than any bound could
allow.

Outputs are checked against perfbench/expected.json at seed 0 (full size)
and against invariants that hold at any seed otherwise.  A run that fails
a check prints "correct": false, no metrics, and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")
EXPECTED_SEED = 0

WORKLOADS = ("train_cv", "detect_clips", "warn_fanout")

# The request whose latency p50_ms reports, per workload.
REQUEST = {
    "train_cv": "the operator job: extract + eval mlp + eval knn (one per run), wall clock",
    "detect_clips": "one clip: WAV on disk -> DetectionResult + warning decision, "
                    "p50_ms scaled to the reference speed",
    "warn_fanout": "one warnable EVENT: due time -> last WARN read at the client, "
                   "p50_ms scaled to the reference speed",
}
# the names of the median and tail latency of that request
LATENCY_NAMES = {"train_cv": ("job_ms", None),
                 "detect_clips": ("clip_p50_ms", "clip_tail_ms"),
                 "warn_fanout": ("warn_p50_ms", "warn_tail_ms")}

# Per-layer span metrics: (metric, unit, span name, statistic per call).
# "total" is the span's own duration, "self" subtracts its child spans.
LAYER_SPANS = [
    ("synth.render_corpus_clip.ms", "ms", "synth.render_corpus_clip", "total"),
    ("audio_io.write_wav.ms", "ms", "audio_io.write_wav", "total"),
    ("audio_io.load_wav.ms", "ms", "audio_io.load_wav", "total"),
    ("audio_io.frame_signal.ms", "ms", "audio_io.frame_signal", "total"),
    ("features.extract_features.self_ms", "ms", "features.extract_features", "self"),
    ("features.lpc.us", "us", "features.lpc", "total"),
    ("features.spectral_features.us", "us", "features.spectral_features", "total"),
    ("features.fft_magnitude.us", "us", "features.fft_magnitude", "total"),
    ("features.load_dataset_csv.s", "s", "features.load_dataset_csv", "total"),
    ("classifiers.train_mlp.s", "s", "classifiers.train_mlp", "total"),
    ("classifiers.MlpModel.predict_batch.ms", "ms", "classifiers.MlpModel.predict_batch", "total"),
    ("classifiers.evaluate_cv.self_s", "s", "classifiers.evaluate_cv", "self"),
    ("decision.track_frames.ms", "ms", "decision.track_frames", "total"),
    ("decision.detect_climax.us", "us", "decision.detect_climax", "total"),
    ("decision.finalize_detection.us", "us", "decision.finalize_detection", "total"),
    ("cli.detect_buffer.self_ms", "ms", "cli.detect_buffer", "self"),
    ("deployment.warning_decision.us", "us", "deployment.warning_decision", "total"),
    ("warnd.Dispatcher.dispatch.ms", "ms", "warnd.Dispatcher.dispatch", "total"),
    ("deployment.DeploymentPlan.processor.us", "us", "deployment.DeploymentPlan.processor",
     "total"),
    ("warnd.Dispatcher.handle_line.us", "us", "warnd.Dispatcher.handle_line", "total"),
    ("warnd.parse_event_line.us", "us", "warnd.parse_event_line", "total"),
]
SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}

# Per-layer metrics that are not a time per call.
LAYER_OTHER = [
    ("classifiers.mlp.forward_passes", "count"),
    ("classifiers.KnnModel.predict_batch.us_per_query", "us"),
    ("classifiers.KnnModel.predict_batch.queries", "count"),
    ("warnd.dispatch.registry_size", "count"),
    ("warnd.dispatch.delivered_per_scanned", "ratio"),
    ("warnd.Dispatcher.handle_line.ok", "count"),
    ("warnd.Dispatcher.handle_line.err", "count"),
    ("warn.delivery_spread_ms", "ms"),
    ("gen.late_ms", "ms"),
    ("bench.clip.accounted_pct", "%"),
    ("trace.overhead_pct", "%"),
]


def tail(values):
    """(value, percentile, samples beyond): the highest percentile with at
    least 10 samples above it; the maximum when there are fewer than 11."""
    ordered = sorted(values)
    n = len(ordered)
    if n >= 11:
        i = n - 11
        return ordered[i], 100.0 * (i + 1) / n, n - 1 - i
    return ordered[-1], 100.0, 0


# ---------------------------------------------------------------------------
# run record

def _cpu_times():
    """The aggregate cpu line of /proc/stat (user ... steal), in ticks."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def _steal_share(before, after):
    """Share of CPU time the hypervisor took from this machine in between."""
    if not before or not after:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def _read_loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def _blas_threads():
    """OpenBLAS thread count, read from the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"commit": None, "dirty": None}
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None}
    return {"commit": commit or None, "dirty": bool(status.strip())}


def machine_info():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(), "platform": platform.platform()}


# ---------------------------------------------------------------------------
# metrics

def end_to_end(outcome):
    """(result-line metrics, wall-clock median and tail latency, latency
    statistics).  The result line's times are scaled to the reference
    speed; the median and tail beside them are as the wall clock read them."""
    wall = outcome.wall_latencies_ms
    value, pct, beyond = tail(wall)
    return ({"setup_s": (outcome.setup_s, "s"),
             "p50_ms": (statistics.median(outcome.latencies_ms), "ms")},
            (statistics.median(wall), "ms"), (value, "ms"),
            {"samples": len(wall), "tail_percentile": pct, "tail_beyond": beyond})


def per_layer(tracer, outcome, p50_ms):
    """Per-layer metrics from the client spans plus, on warn_fanout, the
    server's spans, counts and values."""
    from spans import span_totals

    server = outcome.server_trace
    server_spans = server["spans"] if server else []
    totals = span_totals(tracer.spans)
    counts = dict(tracer.counts)
    values = dict(tracer.values)
    if server:
        for name, entry in span_totals(server_spans).items():
            mine = totals.setdefault(name, [0, 0.0, 0.0])
            for j in range(3):
                mine[j] += entry[j]
        for k, v in server["counts"].items():
            counts[k] = counts.get(k, 0) + v
        values.update(server["values"])

    metrics = {}
    for metric, unit, name, stat in LAYER_SPANS:
        calls, total, self_time = totals.get(name, (0, 0.0, 0.0))
        per_call = (self_time if stat == "self" else total) / calls if calls else 0.0
        metrics[metric] = (per_call * SCALE[unit], unit)
        metrics[name + ".calls"] = (calls, "count")

    _, knn_time, _ = totals.get("classifiers.KnnModel.predict_batch", (0, 0.0, 0.0))
    queries = counts.get("classifiers.KnnModel.predict_batch.queries", 0)
    sizes = values.get("warnd.dispatch.registry_size", [])
    delivered = values.get("warnd.dispatch.delivered", [])
    handled_err = sum(v for k, v in counts.items()
                      if k.startswith("warnd.Dispatcher.handle_line.") and not k.endswith(".OK"))
    _, clip_total, clip_self = totals.get("bench.clip", (0, 0.0, 0.0))
    spread = outcome.samples.get("warn.delivery_spread_ms", [])
    late = outcome.samples.get("gen.late_ms", [])
    other = {
        "classifiers.mlp.forward_passes": counts.get("classifiers.mlp.forward_passes", 0),
        "classifiers.KnnModel.predict_batch.us_per_query":
            knn_time / queries * 1e6 if queries else 0.0,
        "classifiers.KnnModel.predict_batch.queries": queries,
        "warnd.dispatch.registry_size": statistics.mean(sizes) if sizes else 0.0,
        "warnd.dispatch.delivered_per_scanned": sum(delivered) / sum(sizes) if sum(sizes) else 0.0,
        "warnd.Dispatcher.handle_line.ok": counts.get("warnd.Dispatcher.handle_line.OK", 0),
        "warnd.Dispatcher.handle_line.err": handled_err,
        "warn.delivery_spread_ms": statistics.median(spread) if spread else 0.0,
        "gen.late_ms": tail(late)[0] if late else 0.0,
        "bench.clip.accounted_pct":
            100.0 * (clip_total - clip_self) / clip_total if clip_total else 0.0,
        "trace.overhead_pct": _overhead_pct(tracer.spans, server_spans, outcome, p50_ms),
    }
    for metric, unit in LAYER_OTHER:
        metrics[metric] = (other[metric], unit)
    notes = {"handle_line_by_response": {k.rsplit(".", 1)[1]: v for k, v in counts.items()
                                         if k.startswith("warnd.Dispatcher.handle_line.")},
             "spans": len(tracer.spans) + len(server_spans)}
    return metrics, notes


def _overhead_pct(client_spans, server_spans, outcome, p50_ms):
    """Estimated traced minus untraced p50, as a share of the untraced p50.

    Every span recorded in the measured phase, client and server alike
    (both use the system's monotonic clock), costs one calibrated wrapper
    call; that cost is spread over the requests of the phase.  On
    warn_fanout the server's POS spans are spread over the events, which
    overstates the cost a little, since not every POS falls within an
    event's latency.
    """
    from spans import wrapper_cost_s

    spans = sum(1 for span in client_spans + server_spans if span[3] >= outcome.measure_start)
    per_request_ms = spans * wrapper_cost_s() * 1e3 / max(1, outcome.requests)
    return 100.0 * per_request_ms / (p50_ms - per_request_ms)


# ---------------------------------------------------------------------------
# output checks

def check_outputs(workload, seed, size, outcome, update):
    """Problems found comparing outputs with the stored expectations."""
    if size != "full" or seed != EXPECTED_SEED:
        return []
    expected = {}
    if os.path.exists(EXPECTED_PATH):
        with open(EXPECTED_PATH, encoding="utf-8") as fh:
            expected = json.load(fh)
    if update:
        expected[workload] = outcome.outputs
        with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
            json.dump(expected, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return []
    want = expected.get(workload)
    if want is None:
        return [] if not outcome.outputs else [f"no stored expectation for {workload}"]
    problems = []
    for key, value in want.items():
        got = outcome.outputs.get(key)
        if isinstance(value, list):
            bad = [i for i, (a, b) in enumerate(zip(got or [], value)) if a != b]
            if got is None or len(got) != len(value) or bad:
                problems.append(f"{key} differs from the stored expectation "
                                f"(first differing item {bad[:1] or 'length'})")
        elif got != value:
            problems.append(f"{key} differs from the stored expectation")
    return problems


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--update-expected", action="store_true",
                        help="store this run's outputs as the seed-0 expectation")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC_DIR, "roadwarn")):
        print(f"error: no roadwarn package under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC_DIR)
    import fanout
    import workloads
    from spans import Tracer, install_client

    loadavg_start, cpu_start = _read_loadavg(), _cpu_times()
    started = time.time()
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{int(started * 1000)}"
    tracer = None
    if args.trace:
        tracer = Tracer(run_id)
        install_client(tracer)
    os.makedirs(os.path.join(OUT_DIR, "runs"), exist_ok=True)
    work_dir = workloads.make_work_dir(OUT_DIR, "work")
    run = {"train_cv": workloads.train_cv, "detect_clips": workloads.detect_clips,
           "warn_fanout": fanout.warn_fanout}[args.workload]
    try:
        outcome = run(args.seed, args.seconds, tracer, args.size, work_dir)
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(work_dir, ignore_errors=True)

    problems = list(outcome.problems)
    problems += check_outputs(args.workload, args.seed, args.size, outcome, args.update_expected)
    if not outcome.latencies_ms:
        problems.append("no successful request to time")
    correct = not problems
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {"run_id": run_id, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "size": args.size,
              "request": REQUEST[args.workload], "correct": correct, "problems": problems,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "machine": machine_info(), "git": _git(),
              "loadavg_start": loadavg_start, "loadavg_end": _read_loadavg(),
              "steal_share": _steal_share(cpu_start, _cpu_times()),
              "notes": outcome.notes}
    metrics = {}
    lines = []
    if correct:
        e2e, wall_p50, tail_ms, stats = end_to_end(outcome)
        record["end_to_end"] = {k: v[0] for k, v in e2e.items()}
        record["latency"] = dict(stats, values_ms=[round(v, 4) for v in outcome.wall_latencies_ms],
                                 scaled_ms=[round(v, 4) for v in outcome.latencies_ms])
        p50_name, tail_name = LATENCY_NAMES[args.workload]
        figures = {"setup_s": e2e["setup_s"], "p50_ms": e2e["p50_ms"], **outcome.figures,
                   p50_name: wall_p50}
        if tail_name:
            figures[tail_name] = tail_ms
        ack = outcome.samples.get("ack_ms")
        if ack:
            figures["ack_p50_ms"] = (statistics.median(ack), "ms")
            figures["ack_tail_ms"] = (tail(ack)[0], "ms")
            record["latency"]["ack_samples"] = len(ack)
            record["latency"]["ack_tail_percentile"] = tail(ack)[1]
        figures["peak_rss_mb"] = (peak_rss_mb, "MB")
        figures["error_rate"] = (outcome.failed / outcome.attempted, "ratio")
        record["figures"] = {k: v[0] for k, v in figures.items()}
        lines += [f"{name:<24} {value:>14.6g} {unit}" for name, (value, unit) in figures.items()]
        lines.append(f"{'samples':<24} {stats['samples']:>14d} "
                     f"(tail = p{stats['tail_percentile']:.1f}, {stats['tail_beyond']} beyond)")
        if tracer is None:
            metrics = e2e
        else:
            metrics, trace_notes = per_layer(tracer, outcome, wall_p50[0])
            record["per_layer"] = {k: v[0] for k, v in metrics.items()}
            record["trace_notes"] = trace_notes
            with open(os.path.join(OUT_DIR, "runs", run_id + ".spans.json"), "w",
                      encoding="utf-8") as fh:
                json.dump({"client": tracer.spans, "server": (outcome.server_trace or {})
                           .get("spans", [])}, fh)
            lines += [f"{name:<48} {value:>14.6g} {unit}"
                      for name, (value, unit) in metrics.items()]
    with open(os.path.join(OUT_DIR, "runs", run_id + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    steal = record["steal_share"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} size={args.size} "
          f"correct={correct} attempted={outcome.attempted} failed={outcome.failed} "
          f"steal={'n/a' if steal is None else f'{steal:.3f}'}")
    print(f"# request: {REQUEST[args.workload]}")
    for problem in problems[:20]:
        print(f"# problem: {problem}")
    for line in lines:
        print(line)
    result = {"correct": correct, "attempted": outcome.attempted, "failed": outcome.failed,
              "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
