"""The in-process workloads: train_cv (the operator's offline flow) and
detect_clips (the roadside processor).

Both take every input from the seeded synthetic corpus.  Each returns an
`Outcome`; run.py turns it into metrics and checks it against the stored
expectations.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

import speed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CONFIG_INI = os.path.join(BENCH_DIR, "criterion02.ini")  # [mlp] learning_rate 0.5, 300 epochs

# detect_clips passes per requested second: --seconds 10 gives 4 whole passes
# (about 15-20 s on a 2-core VM), long enough to average over the machine's
# speed changes, and the same work on every run
PASSES_PER_SECOND = 0.4

# Set-ups per run; setup_s is their median.  One corpus synthesis varies by
# up to a third from run to run.  detect_clips sets up twice, not three
# times: its set-up (synth, extract, train) takes about 13 s, and a third
# would put the benchmark's full set of runs near its time limit.
SETUPS = {"train_cv": 3, "detect_clips": 2}

# corpus sizes; "smoke" shrinks the corpus for the harness smoke test
CORPUS_COUNTS = {"full": None, "smoke": {"LH": 2, "LL": 2, "H": 2, "NV": 2}}


@dataclass
class Outcome:
    setup_s: float                # median set-up time, scaled where it is measured
    latencies_ms: list            # one entry per successful request, scaled to the
                                  # reference speed of speed.py where it is measured
    wall_latencies_ms: list       # the same latencies as the wall clock read them
    attempted: int
    failed: int                   # wrong results and typed errors
    figures: dict                 # workload figures: name -> (value, unit)
    outputs: dict                 # what the output check compares
    problems: list = field(default_factory=list)   # invariant violations
    notes: dict = field(default_factory=dict)      # extra facts for the run record
    samples: dict = field(default_factory=dict)    # other per-request samples, name -> list
    server_trace: dict | None = None
    measure_start: float = 0.0    # perf_counter() when the measured phase began
    requests: int = 1             # requests timed in the measured phase


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _cli(argv) -> int:
    """roadwarn's cli.main, its stdout kept off the benchmark's own."""
    from roadwarn import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _generate_corpus(out_dir, seed, size):
    from roadwarn import synth
    from roadwarn.classifiers import SoundClass

    counts = CORPUS_COUNTS[size]
    if counts is None:
        return synth.generate_corpus(out_dir, seed=seed)
    saved = synth.CORPUS_COUNTS
    synth.CORPUS_COUNTS = {SoundClass(k): v for k, v in counts.items()}
    try:
        return synth.generate_corpus(out_dir, seed=seed)
    finally:
        synth.CORPUS_COUNTS = saved


def _repeat_setup(setup, work_dir, repeats, tracer):
    """Run `setup(dir)` `repeats` times, each in a fresh directory, and
    return the first result, the median time scaled to the reference speed
    and every time, as the wall clock read it and scaled.  The first set-up
    works in `work_dir` and is the one the workload uses."""
    spans, first = [], None
    with speed.Sampler() as sampler:
        for k in range(repeats):
            target = work_dir if k == 0 else os.path.join(work_dir, f"setup{k}")
            os.makedirs(target, exist_ok=True)
            t0 = time.perf_counter()
            with _span(tracer, "bench.setup"):
                result = setup(target)
            spans.append((t0, time.perf_counter()))
            if k == 0:
                first = result
            else:
                shutil.rmtree(target)
    scaled = [sampler.scale(t0, t1) for t0, t1 in spans]
    times = {"wall_s": [t1 - t0 for t0, t1 in spans], "scaled_s": scaled}
    return first, float(np.median(scaled)), times


def _csv_invariants(path, n_rows) -> list:
    """Problems with a feature CSV that must hold at any seed."""
    from roadwarn import features

    matrix, labels, names = features.load_dataset_csv(path)
    problems = []
    if matrix.shape != (n_rows, 31) or len(names) != 31:
        problems.append(f"feature CSV is {matrix.shape}, expected ({n_rows}, 31)")
    if not np.all(np.isfinite(matrix)):
        problems.append("feature CSV holds non-finite values")
    if any(label is None for label in labels):
        problems.append("feature CSV has unlabeled rows")
    return problems


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _report_problems(name, text) -> list:
    """An eval report must end with an overall accuracy in [0, 100]."""
    last = text.strip().splitlines()[-1] if text.strip() else ""
    if not last.startswith("overall accuracy: "):
        return [f"{name} report has no overall accuracy line"]
    accuracy = float(last.split(": ")[1])
    return [] if 0.0 <= accuracy <= 100.0 else [f"{name} accuracy {accuracy} out of range"]


# ---------------------------------------------------------------------------
# train_cv

def train_cv(seed, seconds, tracer, size, work_dir) -> Outcome:
    """synth (set-up), then extract, eval mlp and eval knn through cli.main.

    One closed-loop caller runs the whole job once; it takes longer than
    `seconds`, which this workload does not use.
    """
    corpus = os.path.join(work_dir, "corpus")
    csv_path = os.path.join(work_dir, "features.csv")
    entries, setup_s, setup_times = _repeat_setup(
        lambda d: _generate_corpus(os.path.join(d, "corpus"), seed, size),
        work_dir, SETUPS["train_cv"], tracer)

    steps = [
        ("extract_s", ["extract", corpus, csv_path]),
        ("eval_mlp_s", ["eval", csv_path, "--model", "mlp", "--feature-set", "all",
                        "--config", CONFIG_INI, "--seed", "0", "--folds", "6",
                        "--report", os.path.join(work_dir, "eval_mlp.txt")]),
        ("eval_knn_s", ["eval", csv_path, "--model", "knn", "--feature-set", "all",
                        "--seed", "0", "--folds", "6",
                        "--report", os.path.join(work_dir, "eval_knn.txt")]),
    ]
    figures, problems, failed = {}, [], 0
    with speed.Sampler() as sampler:
        job_start = time.perf_counter()
        for name, argv in steps:
            t = time.perf_counter()
            with _span(tracer, "bench." + name[:-2]):
                code = _cli(argv)
            figures[name] = (time.perf_counter() - t, "s")
            if code != 0:
                failed += 1
                problems.append(f"roadwarn {argv[0]} exited {code}")
        job_end = time.perf_counter()
    job_ms = (job_end - job_start) * 1000.0
    if failed:
        return Outcome(setup_s, [], [], len(steps), failed, figures, {}, problems,
                       notes={"setup_times_s": setup_times})

    reports = {}
    for model in ("mlp", "knn"):
        with open(os.path.join(work_dir, f"eval_{model}.txt"), encoding="utf-8") as fh:
            reports[model] = fh.read()
        problems += _report_problems(model, reports[model])
    problems += _csv_invariants(csv_path, 40 * len(entries))
    outputs = {"features_sha256": _sha256(csv_path),
               "eval_mlp": reports["mlp"], "eval_knn": reports["knn"]}
    scaled_ms = sampler.scale(job_start, job_end) * 1000.0
    return Outcome(setup_s, [scaled_ms], [job_ms], len(steps), 0, figures, outputs, problems,
                   notes={"clips": len(entries), "setup_times_s": setup_times},
                   measure_start=job_start)


# ---------------------------------------------------------------------------
# detect_clips

def detect_clips(seed, seconds, tracer, size, work_dir) -> Outcome:
    """Every corpus clip, in corpus order, through load_wav -> detect_buffer
    -> warning_decision, one clip in flight, with the MLP model held resident.

    Runs round(seconds * PASSES_PER_SECOND) whole corpus passes (at least
    one); each clip's outcome must be the same in every pass.  A clip that
    raises the typed TrackTooShortError counts as failed and is not timed.
    The reference task is timed before each clip, outside the clip's time,
    to scale its latency to the reference speed.
    """
    from roadwarn import audio_io, classifiers, cli, deployment
    from roadwarn.decision import TrackTooShortError
    from roadwarn.features import LpcConfig, MfccConfig

    corpus = os.path.join(work_dir, "corpus")
    csv_path = os.path.join(work_dir, "features.csv")
    problems = []

    def setup(d):
        """The README flow (synth, extract, train) and the model loaded as a
        resident processor holds it; None if a step fails."""
        entries = _generate_corpus(os.path.join(d, "corpus"), seed, size)
        features_csv, model_path = os.path.join(d, "features.csv"), os.path.join(d, "model.json")
        for argv in (["extract", os.path.join(d, "corpus"), features_csv],
                     ["train", features_csv, model_path, "--model", "mlp", "--feature-set",
                      "all", "--config", CONFIG_INI, "--seed", "0"]):
            code = _cli(argv)
            if code != 0:
                problems.append(f"roadwarn {argv[0]} exited {code}")
                return None
        return entries, classifiers.load_model(model_path), classifiers.load_model_meta(model_path)

    first, setup_s, setup_times = _repeat_setup(setup, work_dir, SETUPS["detect_clips"], tracer)
    if problems:
        return Outcome(setup_s, [], [], 1, 1, {}, {}, problems)
    entries, model, meta = first
    mfcc_cfg, lpc_cfg = MfccConfig(**meta["mfcc"]), LpcConfig(**meta["lpc"])
    feature_set = meta["feature_set"]
    problems += _csv_invariants(csv_path, 40 * len(entries))
    paths = [os.path.join(corpus, e.file) for e in entries]

    latencies, starts, outcomes, typed_errors = [], [], [None] * len(paths), 0
    reference_times, references_ms = [], []
    attempted = failed = 0
    passes = max(1, round(seconds * PASSES_PER_SECOND))
    measure_start = time.perf_counter()
    for _ in range(passes):
        for i, path in enumerate(paths):
            attempted += 1
            reference_times.append(time.perf_counter())
            references_ms.append(speed.reference_ms())
            with _span(tracer, "bench.clip"):
                start = time.perf_counter()
                try:
                    buffer = audio_io.load_wav(path)
                    result, _ = cli.detect_buffer(buffer, model, feature_set, mfcc_cfg, lpc_cfg)
                    warn = deployment.warning_decision(result)
                    outcome = result.to_line() + (" WARN" if warn else "")
                except TrackTooShortError:
                    outcome = "TrackTooShortError"
                elapsed_ms = (time.perf_counter() - start) * 1000.0
            if outcome == "TrackTooShortError":
                typed_errors += 1
            else:
                latencies.append(elapsed_ms)
                starts.append(start)
            if outcomes[i] is None:
                outcomes[i] = outcome
            elif outcomes[i] != outcome:
                failed += 1
                problems.append(f"clip {i}: {outcome!r} after {outcomes[i]!r} in an earlier pass")
    notes = {"clips": len(paths), "passes": passes, "typed_errors": typed_errors,
             "setup_times_s": setup_times, "reference_ms_median": float(np.median(references_ms))}
    scaled = speed.scale(starts, latencies, reference_times, references_ms)
    return Outcome(setup_s, scaled, latencies, attempted, failed + typed_errors, {},
                   {"outcomes": outcomes}, problems, notes,
                   measure_start=measure_start, requests=attempted)


def make_work_dir(root, name) -> str:
    path = os.path.join(root, f"{name}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
