"""The machine's current speed, measured with a fixed reference task.

The benchmark's shared 2-core VM changes speed by up to 2x for seconds
or minutes at a time, as other tenants' load comes and goes (a fixed
compute loop took anywhere from 21 to 47 ms within 30 s).  A plain median
latency then says more about the neighbours than about roadwarn, and no
statistic of wall or CPU time alone undoes it: both slow down together.
So detect_clips and warn_fanout time this reference task between
requests, when nothing else of the benchmark runs, and scale each
request's latency by REFERENCE_MS / (the reference time measured around
it): the latency the request would have had at the reference speed.

The task is the benchmark's own code, never roadwarn's, so no change to
the package can move it.  It mixes the two kinds of work roadwarn does:
an interpreted scan over small records (like warnd's registry scan) and
numpy calls on short frames (like feature extraction).  It is timed in
the CPU time of its thread, so a moment off the CPU does not count.

Long steps (the set-ups and the train_cv job) run under a `Sampler`,
which times the task every SAMPLE_INTERVAL_S in a thread on the CPU that
does the step's work.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

import numpy as np

# The reference task's time at the speed the scaled times refer to: about
# its median on a 2-core Xeon VM when that VM runs at its usual speed.
REFERENCE_MS = 0.7
# A request's speed factor comes from the median of the WINDOW reference
# timings nearest to it in time, so one disturbed timing does not matter.
WINDOW = 9
# How often a Sampler times the task: often enough to follow the speed
# changes, which last seconds, and rare enough (about 1% of a core) not to
# slow the step it samples.
SAMPLE_INTERVAL_S = 0.1


class _Record:
    __slots__ = ("x", "y", "t")

    def __init__(self, x, y, t):
        self.x, self.y, self.t = x, y, t


_rng = np.random.default_rng(12345)
_RECORDS = [_Record(float(x), float(y), float(t)) for x, y, t in
            zip(_rng.uniform(0, 250, 3000), _rng.uniform(0, 14, 3000), _rng.uniform(0, 10, 3000))]
_SIGNAL = _rng.standard_normal(4096)


def _task() -> float:
    hits = 0
    for r in _RECORDS:
        if 10.0 - r.t > 5.0:
            continue
        if 25.0 <= r.x <= 50.0 and 0.0 <= r.y <= 7.0:
            hits += 1
    total = float(hits)
    for i in range(12):
        frame = _SIGNAL[i * 256:i * 256 + 1024]
        total += float(np.abs(np.fft.rfft(frame)).sum())
        total += float(np.dot(frame[1:], frame[:-1]))
    return total


def reference_ms(cpu=None) -> float:
    """One timing of the reference task, in milliseconds of thread CPU time;
    on CPU `cpu` if given (the calling thread moves there and back)."""
    if cpu is not None:
        saved = os.sched_getaffinity(0)
        pin({cpu})
    start = time.thread_time()
    _task()
    elapsed = time.thread_time() - start
    if cpu is not None:
        pin(saved)
    return elapsed * 1000.0


def scale(request_times, latencies_ms, reference_times, references_ms):
    """Each latency scaled to the reference speed.  Request i started at
    request_times[i]; reference k was timed at reference_times[k] (both on
    the perf_counter clock, reference_times ascending, at least one)."""
    half = WINDOW // 2
    scaled = []
    for t, latency in zip(request_times, latencies_ms):
        k = bisect.bisect_left(reference_times, t)
        lo = max(0, min(k - half, len(references_ms) - WINDOW))
        scaled.append(latency * REFERENCE_MS / statistics.median(references_ms[lo:lo + WINDOW]))
    return scaled


class Sampler:
    """Times the reference task every SAMPLE_INTERVAL_S in a thread on the
    CPU that does a long step, while the step runs:

        with Sampler() as sampler:
            t0 = time.perf_counter(); step(); t1 = time.perf_counter()
        scaled_s = sampler.scale(t0, t1)

    Each CPU of the VM changes speed on its own: a sampler free to run on
    the other CPU followed the step no better than no sampler at all.  So
    the sampler thread is pinned to `cpu`, and by default both it and the
    calling thread are pinned to the CPU the calling thread is on until
    the block ends (BLAS workers started before keep their own CPUs; a
    process started in the block inherits the pinning).  Where pinning is
    refused, the sampler runs unpinned.
    """

    def __init__(self, cpu=None):
        self._cpu = cpu

    def __enter__(self):
        self.times, self.references_ms = [], []
        self._saved = None
        if self._cpu is None:
            self._saved = os.sched_getaffinity(0)
            self._cpu = _current_cpu()
            pin({self._cpu})
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-sampler", daemon=True)
        self._thread.start()
        return self

    def _run(self) -> None:
        pin({self._cpu})
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            ms = reference_ms()
            self.times.append(time.perf_counter())
            self.references_ms.append(ms)

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        if not self.times:  # a block shorter than one interval
            self.references_ms.append(reference_ms())
            self.times.append(time.perf_counter())
        if self._saved is not None:
            pin(self._saved)

    def scale(self, t0: float, t1: float) -> float:
        """t1 - t0 seconds scaled to the reference speed: times the mean
        speed factor of the samples taken in between, each sample the
        median of itself and its two neighbours; for a step too short to
        hold a sample, the factor of the WINDOW samples nearest to it."""
        refs = self.references_ms
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if lo == hi:
            return scale([t0], [t1 - t0], self.times, refs)[0]
        factors = [REFERENCE_MS / statistics.median(refs[max(0, k - 1):k + 2])
                   for k in range(lo, hi)]
        return (t1 - t0) * statistics.fmean(factors)


def _current_cpu() -> int:
    """The CPU the calling thread last ran on (field 39 of its stat line)."""
    try:
        with open("/proc/thread-self/stat", encoding="ascii") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return min(os.sched_getaffinity(0))


def pin(cpus, tid: int = 0) -> None:
    """Pin thread `tid` (0: the calling thread; a process id: that
    process's main thread, and so every thread it starts later) to `cpus`,
    if the system lets it."""
    try:
        os.sched_setaffinity(tid, cpus)
    except OSError:
        pass
