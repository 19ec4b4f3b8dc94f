"""warn_fanout: the warnd service as a subprocess, driven over loopback.

One generator thread multiplexes, with `selectors`:
  - connection A, which pipelines the REG lines of a city-scale registry
    during set-up and afterwards only reads the WARN fan-out;
  - connection B, which sends POS updates closed-loop (one in flight, the
    next when the OK has arrived and a walker's next step is due) for
    pedestrians walking across danger-area boundaries;
  - the server's stdin, where EVENT lines go open-loop at a fixed rate;
  - the server's stdout, drained continuously ("dispatched to N client(s)").

Every event's WARN count must equal the server's dispatched count and an
independent geofence-and-freshness count made here from the 3-decimal
coordinates that were sent.  A POS whose effect on the server may or may
not precede an event's registry scan widens that count to a range.

Whenever the service is idle before an EVENT is due, the generator times
the reference task of speed.py on the server's CPU; each EVENT's latency
is scaled to the reference speed by the timings nearest to it.
"""

from __future__ import annotations

import bisect
import configparser
import json
import os
import resource
import selectors
import socket
import subprocess
import sys
import time

import numpy as np

import speed
from workloads import BENCH_DIR, Outcome

PLAN_INI = os.path.join(BENCH_DIR, "plan.ini")  # the README's default plan
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")

# Registry composition.  Most entries are never targeted: off the road,
# past the last instrumented area, or stale.  `per_area` fresh pedestrians
# stand in each danger area, `walkers` of them move between areas.  At
# walking pace the 50 walkers of "full" send up to 140 POS/s, about 2
# registry writes between two events, so every scan competes with writes;
# 200 walkers would ask for 560/s, more than one POS in flight can carry on
# 2 cores, and the saturated loop made every latency follow the machine's
# stolen time.  `rate` is EVENTs per second.  On a 2-core VM the backlog
# stays flat up to 100/s and grows at 120/s (BACKLOG_GROWTH_LIMIT).  At
# 40/s an EVENT seldom waits for the one before it, so its latency follows
# the machine's speed in proportion, as the scaling of speed.py assumes,
# and the service is idle before most EVENTs, when the reference task is
# timed; with scaled latencies 40/s was steadier from run to run than 60/s
# (IQR/median of p50_ms over 5 seeds 0.044 against 0.056).
SIZES = {
    "full": {"per_area": 1000, "walkers": 50, "off_road": 20000, "far": 10000,
             "stale": 11000, "rate": 40.0},
    "smoke": {"per_area": 40, "walkers": 20, "off_road": 300, "far": 100,
              "stale": 200, "rate": 20.0},
}

# (class, direction, weight): what the roadside processors report for the
# benchmark's own corpus, the count of each DET outcome of the 210 seed-0
# clips in expected.json (detect_clips; the 5 TrackTooShortError clips send
# no EVENT).  114 of 205 are warnable (H or LH, not receding); the policy
# suppresses LL, NV and receding.
EVENT_MIX = [("LH", "approaching", 70), ("LL", "approaching", 49), ("H", "approaching", 42),
             ("NV", "unknown", 26), ("NV", "approaching", 8), ("NV", "receding", 7),
             ("H", "unknown", 2), ("LL", "unknown", 1)]

# Times are in milliseconds on the wire's own clock.  Fresh registrations
# fall in [999, 1000] s and event i is stamped 1000 + i/1000 s, so every
# fresh entry stays within the 5 s freshness window for up to 3999 events;
# stale ones are 6 s or more older than any event.
FRESH_T_MS = (999_000, 1_000_000)
STALE_T_MS = (980_000, 994_000)
EVENT_T0_MS = 1_000_000
MAX_EVENTS = 3999
WALK_STEP_MM = 500  # divides 25 m, so walkers land exactly on area boundaries
WALK_SPEED_MPS = 1.4  # a usual adult walking speed: one 0.5 m step per 0.36 s
DRAIN_TIMEOUT_S = 20.0
# The backlog of an EVENT is the number of earlier EVENTs not yet done
# (dispatched and their last WARN read) when it is sent.  A service that
# does not keep up with the rate builds a backlog that grows through the
# run.  A run fails if the median backlog of its last quarter of EVENTs
# exceeds that of its first quarter by more than this.  Medians shrug off a
# short stall of the machine, which a mean would not.
BACKLOG_GROWTH_LIMIT = 2
SETUPS = 3
# The reference task (speed.py) is timed on the server's CPU when the
# service is idle: every earlier EVENT done, no POS in flight, and at least
# this long before the next EVENT is due, so that the timing delays no
# request.
REFERENCE_SLACK_S = 0.003


def _decimal(mm: int) -> str:
    return f"{mm // 1000}.{mm % 1000:03d}"


def read_plan(path):
    """(area x-ranges, road width, freshness window) from the plan INI."""
    parser = configparser.ConfigParser()
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh)
    plan = parser["plan"]
    spacing = plan.getfloat("processor_spacing")
    length = plan.getfloat("danger_length")
    count = int(plan.getfloat("road_length") / spacing) + 1
    areas = [(i * spacing, i * spacing + length) for i in range(count)]
    return areas, plan.getfloat("road_width"), plan.getfloat("freshness_window")


def build_registry(rng, size, areas, width):
    """Registry rows (client_id, x_mm, y_mm, t_ms); walkers come first."""
    width_mm = int(round(width * 1000))
    rows = []
    for a, (x0, x1) in enumerate(areas):
        lo, hi = int(round(x0 * 1000)), int(round(x1 * 1000))
        x = rng.integers(lo, hi + 1, size["per_area"])
        x[: max(1, size["per_area"] // 50)] = lo  # some stand exactly on the shared boundary
        y = rng.integers(0, width_mm + 1, size["per_area"])
        t = rng.integers(FRESH_T_MS[0], FRESH_T_MS[1] + 1, size["per_area"])
        rows += [(int(xi), int(yi), int(ti)) for xi, yi, ti in zip(x, y, t)]
    rng.shuffle(rows)
    road_end = int(round(areas[-1][1] * 1000))
    walkers = [((x // WALK_STEP_MM) * WALK_STEP_MM, y, t) for x, y, t in rows[:size["walkers"]]]
    rows = walkers + rows[size["walkers"]:]

    def block(n, x_range, y_range, t_range):
        return list(zip(rng.integers(*x_range, n).tolist(), rng.integers(*y_range, n).tolist(),
                        rng.integers(*t_range, n).tolist()))

    rows += block(size["off_road"], (0, road_end + 1), (width_mm + 1, 400_000), FRESH_T_MS)
    rows += block(size["far"], (road_end + 1, 5_000_000), (0, width_mm + 1), FRESH_T_MS)
    rows += block(size["stale"], (0, road_end + 1), (0, width_mm + 1), STALE_T_MS)
    return [(f"p{i}", x, y, t) for i, (x, y, t) in enumerate(rows)]


def plan_events(rng, count, n_areas):
    weights = np.array([w for _, _, w in EVENT_MIX])
    kinds = rng.choice(len(EVENT_MIX), size=count, p=weights / weights.sum())
    procs = rng.integers(0, n_areas, count)
    events = []
    for i, (k, p) in enumerate(zip(kinds, procs)):
        cls, direction, _ = EVENT_MIX[k]
        t = _decimal(EVENT_T0_MS + i)
        warnable = cls in ("H", "LH") and direction != "receding"
        events.append({"proc": int(p), "t": t, "warnable": warnable,
                       "line": f"EVENT {p} {cls} {direction} {t}\n".encode(),
                       "warn": f"WARN {p} {cls} {direction} {t}".encode()})
    return events


class _Lines:
    """Non-blocking line reader for one socket or pipe."""

    def __init__(self, read):
        self.read, self.tail = read, b""

    def pull(self) -> tuple[list, bool]:
        try:
            data = self.read()
        except BlockingIOError:
            return [], False
        if not data:
            return [], True
        lines = (self.tail + data).split(b"\n")
        self.tail = lines.pop()
        return lines, False


class _Service:
    """One warnd subprocess with connections A and B and a selector over
    A, B and the server's stdout."""

    def __init__(self, argv, env, work_dir):
        self.stderr_path = os.path.join(work_dir, "warnd.stderr")
        with open(self.stderr_path, "wb") as stderr_file:
            self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                         stderr=stderr_file, env=env, cwd=work_dir)
        self.sel = selectors.DefaultSelector()
        self.conns = []
        os.set_blocking(self.proc.stdout.fileno(), False)
        self.out = _Lines(lambda: os.read(self.proc.stdout.fileno(), 65536))
        self.sel.register(self.proc.stdout, selectors.EVENT_READ, "out")

    def connect(self) -> None:
        port = None
        while port is None:
            if not self.sel.select(timeout=30.0):
                raise RuntimeError("warnd did not report its port within 30 s")
            lines, eof = self.out.pull()
            if eof:
                raise RuntimeError("warnd exited during start-up")
            for line in lines:
                if line.startswith(b"warnd listening on "):
                    port = int(line.rsplit(b":", 1)[1])
        for _ in range(2):
            sock = socket.create_connection(("127.0.0.1", port))
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            self.conns.append(sock)
        self.a, self.b = self.conns
        self.a_in = _Lines(lambda: self.a.recv(262144))
        self.b_in = _Lines(lambda: self.b.recv(65536))
        self.sel.register(self.a, selectors.EVENT_READ | selectors.EVENT_WRITE, "a")
        self.sel.register(self.b, selectors.EVENT_READ, "b")

    def load(self, reg_lines: bytes, count: int, problems: list) -> None:
        """Pipeline the REG lines on A, reading the replies as they come."""
        pending = memoryview(reg_lines)
        replies = 0
        while replies < count:
            for key, mask in self.sel.select(timeout=30.0) or [(None, 0)]:
                if key is None:
                    raise RuntimeError(f"registry load stalled at {replies}/{count}")
                if key.data == "a" and mask & selectors.EVENT_WRITE and pending:
                    pending = pending[self.a.send(pending[:262144]):]
                    if not pending:
                        self.sel.modify(self.a, selectors.EVENT_READ, "a")
                if key.data == "a" and mask & selectors.EVENT_READ:
                    lines, eof = self.a_in.pull()
                    if eof:
                        raise RuntimeError("warnd closed connection A during set-up")
                    for line in lines:
                        replies += 1
                        if not line.startswith(b"OK "):
                            problems.append(f"REG answered {line[:80]!r}")

    def close(self) -> str:
        """Close the connections and stdin, wait for the exit; returns stderr."""
        for sock in self.conns:
            sock.close()
        self.sel.close()
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        with open(self.stderr_path, encoding="utf-8", errors="replace") as fh:
            return fh.read().strip()


def warn_fanout(seed, seconds, tracer, size_name, work_dir) -> Outcome:
    size = SIZES[size_name]
    rng = np.random.default_rng(seed)
    areas, width, window = read_plan(PLAN_INI)
    registry = build_registry(rng, size, areas, width)
    reg_lines = b"".join(f"REG {cid} {_decimal(x)} {_decimal(y)} {_decimal(t)}\n".encode()
                         for cid, x, y, t in registry)
    n_events = min(MAX_EVENTS, max(1, int(seconds * size["rate"])))
    events = plan_events(rng, n_events, len(areas))
    warn_index = {e["warn"]: i for i, e in enumerate(events)}
    problems = []

    spans_path = os.path.join(work_dir, "server_spans.json")
    if tracer is not None:
        argv = [sys.executable, os.path.join(BENCH_DIR, "warnd_traced.py"), spans_path]
    else:
        argv = [sys.executable, "-m", "roadwarn.warnd"]
    argv += ["--plan", PLAN_INI, "--listen", "127.0.0.1:0"]
    env = dict(os.environ, PYTHONPATH=SRC_DIR)

    # set-up is short, so it runs SETUPS times and reports the median; the
    # last server stays up for the measured phase.  The server does most of
    # the work, set-up and dispatch alike, so the reference task must be
    # timed on its CPU (the VM's CPUs change speed independently).  So the
    # server is pinned to one CPU, which costs it little: its Python
    # threads run one at a time under the GIL anyway.
    server_cpu = max(os.sched_getaffinity(0))
    setup_spans = []
    with speed.Sampler(cpu=server_cpu) as sampler:
        for k in range(SETUPS):
            t0 = time.perf_counter()
            service = _Service(argv, env, work_dir)
            speed.pin({server_cpu}, service.proc.pid)
            try:
                service.connect()
                service.load(reg_lines, len(registry), problems)
            except BaseException:
                service.close()
                raise
            setup_spans.append((t0, time.perf_counter()))
            if k < SETUPS - 1:
                stderr_text = service.close()
                if stderr_text:
                    problems.append("warnd stderr: " + stderr_text[-300:])
    scaled_setups = [sampler.scale(t0, t1) for t0, t1 in setup_spans]
    setup_times = {"wall_s": [t1 - t0 for t0, t1 in setup_spans], "scaled_s": scaled_setups}
    setup_s = float(np.median(scaled_setups))
    sel, conn_b, out, a_in, b_in = service.sel, service.b, service.out, service.a_in, service.b_in
    try:
        # -- measured phase -----------------------------------------------------
        n_walk = size["walkers"]
        walk_x = [registry[w][1] for w in range(n_walk)]
        walk_dir = [1 if w % 2 else -1 for w in range(n_walk)]
        road_end_mm = int(round(areas[-1][1] * 1000))
        pos_log = [[] for _ in range(n_walk)]   # per walker: (sent, acked, x_mm, t_ms)
        ack_ms, err_replies, sent_events = [], 0, 0
        in_flight = None                         # (walker, x_mm, t_ms, sent_at)
        next_walker = 0
        warn_count = [0] * n_events
        first_warn = [None] * n_events
        last_warn = [None] * n_events
        sent_at = [None] * n_events
        dispatched = []                          # (count, read_at), in event order
        done_events = 0                          # events dispatched with every WARN read
        reference_times, references_ms = [], []
        reference_for = -1                       # the event last timed before
        stdin_fd = service.proc.stdin.fileno()
        start = time.perf_counter()
        due = [start + i / size["rate"] for i in range(n_events)]
        deadline = None
        pos_due = start                          # when B sends its next POS
        # B serves the walkers in turn, so a walker's next step is due this
        # long after the previous POS was sent
        pos_interval = WALK_STEP_MM / 1000.0 / WALK_SPEED_MPS / n_walk

        def send_pos():
            nonlocal in_flight, next_walker
            w = next_walker
            next_walker = (next_walker + 1) % n_walk
            x = walk_x[w] + walk_dir[w] * WALK_STEP_MM
            if not 0 <= x <= road_end_mm:
                walk_dir[w] = -walk_dir[w]
                x = walk_x[w] + walk_dir[w] * WALK_STEP_MM
            walk_x[w] = x
            t = EVENT_T0_MS + sent_events
            line = (f"POS {registry[w][0]} {_decimal(x)} {_decimal(registry[w][2])} "
                    f"{_decimal(t)}\n").encode()
            in_flight = (w, x, t, time.perf_counter())
            conn_b.sendall(line)

        while True:
            now = time.perf_counter()
            while sent_events < n_events and due[sent_events] <= now:
                os.write(stdin_fd, events[sent_events]["line"])
                sent_at[sent_events] = now = time.perf_counter()
                sent_events += 1
            if pos_due is not None and pos_due <= now:
                pos_due = None
                if sent_events < n_events:
                    send_pos()
            while (done_events < len(dispatched)
                   and warn_count[done_events] >= dispatched[done_events][0]):
                done_events += 1
            if (sent_events < n_events and reference_for < sent_events
                    and done_events == sent_events and in_flight is None
                    and due[sent_events] - now > REFERENCE_SLACK_S):
                reference_for = sent_events
                reference_times.append(now)
                references_ms.append(speed.reference_ms(server_cpu))
                continue
            done = sent_events == n_events and in_flight is None and done_events == n_events
            if done:
                break
            if sent_events == n_events and deadline is None:
                deadline = now + DRAIN_TIMEOUT_S
            if deadline is not None and now > deadline:
                problems.append("timed out waiting for dispatches or WARN lines")
                break
            timeout = due[sent_events] - now if sent_events < n_events else 0.5
            if pos_due is not None:
                timeout = min(timeout, pos_due - now)
            for key, _mask in sel.select(timeout=max(0.0, timeout)):
                read_at = time.perf_counter()
                if key.data == "a":
                    lines, eof = a_in.pull()
                    for line in lines:
                        i = warn_index.get(line)
                        if i is None:
                            problems.append(f"unexpected line on A: {line[:80]!r}")
                            continue
                        warn_count[i] += 1
                        if first_warn[i] is None:
                            first_warn[i] = read_at
                        last_warn[i] = read_at
                elif key.data == "b":
                    lines, eof = b_in.pull()
                    for line in lines:
                        w, x, t, sent = in_flight
                        in_flight = None
                        if line == f"OK {registry[w][0]}".encode():
                            ack_ms.append((read_at - sent) * 1000.0)
                            pos_log[w].append((sent, read_at, x, t))
                        else:
                            err_replies += 1
                            problems.append(f"POS answered {line[:80]!r}")
                        pos_due = max(read_at, sent + pos_interval)
                else:
                    lines, eof = out.pull()
                    for line in lines:
                        if line.startswith(b"dispatched to "):
                            dispatched.append((int(line.split()[2]), read_at))
                        else:
                            problems.append(f"unexpected warnd output {line[:80]!r}")
                if eof:
                    raise RuntimeError(f"warnd closed {key.data} during the run")
        late_ms = [(s - d) * 1000.0 for s, d in zip(sent_at, due) if s is not None]
    finally:
        stderr_text = service.close()
    if stderr_text:
        problems.append("warnd stderr: " + stderr_text[-300:])
    server_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    # -- verification: every event against the server and the independent count
    static = registry[n_walk:]
    sx = np.array([float(_decimal(x)) for _, x, _, _ in static])
    sy = np.array([float(_decimal(y)) for _, _, y, _ in static])
    st = np.array([float(_decimal(t)) for _, _, _, t in static])
    walk_y = [float(_decimal(registry[w][2])) for w in range(n_walk)]
    acked = [[entry[1] for entry in log] for log in pos_log]
    failed_events = ambiguous = 0
    latencies, due_times, spreads = [], [], []
    for i, event in enumerate(events):
        server_count = dispatched[i][0] if i < len(dispatched) else None
        if event["warnable"]:
            x0, x1 = areas[event["proc"]]
            t_event = float(event["t"])
            fresh = t_event - st <= window
            low = high = int(np.count_nonzero(
                fresh & (x0 <= sx) & (sx <= x1) & (0.0 <= sy) & (sy <= width)))
            scan_after = sent_at[i]
            scan_before = dispatched[i][1] if server_count is not None else float("inf")
            for w in range(n_walk):
                # the last position surely applied before the scan, then any
                # that may have been
                k = bisect.bisect_left(acked[w], scan_after)
                states = [pos_log[w][k - 1][2:] if k else (registry[w][1], registry[w][3])]
                states += [(x, t) for s, _, x, t in pos_log[w][k:] if s <= scan_before]
                inside = [t_event - float(_decimal(t)) <= window
                          and x0 <= float(_decimal(x)) <= x1 and 0.0 <= walk_y[w] <= width
                          for x, t in states]
                low += all(inside)
                high += any(inside)
            ambiguous += low != high
        else:
            low = high = 0
        ok = (server_count is not None and warn_count[i] == server_count
              and low <= server_count <= high)
        if not ok:
            failed_events += 1
            problems.append(f"event {i} ({event['line'].decode().strip()}): "
                            f"{warn_count[i]} WARN, server {server_count}, "
                            f"expected {low}..{high}")
        elif server_count:
            latencies.append((last_warn[i] - due[i]) * 1000.0)
            due_times.append(due[i])
            spreads.append((last_warn[i] - first_warn[i]) * 1000.0)

    attempted = n_events + len(ack_ms) + err_replies
    figures = {"server_peak_rss_mb": (server_rss_mb, "MB")}
    if len(dispatched) == n_events:
        done_at = np.array([max(dispatched[i][1], last_warn[i] or 0.0) for i in range(n_events)])
        backlog = np.array([np.count_nonzero(done_at[:i] > sent_at[i]) for i in range(n_events)])
        figures["backlog_mean"] = (float(np.mean(backlog)), "events")
        quarter = n_events // 4
        if quarter:
            first, last = np.median(backlog[:quarter]), np.median(backlog[-quarter:])
            if last - first > BACKLOG_GROWTH_LIMIT:
                problems.append(f"the service did not keep up with {size['rate']} EVENTs/s: "
                                f"the median backlog grew from {first:g} EVENTs in the first "
                                f"quarter of the run to {last:g} in the last")
    half = len(latencies) // 2
    if half:
        # shown to let a reader see that the latency did not drift in the run
        figures["warn_p50_first_half_ms"] = (float(np.median(latencies[:half])), "ms")
        figures["warn_p50_second_half_ms"] = (float(np.median(latencies[half:])), "ms")
    if not references_ms:
        problems.append("the service was never idle, so the reference task was never timed")
    scaled = speed.scale(due_times, latencies, reference_times, references_ms) \
        if references_ms else []
    notes = {"registry": len(registry), "events": n_events, "rate_per_s": size["rate"],
             "warnable_events": sum(e["warnable"] for e in events),
             "events_with_pos_race": ambiguous, "pos_updates": len(ack_ms),
             "setup_times_s": setup_times, "references": len(references_ms),
             "reference_ms_median": float(np.median(references_ms)) if references_ms else None}
    samples = {"ack_ms": ack_ms, "gen.late_ms": late_ms, "warn.delivery_spread_ms": spreads}
    server_trace = None
    if tracer is not None and os.path.exists(spans_path):
        with open(spans_path, encoding="utf-8") as fh:
            server_trace = json.load(fh)
    return Outcome(setup_s, scaled, latencies, attempted, failed_events + err_replies, figures,
                   {}, problems, notes, samples, server_trace,
                   measure_start=start, requests=n_events)
