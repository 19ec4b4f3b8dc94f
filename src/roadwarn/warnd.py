"""The warning dispatch service and its line-oriented wire protocol.

Wire grammar (UTF-8, one message per newline-terminated line):

    REG <client_id> <x> <y> <t>     client -> server, register / refresh
    POS <client_id> <x> <y> <t>     client -> server, position update
    OK <client_id>                  server -> client, ack
    ERR <reason>                    server -> client, rejection
    WARN <processor_id> <class> <direction> <t>   server -> client, the alert

A client sends only REG and POS; any other verb, OK, ERR and WARN included,
is answered `ERR malformed: unknown verb '<verb>'`.  client_id matches
[A-Za-z0-9_-]{1,32}; coordinates and times are finite decimals with at
most 3 fraction digits; class is one of H/LL/LH/NV.  A line longer than
MAX_LINE_BYTES is answered `ERR line too long` and ends the session.  A
client whose connection closes, or whose connection fails a write, is
dropped from the registry and must REG again; a write that cannot finish
within WRITE_TIMEOUT_S (a peer that stopped reading) fails and closes the
connection.

Detection events do not travel on the client wire: `dispatch` is called
in-process (simulation) or fed EVENT lines on stdin (standalone server).
"""

from __future__ import annotations

import argparse
import math
import re
import socket
import socketserver
import struct
import sys
import threading
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass

from .classifiers import SoundClass
from .decision import DIRECTIONS, DetectionResult
from .deployment import WARN_CLASSES, DeploymentPlan, load_plan_config, warning_decision

_CLIENT_ID = re.compile(r"[A-Za-z0-9_-]{1,32}\Z")
_DECIMAL = re.compile(r"-?[0-9]+(\.[0-9]{1,3})?\Z")
MAX_LINE_BYTES = 1024  # longest client line, "\n" or "\r\n" excluded
WRITE_TIMEOUT_S = 5.0  # longest a blocked write to one client may stall a dispatch


class ProtocolError(ValueError):
    """A wire line that does not match the grammar."""


@dataclass(frozen=True)
class WarningMessage:
    processor_id: int
    sound_class: SoundClass
    direction: str
    event_time: float

    def __post_init__(self):
        if self.sound_class not in WARN_CLASSES:
            raise ValueError("only risky classes (H, LH) are ever dispatched")


def _parse_decimal(token: str, what: str) -> float:
    if not _DECIMAL.match(token):
        raise ProtocolError(f"bad {what} {token!r}")
    value = float(token)
    if math.isinf(value):  # the grammar has no NaN, but 309+ digits overflow
        raise ProtocolError(f"bad {what} {token[:16]}... (not finite)")
    return value


def _parse_client_id(token: str) -> str:
    if not _CLIENT_ID.match(token):
        raise ProtocolError(f"bad client_id {token!r}")
    return token


def _parse_alert(fields: list[str]) -> tuple[int, SoundClass, str, float]:
    """`<processor_id> <class> <direction> <t>`, the fields of WARN and EVENT."""
    try:
        processor_id = int(fields[0])
        sound_class = SoundClass(fields[1])
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None
    if fields[2] not in DIRECTIONS:
        raise ProtocolError(f"bad direction {fields[2]!r}")
    return processor_id, sound_class, fields[2], _parse_decimal(fields[3], "t")


def encode(message: WarningMessage) -> str:
    if not isinstance(message, WarningMessage):
        raise TypeError(f"not a protocol message: {message!r}")
    return (f"WARN {message.processor_id} {message.sound_class.value} "
            f"{message.direction} {message.event_time:.3f}")


def decode(line: str) -> WarningMessage:
    """A WARN line, as a client reads it."""
    parts = line.strip().split(" ")
    if parts[0] != "WARN":
        raise ProtocolError(f"unknown verb {parts[0]!r}")
    if len(parts) != 5:
        raise ProtocolError("WARN needs 4 fields")
    fields = _parse_alert(parts[1:])
    try:
        return WarningMessage(*fields)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None


def _parse_position(line: str) -> tuple[str, str, float, float, float]:
    """A client line, `REG|POS <client_id> <x> <y> <t>`, as (verb, client_id, x, y, t)."""
    parts = line.strip().split(" ")
    verb = parts[0]
    if verb not in ("REG", "POS"):
        raise ProtocolError(f"unknown verb {verb!r}")
    if len(parts) != 5:
        raise ProtocolError(f"{verb} needs 4 fields")
    return (verb, _parse_client_id(parts[1]), _parse_decimal(parts[2], "x"),
            _parse_decimal(parts[3], "y"), _parse_decimal(parts[4], "t"))


@dataclass(slots=True)
class _ClientRecord:
    x: float
    y: float
    t: float
    # callable(line) delivering a server->client line; it may raise OSError
    # when the connection has failed
    send: object
    areas: tuple = ()  # processor_ids whose bucket holds this record


class Dispatcher:
    """Registry plus dispatch.  All registry mutations happen under one lock,
    so concurrent sessions interleave without tearing, and every dispatch
    sees a consistent snapshot.

    Besides `_clients` (client_id -> record) the registry keeps one bucket
    per processor, holding the records whose position lies in its danger
    area (areas are closed, so a client on a shared edge is in both), and
    the client_ids registered through each `send`.  A dispatch scans only
    the target bucket, so its cost follows the area, not the registry.
    """

    def __init__(self, plan: DeploymentPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._clients: dict[str, _ClientRecord] = {}
        self._by_send: dict[object, set] = defaultdict(set)
        areas = {}  # processor_id -> area, the first processor of an id as plan.processor
        for p in plan.processors:
            areas.setdefault(p.processor_id, p.area)
        self._buckets: dict[int, dict[str, _ClientRecord]] = {pid: {} for pid in areas}
        # Which areas' [x0, x0 + length] hold x is the same all along each
        # open interval between two neighbouring area edges, so one cell per
        # interval and per edge: (-inf, e0), [e0], (e0, e1), [e1], ..., (ek, inf).
        self._edges = sorted({a.x0 for a in areas.values()}
                             | {a.x0 + a.length for a in areas.values()})

        def spanning(lo, hi):
            return tuple((pid, area.contains) for pid, area in areas.items()
                         if area.x0 <= lo and hi <= area.x0 + area.length)

        self._cells = []
        lo = -math.inf
        for edge in self._edges:
            self._cells += [spanning(lo, edge), spanning(edge, edge)]
            lo = edge
        self._cells.append(spanning(lo, math.inf))

    def _areas_at(self, x: float, y: float) -> tuple:
        """processor_ids whose area contains (x, y): the cell of x names the
        candidates, `contains` decides."""
        edges = self._edges
        found = ()
        # x on edge i: i + (i + 1), the cell [ei]; x in (e(i-1), ei): 2 i
        for pid, contains in self._cells[bisect_left(edges, x) + bisect_right(edges, x)]:
            if contains(x, y):
                found += (pid,)
        return found

    # -- client sessions ----------------------------------------------------

    def handle_line(self, line: str, send) -> str:
        """Process one client line; returns the response line.

        `send` is the callable used later to deliver WARN lines to whoever
        registered on this connection.
        """
        try:
            verb, cid, x, y, t = _parse_position(line)
        except ProtocolError as exc:
            return f"ERR malformed: {exc}"
        register = verb == "REG"
        with self._lock:
            record = self._clients.get(cid)
            if record is None and not register:
                return "ERR unknown-client"
            if record is not None and t < record.t:
                return "ERR stale"
            if record is None:
                record = self._clients[cid] = _ClientRecord(x, y, t, send)
                self._by_send[send].add(cid)
            else:
                record.x, record.y, record.t = x, y, t
                if register and record.send != send:
                    bound = self._by_send[record.send]
                    bound.discard(cid)
                    if not bound:
                        del self._by_send[record.send]
                    self._by_send[send].add(cid)
                    record.send = send
            areas = self._areas_at(x, y)
            if areas != record.areas:
                for pid in record.areas:
                    del self._buckets[pid][cid]
                for pid in areas:
                    self._buckets[pid][cid] = record
                record.areas = areas
        return f"OK {cid}"

    def drop_connection(self, send) -> None:
        """Evict every client whose WARNs go through `send`: its connection
        closed or failed."""
        with self._lock:
            for cid in self._by_send.pop(send, ()):
                for pid in self._clients.pop(cid).areas:
                    del self._buckets[pid][cid]

    def positions(self) -> dict:
        """Snapshot: client_id -> (x, y, t)."""
        with self._lock:
            return {cid: (r.x, r.y, r.t) for cid, r in self._clients.items()}

    def __len__(self) -> int:
        with self._lock:
            return len(self._clients)

    # -- events -------------------------------------------------------------

    def dispatch(self, result: DetectionResult, processor_id: int, event_time: float) -> set:
        """Deliver a WARN to every fresh client in the processor's danger area.

        Fresh means stamped at most `freshness_window` before or after
        `event_time`.  A connection whose `send` raises OSError is dropped
        with all its clients.  Returns the exact set of client_ids written to, on
        connections still open (empty when the policy suppresses the
        warning).
        """
        self.plan.processor(processor_id)  # raises KeyError if absent
        if not warning_decision(result):
            return set()
        message = WarningMessage(processor_id=processor_id,
                                 sound_class=result.sound_type,
                                 direction=result.direction,
                                 event_time=event_time)
        line = encode(message)
        window = self.plan.freshness_window
        with self._lock:
            # the bucket holds exactly the clients inside the area
            members = [(cid, record.send) for cid, record in self._buckets[processor_id].items()
                       if -window <= event_time - record.t <= window]
        failed = []
        for _, send in members:
            if send in failed:
                continue
            try:
                send(line)
            except OSError:
                failed.append(send)
                self.drop_connection(send)
        return {cid for cid, send in members if send not in failed}


def parse_event_line(line: str) -> tuple[int, DetectionResult, float]:
    """Operator/processor event feed: `EVENT <processor_id> <class> <direction> <t>`."""
    parts = line.strip().split(" ")
    if len(parts) != 5 or parts[0] != "EVENT":
        raise ProtocolError("expected: EVENT <processor_id> <class> <direction> <t>")
    processor_id, sound_class, direction, event_time = _parse_alert(parts[1:])
    result = DetectionResult(climax_index=0, sound_type=sound_class, direction=direction)
    return processor_id, result, event_time


class _SessionHandler(socketserver.StreamRequestHandler):
    def setup(self):
        super().setup()
        # a kernel send timeout, not settimeout(): that would poll before every
        # write; a send blocked this long fails with BlockingIOError (an OSError)
        seconds, fraction = divmod(WRITE_TIMEOUT_S, 1.0)
        self.connection.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO,
                                   struct.pack("ll", int(seconds), int(fraction * 1e6)))

    def handle(self):
        dispatcher = self.server.dispatcher
        lock = threading.Lock()

        def send(line):
            payload = (line + "\n").encode("utf-8")
            with lock:
                try:
                    self.wfile.write(payload)  # unbuffered: raises OSError if the peer is gone
                except OSError:
                    # end the read loop too, so no REG re-binds to this connection
                    try:
                        self.connection.shutdown(socket.SHUT_RDWR)
                    except OSError:
                        pass
                    raise

        try:
            # at EOF the unterminated last line is returned, and handled, too
            while raw := self.rfile.readline(MAX_LINE_BYTES + 1):
                if len(raw) > MAX_LINE_BYTES and raw.endswith(b"\r"):
                    raw += self.rfile.read(1)  # "\r\n" after a line at the cap?
                body = raw.removesuffix(b"\n").removesuffix(b"\r")
                if len(body) > MAX_LINE_BYTES:
                    send("ERR line too long")
                    return
                line = body.decode("utf-8", errors="replace").strip()
                if line:
                    send(dispatcher.handle_line(line, send))
        except OSError:
            pass
        finally:
            dispatcher.drop_connection(send)


class WarnServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, plan: DeploymentPlan):
        super().__init__(address, _SessionHandler)
        self.dispatcher = Dispatcher(plan)


def serve(plan: DeploymentPlan, host: str, port: int, event_stream=None) -> None:
    """Run the TCP service; EVENT lines read from `event_stream` (stdin by
    default) trigger dispatches until the stream closes."""
    server = WarnServer((host, port), plan)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    bound = server.server_address
    print(f"warnd listening on {bound[0]}:{bound[1]}", flush=True)
    stream = sys.stdin if event_stream is None else event_stream
    try:
        for raw in stream:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                processor_id, result, event_time = parse_event_line(line)
                delivered = server.dispatcher.dispatch(result, processor_id, event_time)
                print(f"dispatched to {len(delivered)} client(s)", flush=True)
            except (ProtocolError, KeyError) as exc:
                print(f"event error: {exc}", file=sys.stderr, flush=True)
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()


def parse_listen(text: str) -> tuple[str, int]:
    """`addr:port` -> (addr, port)."""
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"--listen must be addr:port, got {text!r}")
    return host, int(port)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="warnd",
                                     description="geofenced pedestrian warning dispatcher")
    parser.add_argument("--plan", required=True, help="INI deployment plan")
    parser.add_argument("--listen", required=True, help="addr:port to bind")
    args = parser.parse_args(argv)
    try:
        host, port = parse_listen(args.listen)
        plan = load_plan_config(args.plan)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))
    serve(plan, host, port)
    return 0


if __name__ == "__main__":
    sys.exit(main())
