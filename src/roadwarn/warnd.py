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
MAX_LINE_BYTES is answered `ERR line too long` and ends the session.  A REG
for a new client_id while the registry holds MAX_CLIENTS clients is
answered `ERR registry full`.

`WarnServer` runs every connection on one `selectors` loop in one thread.
What the server writes to a connection is queued in that connection's
outbox, and the loop writes it out without blocking: an event's WARNs
leave each connection in one write, however many of its clients they are
for, and a peer that stops reading holds up no one else.  A connection's
clients are dropped from the registry, and must REG again on a new
connection, when it ends (EOF, a read or write error, an over-long line),
when a line would take its outbox past MAX_OUTBOX_BYTES, or when its
outbox has not drained for WRITE_TIMEOUT_S (a peer that stopped reading);
the last two close it.  `dispatch` counts a client as delivered when its
WARN was queued on an open connection, the same guarantee a completed
`sendall` gave: neither says the peer has read it.

Detection events do not travel on the client wire: `dispatch` is called
in-process (simulation) or fed EVENT lines on stdin (standalone server).
"""

from __future__ import annotations

import argparse
import math
import re
import selectors
import socket
import sys
import threading
import time
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass

from .classifiers import SoundClass
from .decision import DIRECTIONS, DetectionResult
from .deployment import WARN_CLASSES, DeploymentPlan, load_plan_config, warning_decision

_CLIENT_ID = re.compile(r"[A-Za-z0-9_-]{1,32}\Z")
_DECIMAL = re.compile(r"-?[0-9]+(\.[0-9]{1,3})?\Z")
MAX_LINE_BYTES = 1024  # longest client line, "\n" or "\r\n" excluded
WRITE_TIMEOUT_S = 5.0  # longest a connection's outbox may stay undrained before eviction
# An outbox holds what a connection's peer has not read yet.  The largest
# WARN block one event can put on a gateway connection, at the registry's
# scale, is the whole 50,000-client benchmark registry standing in one area
# and registered on that connection: 50,000 lines of about 32 bytes, 1.6 MB.
# 4 MiB holds that block with room for the next event's.
MAX_OUTBOX_BYTES = 4 << 20
MAX_CLIENTS = 1_000_000  # registry cap; a REG for a new client_id beyond it is refused
_READ_CHUNK = 65536


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
    so sessions and dispatches on different threads interleave without
    tearing, and every dispatch sees a consistent snapshot.

    Besides `_clients` (client_id -> record) the registry keeps one bucket
    per processor, holding the records whose position lies in its danger
    area (areas are closed, so a client on a shared edge is in both), and
    the client_ids registered through each `send`.  A dispatch scans only
    the target bucket, so its cost follows the area, not the registry.
    """

    def __init__(self, plan: DeploymentPlan, flush=None):
        """`flush`, if given, is called after each dispatch's sends: a
        transport whose `send` only queues a line writes the lines out then."""
        self.plan = plan
        self._flush = flush
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
                if len(self._clients) >= MAX_CLIENTS:
                    return "ERR registry full"
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
        if members and self._flush is not None:
            self._flush()
        return {cid for cid, send in members if send not in failed}


def parse_event_line(line: str) -> tuple[int, DetectionResult, float]:
    """Operator/processor event feed: `EVENT <processor_id> <class> <direction> <t>`."""
    parts = line.strip().split(" ")
    if len(parts) != 5 or parts[0] != "EVENT":
        raise ProtocolError("expected: EVENT <processor_id> <class> <direction> <t>")
    processor_id, sound_class, direction, event_time = _parse_alert(parts[1:])
    result = DetectionResult(climax_index=0, sound_type=sound_class, direction=direction)
    return processor_id, result, event_time


def _split_lines(buffered: bytes, eof: bool) -> tuple[list, bytes, bool]:
    """Client bytes -> (line bodies, the unfinished rest, too_long).

    A line ends at "\n", and one "\r" before it is not part of it; at EOF
    the unterminated rest is a line too.  Bodies come out up to the first
    line over MAX_LINE_BYTES, and too_long says there was one.  The
    unfinished rest counts as too long as soon as it is, unless a "\r" at
    the cap may yet start its "\r\n"."""
    lines = buffered.split(b"\n")
    rest = b"" if eof else lines.pop()
    bodies = []
    for raw in lines:
        body = raw.removesuffix(b"\r")
        if len(body) > MAX_LINE_BYTES:
            return bodies, b"", True
        bodies.append(body)
    return bodies, rest, len(rest.removesuffix(b"\r")) > MAX_LINE_BYTES


class _Connection:
    """One client socket: the bytes read but not yet a whole line, and the
    outbox that `send` fills and the server loop drains.  `lock` and
    `dirty` are the server's."""

    __slots__ = ("sock", "lock", "dirty", "inbox", "outbox", "open", "mask", "stalled_since")

    def __init__(self, sock, lock, dirty):
        self.sock, self.lock, self.dirty = sock, lock, dirty
        self.inbox = b""
        self.outbox = bytearray()
        self.open = True  # takes lines; False after EOF, an over-long line or an eviction
        self.mask = selectors.EVENT_READ
        self.stalled_since = None  # when a flush first left bytes in the outbox

    def send(self, line: str) -> None:
        """Queue a server->client line; OSError once the connection takes no
        more lines, or when the line would take its outbox past
        MAX_OUTBOX_BYTES (the connection is then evicted)."""
        data = (line + "\n").encode("utf-8")
        with self.lock:
            if not self.open:
                raise ConnectionError("connection closed")
            self.dirty.add(self)
            if len(self.outbox) + len(data) > MAX_OUTBOX_BYTES:
                self.open = False  # an empty outbox that takes no lines: the loop closes it
                self.outbox.clear()
                raise OSError(f"outbox over {MAX_OUTBOX_BYTES} bytes")
            self.outbox += data


class WarnServer:
    """The TCP service: one `selectors` loop, run by `serve_forever` in one
    thread, over the listening socket, every client socket and a wake-up
    socketpair.  `send` only appends to an outbox, from any thread; the
    loop writes each outbox with non-blocking sends, so all the lines
    queued between two flushes (an event's WARNs, the replies to one read)
    leave in one write."""

    def __init__(self, address, plan: DeploymentPlan):
        self.dispatcher = Dispatcher(plan, flush=self._wake_loop)
        self.socket = socket.create_server(address, backlog=socket.SOMAXCONN)
        self.socket.setblocking(False)
        self.server_address = self.socket.getsockname()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.socket, selectors.EVENT_READ)
        self._selector.register(self._wake_r, selectors.EVENT_READ)
        self._connections = set()
        self._accepting = True
        self._stalled = set()  # connections whose outbox a flush did not empty
        self._lock = threading.Lock()  # guards outboxes, `open`, `_dirty` and `_woken`
        self._dirty = set()  # connections with bytes queued since the loop last flushed
        self._woken = False  # the loop will flush `_dirty` before it waits again
        self._shutdown_request = False
        self._stopped = threading.Event()

    # -- any thread ---------------------------------------------------------

    def _wake_loop(self) -> None:
        """Make the loop flush what was queued now, not after `poll_interval`.
        Called once a dispatch has queued all its lines: a wake-up per line
        would let the loop take turns with the dispatching thread and send
        the lines one by one."""
        with self._lock:
            if self._woken:
                return
            self._woken = True
        try:
            self._wake_w.send(b"\0")
        except OSError:  # full: a wake-up is pending anyway; closed: the server is gone
            pass

    def shutdown(self) -> None:
        """Stop `serve_forever` and wait for it to return."""
        self._shutdown_request = True
        self._wake_loop()
        self._stopped.wait()

    def server_close(self) -> None:
        for conn in list(self._connections):
            self._close(conn)
        self._selector.close()
        for sock in (self.socket, self._wake_r, self._wake_w):
            sock.close()

    # -- the loop -----------------------------------------------------------

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        self._stopped.clear()
        try:
            while not self._shutdown_request:
                timeout = poll_interval
                if self._stalled:
                    first = min(conn.stalled_since for conn in self._stalled)
                    timeout = min(timeout, max(0.0, first + WRITE_TIMEOUT_S - time.monotonic()))
                ready = self._selector.select(timeout)
                with self._lock:
                    self._woken = True  # what is queued from here on is flushed below
                for key, mask in ready:
                    if key.fileobj is self.socket:
                        self._accept()
                    elif key.fileobj is self._wake_r:
                        self._wake_r.recv(4096)
                    elif mask & selectors.EVENT_READ:
                        self._read(key.data)
                    else:
                        self._flush(key.data)  # writable again
                with self._lock:
                    dirty = list(self._dirty)
                    self._dirty.clear()
                    self._woken = False
                for conn in dirty:
                    self._flush(conn)
                if self._stalled:
                    now = time.monotonic()
                    for conn in [c for c in self._stalled
                                 if now - c.stalled_since >= WRITE_TIMEOUT_S]:
                        self._close(conn)
        finally:
            self._shutdown_request = False
            self._stopped.set()

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self.socket.accept()
            except BlockingIOError:
                return
            except OSError:
                # out of file descriptors: the listener stays ready, and the
                # loop would spin on it, until one of the connections closes
                if self._connections:
                    self._selector.unregister(self.socket)
                    self._accepting = False
                return
            sock.setblocking(False)
            # the outbox batches the lines; Nagle could only hold a batch back
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Connection(sock, self._lock, self._dirty)
            self._selector.register(sock, selectors.EVENT_READ, conn)
            self._connections.add(conn)

    def _read(self, conn: _Connection) -> None:
        if not conn.open:  # evicted by a dispatch: the flush below closes it
            return
        try:
            data = conn.sock.recv(_READ_CHUNK)
        except BlockingIOError:
            return
        except OSError:
            self._close(conn)
            return
        bodies, conn.inbox, too_long = _split_lines(conn.inbox + data, eof=not data)
        replies = []
        for body in bodies:
            line = body.decode("utf-8", errors="replace").strip()
            if line:
                replies.append(self.dispatcher.handle_line(line, conn.send))
        if too_long:
            replies.append("ERR line too long")
        if replies:
            try:
                conn.send("\n".join(replies))
            except OSError:
                return  # evicted, closed by the flush
        if too_long or not data:
            with self._lock:
                conn.open = False
                self._dirty.add(conn)  # the flush closes it once the outbox is empty
            self.dispatcher.drop_connection(conn.send)

    def _flush(self, conn: _Connection) -> None:
        """Write what the socket takes of the outbox; close a connection that
        failed, or that takes no more lines and has nothing left to send."""
        if conn not in self._connections:  # closed already
            return
        failed = False
        with self._lock:
            if conn.outbox:
                try:
                    del conn.outbox[:conn.sock.send(conn.outbox)]
                except BlockingIOError:
                    pass
                except OSError:
                    failed = True
            pending = bool(conn.outbox)
            done = not (pending or conn.open)
        if failed or done:
            self._close(conn)
            return
        mask = selectors.EVENT_WRITE if pending else selectors.EVENT_READ
        if conn.mask != mask:  # no reading while replies wait: a peer that
            conn.mask = mask   # does not read cannot grow its outbox by writing
            self._selector.modify(conn.sock, mask, conn)
        if not pending:
            conn.stalled_since = None
            self._stalled.discard(conn)
        elif conn.stalled_since is None:
            conn.stalled_since = time.monotonic()
            self._stalled.add(conn)

    def _close(self, conn: _Connection) -> None:
        """Evict the connection's clients and close it."""
        if conn not in self._connections:
            return
        with self._lock:
            conn.open = False
            conn.outbox.clear()
        self._selector.unregister(conn.sock)
        conn.sock.close()
        self._connections.discard(conn)
        self._stalled.discard(conn)
        self.dispatcher.drop_connection(conn.send)
        if not self._accepting:
            self._selector.register(self.socket, selectors.EVENT_READ)
            self._accepting = True


def serve(plan: DeploymentPlan, host: str, port: int) -> None:
    """Run the TCP service; EVENT lines read from stdin trigger dispatches
    until stdin closes."""
    server = WarnServer((host, port), plan)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    bound = server.server_address
    print(f"warnd listening on {bound[0]}:{bound[1]}", flush=True)
    try:
        for raw in sys.stdin:
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
