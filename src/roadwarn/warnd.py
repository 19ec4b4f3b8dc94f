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
answered `ERR registry full`.  The package writes WARN lines with
`warn_line` alone and reads none: reading them is the client's side.

`WarnServer` is one `selectors` loop in one thread: it reads the EVENT
feed and every client.  Detection events do not travel on the client wire:
the loop reads `EVENT <processor_id> <class> <direction> <t>` lines from
its feed (stdin for the standalone server), processor_id in ASCII digits
and the other fields as in WARN, and `cli simulate` calls `dispatch`
in-process.  The loop stops when the feed ends.

A connection gets one write per event: the event's WARNs go to it as one
block, one line per client it carries.  The registry keeps each area's
clients on one time-ordered shelf per connection, and an event bisects
each shelf for its fresh clients, so it reads no stale one.  What the
socket does not take at once waits in the connection's outbox until it
takes more, so a peer that stops reading holds up no one else.  The loop
sleeps until the feed or a socket is ready, or a stalled outbox reaches
its drain deadline.  A connection's clients are dropped from the registry,
and must REG again on a new connection, when it ends (EOF, a read or write
error, an over-long line), when a block would take its outbox past
MAX_OUTBOX_BYTES, or when its outbox has not drained for WRITE_TIMEOUT_S
(a peer that stopped reading); the last two close it.  `dispatch` counts a
client as delivered when its WARN was written or queued on a connection
still open after the write, the same guarantee a completed `sendall` gave:
neither says the peer has read it.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import selectors
import socket
import sys
import time
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass

from .deployment import DeploymentPlan, load_plan_config, warning_decision
from .labels import DIRECTIONS, DetectionResult, SoundClass

_CLIENT_ID_TOKEN = r"[A-Za-z0-9_-]{1,32}"
_DECIMAL_TOKEN = r"-?[0-9]+(?:\.[0-9]{1,3})?"
_DECIMAL = re.compile(_DECIMAL_TOKEN + r"\Z")
# a whole well-formed REG/POS line, to be matched with fullmatch
_POSITION = re.compile(rf"(REG|POS) ({_CLIENT_ID_TOKEN}) ({_DECIMAL_TOKEN}) "
                       rf"({_DECIMAL_TOKEN}) ({_DECIMAL_TOKEN})")
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


def warn_line(result: DetectionResult, processor_id: int, event_time: float) -> str:
    """The alert line of an event, `WARN <processor_id> <class> <direction> <t>`,
    for a result that `warning_decision` lets through."""
    return f"WARN {processor_id} {result.sound_type.value} {result.direction} {event_time:.3f}"


def _shown(token: str) -> str:
    """A token as an error quotes it: its repr, cut to its first 16 characters."""
    return repr(token) if len(token) <= 16 else f"{token[:16]!r}..."


def _parse_decimal(token: str, what: str) -> float:
    if not _DECIMAL.match(token):
        raise ProtocolError(f"bad {what} {_shown(token)}")
    value = float(token)
    if math.isinf(value):  # the grammar has no NaN, but 309+ digits overflow
        raise ProtocolError(f"bad {what} {token[:16]}... (not finite)")
    return value


def _parse_processor_id(token: str) -> int:
    if token.isascii() and token.isdigit():
        try:
            return int(token)
        except ValueError:  # more digits than int() converts
            pass
    raise ProtocolError(f"bad processor_id {_shown(token)}")


def _parse_position(line: str) -> tuple[str, str, float, float, float]:
    """A client line, `REG|POS <client_id> <x> <y> <t>`, as (verb, client_id, x, y, t).

    One match of the whole line takes a well-formed line; any other line,
    and one whose decimal overflows, is read field by field to name its
    fault."""
    line = line.strip()
    match = _POSITION.fullmatch(line)
    if match:
        verb, cid, x, y, t = match.groups()
        x, y, t = float(x), float(y), float(t)
        if math.isfinite(x) and math.isfinite(y) and math.isfinite(t):
            return verb, cid, x, y, t
    parts = line.split(" ")
    verb = parts[0]
    if verb not in ("REG", "POS"):
        raise ProtocolError(f"unknown verb {_shown(verb)}")
    if len(parts) != 5:
        raise ProtocolError(f"{verb} needs 4 fields")
    if not re.fullmatch(_CLIENT_ID_TOKEN, parts[1]):
        raise ProtocolError(f"bad client_id {_shown(parts[1])}")
    return (verb, parts[1], _parse_decimal(parts[2], "x"),
            _parse_decimal(parts[3], "y"), _parse_decimal(parts[4], "t"))


@dataclass(slots=True)
class _ClientRecord:
    x: float
    y: float
    t: float
    send: object  # the callable that delivers its WARNs, as `Dispatcher.handle_lines` says
    areas: tuple = ()  # processor_ids whose shelf for `send` holds this record


@dataclass(slots=True)
class _Shelf:
    """One area's records of one `send`: times, ascending while `ordered`, and client_ids."""
    times: list
    cids: list
    ordered: bool = True


class Dispatcher:
    """Registry plus dispatch, for one thread: a `WarnServer` calls it from
    its loop only, `cli simulate` from its one thread.

    `_clients` maps client_id -> record, `_by_send` each `send` to its
    client_ids, and `_shelves[pid]` each `send` to its shelf of records in
    that danger area (areas are closed: a client on a shared edge is on a
    shelf of each); no shelf is empty.  A REG or POS appends to shelves; a
    time older than a shelf's newest leaves it unordered until the area's
    next dispatch sorts it.
    """

    def __init__(self, plan: DeploymentPlan):
        self.plan = plan
        self._clients: dict[str, _ClientRecord] = {}
        self._by_send: dict[object, set] = defaultdict(set)
        self._shelves: list[dict[object, _Shelf]] = [{} for _ in range(plan.processor_count)]

    def handle_line(self, line: str, send) -> str:
        """Process one client line; returns the response line."""
        return self.handle_lines([line], send)[0]

    def handle_lines(self, lines, send) -> list[str]:
        """Process client lines in order, all from one connection; returns
        one response line per line.  `send` is the callable used later to
        deliver WARN lines to whoever registered on this connection: a
        dispatch calls it once, with one line per client, joined by "\n"
        and without the final "\n"."""
        clients, shelves, by_send, areas_at = (self._clients, self._shelves, self._by_send,
                                               self.plan.areas_at)
        replies = []
        for line in lines:
            try:
                verb, cid, x, y, t = _parse_position(line)
            except ProtocolError as exc:
                replies.append(f"ERR malformed: {exc}")
                continue
            record = clients.get(cid)
            if record is None:
                if verb != "REG":
                    replies.append("ERR unknown-client")
                    continue
                if len(clients) >= MAX_CLIENTS:
                    replies.append("ERR registry full")
                    continue
                record = clients[cid] = _ClientRecord(x, y, t, send)
                by_send[send].add(cid)
            elif t < record.t:
                replies.append("ERR stale")
                continue
            else:
                for pid in record.areas:  # off its shelves; it is filed anew below
                    shelf = shelves[pid][record.send]
                    start = bisect_left(shelf.times, record.t) if shelf.ordered else 0
                    i = shelf.cids.index(cid, start)
                    del shelf.times[i], shelf.cids[i]
                    if not shelf.cids:
                        del shelves[pid][record.send]
                record.x, record.y, record.t = x, y, t
                if verb == "REG" and record.send != send:
                    bound = by_send[record.send]
                    bound.discard(cid)
                    if not bound:
                        del by_send[record.send]
                    by_send[send].add(cid)
                    record.send = send
            record.areas = areas_at(x, y)
            for pid in record.areas:
                shelf = shelves[pid].get(record.send)
                if shelf is None:
                    shelves[pid][record.send] = _Shelf([t], [cid])
                    continue
                if t < shelf.times[-1]:
                    shelf.ordered = False
                shelf.times.append(t)
                shelf.cids.append(cid)
            replies.append(f"OK {cid}")
        return replies

    def drop_connection(self, send) -> None:
        """Evict every client whose WARNs go through `send`: its connection
        closed or failed."""
        for cid in self._by_send.pop(send, ()):
            for pid in self._clients.pop(cid).areas:
                self._shelves[pid].pop(send, None)

    def __len__(self) -> int:
        return len(self._clients)

    def dispatch(self, result: DetectionResult, processor_id: int, event_time: float) -> set:
        """Deliver a WARN to every fresh client in the processor's danger area.

        Fresh means stamped at most `freshness_window` before or after
        `event_time`.  Each connection's `send` is called once, with the
        WARN line repeated for each of its clients; one that raises OSError
        is dropped with all its clients.  Returns the exact set of client_ids
        written to, on connections still open (empty when the policy
        suppresses the warning).
        """
        self.plan.processor(processor_id)  # raises KeyError if absent
        if not warning_decision(result):
            return set()
        line = warn_line(result, processor_id, event_time)
        window = self.plan.freshness_window
        runs = []  # (send, the client_ids of its shelf's fresh run)
        for send, shelf in self._shelves[processor_id].items():
            times, cids = shelf.times, shelf.cids
            if len(times) == 1:  # one client, as on most connections: no search
                if -window <= event_time - times[0] <= window:
                    runs.append((send, cids))
                continue
            if not shelf.ordered:
                times, cids = map(list, zip(*sorted(zip(times, cids))))
                shelf.times, shelf.cids, shelf.ordered = times, cids, True
            # rounding is monotone: fl(event_time - t) falls as t rises, so bisection
            # by the exact test finds the fresh run (`t < event_time - window` would not)
            lo = bisect_left(times, True, key=lambda t: event_time - t <= window)
            hi = bisect_left(times, True, lo, key=lambda t: event_time - t < -window)
            if hi > lo:
                runs.append((send, cids[lo:hi]))
        delivered = []
        for send, cids in runs:
            try:
                send("\n".join([line] * len(cids)))
            except OSError:
                self.drop_connection(send)
            else:
                delivered += cids
        return set(delivered)


def parse_event_line(line: str) -> tuple[int, DetectionResult, float]:
    """Operator/processor event feed: `EVENT <processor_id> <class> <direction> <t>`."""
    parts = line.strip().split(" ")
    if len(parts) != 5 or parts[0] != "EVENT":
        raise ProtocolError("expected: EVENT <processor_id> <class> <direction> <t>")
    _, token, class_token, direction, time_token = parts
    processor_id = _parse_processor_id(token)
    try:
        sound_class = SoundClass(class_token)
    except ValueError:
        raise ProtocolError(f"{_shown(class_token)} is not a valid SoundClass") from None
    if direction not in DIRECTIONS:
        raise ProtocolError(f"bad direction {_shown(direction)}")
    result = DetectionResult(climax_index=0, sound_type=sound_class, direction=direction)
    return processor_id, result, _parse_decimal(time_token, "t")


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
    outbox of what the socket has not taken yet."""

    __slots__ = ("server", "sock", "inbox", "outbox", "open", "stalled_since")

    def __init__(self, server, sock):
        self.server, self.sock = server, sock
        self.inbox = b""
        self.outbox = bytearray()
        self.open = True  # takes lines; False after EOF, an over-long line or a close
        self.stalled_since = None  # when a write first left bytes in the outbox

    def send(self, text: str) -> None:
        """Write one or more server->client lines, joined by "\n" and without
        the final "\n"; what the socket does not take at once waits in the
        outbox.  OSError once the connection takes no more lines; lines that
        would take the outbox past MAX_OUTBOX_BYTES, and a write that fails,
        close the connection and raise OSError too."""
        if not self.open:
            raise ConnectionError("connection closed")
        data = (text + "\n").encode("utf-8")
        if len(self.outbox) + len(data) > MAX_OUTBOX_BYTES:
            self.server._close(self)
            raise OSError(f"outbox over {MAX_OUTBOX_BYTES} bytes")
        self.outbox += data
        self.server._flush(self)
        if not self.open:
            raise ConnectionError("write failed")


class WarnServer:
    """The TCP service: one `selectors` loop, run by `run` in one thread,
    over the listening socket, every client socket and the EVENT feed.
    Replies and WARNs are written as they are made; the loop writes the
    rest of an outbox when its socket takes more."""

    def __init__(self, address, plan: DeploymentPlan, feed, out, err):
        """`feed` (an object with a `fileno()`) carries EVENT lines; the
        report on each event goes to the text stream `out` (`dispatched to
        N client(s)`) or `err` (`event error: ...`)."""
        self.dispatcher = Dispatcher(plan)
        self.socket = socket.create_server(address, backlog=socket.SOMAXCONN)
        self.socket.setblocking(False)
        self.server_address = self.socket.getsockname()
        self._feed, self._out, self._err = feed, out, err
        self._feed_rest = b""  # the feed's unfinished last line
        self._feed_open = True
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.socket, selectors.EVENT_READ)
        try:
            self._selector.register(feed, selectors.EVENT_READ)
            self._feed_polled = True
        except PermissionError:
            # epoll refuses a regular file or /dev/null; a read of either
            # never blocks, so the loop reads it on every turn
            self._feed_polled = False
        self._connections = set()
        self._accepting = True
        self._stalled = set()  # connections whose outbox a write did not empty

    def server_close(self) -> None:
        """Close every connection and the listening socket; the feed is the
        caller's to close."""
        for conn in list(self._connections):
            self._close(conn)
        self._selector.close()
        self.socket.close()

    def run(self) -> None:
        """Serve until the feed ends.  With no stalled outbox, and a feed the
        selector can watch, the loop waits with no timeout."""
        while self._feed_open:
            timeout = None
            if not self._feed_polled:
                timeout = 0.0
            elif self._stalled:
                first = min(conn.stalled_since for conn in self._stalled)
                timeout = max(0.0, first + WRITE_TIMEOUT_S - time.monotonic())
            for key, _ in self._selector.select(timeout):
                conn = key.data
                if key.fileobj is self.socket:
                    self._accept()
                elif key.fileobj is self._feed:
                    self._read_feed()
                elif conn not in self._connections:  # closed by an earlier key of this turn
                    continue
                elif conn.stalled_since is not None:
                    self._flush(conn)  # writable again, or failed
                else:
                    self._read(conn)
            if not self._feed_polled:
                self._read_feed()
            if self._stalled:
                now = time.monotonic()
                for conn in [c for c in self._stalled
                             if now - c.stalled_since >= WRITE_TIMEOUT_S]:
                    self._close(conn)

    def _read_feed(self) -> None:
        """Dispatch the EVENT lines of one read of the feed and report on
        each; EOF ends the loop.  The reports are flushed once the read's
        WARNs are written."""
        data = os.read(self._feed.fileno(), _READ_CHUNK)
        lines = (self._feed_rest + data).split(b"\n")
        self._feed_rest = lines.pop() if data else b""
        self._feed_open = bool(data)
        for raw in lines:
            line = raw.decode("utf-8", errors="replace").strip()
            if not line or line.startswith("#"):
                continue
            try:
                processor_id, result, event_time = parse_event_line(line)
                delivered = self.dispatcher.dispatch(result, processor_id, event_time)
                print(f"dispatched to {len(delivered)} client(s)", file=self._out)
            except (ProtocolError, KeyError) as exc:
                print(f"event error: {exc}", file=self._err)
        self._out.flush()
        self._err.flush()

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
            # a `send` is one write of whole lines; Nagle could only hold it back
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Connection(self, sock)
            self._selector.register(sock, selectors.EVENT_READ, conn)
            self._connections.add(conn)

    def _read(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(_READ_CHUNK)
        except BlockingIOError:
            return
        except OSError:
            self._close(conn)
            return
        bodies, conn.inbox, too_long = _split_lines(conn.inbox + data, eof=not data)
        lines = [line for line in (body.decode("utf-8", errors="replace").strip()
                                   for body in bodies) if line]
        replies = self.dispatcher.handle_lines(lines, conn.send)
        if too_long:
            replies.append("ERR line too long")
        if replies:
            try:
                conn.send("\n".join(replies))
            except OSError:
                return  # closed
        if too_long or not data:
            conn.open = False
            self.dispatcher.drop_connection(conn.send)
            self._flush(conn)  # closes it once the outbox is empty

    def _flush(self, conn: _Connection) -> None:
        """Write what the socket takes of the outbox; close a connection that
        failed, or that takes no more lines and has nothing left to send."""
        if conn.outbox:
            try:
                del conn.outbox[:conn.sock.send(conn.outbox)]
            except BlockingIOError:
                pass
            except OSError:
                self._close(conn)
                return
        pending = bool(conn.outbox)
        if not (pending or conn.open):
            self._close(conn)
            return
        if pending == (conn.stalled_since is not None):
            return
        # no reading while stalled: a peer that does not read cannot grow its outbox by writing
        mask = selectors.EVENT_WRITE if pending else selectors.EVENT_READ
        self._selector.modify(conn.sock, mask, conn)
        conn.stalled_since = time.monotonic() if pending else None
        if pending:
            self._stalled.add(conn)
        else:
            self._stalled.discard(conn)

    def _close(self, conn: _Connection) -> None:
        """Evict the connection's clients and close it."""
        if conn not in self._connections:
            return
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


class UsageParser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, the code every roadwarn
    command gives them (2 is a data error)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The options of `warnd` and of `roadwarn serve`."""
    parser.add_argument("--plan", required=True, help="INI deployment plan")
    parser.add_argument("--listen", required=True, type=parse_listen, help="addr:port to bind")


def serve(args) -> int:
    """Run the TCP service for the plan file `args.plan` on the (host, port)
    `args.listen`, on this thread, until stdin, the EVENT feed, ends.  A plan
    that does not load or an address that does not bind returns 2, after one
    `error:` line on stderr."""
    try:
        server = WarnServer(args.listen, load_plan_config(args.plan), sys.stdin, sys.stdout,
                            sys.stderr)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    bound = server.server_address
    print(f"warnd listening on {bound[0]}:{bound[1]}", flush=True)
    try:
        server.run()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def parse_listen(text: str) -> tuple[str, int]:
    """`addr:port` -> (addr, port), the port in 0-65535: the type of --listen,
    so that any other value is a usage error."""
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit() or int(port) > 65535:
        raise argparse.ArgumentTypeError(f"must be addr:port, got {text!r}")
    return host, int(port)


def main(argv=None) -> int:
    parser = UsageParser(prog="warnd", description="geofenced pedestrian warning dispatcher")
    add_arguments(parser)
    return serve(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
