"""The warning dispatch service and its line-oriented wire protocol.

Wire grammar (UTF-8, one message per newline-terminated line):

    REG <client_id> <x> <y> <t>     client -> server, register / refresh
    POS <client_id> <x> <y> <t>     client -> server, position update
    OK <client_id>                  server -> client, ack
    ERR <reason>                    server -> client, rejection
    WARN <processor_id> <class> <direction> <t>   server -> client, the alert

client_id matches [A-Za-z0-9_-]{1,32}; coordinates and times are decimals
with at most 3 fraction digits; class is one of H/LL/LH/NV.

Detection events do not travel on the client wire: `dispatch` is called
in-process (simulation) or fed EVENT lines on stdin (standalone server).
"""

from __future__ import annotations

import argparse
import re
import socketserver
import sys
import threading
from dataclasses import dataclass

from .classifiers import SoundClass
from .decision import DIRECTIONS, DetectionResult
from .deployment import (WARN_CLASSES, DeploymentPlan, load_plan_config, members_in_area,
                         warning_decision)

_CLIENT_ID = re.compile(r"[A-Za-z0-9_-]{1,32}\Z")
_DECIMAL = re.compile(r"-?[0-9]+(\.[0-9]{1,3})?\Z")


class ProtocolError(ValueError):
    """A wire line that does not match the grammar."""


@dataclass(frozen=True)
class Register:
    client_id: str
    x: float
    y: float
    t: float


@dataclass(frozen=True)
class PositionUpdate:
    client_id: str
    x: float
    y: float
    t: float


@dataclass(frozen=True)
class Ack:
    client_id: str


@dataclass(frozen=True)
class Reject:
    reason: str


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
    return float(token)


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


def encode(message) -> str:
    if isinstance(message, Register):
        return f"REG {message.client_id} {message.x:.3f} {message.y:.3f} {message.t:.3f}"
    if isinstance(message, PositionUpdate):
        return f"POS {message.client_id} {message.x:.3f} {message.y:.3f} {message.t:.3f}"
    if isinstance(message, Ack):
        return f"OK {message.client_id}"
    if isinstance(message, Reject):
        return f"ERR {message.reason}"
    if isinstance(message, WarningMessage):
        return (f"WARN {message.processor_id} {message.sound_class.value} "
                f"{message.direction} {message.event_time:.3f}")
    raise TypeError(f"not a protocol message: {message!r}")


def decode(line: str):
    parts = line.strip().split(" ")
    verb = parts[0] if parts else ""
    if verb in ("REG", "POS"):
        if len(parts) != 5:
            raise ProtocolError(f"{verb} needs 4 fields")
        cls = Register if verb == "REG" else PositionUpdate
        return cls(_parse_client_id(parts[1]),
                   _parse_decimal(parts[2], "x"),
                   _parse_decimal(parts[3], "y"),
                   _parse_decimal(parts[4], "t"))
    if verb == "OK":
        if len(parts) != 2:
            raise ProtocolError("OK needs 1 field")
        return Ack(_parse_client_id(parts[1]))
    if verb == "ERR":
        if len(parts) < 2:
            raise ProtocolError("ERR needs a reason")
        return Reject(" ".join(parts[1:]))
    if verb == "WARN":
        if len(parts) != 5:
            raise ProtocolError("WARN needs 4 fields")
        fields = _parse_alert(parts[1:])
        try:
            return WarningMessage(*fields)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from None
    raise ProtocolError(f"unknown verb {verb!r}")


@dataclass
class _ClientRecord:
    x: float
    y: float
    t: float
    send: object  # callable(line) delivering a server->client line


class Dispatcher:
    """Registry plus dispatch.  All registry mutations happen under one lock,
    so concurrent sessions interleave without tearing, and every dispatch
    sees a consistent snapshot."""

    def __init__(self, plan: DeploymentPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._clients: dict[str, _ClientRecord] = {}

    # -- client sessions ----------------------------------------------------

    def handle_line(self, line: str, send) -> str:
        """Process one client line; returns the response line.

        `send` is the callable used later to deliver WARN lines to whoever
        registered on this connection.
        """
        try:
            message = decode(line)
        except ProtocolError as exc:
            return encode(Reject(f"malformed: {exc}"))
        if isinstance(message, Register):
            return self._upsert(message, send, register=True)
        if isinstance(message, PositionUpdate):
            return self._upsert(message, send, register=False)
        return encode(Reject(f"unexpected {type(message).__name__} from client"))

    def _upsert(self, message, send, register: bool) -> str:
        with self._lock:
            record = self._clients.get(message.client_id)
            if record is None and not register:
                return encode(Reject("unknown-client"))
            if record is not None and message.t < record.t:
                return encode(Reject("stale"))
            if record is None:
                self._clients[message.client_id] = _ClientRecord(
                    message.x, message.y, message.t, send)
            else:
                record.x, record.y, record.t = message.x, message.y, message.t
                if register:
                    record.send = send
        return encode(Ack(message.client_id))

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

        Returns the exact set of client_ids written to (empty when the
        policy suppresses the warning).
        """
        processor = self.plan.processor(processor_id)  # raises KeyError if absent
        if not warning_decision(result):
            return set()
        message = WarningMessage(processor_id=processor_id,
                                 sound_class=result.sound_type,
                                 direction=result.direction,
                                 event_time=event_time)
        line = encode(message)
        with self._lock:
            members = members_in_area(processor.area, self._clients, event_time,
                                      self.plan.freshness_window)
            sends = [self._clients[cid].send for cid in members]
        for send in sends:
            send(line)
        return set(members)


def parse_event_line(line: str) -> tuple[int, DetectionResult, float]:
    """Operator/processor event feed: `EVENT <processor_id> <class> <direction> <t>`."""
    parts = line.strip().split(" ")
    if len(parts) != 5 or parts[0] != "EVENT":
        raise ProtocolError("expected: EVENT <processor_id> <class> <direction> <t>")
    processor_id, sound_class, direction, event_time = _parse_alert(parts[1:])
    result = DetectionResult(climax_index=0, sound_type=sound_class, direction=direction)
    return processor_id, result, event_time


class _SessionHandler(socketserver.StreamRequestHandler):
    def handle(self):
        lock = threading.Lock()

        def send(line):
            payload = (line + "\n").encode("utf-8")
            with lock:
                try:
                    self.wfile.write(payload)
                    self.wfile.flush()
                except OSError:
                    pass

        for raw in self.rfile:
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            send(self.server.dispatcher.handle_line(line, send))


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
    except ValueError as exc:
        parser.error(str(exc))
    plan = load_plan_config(args.plan)
    serve(plan, host, port)
    return 0


if __name__ == "__main__":
    sys.exit(main())
