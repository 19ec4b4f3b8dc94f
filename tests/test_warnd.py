import io
import math
import os
import resource
import select
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadwarn import warnd
from roadwarn.classifiers import SoundClass
from roadwarn.decision import APPROACHING, RECEDING, UNKNOWN, DetectionResult
from roadwarn.deployment import DangerArea, DeploymentPlan, Processor, build_plan
from roadwarn.warnd import (MAX_LINE_BYTES, Dispatcher, ProtocolError, WarnServer,
                            WarningMessage, decode, encode, parse_event_line)

from conftest import members_in_area_reference


class TestProtocol:
    def test_warn_encoding(self):
        msg = WarningMessage(processor_id=2, sound_class=SoundClass.LH,
                             direction=APPROACHING, event_time=4.25)
        assert encode(msg) == "WARN 2 LH approaching 4.250"

    def test_roundtrip_random_messages(self):
        # WARN lines round-trip through encode/decode; REG and POS lines in
        # the same format are acknowledged and stored as written
        rng = np.random.default_rng(2)

        def coord():
            return float(rng.integers(-50000, 50000)) / 1000.0

        for _ in range(300):
            kind = rng.integers(0, 3)
            if kind == 2:
                msg = WarningMessage(int(rng.integers(0, 50)),
                                     [SoundClass.H, SoundClass.LH][rng.integers(0, 2)],
                                     [APPROACHING, RECEDING, UNKNOWN][rng.integers(0, 3)],
                                     abs(coord()))
                assert decode(encode(msg)) == msg
                continue
            dispatcher = Dispatcher(build_plan(100.0))
            if kind == 0:
                verb, cid = "REG", f"c{rng.integers(0, 999)}"
            else:
                verb, cid = "POS", f"p_{rng.integers(0, 999)}"
                assert dispatcher.handle_line(f"REG {cid} 0 0 0", print) == f"OK {cid}"
            x, y, t = coord(), coord(), abs(coord())
            line = f"{verb} {cid} {x:.3f} {y:.3f} {t:.3f}"
            assert dispatcher.handle_line(line, print) == f"OK {cid}"
            assert dispatcher.positions() == {cid: (x, y, t)}

    def test_bad_class_rejected(self):
        with pytest.raises(ProtocolError):
            decode("WARN 2 XX approaching 4.250")

    def test_non_risky_warn_rejected(self):
        with pytest.raises(ProtocolError):
            decode("WARN 2 LL approaching 4.250")

    def test_unknown_verb(self):
        with pytest.raises(ProtocolError):
            decode("HELLO world")

    def test_malformed_fields(self):
        dispatcher = Dispatcher(build_plan(100.0))
        for line, reason in (("REG p1", "REG needs 4 fields"),
                             ("REG p1 1 2", "REG needs 4 fields"),
                             ("POS p1 a b 0", "bad x 'a'"),
                             ("REG p$ 1 2 3", "bad client_id 'p$'"),
                             ("REG p1 1.2345 0 0", "bad x '1.2345'")):
            assert dispatcher.handle_line(line, print) == f"ERR malformed: {reason}"
        assert len(dispatcher) == 0
        for line in ("OK", "WARN 2 H upward 1.0", "WARN 2 H approaching"):
            with pytest.raises(ProtocolError):
                decode(line)

    @pytest.mark.parametrize("line", ["OK a", "ERR x", "WARN 1 H approaching 1.000"])
    def test_server_verbs_from_client_rejected(self, line):
        dispatcher = Dispatcher(build_plan(100.0))
        verb = line.split(" ")[0]
        assert dispatcher.handle_line(line, print) == f"ERR malformed: unknown verb {verb!r}"
        assert len(dispatcher) == 0

    def test_event_line(self):
        pid, result, t = parse_event_line("EVENT 3 H approaching 12.500")
        assert pid == 3 and result.sound_type == SoundClass.H and t == 12.5
        with pytest.raises(ProtocolError):
            parse_event_line("EVENT 3 H 12.5")


def _sink():
    lines = []
    return lines, lines.append


class TestRegistry:
    def setup_method(self):
        self.dispatcher = Dispatcher(build_plan(100.0))

    def test_register_ack(self):
        lines, send = _sink()
        assert self.dispatcher.handle_line("REG p1 10.0 1.0 0.0", send) == "OK p1"
        assert self.dispatcher.positions() == {"p1": (10.0, 1.0, 0.0)}

    def test_malformed_register(self):
        lines, send = _sink()
        assert self.dispatcher.handle_line("REG p1", send).startswith("ERR malformed")

    def test_reregister_refreshes(self):
        lines, send = _sink()
        self.dispatcher.handle_line("REG p1 10.0 1.0 0.0", send)
        self.dispatcher.handle_line("REG p1 12.0 2.0 1.0", send)
        assert len(self.dispatcher) == 1
        assert self.dispatcher.positions()["p1"] == (12.0, 2.0, 1.0)

    def test_position_updates(self):
        lines, send = _sink()
        self.dispatcher.handle_line("REG p1 10.0 1.0 0.0", send)
        assert self.dispatcher.handle_line("POS p1 12.5 1.0 1.0", send) == "OK p1"
        assert self.dispatcher.positions()["p1"] == (12.5, 1.0, 1.0)

    def test_unknown_client(self):
        lines, send = _sink()
        assert self.dispatcher.handle_line("POS p9 1.0 1.0 0.0", send) == "ERR unknown-client"

    def test_stale_update_rejected(self):
        lines, send = _sink()
        self.dispatcher.handle_line("REG p1 10.0 1.0 5.0", send)
        assert self.dispatcher.handle_line("POS p1 11.0 1.0 4.0", send) == "ERR stale"
        assert self.dispatcher.positions()["p1"] == (10.0, 1.0, 5.0)

    def test_registry_size_bounded(self):
        lines, send = _sink()
        for i in range(20):
            self.dispatcher.handle_line(f"REG c{i % 7} {i}.0 1.0 {i}.0", send)
        assert len(self.dispatcher) == 7


class TestDispatch:
    def setup_method(self):
        self.plan = build_plan(100.0)
        self.dispatcher = Dispatcher(self.plan)
        self.inbox = {}

    def _register(self, cid, x, y, t=0.0):
        lines = self.inbox.setdefault(cid, [])
        response = self.dispatcher.handle_line(f"REG {cid} {x} {y} {t}", lines.append)
        assert response == f"OK {cid}"

    def _event(self, cls, direction=APPROACHING):
        return DetectionResult(climax_index=9, sound_type=cls, direction=direction)

    def test_membership_and_policy(self):
        self._register("in1", 30.0, 1.0)
        self._register("in2", 35.0, 2.0)
        self._register("out", 60.0, 1.0)
        delivered = self.dispatcher.dispatch(self._event(SoundClass.H), 1, 1.0)
        assert delivered == {"in1", "in2"}
        assert self.inbox["in1"] == ["WARN 1 H approaching 1.000"]
        assert self.inbox["out"] == []

    def test_nv_and_receding_suppressed(self):
        self._register("in1", 30.0, 1.0)
        assert self.dispatcher.dispatch(self._event(SoundClass.NV), 1, 1.0) == set()
        assert self.dispatcher.dispatch(self._event(SoundClass.LL), 1, 1.0) == set()
        assert self.dispatcher.dispatch(
            self._event(SoundClass.LH, RECEDING), 1, 1.0) == set()
        assert self.inbox["in1"] == []

    def test_stale_client_not_warned(self):
        self._register("old", 30.0, 1.0, t=0.0)
        delivered = self.dispatcher.dispatch(self._event(SoundClass.H), 1, 30.0)
        assert delivered == set()

    def test_future_stamped_client_not_warned(self):
        self._register("ahead", 30.0, 1.0, t=99999999.0)
        self._register("now", 31.0, 1.0, t=10.0)
        delivered = self.dispatcher.dispatch(self._event(SoundClass.H), 1, 10.0)
        assert delivered == {"now"}
        assert self.inbox["ahead"] == []

    def test_unknown_processor(self):
        with pytest.raises(KeyError):
            self.dispatcher.dispatch(self._event(SoundClass.H), 99, 0.0)

    def test_delivers_exactly_members_in_area_of_registry(self):
        rng = np.random.default_rng(11)
        for i in range(400):
            self._register(f"c{i}", float(rng.integers(-200, 1200)) / 10.0,
                           float(rng.integers(-20, 90)) / 10.0,
                           float(rng.integers(0, 200)) / 10.0)
        for processor in self.plan.processors:
            expected = members_in_area_reference(processor.area, self.dispatcher._clients,
                                                 15.0, self.plan.freshness_window)
            assert expected
            before = {cid: len(lines) for cid, lines in self.inbox.items()}
            delivered = self.dispatcher.dispatch(self._event(SoundClass.H),
                                                 processor.processor_id, 15.0)
            assert delivered == set(expected)
            grown = {cid for cid, lines in self.inbox.items() if len(lines) > before[cid]}
            assert grown == delivered

    def test_randomized_sequences_match_oracle(self):
        # 1000 random registry/event rounds vs a brute-force shadow model
        rng = np.random.default_rng(42)
        classes = list(SoundClass)
        directions = [APPROACHING, RECEDING, UNKNOWN]
        dispatcher = Dispatcher(self.plan)
        shadow = {}  # cid -> (x, y, t)
        sinks = {}
        for round_no in range(1000):
            for _ in range(int(rng.integers(0, 4))):
                cid = f"c{rng.integers(0, 40)}"
                x = float(rng.integers(-200, 1400)) / 10.0
                y = float(rng.integers(-20, 90)) / 10.0
                t = float(round_no)
                verb = "REG" if cid not in shadow or rng.random() < 0.3 else "POS"
                lines = sinks.setdefault(cid, [])
                response = dispatcher.handle_line(f"{verb} {cid} {x} {y} {t:.1f}",
                                                  lines.append)
                if verb == "POS" and cid not in shadow:
                    assert response == "ERR unknown-client"
                else:
                    assert response == f"OK {cid}"
                    shadow[cid] = (x, y, t)
            cls = classes[rng.integers(0, 4)]
            direction = directions[rng.integers(0, 3)]
            pid = int(rng.integers(0, 5))
            event_t = float(round_no)
            result = DetectionResult(climax_index=8, sound_type=cls, direction=direction)
            delivered = dispatcher.dispatch(result, pid, event_t)
            area = self.plan.processor(pid).area
            warnable = cls in (SoundClass.H, SoundClass.LH) and direction != RECEDING
            expected = {cid for cid, (x, y, t) in shadow.items()
                        if warnable and event_t - t <= self.plan.freshness_window
                        and area.x0 <= x <= area.x0 + area.length
                        and 0.0 <= y <= area.width}
            assert delivered == expected
            if cls in (SoundClass.LL, SoundClass.NV) or direction == RECEDING:
                assert delivered == set()


class TestConcurrency:
    def test_interleaved_sessions_match_sequential_oracle(self):
        plan = build_plan(100.0)
        dispatcher = Dispatcher(plan)
        rng = np.random.default_rng(7)
        streams = {}
        for i in range(8):
            cid = f"w{i}"
            lines = [f"REG {cid} {rng.integers(0, 100)}.0 1.0 0.0"]
            for t in range(1, 30):
                lines.append(f"POS {cid} {rng.integers(0, 100)}.0 1.0 {t}.0")
            streams[cid] = lines

        errors = []

        def run(cid):
            sink = []
            try:
                for line in streams[cid]:
                    response = dispatcher.handle_line(line, sink.append)
                    assert response == f"OK {cid}"
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(cid,)) for cid in streams]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        positions = dispatcher.positions()
        for cid, lines in streams.items():
            last = lines[-1].split()
            assert positions[cid] == (float(last[2]), float(last[3]), float(last[4]))
        result = DetectionResult(climax_index=8, sound_type=SoundClass.H,
                                 direction=APPROACHING)
        delivered = dispatcher.dispatch(result, 2, 29.0)
        area = plan.processor(2).area
        expected = {cid for cid, (x, y, t) in positions.items()
                    if area.contains(x, y) and 29.0 - t <= plan.freshness_window}
        assert delivered == expected


class TestMainArgs:
    def test_listen_must_be_addr_port(self, tmp_path):
        from roadwarn.warnd import main

        plan = tmp_path / "plan.ini"
        plan.write_text("[plan]\nroad_length = 100\n")
        with pytest.raises(SystemExit):
            main(["--plan", str(plan), "--listen", "not-an-endpoint"])

    def test_bad_plan_is_a_usage_error(self, tmp_path, capsys):
        from roadwarn.warnd import main

        plan = tmp_path / "plan.ini"
        plan.write_text("[plan]\nroad_length = 100\nmic_height = 3\n")
        with pytest.raises(SystemExit) as exit_info:
            main(["--plan", str(plan), "--listen", "127.0.0.1:0"])
        assert exit_info.value.code == 2
        assert "unknown [plan] key 'mic_height'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exit_info:
            main(["--plan", str(tmp_path / "missing.ini"), "--listen", "127.0.0.1:0"])
        assert exit_info.value.code == 2
        assert "missing.ini" in capsys.readouterr().err


class TestTcpServer:
    def test_end_to_end_over_sockets(self):
        plan = build_plan(100.0)
        server = WarnServer(("127.0.0.1", 0), plan)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]

            def connect(reg_line):
                sock = socket.create_connection(("127.0.0.1", port), timeout=5)
                fh = sock.makefile("rwb")
                fh.write((reg_line + "\n").encode())
                fh.flush()
                assert fh.readline().decode().startswith("OK ")
                return sock, fh

            s1, f1 = connect("REG alice 30.0 1.0 0.0")
            s2, f2 = connect("REG bob 90.0 1.0 0.0")
            deadline = time.time() + 5
            while len(server.dispatcher) < 2 and time.time() < deadline:
                time.sleep(0.01)
            result = DetectionResult(climax_index=8, sound_type=SoundClass.LH,
                                     direction=APPROACHING)
            delivered = server.dispatcher.dispatch(result, 1, 1.0)
            assert delivered == {"alice"}
            assert f1.readline().decode().strip() == "WARN 1 LH approaching 1.000"
            s1.close()
            s2.close()
        finally:
            server.shutdown()
            server.server_close()


# -- hostile input --------------------------------------------------------------

_NINES = "9" * 400  # parses to inf as a float


class TestNonFinite:
    @pytest.mark.parametrize("field, line", [
        ("x", f"REG p1 {_NINES} 1.0 0.0"),
        ("y", f"REG p1 1.0 -{_NINES} 0.0"),
        ("t", f"POS p1 1.0 1.0 {_NINES}.5"),
    ])
    def test_overflowing_decimal_rejected(self, field, line):
        dispatcher = Dispatcher(build_plan(100.0))
        response = dispatcher.handle_line(line, print)
        assert response.startswith(f"ERR malformed: bad {field} ")
        assert response.endswith("... (not finite)")
        assert len(dispatcher) == 0

    def test_overflowing_event_time_rejected(self):
        with pytest.raises(ProtocolError):
            parse_event_line(f"EVENT 1 H approaching {_NINES}")
        with pytest.raises(ProtocolError):
            decode(f"WARN 1 H approaching {_NINES}")


_TOKENS = st.one_of(
    st.sampled_from(["REG", "POS", "OK", "ERR", "WARN", "EVENT", "H", "LH", "LL", "NV",
                     "approaching", "receding", "unknown", "p1", "a-b_C9", "x" * 33, "",
                     "0", "-0", "1.5", "1.2345", "-3.000", ".5", "1.", "1e3", "nan", "inf",
                     "-inf", _NINES, "-" + _NINES, _NINES + ".999", "١", "1_000",
                     "+1", "0x10", "\t", "p$"]),
    st.integers(-10**400, 10**400).map(str),
    st.decimals(allow_nan=False, allow_infinity=False, places=3).map(str),
    st.text(max_size=8))
_NEAR_GRAMMAR = st.lists(_TOKENS, min_size=0, max_size=6).map(" ".join)
_LINES = st.one_of(st.text(max_size=80), _NEAR_GRAMMAR)


def _finite_fields(message):
    return all(math.isfinite(getattr(message, name))
               for name in ("x", "y", "t", "event_time") if hasattr(message, name))


class TestFuzz:
    @settings(max_examples=200, deadline=None)
    @given(_LINES)
    def test_decode_yields_finite_message_or_protocol_error(self, line):
        try:
            message = decode(line)
        except ProtocolError:
            return
        assert isinstance(message, WarningMessage) and _finite_fields(message)
        assert decode(encode(message)) == message

    @settings(max_examples=400, deadline=None)
    @given(_LINES)
    def test_handle_line_answers_ok_or_err(self, line):
        dispatcher = Dispatcher(build_plan(100.0))
        response = dispatcher.handle_line(line, print)
        assert response.startswith(("OK ", "ERR "))
        assert all(_finite_fields(r) for r in dispatcher._clients.values())
        assert len(dispatcher) == (1 if response.startswith("OK ") else 0)

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(_LINES, _NEAR_GRAMMAR.map(lambda text: "EVENT " + text)))
    def test_event_line_parses_finite_or_protocol_error(self, line):
        try:
            processor_id, result, event_time = parse_event_line(line)
        except ProtocolError:
            return
        assert isinstance(processor_id, int) and math.isfinite(event_time)
        assert isinstance(result, DetectionResult)


# -- the area index -------------------------------------------------------------

def _irregular_plan():
    """Areas that overlap, nest, touch and leave gaps, out of x order."""
    spans = [(60.0, 0.5), (0.0, 30.0), (12.5, 5.0), (10.0, 40.0), (60.5, 9.5), (90.0, 10.0)]
    processors = tuple(Processor(i, x0, DangerArea(i, x0, length, 7.0))
                       for i, (x0, length) in enumerate(spans))
    return DeploymentPlan(processors=processors)


_PLANS = {"below": build_plan(100.0, danger_length=10.0),   # gaps between areas
          "equal": build_plan(100.0),                      # areas share their edges
          "above": build_plan(100.0, danger_length=40.0),  # areas overlap
          "irregular": _irregular_plan()}


class _Connection:
    """An in-process client connection: collects payloads, or fails."""

    def __init__(self):
        self.payloads = []
        self.broken = False

    def send(self, text):
        if self.broken:
            raise BrokenPipeError("peer gone")
        self.payloads.append(text)


def _coordinates(plan):
    edges = sorted({p.area.x0 for p in plan.processors}
                   | {p.area.x0 + p.area.length for p in plan.processors})
    width = plan.processors[0].area.width
    xs = st.one_of(st.sampled_from(edges),                              # on an area edge
                   st.sampled_from(edges).map(lambda e: e + 0.001),
                   st.sampled_from(edges).map(lambda e: e - 0.001),
                   st.sampled_from([-30.0, edges[-1] + 0.001, edges[-1] + 60.0]),  # off the road
                   st.integers(-5000, int(edges[-1] * 1000) + 5000).map(lambda v: v / 1000))
    ys = st.one_of(st.sampled_from([0.0, width, -0.001, width + 0.001, 40.0]),
                   st.integers(0, int(width * 1000)).map(lambda v: v / 1000))
    return xs, ys


@st.composite
def _scenario(draw):
    plan = _PLANS[draw(st.sampled_from(sorted(_PLANS)))]
    xs, ys = _coordinates(plan)
    pids = [p.processor_id for p in plan.processors]
    step = st.one_of(
        st.tuples(st.sampled_from(["REG", "POS"]), st.integers(0, 7), xs, ys,
                  st.integers(0, 12), st.integers(0, 2)),
        st.tuples(st.just("close"), st.integers(0, 2)),
        st.tuples(st.just("break"), st.integers(0, 2)),
        st.tuples(st.just("dispatch"), st.sampled_from(pids), st.integers(0, 14)))
    return plan, draw(st.lists(step, max_size=40))


def _check_index(dispatcher, plan):
    clients = dispatcher._clients
    for processor in plan.processors:
        bucket = dispatcher._buckets[processor.processor_id]
        inside = {cid for cid, r in clients.items() if processor.area.contains(r.x, r.y)}
        assert set(bucket) == inside
        assert all(bucket[cid] is clients[cid] for cid in bucket)
    # each client is bound to the connection it registered on, and no connection is kept
    # without clients
    assert all(dispatcher._by_send.values())
    bound = {}
    for send, cids in dispatcher._by_send.items():
        for cid in cids:
            assert cid not in bound
            bound[cid] = send
    assert bound == {cid: r.send for cid, r in clients.items()}


class TestAreaIndex:
    @settings(max_examples=300, deadline=None)
    @given(_scenario())
    def test_buckets_and_dispatch_match_whole_registry(self, scenario):
        plan, steps = scenario
        dispatcher = Dispatcher(plan)
        conns = [_Connection() for _ in range(3)]
        shadow = {}  # cid -> [x, y, t, connection index]
        warn = DetectionResult(climax_index=8, sound_type=SoundClass.H, direction=APPROACHING)
        for step in steps:
            if step[0] in ("REG", "POS"):
                verb, n, x, y, t, k = step
                cid = f"c{n}"
                response = dispatcher.handle_line(f"{verb} {cid} {x:.3f} {y:.3f} {t}.0",
                                                  conns[k].send)
                if cid not in shadow and verb == "POS":
                    assert response == "ERR unknown-client"
                elif cid in shadow and t < shadow[cid][2]:
                    assert response == "ERR stale"
                else:
                    assert response == f"OK {cid}"
                    bound = k if verb == "REG" or cid not in shadow else shadow[cid][3]
                    shadow[cid] = [x, y, t, bound]
            elif step[0] == "close":
                dispatcher.drop_connection(conns[step[1]].send)
                shadow = {cid: s for cid, s in shadow.items() if s[3] != step[1]}
            elif step[0] == "break":
                conns[step[1]].broken = True
            else:
                _, pid, now = step
                area = plan.processor(pid).area
                members = members_in_area_reference(area, dispatcher._clients, float(now),
                                                    plan.freshness_window)
                assert set(members) == {cid for cid, (x, y, t, _) in shadow.items()
                                        if area.contains(x, y)
                                        and -plan.freshness_window <= now - t
                                        <= plan.freshness_window}
                dead = {shadow[cid][3] for cid in members if conns[shadow[cid][3]].broken}
                before = [len(c.payloads) for c in conns]
                delivered = dispatcher.dispatch(warn, pid, float(now))
                assert delivered == {cid for cid in members if shadow[cid][3] not in dead}
                line = f"WARN {pid} H approaching {now}.000"
                for k, conn in enumerate(conns):
                    count = sum(1 for cid in delivered if shadow[cid][3] == k)
                    # one line per client the connection registered
                    assert conn.payloads[before[k]:] == [line] * count
                shadow = {cid: s for cid, s in shadow.items() if s[3] not in dead}
            assert dispatcher.positions() == {cid: (x, y, float(t))
                                              for cid, (x, y, t, _) in shadow.items()}
            _check_index(dispatcher, plan)

    def test_position_updates_move_client_between_buckets(self):
        dispatcher = Dispatcher(build_plan(100.0))
        path = [("REG", 30.0, 1.0, ["1"]), ("POS", 25.0, 7.0, ["0", "1"]),
                ("POS", 60.0, 0.0, ["2"]), ("POS", 60.0, 7.5, []),
                ("POS", 125.0, 3.0, ["4"]), ("POS", 125.5, 3.0, []), ("REG", 0.0, 0.0, ["0"])]
        for t, (verb, x, y, buckets) in enumerate(path):
            assert dispatcher.handle_line(f"{verb} a {x} {y} {t}", print) == "OK a"
            assert [str(pid) for pid, b in dispatcher._buckets.items() if "a" in b] == buckets
            _check_index(dispatcher, dispatcher.plan)

    def test_shared_connection_gets_one_line_per_client(self):
        dispatcher = Dispatcher(build_plan(100.0))
        conn = _Connection()
        assert dispatcher.handle_line("REG a 30.0 1.0 0.0", conn.send) == "OK a"
        assert dispatcher.handle_line("REG b 40.0 1.0 0.0", conn.send) == "OK b"
        result = DetectionResult(climax_index=8, sound_type=SoundClass.LH, direction=APPROACHING)
        assert dispatcher.dispatch(result, 1, 1.0) == {"a", "b"}
        assert conn.payloads == ["WARN 1 LH approaching 1.000"] * 2

    def test_reregistering_through_new_sinks_keeps_one_binding(self):
        # cli.simulate hands every line a fresh callable
        dispatcher = Dispatcher(build_plan(100.0))
        for t in range(50):
            assert dispatcher.handle_line(f"REG a 30.0 1.0 {t}.0", lambda line: None) == "OK a"
        assert len(dispatcher._by_send) == 1
        assert dispatcher._by_send[dispatcher._clients["a"].send] == {"a"}


class TestEviction:
    def _warn(self, dispatcher, pid=1, t=1.0):
        result = DetectionResult(climax_index=8, sound_type=SoundClass.H, direction=APPROACHING)
        return dispatcher.dispatch(result, pid, t)

    def test_failing_send_is_evicted_and_not_reported(self):
        dispatcher = Dispatcher(build_plan(100.0))
        dead, alive = _Connection(), _Connection()
        dead.broken = True
        dispatcher.handle_line("REG gone 30.0 1.0 0.0", dead.send)
        dispatcher.handle_line("REG far 90.0 1.0 0.0", dead.send)  # same connection, area 3
        dispatcher.handle_line("REG here 35.0 1.0 0.0", alive.send)
        assert len(dispatcher) == 3
        assert self._warn(dispatcher) == {"here"}
        assert len(dispatcher) == 1
        assert set(dispatcher.positions()) == {"here"}
        assert self._warn(dispatcher) == {"here"}
        assert self._warn(dispatcher, pid=3) == set()
        _check_index(dispatcher, dispatcher.plan)

    def test_drop_connection_skips_clients_that_moved(self):
        dispatcher = Dispatcher(build_plan(100.0))
        old, new = _Connection(), _Connection()
        dispatcher.handle_line("REG a 30.0 1.0 0.0", old.send)
        dispatcher.handle_line("REG b 31.0 1.0 0.0", old.send)
        dispatcher.handle_line("REG a 32.0 1.0 1.0", new.send)
        dispatcher.drop_connection(old.send)
        assert set(dispatcher.positions()) == {"a"}
        assert self._warn(dispatcher) == {"a"}
        assert new.payloads == ["WARN 1 H approaching 1.000"] and old.payloads == []


    def test_concurrent_sessions_keep_index_and_connections_consistent(self):
        plan = build_plan(100.0, danger_length=40.0)
        dispatcher = Dispatcher(plan)
        warn = DetectionResult(climax_index=8, sound_type=SoundClass.H, direction=APPROACHING)
        errors = []
        stop = threading.Event()

        def session(k):
            rng = np.random.default_rng(k)
            conn = _Connection()
            try:
                for step in range(400):
                    cid = f"c{rng.integers(0, 12)}"  # ids shared between sessions
                    verb = "REG" if rng.random() < 0.5 else "POS"
                    x = rng.integers(-20, 150)
                    dispatcher.handle_line(f"{verb} {cid} {x}.5 {rng.integers(-1, 9)}.0 {step}.0",
                                           conn.send)
                    if rng.random() < 0.1:
                        dispatcher.drop_connection(conn.send)
                        conn = _Connection()
                    conn.broken = rng.random() < 0.05
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def events():
            i = 0
            while not stop.is_set():
                dispatcher.dispatch(warn, i % len(plan.processors), float(i % 400))
                i += 1

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            dispatching = threading.Thread(target=events)
            dispatching.start()
            threads = [threading.Thread(target=session, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            stop.set()
            dispatching.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads + [dispatching])
        assert not errors
        _check_index(dispatcher, plan)


# -- the TCP session --------------------------------------------------------------

@pytest.fixture
def server():
    srv = WarnServer(("127.0.0.1", 0), build_plan(100.0))
    thread = threading.Thread(target=srv.serve_forever, kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()


def _connect(srv):
    return socket.create_connection(("127.0.0.1", srv.server_address[1]), timeout=5)


def _read_lines(sock, count):
    data = b""
    while data.count(b"\n") < count:
        chunk = sock.recv(65536)
        assert chunk, f"connection closed after {data!r}"
        data += chunk
    return data


def _wait_for_size(dispatcher, size):
    deadline = time.time() + 5
    while len(dispatcher) != size and time.time() < deadline:
        time.sleep(0.01)
    return len(dispatcher)


class TestSession:
    def test_shared_connection_bytes(self, server):
        sock = _connect(server)
        sock.sendall(b"REG a 30.0 1.0 0.0\nREG b 40.0 1.0 0.0\n")
        assert _read_lines(sock, 2) == b"OK a\nOK b\n"
        result = DetectionResult(climax_index=8, sound_type=SoundClass.LH, direction=APPROACHING)
        assert server.dispatcher.dispatch(result, 1, 1.0) == {"a", "b"}
        assert _read_lines(sock, 2) == b"WARN 1 LH approaching 1.000\n" * 2
        sock.close()

    def test_disconnected_client_is_evicted(self, server):
        leaving, staying = _connect(server), _connect(server)
        leaving.sendall(b"REG gone 30.0 1.0 0.0\n")
        staying.sendall(b"REG here 35.0 1.0 0.0\n")
        assert _read_lines(leaving, 1) == b"OK gone\n"
        assert _read_lines(staying, 1) == b"OK here\n"
        assert len(server.dispatcher) == 2
        leaving.close()
        assert _wait_for_size(server.dispatcher, 1) == 1
        result = DetectionResult(climax_index=8, sound_type=SoundClass.H, direction=APPROACHING)
        assert server.dispatcher.dispatch(result, 1, 1.0) == {"here"}
        assert _read_lines(staying, 1) == b"WARN 1 H approaching 1.000\n"
        staying.close()

    def test_unterminated_last_line_answered(self, server):
        sock = _connect(server)
        sock.sendall(b"REG a 10.0 1.0 0.0\r\n\nREG b 20.0 1.0 0.0")
        sock.shutdown(socket.SHUT_WR)
        assert _read_lines(sock, 2) == b"OK a\nOK b\n"
        assert sock.recv(100) == b""
        sock.close()
        assert _wait_for_size(server.dispatcher, 0) == 0

    @pytest.mark.parametrize("ending", [b"\n", b"\r\n"])
    def test_line_at_the_cap_accepted(self, server, ending):
        sock = _connect(server)
        head = b"REG a 10.0 1.0 "
        line = head + b"0" * (MAX_LINE_BYTES - len(head))
        assert len(line) == MAX_LINE_BYTES
        sock.sendall(line + ending + b"POS a 11.0 1.0 1.0" + ending)
        assert _read_lines(sock, 2) == b"OK a\nOK a\n"
        sock.close()

    # one byte past the cap: unterminated, with "\n", with "\r\n", and a "\r" that is not
    # part of the line's ending
    @pytest.mark.parametrize("tail", [b"0", b"0\n", b"0\r\n", b"\r0\n"])
    def test_over_long_line_ends_session(self, server, tail):
        sock = _connect(server)
        sock.sendall(b"REG a 10.0 1.0 0.0\n")
        assert _read_lines(sock, 1) == b"OK a\n"
        head = b"REG b 10.0 1.0 "
        sock.sendall(head + b"0" * (MAX_LINE_BYTES - len(head)) + tail)
        assert _read_lines(sock, 1) == b"ERR line too long\n"
        assert sock.recv(100) == b""
        sock.close()
        assert _wait_for_size(server.dispatcher, 0) == 0

    def test_client_that_stops_reading_is_evicted(self, server, monkeypatch):
        monkeypatch.setattr(warnd, "WRITE_TIMEOUT_S", 0.2)
        stalled = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        stalled.settimeout(5)
        stalled.connect(("127.0.0.1", server.server_address[1]))
        reader = _connect(server)
        try:
            # 200 clients on the stalled connection fill its buffers within a
            # few hundred dispatches; it reads its acks, then never again
            stalled.sendall(b"".join(b"REG s%d 30.0 1.0 0.0\n" % i for i in range(200)))
            _read_lines(stalled, 200)
            reader.sendall(b"REG r 35.0 1.0 0.0\n")
            assert _read_lines(reader, 1) == b"OK r\n"
            result = DetectionResult(climax_index=8, sound_type=SoundClass.H,
                                     direction=APPROACHING)
            rounds = []

            def dispatch_until_evicted():
                while True:
                    delivered = server.dispatcher.dispatch(result, 1, 1.0)
                    rounds.append(delivered)
                    if "s0" not in delivered or len(rounds) > 100000:
                        return

            worker = threading.Thread(target=dispatch_until_evicted, daemon=True)
            worker.start()
            worker.join(30)
            assert not worker.is_alive(), "dispatch blocked on a client that stopped reading"
            assert rounds[-1] == {"r"}
            assert all("r" in delivered for delivered in rounds)
            assert _wait_for_size(server.dispatcher, 1) == 1
            assert server.dispatcher.dispatch(result, 1, 1.0) == {"r"}
            warn = b"WARN 1 H approaching 1.000\n"
            assert _read_lines(reader, len(rounds) + 1) == warn * (len(rounds) + 1)
        finally:
            stalled.close()
            reader.close()


def _stalled_connection(srv, clients):
    """A connection that registers `clients` clients in area 1, reads its
    acks, and then never reads again."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.settimeout(5)
    sock.connect(("127.0.0.1", srv.server_address[1]))
    tag = sock.getsockname()[1]
    sock.sendall(b"".join(b"REG s%d_%d 30.0 1.0 0.0\n" % (tag, i) for i in range(clients)))
    _read_lines(sock, clients)
    return sock, {f"s{tag}_{i}" for i in range(clients)}


def _registered_reader(srv, cid="r"):
    sock = _connect(srv)
    sock.sendall(f"REG {cid} 35.0 1.0 0.0\n".encode())
    assert _read_lines(sock, 1) == f"OK {cid}\n".encode()
    return sock


_WARN_H = DetectionResult(climax_index=8, sound_type=SoundClass.H, direction=APPROACHING)


class TestTransport:
    """The selectors loop: outboxes, eviction, and one thread that serves
    all connections."""

    def test_stalled_readers_do_not_hold_dispatch(self, server):
        stalled = [_stalled_connection(server, 200) for _ in range(3)]
        stalled_ids = set().union(*(ids for _, ids in stalled))
        reader = _registered_reader(server)
        try:
            rounds, slowest = [], 0.0
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                start = time.monotonic()
                delivered = server.dispatcher.dispatch(_WARN_H, 1, 1.0)
                slowest = max(slowest, time.monotonic() - start)
                rounds.append(delivered)
                if not delivered & stalled_ids:
                    break
                time.sleep(0.001)  # the loop flushes between events, as in `serve`
            assert slowest < 1.0, f"a dispatch blocked for {slowest:.2f} s"
            assert rounds[-1] == {"r"}, "the stalled clients were never evicted"
            assert all("r" in delivered for delivered in rounds)
            assert set(server.dispatcher.positions()) == {"r"}
            warn = b"WARN 1 H approaching 1.000\n"
            assert _read_lines(reader, len(rounds)) == warn * len(rounds)
        finally:
            for sock, _ in stalled:
                sock.close()
            reader.close()

    def test_outbox_over_the_cap_evicts_its_connection(self, server, monkeypatch):
        monkeypatch.setattr(warnd, "MAX_OUTBOX_BYTES", 64 * 1024)
        monkeypatch.setattr(warnd, "WRITE_TIMEOUT_S", 600.0)  # only the cap can evict
        stalled, stalled_ids = _stalled_connection(server, 200)
        reader = _registered_reader(server)
        try:
            rounds = []
            while len(rounds) < 20000:
                delivered = server.dispatcher.dispatch(_WARN_H, 1, 1.0)
                rounds.append(delivered)
                if not delivered >= stalled_ids:
                    break
                time.sleep(0.001)  # the loop flushes between events, as in `serve`
            # the dispatch that found the outbox full evicted every client of it, at once
            assert rounds[-1] == {"r"}
            assert all(delivered == stalled_ids | {"r"} for delivered in rounds[:-1])
            assert set(server.dispatcher.positions()) == {"r"}
            warn = b"WARN 1 H approaching 1.000\n"
            assert _read_lines(reader, len(rounds)) == warn * len(rounds)
            stalled.settimeout(10)
            while stalled.recv(65536):  # what was written before the eviction, then EOF
                pass
        finally:
            stalled.close()
            reader.close()

    def test_outbox_that_does_not_drain_is_evicted_without_further_events(
            self, server, monkeypatch):
        monkeypatch.setattr(warnd, "WRITE_TIMEOUT_S", 0.3)
        monkeypatch.setattr(warnd, "MAX_OUTBOX_BYTES", 256 << 20)  # only the timeout can evict
        stalled, stalled_ids = _stalled_connection(server, 2000)
        reader = _registered_reader(server)
        try:
            for _ in range(1000):
                assert server.dispatcher.dispatch(_WARN_H, 1, 1.0) == stalled_ids | {"r"}
                if server._stalled:  # the socket took only part of an outbox
                    break
            assert server._stalled
            # no further dispatch: the loop's own timer evicts the connection
            assert _wait_for_size(server.dispatcher, 1) == 1
            assert server.dispatcher.dispatch(_WARN_H, 1, 1.0) == {"r"}
        finally:
            stalled.close()
            reader.close()

    def test_many_connections_one_client_each(self, server):
        threads_before = threading.active_count()
        socks = {}
        try:
            for i in range(300):
                cid = f"c{i}"
                socks[cid] = _connect(server)
                socks[cid].sendall(f"REG {cid} {i * 0.5:.1f} 1.0 0.0\n".encode())
            for cid, sock in socks.items():
                assert _read_lines(sock, 1) == f"OK {cid}\n".encode()
            assert threading.active_count() == threads_before
            area = server.dispatcher.plan.processor(1).area
            expected = {f"c{i}" for i in range(300) if area.contains(i * 0.5, 1.0)}
            assert 40 < len(expected) < 300
            assert server.dispatcher.dispatch(_WARN_H, 1, 1.0) == expected
            for cid in sorted(expected):
                assert _read_lines(socks[cid], 1) == b"WARN 1 H approaching 1.000\n"
            # nothing more on any connection: one WARN per client in the area, none outside
            quiet, _, _ = select.select(list(socks.values()), [], [], 0.2)
            assert quiet == []
            assert threading.active_count() == threads_before
        finally:
            for sock in socks.values():
                sock.close()

    def test_concurrent_dispatches_deliver_what_they_report(self, server):
        # each connection, read all along, gets exactly the WARNs that the
        # dispatches counted as delivered to its clients, however the
        # dispatching threads and the loop interleave
        conns = []
        for k in range(4):
            sock = _connect(server)
            sock.sendall(b"".join(b"REG k%d_%d 30.0 1.0 0.0\n" % (k, i) for i in range(50)))
            assert _read_lines(sock, 50).count(b"OK ") == 50
            conns.append(sock)
        counted = [0] * len(conns)
        received = [b""] * len(conns)
        lock = threading.Lock()
        errors = []
        done = threading.Event()

        def dispatching():
            try:
                for _ in range(100):
                    delivered = server.dispatcher.dispatch(_WARN_H, 1, 1.0)
                    with lock:
                        for cid in delivered:
                            counted[int(cid[1:].split("_")[0])] += 1
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def reading():
            while not done.is_set() or any(select.select(conns, [], [], 0.2)[0]):
                for sock in select.select(conns, [], [], 0.05)[0]:
                    received[conns.index(sock)] += sock.recv(1 << 20)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            reader = threading.Thread(target=reading)
            reader.start()
            threads = [threading.Thread(target=dispatching) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            done.set()
            reader.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads + [reader]) and not errors
        assert counted == [4 * 100 * 50] * len(conns)
        assert received == [b"WARN 1 H approaching 1.000\n" * count for count in counted]
        for sock in conns:
            sock.close()

    def test_dispatch_wakes_the_loop(self):
        srv = WarnServer(("127.0.0.1", 0), build_plan(100.0))
        thread = threading.Thread(target=srv.serve_forever, kwargs={"poll_interval": 600},
                                  daemon=True)
        thread.start()
        try:
            reader = _registered_reader(srv)
            start = time.monotonic()
            assert srv.dispatcher.dispatch(_WARN_H, 1, 1.0) == {"r"}
            assert _read_lines(reader, 1) == b"WARN 1 H approaching 1.000\n"
            assert time.monotonic() - start < 2.0  # not the 600 s poll interval
            reader.close()
        finally:
            srv.shutdown()
            srv.server_close()
        thread.join(5)
        assert not thread.is_alive()

    def test_silent_connection_that_ends_is_closed(self, server):
        sock = _connect(server)
        sock.shutdown(socket.SHUT_WR)
        assert sock.recv(100) == b""
        sock.close()


def _readline_reference(stream):
    """The line rules of a blocking `readline` session: (bodies, too_long)."""
    reader = io.BytesIO(stream)
    bodies = []
    while raw := reader.readline(MAX_LINE_BYTES + 1):
        if len(raw) > MAX_LINE_BYTES and raw.endswith(b"\r"):
            raw += reader.read(1)  # "\r\n" after a line at the cap?
        body = raw.removesuffix(b"\n").removesuffix(b"\r")
        if len(body) > MAX_LINE_BYTES:
            return bodies, True
        bodies.append(body)
    return bodies, False


# runs of "a" of a few bytes or about the cap, cut by "\r", "\n" and "\r\n"
_STREAMS = st.lists(st.one_of(
    st.one_of(st.integers(0, 3), st.integers(MAX_LINE_BYTES - 2, MAX_LINE_BYTES + 2))
    .map(lambda n: b"a" * n),
    st.sampled_from([b"\n", b"\r", b"\r\n", b"\r\r\n", b" \n"])), max_size=10).map(b"".join)


class TestLineRules:
    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_chunked_reads_match_readline(self, data):
        stream = data.draw(_STREAMS)
        # reads that end on either side of a "\r" or "\n", and anywhere
        near = sorted({i + k for i, byte in enumerate(stream) if byte in b"\r\n" for k in (0, 1)})
        cuts = data.draw(st.sets(st.one_of(st.sampled_from(near or [0]),
                                           st.integers(0, len(stream)))))
        bodies, inbox, too_long, start = [], b"", False, 0
        for end in sorted(cuts) + [len(stream)]:
            got, inbox, too_long = warnd._split_lines(inbox + stream[start:end], eof=False)
            bodies += got
            start = end
            if too_long:
                break
        else:
            got, inbox, too_long = warnd._split_lines(inbox, eof=True)
            bodies += got
        expected, expected_too_long = _readline_reference(stream)
        assert [b for b in bodies if b] == [b for b in expected if b]
        assert too_long == expected_too_long


class TestRegistryCap:
    def test_new_ids_refused_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(warnd, "MAX_CLIENTS", 3)
        dispatcher = Dispatcher(build_plan(100.0))
        first, second = _Connection(), _Connection()
        for cid in ("a", "b", "c"):
            assert dispatcher.handle_line(f"REG {cid} 30.0 1.0 0.0", first.send) == f"OK {cid}"
        assert dispatcher.handle_line("REG d 30.0 1.0 0.0", second.send) == "ERR registry full"
        assert dispatcher.handle_line("POS d 30.0 1.0 1.0", second.send) == "ERR unknown-client"
        # known ids still register and move
        assert dispatcher.handle_line("REG a 31.0 1.0 1.0", second.send) == "OK a"
        assert dispatcher.handle_line("POS b 32.0 1.0 1.0", first.send) == "OK b"
        assert dispatcher.positions() == {"a": (31.0, 1.0, 1.0), "b": (32.0, 1.0, 1.0),
                                          "c": (30.0, 1.0, 0.0)}
        # an eviction makes room
        dispatcher.drop_connection(first.send)
        assert dispatcher.handle_line("REG d 30.0 1.0 2.0", second.send) == "OK d"
        assert set(dispatcher.positions()) == {"a", "d"}
        _check_index(dispatcher, dispatcher.plan)


class TestStandaloneService:
    """`python -m roadwarn.warnd` as operators run it: clients on TCP,
    EVENT lines on stdin, a `dispatched to N` line per event on stdout."""

    def test_pipelined_registrations_and_one_event(self, tmp_path):
        plan_path = tmp_path / "plan.ini"
        plan_path.write_text("[plan]\nroad_length = 100\n")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "roadwarn.warnd", "--plan", str(plan_path),
             "--listen", "127.0.0.1:0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=env, bufsize=0)

        def stdout_line():
            ready, _, _ = select.select([proc.stdout], [], [], 10)
            assert ready, "warnd printed nothing for 10 s"
            return proc.stdout.readline().decode()

        try:
            banner = stdout_line()
            assert banner.startswith("warnd listening on 127.0.0.1:")
            sock = socket.create_connection(("127.0.0.1", int(banner.rsplit(":", 1)[1])),
                                            timeout=10)
            # 2,000 clients spread over x in [-10, 190) m, half of them on the road
            regs = [(f"p{i}", (i % 800) * 0.25 - 10.0, 1.0 if i % 2 else 9.0)
                    for i in range(2000)]
            sock.sendall(b"".join(f"REG {cid} {x:.3f} {y:.3f} 0.5\n".encode()
                                  for cid, x, y in regs))
            replies = _read_lines(sock, len(regs)).decode().splitlines()
            assert replies == [f"OK {cid}" for cid, _, _ in regs]

            area = build_plan(100.0).processor(2).area
            expected = sum(area.contains(x, y) for _, x, y in regs)
            assert expected > 50
            proc.stdin.write(b"EVENT 2 H approaching 3.000\n")
            warns = _read_lines(sock, expected)
            assert warns == b"WARN 2 H approaching 3.000\n" * expected
            assert stdout_line() == f"dispatched to {expected} client(s)\n"
            sock.close()
        finally:
            proc.stdin.close()
            try:
                proc.wait(timeout=10)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
                proc.stdout.close()
        assert proc.returncode == 0

    def test_out_of_descriptors_the_loop_waits_for_a_close(self, tmp_path):
        # with its descriptors used up, the server must not spin on the
        # listener (which stays ready) and must accept again after a close
        plan_path = tmp_path / "plan.ini"
        plan_path.write_text("[plan]\nroad_length = 100\n")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_NOFILE, (32, 32)); "
                "from roadwarn.warnd import main; sys.exit(main(sys.argv[1:]))")
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = subprocess.Popen(
            [sys.executable, "-c", code, "--plan", str(plan_path), "--listen", "127.0.0.1:0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=dict(os.environ, PYTHONPATH=src))
        socks = []
        try:
            port = int(proc.stdout.readline().rsplit(b":", 1)[1])
            socks = [socket.create_connection(("127.0.0.1", port), timeout=10) for _ in range(40)]
            time.sleep(2.0)
            for sock in socks:
                sock.close()
            sock = socket.create_connection(("127.0.0.1", port), timeout=10)
            socks = [sock]
            sock.sendall(b"REG a 30.0 1.0 0.0\n")
            assert _read_lines(sock, 1) == b"OK a\n"
        finally:
            for sock in socks:
                sock.close()
            proc.stdin.close()
            try:
                proc.wait(timeout=10)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
                proc.stdout.close()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        assert cpu < 1.2, f"the server used {cpu:.2f} s of CPU in 2 s with nothing to do"
