import socket
import threading
import time

import numpy as np
import pytest

from roadwarn.classifiers import SoundClass
from roadwarn.decision import APPROACHING, RECEDING, UNKNOWN, DetectionResult
from roadwarn.deployment import build_plan, members_in_area
from roadwarn.warnd import (Ack, Dispatcher, PositionUpdate, ProtocolError, Register,
                            Reject, WarnServer, WarningMessage, decode, encode,
                            parse_event_line)


class TestProtocol:
    def test_warn_encoding(self):
        msg = WarningMessage(processor_id=2, sound_class=SoundClass.LH,
                             direction=APPROACHING, event_time=4.25)
        assert encode(msg) == "WARN 2 LH approaching 4.250"

    def test_roundtrip_random_messages(self):
        rng = np.random.default_rng(2)

        def coord():
            return float(rng.integers(-50000, 50000)) / 1000.0

        for _ in range(300):
            kind = rng.integers(0, 5)
            if kind == 0:
                msg = Register(f"c{rng.integers(0, 999)}", coord(), coord(), abs(coord()))
            elif kind == 1:
                msg = PositionUpdate(f"p_{rng.integers(0, 999)}", coord(), coord(),
                                     abs(coord()))
            elif kind == 2:
                msg = Ack(f"id-{rng.integers(0, 999)}")
            elif kind == 3:
                msg = Reject("stale")
            else:
                msg = WarningMessage(int(rng.integers(0, 50)),
                                     [SoundClass.H, SoundClass.LH][rng.integers(0, 2)],
                                     [APPROACHING, RECEDING, UNKNOWN][rng.integers(0, 3)],
                                     abs(coord()))
            assert decode(encode(msg)) == msg

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
        for line in ("REG p1", "REG p1 1 2", "POS p1 a b 0", "REG p$ 1 2 3",
                     "REG p1 1.2345 0 0", "OK", "WARN 2 H upward 1.0"):
            with pytest.raises(ProtocolError):
                decode(line)

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
            expected = members_in_area(processor.area, self.dispatcher._clients, 15.0,
                                       self.plan.freshness_window)
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
