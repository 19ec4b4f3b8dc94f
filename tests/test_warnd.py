import io
import math
import os
import re
import resource
import select
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roadwarn import warnd
from roadwarn.deployment import DeploymentPlan
from roadwarn.labels import APPROACHING, RECEDING, UNKNOWN, DetectionResult, SoundClass
from roadwarn.warnd import (MAX_LINE_BYTES, Dispatcher, ProtocolError, WarnServer,
                            parse_event_line, warn_line)

from conftest import members_in_area_reference, read_warn_line, registry_positions

_NINES = "9" * 400  # parses to inf as a float
_EVENT_FIELDS = "expected: EVENT <processor_id> <class> <direction> <t>"


class TestProtocol:
    def test_warn_encoding(self):
        result = DetectionResult(climax_index=0, sound_type=SoundClass.LH, direction=APPROACHING)
        assert warn_line(result, 2, 4.25) == "WARN 2 LH approaching 4.250"

    def test_roundtrip_random_messages(self):
        # WARN lines round-trip through warn_line and a client's reader; REG
        # and POS lines in the same format are acknowledged and stored as written
        rng = np.random.default_rng(2)

        def coord():
            return float(rng.integers(-50000, 50000)) / 1000.0

        for _ in range(300):
            kind = rng.integers(0, 3)
            if kind == 2:
                fields = (int(rng.integers(0, 50)),
                          [SoundClass.H, SoundClass.LH][rng.integers(0, 2)],
                          [APPROACHING, RECEDING, UNKNOWN][rng.integers(0, 3)],
                          abs(coord()))
                result = DetectionResult(climax_index=0, sound_type=fields[1],
                                         direction=fields[2])
                assert read_warn_line(warn_line(result, fields[0], fields[3])) == fields
                continue
            dispatcher = Dispatcher(DeploymentPlan(100.0))
            if kind == 0:
                verb, cid = "REG", f"c{rng.integers(0, 999)}"
            else:
                verb, cid = "POS", f"p_{rng.integers(0, 999)}"
                assert dispatcher.handle_line(f"REG {cid} 0 0 0", print) == f"OK {cid}"
            x, y, t = coord(), coord(), abs(coord())
            line = f"{verb} {cid} {x:.3f} {y:.3f} {t:.3f}"
            assert dispatcher.handle_line(line, print) == f"OK {cid}"
            assert registry_positions(dispatcher) == {cid: (x, y, t)}

    def test_malformed_fields(self):
        dispatcher = Dispatcher(DeploymentPlan(100.0))
        for line, reason in (("REG p1", "REG needs 4 fields"),
                             ("REG p1 1 2", "REG needs 4 fields"),
                             ("POS p1 a b 0", "bad x 'a'"),
                             ("REG p$ 1 2 3", "bad client_id 'p$'"),
                             ("REG p1 1.2345 0 0", "bad x '1.2345'"),
                             (f"REG {'p' * 100_000} 1 2 3", "bad client_id 'pppppppppppppppp'..."),
                             (f"{'V' * 40} p1 1 2 3", "unknown verb 'VVVVVVVVVVVVVVVV'...")):
            assert dispatcher.handle_line(line, print) == f"ERR malformed: {reason}"
            assert len(reason) < 64
        assert len(dispatcher) == 0

    @pytest.mark.parametrize("line", ["OK a", "ERR x", "WARN 1 H approaching 1.000"])
    def test_server_verbs_from_client_rejected(self, line):
        dispatcher = Dispatcher(DeploymentPlan(100.0))
        verb = line.split(" ")[0]
        assert dispatcher.handle_line(line, print) == f"ERR malformed: unknown verb {verb!r}"
        assert len(dispatcher) == 0

    def test_event_line(self):
        pid, result, t = parse_event_line("EVENT 3 H approaching 12.500")
        assert pid == 3 and result.sound_type == SoundClass.H and t == 12.5

    @pytest.mark.parametrize("line, reason", [
        ("EVENT 3 XX approaching 1.0", "'XX' is not a valid SoundClass"),
        ("EVENT 3 H sideways 1.0", "bad direction 'sideways'"),
        ("EVENT 3 H approaching 1.2345", "bad t '1.2345'"),
        (f"EVENT 3 H approaching {_NINES}", "bad t 9999999999999999... (not finite)"),
        ("EVENT 3 H 12.5", _EVENT_FIELDS),
        ("EVENT 3 H approaching 1.0 now", _EVENT_FIELDS),
        ("EVENT  3 H approaching 1.0", _EVENT_FIELDS),
        ("WARN 3 H approaching 1.0", _EVENT_FIELDS),
        ("EVENT \u0663 H approaching 1.0", "bad processor_id '\u0663'"),  # Arabic-Indic 3
        ("EVENT 1_0 H approaching 1.0", "bad processor_id '1_0'"),
        ("EVENT +3 H approaching 1.0", "bad processor_id '+3'"),
        ("EVENT -3 H approaching 1.0", "bad processor_id '-3'"),
        ("EVENT 0x10 H approaching 1.0", "bad processor_id '0x10'"),
        ("EVENT 3.0 H approaching 1.0", "bad processor_id '3.0'"),
        (f"EVENT {'9' * 5000} H approaching 1.0", "bad processor_id '9999999999999999'..."),
        (f"EVENT p{'1' * 40} H approaching 1.0", "bad processor_id 'p111111111111111'..."),
        pytest.param(f"EVENT 3 {'X' * 100_000} approaching 1.0",
                     "'XXXXXXXXXXXXXXXX'... is not a valid SoundClass", id="long-class"),
        pytest.param(f"EVENT 3 H {'s' * 100_000} 1.0", "bad direction 'ssssssssssssssss'...",
                     id="long-direction"),
        pytest.param(f"EVENT 3 H approaching {'t' * 100_000}", "bad t 'tttttttttttttttt'...",
                     id="long-t"),
    ])
    def test_event_field_fault(self, line, reason):
        with pytest.raises(ProtocolError) as fault:
            parse_event_line(line)
        assert str(fault.value) == reason
        assert len(reason) < 64


def _sink():
    lines = []
    return lines, lines.append


class TestRegistry:
    def setup_method(self):
        self.dispatcher = Dispatcher(DeploymentPlan(100.0))

    def test_register_ack(self):
        lines, send = _sink()
        assert self.dispatcher.handle_line("REG p1 10.0 1.0 0.0", send) == "OK p1"
        assert registry_positions(self.dispatcher) == {"p1": (10.0, 1.0, 0.0)}

    def test_malformed_register(self):
        lines, send = _sink()
        assert self.dispatcher.handle_line("REG p1", send).startswith("ERR malformed")

    def test_reregister_refreshes(self):
        lines, send = _sink()
        self.dispatcher.handle_line("REG p1 10.0 1.0 0.0", send)
        self.dispatcher.handle_line("REG p1 12.0 2.0 1.0", send)
        assert len(self.dispatcher) == 1
        assert registry_positions(self.dispatcher)["p1"] == (12.0, 2.0, 1.0)

    def test_position_updates(self):
        lines, send = _sink()
        self.dispatcher.handle_line("REG p1 10.0 1.0 0.0", send)
        assert self.dispatcher.handle_line("POS p1 12.5 1.0 1.0", send) == "OK p1"
        assert registry_positions(self.dispatcher)["p1"] == (12.5, 1.0, 1.0)

    def test_unknown_client(self):
        lines, send = _sink()
        assert self.dispatcher.handle_line("POS p9 1.0 1.0 0.0", send) == "ERR unknown-client"

    def test_stale_update_rejected(self):
        lines, send = _sink()
        self.dispatcher.handle_line("REG p1 10.0 1.0 5.0", send)
        assert self.dispatcher.handle_line("POS p1 11.0 1.0 4.0", send) == "ERR stale"
        assert registry_positions(self.dispatcher)["p1"] == (10.0, 1.0, 5.0)

    def test_registry_size_bounded(self):
        lines, send = _sink()
        for i in range(20):
            self.dispatcher.handle_line(f"REG c{i % 7} {i}.0 1.0 {i}.0", send)
        assert len(self.dispatcher) == 7


class TestDispatch:
    def setup_method(self):
        self.plan = DeploymentPlan(100.0)
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
        for pid in range(self.plan.processor_count):
            expected = members_in_area_reference(self.plan.processor(pid),
                                                 self.dispatcher._clients,
                                                 15.0, self.plan.freshness_window)
            assert expected
            before = {cid: len(lines) for cid, lines in self.inbox.items()}
            delivered = self.dispatcher.dispatch(self._event(SoundClass.H), pid, 15.0)
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
            area = self.plan.processor(pid)
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
        # eight sessions whose reads, of one to five lines each, reach the
        # dispatcher in a random order, as the server's loop applies them
        plan = DeploymentPlan(100.0)
        dispatcher = Dispatcher(plan)
        rng = np.random.default_rng(7)
        streams = {}
        for i in range(8):
            cid = f"w{i}"
            lines = [f"REG {cid} {rng.integers(0, 100)}.0 1.0 0.0"]
            for t in range(1, 30):
                lines.append(f"POS {cid} {rng.integers(0, 100)}.0 1.0 {t}.0")
            streams[cid] = lines

        pending = {cid: list(lines) for cid, lines in streams.items()}
        sinks = {cid: [] for cid in streams}
        while pending:
            cid = sorted(pending)[rng.integers(len(pending))]
            size = int(rng.integers(1, 6))
            batch, pending[cid] = pending[cid][:size], pending[cid][size:]
            assert dispatcher.handle_lines(batch, sinks[cid].append) == [f"OK {cid}"] * len(batch)
            if not pending[cid]:
                del pending[cid]
        positions = registry_positions(dispatcher)
        for cid, lines in streams.items():
            last = lines[-1].split()
            assert positions[cid] == (float(last[2]), float(last[3]), float(last[4]))
        result = DetectionResult(climax_index=8, sound_type=SoundClass.H,
                                 direction=APPROACHING)
        delivered = dispatcher.dispatch(result, 2, 29.0)
        area = plan.processor(2)
        expected = {cid for cid, (x, y, t) in positions.items()
                    if area.contains(x, y) and 29.0 - t <= plan.freshness_window}
        assert delivered == expected


class TestMainArgs:
    @pytest.mark.parametrize("listen", ["not-an-endpoint", "127.0.0.1:99999"])
    def test_listen_must_be_addr_port(self, tmp_path, capsys, listen):
        from roadwarn.warnd import main

        plan = tmp_path / "plan.ini"
        plan.write_text("[plan]\nroad_length = 100\n")
        with pytest.raises(SystemExit) as exit_info:
            main(["--plan", str(plan), "--listen", listen])
        assert exit_info.value.code == 1
        assert capsys.readouterr().err.endswith(
            f"warnd: error: argument --listen: must be addr:port, got {listen!r}\n")

    def test_missing_option_is_a_usage_error(self):
        from roadwarn.warnd import main

        with pytest.raises(SystemExit) as exit_info:
            main(["--listen", "127.0.0.1:0"])
        assert exit_info.value.code == 1

    def test_bad_plan_is_a_data_error(self, tmp_path, capsys):
        from roadwarn.warnd import main

        plan = tmp_path / "plan.ini"
        plan.write_text("[plan]\nroad_length = 100\nmic_height = 3\n")
        assert main(["--plan", str(plan), "--listen", "127.0.0.1:0"]) == 2
        assert "unknown [plan] key 'mic_height'" in capsys.readouterr().err
        assert main(["--plan", str(tmp_path / "missing.ini"), "--listen", "127.0.0.1:0"]) == 2
        assert "missing.ini" in capsys.readouterr().err
        # files configparser cannot read: no section header, a key twice, a `%`
        for text in ("road_length = 100\n", "[plan]\nroad_length = 100\nroad_length = 50\n",
                     "[plan]\nroad_length = 200%\n"):
            plan.write_text(text)
            assert main(["--plan", str(plan), "--listen", "127.0.0.1:0"]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith(f"error: {plan}: ") and err.count("\n") == 1

    def test_port_in_use_is_a_data_error(self, tmp_path, capsys):
        from roadwarn.warnd import main

        with socket.create_server(("127.0.0.1", 0)) as taken:
            listen = f"127.0.0.1:{taken.getsockname()[1]}"
            assert main(["--plan", _plan_file(tmp_path), "--listen", listen]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestTcpServer:
    def test_end_to_end_over_sockets(self, server):
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
        assert server.warned("EVENT 1 LH approaching 1.000") == 1
        assert f1.readline().decode().strip() == "WARN 1 LH approaching 1.000"
        assert server.report("EVENT 7 LH approaching 1.000") == (
            "event error: 'no processor 7 in plan'")
        assert server.report("EVENT 1 LH") == (
            "event error: expected: EVENT <processor_id> <class> <direction> <t>")
        s1.close()
        s2.close()


# -- hostile input --------------------------------------------------------------


class TestNonFinite:
    @pytest.mark.parametrize("field, line", [
        ("x", f"REG p1 {_NINES} 1.0 0.0"),
        ("y", f"REG p1 1.0 -{_NINES} 0.0"),
        ("t", f"POS p1 1.0 1.0 {_NINES}.5"),
    ])
    def test_overflowing_decimal_rejected(self, field, line):
        dispatcher = Dispatcher(DeploymentPlan(100.0))
        response = dispatcher.handle_line(line, print)
        assert response.startswith(f"ERR malformed: bad {field} ")
        assert response.endswith("... (not finite)")
        assert len(dispatcher) == 0

    def test_overflowing_event_time_rejected(self):
        with pytest.raises(ProtocolError):
            parse_event_line(f"EVENT 1 H approaching {_NINES}")


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


class TestFuzz:
    @settings(max_examples=400, deadline=None)
    @given(_LINES)
    def test_handle_line_answers_ok_or_err(self, line):
        dispatcher = Dispatcher(DeploymentPlan(100.0))
        response = dispatcher.handle_line(line, print)
        assert response.startswith(("OK ", "ERR "))
        assert all(math.isfinite(r.x) and math.isfinite(r.y) and math.isfinite(r.t)
                   for r in dispatcher._clients.values())
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
        assert re.fullmatch(r"[0-9]+", line.strip().split(" ")[1])


_CLIENT_ID_REFERENCE = re.compile(r"[A-Za-z0-9_-]{1,32}\Z")
_DECIMAL_REFERENCE = re.compile(r"-?[0-9]+(\.[0-9]{1,3})?\Z")


def _quoted(token):
    """A token as a wire error quotes it: its repr, or the repr of its first
    16 characters followed by `...`."""
    return repr(token) if len(token) <= 16 else repr(token[:16]) + "..."


def _parse_position_reference(line):
    """`warnd._parse_position` before one pattern matched the whole line:
    split, then check each field.  Kept as the oracle for its results and
    its error messages."""
    parts = line.strip().split(" ")
    verb = parts[0]
    if verb not in ("REG", "POS"):
        raise ProtocolError(f"unknown verb {_quoted(verb)}")
    if len(parts) != 5:
        raise ProtocolError(f"{verb} needs 4 fields")
    if not _CLIENT_ID_REFERENCE.match(parts[1]):
        raise ProtocolError(f"bad client_id {_quoted(parts[1])}")
    values = []
    for what, token in zip("xyt", parts[2:]):
        if not _DECIMAL_REFERENCE.match(token):
            raise ProtocolError(f"bad {what} {_quoted(token)}")
        value = float(token)
        if math.isinf(value):
            raise ProtocolError(f"bad {what} {token[:16]}... (not finite)")
        values.append(value)
    return (verb, parts[1], *values)


def _parsed_or_error(parse, line):
    try:
        return repr(parse(line))  # repr tells -0.0 from 0.0
    except ProtocolError as exc:
        return f"ProtocolError: {exc}"


_DECIMAL_TOKENS = st.one_of(
    st.decimals(allow_nan=False, allow_infinity=False, places=3).map(str),
    st.integers(-10**400, 10**400).map(str),
    st.integers(0, 1000).map(lambda zeros: "-" + "0" * zeros + "1.5"),  # up to 1024-byte lines
    st.sampled_from([_NINES, "-" + _NINES, _NINES + ".5", "1.2345", "1.", ".5", "1e3", "nan",
                     "-0", "-0.000", "١", "1_0", "+1", "1\t", "1\r"]))
_CLIENT_ID_TOKENS = st.one_of(st.from_regex(r"[A-Za-z0-9_-]{1,32}", fullmatch=True),
                              st.sampled_from(["x" * 33, "p$", "", "p\t1", "ä"]))
# REG/POS-shaped lines: mostly well formed, with overflowing decimals, tabs,
# "\r", doubled spaces, missing or extra fields and lines up to 1024 bytes
_POSITION_LINES = st.builds(
    lambda verb, cid, values, sep, lead, end: lead + sep.join([verb, cid, *values]) + end,
    st.sampled_from(["REG", "POS", "reg", "OK"]), _CLIENT_ID_TOKENS,
    st.lists(_DECIMAL_TOKENS, min_size=2, max_size=4),
    st.sampled_from([" ", " ", " ", "\t", "  "]), st.sampled_from(["", " ", "\t"]),
    st.sampled_from(["", "", "\r", "\t", " \r", "\n", "\r\n"]))


class TestClientLinePath:
    @settings(max_examples=1000, deadline=None)
    @given(st.one_of(_LINES, _POSITION_LINES))
    @example(f"REG p1 1.5 {_NINES} 0")
    @example(f"POS p1 {_NINES} {_NINES} 0")
    @example("REG p1 1.5 2.5 " + "0" * 1006 + "1.5")  # MAX_LINE_BYTES long
    @example("REG\tp1 1.5 2.5 3.5")
    @example("POS p1 1.5 2.5 3.5\r")
    def test_parse_matches_field_by_field_reference(self, line):
        assert (_parsed_or_error(warnd._parse_position, line)
                == _parsed_or_error(_parse_position_reference, line))

    def test_batch_matches_line_by_line(self, monkeypatch):
        monkeypatch.setattr(warnd, "MAX_CLIENTS", 4)
        batches = [
            (0, ["REG a 30.0 1.0 5.0", "REG b 10.0 1.0 5.0", "POS a 55.0 2.0 6.0",
                 "POS a 56.0 2.0 4.0",                                # stale
                 "POS zz 1.0 1.0 1.0",                                # unknown
                 "REG a 1.2345 0 0", "HELLO", f"REG c 1.0 {_NINES} 0",  # malformed
                 "REG c 50.0 0.0 5.0", "REG d 75.0 7.0 5.0",
                 "REG e 20.0 1.0 5.0",                                # registry full
                 "POS d 80.0 3.0 5.0"]),
            (1, ["REG a 25.0 1.0 7.0",                                # re-REG on another send
                 "REG b 12.0 1.0 4.0",                                # stale re-REG keeps its send
                 "POS c 25.0 3.5 6.0", "REG e 20.0 1.0 5.0"]),
            (0, ["REG a 26.0 1.0 8.0", "POS b 200.0 1.0 9.0"]),
        ]
        plan = DeploymentPlan(100.0)
        batched, single = Dispatcher(plan), Dispatcher(plan)
        batched_conns = [_Connection(), _Connection()]
        single_conns = [_Connection(), _Connection()]
        replies = []
        for conn, lines in batches:
            replies.append(batched.handle_lines(lines, batched_conns[conn].send))
            assert replies[-1] == [single.handle_line(line, single_conns[conn].send)
                                   for line in lines]
        assert replies == [
            ["OK a", "OK b", "OK a", "ERR stale", "ERR unknown-client",
             "ERR malformed: bad x '1.2345'", "ERR malformed: unknown verb 'HELLO'",
             f"ERR malformed: bad y {_NINES[:16]}... (not finite)", "OK c", "OK d",
             "ERR registry full", "OK d"],
            ["OK a", "ERR stale", "OK c", "ERR registry full"],
            ["OK a", "OK b"]]

        warn = DetectionResult(climax_index=8, sound_type=SoundClass.H, direction=APPROACHING)

        def state(dispatcher, conns):
            # whom each area warns, and on which connection, for an event that
            # finds every record fresh
            warned = {}
            for pid in range(plan.processor_count):
                before = [len(conn.payloads) for conn in conns]
                warned[pid] = (dispatcher.dispatch(warn, pid, 6.5),
                               [conn.calls(start) for conn, start in zip(conns, before)])
            sends = [conn.send for conn in conns]
            return (registry_positions(dispatcher), warned,
                    {sends.index(send): cids for send, cids in dispatcher._by_send.items()})

        assert state(batched, batched_conns) == state(single, single_conns)
        assert registry_positions(batched) == {"a": (26.0, 1.0, 8.0), "b": (200.0, 1.0, 9.0),
                                               "c": (25.0, 3.5, 6.0), "d": (80.0, 3.0, 5.0)}
        assert state(batched, batched_conns)[2] == {0: {"a", "b", "c", "d"}}  # POS binds nothing
        _check_index(batched, plan)


# -- the area index -------------------------------------------------------------

# Every edge is a 3-decimal value, as the wire carries it, so a registered
# position equals the drawn one on each edge.
_PLANS = {"below": DeploymentPlan(100.0, danger_length=10.0),   # gaps between areas
          "equal": DeploymentPlan(100.0),                      # areas share their edges
          "above": DeploymentPlan(100.0, danger_length=40.0),  # areas overlap
          # a point can lie in three areas
          "triple": DeploymentPlan(100.0, processor_spacing=12.5, danger_length=30.0)}


class _Connection:
    """An in-process client connection: collects the payload of each `send`
    call, or fails."""

    def __init__(self):
        self.payloads = []
        self.broken = False

    def send(self, text):
        if self.broken:
            raise BrokenPipeError("peer gone")
        self.payloads.append(text)

    def calls(self, start=0):
        """The lines of each `send` call from the `start`-th on."""
        return [text.split("\n") for text in self.payloads[start:]]


def _coordinates(plan):
    areas = [plan.processor(pid) for pid in range(plan.processor_count)]
    edges = sorted({a.x0 for a in areas} | {a.x0 + a.length for a in areas})
    width = plan.road_width
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
    pids = list(range(plan.processor_count))
    # A few sites recur, and events go to the areas that hold them as often as
    # to any area, so that records live to age and an aged record is dispatched to.
    sites = draw(st.lists(st.tuples(xs, ys), min_size=1, max_size=3))
    held = sorted({pid for x, y in sites for pid in plan.areas_at(x, y)}) or pids
    # Times are 3-decimal values, drawn in ms.  A few stamps recur, and
    # dispatch times fall on and 1 ms either side of each stamp +- the
    # window, where `event_time - t` may round onto or past the window.  A
    # dispatch far ahead sets its whole area aside, and the events after it
    # are stamped before its mark.
    whole_or_ms = st.one_of(st.integers(0, 12).map(lambda s: s * 1000), st.integers(0, 12000))
    stamps = draw(st.lists(whole_or_ms, min_size=1, max_size=4))
    window_ms = round(plan.freshness_window * 1000)
    band = sorted({s + side * window_ms + d for s in stamps for side in (-1, 1)
                   for d in (-1, 0, 1)})
    ts = st.one_of(st.sampled_from(stamps), whole_or_ms).map(lambda ms: ms / 1000)
    nows = st.one_of(st.sampled_from(band), st.integers(0, 14000),
                     st.just(10**8)).map(lambda ms: ms / 1000)
    update = st.tuples(st.sampled_from(["REG", "POS"]), st.integers(0, 7),
                       st.one_of(st.sampled_from(sites), st.tuples(xs, ys)), ts,
                       st.integers(0, 2)).map(lambda u: (u[0], u[1], *u[2], *u[3:]))
    dispatch = st.tuples(st.just("dispatch"),
                         st.one_of(st.sampled_from(held), st.sampled_from(pids)), nows)
    ending = st.tuples(st.sampled_from(["close", "break"]), st.integers(0, 2))
    # three updates and three events to a connection's end, so that records live to age
    kinds = {"update": update, "dispatch": dispatch, "ending": ending}
    step = st.sampled_from(["update", "dispatch"] * 3 + ["ending"]).flatmap(kinds.get)
    return plan, draw(st.lists(step, min_size=10, max_size=40))


def _check_index(dispatcher, plan):
    clients = dispatcher._clients
    assert len(dispatcher._shelves) == plan.processor_count
    for pid, shelves in enumerate(dispatcher._shelves):
        inside = {cid for cid, r in clients.items() if plan.processor(pid).contains(r.x, r.y)}
        shelved = []
        for send, shelf in shelves.items():
            # no shelf is empty, and an ordered one is sorted
            assert shelf.cids and len(shelf.times) == len(shelf.cids)
            assert not shelf.ordered or shelf.times == sorted(shelf.times)
            # a record sits on the shelf of its own send, with its own time
            assert all(clients[cid].send == send for cid in shelf.cids)
            assert shelf.times == [clients[cid].t for cid in shelf.cids]
            shelved += shelf.cids
        # each client in the area sits on exactly one of its shelves
        assert sorted(shelved) == sorted(inside)
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
    # two clients of one connection in one area, one on a connection that then breaks
    @example((_PLANS["equal"], [("REG", 0, 30.0, 1.0, 0, 0), ("REG", 1, 40.0, 1.0, 0, 0),
                                ("REG", 2, 35.0, 1.0, 0, 1), ("break", 1), ("dispatch", 1, 0)]))
    # times out of order on one connection, one record stale, then a POS past the newest
    @example((_PLANS["equal"], [("REG", 0, 30.0, 1.0, 5.0, 0), ("REG", 1, 35.0, 1.0, 1.0, 0),
                                ("REG", 2, 40.0, 1.0, 8.0, 0), ("REG", 3, 45.0, 1.0, 3.0, 0),
                                ("dispatch", 1, 7.0), ("POS", 1, 26.0, 1.0, 9.0, 0),
                                ("dispatch", 1, 12.5), ("dispatch", 1, 4.0)]))
    # one-record shelves on the window's edges: fl(now - t) exactly +window, just past
    # it, exactly -window, just past it
    @example((_PLANS["equal"], [("REG", 0, 30.0, 1.0, 0.001, 0), ("REG", 1, 40.0, 1.0, 3.002, 1),
                                ("dispatch", 1, 5.001), ("dispatch", 1, 8.002)]))
    @example((_PLANS["equal"], [("REG", 0, 30.0, 1.0, 5.238, 0), ("REG", 1, 40.0, 1.0, 8.002, 1),
                                ("dispatch", 1, 0.238), ("dispatch", 1, 3.002)]))
    # the same edges on one shelf, where bisection finds them
    @example((_PLANS["equal"], [("REG", 0, 30.0, 1.0, 0.001, 0), ("REG", 1, 35.0, 1.0, 3.002, 0),
                                ("REG", 2, 40.0, 1.0, 5.238, 0), ("REG", 3, 45.0, 1.0, 8.002, 0),
                                ("dispatch", 1, 5.001), ("dispatch", 1, 8.002),
                                ("dispatch", 1, 0.238), ("dispatch", 1, 3.002)]))
    def test_shelves_and_dispatch_match_whole_registry(self, scenario):
        plan, steps = scenario
        dispatcher = Dispatcher(plan)
        conns = [_Connection() for _ in range(3)]
        shadow = {}  # cid -> [x, y, t, connection index]
        warn = DetectionResult(climax_index=8, sound_type=SoundClass.H, direction=APPROACHING)
        for step in steps:
            if step[0] in ("REG", "POS"):
                verb, n, x, y, t, k = step
                cid = f"c{n}"
                response = dispatcher.handle_line(f"{verb} {cid} {x:.3f} {y:.3f} {t:.3f}",
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
                area = plan.processor(pid)
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
                line = f"WARN {pid} H approaching {now:.3f}"
                for k, conn in enumerate(conns):
                    count = sum(1 for cid in delivered if shadow[cid][3] == k)
                    # at most one call per connection, one line per client it registered
                    assert conn.calls(before[k]) == ([[line] * count] if count else [])
                shadow = {cid: s for cid, s in shadow.items() if s[3] not in dead}
            assert registry_positions(dispatcher) == {cid: (x, y, float(t))
                                                      for cid, (x, y, t, _) in shadow.items()}
            _check_index(dispatcher, plan)

    def test_position_updates_move_client_between_areas(self):
        dispatcher = Dispatcher(DeploymentPlan(100.0))
        pids = range(dispatcher.plan.processor_count)
        warn = DetectionResult(climax_index=8, sound_type=SoundClass.H, direction=APPROACHING)
        path = [("REG", 30.0, 1.0, ["1"]), ("POS", 25.0, 7.0, ["0", "1"]),
                ("POS", 60.0, 0.0, ["2"]), ("POS", 60.0, 7.5, []),
                ("POS", 125.0, 3.0, ["4"]), ("POS", 125.5, 3.0, []), ("REG", 0.0, 0.0, ["0"])]
        conn = _Connection()
        for t, (verb, x, y, areas) in enumerate(path):
            assert dispatcher.handle_line(f"{verb} a {x} {y} {t}", conn.send) == "OK a"
            _check_index(dispatcher, dispatcher.plan)
            # an event 10 s later finds it stale in every area, and one at its own
            # time, after that, finds it in its areas alone
            assert [dispatcher.dispatch(warn, pid, t + 10.0) for pid in pids] == [set()] * len(pids)
            assert [str(pid) for pid in pids if dispatcher.dispatch(warn, pid, t)] == areas
            _check_index(dispatcher, dispatcher.plan)

    def test_in_order_dispatch_skips_stale_records_and_earlier_event_still_warns(self):
        dispatcher = Dispatcher(DeploymentPlan(100.0))
        conn = _Connection()
        warn = DetectionResult(climax_index=8, sound_type=SoundClass.H, direction=APPROACHING)
        dispatcher.handle_line("REG old 30.0 1.0 0.0", conn.send)
        dispatcher.handle_line("REG new 40.0 1.0 8.0", conn.send)
        assert dispatcher.dispatch(warn, 1, 10.0) == {"new"}
        _check_index(dispatcher, dispatcher.plan)
        # stamped before it: "old" is 4 s old for it and "new" 4 s ahead, both fresh
        assert dispatcher.dispatch(warn, 1, 4.0) == {"old", "new"}
        assert conn.calls() == [["WARN 1 H approaching 10.000"],
                                ["WARN 1 H approaching 4.000"] * 2]
        _check_index(dispatcher, dispatcher.plan)

    def test_far_future_event_leaves_the_next_events_exact(self):
        plan = DeploymentPlan(100.0)
        dispatcher = Dispatcher(plan)
        conn = _Connection()
        warn = DetectionResult(climax_index=8, sound_type=SoundClass.H, direction=APPROACHING)
        for i, t in enumerate([0.0, 3.0, 6.0, 9.0, 12.0]):
            dispatcher.handle_line(f"REG c{i} {30 + i}.0 1.0 {t}", conn.send)
        assert dispatcher.dispatch(warn, 1, 99999999.0) == set()
        # normally stamped events after it: each warns exactly what is fresh for it
        for k, now in enumerate((10.0, 11.0, 15.0, 4.0)):
            expected = members_in_area_reference(plan.processor(1), dispatcher._clients, now,
                                                 plan.freshness_window)
            assert expected and dispatcher.dispatch(warn, 1, now) == set(expected)
            assert conn.calls(k) == [[f"WARN 1 H approaching {now:.3f}"] * len(expected)]
            _check_index(dispatcher, plan)

    def test_pos_on_stale_record_gets_the_next_warn(self):
        dispatcher = Dispatcher(DeploymentPlan(100.0))
        conn = _Connection()
        warn = DetectionResult(climax_index=8, sound_type=SoundClass.LH, direction=APPROACHING)
        dispatcher.handle_line("REG a 30.0 1.0 0.0", conn.send)
        assert dispatcher.dispatch(warn, 1, 10.0) == set()
        assert dispatcher.handle_line("POS a 30.0 1.0 9.0", conn.send) == "OK a"  # same place
        _check_index(dispatcher, dispatcher.plan)
        assert dispatcher.dispatch(warn, 1, 11.0) == {"a"}
        assert conn.calls() == [["WARN 1 LH approaching 11.000"]]

    @pytest.mark.parametrize("ending", ["close", "break"])
    def test_shared_edge_client_stale_in_one_area_is_evicted_from_both(self, ending):
        dispatcher = Dispatcher(DeploymentPlan(100.0))
        conn, other = _Connection(), _Connection()
        warn = DetectionResult(climax_index=8, sound_type=SoundClass.H, direction=APPROACHING)
        dispatcher.handle_line("REG edge 50.0 1.0 0.0", conn.send)  # in areas 1 and 2
        dispatcher.handle_line("REG stay 60.0 1.0 0.0", other.send)  # in area 2
        assert dispatcher.dispatch(warn, 1, 10.0) == set()
        assert dispatcher.dispatch(warn, 2, 0.0) == {"edge", "stay"}
        if ending == "close":
            dispatcher.drop_connection(conn.send)
        else:
            conn.broken = True
            assert dispatcher.dispatch(warn, 2, 4.0) == {"stay"}
        assert set(registry_positions(dispatcher)) == {"stay"}
        assert dispatcher.dispatch(warn, 1, 0.0) == set()
        assert dispatcher.dispatch(warn, 2, 0.0) == {"stay"}
        _check_index(dispatcher, dispatcher.plan)

    # (event_time, t): fl(event_time - t) is exactly +window, just past it, exactly
    # -window, just past it; `t < event_time - window` and `t > event_time + window`
    # round the other way on the first and third
    @pytest.mark.parametrize("event_time, t", [(5.001, 0.001), (8.002, 3.002),
                                               (0.238, 5.238), (3.002, 8.002)])
    def test_window_edge_rounding_matches_whole_registry(self, event_time, t):
        plan = DeploymentPlan(100.0)
        warn = DetectionResult(climax_index=8, sound_type=SoundClass.H, direction=APPROACHING)
        # an in-order event, the same event again, and an event stamped before the mark
        for times in ([event_time, event_time], [event_time + 10.0, event_time]):
            dispatcher = Dispatcher(plan)
            dispatcher.handle_line(f"REG a 30.0 1.0 {t:.3f}", print)
            for now in times:
                expected = members_in_area_reference(plan.processor(1), dispatcher._clients,
                                                     now, plan.freshness_window)
                assert dispatcher.dispatch(warn, 1, now) == set(expected)
                _check_index(dispatcher, plan)

    def test_shared_connection_gets_one_line_per_client(self):
        dispatcher = Dispatcher(DeploymentPlan(100.0))
        conn = _Connection()
        assert dispatcher.handle_line("REG a 30.0 1.0 0.0", conn.send) == "OK a"
        assert dispatcher.handle_line("REG b 40.0 1.0 0.0", conn.send) == "OK b"
        result = DetectionResult(climax_index=8, sound_type=SoundClass.LH, direction=APPROACHING)
        assert dispatcher.dispatch(result, 1, 1.0) == {"a", "b"}
        assert conn.calls() == [["WARN 1 LH approaching 1.000"] * 2]  # one call, two lines

    def test_reregistering_through_new_sinks_keeps_one_binding(self):
        # cli.simulate hands every line a fresh callable
        dispatcher = Dispatcher(DeploymentPlan(100.0))
        for t in range(50):
            assert dispatcher.handle_line(f"REG a 30.0 1.0 {t}.0", lambda line: None) == "OK a"
        assert len(dispatcher._by_send) == 1
        assert dispatcher._by_send[dispatcher._clients["a"].send] == {"a"}


class TestEviction:
    def _warn(self, dispatcher, pid=1, t=1.0):
        result = DetectionResult(climax_index=8, sound_type=SoundClass.H, direction=APPROACHING)
        return dispatcher.dispatch(result, pid, t)

    def test_failing_send_is_evicted_and_not_reported(self):
        dispatcher = Dispatcher(DeploymentPlan(100.0))
        dead, alive = _Connection(), _Connection()
        dead.broken = True
        dispatcher.handle_line("REG gone 30.0 1.0 0.0", dead.send)
        dispatcher.handle_line("REG far 90.0 1.0 0.0", dead.send)  # same connection, area 3
        dispatcher.handle_line("REG here 35.0 1.0 0.0", alive.send)
        assert len(dispatcher) == 3
        assert self._warn(dispatcher) == {"here"}
        assert len(dispatcher) == 1
        assert set(registry_positions(dispatcher)) == {"here"}
        assert self._warn(dispatcher) == {"here"}
        assert self._warn(dispatcher, pid=3) == set()
        _check_index(dispatcher, dispatcher.plan)

    def test_drop_connection_skips_clients_that_moved(self):
        dispatcher = Dispatcher(DeploymentPlan(100.0))
        old, new = _Connection(), _Connection()
        dispatcher.handle_line("REG a 30.0 1.0 0.0", old.send)
        dispatcher.handle_line("REG b 31.0 1.0 0.0", old.send)
        dispatcher.handle_line("REG a 32.0 1.0 1.0", new.send)
        dispatcher.drop_connection(old.send)
        assert set(registry_positions(dispatcher)) == {"a"}
        assert self._warn(dispatcher) == {"a"}
        assert new.payloads == ["WARN 1 H approaching 1.000"] and old.payloads == []


    def test_concurrent_sessions_keep_index_and_connections_consistent(self):
        # six sessions and a stream of dispatches, interleaved step by step
        # in a random order on one thread, as the server's loop runs them
        plan = DeploymentPlan(100.0, danger_length=40.0)
        dispatcher = Dispatcher(plan)
        warn = DetectionResult(climax_index=8, sound_type=SoundClass.H, direction=APPROACHING)

        def session(k):
            rng = np.random.default_rng(k)
            conn = _Connection()
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
                yield

        def events():
            i = 0
            while True:
                dispatcher.dispatch(warn, i % plan.processor_count, float(i % 400))
                i += 1
                yield

        runs = [session(k) for k in range(6)] + [events()]
        order = np.random.default_rng(99)
        while len(runs) > 1:  # until every session has ended
            run = runs[order.integers(len(runs))]
            try:
                next(run)
            except StopIteration:
                runs.remove(run)
            _check_index(dispatcher, plan)


# -- the TCP session --------------------------------------------------------------

class _LiveServer:
    """A `WarnServer` whose loop runs on its own thread: the test writes
    EVENT lines into one end of a socketpair, the server's feed, and reads
    the server's report on each event, `dispatched to N client(s)` or
    `event error: ...`, from another."""

    def __init__(self, plan):
        self.feed, server_feed = socket.socketpair()
        self._reports, server_reports = socket.socketpair()
        self._reports.settimeout(30)
        self.reports = self._reports.makefile("r", encoding="utf-8")
        self._server_stream = server_reports.makefile("w", encoding="utf-8")
        self._server_ends = (server_feed, server_reports)
        self.srv = WarnServer(("127.0.0.1", 0), plan, server_feed,
                              self._server_stream, self._server_stream)
        self.server_address = self.srv.server_address
        self.thread = threading.Thread(target=self.srv.run, daemon=True)
        self.thread.start()

    def report(self, line: str) -> str:
        """Feed one EVENT line; the server's report on it."""
        self.feed.sendall(f"{line}\n".encode())
        return self.reports.readline().removesuffix("\n")

    def warned(self, line: str = "EVENT 1 H approaching 1.000") -> int:
        """Feed one EVENT line; the N of its `dispatched to N client(s)`."""
        report = self.report(line)
        match = re.fullmatch(r"dispatched to (\d+) client\(s\)", report)
        assert match, report
        return int(match[1])

    def size(self) -> int:
        """The registry's size, read from this thread: one `len` of a dict."""
        return len(self.srv.dispatcher)

    def stop(self) -> None:
        self.feed.close()  # EOF on the feed ends the loop
        self.thread.join(10)
        assert not self.thread.is_alive(), "the loop did not end at the feed's EOF"
        self.srv.server_close()
        for stream in (self.reports, self._server_stream, self._reports,
                       *self._server_ends):
            stream.close()


@pytest.fixture
def server():
    live = _LiveServer(DeploymentPlan(100.0))
    yield live
    live.stop()


def _connect(srv):
    return socket.create_connection(("127.0.0.1", srv.server_address[1]), timeout=5)


def _read_lines(sock, count):
    data = b""
    while data.count(b"\n") < count:
        chunk = sock.recv(65536)
        assert chunk, f"connection closed after {data!r}"
        data += chunk
    return data


def _wait_for_size(server, size):
    deadline = time.time() + 10
    while server.size() != size and time.time() < deadline:
        time.sleep(0.01)
    return server.size()


class TestSession:
    def test_shared_connection_bytes(self, server):
        sock = _connect(server)
        sock.sendall(b"REG a 30.0 1.0 0.0\nREG b 40.0 1.0 0.0\n")
        assert _read_lines(sock, 2) == b"OK a\nOK b\n"
        assert server.warned("EVENT 1 LH approaching 1.000") == 2
        assert _read_lines(sock, 2) == b"WARN 1 LH approaching 1.000\n" * 2
        sock.close()

    def test_disconnected_client_is_evicted(self, server):
        leaving, staying = _connect(server), _connect(server)
        leaving.sendall(b"REG gone 30.0 1.0 0.0\n")
        staying.sendall(b"REG here 35.0 1.0 0.0\n")
        assert _read_lines(leaving, 1) == b"OK gone\n"
        assert _read_lines(staying, 1) == b"OK here\n"
        assert server.size() == 2
        leaving.close()
        assert _wait_for_size(server, 1) == 1
        assert server.warned() == 1
        assert _read_lines(staying, 1) == b"WARN 1 H approaching 1.000\n"
        staying.close()

    def test_unterminated_last_line_answered(self, server):
        sock = _connect(server)
        sock.sendall(b"REG a 10.0 1.0 0.0\r\n\nREG b 20.0 1.0 0.0")
        sock.shutdown(socket.SHUT_WR)
        assert _read_lines(sock, 2) == b"OK a\nOK b\n"
        assert sock.recv(100) == b""
        sock.close()
        assert _wait_for_size(server, 0) == 0

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
        assert _wait_for_size(server, 0) == 0

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
            # each report comes within the report socket's timeout: no event
            # waits on the client that stopped reading
            rounds = [server.warned()]
            while rounds[-1] == 201 and len(rounds) <= 100000:
                rounds.append(server.warned())
            assert rounds[-1] == 1  # r alone
            assert all(count == 201 for count in rounds[:-1])
            assert server.size() == 1
            assert server.warned() == 1
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
    return sock


def _registered_reader(srv, cid="r"):
    sock = _connect(srv)
    sock.sendall(f"REG {cid} 35.0 1.0 0.0\n".encode())
    assert _read_lines(sock, 1) == f"OK {cid}\n".encode()
    return sock


class TestTransport:
    """The selectors loop: outboxes, eviction, and one thread that serves
    the feed and all connections."""

    def test_stalled_readers_do_not_hold_dispatch(self, server):
        stalled = [_stalled_connection(server, 200) for _ in range(3)]
        reader = _registered_reader(server)
        try:
            rounds, slowest = [], 0.0
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                start = time.monotonic()
                rounds.append(server.warned())
                slowest = max(slowest, time.monotonic() - start)
                if rounds[-1] != 601:  # the 600 stalled clients and r
                    break
            assert slowest < 1.0, f"an event took {slowest:.2f} s"
            assert rounds[-1] == 1, "the stalled clients were never evicted"  # r alone
            assert all(count == 601 for count in rounds[:-1])
            assert server.size() == 1
            warn = b"WARN 1 H approaching 1.000\n"
            assert _read_lines(reader, len(rounds)) == warn * len(rounds)
        finally:
            for sock in stalled:
                sock.close()
            reader.close()

    def test_outbox_over_the_cap_evicts_its_connection(self, server, monkeypatch):
        monkeypatch.setattr(warnd, "MAX_OUTBOX_BYTES", 64 * 1024)
        monkeypatch.setattr(warnd, "WRITE_TIMEOUT_S", 600.0)  # only the cap can evict
        stalled = _stalled_connection(server, 200)
        reader = _registered_reader(server)
        try:
            rounds = [server.warned()]
            while rounds[-1] == 201 and len(rounds) < 20000:
                rounds.append(server.warned())
            # the event that found the outbox full evicted every client of it, at once
            assert rounds[-1] == 1
            assert all(count == 201 for count in rounds[:-1])
            assert server.size() == 1
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
        monkeypatch.setattr(warnd, "WRITE_TIMEOUT_S", 2.0)
        monkeypatch.setattr(warnd, "MAX_OUTBOX_BYTES", 256 << 20)  # only the timeout can evict
        stalled = _stalled_connection(server, 2000)
        reader = _registered_reader(server)
        try:
            # 8 MiB of WARNs, twice Linux's ceiling on a TCP send buffer
            # (tcp_wmem): the socket cannot take them all, so the outbox
            # stalls, long before WRITE_TIMEOUT_S has passed
            block = 2000 * len(b"WARN 1 H approaching 1.000\n")
            events = (8 << 20) // block + 1
            assert [server.warned() for _ in range(events)] == [2001] * events
            # no further event: the loop's own timer evicts the connection
            assert _wait_for_size(server, 1) == 1
            assert server.warned() == 1
            warn = b"WARN 1 H approaching 1.000\n"
            assert _read_lines(reader, events + 1) == warn * (events + 1)
        finally:
            stalled.close()
            reader.close()

    def test_stalled_outbox_that_drains_keeps_every_warn_and_client(self, server, monkeypatch):
        # the case the outbox exists for: a slow reader that catches up
        monkeypatch.setattr(warnd, "WRITE_TIMEOUT_S", 600.0)
        monkeypatch.setattr(warnd, "MAX_OUTBOX_BYTES", 256 << 20)  # nothing can evict
        stalled = _stalled_connection(server, 2000)
        reader = _registered_reader(server)
        try:
            # over 8 MiB of WARNs, twice Linux's ceiling on a TCP send buffer,
            # so the outbox stalls; each event has its own time, to show the order
            block = 2000 * len(b"WARN 1 H approaching 0.000\n")
            times = [b"%.3f" % (i / 1000) for i in range(1, (8 << 20) // block + 2)]
            assert [server.warned(f"EVENT 1 H approaching {t.decode()}")
                    for t in times] == [2001] * len(times)
            assert server.size() == 2001
            want = b"".join(b"WARN 1 H approaching %s\n" % t * 2000 for t in times)
            stalled.settimeout(30)
            chunks, left = [], len(want)
            while left > 0:  # the loop flushes the outbox as the socket drains
                chunks.append(stalled.recv(1 << 20))
                assert chunks[-1], "the stalled connection was closed"
                left -= len(chunks[-1])
            assert b"".join(chunks) == want
            # drained: the connection is read again, and its clients still warned
            cid = f"s{stalled.getsockname()[1]}_0"
            stalled.sendall(f"POS {cid} 30.0 1.0 0.0\n".encode())
            assert _read_lines(stalled, 1) == f"OK {cid}\n".encode()
            assert server.warned() == 2001
            assert server.size() == 2001
            warn = b"WARN 1 H approaching 1.000\n"
            assert _read_lines(stalled, 2000) == warn * 2000
            assert _read_lines(reader, len(times) + 1) == \
                b"".join(b"WARN 1 H approaching %s\n" % t for t in times) + warn
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
            area = DeploymentPlan(100.0).processor(1)
            expected = {f"c{i}" for i in range(300) if area.contains(i * 0.5, 1.0)}
            assert 40 < len(expected) < 300
            assert server.warned() == len(expected)
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
        # events counted as delivered, however the feed's reads cut the
        # events and however the loop's writes and the client's reads
        # interleave; a bad EVENT line between good ones is reported in turn
        conns = []
        for k in range(4):
            sock = _connect(server)
            sock.sendall(b"".join(b"REG k%d_%d 30.0 1.0 0.0\n" % (k, i) for i in range(50)))
            assert _read_lines(sock, 50).count(b"OK ") == 50
            conns.append(sock)
        received = [b""] * len(conns)
        done = threading.Event()

        def reading():
            while not done.is_set() or any(select.select(conns, [], [], 0.2)[0]):
                for sock in select.select(conns, [], [], 0.05)[0]:
                    received[conns.index(sock)] += sock.recv(1 << 20)

        lines = [("EVENT 9 H approaching 1.000" if i % 10 == 9 else "EVENT 1 H approaching 1.000")
                 for i in range(440)]
        feed = "".join(line + "\n" for line in lines).encode()
        rng = np.random.default_rng(5)
        cuts = sorted(rng.choice(len(feed), size=60, replace=False))
        reader = threading.Thread(target=reading)
        reader.start()
        try:
            for start, end in zip([0, *cuts], [*cuts, len(feed)]):
                server.feed.sendall(feed[start:end])
            reports = [server.reports.readline() for _ in lines]
        finally:
            done.set()
            reader.join(timeout=60)
        assert not reader.is_alive()
        assert reports == [("event error: 'no processor 9 in plan'\n" if i % 10 == 9
                            else "dispatched to 200 client(s)\n") for i in range(440)]
        events = reports.count("dispatched to 200 client(s)\n")
        assert received == [b"WARN 1 H approaching 1.000\n" * 50 * events] * len(conns)
        for sock in conns:
            sock.close()

    def test_dispatch_wakes_the_loop(self, server):
        reader = _registered_reader(server)
        start = time.monotonic()
        assert server.warned() == 1
        assert _read_lines(reader, 1) == b"WARN 1 H approaching 1.000\n"
        assert time.monotonic() - start < 2.0  # the loop has no poll: the EVENT woke it
        reader.close()
        server.feed.close()  # and the feed's EOF ends it
        server.thread.join(10)
        assert not server.thread.is_alive()

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
        dispatcher = Dispatcher(DeploymentPlan(100.0))
        first, second = _Connection(), _Connection()
        for cid in ("a", "b", "c"):
            assert dispatcher.handle_line(f"REG {cid} 30.0 1.0 0.0", first.send) == f"OK {cid}"
        assert dispatcher.handle_line("REG d 30.0 1.0 0.0", second.send) == "ERR registry full"
        assert dispatcher.handle_line("POS d 30.0 1.0 1.0", second.send) == "ERR unknown-client"
        # known ids still register and move
        assert dispatcher.handle_line("REG a 31.0 1.0 1.0", second.send) == "OK a"
        assert dispatcher.handle_line("POS b 32.0 1.0 1.0", first.send) == "OK b"
        assert registry_positions(dispatcher) == {"a": (31.0, 1.0, 1.0),
                                                  "b": (32.0, 1.0, 1.0), "c": (30.0, 1.0, 0.0)}
        # an eviction makes room
        dispatcher.drop_connection(first.send)
        assert dispatcher.handle_line("REG d 30.0 1.0 2.0", second.send) == "OK d"
        assert set(registry_positions(dispatcher)) == {"a", "d"}
        _check_index(dispatcher, dispatcher.plan)


_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _plan_file(tmp_path):
    plan_path = tmp_path / "plan.ini"
    plan_path.write_text("[plan]\nroad_length = 100\n")
    return str(plan_path)


class TestStandaloneService:
    """`python -m roadwarn.warnd` as operators run it: clients on TCP,
    EVENT lines on stdin, a `dispatched to N` line per event on stdout."""

    def _argv(self, tmp_path):
        return [sys.executable, "-m", "roadwarn.warnd", "--plan", _plan_file(tmp_path),
                "--listen", "127.0.0.1:0"]

    def test_pipelined_registrations_and_one_event(self, tmp_path):
        proc = subprocess.Popen(
            self._argv(tmp_path), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, env=dict(os.environ, PYTHONPATH=_SRC), bufsize=0)

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

            area = DeploymentPlan(100.0).processor(2)
            expected = sum(area.contains(x, y) for _, x, y in regs)
            assert expected > 50
            proc.stdin.write(b"EVENT 2 H approaching 3.000\n")
            warns = _read_lines(sock, expected)
            assert warns == b"WARN 2 H approaching 3.000\n" * expected
            assert stdout_line() == f"dispatched to {expected} client(s)\n"
            if os.path.isdir(f"/proc/{proc.pid}/task"):
                # one thread reads the feed and every client
                assert len(os.listdir(f"/proc/{proc.pid}/task")) == 1
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

    def test_file_and_dev_null_feeds(self, tmp_path):
        # epoll refuses a regular file or /dev/null, so warnd waits on
        # either with poll(2), which finds it always readable: warnd reports
        # on each EVENT line and exits at their end
        events = tmp_path / "events.txt"
        events.write_text("EVENT 2 H approaching 3.000\n# a comment\n\n"
                          "EVENT 9 H approaching 3.000\nEVENT 2 LL approaching 3.000\r\n"
                          "EVENT 2 H")  # the last line unterminated
        env = dict(os.environ, PYTHONPATH=_SRC)
        with open(events, "rb") as feed:
            done = subprocess.run(self._argv(tmp_path), stdin=feed, capture_output=True,
                                  env=env, timeout=30)
        assert done.returncode == 0
        banner, *reports = done.stdout.decode().splitlines()
        assert banner.startswith("warnd listening on 127.0.0.1:")
        assert reports == ["dispatched to 0 client(s)"] * 2
        assert done.stderr.decode().splitlines() == [
            "event error: 'no processor 9 in plan'",
            "event error: expected: EVENT <processor_id> <class> <direction> <t>"]
        with open(os.devnull, "rb") as feed:
            done = subprocess.run(self._argv(tmp_path), stdin=feed, capture_output=True,
                                  env=env, timeout=30)
        assert done.returncode == 0 and done.stderr == b""
        assert done.stdout.decode().startswith("warnd listening on 127.0.0.1:")
        assert done.stdout.count(b"\n") == 1

    def test_out_of_descriptors_the_loop_waits_for_a_close(self, tmp_path):
        # with its descriptors used up, the server must not spin on the
        # listener (which stays ready) and must accept again after a close
        code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_NOFILE, (32, 32)); "
                "from roadwarn.warnd import main; sys.exit(main(sys.argv[1:]))")
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = subprocess.Popen(
            [sys.executable, "-c", code, "--plan", _plan_file(tmp_path),
             "--listen", "127.0.0.1:0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=dict(os.environ, PYTHONPATH=_SRC))
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
