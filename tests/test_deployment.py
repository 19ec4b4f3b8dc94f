import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roadwarn import deployment
from roadwarn.cli import main
from roadwarn.deployment import (DeploymentPlan, load_plan_config,
                                 warning_decision, warning_lead_time)
from roadwarn.labels import APPROACHING, RECEDING, UNKNOWN, DetectionResult, SoundClass
from roadwarn.warnd import Dispatcher


class TestPlanLayout:
    def test_100m_road(self):
        plan = DeploymentPlan(100.0)
        assert [plan.processor(i).x0 for i in range(plan.processor_count)] == [0, 25, 50, 75, 100]
        for pid in (-1, 5):
            with pytest.raises(KeyError):
                plan.processor(pid)

    def test_25m_road(self):
        assert DeploymentPlan(25.0).processor_count == 2

    def test_short_road_rejected(self):
        with pytest.raises(ValueError):
            DeploymentPlan(10.0)

    def test_areas_tile_the_roadside(self):
        plan = DeploymentPlan(100.0)
        rng = np.random.default_rng(0)
        xs = np.r_[rng.uniform(0, 100, 2000), np.arange(0.0, 100.5, 0.5)]
        for x in xs:
            owners = [i for i in range(plan.processor_count)
                      if plan.processor(i).contains(float(x), 1.0)]
            assert 1 <= len(owners) <= 2
            if len(owners) == 2:  # only on shared boundaries
                assert x == pytest.approx(owners[1] * 25.0)

    def test_warning_offset(self):
        assert DeploymentPlan(100.0).warning_offset_areas == 3


class TestPlanBounds:
    """A plan holds at most 100,000 processors, and a point lies in at most 8
    of their areas.  Each check runs on the plan alone: no dispatcher is
    built for a plan over a bound."""

    def test_processor_count(self):
        assert (deployment.MAX_PROCESSORS, deployment.MAX_AREAS_AT_A_POINT) == (100_000, 8)
        for road in (99_999.0, math.nextafter(100_000.0, 0.0)):
            plan = DeploymentPlan(road, processor_spacing=1.0, danger_length=1.0)
            assert plan.processor_count == 100_000
        for road, spacing in ((100_000.0, 1.0), (1e9, 0.001), (1e308, 1e-300)):
            with pytest.raises(ValueError, match="needs more than 100000 processors"):
                DeploymentPlan(road, processor_spacing=spacing, danger_length=spacing)

    @pytest.mark.parametrize("spacing", [1.0, 0.1, 12.5])
    def test_areas_at_a_point(self, spacing):
        # 8 areas hold a point where 7 spacings of danger_length end: edges included
        plan = DeploymentPlan(100 * spacing, processor_spacing=spacing, danger_length=7 * spacing)
        xs = np.arange(0.0, 108.0, 0.25) * spacing
        assert max(len(plan.areas_at(x, 1.0)) for x in xs) == 8
        for length in (math.nextafter(7 * spacing, math.inf), 8 * spacing, 25 * spacing):
            with pytest.raises(ValueError, match=f"is longer than 7 spacings of {spacing} m"):
                DeploymentPlan(100 * spacing, processor_spacing=spacing, danger_length=length)

    def test_warning_distance(self):
        assert DeploymentPlan(100.0).warning_distance == 62.5
        # 1e308 s at 75 km/h is an infinite distance, on which `warning_offset_areas`
        # used to raise OverflowError; 8e306 s is finite, but not in 0.5 m spacings
        for warning_time, spacing in ((1e308, 25.0), (8e306, 0.5)):
            with pytest.raises(ValueError, match="not a finite number of"):
                DeploymentPlan(100.0, processor_spacing=spacing, danger_length=spacing,
                               min_warning_time=warning_time)
        plan = DeploymentPlan(100.0, min_warning_time=8e306)
        assert plan.warning_offset_areas == math.ceil(plan.warning_distance / 25.0)

    _REFUSED = pytest.mark.parametrize("plan_text,message", [
        ("road_length = 1e9\nprocessor_spacing = 0.001\n",
         "road of 1000000000.0 m at 0.001 m spacing needs more than 100000 processors"),
        ("road_length = 100\nprocessor_spacing = 0.01\ndanger_length = 25\n",
         "danger_length of 25.0 m is longer than 7 spacings of 0.01 m"),
        ("road_length = 100\nmin_warning_time = 1e308\n",
         "warning distance min_warning_time * max_design_speed / 3.6 is inf m, "
         "not a finite number of 25.0 m spacings"),
    ], ids=["processors", "areas", "warning"])

    @_REFUSED
    def test_simulate_refuses_the_plan(self, tmp_path, capsys, plan_text, message):
        path = tmp_path / "plan.ini"
        path.write_text("[plan]\n" + plan_text)
        with pytest.raises(ValueError, match=re.escape(message)):
            load_plan_config(path)  # before simulate builds anything from it
        script = tmp_path / "script.txt"
        script.write_text("PED p1 50 1 0\nVEHICLE H 60 0 1\n")
        assert main(["simulate", str(path), str(script)]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")

    @_REFUSED
    def test_warnd_refuses_the_plan(self, tmp_path, capsys, plan_text, message):
        from roadwarn.warnd import main as warnd_main

        path = tmp_path / "plan.ini"
        path.write_text("[plan]\n" + plan_text)
        assert warnd_main(["--plan", str(path), "--listen", "127.0.0.1:0"]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


# (processor_spacing, danger_length): shared edges, gaps, overlaps two and
# three deep, and spacings that are not binary fractions
_LAYOUTS = [(25.0, 25.0), (25.0, 10.0), (25.0, 40.0), (12.5, 30.0), (0.3, 0.7), (0.1, 0.1)]


@st.composite
def _plan_and_point(draw):
    spacing, length = draw(st.sampled_from(_LAYOUTS))
    road = draw(st.sampled_from([spacing, 100.0]))
    plan = DeploymentPlan(road, processor_spacing=spacing, danger_length=length)
    edges = [e for pid in range(plan.processor_count)
             for e in (plan.processor(pid).x0, plan.processor(pid).x0 + length)]
    on_edge = st.tuples(st.sampled_from(edges), st.sampled_from([-math.inf, None, math.inf]))
    x = draw(st.one_of(on_edge.map(lambda e: e[0] if e[1] is None else math.nextafter(*e)),
                       st.sampled_from([-1e308, 1e308]),
                       st.floats(-1.0, road + length + 1.0)))
    width = plan.road_width
    y = draw(st.one_of(st.sampled_from([0.0, width, math.nextafter(0.0, -1.0),
                                        math.nextafter(width, math.inf)]),
                       st.floats(0.0, width)))
    return plan, x, y


class TestAreasAt:
    @settings(max_examples=1000, deadline=None)
    @given(_plan_and_point())
    # area 43 starts at 43 * 0.1 = 4.3, but 4.3 / 0.1 rounds to 42.99999999999999
    @example((DeploymentPlan(100.0, processor_spacing=0.1, danger_length=0.1), 4.3, 1.0))
    def test_matches_every_area_contains(self, case):
        plan, x, y = case
        assert list(plan.areas_at(x, y)) == [
            i for i in range(plan.processor_count) if plan.processor(i).contains(x, y)]


class TestMembership:
    """Whom `Dispatcher.dispatch` warns: the fresh clients in the area."""

    PLAN = DeploymentPlan(100.0)  # area 0 is [0, 25] x [0, 7], area 1 is [25, 50] x [0, 7]

    def _delivered(self, entries, now, processor_id=0):
        dispatcher = Dispatcher(self.PLAN)
        inbox = []
        for cid, x, y, t in entries:
            line = f"REG {cid} {x:.3f} {y:.3f} {t:.3f}"
            assert dispatcher.handle_line(line, inbox.append) == f"OK {cid}"
        warn = DetectionResult(climax_index=9, sound_type=SoundClass.H, direction=APPROACHING)
        return dispatcher.dispatch(warn, processor_id, now)

    def test_interior(self):
        assert self._delivered([("p1", 10, 1, 0.0)], now=0.0) == {"p1"}

    def test_closed_boundary(self):
        for x, y in ((25, 1), (0, 0), (10, 7)):
            assert self._delivered([("p1", x, y, 0.0)], now=0.0) == {"p1"}

    def test_exterior(self):
        for x, y in ((30, 1), (-0.001, 1), (10, 7.001), (10, -1)):
            assert self._delivered([("p1", x, y, 0.0)], now=0.0) == set()

    def test_stale_positions_excluded(self):
        entries = [("fresh", 10, 1, 7.0), ("edge", 12, 1, 5.0), ("stale", 11, 1, 0.0),
                   ("future_edge", 12, 1, 15.0), ("future", 11, 1, 15.5),
                   ("far_future", 10, 1, 99999999.0)]
        assert self.PLAN.freshness_window == 5.0
        assert self._delivered(entries, now=10.0) == {"fresh", "edge", "future_edge"}

    def test_matches_brute_force_on_random_points(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-10, 70, (10000, 2))
        ages = rng.uniform(0, 10, 10000)
        # positions stamped after `now`: negative ages
        pts = np.r_[pts, rng.uniform(-10, 70, (2000, 2))]
        ages = np.r_[ages, rng.uniform(-10, 0, 2000)]
        # the wire carries 3 fraction digits
        pts, ages = np.round(pts, 3), np.round(ages, 3)
        entries = [(f"c{i}", float(x), float(y), float(-age))
                   for i, ((x, y), age) in enumerate(zip(pts, ages))]
        got = self._delivered(entries, now=0.0, processor_id=1)
        expected = {f"c{i}" for i, ((x, y), age) in enumerate(zip(pts, ages))
                    if 25.0 <= x <= 50.0 and 0.0 <= y <= 7.0 and -5.0 <= age <= 5.0}
        assert got == expected


class TestLeadTime:
    def test_paper_values_exact(self):
        assert warning_lead_time(75.0, 75.0) == 3.6
        assert warning_lead_time(100.0, 75.0) == 4.8

    def test_window_sweep(self):
        for distance in np.arange(75.0, 100.0 + 0.25, 0.5):
            lead = warning_lead_time(float(distance), 75.0)
            assert 3.6 <= lead <= 4.8

    def test_minimum_margin(self):
        # any point at least 62.5 m out is reachable no sooner than 3 s
        for distance in np.arange(62.5, 130.0, 0.5):
            assert warning_lead_time(float(distance), 75.0) >= 3.0

    def test_zero_speed_rejected(self):
        with pytest.raises(ValueError):
            warning_lead_time(75.0, 0.0)


class TestWarningDecision:
    def _result(self, cls, direction):
        return DetectionResult(climax_index=9, sound_type=cls, direction=direction)

    def test_policy_matrix(self):
        assert warning_decision(self._result(SoundClass.H, APPROACHING))
        assert warning_decision(self._result(SoundClass.LH, APPROACHING))
        assert warning_decision(self._result(SoundClass.H, UNKNOWN))
        assert not warning_decision(self._result(SoundClass.LL, APPROACHING))
        assert not warning_decision(self._result(SoundClass.NV, APPROACHING))
        assert not warning_decision(self._result(SoundClass.LH, RECEDING))
        assert not warning_decision(self._result(SoundClass.H, RECEDING))


class TestplanConfig:
    def test_load_ini(self, tmp_path):
        path = tmp_path / "plan.ini"
        path.write_text("[plan]\nroad_length = 150\nroad_width = 9\n"
                        "freshness_window = 4\n")
        plan = load_plan_config(path)
        assert plan.processor_count == 7
        assert plan.road_width == 9.0
        assert plan.freshness_window == 4.0
        assert plan.processor(2).x0 == 50.0

    @pytest.mark.parametrize("key", ["road_length", "danger_length", "freshness_window"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, key, value):
        path = tmp_path / "plan.ini"
        values = {"road_length": "150", key: value}
        path.write_text("[plan]\n" + "".join(f"{k} = {v}\n" for k, v in values.items()))
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            load_plan_config(path)

    @pytest.mark.parametrize("key, text", [("road_length", "-5"), ("processor_spacing", "0"),
                                           ("freshness_window", "-0.5")])
    def test_non_positive_value_rejected_by_the_plan(self, tmp_path, key, text):
        # DeploymentPlan is the one check, so the message shows the cast value
        path = tmp_path / "bad.ini"
        values = {"road_length": "150", key: text}
        path.write_text("[plan]\n" + "".join(f"{k} = {v}\n" for k, v in values.items()))
        with pytest.raises(ValueError) as error:
            load_plan_config(path)
        assert str(error.value) == f"{path}: {key} must be finite and positive, got {float(text)}"

    def test_missing_section(self, tmp_path):
        path = tmp_path / "plan.ini"
        path.write_text("[other]\nroad_length = 150\n")
        with pytest.raises(ValueError):
            load_plan_config(path)

    @pytest.mark.parametrize("text,message", [
        ("road_length = 200\n", "File contains no section headers"),
        ("[plan]\nroad_length = 200\nroad_length = 100\n",
         "option 'road_length' in section 'plan' already exists"),
        ("[plan]\nroad_length = 200\n[plan]\nroad_width = 7\n", "section 'plan' already exists"),
        ("[plan]\nroad_length = 200%\n",
         "[plan] road_length could not convert string to float: '200%'"),
    ], ids=["no-header", "key-twice", "section-twice", "percent"])
    def test_unreadable_file_is_a_one_line_data_error(self, tmp_path, capsys, text, message):
        # configparser's own errors used to escape simulate and warnd as tracebacks
        path = tmp_path / "plan.ini"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(message)) as error:
            load_plan_config(path)
        assert str(error.value).startswith(f"{path}: ") and "\n" not in str(error.value)
        script = tmp_path / "script.txt"
        script.write_text("PED p1 50 1 0\nVEHICLE H 60 0 1\n")
        assert main(["simulate", str(path), str(script)]) == 2
        assert capsys.readouterr() == ("", f"error: {error.value}\n")
