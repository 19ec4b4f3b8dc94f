from types import SimpleNamespace

import numpy as np
import pytest

from roadwarn.classifiers import SoundClass
from roadwarn.decision import APPROACHING, RECEDING, UNKNOWN, DetectionResult
from roadwarn.deployment import (DangerArea, DeploymentPlan, build_plan, load_plan_config,
                                 members_in_area, warning_decision, warning_lead_time)


class TestBuildPlan:
    def test_100m_road(self):
        plan = build_plan(100.0)
        assert [p.x for p in plan.processors] == [0, 25, 50, 75, 100]

    def test_25m_road(self):
        assert len(build_plan(25.0).processors) == 2

    def test_short_road_rejected(self):
        with pytest.raises(ValueError):
            build_plan(10.0)

    def test_areas_tile_the_roadside(self):
        plan = build_plan(100.0)
        rng = np.random.default_rng(0)
        xs = np.r_[rng.uniform(0, 100, 2000), np.arange(0.0, 100.5, 0.5)]
        for x in xs:
            owners = [p.processor_id for p in plan.processors
                      if p.area.contains(float(x), 1.0)]
            assert 1 <= len(owners) <= 2
            if len(owners) == 2:  # only on shared boundaries
                assert x == pytest.approx(owners[1] * 25.0)

    def test_warning_offset(self):
        assert DeploymentPlan().warning_offset_areas == 3


class TestMembership:
    AREA = DangerArea(processor_id=0, x0=0.0, length=25.0, width=7.0)

    @staticmethod
    def _registry(*entries):
        """client_id -> record with x, y, t, the shape of warnd's registry."""
        return {cid: SimpleNamespace(x=x, y=y, t=t) for cid, x, y, t in entries}

    def test_interior(self):
        registry = self._registry(("p1", 10, 1, 0.0))
        assert members_in_area(self.AREA, registry, now=0.0) == ["p1"]

    def test_closed_boundary(self):
        for x, y in ((25, 1), (0, 0), (10, 7)):
            registry = self._registry(("p1", x, y, 0.0))
            assert members_in_area(self.AREA, registry, now=0.0) == ["p1"]

    def test_exterior(self):
        for x, y in ((30, 1), (-0.001, 1), (10, 7.001), (10, -1)):
            registry = self._registry(("p1", x, y, 0.0))
            assert members_in_area(self.AREA, registry, now=0.0) == []

    def test_stale_positions_excluded(self):
        registry = self._registry(("fresh", 10, 1, 7.0), ("edge", 12, 1, 5.0),
                                  ("stale", 11, 1, 0.0), ("future_edge", 12, 1, 15.0),
                                  ("future", 11, 1, 15.5), ("far_future", 10, 1, 99999999.0))
        got = members_in_area(self.AREA, registry, now=10.0, freshness_window=5.0)
        assert got == ["fresh", "edge", "future_edge"]

    def test_matches_brute_force_on_random_points(self):
        rng = np.random.default_rng(5)
        area = DangerArea(processor_id=1, x0=25.0, length=25.0, width=7.0)
        pts = rng.uniform(-10, 70, (10000, 2))
        ages = rng.uniform(0, 10, 10000)
        # positions stamped after `now`: negative ages
        pts = np.r_[pts, rng.uniform(-10, 70, (2000, 2))]
        ages = np.r_[ages, rng.uniform(-10, 0, 2000)]
        registry = self._registry(*((f"c{i}", float(x), float(y), float(-age))
                                    for i, ((x, y), age) in enumerate(zip(pts, ages))))
        got = set(members_in_area(area, registry, now=0.0, freshness_window=5.0))
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
        assert len(plan.processors) == 7
        assert plan.road_width == 9.0
        assert plan.freshness_window == 4.0
        assert plan.processor(2).area.x0 == 50.0

    @pytest.mark.parametrize("key", ["road_length", "danger_length", "freshness_window"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, key, value):
        path = tmp_path / "plan.ini"
        values = {"road_length": "150", key: value}
        path.write_text("[plan]\n" + "".join(f"{k} = {v}\n" for k, v in values.items()))
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            load_plan_config(path)

    def test_missing_section(self, tmp_path):
        path = tmp_path / "plan.ini"
        path.write_text("[other]\nroad_length = 150\n")
        with pytest.raises(ValueError):
            load_plan_config(path)
