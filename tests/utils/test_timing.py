"""Stage timers."""

import time

import pytest

from repro.utils.timing import StageTimer


class TestStageTimer:
    def test_stage_accumulates_by_name(self):
        t = StageTimer()
        with t.stage("a"):
            time.sleep(0.005)
        with t.stage("a"):
            time.sleep(0.005)
        with t.stage("b"):
            pass
        assert t.stages["a"] >= 0.01
        assert "b" in t.stages
        assert t.total() >= t.stages["a"]

    def test_milliseconds(self):
        t = StageTimer()
        t.add("x", 0.25)
        assert t.milliseconds()["x"] == pytest.approx(250.0)

    def test_merge(self):
        a = StageTimer()
        a.add("x", 1.0)
        b = StageTimer()
        b.add("x", 2.0)
        b.add("y", 3.0)
        a.merge(b)
        assert a.stages == {"x": 3.0, "y": 3.0}

    def test_exception_still_records(self):
        t = StageTimer()
        with pytest.raises(ValueError):
            with t.stage("boom"):
                raise ValueError
        assert "boom" in t.stages
