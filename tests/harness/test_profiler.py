"""Opt-in wall-clock profiler: stage accumulation and cross-worker merge."""

import pytest

from repro.harness.parallel import Task, run_tasks
from repro.obs.prof import StageProfiler, merge_profiles


class TestStageProfiler:
    def test_records_named_stages(self):
        prof = StageProfiler()
        with prof.stage("build"):
            pass
        with prof.stage("simulate"):
            pass
        assert set(prof.timings) == {"build", "simulate"}
        assert all(t >= 0.0 for t in prof.timings.values())

    def test_repeated_stages_accumulate(self):
        prof = StageProfiler()
        with prof.stage("simulate"):
            pass
        first = prof.timings["simulate"]
        with prof.stage("simulate"):
            pass
        assert prof.timings["simulate"] >= first
        assert len(prof.timings) == 1

    def test_records_even_when_stage_raises(self):
        prof = StageProfiler()
        with pytest.raises(RuntimeError):
            with prof.stage("doomed"):
                raise RuntimeError("boom")
        assert "doomed" in prof.timings


class TestMergeProfiles:
    def test_stage_wise_sums(self):
        merged = merge_profiles([
            {"build": 1.0, "simulate": 2.0},
            {"simulate": 3.0, "sample": 0.5},
        ])
        assert merged == {"build": 1.0, "sample": 0.5, "simulate": 5.0}

    def test_sorted_keys(self):
        merged = merge_profiles([{"z": 1.0, "a": 2.0}])
        assert list(merged) == ["a", "z"]

    def test_none_entries_skipped(self):
        assert merge_profiles([None, {"a": 1.0}, None]) == {"a": 1.0}

    def test_empty(self):
        assert merge_profiles([]) == {}

    def test_empty_dict_entries_skipped(self):
        assert merge_profiles([{}, {"a": 1.0}, {}]) == {"a": 1.0}

    def test_all_entries_absent_yields_empty(self):
        assert merge_profiles([None, {}, None]) == {}


def _noop() -> int:
    return 7


class TestRunTasksTimings:
    def test_serial_path_fills_timings(self):
        timings = {}
        results = run_tasks(
            [Task("a", _noop), Task("b", _noop)], workers=1, timings=timings
        )
        assert results == {"a": 7, "b": 7}
        assert set(timings) == {"a", "b"}
        assert all(t >= 0.0 for t in timings.values())

    def test_pool_path_fills_timings(self):
        timings = {}
        results = run_tasks(
            [Task("a", _noop), Task("b", _noop)], workers=2, timings=timings
        )
        assert results == {"a": 7, "b": 7}
        assert set(timings) == {"a", "b"}

    def test_timings_param_is_optional(self):
        assert run_tasks([Task("a", _noop)], workers=1) == {"a": 7}
