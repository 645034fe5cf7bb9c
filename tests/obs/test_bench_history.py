"""Benchmark history records and the bench-check regression gate."""

import json

import pytest

from repro.obs.__main__ import main as obs_main
from repro.obs.bench_history import (
    HISTORY_SCHEMA,
    append_record,
    check_history,
    current_git_rev,
    history_record,
    load_history,
    render_check,
)


def record(bench="fig5a", secs=1.0, **metrics):
    metrics = metrics or {"wall_seconds": secs}
    return history_record(
        bench,
        fingerprint="f" * 16,
        seed=0,
        metrics=metrics,
        git_rev="abc1234",
        timestamp=1786038486.0,
    )


class TestRecords:
    def test_record_shape(self):
        rec = record()
        assert rec["schema_version"] == HISTORY_SCHEMA
        assert rec["bench"] == "fig5a"
        assert rec["metrics"] == {"wall_seconds": 1.0}
        assert rec["higher"] == []
        assert rec["git_rev"] == "abc1234"

    def test_append_and_load_round_trip(self, tmp_path):
        path = tmp_path / "history.jsonl"
        append_record(path, record(secs=1.0))
        append_record(path, record(secs=1.1))
        loaded = load_history(path)
        assert [r["metrics"]["wall_seconds"] for r in loaded] == [1.0, 1.1]

    def test_append_rejects_foreign_schema(self, tmp_path):
        rec = dict(record(), schema_version="something-else/9")
        with pytest.raises(ValueError, match="schema"):
            append_record(tmp_path / "h.jsonl", rec)

    def test_load_skips_unknown_schema_lines(self, tmp_path):
        path = tmp_path / "h.jsonl"
        append_record(path, record())
        with path.open("a") as fh:
            fh.write(json.dumps({"schema_version": "future/2", "bench": "x"}) + "\n")
        assert len(load_history(path)) == 1

    def test_load_missing_file_is_empty(self, tmp_path):
        assert load_history(tmp_path / "absent.jsonl") == []

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(ValueError, match="malformed"):
            load_history(path)

    def test_current_git_rev_in_repo(self):
        rev = current_git_rev()
        assert rev == "unknown" or len(rev) >= 7

    def test_timestamp_is_caller_supplied(self):
        # the record carries exactly what was passed in — wall clocks
        # never run inside repro.obs (reprolint D1)
        assert record()["timestamp"] == 1786038486.0


class TestCheckHistory:
    def test_stable_metrics_pass(self):
        records = [record(secs=s) for s in (1.0, 1.02, 0.98, 1.01, 1.0, 1.03)]
        results = check_history(records)
        assert [r.status for r in results] == ["ok"]

    def test_regression_above_threshold(self):
        records = [record(secs=s) for s in (1.0, 1.02, 0.98)] + [record(secs=1.3)]
        (result,) = check_history(records)
        assert result.status == "regression"
        assert result.rel_delta == pytest.approx(0.3)

    def test_improvement_below_threshold(self):
        records = [record(secs=1.0), record(secs=0.7)]
        (result,) = check_history(records)
        assert result.status == "improved"

    def test_first_record_has_no_baseline(self):
        (result,) = check_history([record()])
        assert result.status == "no-baseline"

    def test_trailing_window_ignores_ancient_records(self):
        # five recent fast records push the one ancient slow record out
        # of the window: a current fast run must not read as "improved"
        records = [record(secs=9.0)] + [record(secs=s) for s in (1.0,) * 5]
        records.append(record(secs=1.0))
        (result,) = check_history(records, window=5)
        assert result.status == "ok"

    def test_median_absorbs_one_noisy_baseline(self):
        records = [record(secs=s) for s in (1.0, 5.0, 1.0, 1.02, 0.98)]
        records.append(record(secs=1.05))
        (result,) = check_history(records)
        assert result.status == "ok"

    def test_benches_checked_independently(self):
        records = [
            record(bench="a", secs=1.0),
            record(bench="a", secs=2.0),  # regression in a
            record(bench="b", secs=1.0),
            record(bench="b", secs=1.0),  # b fine
        ]
        by_bench = {r.bench: r.status for r in check_history(records)}
        assert by_bench == {"a": "regression", "b": "ok"}

    def test_throughput_drop_is_a_regression(self):
        # msgs_per_s is higher-is-better: halving it must not read as
        # "improved"
        def live(rate):
            return history_record(
                "live_swarm", fingerprint="f" * 16, seed=0,
                metrics={"msgs_per_s": rate, "wall_seconds": 2.0},
                git_rev="abc1234", timestamp=1786038486.0,
                higher=("msgs_per_s",),
            )

        by_metric = {r.metric: r for r in check_history([live(3600.0), live(1800.0)])}
        assert by_metric["msgs_per_s"].status == "regression"
        assert by_metric["msgs_per_s"].rel_delta == pytest.approx(-0.5)
        assert by_metric["wall_seconds"].status == "ok"
        (gain,) = [r for r in check_history([live(1800.0), live(3600.0)])
                   if r.metric == "msgs_per_s"]
        assert gain.status == "improved"

    def test_higher_names_must_be_metrics(self):
        with pytest.raises(ValueError, match="not metrics"):
            history_record(
                "live_swarm", fingerprint="f" * 16, seed=0,
                metrics={"msgs_per_s": 1.0}, git_rev="abc1234",
                timestamp=1786038486.0, higher=("msg_per_s",),
            )

    def test_render_mentions_regressions(self):
        records = [record(secs=1.0), record(secs=2.0)]
        text = render_check(check_history(records))
        assert "regression" in text
        assert "1 regression(s)" in text


class TestBenchCheckCLI:
    """Exit codes: 0 pass, 1 regression, 2 no history."""

    def _history(self, tmp_path, values, metric="final_latency_ms"):
        path = tmp_path / "history.jsonl"
        for v in values:
            append_record(path, record(**{metric: v}))
        return str(path)

    def test_pass_exits_zero(self, tmp_path, capsys):
        path = self._history(tmp_path, [100.0, 101.0, 99.0, 100.5])
        assert obs_main(["bench-check", path]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_injected_latency_regression_exits_nonzero(self, tmp_path, capsys):
        # acceptance criterion: a 20% latency regression is detected
        path = self._history(tmp_path, [100.0, 101.0, 99.0, 120.0])
        assert obs_main(["bench-check", path]) == 1
        assert "regression" in capsys.readouterr().out

    def test_report_only_reports_but_exits_zero(self, tmp_path, capsys):
        path = self._history(tmp_path, [100.0, 120.0])
        assert obs_main(["bench-check", path, "--report-only"]) == 0
        captured = capsys.readouterr()
        assert "regression" in captured.out
        assert "report-only" in captured.err

    def test_missing_history_exits_two(self, tmp_path, capsys):
        assert obs_main(["bench-check", str(tmp_path / "nope.jsonl")]) == 2
        assert "no usable history" in capsys.readouterr().err

    def test_empty_history_exits_two(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text("")
        assert obs_main(["bench-check", str(path)]) == 2

    def test_threshold_flag(self, tmp_path):
        path = self._history(tmp_path, [100.0, 108.0])
        assert obs_main(["bench-check", path]) == 0  # 8% < default 10%
        assert obs_main(["bench-check", path, "--threshold", "0.05"]) == 1


class TestRepoHistorySeed:
    def test_checked_in_history_is_loadable_and_passes(self):
        from pathlib import Path

        path = Path(__file__).resolve().parents[2] / "benchmarks" / "history.jsonl"
        records = load_history(path)
        assert records, "benchmarks/history.jsonl must ship with a seed record"
        assert all(r["schema_version"] == HISTORY_SCHEMA for r in records)
        results = check_history(records)
        assert not any(r.status == "regression" for r in results)
