"""Tests for the perf-trajectory dashboard over BENCH_*.json files."""

from __future__ import annotations

import json
import os

import pytest

from repro.telemetry.dashboard import (
    build_trajectory,
    find_regressions,
    is_metric_key,
    load_bench_files,
    render_dashboard,
    render_html,
    render_markdown,
    splice_readme,
    validate_snapshot,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _snapshot(bench="ladder", commit_pr=7, rate=1000.0, timestamp="2026-01-01T00:00:00Z", **extra_result):
    """A minimal valid snapshot with one result row."""
    row = {"backend": "native", "m": 163, "rate": rate}
    row.update(extra_result)
    return {
        "bench": bench,
        "commit_pr": commit_pr,
        "config": {
            "platform": {"python": "3.12.0", "machine": "x86_64"},
            "git_commit": "0" * 40,
            "timestamp_utc": timestamp,
        },
        "results": [row],
    }


class TestMetricKeyConvention:
    @pytest.mark.parametrize("key", ["rate", "scalar_rate", "ladders_per_s"])
    def test_metric_keys(self, key):
        assert is_metric_key(key)

    @pytest.mark.parametrize(
        "key", ["backend", "m", "batch", "elapsed_s", "checked_vs_scalar", "speedup", "speedup_vs_python"]
    )
    def test_identity_and_misc_keys(self, key):
        """Identities, timings and ratios: a ratio is derived for display, never tracked."""
        assert not is_metric_key(key)


class TestValidateSnapshot:
    def test_valid_snapshot_has_no_problems(self):
        assert validate_snapshot(_snapshot()) == []

    def test_missing_keys_are_named(self):
        problems = validate_snapshot({"bench": "x"})
        assert any("commit_pr" in problem for problem in problems)
        assert any("results" in problem for problem in problems)

    def test_platform_stamp_is_required(self):
        snapshot = _snapshot()
        del snapshot["config"]["platform"]["machine"]
        assert any("platform" in problem for problem in validate_snapshot(snapshot))

    def test_empty_results_rejected(self):
        snapshot = _snapshot()
        snapshot["results"] = []
        assert any("results" in problem for problem in validate_snapshot(snapshot))

    def test_non_integer_commit_pr_rejected(self):
        snapshot = _snapshot()
        snapshot["commit_pr"] = "seven"
        assert any("commit_pr" in problem for problem in validate_snapshot(snapshot))


class TestLoadBenchFiles:
    def test_loads_single_and_list_forms(self, tmp_path):
        (tmp_path / "BENCH_single.json").write_text(json.dumps(_snapshot(bench="single")))
        (tmp_path / "BENCH_history.json").write_text(
            json.dumps([_snapshot(bench="hist", commit_pr=7), _snapshot(bench="hist", commit_pr=8)])
        )
        entries = load_bench_files(str(tmp_path))
        assert len(entries) == 3
        assert {name for name, _ in entries} == {"BENCH_single.json", "BENCH_history.json"}

    def test_malformed_file_is_named_in_the_error(self, tmp_path):
        (tmp_path / "BENCH_bad.json").write_text("{not json")
        with pytest.raises(ValueError, match="BENCH_bad.json"):
            load_bench_files(str(tmp_path))

    def test_schema_violation_is_named_in_the_error(self, tmp_path):
        (tmp_path / "BENCH_bad.json").write_text(json.dumps({"bench": "x"}))
        with pytest.raises(ValueError, match="BENCH_bad.json"):
            load_bench_files(str(tmp_path))

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(ValueError, match="no BENCH_"):
            load_bench_files(str(tmp_path))


class TestTrajectoryAndRegressions:
    def test_points_ordered_by_pr_then_timestamp(self):
        entries = [
            ("f.json", _snapshot(commit_pr=8, rate=900.0)),
            ("f.json", _snapshot(commit_pr=7, rate=1000.0)),
        ]
        trajectory = build_trajectory(entries)
        ((key, points),) = trajectory.items()
        assert key == ("ladder", "backend=native m=163", "rate")
        assert [point.commit_pr for point in points] == [7, 8]

    def test_degraded_latest_is_flagged(self):
        entries = [
            ("f.json", _snapshot(commit_pr=7, rate=1000.0)),
            ("f.json", _snapshot(commit_pr=8, rate=800.0)),
        ]
        (regression,) = find_regressions(build_trajectory(entries), tolerance=0.10)
        assert regression.latest.commit_pr == 8
        assert regression.best_prior.commit_pr == 7
        assert regression.drop == pytest.approx(0.2)
        assert "-20.0%" in regression.describe()

    def test_drop_within_tolerance_is_not_flagged(self):
        entries = [
            ("f.json", _snapshot(commit_pr=7, rate=1000.0)),
            ("f.json", _snapshot(commit_pr=8, rate=950.0)),
        ]
        assert find_regressions(build_trajectory(entries), tolerance=0.10) == []

    def test_drop_inside_the_recorded_spread_is_not_flagged(self):
        entries = [
            ("f.json", _snapshot(commit_pr=7, rate=1000.0, iqr=50.0)),
            ("f.json", _snapshot(commit_pr=8, rate=700.0, iqr=280.0)),
        ]
        trajectory = build_trajectory(entries)
        assert find_regressions(trajectory, tolerance=0.10) == []
        assert "⚠" not in render_markdown(trajectory, tolerance=0.10)

    def test_drop_beyond_the_recorded_spread_is_flagged(self):
        entries = [
            ("f.json", _snapshot(commit_pr=7, rate=1000.0, iqr=50.0)),
            ("f.json", _snapshot(commit_pr=8, rate=700.0, iqr=140.0)),
        ]
        trajectory = build_trajectory(entries)
        (regression,) = find_regressions(trajectory, tolerance=0.10)
        assert regression.drop == pytest.approx(0.3)
        assert "⚠" in render_markdown(trajectory, tolerance=0.10)

    def test_improvement_is_not_flagged(self):
        entries = [
            ("f.json", _snapshot(commit_pr=7, rate=1000.0)),
            ("f.json", _snapshot(commit_pr=8, rate=1500.0)),
        ]
        assert find_regressions(build_trajectory(entries)) == []

    def test_single_pr_has_no_prior_to_regress_from(self):
        entries = [("f.json", _snapshot(commit_pr=8, rate=100.0))]
        assert find_regressions(build_trajectory(entries)) == []

    def test_regression_compares_against_best_prior_pr_not_just_previous(self):
        entries = [
            ("f.json", _snapshot(commit_pr=6, rate=2000.0)),
            ("f.json", _snapshot(commit_pr=7, rate=900.0)),
            ("f.json", _snapshot(commit_pr=8, rate=1000.0)),
        ]
        (regression,) = find_regressions(build_trajectory(entries), tolerance=0.10)
        assert regression.best_prior.commit_pr == 6
        assert regression.drop == pytest.approx(0.5)


class TestRendering:
    def _entries(self):
        return [
            ("f.json", _snapshot(commit_pr=7, rate=1000.0)),
            ("f.json", _snapshot(commit_pr=8, rate=800.0)),
        ]

    def test_markdown_pivots_prs_into_columns_and_flags(self):
        document = render_markdown(build_trajectory(self._entries()))
        assert "| PR 7 | PR 8 |" in document
        assert "backend=native m=163" in document
        assert "⚠" in document and "(best PR 7)" in document
        assert "## Regression flags" in document

    def test_html_is_standalone_and_flags_the_regression(self):
        document = render_html(build_trajectory(self._entries()))
        assert document.startswith("<!DOCTYPE html>")
        assert "<table>" in document and "class='flag'" in document

    def test_render_dashboard_end_to_end_with_degraded_fixture(self, tmp_path):
        (tmp_path / "BENCH_fixture.json").write_text(json.dumps([
            _snapshot(bench="fixture", commit_pr=7, rate=1000.0),
            _snapshot(bench="fixture", commit_pr=8, rate=500.0),
        ]))
        document, regressions = render_dashboard(str(tmp_path), fmt="markdown")
        assert "1 regression flag(s)" in document
        (regression,) = regressions
        assert regression.drop == pytest.approx(0.5)


class TestCommittedBenchFiles:
    """The dashboard must render the repo's actual committed trajectory."""

    def test_renders_the_committed_layers_file(self):
        entries = load_bench_files(REPO_ROOT)
        assert {snapshot["bench"] for _, snapshot in entries} == {"layers"}
        document, _ = render_dashboard(REPO_ROOT, fmt="markdown")
        assert "BENCH_layers.json" in document
        for layer in ("field_op", "ladder_step", "scalar_mul", "protocol", "served"):
            assert f"layer={layer}" in document

    def test_renders_committed_files_as_html(self):
        document, _ = render_dashboard(REPO_ROOT, fmt="html")
        assert document.startswith("<!DOCTYPE html>") and "</html>" in document

    def test_readme_tables_match_the_committed_file(self):
        """README's perf tables are rendered from the latest committed snapshot."""
        (_, latest) = load_bench_files(REPO_ROOT, "BENCH_layers.json")[-1]
        with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as handle:
            readme = handle.read()
        assert splice_readme(readme, latest) == readme, (
            "README's perf tables differ from BENCH_layers.json; re-render them with "
            "benchmarks/bench_layers.py --json BENCH_layers.json"
        )

    def test_every_readme_block_must_be_present(self):
        (_, latest) = load_bench_files(REPO_ROOT, "BENCH_layers.json")[-1]
        with pytest.raises(ValueError, match="BENCH_layers:backends"):
            splice_readme("<!-- BENCH_layers:engine --><!-- /BENCH_layers:engine -->", latest)
