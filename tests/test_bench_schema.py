"""Schema and provenance checks on the committed BENCH_*.json trajectory.

Every file at the repo root must parse and satisfy the shared ``{bench,
commit_pr, config, results}`` schema the dashboard consumes.  The one
committed file, ``BENCH_layers.json``, is written by
``benchmarks/bench_layers.py --json``: every snapshot carries its git
commit, UTC timestamp and host-speed figure, and every row names its
grid point and holds the median and IQR of its repeats.
"""

from __future__ import annotations

import glob
import importlib.util
import json
import os
import re
import shutil
import subprocess

import pytest

from repro.telemetry.dashboard import validate_snapshot

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The first PR whose snapshots ``bench_layers.py`` wrote.
FIRST_LAYERS_PR = 21

ISO_UTC = re.compile(r"^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z$")
GIT_HASH = re.compile(r"^[0-9a-f]{40}$")


def _committed_bench_files():
    paths = sorted(glob.glob(os.path.join(REPO_ROOT, "BENCH_*.json")))
    assert paths, "no committed BENCH_*.json files at the repo root"
    return paths


def _snapshots(path):
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return payload if isinstance(payload, list) else [payload]


@pytest.mark.parametrize("path", _committed_bench_files(), ids=os.path.basename)
class TestCommittedBenchSchema:
    def test_every_snapshot_satisfies_the_shared_schema(self, path):
        for index, snapshot in enumerate(_snapshots(path)):
            problems = validate_snapshot(snapshot)
            assert not problems, f"{os.path.basename(path)} entry {index}: {problems}"

    def test_bench_name_matches_the_filename(self, path):
        expected = os.path.basename(path)[len("BENCH_"):-len(".json")]
        for snapshot in _snapshots(path):
            assert snapshot["bench"] == expected

    def test_platform_stamp_present_in_every_snapshot(self, path):
        for snapshot in _snapshots(path):
            platform = snapshot["config"]["platform"]
            assert platform["python"] and platform["machine"]

    def test_recent_snapshots_carry_provenance_stamps(self, path):
        for snapshot in _snapshots(path):
            assert snapshot["commit_pr"] >= FIRST_LAYERS_PR
            config = snapshot["config"]
            assert GIT_HASH.match(config["git_commit"] or ""), "missing/odd git_commit stamp"
            assert ISO_UTC.match(config["timestamp_utc"] or ""), "missing/odd timestamp_utc stamp"
            assert config["host_speed"]["rate"] > 0

    def test_history_is_sorted_by_commit_pr_without_duplicates(self, path):
        prs = [snapshot["commit_pr"] for snapshot in _snapshots(path)]
        assert prs == sorted(prs)
        assert len(prs) == len(set(prs))

    def test_results_rows_expose_at_least_one_metric(self, path):
        from repro.telemetry.dashboard import is_metric_key

        for snapshot in _snapshots(path):
            for row in snapshot["results"]:
                assert any(is_metric_key(key) for key in row), f"no metric field in {row}"

    def test_every_row_names_its_grid_point_and_spread(self, path):
        for snapshot in _snapshots(path):
            for row in snapshot["results"]:
                assert row["layer"] and row["backend"] and row["route"], row
                assert row.get("curve") or row.get("m"), row
                assert row["rate"] > 0 and 0 <= row["iqr"] and row["repeats"] >= 3, row


def _bench_layers():
    spec = importlib.util.spec_from_file_location(
        "bench_layers", os.path.join(REPO_ROOT, "benchmarks", "bench_layers.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(shutil.which("git") is None, reason="the commit_pr rule reads git")
class TestCommitPrRule:
    """``commit_pr`` is the newest ``PR N:`` subject, plus one for a modified tree."""

    @pytest.fixture
    def repo(self, tmp_path):
        def git(*args):
            subprocess.run(
                ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
                 "-c", "commit.gpgsign=false", *args],
                cwd=tmp_path, check=True, capture_output=True,
            )

        def commit(subject):
            (tmp_path / "notes.txt").write_text(subject)
            git("add", "notes.txt")
            git("commit", "-q", "-m", subject)

        git("init", "-q")
        return tmp_path, commit

    def test_numbers_follow_the_pr_subjects(self, repo):
        root, commit = repo
        commit_pr = _bench_layers().commit_pr
        commit("PR 7: x")
        assert commit_pr(root) == 7
        commit("re-anchor @ PR 7: ROADMAP")
        assert commit_pr(root) == 7
        (root / "notes.txt").write_text("modified")
        assert commit_pr(root) == 8

    def test_history_without_a_pr_subject_is_an_error(self, repo):
        root, commit = repo
        commit("initial import")
        with pytest.raises(SystemExit, match="no 'PR N:' commit subject"):
            _bench_layers().commit_pr(root)
