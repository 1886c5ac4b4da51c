"""Tests for the parallel sweep pipeline and the persistent artifact store."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.analysis.compare import run_comparison
from repro.multipliers import generate_multiplier
from repro.pipeline import (
    ArtifactStore,
    SweepJob,
    artifact_key,
    build_sweep_jobs,
    canonical_fingerprint,
    execute_job,
    format_sweep,
    run_jobs,
    run_sweep,
)
from repro.synth.device import ARTIX7, GENERIC_4LUT
from repro.synth.flow import SynthesisOptions, implement
from repro.synth.report import ImplementationResult
from repro.telemetry import metrics

FIELDS = [(8, 2), (16, 3)]
METHODS = ["thiswork", "imana2016"]
FAST = SynthesisOptions(effort=1)


@pytest.fixture()
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(tmp_path / "artifacts")


class TestArtifactStore:
    def test_json_roundtrip_and_counters(self, store):
        key = canonical_fingerprint({"demo": 1})
        previous = metrics.set_registry(metrics.MetricsRegistry())
        try:
            assert store.get_json(key) is None
            store.put_json(key, {"value": [1, 2, 3]})
            assert store.get_json(key) == {"value": [1, 2, 3]}
            counters = metrics.REGISTRY.snapshot()["counters"]
        finally:
            metrics.set_registry(previous)
        assert counters["artifact_store.hits"] == 1
        assert counters["artifact_store.misses"] == 1
        assert counters["artifact_store.writes"] == 1

    def test_corrupt_json_is_a_miss(self, store):
        key = canonical_fingerprint({"demo": "corrupt"})
        path = store.put_json(key, {"ok": True})
        path.write_text("{truncated", encoding="utf-8")
        assert store.get_json(key) is None

    def test_fingerprint_stability_and_sensitivity(self):
        base = {"options": SynthesisOptions(), "device": ARTIX7}
        assert canonical_fingerprint(base) == canonical_fingerprint(
            {"device": ARTIX7, "options": SynthesisOptions()}
        )
        changed = {"options": SynthesisOptions(effort=3), "device": ARTIX7}
        assert canonical_fingerprint(base) != canonical_fingerprint(changed)

    def test_fingerprint_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            canonical_fingerprint({"bad": object()})


class TestArtifactKey:
    def test_key_changes_with_options_and_device(self):
        job = SweepJob(method="thiswork", m=8, n=2, options=FAST)
        assert artifact_key(job) == artifact_key(dataclasses.replace(job))
        assert artifact_key(job) != artifact_key(job.with_options(effort=2))
        assert artifact_key(job) != artifact_key(job.with_options(cut_limit=8))
        assert artifact_key(job) != artifact_key(dataclasses.replace(job, device=GENERIC_4LUT))
        assert artifact_key(job) != artifact_key(dataclasses.replace(job, method="imana2016"))

    def test_verify_flag_does_not_change_the_key(self):
        job = SweepJob(method="thiswork", m=8, n=2, options=FAST, verify=False)
        assert artifact_key(job) == artifact_key(dataclasses.replace(job, verify=True))


class TestStageGraph:
    """A job's chain: generate the multiplier, then implement() it."""

    def test_artifacts_carry_packing_and_timing(self):
        job = SweepJob(method="thiswork", m=8, n=2, options=FAST)
        multiplier = generate_multiplier(job.method, job.modulus)
        artifacts = implement(multiplier, job.device, job.options, keep_artifacts=True)
        assert execute_job(job).result == artifacts.result
        assert artifacts.packing is not None and artifacts.packing.slice_count == artifacts.result.slices
        assert artifacts.timing is not None
        assert artifacts.timing.critical_path_ns == pytest.approx(artifacts.result.delay_ns)


class TestScheduler:
    def test_execute_job_cold_then_warm(self, store):
        job = SweepJob(method="thiswork", m=8, n=2, options=FAST, verify=True)
        cold = execute_job(job, store=store)
        warm = execute_job(job, store=store)
        assert cold.cache_hit is False and warm.cache_hit is True
        assert warm.result == cold.result

    def test_cache_invalidation_on_options_and_device_change(self, store):
        job = SweepJob(method="thiswork", m=8, n=2, options=FAST)
        execute_job(job, store=store)
        assert execute_job(job.with_options(effort=2), store=store).cache_hit is False
        assert execute_job(dataclasses.replace(job, device=GENERIC_4LUT), store=store).cache_hit is False
        # The original configuration is still warm.
        assert execute_job(job, store=store).cache_hit is True

    def test_run_jobs_preserves_order(self, store):
        jobs = build_sweep_jobs(fields=FIELDS, methods=METHODS, options=FAST)
        outcomes = run_jobs(jobs, parallelism=1, store=store)
        assert [outcome.job for outcome in outcomes] == jobs

    def test_parallel_run_folds_worker_counters_once(self, store):
        jobs = build_sweep_jobs(fields=[(8, 2)], methods=METHODS, options=FAST)
        previous = metrics.set_registry(metrics.MetricsRegistry())
        try:
            run_jobs(jobs, parallelism=2, store=store)
            counters = metrics.REGISTRY.snapshot()["counters"]
        finally:
            metrics.set_registry(previous)
        assert counters["sweep.jobs.executed"] == len(jobs)

    def test_stored_payload_is_lossless(self, store):
        job = SweepJob(method="thiswork", m=8, n=2, options=FAST)
        cold = execute_job(job, store=store)
        payload = store.get_json(artifact_key(job))
        rebuilt = ImplementationResult.from_json_dict(payload["result"])
        assert rebuilt == cold.result
        assert rebuilt.delay_ns == cold.result.delay_ns  # no rounding loss


class TestSweepDeterminism:
    def test_parallel_results_byte_identical_to_serial(self):
        serial = run_sweep(fields=FIELDS, methods=METHODS, options=FAST, jobs=1)
        parallel = run_sweep(fields=FIELDS, methods=METHODS, options=FAST, jobs=3)
        assert [outcome.result for outcome in serial.outcomes] == [
            outcome.result for outcome in parallel.outcomes
        ]
        assert format_sweep(serial, "csv") == format_sweep(parallel, "csv")
        assert format_sweep(serial, "table") == format_sweep(parallel, "table")

    def test_parallel_warm_run_hits_for_every_job(self, store):
        cold = run_sweep(fields=FIELDS, methods=METHODS, options=FAST, jobs=2, store=store)
        warm = run_sweep(fields=FIELDS, methods=METHODS, options=FAST, jobs=2, store=store)
        assert cold.cache_misses == len(cold.outcomes)
        assert warm.cache_hits == len(warm.outcomes) and warm.cache_misses == 0
        assert [outcome.result for outcome in warm.outcomes] == [
            outcome.result for outcome in cold.outcomes
        ]

    def test_sweep_rows_match_serial_comparison_harness(self):
        sweep = run_sweep(fields=FIELDS, methods=METHODS, options=FAST, jobs=2)
        comparisons = run_comparison(fields=FIELDS, methods=METHODS, options=FAST)
        compare_results = [row.result for comparison in comparisons for row in comparison.rows]
        assert [outcome.result for outcome in sweep.outcomes] == compare_results


class TestSweepGridAndFormats:
    def test_grid_expansion_order(self):
        jobs = build_sweep_jobs(
            fields=[(8, 2)], methods=METHODS, devices=[ARTIX7, GENERIC_4LUT], efforts=[1, 2]
        )
        labels = [(job.method, job.device.name, job.options.effort) for job in jobs]
        assert labels == [
            ("thiswork", ARTIX7.name, 1),
            ("thiswork", ARTIX7.name, 2),
            ("thiswork", GENERIC_4LUT.name, 1),
            ("thiswork", GENERIC_4LUT.name, 2),
            ("imana2016", ARTIX7.name, 1),
            ("imana2016", ARTIX7.name, 2),
            ("imana2016", GENERIC_4LUT.name, 1),
            ("imana2016", GENERIC_4LUT.name, 2),
        ]

    def test_unknown_method_is_rejected(self):
        with pytest.raises(KeyError, match="unknown multiplier method"):
            build_sweep_jobs(fields=[(8, 2)], methods=["nope"])

    def test_json_and_csv_formats(self):
        result = run_sweep(fields=[(8, 2)], methods=["thiswork"], options=FAST)
        rows = json.loads(format_sweep(result, "json"))
        assert len(rows) == 1 and rows[0]["method"] == "thiswork" and rows[0]["effort"] == 1
        csv_text = format_sweep(result, "csv")
        assert csv_text.splitlines()[0].startswith("method,")
        with pytest.raises(ValueError, match="unknown sweep format"):
            format_sweep(result, "yaml")

    def test_multi_device_table_has_device_column(self):
        result = run_sweep(
            fields=[(8, 2)], methods=["thiswork"], devices=[ARTIX7, GENERIC_4LUT], options=FAST
        )
        table = format_sweep(result, "table")
        assert "device" in table and GENERIC_4LUT.name in table


class TestComparisonThroughPipeline:
    def test_parallel_comparison_matches_serial(self):
        serial = run_comparison(fields=[(8, 2)], methods=METHODS, options=FAST)
        parallel = run_comparison(fields=[(8, 2)], methods=METHODS, options=FAST, jobs=2)
        assert [row.result for c in serial for row in c.rows] == [
            row.result for c in parallel for row in c.rows
        ]

    def test_comparison_uses_store_when_given(self, store):
        previous = metrics.set_registry(metrics.MetricsRegistry())
        try:
            run_comparison(fields=[(8, 2)], methods=["thiswork"], options=FAST, store=store)
            assert sum(1 for path in store.root.rglob("*") if path.is_file()) == 1
            again = run_comparison(fields=[(8, 2)], methods=["thiswork"], options=FAST, store=store)
            hits = metrics.REGISTRY.snapshot()["counters"].get("artifact_store.hits", 0)
        finally:
            metrics.set_registry(previous)
        assert again[0].rows[0].result.luts > 0
        assert hits >= 1
