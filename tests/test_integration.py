"""End-to-end integration tests spanning the whole pipeline."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro import (
    GF2mField,
    SynthesisOptions,
    generate_multiplier,
    implement,
    multiply_with_netlist,
    netlist_to_vhdl,
    type_ii_pentanomial,
    verify_netlist,
)
from repro.analysis.compare import claims_report, run_comparison
from repro.multipliers import TABLE5_METHODS
from repro.synth.balance import restructure
from repro.synth.lutmap import map_to_luts


class TestSpecToSiliconPipeline:
    """Generate -> verify -> restructure -> map -> time -> emit, one field end to end."""

    def test_full_pipeline_gf2_16(self):
        modulus = type_ii_pentanomial(16, 3)
        field = GF2mField(modulus)
        multiplier = generate_multiplier("thiswork", modulus)

        # functional checks at the gate level
        rng = random.Random(99)
        for _ in range(20):
            a, b = rng.getrandbits(16), rng.getrandbits(16)
            assert multiply_with_netlist(multiplier.netlist, 16, a, b) == field.multiply(a, b)

        # synthesis freedom must not change the function
        rebuilt = restructure(multiplier.netlist)
        assert verify_netlist(rebuilt, multiplier.spec).equivalent

        # mapping must respect the device and cover all outputs
        mapped = map_to_luts(rebuilt, lut_inputs=6)
        assert all(lut.input_count <= 6 for lut in mapped.luts)

        # the flow report must be self-consistent
        result = implement(multiplier, options=SynthesisOptions(effort=1))
        assert result.luts > 0 and result.area_time == pytest.approx(result.luts * result.delay_ns)

        # HDL emission must at least mention every output bit
        vhdl = netlist_to_vhdl(multiplier.netlist)
        for k in range(16):
            assert f"c({k}) <=" in vhdl

    def test_public_api_quickstart_documented_in_readme(self, gf28_modulus):
        # The exact sequence shown in README.md / the package docstring.
        multiplier = generate_multiplier("thiswork", gf28_modulus)
        result = implement(multiplier)
        assert result.luts > 0 and result.delay_ns > 0


def test_importing_the_curves_leaves_the_synthesis_stack_unloaded():
    """The package re-exports load on first access: ``import repro.curves``
    (what a protocol service or benchmark imports) pulls in neither the
    synthesis flow, the analysis harness, the sweep scheduler, the dashboard
    nor multiprocessing, while every name of ``repro.__all__`` still
    resolves."""
    script = (
        "import sys\n"
        "import repro.curves\n"
        "heavy = ('repro.synth', 'repro.analysis', 'repro.pipeline.scheduler',\n"
        "         'repro.telemetry.dashboard', 'multiprocessing')\n"
        "loaded = sorted(name for name in heavy if name in sys.modules)\n"
        "assert not loaded, loaded\n"
        "import repro\n"
        "missing = [name for name in repro.__all__ if getattr(repro, name, None) is None]\n"
        "assert not missing, missing\n"
        "assert repro.telemetry.dashboard.render_markdown and repro.pipeline.run_sweep\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])),
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
    )
    assert result.returncode == 0, result.stderr[-2000:]


class TestTable5MiniReproduction:
    """A reduced Table V (small field, all six methods) checked for the paper's shape."""

    @pytest.fixture(scope="class")
    def comparison(self):
        return run_comparison(fields=[(8, 2), (16, 3)], options=SynthesisOptions(effort=1))

    def test_all_methods_and_fields_present(self, comparison):
        assert [f"({c.spec.m},{c.spec.n})" for c in comparison] == ["(8,2)", "(16,3)"]
        for field_comparison in comparison:
            assert len(field_comparison.rows) == len(TABLE5_METHODS)

    def test_proposed_beats_parenthesized_in_every_field(self, comparison):
        report = claims_report(comparison)
        assert set(report["proposed_beats_parenthesized"]) == {"(8,2)", "(16,3)"}

    def test_delay_spread_is_small(self, comparison):
        for field_comparison in comparison:
            delays = [row.result.delay_ns for row in field_comparison.rows]
            assert max(delays) / min(delays) < 1.35

    def test_area_time_winner_is_a_tree_based_method(self, comparison):
        for field_comparison in comparison:
            assert field_comparison.best_measured("area_time") not in {"paar", "imana2016"}
