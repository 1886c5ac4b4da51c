"""Tests for the end-to-end implementation flow and its reports."""

from __future__ import annotations

import sys

import pytest

from repro.galois.pentanomials import type_ii_pentanomial
from repro.multipliers import generate_multiplier
from repro.synth.device import ARTIX7, GENERIC_4LUT
from repro.synth import flow
from repro.synth.flow import FlowArtifacts, SynthesisOptions, implement
from repro.synth.report import ImplementationResult, format_table


class TestImplement:
    def test_basic_result_fields(self, gf28_modulus):
        result = implement(generate_multiplier("thiswork", gf28_modulus))
        assert result.method == "thiswork"
        assert result.m == 8 and result.n == 2
        assert result.luts > 0 and result.slices > 0
        assert result.delay_ns > 0
        assert result.area_time == pytest.approx(result.luts * result.delay_ns)
        assert result.and_gates == 64
        assert result.restructured is True
        assert result.device == ARTIX7.name

    def test_fixed_structure_methods_are_not_restructured(self, gf28_modulus):
        result = implement(generate_multiplier("imana2016", gf28_modulus))
        assert result.restructured is False

    def test_restructure_override(self, gf28_modulus):
        multiplier = generate_multiplier("thiswork", gf28_modulus)
        forced_off = implement(multiplier, options=SynthesisOptions(restructure=False))
        assert forced_off.restructured is False

    def test_artifacts_contain_equivalent_netlist(self, gf28_modulus):
        from repro.netlist.verify import verify_netlist

        multiplier = generate_multiplier("thiswork", gf28_modulus)
        artifacts = implement(multiplier, keep_artifacts=True)
        assert isinstance(artifacts, FlowArtifacts)
        assert artifacts.result.luts == artifacts.mapped.lut_count
        assert verify_netlist(artifacts.netlist, multiplier.spec).equivalent

    def test_artifacts_carry_packing_and_timing(self, gf28_modulus):
        multiplier = generate_multiplier("thiswork", gf28_modulus)
        artifacts = implement(multiplier, keep_artifacts=True)
        assert artifacts.packing is not None
        assert artifacts.packing.slice_count == artifacts.result.slices
        assert artifacts.packing.average_fill() == pytest.approx(artifacts.result.average_slice_fill)
        assert artifacts.timing is not None
        assert artifacts.timing.critical_path_ns == pytest.approx(artifacts.result.delay_ns)

    def test_effort_controls_explored_candidates(self, gf28_modulus, monkeypatch):
        """Effort 3 maps more (candidate, configuration) points than effort 1."""
        mapped = []
        original = flow.map_to_luts

        def counting(*args, **kwargs):
            mapped.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(flow, "map_to_luts", counting)
        multiplier = generate_multiplier("thiswork", gf28_modulus)
        implement(multiplier, options=SynthesisOptions(effort=1))
        low = len(mapped)
        implement(multiplier, options=SynthesisOptions(effort=3))
        assert len(mapped) - low > low == 1

    def test_effort_levels_never_hurt(self, gf28_modulus):
        multiplier = generate_multiplier("thiswork", gf28_modulus)
        low = implement(multiplier, options=SynthesisOptions(effort=1))
        high = implement(multiplier, options=SynthesisOptions(effort=3))
        assert high.area_time <= low.area_time + 1e-9

    def test_4lut_device_needs_more_luts(self, gf28_modulus):
        multiplier = generate_multiplier("reyhani_hasan", gf28_modulus)
        artix = implement(multiplier, device=ARTIX7)
        legacy = implement(multiplier, device=GENERIC_4LUT)
        assert legacy.luts > artix.luts
        assert legacy.device == GENERIC_4LUT.name

    def test_field_label_and_dict(self, gf28_modulus):
        result = implement(generate_multiplier("paar", gf28_modulus))
        assert result.field_label == "(8,2)"
        as_dict = result.as_dict()
        assert as_dict["method"] == "paar" and as_dict["luts"] == result.luts


class TestPaperShapeGF28:
    """The qualitative Table V claims on the paper's running example field."""

    @pytest.fixture(scope="class")
    def results(self, gf28_modulus):
        methods = ["paar", "rashidi", "reyhani_hasan", "imana2012", "imana2016", "thiswork"]
        return {
            method: implement(generate_multiplier(method, gf28_modulus))
            for method in methods
        }

    def test_proposed_beats_parenthesized_everywhere(self, results):
        # Paper: "the new approach is more area and time efficient [than [7]]".
        assert results["thiswork"].luts <= results["imana2016"].luts
        assert results["thiswork"].delay_ns <= results["imana2016"].delay_ns
        assert results["thiswork"].area_time < results["imana2016"].area_time

    def test_proposed_is_at_or_near_the_best_area_time(self, results):
        best = min(result.area_time for result in results.values())
        assert results["thiswork"].area_time <= best * 1.10

    def test_delays_are_within_the_papers_spread(self, results):
        delays = [result.delay_ns for result in results.values()]
        assert max(delays) / min(delays) < 1.25

    def test_absolute_delay_in_plausible_artix7_range(self, results):
        # The paper reports 9.6 - 10.1 ns for GF(2^8); the model should land
        # in the same order of magnitude (not cycle-accurate).
        for result in results.values():
            assert 5.0 < result.delay_ns < 20.0

    def test_absolute_lut_count_in_plausible_range(self, results):
        # Paper: 33 - 40 LUTs for GF(2^8).  Our structural mapper is allowed a
        # modest overhead but must stay in the same regime.
        for result in results.values():
            assert 25 <= result.luts <= 80


class TestMediumFieldShape:
    def test_proposed_beats_parenthesized_on_gf2_32(self):
        modulus = type_ii_pentanomial(32, 11)
        proposed = implement(generate_multiplier("thiswork", modulus, verify=False))
        parenthesized = implement(generate_multiplier("imana2016", modulus, verify=False))
        assert proposed.luts <= parenthesized.luts
        assert proposed.area_time <= parenthesized.area_time

    def test_area_grows_roughly_quadratically(self):
        small = implement(generate_multiplier("thiswork", type_ii_pentanomial(16, 3), verify=False))
        large = implement(generate_multiplier("thiswork", type_ii_pentanomial(32, 11), verify=False))
        ratio = large.luts / small.luts
        assert 2.5 < ratio < 6.5    # ideal quadratic scaling would be 4x


class TestStageDecomposition:
    """What implement()'s restructure step hands on to mapping."""

    def test_restructure_stage_respects_fixed_structure(self, gf28_modulus, monkeypatch):
        mapped = []
        original = flow.map_to_luts

        def recording(netlist, *args, **kwargs):
            mapped.append(netlist)
            return original(netlist, *args, **kwargs)

        monkeypatch.setattr(flow, "map_to_luts", recording)
        multiplier = generate_multiplier("imana2016", gf28_modulus)
        artifacts = implement(multiplier, options=SynthesisOptions(), keep_artifacts=True)
        assert artifacts.restructured is False
        # The written netlist is the only candidate: every mapping starts from it.
        assert mapped and all(netlist is multiplier.netlist for netlist in mapped)
        assert artifacts.netlist is multiplier.netlist


#: ``(luts, slices, delay_ns, lut_levels, average_slice_fill, restructured)``
#: of ``implement()``: the flow's exact output, so any change to what it
#: reports shows here.  Artix-7 at efforts 1, 2 and 3, by field and method.
PINNED_ARTIX7 = {
    (8, 2): {
        "paar": (
            (44, 13, 10.792656758459366, 4, 3.3846153846153846, False),
            (45, 14, 9.493754551575954, 3, 3.2142857142857144, False),
            (45, 14, 9.493754551575954, 3, 3.2142857142857144, False),
        ),
        "rashidi": (
            (44, 14, 10.792656758459366, 4, 3.142857142857143, False),
            (44, 12, 9.5202768410866, 3, 3.6666666666666665, False),
            (44, 12, 9.5202768410866, 3, 3.6666666666666665, False),
        ),
        "reyhani_hasan": (
            (46, 14, 10.881687670832264, 4, 3.2857142857142856, False),
            (45, 16, 9.516350110351048, 3, 2.8125, False),
            (45, 16, 9.516350110351048, 3, 2.8125, False),
        ),
        "imana2012": (
            (42, 13, 10.7963787242014, 4, 3.230769230769231, False),
            (42, 13, 9.464591560104573, 3, 3.230769230769231, False),
            (42, 13, 9.464591560104573, 3, 3.230769230769231, False),
        ),
        "imana2016": (
            (54, 22, 11.069210433745598, 4, 2.4545454545454546, False),
            (53, 21, 9.729555197927734, 3, 2.5238095238095237, False),
            (53, 21, 9.729555197927734, 3, 2.5238095238095237, False),
        ),
        "thiswork": (
            (41, 13, 10.827702053131564, 4, 3.1538461538461537, True),
            (45, 14, 9.469003917300965, 3, 3.2142857142857144, True),
            (45, 14, 9.469003917300965, 3, 3.2142857142857144, True),
        ),
    },
    (16, 3): {
        "paar": (
            (184, 81, 14.024457474989868, 5, 2.271604938271605, False),
            (176, 78, 12.362871704204506, 4, 2.2564102564102564, False),
            (176, 78, 12.362871704204506, 4, 2.2564102564102564, False),
        ),
        "rashidi": (
            (175, 72, 13.94314830358901, 5, 2.4305555555555554, False),
            (176, 79, 12.49875145459393, 4, 2.2278481012658227, False),
            (176, 79, 12.49875145459393, 4, 2.2278481012658227, False),
        ),
        "reyhani_hasan": (
            (176, 73, 13.889544026826352, 5, 2.410958904109589, False),
            (176, 77, 12.404510302503668, 4, 2.2857142857142856, False),
            (176, 77, 12.404510302503668, 4, 2.2857142857142856, False),
        ),
        "imana2012": (
            (166, 69, 13.802065158670672, 5, 2.4057971014492754, False),
            (169, 67, 12.324812785673684, 4, 2.5223880597014925, False),
            (169, 67, 12.324812785673684, 4, 2.5223880597014925, False),
        ),
        "imana2016": (
            (205, 93, 14.335874228003677, 5, 2.204301075268817, False),
            (217, 100, 12.650031380471495, 4, 2.17, False),
            (217, 100, 12.650031380471495, 4, 2.17, False),
        ),
        "thiswork": (
            (172, 69, 13.896176877172424, 5, 2.4927536231884058, True),
            (179, 77, 12.338337698531479, 4, 2.324675324675325, True),
            (179, 77, 12.338337698531479, 4, 2.324675324675325, True),
        ),
    },
}
if sys.version_info >= (3, 12):
    # Python 3.12 sums floats with compensated summation, so the LUT mapper's
    # area flows (``sum`` over a cut's leaves) round differently and this
    # grid point maps to another cover.
    PINNED_ARTIX7[(16, 3)]["imana2016"] = (
        (209, 94, 14.357619873412515, 5, 2.223404255319149, False),
        (219, 102, 12.658634668123343, 4, 2.1470588235294117, False),
        (219, 102, 12.658634668123343, 4, 2.1470588235294117, False),
    )

#: GF(2^8) at the default effort with restructuring off, then on the 4-LUT
#: device.
PINNED_GF28_UNRESTRUCTURED = {
    "paar": (45, 14, 9.493754551575954, 3, 3.2142857142857144, False),
    "rashidi": (44, 12, 9.5202768410866, 3, 3.6666666666666665, False),
    "reyhani_hasan": (45, 16, 9.516350110351048, 3, 2.8125, False),
    "imana2012": (42, 13, 9.464591560104573, 3, 3.230769230769231, False),
    "imana2016": (53, 21, 9.729555197927734, 3, 2.5238095238095237, False),
    "thiswork": (55, 21, 11.068500949891208, 4, 2.619047619047619, False),
}
PINNED_GF28_4LUT = {
    "paar": (59, 30, 13.450200348552613, 4, 1.9666666666666666, False),
    "rashidi": (57, 29, 11.84754162464337, 3, 1.9655172413793103, False),
    "reyhani_hasan": (59, 30, 13.475306524969383, 4, 1.9666666666666666, False),
    "imana2012": (59, 30, 13.450200348552613, 4, 1.9666666666666666, False),
    "imana2016": (71, 36, 13.608858560040801, 4, 1.9722222222222223, False),
    "thiswork": (57, 29, 11.85642044851506, 3, 1.9655172413793103, True),
}


def _pinned_row(result):
    return (
        result.luts,
        result.slices,
        result.delay_ns,
        result.lut_levels,
        result.average_slice_fill,
        result.restructured,
    )


class TestPinnedResults:
    """The six Table V methods give exactly the pinned figures."""

    @pytest.mark.parametrize("m, n", sorted(PINNED_ARTIX7))
    def test_artix7_at_every_effort(self, m, n):
        results = {}
        for method in PINNED_ARTIX7[(m, n)]:
            multiplier = generate_multiplier(method, type_ii_pentanomial(m, n))
            results[method] = tuple(
                _pinned_row(implement(multiplier, ARTIX7, SynthesisOptions(effort=effort)))
                for effort in (1, 2, 3)
            )
        assert results == PINNED_ARTIX7[(m, n)]

    def test_gf28_without_restructuring(self, gf28_modulus):
        results = {
            method: _pinned_row(
                implement(generate_multiplier(method, gf28_modulus), options=SynthesisOptions(restructure=False))
            )
            for method in PINNED_GF28_UNRESTRUCTURED
        }
        assert results == PINNED_GF28_UNRESTRUCTURED

    def test_gf28_on_the_4lut_device(self, gf28_modulus):
        results = {
            method: _pinned_row(implement(generate_multiplier(method, gf28_modulus), device=GENERIC_4LUT))
            for method in PINNED_GF28_4LUT
        }
        assert results == PINNED_GF28_4LUT


def test_result_json_roundtrip(gf28_modulus):
    result = implement(generate_multiplier("thiswork", gf28_modulus))
    rebuilt = ImplementationResult.from_json_dict(result.to_json_dict())
    assert rebuilt == result
    assert rebuilt.delay_ns == result.delay_ns  # to_json_dict does not round


def test_format_table_layout(gf28_modulus):
    results = [
        implement(generate_multiplier(method, gf28_modulus))
        for method in ("paar", "thiswork")
    ]
    text = format_table(results, title="demo")
    assert "demo" in text
    assert "paar" in text and "thiswork" in text
    assert "(8,2)" in text
