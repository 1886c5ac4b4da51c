"""The end-to-end FPGA implementation flow.

``implement()`` takes a generated multiplier and produces the metrics the
paper reports (LUTs, slices, delay, Area×Time), running the same steps a
vendor flow would:

1. *Optional restructuring* — if the multiplier's generator allowed it (the
   paper's proposed flat form), the XOR network is re-associated and shared
   (:mod:`repro.synth.balance`, :mod:`repro.synth.xor_cse`).  Fixed-structure
   baselines skip this step, modelling synthesis that honours the written
   association (the "hard parenthesized restrictions" of ref [7]).
2. *Technology mapping* to k-input LUTs (:mod:`repro.synth.lutmap`).
3. *Slice packing* (:mod:`repro.synth.slices`).
4. *Static timing analysis* with the device's delay model
   (:mod:`repro.synth.timing`).

The flow optionally re-verifies the (possibly restructured) netlist against
the multiplier's :class:`~repro.spec.product_spec.ProductSpec` so that no
optimisation can silently change the function.  At higher efforts steps 2–4
run once per explored candidate and configuration, and only the best one
found so far (by Area×Time) is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from ..galois.pentanomials import type_ii_parameters
from ..netlist.stats import gather_stats
from ..netlist.verify import verify_netlist
from .balance import restructure
from .device import ARTIX7
from .lutmap import map_to_luts
from .report import ImplementationResult
from .slices import pack_slices
from .timing import analyze_timing

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..multipliers.base import GeneratedMultiplier
    from ..netlist.netlist import Netlist
    from .device import DeviceModel
    from .lutmap import MappedNetwork
    from .slices import SlicePacking
    from .timing import TimingResult

__all__ = ["SynthesisOptions", "FlowArtifacts", "implement"]


@dataclass(frozen=True)
class SynthesisOptions:
    """Knobs of the implementation flow.

    Attributes
    ----------
    restructure:
        ``None`` (default) honours the netlist's ``restructure_allowed``
        attribute; ``True``/``False`` force the behaviour (used by the
        ablation benchmarks).
    share_rounds:
        Rounds of greedy cross-output XOR sharing applied when restructuring
        (0 = balancing only).
    cut_limit:
        Priority cuts kept per node during LUT mapping.
    verify:
        Re-verify the netlist against the spec after restructuring.
    min_slice_fill:
        Packer willingness to co-locate unconnected LUTs (see
        :func:`repro.synth.slices.pack_slices`).
    """

    restructure: Optional[bool] = None
    share_rounds: int = 4
    cut_limit: int = 6
    verify: bool = True
    min_slice_fill: int = 2
    #: Mapping effort: number of alternative mapping strategies explored, the
    #: best result (by Area x Time) being kept.  Models the strategy search a
    #: vendor tool performs at its default/high effort settings.
    effort: int = 2
    #: Depth slack (LUT levels above depth-optimal) allowed for area recovery.
    depth_slack: int = 1


@dataclass
class FlowArtifacts:
    """Everything produced by one run of the flow (for inspection and tests).

    Besides the report and the winning netlist/mapping, the bundle carries
    the slice-packing and timing results of the chosen implementation, so
    callers never have to re-run those steps to inspect them.
    """

    result: ImplementationResult
    netlist: Netlist
    mapped: MappedNetwork
    restructured: bool
    packing: SlicePacking
    timing: TimingResult


def _mapping_configurations(options: SynthesisOptions):
    """The (cut_limit, depth_slack) pairs explored at the requested effort."""
    configurations = [(options.cut_limit, options.depth_slack)]
    extras = [
        (options.cut_limit, max(0, options.depth_slack - 1)),
        (options.cut_limit + 2, options.depth_slack),
        (options.cut_limit, options.depth_slack + 1),
        (max(2, options.cut_limit - 2), options.depth_slack),
    ]
    for extra in extras[: max(0, options.effort - 1)]:
        if extra not in configurations:
            configurations.append(extra)
    return configurations


def implement(
    multiplier: GeneratedMultiplier,
    device: DeviceModel = ARTIX7,
    options: SynthesisOptions = SynthesisOptions(),
    keep_artifacts: bool = False,
):
    """Run the full implementation flow on a generated multiplier.

    Restructures the netlist if allowed, then maps, packs and times every
    candidate at every mapping configuration of ``options.effort`` and
    reports the best implementation by Area×Time (a strict minimum in
    exploration order: the first candidate wins ties) — mirroring the
    strategy search of a vendor flow.  Returns an
    :class:`ImplementationResult`, or the full :class:`FlowArtifacts` bundle
    when ``keep_artifacts`` is true.
    """
    source = multiplier.netlist
    allowed = source.attributes.get("restructure_allowed", False)
    restructured = allowed if options.restructure is None else options.restructure

    candidates = [source]
    if restructured:
        candidates = [restructure(source, share_rounds=options.share_rounds)]
        if options.effort > 1:
            # A sharing-free, purely re-balanced variant: sometimes the extra
            # shared signals cost a LUT level, and the best Area x Time comes
            # from the shallower network.
            candidates.append(restructure(source, share_rounds=0))
        if options.effort > 2:
            candidates.append(restructure(source, share_rounds=options.share_rounds + 2))
        if options.verify:
            for candidate in candidates:
                report = verify_netlist(candidate, multiplier.spec)
                if not report:
                    raise RuntimeError(
                        f"restructuring changed the function of {multiplier.method}: {report.summary()}"
                    )

    best = None
    for netlist in candidates:
        for cut_limit, depth_slack in _mapping_configurations(options):
            mapped = map_to_luts(
                netlist, lut_inputs=device.lut_inputs, cut_limit=cut_limit, depth_slack=depth_slack
            )
            packing = pack_slices(mapped, device, min_fill=options.min_slice_fill)
            timing = analyze_timing(mapped, device)
            score = mapped.lut_count * timing.critical_path_ns
            if best is None or score < best[0]:
                best = (score, netlist, mapped, packing, timing)
    _, netlist, mapped, packing, timing = best

    stats = gather_stats(netlist)
    parameters = type_ii_parameters(multiplier.modulus)
    result = ImplementationResult(
        method=multiplier.method,
        reference=multiplier.reference,
        m=multiplier.m,
        n=parameters[1] if parameters is not None else None,
        luts=mapped.lut_count,
        slices=packing.slice_count,
        delay_ns=timing.critical_path_ns,
        and_gates=stats.and_gates,
        xor_gates=stats.xor_gates,
        lut_levels=mapped.depth,
        average_slice_fill=packing.average_fill(),
        restructured=restructured,
        device=device.name,
    )
    if not keep_artifacts:
        return result
    return FlowArtifacts(
        result=result,
        netlist=netlist,
        mapped=mapped,
        restructured=restructured,
        packing=packing,
        timing=timing,
    )
