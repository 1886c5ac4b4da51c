"""Pure-Python FPGA implementation flow (synthesis, mapping, packing, timing)."""

from .balance import collect_xor_leaves, rebuild_netlist, restructure
from .device import ARTIX7, DEVICES, GENERIC_4LUT, VIRTEX5_LIKE, DeviceModel, device_by_name
from .flow import FlowArtifacts, SynthesisOptions, implement
from .lutmap import MappedLUT, MappedNetwork, map_to_luts
from .report import ImplementationResult, format_table
from .slices import Slice, SlicePacking, pack_slices
from .timing import TimingResult, analyze_timing
from .xor_cse import count_cooccurring_pairs, greedy_share

__all__ = [
    "collect_xor_leaves",
    "rebuild_netlist",
    "restructure",
    "ARTIX7",
    "DEVICES",
    "GENERIC_4LUT",
    "VIRTEX5_LIKE",
    "DeviceModel",
    "device_by_name",
    "FlowArtifacts",
    "SynthesisOptions",
    "implement",
    "MappedLUT",
    "MappedNetwork",
    "map_to_luts",
    "ImplementationResult",
    "format_table",
    "Slice",
    "SlicePacking",
    "pack_slices",
    "TimingResult",
    "analyze_timing",
    "count_cooccurring_pairs",
    "greedy_share",
]
