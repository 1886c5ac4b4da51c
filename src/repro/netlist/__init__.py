"""Gate-level netlist IR: construction, simulation, verification, statistics."""

from .dot import to_dot
from .netlist import OP_AND, OP_CONST0, OP_INPUT, OP_XOR, OP_NAMES, Netlist
from .simulate import multiply_with_netlist, simulate, simulate_words
from .stats import NetlistStats, gather_stats
from .verify import (
    UnsupportedStructureError,
    VerificationReport,
    extract_output_pairs,
    verify_by_simulation,
    verify_netlist,
)

__all__ = [
    "to_dot",
    "OP_AND",
    "OP_CONST0",
    "OP_INPUT",
    "OP_XOR",
    "OP_NAMES",
    "Netlist",
    "multiply_with_netlist",
    "simulate",
    "simulate_words",
    "NetlistStats",
    "gather_stats",
    "UnsupportedStructureError",
    "VerificationReport",
    "extract_output_pairs",
    "verify_by_simulation",
    "verify_netlist",
]
