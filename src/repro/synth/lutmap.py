"""Priority-cut k-LUT technology mapping with area recovery.

This is the central piece of the "reconfigurable implementation" substrate:
it converts a 2-input AND/XOR netlist into a network of ``k``-input LUTs the
way an FPGA synthesis tool (the paper uses Xilinx XST) would:

1. **Cut enumeration** — for every gate, candidate cuts are formed by merging
   the priority cuts of its fanins and keeping the best few, ranked primarily
   by mapped depth and secondarily by area flow.  Because cuts are merged on
   the *given* DAG, the structure chosen by the multiplier generator directly
   constrains what the mapper can do — this is precisely the effect the paper
   studies (rigid parenthesized trees vs. free flat expressions).
2. **Area-recovering covering** — starting from the outputs, each required
   node is realised by the stored cut that adds the fewest *new* LUTs to the
   mapping, among the cuts whose depth stays within ``depth_slack`` levels of
   the node's depth-optimal arrival.  Combinational GF(2^m) multipliers are
   I/O- and routing-dominated on FPGAs (the paper's Table V delays vary by a
   few percent between methods), so trading a level of logic for area mirrors
   what the vendor flow does at its default effort.

The mapper is structural (no Boolean resynthesis), which matches XST's
behaviour on XOR-dominated datapaths and keeps the pure-Python runtime
acceptable for the m = 163 fields of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, TYPE_CHECKING, Tuple

from ..netlist.netlist import OP_AND, OP_CONST0, OP_INPUT, OP_XOR

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..netlist.netlist import Netlist

__all__ = ["MappedLUT", "MappedNetwork", "map_to_luts"]


@dataclass(frozen=True)
class MappedLUT:
    """One mapped LUT: a root gate implemented in terms of its cut leaves."""

    root: int
    leaves: Tuple[int, ...]
    level: int

    @property
    def input_count(self) -> int:
        """Number of distinct leaf signals (LUT inputs actually used)."""
        return len(self.leaves)


@dataclass
class MappedNetwork:
    """The result of LUT mapping: a DAG of LUTs over the original netlist's inputs."""

    source: Netlist
    luts: List[MappedLUT]
    outputs: List[Tuple[str, int]]
    lut_of_root: Dict[int, MappedLUT] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.lut_of_root:
            self.lut_of_root = {lut.root: lut for lut in self.luts}

    @property
    def lut_count(self) -> int:
        """Number of LUTs in the mapping (the paper's "LUTs" column)."""
        return len(self.luts)

    @property
    def depth(self) -> int:
        """LUT levels on the longest path."""
        return max((lut.level for lut in self.luts), default=0)

    def signal_fanouts(self) -> Dict[int, int]:
        """Fanout of every signal (primary inputs and LUT outputs) in the mapped network."""
        fanout: Dict[int, int] = {}
        for lut in self.luts:
            for leaf in lut.leaves:
                fanout[leaf] = fanout.get(leaf, 0) + 1
        for _, node in self.outputs:
            fanout[node] = fanout.get(node, 0) + 1
        return fanout

    def lut_input_histogram(self) -> Dict[int, int]:
        """How many LUTs use 1, 2, ... k inputs (utilisation quality metric)."""
        histogram: Dict[int, int] = {}
        for lut in self.luts:
            histogram[lut.input_count] = histogram.get(lut.input_count, 0) + 1
        return dict(sorted(histogram.items()))


def _cut_depth(cut: FrozenSet[int], arrival: List[int]) -> int:
    return 1 + max((arrival[leaf] for leaf in cut), default=0)


def _cut_flow(cut: FrozenSet[int], area_flow: List[float]) -> float:
    # An explicit left-to-right sum: Python 3.12 made ``sum()`` of floats
    # compensated, which rounds some flows differently and changes which cut
    # wins, so the mapped netlist would depend on the interpreter version.
    flow = 0.0
    for leaf in cut:
        flow += area_flow[leaf]
    return flow + 1.0


def map_to_luts(
    netlist: Netlist,
    lut_inputs: int = 6,
    cut_limit: int = 8,
    depth_slack: int = 1,
) -> MappedNetwork:
    """Map a netlist to ``lut_inputs``-input LUTs with priority cuts.

    Parameters
    ----------
    netlist:
        The AND/XOR netlist to map.
    lut_inputs:
        Maximum cut size ``k`` (6 for Artix-7).
    cut_limit:
        Number of priority cuts kept per node (larger = better quality,
        slower mapping).
    depth_slack:
        Global depth slack: the covering may make the mapped network up to
        this many LUT levels deeper than the depth-optimal mapping when that
        saves area (0 = pure depth-oriented mapping).
    """
    if lut_inputs < 2:
        raise ValueError("LUTs need at least 2 inputs")
    if cut_limit < 1:
        raise ValueError("cut_limit must be at least 1")
    if depth_slack < 0:
        raise ValueError("depth_slack must be non-negative")

    node_count = netlist.node_count
    fanout = netlist.fanout_counts()
    cuts: List[List[FrozenSet[int]]] = [[] for _ in range(node_count)]
    arrival: List[int] = [0] * node_count
    area_flow: List[float] = [0.0] * node_count

    live = set(netlist.live_nodes())
    # ------------------------------------------------------- cut enumeration
    for node in netlist.nodes():
        if node not in live:
            continue
        op = netlist.op(node)
        if op in (OP_INPUT, OP_CONST0):
            cuts[node] = [frozenset({node})]
            arrival[node] = 0
            area_flow[node] = 0.0
            continue
        fanin0, fanin1 = netlist.fanins(node)
        candidates: Set[FrozenSet[int]] = set()
        for cut0 in cuts[fanin0]:
            for cut1 in cuts[fanin1]:
                union = cut0 | cut1
                if len(union) <= lut_inputs:
                    candidates.add(union)
        if not candidates:
            # Both fanin cut lists were pruned too hard; the immediate-fanin
            # cut is always feasible for a 2-input gate.
            candidates.add(frozenset({fanin0, fanin1}))
        by_depth = sorted(
            candidates,
            key=lambda cut: (_cut_depth(cut, arrival), _cut_flow(cut, area_flow), len(cut)),
        )
        by_flow = sorted(
            candidates,
            key=lambda cut: (_cut_flow(cut, area_flow), _cut_depth(cut, arrival), len(cut)),
        )
        kept: List[FrozenSet[int]] = []
        for cut in by_depth[: max(1, cut_limit - 2)] + by_flow[:2]:
            if cut not in kept:
                kept.append(cut)
        best = kept[0]
        arrival[node] = _cut_depth(best, arrival)
        area_flow[node] = _cut_flow(best, area_flow) / max(1, fanout[node])
        # The trivial cut lets fanout gates treat this node as a leaf signal.
        cuts[node] = kept + [frozenset({node})]

    # --------------------------------------------------- area-recovery cover
    # Covering runs over decreasing node id (reverse topological order), so a
    # node's depth budget is fully known — inherited from all of its mapped
    # consumers — before its own cut is chosen.  A cut is only admissible if
    # every leaf can still be implemented within the remaining budget
    # (arrival[leaf] <= budget - 1), which bounds the final mapped depth by
    # the depth-optimal value plus ``depth_slack``.
    selected: Dict[int, FrozenSet[int]] = {}
    needed: Set[int] = set()
    budget: Dict[int, int] = {}
    optimal_depth = 0
    for _, node in netlist.outputs:
        if netlist.op(node) in (OP_AND, OP_XOR):
            needed.add(node)
            optimal_depth = max(optimal_depth, arrival[node])
    for _, node in netlist.outputs:
        if node in needed:
            budget[node] = max(arrival[node], optimal_depth) + depth_slack

    for node in range(node_count - 1, -1, -1):
        if node not in needed or netlist.op(node) not in (OP_AND, OP_XOR):
            continue
        node_budget = budget.get(node, arrival[node] + depth_slack)
        best_choice: Optional[FrozenSet[int]] = None
        best_cost: Optional[Tuple[int, int, int]] = None
        for cut in cuts[node]:
            if len(cut) == 1 and node in cut:
                continue  # trivial cut cannot implement the node
            depth = _cut_depth(cut, arrival)
            if depth > node_budget:
                continue
            new_gates = sum(
                1
                for leaf in cut
                if leaf not in needed and netlist.op(leaf) in (OP_AND, OP_XOR)
            )
            cost = (new_gates, len(cut), depth)
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_choice = cut
        if best_choice is None:  # pragma: no cover - the depth-optimal cut is always admissible
            best_choice = cuts[node][0]
        selected[node] = best_choice
        for leaf in best_choice:
            if netlist.op(leaf) in (OP_AND, OP_XOR):
                needed.add(leaf)
                leaf_budget = node_budget - 1
                budget[leaf] = min(budget.get(leaf, leaf_budget), leaf_budget)

    # --------------------------------------------------------- level assignment
    level: Dict[int, int] = {}
    lut_of_root: Dict[int, MappedLUT] = {}
    for node in sorted(selected):
        cut = selected[node]
        lut_level = 1 + max((level.get(leaf, 0) for leaf in cut), default=0)
        level[node] = lut_level
        lut_of_root[node] = MappedLUT(root=node, leaves=tuple(sorted(cut)), level=lut_level)

    luts = [lut_of_root[node] for node in sorted(lut_of_root)]
    return MappedNetwork(source=netlist, luts=luts, outputs=list(netlist.outputs), lut_of_root=lut_of_root)
