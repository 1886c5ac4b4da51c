"""Formal and simulation-based verification of multiplier netlists.

Two complementary checks are provided:

* :func:`extract_output_pairs` / :func:`verify_netlist` — **exact symbolic
  verification**.  Every netlist in this project is an XOR network over AND
  gates whose fanins are primary inputs ``a_i`` / ``b_j``.  For this circuit
  class the function computed by each output is fully characterised by the
  set of partial products reaching it (XOR = symmetric difference of sets),
  so comparing that set against the :class:`~repro.spec.product_spec.ProductSpec`
  is a complete equivalence proof, not a sampling argument.

* :func:`verify_by_simulation` — bit-parallel simulation against the
  reference field arithmetic, exhaustive for small fields and randomized for
  large ones.  This guards against errors in the symbolic extractor itself
  and covers netlists that fall outside the AND-of-inputs circuit class.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, TYPE_CHECKING, Tuple

from ..galois.field import GF2mField
from ..galois.gf2poly import degree
from .netlist import OP_AND, OP_CONST0, OP_INPUT, OP_XOR
from .simulate import simulate_words

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..spec.product_spec import ProductSpec
    from ..spec.terms import Pair
    from .netlist import Netlist

__all__ = [
    "UnsupportedStructureError",
    "extract_output_pairs",
    "VerificationReport",
    "verify_netlist",
    "verify_by_simulation",
]


class UnsupportedStructureError(ValueError):
    """Raised when a netlist is not an XOR network over input-level AND gates."""


def _parse_input_name(name: str) -> Tuple[str, int]:
    operand = name[0]
    if operand not in ("a", "b") or not name[1:].isdigit():
        raise UnsupportedStructureError(
            f"primary input {name!r} does not follow the a<i>/b<j> multiplier convention"
        )
    return operand, int(name[1:])


def extract_output_pairs(netlist: Netlist) -> Dict[str, FrozenSet[Pair]]:
    """Return, per output, the exact set of partial products it computes.

    Raises :class:`UnsupportedStructureError` if an AND gate has a non-input
    fanin or combines two bits of the same operand.
    """
    pair_sets: List[Optional[frozenset]] = [None] * netlist.node_count
    input_info: Dict[int, Tuple[str, int]] = {}
    for name in netlist.inputs:
        input_info[netlist.input_node(name)] = _parse_input_name(name)

    for node in netlist.nodes():
        op = netlist.op(node)
        if op == OP_CONST0:
            pair_sets[node] = frozenset()
        elif op == OP_INPUT:
            pair_sets[node] = None  # bare inputs only feed AND gates in this class
        elif op == OP_AND:
            fanin0, fanin1 = netlist.fanins(node)
            if fanin0 not in input_info or fanin1 not in input_info:
                raise UnsupportedStructureError(
                    f"AND node {node} has a non-primary-input fanin; symbolic extraction "
                    "only supports partial-product AND gates"
                )
            operand0, index0 = input_info[fanin0]
            operand1, index1 = input_info[fanin1]
            if operand0 == operand1:
                raise UnsupportedStructureError(
                    f"AND node {node} combines two bits of operand {operand0!r}"
                )
            if operand0 == "a":
                pair_sets[node] = frozenset({(index0, index1)})
            else:
                pair_sets[node] = frozenset({(index1, index0)})
        elif op == OP_XOR:
            fanin0, fanin1 = netlist.fanins(node)
            left = pair_sets[fanin0]
            right = pair_sets[fanin1]
            if left is None or right is None:
                raise UnsupportedStructureError(
                    f"XOR node {node} is fed directly by a primary input; the netlist is "
                    "not a pure XOR-of-partial-products network"
                )
            pair_sets[node] = left ^ right
        else:  # pragma: no cover - defensive
            raise UnsupportedStructureError(f"unknown op code {op} at node {node}")

    outputs: Dict[str, FrozenSet[Pair]] = {}
    for name, node in netlist.outputs:
        pairs = pair_sets[node]
        if pairs is None:
            raise UnsupportedStructureError(f"output {name!r} is driven directly by a primary input")
        outputs[name] = pairs
    return outputs


@dataclass
class VerificationReport:
    """Result of checking a netlist against its product specification."""

    equivalent: bool
    checked_outputs: int
    mismatched_outputs: List[str] = field(default_factory=list)
    details: Dict[str, str] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.equivalent

    def summary(self) -> str:
        """One-line verdict suitable for logs."""
        if self.equivalent:
            return f"equivalent ({self.checked_outputs} outputs formally verified)"
        return f"NOT equivalent: mismatches on {', '.join(self.mismatched_outputs)}"


def verify_netlist(netlist: Netlist, spec: ProductSpec) -> VerificationReport:
    """Formally verify a multiplier netlist against a :class:`ProductSpec`."""
    observed = extract_output_pairs(netlist)
    mismatches: List[str] = []
    details: Dict[str, str] = {}
    for k in range(spec.m):
        name = f"c{k}"
        expected = spec.pairs(k)
        actual = observed.get(name)
        if actual is None:
            mismatches.append(name)
            details[name] = "output missing from netlist"
            continue
        if actual != expected:
            mismatches.append(name)
            missing = expected - actual
            spurious = actual - expected
            details[name] = f"missing {sorted(missing)[:4]}..., spurious {sorted(spurious)[:4]}..."
    return VerificationReport(
        equivalent=not mismatches,
        checked_outputs=spec.m,
        mismatched_outputs=mismatches,
        details=details,
    )


def _netlist_evaluator(netlist: Netlist, modulus: int, backend: str, vector_count: int):
    """The batch evaluator of the requested simulation substrate.

    ``backend`` mirrors the execution-backend names of
    :mod:`repro.backends`: ``"engine"`` compiles the netlist to the
    big-integer straight-line evaluator, ``"bitslice"`` lowers it to numpy
    plane arrays, ``"python"`` (or ``"interpreter"``) walks it with the
    interpreted simulator.  ``"native"`` evaluates no circuit — the C
    word-level tier multiplies directly — so its evaluator runs the
    netlist on the engine substrate and cross-checks the native backend's
    word arithmetic against it on the very same vectors, keeping both the
    circuit and the backend under one parity assertion.  Raises
    ``KeyError`` for unknown names and whatever the substrate itself
    raises (e.g. ``ImportError`` from ``bitslice`` without numpy) — an
    explicitly requested substrate must not silently degrade, or the
    parity assertion would be meaningless.
    """
    m = degree(modulus)
    if backend == "engine":
        from ..engine.engine import engine_for_netlist

        # Straight-line code generation costs ~1 s per 50k gates; it only pays
        # off for big vector sets (exhaustive small-field sweeps).  Spot checks
        # of large netlists use the instantly-compiled flat schedule instead.
        mode = "exec" if vector_count >= 2048 else "arrays"
        return engine_for_netlist(netlist, m, mode=mode).multiply_batch
    if backend == "bitslice":
        from ..backends.bitslice import BitslicedNetlist

        return BitslicedNetlist(netlist, m).multiply_batch
    if backend in ("python", "interpreter"):
        def multiply_batch(a_chunk, b_chunk):
            return simulate_words(netlist, m, a_chunk, b_chunk)

        return multiply_batch
    if backend == "native":
        from ..backends.native import NativeBackend
        from ..engine.engine import engine_for_netlist

        circuit = engine_for_netlist(netlist, m, mode="arrays").multiply_batch
        native = NativeBackend(GF2mField(modulus, check_irreducible=False))

        def multiply_batch(a_chunk, b_chunk):
            products = circuit(a_chunk, b_chunk)
            word_products = native.multiply_batch(a_chunk, b_chunk)
            if list(word_products) != list(products):
                raise AssertionError(
                    "native word arithmetic disagrees with the netlist on "
                    f"GF(2^{m}) simulation vectors"
                )
            return products

        return multiply_batch
    raise KeyError(
        f"unknown simulation backend {backend!r}; "
        "expected 'engine', 'bitslice', 'native' or 'python'"
    )


def verify_by_simulation(
    netlist: Netlist,
    modulus: int,
    trials: int = 256,
    seed: int = 2018,
    exhaustive_limit: int = 8,
    backend: Optional[str] = None,
) -> bool:
    """Check the netlist against reference field arithmetic by simulation.

    Fields with ``m <= exhaustive_limit`` are verified exhaustively (all
    ``2^m × 2^m`` operand pairs in bit-parallel batches); larger fields use
    ``trials`` random pairs plus a few structured corner cases.

    ``backend`` selects the simulation substrate (``"engine"``,
    ``"bitslice"``, ``"native"`` or ``"python"``), so parity with the
    reference scalar arithmetic is asserted uniformly for every execution
    backend on the very same vectors.  Without it, the compiled engine
    simulates, falling back to the interpreted
    :func:`~repro.netlist.simulate.simulate_words` path for netlists
    outside the multiplier I/O convention.
    """
    m = degree(modulus)
    reference = GF2mField(modulus, check_irreducible=False)
    if m <= exhaustive_limit:
        a_values = []
        b_values = []
        for a in range(1 << m):
            for b in range(1 << m):
                a_values.append(a)
                b_values.append(b)
    else:
        rng = random.Random(seed)
        a_values = [0, 1, (1 << m) - 1, 1 << (m - 1)]
        b_values = [0, (1 << m) - 1, (1 << m) - 1, 1 << (m - 1)]
        for _ in range(trials):
            a_values.append(rng.getrandbits(m))
            b_values.append(rng.getrandbits(m))
    if backend is not None:
        multiply_batch = _netlist_evaluator(netlist, modulus, backend, len(a_values))
    else:
        try:
            multiply_batch = _netlist_evaluator(netlist, modulus, "engine", len(a_values))
        except ValueError:
            # Netlists outside the multiplier I/O convention (odd input names,
            # missing outputs) still verify through the tolerant interpreter.
            multiply_batch = _netlist_evaluator(netlist, modulus, "python", len(a_values))
    batch = 4096
    for start in range(0, len(a_values), batch):
        a_chunk = a_values[start:start + batch]
        b_chunk = b_values[start:start + batch]
        products = multiply_batch(a_chunk, b_chunk)
        for a, b, product in zip(a_chunk, b_chunk, products):
            if product != reference.multiply(a, b):
                return False
    return True
