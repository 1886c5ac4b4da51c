"""Bit-parallel functional simulation of XOR/AND netlists.

Simulation packs many test vectors into the bits of Python integers, so one
pass over the netlist evaluates an arbitrary number of operand pairs at
once.  The helpers below understand the multiplier I/O convention used
throughout the project: operand ``A`` drives inputs ``a0 .. a(m-1)``,
operand ``B`` drives ``b0 .. b(m-1)`` and the product appears on outputs
``c0 .. c(m-1)``.

:func:`simulate` and :func:`simulate_words` are the *interpreted reference
path*: a readable per-node walk, kept deliberately simple because every
faster path is validated against it.  Operands move in and out of the
packed words through a string-level bit-matrix transpose of their own,
independent of the engine's word-level transposes.  Every check of
one netlist runs here (:func:`multiply_with_netlist`,
:func:`repro.netlist.verify.verify_by_simulation`): a few hundred vectors
interpret faster than the netlist compiles.  Batch traffic goes through
:mod:`repro.engine`, which compiles the netlist once and moves operands
with word-level transposes.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, TYPE_CHECKING

from .netlist import OP_AND, OP_CONST0, OP_INPUT, OP_XOR

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .netlist import Netlist

__all__ = ["simulate", "simulate_words", "multiply_with_netlist"]


def simulate(netlist: Netlist, assignments: Dict[str, int], width: int = 1) -> Dict[str, int]:
    """Evaluate the netlist on bit-packed input words.

    ``assignments`` maps every primary-input name to an integer whose low
    ``width`` bits are that input's value across the ``width`` parallel test
    vectors.  The result maps output names to similarly packed words.
    """
    if width < 1:
        raise ValueError("width must be at least 1")
    mask = (1 << width) - 1
    values: List[int] = [0] * netlist.node_count
    for name in netlist.inputs:
        if name not in assignments:
            raise KeyError(f"no value supplied for primary input {name!r}")
        word = assignments[name]
        if word < 0 or word.bit_length() > width:
            raise ValueError(
                f"assignment for input {name!r} needs {word.bit_length()} bits "
                f"but width is {width}; widen the simulation instead of silently "
                "dropping test vectors"
            )
        values[netlist.input_node(name)] = word
    for node in netlist.nodes():
        op = netlist.op(node)
        if op in (OP_INPUT, OP_CONST0):
            continue
        fanin0, fanin1 = netlist.fanins(node)
        if op == OP_AND:
            values[node] = values[fanin0] & values[fanin1]
        elif op == OP_XOR:
            values[node] = values[fanin0] ^ values[fanin1]
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown op code {op} at node {node}")
    return {name: values[node] & mask for name, node in netlist.outputs}


def _bit_columns(words: Sequence[int], width: int) -> List[int]:
    """Transpose a bit matrix of ``len(words)`` rows by ``width`` columns.

    Bit ``p`` of result ``i`` is bit ``i`` of ``words[p]``, so the same
    call packs operand words into per-bit simulation words and unpacks
    output words back into products.  The matrix is spelled out as one
    string of ``'0'``/``'1'`` digits, row after row, and each column is one
    stepped slice of it.
    """
    spec = f"0{width}b"
    mask = (1 << width) - 1
    digits = "".join([format(word & mask, spec) for word in words])
    return [int(digits[width - 1 - i::width][::-1] or "0", 2) for i in range(width)]


def simulate_words(netlist: Netlist, m: int, a_values: Sequence[int], b_values: Sequence[int]) -> List[int]:
    """Run the multiplier netlist on parallel operand words.

    ``a_values`` and ``b_values`` must have equal length; the returned list
    holds the product word for each pair.
    """
    if len(a_values) != len(b_values):
        raise ValueError("a_values and b_values must have the same length")
    assignments: Dict[str, int] = {}
    for operand, values in (("a", a_values), ("b", b_values)):
        for i, word in enumerate(_bit_columns(values, m)):
            assignments[f"{operand}{i}"] = word
    # Some optimized netlists may not reference every input bit; feed them anyway.
    for name in netlist.inputs:
        assignments.setdefault(name, 0)
    outputs = simulate(netlist, assignments, max(1, len(a_values)))
    return _bit_columns([outputs.get(f"c{k}", 0) for k in range(m)], len(a_values))


def multiply_with_netlist(netlist: Netlist, m: int, a: int, b: int) -> int:
    """Multiply a single pair of field elements with the netlist."""
    return simulate_words(netlist, m, [a], [b])[0]
