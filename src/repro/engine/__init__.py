"""Compiled batch-multiplication engine.

This package is the batch execution layer on top of the paper
reproduction: where :mod:`repro.netlist.simulate` interprets a netlist node
by node (the readable reference every check runs), :mod:`repro.engine`
compiles the circuit once and pushes bit-packed operand batches through it
at word speed.

Layers, bottom up:

* :mod:`repro.engine.bitpack` — word-level bit-matrix transposition between
  operand row words and per-input-bit plane words;
* :mod:`repro.engine.compiler` — levelization of a netlist and its
  generated straight-line Python evaluator;
* :mod:`repro.engine.engine` — the :class:`Engine` batch API
  (``multiply_batch``) and the cached :func:`engine_for` factory.

Quick start
-----------
>>> from repro.engine import engine_for
>>> from repro.galois import type_ii_pentanomial
>>> engine = engine_for("thiswork", type_ii_pentanomial(8, 2))
>>> engine.multiply_batch([0x57, 0x01], [0x83, 0x2a])
[49, 42]
"""

from .bitpack import block_size_for, pack_rows, transpose_square, unpack_planes
from .compiler import CompiledNetlist, compile_netlist
from .engine import Engine, engine_for

__all__ = [
    "block_size_for",
    "pack_rows",
    "transpose_square",
    "unpack_planes",
    "CompiledNetlist",
    "compile_netlist",
    "Engine",
    "engine_for",
]
