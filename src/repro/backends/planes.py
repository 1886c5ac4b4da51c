"""Plane-resident GF(2^m) compute: values that *live* in uint64 bit planes.

The bitsliced backend (:mod:`repro.backends.bitslice`) made one batched
multiplication fast, but a consumer like the Montgomery ladder calls it
``~m`` times per scalar multiplication — and every call pays two full
bit-matrix transposes (rows → planes, planes → rows) plus per-element
scalar Python for everything between the multiplications.  This module
removes the round trips: a batch of field elements is packed into an
``(m, lane_words)`` ``uint64`` plane array **once** (bit ``p`` of row
``i`` is coordinate ``a_i`` of lane ``p``), every operation of the
consuming algorithm runs directly on that representation, and rows are
unpacked **once** at the end.

Three kinds of operation cover a whole López-Dahab ladder step:

* full products — the bitsliced multiplier netlist evaluated plane-to-plane
  (:meth:`repro.backends.bitslice.BitslicedNetlist.multiply_planes`), with
  several independent products lane-stacked into one netlist pass;
* GF(2)-**linear** maps (squaring, multiplication by a fixed curve
  constant) — a :class:`~repro.galois.field.GF2LinearMap` is lowered by
  :class:`PlaneProgram` into level-segmented gather/XOR passes, the same
  contiguous-slice trick :class:`~repro.backends.bitslice.BitslicedNetlist`
  uses for the multiplier itself;
* data movement — XOR of plane vectors and scalar-bit-dependent *selects*
  driven by a broadcast lane mask, so mixed control bits across one batch
  never leave the plane domain.

:class:`PlaneIRExecutor` is the bitslice backend's
:class:`~repro.backends.ir.IRExecutor`
(:meth:`repro.backends.base.FieldBackend.ir_executor`): it compiles a
scheduled :class:`~repro.backends.ir.FieldProgram` into these passes, so
the batched curve ladder (:meth:`repro.curves.point.BinaryCurve
.multiply_batch`) keeps all ``~m`` steps plane-resident.

Compiled :class:`PlaneProgram` s are memoized process-wide (keyed by the
map's basis images), mirroring the multiplier cache, so repeated field or
curve constructions never re-lower a linear map.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..engine.bitpack import pack_rows, unpack_planes
from ..pipeline.store import LRUCache
from ..telemetry import trace as _trace
from .ir import (
    K_LINEAR,
    K_MUL,
    CompiledProgram,
    FieldProgram,
    IRExecutor,
    lane_mask_bytes,
    lane_words_for,
)

#: numpy, imported by the first plane computation (``None`` when it is not
#: installed): importing it with the package would cost every process
#: ~12 MB of resident memory, word-level backends included.
_UNLOADED = object()
_np = _UNLOADED

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..galois.field import GF2LinearMap
    from .bitslice import BitsliceBackend

__all__ = [
    "PlaneProgram",
    "PlaneIRExecutor",
    "CompiledPlaneIR",
    "plane_program",
]


def _import_numpy():
    """The numpy module, or ``None`` when it is not installed."""
    try:
        import numpy
    except ImportError:  # pragma: no cover
        return None
    return numpy


def _require_numpy():
    global _np
    if _np is _UNLOADED:
        _np = _import_numpy()
    if _np is None:
        raise ImportError(
            "plane-resident compute needs numpy, which is not installed; "
            "run 'pip install numpy' (or install the gf2m-repro[bitslice] extra)"
        )
    return _np


def _planes_to_array(planes: Sequence[int], lane_words: int):
    """Big-integer planes → a ``(len(planes), lane_words)`` uint64 array."""
    lane_bytes = lane_words * 8
    buffer = b"".join(plane.to_bytes(lane_bytes, "little") for plane in planes)
    return _require_numpy().frombuffer(buffer, dtype="<u8").reshape(len(planes), lane_words)


def _array_to_planes(array) -> List[int]:
    """The inverse of :func:`_planes_to_array` (rows back to big integers)."""
    np = _require_numpy()
    return [int.from_bytes(np.ascontiguousarray(row).tobytes(), "little") for row in array]


class _LaneBufferCache:
    """Thread-local per-lane-width buffer pool, bounded to four widths.

    Shared by :class:`PlaneProgram` and
    :class:`~repro.backends.bitslice.BitslicedNetlist`: compiled evaluators
    are cached process-wide and used from multiple threads, so each thread
    gets its own buffers, keyed by lane width and evicted wholesale once
    odd tail widths would accumulate.
    """

    __slots__ = ("_factory", "_local")

    def __init__(self, factory) -> None:
        self._factory = factory
        self._local = threading.local()

    def get(self, lane_words: int):
        buffers = getattr(self._local, "buffers", None)
        if buffers is None:
            buffers = self._local.buffers = {}
        entry = buffers.get(lane_words)
        if entry is None:
            if len(buffers) >= 4:
                buffers.clear()
            entry = self._factory(lane_words)
            buffers[lane_words] = entry
        return entry


class PlaneProgram:
    """A GF(2)-linear map compiled to level-segmented plane gather/XOR passes.

    The map sends basis vector ``y^i`` to ``masks[i]``; on plane arrays that
    means output row ``j`` is the XOR of every input row ``i`` whose mask has
    bit ``j`` set.  Each output's XOR tree is balanced, all tree gates are
    renumbered densely in level order (the contiguous-slice trick of
    :class:`~repro.backends.bitslice.BitslicedNetlist`), and one level then
    evaluates as two fancy-indexed gathers plus a single vectorized
    ``bitwise_xor`` into the output slice.  Outputs that copy a single input
    row or are identically zero cost nothing beyond the final output gather.

    Work buffers are thread-local per lane width, so cached programs shared
    across threads never corrupt each other.
    """

    def __init__(self, masks: Sequence[int], out_bits: Optional[int] = None) -> None:
        np = _require_numpy()
        self.input_bits = len(masks)
        self.out_bits = self.input_bits if out_bits is None else out_bits
        if any(mask >> self.out_bits for mask in masks):
            raise ValueError(f"a basis image exceeds the {self.out_bits}-bit output space")

        # refs are (row-kind, index, level): inputs at level 0, gates above.
        gates: List[Tuple[int, Tuple, Tuple]] = []  # (level, fanin_ref, fanin_ref)
        output_refs: List[Optional[Tuple]] = []
        for j in range(self.out_bits):
            refs = [("in", i, 0) for i in range(self.input_bits) if (masks[i] >> j) & 1]
            if not refs:
                output_refs.append(None)
                continue
            while len(refs) > 1:
                reduced = []
                for k in range(0, len(refs) - 1, 2):
                    left, right = refs[k], refs[k + 1]
                    level = 1 + max(left[2], right[2])
                    gates.append((level, left, right))
                    reduced.append(("gate", len(gates) - 1, level))
                if len(refs) % 2:
                    reduced.append(refs[-1])
                refs = reduced
            output_refs.append(refs[0])

        # Dense renumbering: input rows first, then gates sorted by level so
        # each level is one contiguous slice; one reserved all-zero row last.
        order = sorted(range(len(gates)), key=lambda g: gates[g][0])
        gate_row = {g: self.input_bits + position for position, g in enumerate(order)}
        self.row_count = self.input_bits + len(gates) + 1
        self._zero_row = self.row_count - 1

        def row_of(ref: Optional[Tuple]) -> int:
            if ref is None:
                return self._zero_row
            kind, index, _ = ref
            return index if kind == "in" else gate_row[index]

        segments: List[List] = []  # [start, end, fanin0 rows, fanin1 rows]
        current_level = None
        for g in order:
            level, left, right = gates[g]
            if level != current_level:
                segments.append([gate_row[g], gate_row[g], [], []])
                current_level = level
            segment = segments[-1]
            segment[1] = gate_row[g] + 1
            segment[2].append(row_of(left))
            segment[3].append(row_of(right))
        self._segments = [
            (start, end, np.asarray(f0, dtype=np.intp), np.asarray(f1, dtype=np.intp))
            for start, end, f0, f1 in segments
        ]
        self._output_rows = np.asarray([row_of(ref) for ref in output_refs], dtype=np.intp)
        self.xor_count = len(gates)
        self.level_count = len(self._segments)
        max_gather = max((end - start for start, end, _, _ in self._segments), default=0)
        # Work buffer zero-initialized so the reserved zero row stays zero
        # (inputs and gate slices are fully overwritten on every apply, the
        # zero row never); gather scratch for allocation-free np.take.
        np = _require_numpy()
        self._buffers = _LaneBufferCache(
            lambda lane_words: (
                np.zeros((self.row_count, lane_words), dtype=np.uint64),
                np.empty((max_gather, lane_words), dtype=np.uint64),
                np.empty((max_gather, lane_words), dtype=np.uint64),
            )
        )

    def apply(self, planes):
        """Apply the map to an ``(input_bits, lane_words)`` plane array.

        Returns a fresh ``(out_bits, lane_words)`` array (the final output
        gather never aliases the reused work buffer).
        """
        if planes.shape[0] != self.input_bits:
            raise ValueError(
                f"expected {self.input_bits} input planes, got {planes.shape[0]}"
            )
        return self.apply_parts((planes,))

    def apply_parts(self, parts: Sequence) -> "object":
        """:meth:`apply` over an input space given as stacked row blocks.

        The fused-IR executor keeps each register as its own ``(m,
        lane_words)`` array; a multi-input program writes the blocks
        straight into consecutive work-buffer slices, so no concatenated
        temporary is ever allocated on the hot path.  The blocks' row
        counts must sum to :attr:`input_bits`.
        """
        np = _require_numpy()
        work, gather0, gather1 = self._buffers.get(parts[0].shape[1])
        offset = 0
        for part in parts:
            rows = part.shape[0]
            work[offset:offset + rows] = part
            offset += rows
        if offset != self.input_bits:
            raise ValueError(f"expected {self.input_bits} input planes, got {offset}")
        for start, end, fanin0, fanin1 in self._segments:
            count = end - start
            np.take(work, fanin0, axis=0, out=gather0[:count], mode="clip")
            np.take(work, fanin1, axis=0, out=gather1[:count], mode="clip")
            np.bitwise_xor(gather0[:count], gather1[:count], out=work[start:end])
        return work[self._output_rows]

    def describe(self) -> str:
        """One-line structural summary."""
        return (
            f"plane program {self.input_bits}->{self.out_bits} bits: "
            f"{self.xor_count} XOR in {self.level_count} levels"
        )


#: Compiled plane programs keyed by the map's basis images — repeated field
#: or curve constructions for the same modulus share one lowering.
_PROGRAM_CACHE = LRUCache(maxsize=64, name="planes.programs")


def plane_program(linear_map: "GF2LinearMap") -> PlaneProgram:
    """The memoized :class:`PlaneProgram` lowering of a ``GF2LinearMap``."""
    key = (linear_map.input_bits, linear_map.masks)
    return _PROGRAM_CACHE.get_or_create(key, lambda: PlaneProgram(linear_map.masks))


def _fused_plane_program(masks: Sequence[int], out_bits: int) -> PlaneProgram:
    """Memoized lowering of a fused LinearPass (multi-input, multi-output)."""
    key = (len(masks), tuple(masks), out_bits)
    return _PROGRAM_CACHE.get_or_create(key, lambda: PlaneProgram(masks, out_bits=out_bits))


class CompiledPlaneIR(CompiledProgram):
    """One :class:`~repro.backends.ir.FieldProgram` lowered to plane passes.

    Built by :meth:`PlaneIRExecutor.compile`; holds the per-pass plane
    lowering so executing a step costs only the numpy work:

    * a ``MulPass`` lane-stacks all its products into **one**
      :meth:`~repro.backends.bitslice.BitslicedNetlist.multiply_planes`
      evaluation over the lane-concatenated operand arrays;
    * a ``LinearPass`` becomes **one** multi-input multi-output
      :class:`PlaneProgram` (its fused basis-image masks over the stacked
      register space), applied without concatenation via
      :meth:`PlaneProgram.apply_parts`;
    * a ``SelectPass`` applies each broadcast lane mask with three
      bitwise ops per swapped register, the inverted mask computed once.
    """

    def __init__(self, executor: "PlaneIRExecutor", program: FieldProgram) -> None:
        super().__init__(executor, program)
        np = _require_numpy()
        self._output_vids = [vid for _, vid in program.ir.outputs]
        lowered: List[tuple] = []
        for item in program.passes:
            if item.kind == K_MUL:
                lowered.append((K_MUL, tuple(item.pairs)))
            elif item.kind == K_LINEAR:
                fused = _fused_plane_program(
                    item.fused_masks(self.m), len(item.outputs) * self.m
                )
                lowered.append((K_LINEAR, tuple(item.inputs), tuple(item.outputs), fused))
            else:
                lowered.append(("select", tuple(item.triples)))
        self._passes = lowered
        self._np = np

    def run_arrays(self, input_arrays: Sequence, mask_arrays: Sequence) -> List:
        """Execute over ``(m, lane_words)`` arrays in declared input order.

        ``mask_arrays`` are broadcast lane-word masks (one per declared
        mask input, as built by :meth:`PlaneIRExecutor.broadcast_bits`).
        Returns fresh output arrays in declared output order.
        """
        np = self._np
        sliced = self.executor.sliced
        m = self.m
        regs: Dict[int, object] = dict(zip(self._input_vids, input_arrays))
        masks: Dict[str, object] = dict(zip(self.mask_names, mask_arrays))
        if self.program.consts:
            lane_words = input_arrays[0].shape[1]
            for vid, value in self.program.consts:
                const = np.zeros((m, lane_words), dtype=np.uint64)
                const[[i for i in range(m) if (value >> i) & 1]] = ~np.uint64(0)
                regs[vid] = const
        inverted: Dict[str, object] = {}
        tracer = _trace.TRACER
        # Span names are built once per program, so the traced hot loop
        # never formats strings; with the NullTracer installed each pass
        # costs one no-op context manager next to its numpy work.
        for label, lowering in zip(self.program.pass_labels, self._passes):
            with tracer.span(label):
                if lowering[0] == K_MUL:
                    pairs = lowering[1]
                    if len(pairs) == 1:
                        a, b, out = pairs[0]
                        regs[out] = sliced.multiply_planes(regs[a], regs[b])
                        continue
                    stacked = sliced.multiply_planes(
                        np.concatenate([regs[a] for a, _, _ in pairs], axis=1),
                        np.concatenate([regs[b] for _, b, _ in pairs], axis=1),
                    )
                    width = stacked.shape[1] // len(pairs)
                    for index, (_, _, out) in enumerate(pairs):
                        regs[out] = stacked[:, index * width:(index + 1) * width]
                elif lowering[0] == K_LINEAR:
                    _, in_vids, out_vids, fused = lowering
                    result = fused.apply_parts([regs[vid] for vid in in_vids])
                    for position, vid in enumerate(out_vids):
                        regs[vid] = result[position * m:(position + 1) * m]
                else:
                    for mask_name, set_vid, clear_vid, out in lowering[1]:
                        mask = masks[mask_name]
                        inv = inverted.get(mask_name)
                        if inv is None:
                            inv = inverted[mask_name] = np.bitwise_not(mask)
                        regs[out] = np.bitwise_or(
                            np.bitwise_and(regs[set_vid], mask),
                            np.bitwise_and(regs[clear_vid], inv),
                        )
        return [regs[vid] for vid in self._output_vids]


class PlaneIRExecutor(IRExecutor):
    """The bitslice backend's :class:`~repro.backends.ir.IRExecutor`.

    Packed values are ``(m, lane_words)`` ``uint64`` plane arrays and masks
    broadcastable ``(lane_words,)`` rows; :meth:`compile` lowers a program
    to a :class:`CompiledPlaneIR`.  Chunks follow the netlist's lane width.
    """

    kind = "plane"
    compiled_type = CompiledPlaneIR

    def __init__(self, backend: "BitsliceBackend") -> None:
        super().__init__(backend, backend.chunk_size)
        self.sliced = backend.sliced

    def pack(self, values: Sequence[int]):
        """Validated field elements → an ``(m, lane_words)`` plane array."""
        mask = (1 << self.m) - 1
        planes = pack_rows([value & mask for value in values], self.m)
        return _planes_to_array(planes, lane_words_for(len(values)))

    def unpack(self, array, lanes: int) -> List[int]:
        """The first ``lanes`` lanes of a plane array, as field elements."""
        return unpack_planes(_array_to_planes(array), self.m, lanes)

    def broadcast_bits(self, bits: Sequence[int]):
        """Per-lane control bits → a ``(lane_words,)`` row broadcast over the planes."""
        return _require_numpy().frombuffer(lane_mask_bytes(bits), dtype="<u8")
