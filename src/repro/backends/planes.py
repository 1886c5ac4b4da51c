"""Plane-resident GF(2^m) compute: values that *live* in uint64 bit planes.

The bitsliced backend (:mod:`repro.backends.bitslice`) made one batched
multiplication fast, but a consumer like the Montgomery ladder calls it
``~m`` times per scalar multiplication — and every call pays two full
bit-matrix transposes (rows → planes, planes → rows) plus per-element
scalar Python for everything between the multiplications.  This module
removes the round trips: a batch of field elements is packed into a
:class:`PlaneVector` **once**, every operation of the consuming algorithm
runs directly on the ``(m, lane_words)`` ``uint64`` plane representation,
and rows are unpacked **once** at the end.

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

:class:`PlaneIRExecutor` compiles a scheduled
:class:`~repro.backends.ir.FieldProgram` into these passes; a backend
advertises it through :meth:`repro.backends.base.FieldBackend.ir_executor`,
and the batched curve ladder (:meth:`repro.curves.point.BinaryCurve
.multiply_batch`) then keeps all ``~m`` steps plane-resident.

Compiled :class:`PlaneProgram` s are memoized process-wide (keyed by the
map's basis images), mirroring the multiplier cache, so repeated field or
curve constructions never re-lower a linear map.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

from ..engine.bitpack import pack_rows, unpack_planes
from ..pipeline.store import LRUCache
from ..telemetry import metrics as _metrics
from ..telemetry import trace as _trace
from .ir import K_LINEAR, K_MUL, FieldProgram
from .steps import run_steps_python

#: numpy, imported by the first plane computation (``None`` when it is not
#: installed): importing it with the package would cost every process
#: ~12 MB of resident memory, word-level backends included.
_UNLOADED = object()
_np = _UNLOADED

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..galois.field import GF2LinearMap, GF2mField
    from .bitslice import BitslicedNetlist

__all__ = [
    "PlaneVector",
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


def lane_words_for(lanes: int) -> int:
    """uint64 words per plane for a batch of ``lanes`` elements (min 1)."""
    return max(1, (lanes + 63) // 64)


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


@dataclass(frozen=True)
class PlaneVector:
    """A batch of GF(2^m) elements resident in uint64 bit planes.

    ``array`` has shape ``(m, lane_words)``: bit ``p`` of row ``i`` is
    coordinate ``a_i`` of batch element ``p``.  ``lanes`` is the live batch
    size; lane bits at positions ``lanes`` and above are dead (kept zero by
    :meth:`PlaneIRExecutor.pack`, ignored by :meth:`PlaneIRExecutor.unpack`).
    The wrapper is immutable — operations return fresh vectors, so a
    :class:`PlaneVector` can be reused freely across ladder steps.
    """

    array: "object"  # numpy (m, lane_words) uint64; untyped to keep numpy optional
    lanes: int

    @property
    def m(self) -> int:
        """Coordinate count (rows of the plane array)."""
        return self.array.shape[0]

    @property
    def lane_words(self) -> int:
        """uint64 words per plane (columns of the array)."""
        return self.array.shape[1]

    def copy(self) -> "PlaneVector":
        """An independent copy (same values, fresh storage)."""
        return PlaneVector(self.array.copy(), self.lanes)


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


class CompiledPlaneIR:
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

    ``run_arrays`` is the hot-loop entry point (plain arrays in schedule
    order, no dicts); :meth:`run` is the friendly name-keyed wrapper.
    """

    def __init__(self, executor: "PlaneIRExecutor", program: FieldProgram) -> None:
        np = _require_numpy()
        self.executor = executor
        self.program = program
        self.m = program.m
        ir = program.ir
        self.input_names = [name for name, _ in ir.inputs]
        self.mask_names = [name for name, _ in ir.mask_inputs]
        self.output_names = [name for name, _ in ir.outputs]
        self._input_vids = [vid for _, vid in ir.inputs]
        self._output_vids = [vid for _, vid in ir.outputs]
        lowered: List[tuple] = []
        labels: List[str] = []
        for pass_index, item in enumerate(program.passes):
            if item.kind == K_MUL:
                lowered.append((K_MUL, tuple(item.pairs)))
            elif item.kind == K_LINEAR:
                fused = _fused_plane_program(
                    item.fused_masks(self.m), len(item.outputs) * self.m
                )
                lowered.append((K_LINEAR, tuple(item.inputs), tuple(item.outputs), fused))
            else:
                lowered.append(("select", tuple(item.triples)))
            labels.append(f"ir.pass.{pass_index:02d}.{lowered[-1][0]}")
        self._passes = lowered
        # Span names are built once here so the traced hot loop never
        # formats strings; with the NullTracer installed each pass costs
        # one no-op context manager next to its numpy work.
        self._pass_labels = labels
        self._np = np

    def run_arrays(self, input_arrays: Sequence, mask_arrays: Sequence) -> List:
        """Execute over ``(m, lane_words)`` arrays in declared input order.

        ``mask_arrays`` are broadcast lane-word masks (one per declared
        mask input, as built by :meth:`PlaneIRExecutor.broadcast_bits`).
        Returns fresh output arrays in declared output order — the caller
        may feed them back in as the next step's inputs.
        """
        np = self._np
        sliced = self.executor.sliced
        m = self.m
        regs: Dict[int, object] = dict(zip(self._input_vids, input_arrays))
        masks: Dict[str, object] = dict(zip(self.mask_names, mask_arrays))
        if self.program.consts:
            lane_words = input_arrays[0].shape[1]
            live = self.executor._live_lane_words(lane_words)
            for vid, value in self.program.consts:
                const = np.zeros((m, lane_words), dtype=np.uint64)
                for i in range(m):
                    if (value >> i) & 1:
                        const[i] = live
                regs[vid] = const
        inverted: Dict[str, object] = {}
        tracer = _trace.TRACER
        for label, lowering in zip(self._pass_labels, self._passes):
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

    def run(
        self,
        inputs: Mapping[str, PlaneVector],
        masks: Optional[Mapping[str, Sequence[int]]] = None,
    ) -> Dict[str, PlaneVector]:
        """Name-keyed execution over :class:`PlaneVector` s.

        Mask streams may be plain 0/1 bit sequences (broadcast here) or
        prebuilt lane-word mask arrays.  All inputs must share one batch
        layout.
        """
        vectors = []
        for name in self.input_names:
            if name not in inputs:
                raise KeyError(f"program {self.program.ir.name!r} needs input {name!r}")
            vectors.append(inputs[name])
        first = vectors[0]
        for vector in vectors[1:]:
            if vector.array.shape != first.array.shape or vector.lanes != first.lanes:
                raise ValueError(
                    f"inputs of one batch expected: {vector.lanes} lanes "
                    f"{vector.array.shape} vs {first.lanes} lanes {first.array.shape}"
                )
        mask_arrays = []
        for name in self.mask_names:
            if masks is None or name not in masks:
                raise KeyError(f"program {self.program.ir.name!r} needs mask {name!r}")
            stream = masks[name]
            if isinstance(stream, (list, tuple)):
                stream = self.executor.broadcast_bits(stream)
            if stream.shape != (first.lane_words,):
                raise ValueError(
                    f"mask {name!r} shape {stream.shape} does not cover "
                    f"{first.lane_words} lane words; build it with broadcast_bits "
                    "over the same batch"
                )
            mask_arrays.append(stream)
        outputs = self.run_arrays([vector.array for vector in vectors], mask_arrays)
        return {
            name: PlaneVector(array, first.lanes)
            for name, array in zip(self.output_names, outputs)
        }

    def describe(self) -> str:
        """Structural summary of the scheduled program plus the substrate."""
        return f"{self.program.describe()} on {self.executor.sliced.describe()}"


class PlaneIRExecutor:
    """The plane-resident *IR executor* capability of a bitsliced backend.

    A consumer expresses its whole formula as a
    :class:`~repro.backends.ir.FieldIR`, schedules it once
    (:func:`~repro.backends.ir.schedule_program`), hands the result to
    :meth:`compile`, and executes the returned :class:`CompiledPlaneIR`
    per step.  Only the batch boundary stays explicit: :meth:`pack` /
    :meth:`unpack` for values, :meth:`broadcast_bits` for per-lane control
    masks.

    Compiled lowerings are memoized per executor, keyed by the program's
    fingerprint (``FieldProgram.key``), so repeated ladder calls never
    re-lower.
    """

    def __init__(self, field: "GF2mField", sliced: "BitslicedNetlist") -> None:
        _require_numpy()
        self.field = field
        self.sliced = sliced
        self.m = sliced.m
        self._compiled: dict = {}
        self._live_masks: dict = {}

    @property
    def chunk_size(self) -> int:
        """Preferred batch lanes per execution (the netlist's chunk size)."""
        return self.sliced.chunk_size

    # ------------------------------------------------------------- boundary
    def pack(self, values: Sequence[int]) -> PlaneVector:
        """Pack validated field elements into a :class:`PlaneVector` (once)."""
        lanes = len(values)
        mask = (1 << self.m) - 1
        planes = pack_rows([value & mask for value in values], self.m)
        return PlaneVector(_planes_to_array(planes, lane_words_for(lanes)), lanes)

    def unpack(self, vector: PlaneVector) -> List[int]:
        """Unpack a :class:`PlaneVector` back into field elements (once)."""
        return unpack_planes(_array_to_planes(vector.array), self.m, vector.lanes)

    def vector(self, array, lanes: int) -> PlaneVector:
        """Rewrap a raw ``run_arrays`` output as a batch of ``lanes`` lanes.

        Ladder consumers thread raw arrays through repeated
        :meth:`CompiledPlaneIR.run_arrays` steps and only rewrap at the
        end; this hook keeps them executor-agnostic (the native executor
        provides the same method over its word buffers).
        """
        return PlaneVector(array, lanes)

    def broadcast_bits(self, bits: Sequence[int]):
        """Pack one control bit per lane into a broadcastable lane-word mask.

        Bit ``p`` of the result is ``bits[p] & 1``; dead lanes stay zero.
        The returned ``(lane_words,)`` array broadcasts over the ``m`` rows
        of a plane array, driving a whole select pass with one mask.
        """
        packed = 0
        for position, bit in enumerate(bits):
            if bit & 1:
                packed |= 1 << position
        lane_words = lane_words_for(len(bits))
        return _require_numpy().frombuffer(packed.to_bytes(lane_words * 8, "little"), dtype="<u8")

    def _live_lane_words(self, lane_words: int):
        """An all-live lane mask of ``lane_words`` words (consts prologue)."""
        mask = self._live_masks.get(lane_words)
        if mask is None:
            full = (1 << (lane_words * 64)) - 1
            mask = _require_numpy().frombuffer(full.to_bytes(lane_words * 8, "little"), dtype="<u8")
            self._live_masks[lane_words] = mask
        return mask

    def run_steps(self, programs: Sequence[FieldProgram], state, fixed, schedule) -> List[List[int]]:
        """Run a step loop over one chunk: pack once, one fused step per event.

        Same contract as :meth:`NativeIRExecutor.run_steps
        <repro.backends.native.NativeIRExecutor.run_steps>`; the plane
        executor builds each step's masks and gathers in Python
        (:func:`~repro.backends.steps.run_steps_python`).
        """
        compiled = [self.compile(program) for program in programs]
        return run_steps_python(self, compiled, state, fixed, schedule)

    # ------------------------------------------------------------- programs
    def compile(self, program: FieldProgram) -> CompiledPlaneIR:
        """The memoized plane lowering of a scheduled ``FieldProgram``."""
        if program.m != self.m:
            raise ValueError(
                f"program is scheduled for m={program.m}, executor is m={self.m}"
            )
        key = program.key if program.key is not None else id(program)
        entry = self._compiled.get(key)
        if entry is None or entry[0] is not program:
            with _trace.span(
                "ir.compile", backend="bitslice", program=program.ir.name
            ), _metrics.timed("ir.compile.bitslice"):
                entry = (program, CompiledPlaneIR(self, program))
            self._compiled[key] = entry
        return entry[1]

    def describe(self) -> str:
        """One-line summary used by the CLI and benchmarks."""
        return f"FieldIR plane executor on {self.sliced.describe()}"
