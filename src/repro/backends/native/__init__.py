"""The native word-level backend: C carry-less multiply + type II reduction.

This package is the compiled tier ROADMAP item 2 calls for — the
word-level analogue of :mod:`repro.engine.bitpack`: field elements live as
little-endian ``uint64`` word arrays, products are 64x64 carry-less
multiplications (PCLMULQDQ when the CPU has it, a portable 4-bit window
otherwise) and the paper's type II identity
``y^m = y^n·(y² + y + 1) + 1`` folds the product back below degree ``m``
in two fixed steps (other moduli keep a generic sparse-tail loop).

Three layers:

* ``_kernel.c`` and ``_rows.c`` / :mod:`._build` — the C kernel (its
  register-resident rows a translation unit of their own), compiled
  through :mod:`cffi` at install time (``pip install .[native]``) or on
  first use into the shared artifact cache;
* :class:`NativeBackend` — the full :class:`~repro.backends.base.FieldBackend`
  surface over contiguous word buffers, one C call per batch (inversion
  included: Montgomery's trick around one Itoh-Tsujii chain);
* :class:`NativeIRExecutor` / :class:`CompiledNativeIR` — the backend's
  :class:`~repro.backends.ir.IRExecutor`: values are contiguous word
  buffers, a scheduled :class:`~repro.backends.ir.FieldProgram` lowers
  once to a flat instruction stream (mul / square / xor / linear-map /
  lane-masked select) over registers reused by liveness, which
  ``gf2m_run_program`` drives over a C register file allocated per run,
  :meth:`NativeIRExecutor.run_steps` runs a whole ladder, comb
  or τ loop over a chunk of lanes in one C call with the GIL released,
  and :meth:`NativeIRExecutor.inverse_packed` inverts a word buffer in
  one call (zero lanes stay zero and are reported).

Outside any backend, :func:`recode_tau` is the C τ-adic scalar reduction
and window recoder: the batched τ route calls it whenever the extension
loads, whatever its backend, because both are integer arithmetic.

Everything degrades cleanly: without cffi or a C compiler the backend
raises a clear :class:`ImportError` and the registry default falls back to
the interpreted tiers (:func:`native_available` is the predicate).
"""

from __future__ import annotations

import threading
from array import array
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ...telemetry import trace as _trace
from ..base import FieldBackend
from ..ir import (
    K_LINEAR,
    K_MUL,
    K_XOR,
    CompiledProgram,
    FieldProgram,
    IRExecutor,
    lane_mask_bytes,
    lane_words_for,
)
from ..steps import ROUTE_COMB, ROUTE_LADDER, ROUTE_TAU

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...galois.field import GF2mField

__all__ = [
    "CompiledNativeIR",
    "NativeBackend",
    "NativeIRExecutor",
    "native_available",
    "recode_tau",
    "reduce_tau",
]

#: Preferred lanes per compiled-program execution; bounds each run's C
#: register file while keeping per-step Python overhead small.
DEFAULT_CHUNK = 2048

_OP_MUL, _OP_XOR, _OP_LINEAR, _OP_SELECT, _OP_SQUARE = 1, 2, 3, 4, 5
_OP_NAMES = {_OP_MUL: "mul", _OP_XOR: "xor", _OP_LINEAR: "linear",
             _OP_SELECT: "select", _OP_SQUARE: "square"}
#: Opcodes that read a second register (the y field); the rest read x only.
_TWO_OPERANDS = (_OP_MUL, _OP_XOR, _OP_SELECT)


def _allocate_registers(
    code: List[int], pinned: Sequence[int], live_out: Sequence[int]
) -> Tuple[List[int], Dict[int, int], int]:
    """Map a lowered stream's virtual registers onto physical ones, reused by liveness.

    ``pinned`` registers (inputs and constants) get their own physical
    registers, numbered first in that order, and are never reused.  Every
    other register takes a free one when first written and returns it after
    its last read; ``live_out`` (the outputs) stay live to the end.  A
    destination never takes a register an operand of its own instruction
    holds, even one read for the last time there: LINEAR reads its source
    after writing, so it must not run in place.  (An in-place chain, whose
    destination is its operand's virtual register, keeps that register.)
    Returns the rewritten stream, the virtual-to-physical map and the
    register count.
    """
    last: Dict[int, int] = {}
    for index in range(0, len(code), 5):
        op, _, x, y, _ = code[index:index + 5]
        last[x] = index
        if op in _TWO_OPERANDS:
            last[y] = index
    for vid in live_out:
        last[vid] = len(code)
    physical = {vid: slot for slot, vid in enumerate(dict.fromkeys(pinned))}
    retired = set(physical)  # never returned to the free list (again)
    count = len(physical)
    free: List[int] = []
    out: List[int] = []
    for index in range(0, len(code), 5):
        op, dst, x, y, z = code[index:index + 5]
        sources = (x, y) if op in _TWO_OPERANDS else (x,)
        if dst not in physical:
            taken = {physical[vid] for vid in sources}
            slot = next((slot for slot in reversed(free) if slot not in taken), None)
            if slot is None:
                slot, count = count, count + 1
            else:
                free.remove(slot)
            physical[dst] = slot
        out.extend((op, physical[dst], physical[x],
                    physical[y] if op in _TWO_OPERANDS else 0, z))
        for vid in {*sources, dst}:
            if vid not in retired and last.get(vid, index) <= index:
                retired.add(vid)  # dead from here on: its register is free
                free.append(physical[vid])
    for vid in live_out:
        if vid not in physical:  # never written: reads as zero
            physical[vid], count = count, count + 1
    return out, physical, count


#: Longest squaring chain lowered to SQUAREs at the word counts whose
#: catalogue shapes run register-resident rows (see square_chain_limit).
_RESIDENT_CHAIN_LIMITS = {3: 5, 4: 7, 5: 10, 7: 11, 9: 19}


def square_chain_limit(nw: int) -> int:
    """Longest Frobenius power ``v ↦ c·v^(2^k)`` lowered to ``k`` SQUAREs.

    Longer chains keep one per-byte table walk, so the limit is where ``k``
    squarings cost one walk.  Measured on a shared 2-core x86-64 host with
    PCLMULQDQ, 256 lanes, per lane (median of 5 runs, each the 10th
    percentile of 600 calls of 16 instructions), on the register-resident
    rows of K-163, K-233, K-283, K-409 and K-571:

    ====  =====  ======  ========  ==========
    nw    m      SQUARE  walk      break-even
    ====  =====  ======  ========  ==========
    3     163    ~19 ns  ~106 ns   5.3
    4     233    ~23 ns  ~173 ns   7.4
    5     283    ~25 ns  ~235 ns   10.2
    7     409    ~28 ns  ~332 ns   11.4
    9     571    ~34 ns  ~688 ns   19.8
    ====  =====  ======  ========  ==========

    The walk grows with m²/64 and the square with m, hence the rising
    limits.  The generic rows' squares cost 2–3× more (46–100 ns), and the
    limit on them was ``max(2, nw − 2)``, 3 at m = 283: on the resident
    rows a 256-lane K-283 τ agreement took ~35 ms at that limit and ~27 ms
    at any limit from 6 to 16.  Word counts without register-resident rows
    in the catalogue keep ``max(2, nw − 2)``.
    """
    return _RESIDENT_CHAIN_LIMITS.get(nw, max(2, nw - 2))


_EXT = None
_EXT_ERROR: Optional[ImportError] = None
_EXT_LOCK = threading.Lock()


def _load_extension():
    """The compiled kernel module (memoized), or a clear ImportError."""
    global _EXT, _EXT_ERROR
    if _EXT is not None:
        return _EXT
    if _EXT_ERROR is not None:
        raise _EXT_ERROR
    with _EXT_LOCK:
        if _EXT is None and _EXT_ERROR is None:
            try:
                from . import _build

                _EXT = _build.extension_module()
            except ImportError as error:
                _EXT_ERROR = ImportError(
                    f"the native backend is unavailable: {error}"
                )
        if _EXT is not None:
            return _EXT
        raise _EXT_ERROR


def native_available() -> bool:
    """True when the C extension is importable (or buildable) here."""
    try:
        _load_extension()
    except ImportError:
        return False
    return True


class NativeBackend(FieldBackend):
    """Word-level C arithmetic for one field through the cffi kernel."""

    name = "native"

    def __init__(
        self,
        field: "GF2mField",
        method: Optional[str] = None,
        chunk_size: int = DEFAULT_CHUNK,
    ) -> None:
        if method is not None:
            raise ValueError(
                "the native backend evaluates no circuit: it computes "
                "word-level clmul+reduction directly, so method= applies "
                "only to the engine backend"
            )
        if chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        super().__init__(field)
        self.m = field.m
        self.chunk_size = chunk_size
        self._nw = max(1, (field.m + 63) // 64)
        if self._nw > 16:
            raise ValueError("the native kernel supports m <= 1024")
        self._ext = _load_extension()
        self._ffi = self._ext.ffi
        terms = [i for i in range(field.m) if (field.modulus >> i) & 1]
        self._terms = self._ffi.new("int32_t[]", terms)
        self._nterms = len(terms)
        # Two type II folds are exact when 2n + 2 < m; m % 64 == 0 would
        # push the first fold's H + H<<1 + H<<2 past the last word.
        params = field.type_ii_parameters()
        fold_n = -1
        if params is not None and field.m % 64 and 2 * params[1] + 2 < field.m:
            fold_n = params[1]
        self._fold_n = fold_n
        self._field_c = self._ffi.new(
            "gf2m_field *",
            {"m": field.m, "nw": self._nw, "fold_n": fold_n,
             "nterms": len(terms), "terms": self._terms},
        )
        self._mask = (1 << field.m) - 1

    # ------------------------------------------------------------- boundary
    def _pack(self, values: Sequence[int]) -> bytes:
        nb = self._nw * 8
        mask = self._mask
        return b"".join((value & mask).to_bytes(nb, "little") for value in values)

    def _unpack(self, buf, count: int) -> List[int]:
        nb = self._nw * 8
        return [
            int.from_bytes(buf[i * nb:(i + 1) * nb], "little") for i in range(count)
        ]

    # ------------------------------------------------------------- interface
    def multiply(self, a: int, b: int) -> int:
        return self.multiply_batch([a], [b])[0]

    def multiply_batch(self, a_values: Sequence[int], b_values: Sequence[int]) -> List[int]:
        if len(a_values) != len(b_values):
            raise ValueError(
                f"operand streams differ in length: {len(a_values)} vs {len(b_values)}"
            )
        count = len(a_values)
        if not count:
            return []
        self._count_batch("multiply_batch", count)
        ffi = self._ffi
        out = bytearray(count * self._nw * 8)
        self._ext.lib.gf2m_mul_batch(
            self._field_c,
            ffi.from_buffer("uint64_t[]", self._pack(a_values)),
            ffi.from_buffer("uint64_t[]", self._pack(b_values)),
            ffi.from_buffer("uint64_t[]", out, require_writable=True),
            count,
        )
        return self._unpack(out, count)

    def square_batch(self, values: Sequence[int]) -> List[int]:
        count = len(values)
        if not count:
            return []
        ffi = self._ffi
        out = bytearray(count * self._nw * 8)
        self._ext.lib.gf2m_square_batch(
            self._field_c,
            ffi.from_buffer("uint64_t[]", self._pack(values)),
            ffi.from_buffer("uint64_t[]", out, require_writable=True),
            count,
        )
        return self._unpack(out, count)

    def inverse_batch(self, values: Sequence[int]) -> List[int]:
        """Simultaneous inversion in one C call.

        Montgomery's trick: prefix products, one Itoh-Tsujii inversion of
        the total (``m − 1`` word squarings and ``O(log m)`` products),
        then one walk back — ``3(len − 1) + O(log m)`` products in all.
        Zeros are rejected before the call, naming the first one's index.
        """
        values = list(values)
        if 0 in values:
            index = values.index(0)
            raise ZeroDivisionError(f"0 has no multiplicative inverse (batch index {index})")
        if not values:
            return []
        if not self.field.is_field:
            raise ValueError("inverses are only defined when the modulus is irreducible")
        count = len(values)
        self._count_batch("inverse_batch", count)
        ffi = self._ffi
        out = bytearray(count * self._nw * 8)
        self._ext.lib.gf2m_inverse_batch(
            self._field_c,
            ffi.from_buffer("uint64_t[]", self._pack(values)),
            ffi.from_buffer("uint64_t[]", out, require_writable=True),
            count,
            ffi.NULL,
        )
        return self._unpack(out, count)

    # ------------------------------------------------------------- executor
    @cached_property
    def _executor(self) -> "NativeIRExecutor":
        """The FieldIR native executor (compiled instruction streams)."""
        return NativeIRExecutor(self)

    # ----------------------------------------------------------- introspection
    def describe(self) -> str:
        # The kernel chooses the rows (from the field's shape and the CPU)
        # and names them.
        rows = self._ffi.string(self._ext.lib.gf2m_rows(self._field_c)).decode()
        if self._fold_n >= 0:
            reduction = f"type II fold reduction (n={self._fold_n})"
        else:
            reduction = f"{self._nterms}-term reduction"
        return (
            f"native[C] GF(2^{self.m}): {self._nw}x64-bit words, {reduction}, "
            f"{rows} rows, {self.chunk_size} lanes/chunk"
        )


class CompiledNativeIR(CompiledProgram):
    """One :class:`~repro.backends.ir.FieldProgram` as a C instruction stream.

    Built by :meth:`NativeIRExecutor.compile`.  The lowering walks the
    scheduled passes once and emits flat ``[op, dst, x, y, z]`` int32
    instructions over the program's values, then maps those onto a register
    file whose registers are reused once their value is dead
    (:func:`_allocate_registers`; inputs and constants keep their own).
    Every run allocates its own file, so compiled programs hold no
    per-run state and may run on several threads at once.  A linear map
    the field built in closed form, ``v ↦ c·v^(2^k)`` (every squaring chain, the
    curve constants, ``mul_b∘square∘square``), becomes ``k`` SQUARE ops
    plus one product by a constant register when ``c ≠ 1`` — nothing at
    all for the identity, a self-XOR for the zero map — as long as ``k``
    stays within :func:`square_chain_limit`; any other map is rebuilt as
    a flat per-byte table buffer the C side indexes directly.
    ``run_arrays`` then costs a handful of ``memmove`` s plus **one** C
    call, whatever the program size; given a step loop it runs every step
    of a chunk in that call.
    """

    def __init__(self, executor: "NativeIRExecutor", program: FieldProgram) -> None:
        super().__init__(executor, program)
        backend = executor.backend
        ffi = backend._ffi

        nb = backend._nw * 8
        chain_limit = square_chain_limit(backend._nw)
        code: List[int] = []
        alias: Dict[int, int] = {}
        constants: Dict[int, int] = {}  # value -> register past the SSA vids
        map_index: Dict[tuple, int] = {}
        map_objects: List[object] = []

        def reg(vid: int) -> int:
            return alias.get(vid, vid)

        def constant(value: int) -> int:
            if value not in constants:
                constants[value] = program.op_count + len(constants)
            return constants[value]

        def lower_linear(out_vid: int, linear_map, src: int) -> None:
            if linear_map.input_bits != self.m:
                raise ValueError(
                    f"linear map acts on {linear_map.input_bits} bits, "
                    f"program is scheduled for m={self.m}"
                )
            power = linear_map.power
            if power is not None and power <= chain_limit:
                c = linear_map.masks[0]
                if c == 0:
                    code.extend((_OP_XOR, out_vid, src, src, 0))
                elif power == 0 and c == 1:
                    alias[out_vid] = src
                else:
                    for _ in range(power):
                        code.extend((_OP_SQUARE, out_vid, src, 0, 0))
                        src = out_vid
                    if c != 1:
                        code.extend((_OP_MUL, out_vid, src, constant(c), 0))
                return
            key = (linear_map.input_bits, linear_map.masks)
            index = map_index.get(key)
            if index is None:
                index = map_index[key] = len(map_objects)
                map_objects.append(linear_map)
            code.extend((_OP_LINEAR, out_vid, src, 0, index))

        # (label, first instruction, one-past-last) per scheduled pass: when a
        # tracer is live, run_arrays executes each range as its own C call so
        # the trace shows real per-fused-pass timings; disabled runs keep the
        # single whole-program call.
        pass_ranges: List[tuple] = []
        for label, item in zip(program.pass_labels, program.passes):
            pass_start = len(code) // 5
            if item.kind == K_MUL:
                for a_vid, b_vid, out_vid in item.pairs:
                    code.extend((_OP_MUL, out_vid, reg(a_vid), reg(b_vid), 0))
            elif item.kind == K_LINEAR:
                for op in item.ops:
                    if op[1] == K_XOR:
                        code.extend((_OP_XOR, op[0], reg(op[2]), reg(op[3]), 0))
                    else:
                        lower_linear(op[0], op[2], reg(op[3]))
            else:
                for mask_name, set_vid, clear_vid, out_vid in item.triples:
                    code.extend((
                        _OP_SELECT, out_vid, reg(set_vid), reg(clear_vid),
                        self.mask_names.index(mask_name),
                    ))
            pass_ranges.append((label, pass_start, len(code) // 5))
        self._pass_ranges = pass_ranges
        self._ninstr = len(code) // 5
        const_vids = [vid for vid, _ in program.consts] + list(constants.values())
        output_vids = [reg(vid) for _, vid in program.ir.outputs]
        code, physical, self._nreg = _allocate_registers(
            code, [*self._input_vids, *const_vids], output_vids
        )
        self._code_list = code
        self._code = ffi.new("int32_t[]", code or [0])
        self._input_regs = [physical[vid] for vid in self._input_vids]
        self._output_regs = [physical[vid] for vid in output_vids]

        # The table buffer comes straight from each map's masks; the map
        # itself never builds (or keeps) its Python tables for this.
        parts: List[bytes] = []
        for linear_map in map_objects:
            for table in linear_map.byte_tables():
                parts.extend(value.to_bytes(nb, "little") for value in table)
        self._tables_buf = b"".join(parts) if parts else bytes(8)
        self._tables = ffi.from_buffer("uint64_t[]", self._tables_buf)
        # Constant registers are never written, so each register file gets
        # them once, when it is allocated.
        self._consts = [
            (physical[vid], value.to_bytes(nb, "little")) for vid, value in program.consts
        ] + [(physical[vid], value.to_bytes(nb, "little")) for value, vid in constants.items()]
        self._empty_masks = bytes(8)

    def instruction_counts(self) -> Dict[str, int]:
        """Lowered instructions per opcode (``mul``, ``square``, ``linear``, ...)."""
        counts: Dict[str, int] = {}
        for index in range(0, len(self._code_list), 5):
            name = _OP_NAMES[self._code_list[index]]
            counts[name] = counts.get(name, 0) + 1
        return counts

    def _new_regs(self, count: int):
        """A register file for one run over ``count`` lanes, constants loaded.

        Each run gets its own, so runs on several threads share nothing and
        no file outlives its run.
        """
        ffi = self.executor.backend._ffi
        stride = count * self.executor.nw
        regs = ffi.new("uint64_t[]", self._nreg * stride)
        for slot, const_bytes in self._consts:
            ffi.memmove(regs + slot * stride, const_bytes * count, stride * 8)
        return regs

    def run_arrays(self, input_arrays: Sequence[bytes], mask_arrays: Sequence[bytes],
                   steps: Optional["_StepLoop"] = None) -> List[bytearray]:
        """Execute over word buffers in declared input order.

        ``input_arrays`` are element-major word buffers (as built by
        :meth:`NativeIRExecutor.pack`), ``mask_arrays`` packed lane masks
        (one per declared mask input, as built by
        :meth:`NativeIRExecutor.broadcast_bits`).  Returns fresh output
        buffers in declared output order.

        With ``steps`` (built by :meth:`NativeIRExecutor.run_steps`) the
        call runs that whole step loop instead: ``input_arrays`` are the
        initial state then the fixed inputs, and the result is the final
        state.
        """
        backend = self.executor.backend
        ffi = backend._ffi
        nw = self.executor.nw
        count = len(input_arrays[0]) // (nw * 8)
        stride = count * nw
        stride_bytes = stride * 8
        if steps is not None:
            return steps.run(input_arrays, count)
        lane_words = lane_words_for(count)
        if len(self.mask_names) == 0:
            masks_buf = self._empty_masks
        elif len(self.mask_names) == 1:
            masks_buf = mask_arrays[0]
        else:
            masks_buf = b"".join(mask_arrays)
        regs = self._new_regs(count)
        for slot, buf in zip(self._input_regs, input_arrays):
            ffi.memmove(regs + slot * stride, buf, stride_bytes)
        run = backend._ext.lib.gf2m_run_program
        masks_c = ffi.from_buffer("uint64_t[]", masks_buf)
        field_c = backend._field_c
        tracer = _trace.TRACER
        if tracer.enabled:
            # The interpreter keeps no state between instructions, so a
            # pass range executes identically as its own call.
            for label, start, end in self._pass_ranges:
                if start == end:
                    continue
                with tracer.span(label, lanes=count):
                    run(
                        field_c, self._code + start * 5, end - start, regs,
                        count, self._tables, masks_c, lane_words,
                    )
        else:
            run(
                field_c, self._code, self._ninstr, regs, count,
                self._tables, masks_c, lane_words,
            )
        outputs = []
        for slot in self._output_regs:
            buf = bytearray(stride_bytes)
            ffi.memmove(buf, regs + slot * stride, stride_bytes)
            outputs.append(buf)
        return outputs


class _StepLoop:
    """One chunk's step loop, packed for ``gf2m_run_steps``.

    Holds the compiled programs the schedule's events index, the packed
    control data of the route (scalar words; or the τ digit rows and the
    planar x and y tables, joined from the schedule's packed values) and
    the event list.  :meth:`run` is what :meth:`CompiledNativeIR.run_arrays`
    calls when it is handed a loop.
    """

    def __init__(self, executor: "NativeIRExecutor", programs, schedule, nfixed: int) -> None:
        self.executor = executor
        self.programs = programs
        self.schedule = schedule
        self.nstate = schedule.nstate
        self.nfixed = nfixed
        ffi = executor.backend._ffi
        mask_names = ["bit"] if schedule.route == ROUTE_LADDER else ["add", "init"]
        for compiled in programs:
            if len(compiled.output_names) != self.nstate or set(
                compiled._output_regs
            ) & set(compiled._input_regs[:self.nstate]):
                raise ValueError(
                    f"{compiled.program.ir.name!r} is not a step program: it must "
                    f"compute {self.nstate} fresh state outputs"
                )
            if compiled.mask_names not in ([], mask_names):
                raise ValueError(
                    f"{compiled.program.ir.name!r} declares masks "
                    f"{compiled.mask_names}, the step loop drives {mask_names}"
                )
        data = {"route": schedule.route, "nstate": self.nstate}
        keep: List[object] = []
        if schedule.route in (ROUTE_LADDER, ROUTE_COMB):
            scalars = schedule.scalars
            words = max(1, (max(scalar.bit_length() for scalar in scalars) + 63) // 64)
            packed = b"".join(scalar.to_bytes(words * 8, "little") for scalar in scalars)
            keep.append(ffi.from_buffer("uint64_t[]", packed))
            data.update(scalars=keep[-1], scalar_words=words)
        if schedule.route == ROUTE_COMB:
            data.update(teeth=schedule.teeth, columns=schedule.columns,
                        points=executor._packed_points(schedule.points))
        elif schedule.route == ROUTE_TAU:
            # The kernel indexes digit row `row` and table entry |digit| - 1
            # of every lane; the recoders keep |digit| <= len(tables).
            rows = len(schedule.digits) // max(schedule.lanes, 1)
            if any(row >= rows for _, row in schedule.events) or any(
                len(values) != schedule.lanes * executor.nw * 8
                for table in schedule.tables for values in table
            ):
                raise ValueError("τ digit rows or tables do not cover the scheduled steps")
            keep += [
                ffi.from_buffer("int8_t[]", schedule.digits or bytes(1)),
                ffi.from_buffer("uint64_t[]", b"".join(x for x, _ in schedule.tables)),
                ffi.from_buffer("uint64_t[]", b"".join(y for _, y in schedule.tables)),
            ]
            data.update(digits=keep[-3], points=keep[-2], points_y=keep[-1])
        self._keep = keep
        self._data = ffi.new("gf2m_step_data *", data)
        events = array("i", chain.from_iterable(schedule.events))
        self._events = ffi.from_buffer("int32_t[]", events or array("i", [0, 0]))
        self._nevents = len(schedule.events)

    def run(self, input_arrays: Sequence[bytes], count: int) -> List[bytearray]:
        executor = self.executor
        backend = executor.backend
        ffi = backend._ffi
        nw = executor.nw
        stride = count * nw
        stride_bytes = stride * 8
        nstate = self.nstate
        state = bytearray(b"".join(input_arrays[:nstate]))
        work = ffi.new("uint64_t[]", 3 * lane_words_for(count))
        progs = ffi.new("gf2m_step_program[]", len(self.programs))
        files = []  # keeps this run's register files alive through the call
        for slot, compiled in zip(progs, self.programs):
            regs = compiled._new_regs(count)
            files.append(regs)
            inputs = compiled._input_regs
            for reg, buf in zip(inputs[nstate:nstate + self.nfixed], input_arrays[nstate:]):
                ffi.memmove(regs + reg * stride, buf, stride_bytes)
            gathered = inputs[nstate + self.nfixed:]
            slot.code = compiled._code
            slot.ninstr = compiled._ninstr
            slot.tables = compiled._tables
            slot.regs = regs
            slot.inputs = inputs[:nstate] + gathered + [-1] * (6 - nstate - len(gathered))
            slot.outputs = compiled._output_regs + [-1] * (4 - nstate)
        backend._ext.lib.gf2m_run_steps(
            backend._field_c, progs, self._events, self._nevents, count,
            self._data, ffi.from_buffer("uint64_t[]", state, require_writable=True),
            work,
        )
        return [state[j * stride_bytes:(j + 1) * stride_bytes] for j in range(nstate)]


class NativeIRExecutor(IRExecutor):
    """The native backend's :class:`~repro.backends.ir.IRExecutor`.

    Packed values are element-major word buffers (``lanes × nw`` uint64
    words, the layout the C kernel indexes) and masks packed lane bits;
    :meth:`compile` lowers a program to a :class:`CompiledNativeIR`, and
    :meth:`run_steps` runs a whole step loop in one C call.
    """

    kind = "native"
    compiled_type = CompiledNativeIR

    def __init__(self, backend: NativeBackend) -> None:
        super().__init__(backend, backend.chunk_size)
        self.nw = backend._nw
        self._points: Dict[int, tuple] = {}

    def pack(self, values: Sequence[int]) -> bytes:
        """Validated field elements → one element-major word buffer."""
        return self.backend._pack(values)

    def unpack(self, array, lanes: int) -> List[int]:
        """The first ``lanes`` elements of a word buffer."""
        return self.backend._unpack(array, lanes)

    def broadcast_bits(self, bits: Sequence[int]) -> bytes:
        """Per-lane control bits → the packed lane mask the kernel reads."""
        return lane_mask_bytes(bits)

    def repeat(self, value: int, lanes: int) -> bytes:
        """One element's words, repeated: no per-lane conversion."""
        return value.to_bytes(self.nw * 8, "little") * lanes

    def nonzero_lanes(self, array, lanes: int) -> List[int]:
        """An all-zero buffer answers with one comparison; any other is unpacked."""
        size = lanes * self.nw * 8
        if array[:size] == bytes(size):
            return []
        return super().nonzero_lanes(array, lanes)

    def _packed_points(self, points: Sequence[tuple]):
        """``(x, y)`` pairs as one word buffer, memoized per table object."""
        entry = self._points.get(id(points))
        if entry is None or entry[0] is not points:
            nb = self.nw * 8
            packed = b"".join(
                x.to_bytes(nb, "little") + y.to_bytes(nb, "little") for x, y in points
            )
            if len(self._points) >= 8:
                self._points.clear()
            # Holding the table keeps its id from being reused while cached.
            entry = self._points[id(points)] = (
                points, self.backend._ffi.from_buffer("uint64_t[]", packed or bytes(8)), packed
            )
        return entry[1]

    def inverse_packed(self, array, lanes: int):
        """Montgomery inversion of a word buffer in one C call; zero lanes stay zero."""
        backend = self.backend
        ffi = backend._ffi
        if len(array) < lanes * self.nw * 8:
            raise ValueError(f"a packed value of {len(array)} bytes holds fewer than {lanes} lanes")
        zeros = bytearray(lane_words_for(lanes) * 8)
        out = bytearray(lanes * self.nw * 8)
        nzero = backend._ext.lib.gf2m_inverse_batch(
            backend._field_c,
            ffi.from_buffer("uint64_t[]", array),
            ffi.from_buffer("uint64_t[]", out, require_writable=True),
            lanes,
            ffi.from_buffer("uint64_t[]", zeros, require_writable=True),
        )
        if nzero < lanes:
            backend._count_batch("inverse_batch", lanes - nzero)
        if not nzero:
            return out, []
        bits = int.from_bytes(zeros, "little")
        return out, [lane for lane in range(lanes) if bits >> lane & 1]

    def run_steps(self, programs: Sequence[FieldProgram], state, fixed, schedule) -> List:
        """Run a whole step loop over one chunk: one C call, GIL released.

        Same contract as :meth:`IRExecutor.run_steps`, but the masks and
        table-point gathers of every step are built in C from the
        schedule's packed data (:mod:`repro.backends.steps`).  A tracer
        sees the call as one ``{prefix}.steps`` span (``steps``,
        ``lanes``), not as per-step spans: traced and untraced runs execute
        the same loop.  A schedule with no steps at all (a τ chunk whose
        every scalar reduces to zero) returns ``state`` through the
        inherited Python loop.
        """
        if not schedule.events:
            return super().run_steps(programs, state, fixed, schedule)
        compiled = [self.compile(program) for program in programs]
        loop = _StepLoop(self, compiled, schedule, len(fixed))
        lanes = len(state[0]) // (self.nw * 8)
        with _trace.span(f"{schedule.span_prefix}.steps", steps=len(schedule.events), lanes=lanes):
            # The loop enters C through run_arrays, not loop.run: perfbench's
            # trace run times the IR layer by wrapping run_arrays alone.
            return compiled[0].run_arrays([*state, *fixed], (), steps=loop)


def reduce_tau(reduction: Dict[str, object], scalars: Sequence[int], limbs: int):
    """The ℤ[τ] residues of ``scalars`` modulo ``τ^m − 1``, in one C call.

    ``reduction`` carries the norm ``N`` of ``τ^m − 1``, the estimate's
    ``shift`` and the ``constants`` of ``gf2m_tau_reduction``
    (``scalarmul._TauContext.reduction``).  The scalars enter as
    ``k mod N``, which reduces to the same residue as ``k``.  Returns the
    residues as ``gf2m_tau_recode`` reads them — ``(r0, r1)`` per lane,
    ``limbs`` little-endian two's complement 32-bit limbs each — or
    ``None`` when one does not fit.  Raises ImportError without the kernel.
    """
    ext = _load_extension()
    ffi = ext.ffi
    norm = reduction["norm"]
    work = (norm.bit_length() + 34) // 32  # 2kc + N − q·2N lies in [0, 4N)
    size = 4 * work
    words = ffi.from_buffer("uint32_t[]", b"".join(
        value.to_bytes(size, "little", signed=True) for value in reduction["constants"]
    ))
    packed = b"".join((scalar % norm).to_bytes(size, "little") for scalar in scalars)
    residues = bytearray(8 * limbs * len(scalars))
    status = ext.lib.gf2m_tau_reduce(
        ffi.new("gf2m_tau_reduction *", {"limbs": work, "shift": reduction["shift"], "constants": words}),
        ffi.from_buffer("uint32_t[]", packed or bytes(4)),
        len(scalars),
        ffi.from_buffer("uint32_t[]", residues or bytearray(4), require_writable=True),
        limbs,
    )
    return None if status < 0 else residues


def recode_tau(
    constants: Dict[str, int], reduction: Dict[str, object], scalars: Sequence[int], positions: int
):
    """τ-adic window digit rows of scalars, reduced and recoded in C.

    ``constants`` fills ``gf2m_tau_recoding`` (window width, μ, the
    ``t_w``/``t_2`` roots, the division constants ``e0 e1 f``, the tail
    ``threshold`` and ``gate``); the residues come from :func:`reduce_tau`
    and stay in C.  Returns ``(digits, occupied, span)`` as
    :class:`~repro.backends.steps.TauSteps` reads them — ``positions`` rows
    of one int8 digit per lane, one flag per row — or ``None`` when the
    kernel reports a width it does not take, a residue outgrowing its limbs
    or a digit past the last row.  Raises ImportError without the kernel.
    """
    limbs = reduction["residue_limbs"]
    residues = reduce_tau(reduction, scalars, limbs)
    if residues is None:
        return None
    ext = _load_extension()
    ffi = ext.ffi
    lanes = len(scalars)
    digits = bytearray(positions * lanes)
    occupied = bytearray(positions)
    span = ext.lib.gf2m_tau_recode(
        ffi.new("gf2m_tau_recoding *", constants),
        ffi.from_buffer("uint32_t[]", residues or bytes(4)),
        limbs,
        lanes,
        ffi.from_buffer("int8_t[]", digits or bytearray(1), require_writable=True),
        ffi.from_buffer("uint8_t[]", occupied or bytearray(1), require_writable=True),
        positions,
    )
    return None if span < 0 else (digits, occupied, span)
