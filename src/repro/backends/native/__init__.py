"""The native word-level backend: C carry-less multiply + type II reduction.

This package is the compiled tier ROADMAP item 2 calls for — the
word-level analogue of :mod:`repro.engine.bitpack`: field elements live as
little-endian ``uint64`` word arrays, products are 64x64 carry-less
multiplications (PCLMULQDQ when the CPU has it, a portable 4-bit window
otherwise) and the paper's type II identity
``y^m = y^n·(y² + y + 1) + 1`` folds the product back below degree ``m``
in two fixed steps (other moduli keep a generic sparse-tail loop).

Three layers:

* :mod:`._kernel.c` / :mod:`._build` — the C kernel, compiled through
  :mod:`cffi` at install time (``pip install .[native]``) or on first use
  into the shared artifact cache;
* :class:`NativeBackend` — the full :class:`~repro.backends.base.FieldBackend`
  surface over contiguous word buffers, one C call per batch (inversion
  included: Montgomery's trick around one Itoh-Tsujii chain);
* :class:`NativeIRExecutor` / :class:`CompiledNativeIR` — the
  :meth:`~repro.backends.base.FieldBackend.ir_executor` capability:
  a scheduled :class:`~repro.backends.ir.FieldProgram` lowers once to a
  flat instruction stream (mul / square / xor / linear-map / lane-masked
  select) that ``gf2m_run_program`` drives over a C register file, and
  :meth:`NativeIRExecutor.run_steps` runs a whole ladder, comb or τ loop
  over a chunk of lanes in one C call with the GIL released.

Everything degrades cleanly: without cffi or a C compiler the backend
raises a clear :class:`ImportError` and the registry default falls back to
the interpreted tiers (:func:`native_available` is the predicate).
"""

from __future__ import annotations

import threading
from array import array
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence

from ...telemetry import metrics as _metrics
from ...telemetry import trace as _trace
from ..base import BackendCapabilities, FieldBackend
from ..ir import K_LINEAR, K_MUL, K_XOR, FieldProgram
from ..steps import ROUTE_COMB, ROUTE_LADDER, ROUTE_TAU, run_steps_python

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...galois.field import GF2mField

__all__ = [
    "CompiledNativeIR",
    "NativeBackend",
    "NativeIRExecutor",
    "NativeVector",
    "native_available",
]

#: Preferred lanes per compiled-program execution; bounds the C register
#: file (~1 MiB at GF(2^233)) while keeping per-step Python overhead small.
DEFAULT_CHUNK = 2048

_OP_MUL, _OP_XOR, _OP_LINEAR, _OP_SELECT, _OP_SQUARE = 1, 2, 3, 4, 5
_OP_NAMES = {_OP_MUL: "mul", _OP_XOR: "xor", _OP_LINEAR: "linear",
             _OP_SELECT: "select", _OP_SQUARE: "square"}


def square_chain_limit(nw: int) -> int:
    """Longest Frobenius power ``v ↦ c·v^(2^k)`` lowered to ``k`` SQUAREs.

    Longer chains keep one per-byte table walk.  Measured on x86-64 with
    PCLMULQDQ, 256 lanes, per lane: a SQUARE costs ~40 ns at m = 163..283
    and ~60 ns at m = 571, a table walk ~60 ns at m = 163, ~150 ns at
    m = 283 and ~600 ns at m = 571 (it grows with m²/64, the chain with m),
    so chains break even near 2, 4 and 7 squarings.  The floor of 2 keeps
    the ladder step's ``square∘square`` maps on SQUARE at m = 163, where a
    table walk would still be ~15% faster in the ladder.
    """
    return max(2, nw - 2)


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


def _lane_words_for(lanes: int) -> int:
    return max(1, (lanes + 63) // 64)


class NativeVector:
    """A batch of field elements as one contiguous word buffer.

    ``buf`` holds ``lanes`` elements of ``nw`` little-endian uint64 words
    each (element-major, the layout the C kernel indexes).  ``array``
    returns ``self`` so executor-agnostic loops such as
    :func:`~repro.backends.steps.run_steps_python` (``pack(...).array`` /
    ``run_arrays`` / ``vector``) work unchanged across the plane and
    native executors.
    """

    __slots__ = ("buf", "lanes", "nw")

    def __init__(self, buf: bytearray, lanes: int, nw: int) -> None:
        self.buf = buf
        self.lanes = lanes
        self.nw = nw

    @property
    def array(self) -> "NativeVector":
        return self

    @property
    def lane_words(self) -> int:
        return _lane_words_for(self.lanes)

    def copy(self) -> "NativeVector":
        return NativeVector(bytearray(self.buf), self.lanes, self.nw)


class NativeMask:
    """A packed per-lane select mask (``lane_words`` little-endian words)."""

    __slots__ = ("buf", "lane_words")

    def __init__(self, buf: bytes, lane_words: int) -> None:
        self.buf = buf
        self.lane_words = lane_words


class NativeBackend(FieldBackend):
    """Word-level C arithmetic for one field through the cffi kernel."""

    name = "native"
    capabilities = BackendCapabilities(vectorized=True, compiled=True, min_efficient_batch=8)

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
                "only to the engine and bitslice backends"
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
        self._executor: Optional[NativeIRExecutor] = None

    # ------------------------------------------------------------- boundary
    def _pack(self, values: Sequence[int]) -> bytes:
        nb = self._nw * 8
        mask = self._mask
        return b"".join((value & mask).to_bytes(nb, "little") for value in values)

    def _unpack(self, buf: bytearray, count: int) -> List[int]:
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
        )
        return self._unpack(out, count)

    # ------------------------------------------------------------- executor
    def ir_executor(self) -> "NativeIRExecutor":
        """The FieldIR native executor (compiled instruction streams)."""
        if self._executor is None:
            self._executor = NativeIRExecutor(self)
        return self._executor

    # ----------------------------------------------------------- introspection
    def describe(self) -> str:
        clmul = "PCLMULQDQ" if self._ext.lib.gf2m_has_clmul() else "portable clmul"
        if self._fold_n >= 0:
            reduction = f"type II fold reduction (n={self._fold_n})"
        else:
            reduction = f"{self._nterms}-term reduction"
        return (
            f"native[C] GF(2^{self.m}): {self._nw}x64-bit words, {clmul}, "
            f"{reduction}, {self.chunk_size} lanes/chunk"
        )


class CompiledNativeIR:
    """One :class:`~repro.backends.ir.FieldProgram` as a C instruction stream.

    Built by :meth:`NativeIRExecutor.compile`.  The lowering walks the
    scheduled passes once and emits flat ``[op, dst, x, y, z]`` int32
    instructions over a vid-indexed register file.  A linear map the field
    built in closed form, ``v ↦ c·v^(2^k)`` (every squaring chain, the
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
        backend = executor.backend
        ffi = backend._ffi
        self.executor = executor
        self.program = program
        self.m = program.m
        ir = program.ir
        self.input_names = [name for name, _ in ir.inputs]
        self.mask_names = [name for name, _ in ir.mask_inputs]
        self.output_names = [name for name, _ in ir.outputs]
        self._input_vids = [vid for _, vid in ir.inputs]

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
        for pass_index, item in enumerate(program.passes):
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
            pass_ranges.append(
                (f"ir.pass.{pass_index:02d}.{item.kind}", pass_start, len(code) // 5)
            )
        self._pass_ranges = pass_ranges
        self._ninstr = len(code) // 5
        self._code_list = code
        self._code = ffi.new("int32_t[]", code or [0])
        self._output_vids = [reg(vid) for _, vid in ir.outputs]
        self._nreg = program.op_count + len(constants)

        nbytes = (self.m + 7) // 8
        parts: List[bytes] = []
        for linear_map in map_objects:
            for tables in linear_map.tables:
                parts.extend(value.to_bytes(nb, "little") for value in tables)
            if len(linear_map.tables) != nbytes:
                raise ValueError(
                    f"linear map has {len(linear_map.tables)} byte tables, "
                    f"expected {nbytes}"
                )
        self._tables_buf = b"".join(parts) if parts else bytes(8)
        self._tables = ffi.from_buffer("uint64_t[]", self._tables_buf)
        # Constant registers are never written, so each register file gets
        # them once, when it is allocated.
        self._consts = [
            (vid, value.to_bytes(nb, "little")) for vid, value in program.consts
        ] + [(vid, value.to_bytes(nb, "little")) for value, vid in constants.items()]
        self._empty_masks = bytes(8)
        self._regs: Dict[int, object] = {}

    def instruction_counts(self) -> Dict[str, int]:
        """Lowered instructions per opcode (``mul``, ``square``, ``linear``, ...)."""
        counts: Dict[str, int] = {}
        for index in range(0, len(self._code_list), 5):
            name = _OP_NAMES[self._code_list[index]]
            counts[name] = counts.get(name, 0) + 1
        return counts

    def _regs_for(self, count: int):
        regs = self._regs.get(count)
        if regs is None:
            if len(self._regs) >= 4:
                self._regs.clear()
            ffi = self.executor.backend._ffi
            regs = ffi.new("uint64_t[]", self._nreg * count * self.executor.nw)
            stride_bytes = count * self.executor.nw * 8
            for vid, const_bytes in self._consts:
                ffi.memmove(regs + vid * (stride_bytes // 8), const_bytes * count, stride_bytes)
            self._regs[count] = regs
        return regs

    def run_arrays(self, input_arrays: Sequence[NativeVector],
                   mask_arrays: Sequence[NativeMask],
                   steps: Optional["_StepLoop"] = None) -> List[NativeVector]:
        """Execute over :class:`NativeVector` s in declared input order.

        ``mask_arrays`` are packed lane masks (one per declared mask input,
        as built by :meth:`NativeIRExecutor.broadcast_bits`).  Returns
        fresh output vectors in declared output order — the caller may
        feed them back in as the next step's inputs.

        With ``steps`` (built by :meth:`NativeIRExecutor.run_steps`) the
        call runs that whole step loop instead: ``input_arrays`` are the
        initial state then the fixed inputs, and the result is the final
        state.
        """
        backend = self.executor.backend
        ffi = backend._ffi
        nw = self.executor.nw
        count = input_arrays[0].lanes
        stride = count * nw
        stride_bytes = stride * 8
        if steps is not None:
            return steps.run(input_arrays, count)
        lane_words = _lane_words_for(count)
        if len(self.mask_names) == 0:
            masks_buf = self._empty_masks
        elif len(self.mask_names) == 1:
            masks_buf = mask_arrays[0].buf
        else:
            masks_buf = b"".join(bytes(mask.buf) for mask in mask_arrays)
        with self.executor._lock:
            regs = self._regs_for(count)
            for vid, vector in zip(self._input_vids, input_arrays):
                ffi.memmove(regs + vid * stride, vector.buf, stride_bytes)
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
            for vid in self._output_vids:
                buf = bytearray(stride_bytes)
                ffi.memmove(buf, regs + vid * stride, stride_bytes)
                outputs.append(NativeVector(buf, count, nw))
        return outputs

    def run(
        self,
        inputs: Mapping[str, NativeVector],
        masks: Optional[Mapping[str, Sequence[int]]] = None,
    ) -> Dict[str, NativeVector]:
        """Name-keyed execution over :class:`NativeVector` s.

        Mask streams may be plain 0/1 bit sequences (broadcast here) or
        prebuilt :class:`NativeMask` es.  All inputs must share one batch.
        """
        vectors = []
        for name in self.input_names:
            if name not in inputs:
                raise KeyError(f"program {self.program.ir.name!r} needs input {name!r}")
            vectors.append(inputs[name])
        first = vectors[0]
        for vector in vectors[1:]:
            if vector.lanes != first.lanes or vector.nw != first.nw:
                raise ValueError(
                    f"inputs of one batch expected: {vector.lanes} lanes "
                    f"x{vector.nw} words vs {first.lanes} lanes x{first.nw} words"
                )
        mask_arrays = []
        for name in self.mask_names:
            if masks is None or name not in masks:
                raise KeyError(f"program {self.program.ir.name!r} needs mask {name!r}")
            stream = masks[name]
            if isinstance(stream, (list, tuple)):
                stream = self.executor.broadcast_bits(stream)
            if stream.lane_words != first.lane_words:
                raise ValueError(
                    f"mask {name!r} covers {stream.lane_words} lane words, batch "
                    f"needs {first.lane_words}; build it with broadcast_bits "
                    "over the same batch"
                )
            mask_arrays.append(stream)
        outputs = self.run_arrays([vector.array for vector in vectors], mask_arrays)
        return dict(zip(self.output_names, outputs))

    def describe(self) -> str:
        """Structural summary of the scheduled program plus the substrate."""
        return f"{self.program.describe()} on {self.executor.backend.describe()}"


class _StepLoop:
    """One chunk's step loop, packed for ``gf2m_run_steps``.

    Holds the compiled programs the schedule's events index, the packed
    control data of the route (scalar words, digit rows, point tables) and
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
        nb = executor.nw * 8
        mask_names = ["bit"] if schedule.route == ROUTE_LADDER else ["add", "init"]
        for compiled in programs:
            if len(compiled.output_names) != self.nstate or set(
                compiled._output_vids
            ) & set(compiled._input_vids[:self.nstate]):
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
            digits = array("i")
            for row in schedule.digits:
                digits.extend(row)
            keep.append(ffi.from_buffer("int32_t[]", digits or array("i", [0])))
            points = b"".join(
                x.to_bytes(nb, "little") + y.to_bytes(nb, "little")
                for xs, ys in schedule.tables
                for x, y in zip(xs, ys)
            )
            keep.append(ffi.from_buffer("uint64_t[]", points or bytes(8)))
            data.update(digits=keep[-2], points=keep[-1])
        self._keep = keep
        self._data = ffi.new("gf2m_step_data *", data)
        events = array("i")
        for index, row in schedule.events:
            events.extend((index, row))
        self._events = ffi.from_buffer("int32_t[]", events or array("i", [0, 0]))
        self._nevents = len(schedule.events)

    def run(self, input_arrays: Sequence[NativeVector], count: int) -> List[NativeVector]:
        executor = self.executor
        backend = executor.backend
        ffi = backend._ffi
        nw = executor.nw
        stride = count * nw
        stride_bytes = stride * 8
        nstate = self.nstate
        state = bytearray(b"".join(bytes(vector.buf) for vector in input_arrays[:nstate]))
        work = ffi.new("uint64_t[]", 3 * _lane_words_for(count))
        progs = ffi.new("gf2m_step_program[]", len(self.programs))
        with executor._lock:
            for slot, compiled in zip(progs, self.programs):
                regs = compiled._regs_for(count)
                inputs = compiled._input_vids
                for vid, vector in zip(inputs[nstate:nstate + self.nfixed], input_arrays[nstate:]):
                    ffi.memmove(regs + vid * stride, vector.buf, stride_bytes)
                gathered = inputs[nstate + self.nfixed:]
                slot.code = compiled._code
                slot.ninstr = compiled._ninstr
                slot.tables = compiled._tables
                slot.regs = regs
                slot.inputs = inputs[:nstate] + gathered + [-1] * (6 - nstate - len(gathered))
                slot.outputs = compiled._output_vids + [-1] * (4 - nstate)
            backend._ext.lib.gf2m_run_steps(
                backend._field_c, progs, self._events, self._nevents, count,
                self._data, ffi.from_buffer("uint64_t[]", state, require_writable=True),
                work,
            )
        return [
            NativeVector(state[j * stride_bytes:(j + 1) * stride_bytes], count, nw)
            for j in range(nstate)
        ]


class NativeIRExecutor:
    """The native *IR executor* capability of a :class:`NativeBackend`.

    Same surface as :class:`~repro.backends.planes.PlaneIRExecutor` — the
    consumers in :mod:`repro.curves.point` drive either interchangeably:
    :meth:`pack` / :meth:`unpack` at the batch boundary,
    :meth:`broadcast_bits` for per-lane control masks, :meth:`compile` for
    the memoized lowering, :meth:`vector` to rewrap raw step outputs.
    """

    def __init__(self, backend: NativeBackend) -> None:
        self.backend = backend
        self.field = backend.field
        self.m = backend.m
        self.nw = backend._nw
        self._compiled: Dict[object, tuple] = {}
        self._points: Dict[int, tuple] = {}
        # Compiled programs own their register files; one lock serializes
        # every run on this executor's programs.
        self._lock = threading.Lock()

    @property
    def chunk_size(self) -> int:
        """Preferred batch lanes per execution (bounds the register file)."""
        return self.backend.chunk_size

    # ------------------------------------------------------------- boundary
    def pack(self, values: Sequence[int]) -> NativeVector:
        """Pack validated field elements into a :class:`NativeVector` (once)."""
        return NativeVector(
            bytearray(self.backend._pack(values)), len(values), self.nw
        )

    def unpack(self, vector: NativeVector) -> List[int]:
        """Unpack a :class:`NativeVector` back into field elements (once)."""
        return self.backend._unpack(vector.buf, vector.lanes)

    def vector(self, array: NativeVector, lanes: int) -> NativeVector:
        """Rewrap a raw ``run_arrays`` output as a batch of ``lanes`` lanes."""
        return NativeVector(array.buf, lanes, array.nw)

    def broadcast_bits(self, bits: Sequence[int]) -> NativeMask:
        """Pack one control bit per lane into a :class:`NativeMask`.

        Bit ``p`` of the result is ``bits[p] & 1``; dead lanes stay zero.
        """
        packed = 0
        for position, bit in enumerate(bits):
            if bit & 1:
                packed |= 1 << position
        lane_words = _lane_words_for(len(bits))
        return NativeMask(packed.to_bytes(lane_words * 8, "little"), lane_words)

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

    def run_steps(self, programs: Sequence[FieldProgram], state, fixed, schedule) -> List[List[int]]:
        """Run a whole step loop over one chunk: one C call, GIL released.

        ``programs`` are the step programs the schedule's events index;
        ``state`` the initial state registers and ``fixed`` the inputs
        constant over the loop, as int lists.  The masks and table-point
        gathers of every step are built in C from the schedule's packed
        data (:mod:`repro.backends.steps`).  While a tracer records spans
        the loop runs in Python instead, one ``run_arrays`` per step, so
        the trace keeps its per-step and per-pass spans.  Returns the
        final state as int lists.
        """
        compiled = [self.compile(program) for program in programs]
        if _trace.TRACER.enabled:
            return run_steps_python(self, compiled, state, fixed, schedule)
        loop = _StepLoop(self, compiled, schedule, len(fixed))
        arrays = compiled[0].run_arrays(
            [self.pack(values) for values in (*state, *fixed)], (), steps=loop
        )
        return [self.unpack(vector) for vector in arrays]

    # ------------------------------------------------------------- programs
    def compile(self, program: FieldProgram) -> CompiledNativeIR:
        """The memoized native lowering of a scheduled ``FieldProgram``."""
        if program.m != self.m:
            raise ValueError(
                f"program is scheduled for m={program.m}, executor is m={self.m}"
            )
        key = program.key if program.key is not None else id(program)
        entry = self._compiled.get(key)
        if entry is None or entry[0] is not program:
            with _trace.span(
                "ir.compile", backend=self.backend.name, program=program.ir.name
            ), _metrics.timed("ir.compile.native"):
                entry = (program, CompiledNativeIR(self, program))
            self._compiled[key] = entry
        return entry[1]

    def describe(self) -> str:
        """One-line summary used by the CLI and benchmarks."""
        return f"FieldIR native executor on {self.backend.describe()}"
