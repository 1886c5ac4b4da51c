"""FieldIR: one straight-line formula compiler for batched GF(2^m) compute.

Driven op by op, one Montgomery ladder step is ~10 separate batched
passes — two lane-stacked multiplies, six squaring programs, XORs and
masked selects — each paying dispatch, scratch traffic and Python call
overhead.  This module is a small straight-line **IR over batched field
ops**, so a whole formula (the entire López-Dahab step, the ladder's
projective finish, the curve-equation residual) is expressed *once* and
compiled *once*:

* :class:`IRBuilder` traces a formula into a :class:`FieldIR` — SSA ops
  ``mul`` / ``square`` / ``apply_linear`` / ``xor`` / ``select`` /
  ``const`` over named inputs and per-lane select masks.  Linear maps are
  referenced **by name** so the same traced formula serves every field and
  curve; concrete :class:`~repro.galois.field.GF2LinearMap` s bind later.
* :func:`schedule_program` is the level-scheduling **fusion pass**: it
  collapses fan-out-1 linear chains into composed maps
  (:meth:`GF2LinearMap.compose` — ``square∘square`` becomes one quartic
  map, ``mul_b∘square∘square`` one dense map), hoists constants into a
  prologue, and packs the ops into the fewest alternating passes — every
  :class:`MulPass` gathers all its independent products into **one**
  batched multiply, every :class:`LinearPass` holds all the linear/XOR
  work between two barriers, every :class:`SelectPass` applies one
  broadcast lane mask to all its register swaps.
* The scheduled :class:`FieldProgram` is backend-neutral.  Every backend's
  :meth:`~repro.backends.base.FieldBackend.ir_executor` returns an
  :class:`IRExecutor`, one contract over two executors:
  :class:`InterpretedExecutor` (``python``, ``engine``, ``bitslice``)
  keeps values as ``int`` lists and runs each compiled program through
  :func:`execute_program`, which gathers each MulPass into a single
  ``multiply_batch`` call, and ``native`` lowers to C instruction streams
  (:class:`~repro.backends.native.NativeIRExecutor`).  A new substrate
  implements one executor, not a set of ad-hoc ops.

Scheduled programs are memoized process-wide by their ``key`` (see
:func:`cached_program`), mirroring the multiplier and netlist caches, so
repeated curve or backend constructions never re-schedule a formula.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

from ..pipeline.store import LRUCache
from ..telemetry import metrics as _metrics
from ..telemetry import trace as _trace
from .steps import run_steps_python

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..galois.field import GF2LinearMap

__all__ = [
    "Var",
    "FieldIR",
    "IRBuilder",
    "MulPass",
    "LinearPass",
    "SelectPass",
    "FieldProgram",
    "schedule_program",
    "cached_program",
    "execute_program",
    "CompiledProgram",
    "IRExecutor",
    "InterpretedExecutor",
    "lane_words_for",
    "lane_mask_bytes",
]

#: Lanes per chunk of the interpreting executor.  Its values are int lists,
#: so the width bounds only how many lanes share one step schedule.
INTERPRETED_CHUNK = 4096

# Op kinds.  input/mask/const feed the program; mul is the only op that
# needs a full product circuit; linear covers square and every fixed-map
# multiplication; xor is field addition; select is the per-lane masked mux.
K_INPUT = "input"
K_MASK = "mask"
K_CONST = "const"
K_MUL = "mul"
K_LINEAR = "linear"
K_XOR = "xor"
K_SELECT = "select"


class Var:
    """An opaque SSA value handle returned by :class:`IRBuilder` ops.

    Deliberately *not* an int so formula code cannot accidentally mix
    field values, mask values and Python integers.
    """

    __slots__ = ("vid", "ir_id")

    def __init__(self, vid: int, ir_id: int) -> None:
        self.vid = vid
        self.ir_id = ir_id

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Var({self.vid})"


class FieldIR:
    """A traced straight-line formula: SSA ops over named inputs and masks.

    Immutable once built (:meth:`IRBuilder.build`).  ``ops[vid]`` is a
    tuple ``(kind, *args)`` where args are operand vids, a linear-map name,
    or a constant value; ``inputs`` / ``mask_inputs`` give the declared
    order; ``outputs`` name the result vids.
    """

    def __init__(
        self,
        name: str,
        ops: Sequence[tuple],
        inputs: Sequence[Tuple[str, int]],
        mask_inputs: Sequence[Tuple[str, int]],
        outputs: Sequence[Tuple[str, int]],
    ) -> None:
        self.name = name
        self.ops = tuple(ops)
        self.inputs = tuple(inputs)
        self.mask_inputs = tuple(mask_inputs)
        self.outputs = tuple(outputs)

    @property
    def linear_names(self) -> Tuple[str, ...]:
        """The distinct linear-map names the formula references, in order."""
        seen: List[str] = []
        for op in self.ops:
            if op[0] == K_LINEAR and op[1] not in seen:
                seen.append(op[1])
        return tuple(seen)

    def op_counts(self) -> Dict[str, int]:
        """Ops per kind (inputs/masks excluded) — the raw formula size."""
        counts: Dict[str, int] = {}
        for op in self.ops:
            if op[0] in (K_INPUT, K_MASK):
                continue
            counts[op[0]] = counts.get(op[0], 0) + 1
        return counts

    def describe(self) -> str:
        """One-line structural summary of the traced (unscheduled) formula."""
        counts = self.op_counts()
        body = ", ".join(f"{counts[kind]} {kind}" for kind in sorted(counts))
        return (
            f"FieldIR {self.name}: {len(self.inputs)} inputs, "
            f"{len(self.mask_inputs)} masks -> {len(self.outputs)} outputs; {body}"
        )


class IRBuilder:
    """Traces a formula into a :class:`FieldIR` one SSA op at a time.

    Usage::

        b = IRBuilder("example")
        x, y = b.input("x"), b.input("y")
        bit = b.mask_input("bit")
        b.output("r", b.select(bit, b.mul(x, y), b.square(b.xor(x, y))))
        ir = b.build()

    Linear maps are referenced by *name* (``b.square`` uses the reserved
    name ``"square"``); :func:`schedule_program` binds the names to
    concrete :class:`~repro.galois.field.GF2LinearMap` s, so one trace
    serves every field.
    """

    _next_ir_id = 0

    def __init__(self, name: str) -> None:
        self.name = name
        self._ops: List[tuple] = []
        self._inputs: List[Tuple[str, int]] = []
        self._masks: List[Tuple[str, int]] = []
        self._outputs: List[Tuple[str, int]] = []
        self._built = False
        IRBuilder._next_ir_id += 1
        self._ir_id = IRBuilder._next_ir_id

    # ----------------------------------------------------------------- plumbing
    def _emit(self, op: tuple) -> Var:
        if self._built:
            raise RuntimeError(f"IRBuilder {self.name!r} is already built")
        self._ops.append(op)
        return Var(len(self._ops) - 1, self._ir_id)

    def _vid(self, var: Var, *, mask: bool = False) -> int:
        if not isinstance(var, Var):
            raise TypeError(f"expected a Var from this builder, got {type(var).__name__}")
        if var.ir_id != self._ir_id:
            raise ValueError("a Var from a different IRBuilder cannot be used here")
        kind = self._ops[var.vid][0]
        if mask != (kind == K_MASK):
            expected = "a mask input" if mask else "a field value"
            raise TypeError(f"expected {expected}, got a {kind} op")
        return var.vid

    # ---------------------------------------------------------------------- ops
    def input(self, name: str) -> Var:
        """Declare a named batch input (one field element per lane)."""
        if any(existing == name for existing, _ in self._inputs):
            raise ValueError(f"duplicate input name {name!r}")
        var = self._emit((K_INPUT, name))
        self._inputs.append((name, var.vid))
        return var

    def mask_input(self, name: str) -> Var:
        """Declare a named per-lane select-control input (one bit per lane)."""
        if any(existing == name for existing, _ in self._masks):
            raise ValueError(f"duplicate mask name {name!r}")
        var = self._emit((K_MASK, name))
        self._masks.append((name, var.vid))
        return var

    def const(self, value: int) -> Var:
        """A constant field element broadcast to every live lane."""
        if value < 0:
            raise ValueError("field constants are non-negative integers")
        return self._emit((K_CONST, value))

    def mul(self, a: Var, b: Var) -> Var:
        """Full field product (the only op that needs a multiplier circuit)."""
        return self._emit((K_MUL, self._vid(a), self._vid(b)))

    def apply_linear(self, map_name: str, x: Var) -> Var:
        """Apply the named GF(2)-linear map (bound at schedule time)."""
        if not map_name:
            raise ValueError("linear maps need a non-empty name")
        return self._emit((K_LINEAR, map_name, self._vid(x)))

    def square(self, x: Var) -> Var:
        """Field squaring — sugar for ``apply_linear("square", x)``."""
        return self.apply_linear("square", x)

    def xor(self, first: Var, *rest: Var) -> Var:
        """Field addition; ``xor(a, b, c, ...)`` folds left."""
        result = first
        for other in rest:
            result = self._emit((K_XOR, self._vid(result), self._vid(other)))
        if not rest:
            raise TypeError("xor needs at least two operands")
        return result

    def select(self, mask: Var, when_set: Var, when_clear: Var) -> Var:
        """Per-lane mux: ``when_set`` where the mask bit is 1, else ``when_clear``."""
        return self._emit(
            (K_SELECT, self._vid(mask, mask=True), self._vid(when_set), self._vid(when_clear))
        )

    def output(self, name: str, var: Var) -> None:
        """Name a result of the formula."""
        if any(existing == name for existing, _ in self._outputs):
            raise ValueError(f"duplicate output name {name!r}")
        self._outputs.append((name, self._vid(var)))

    def build(self) -> FieldIR:
        """Freeze the trace into a :class:`FieldIR` (at least one output)."""
        if not self._outputs:
            raise ValueError(f"formula {self.name!r} declares no outputs")
        self._built = True
        return FieldIR(self.name, self._ops, self._inputs, self._masks, self._outputs)


# --------------------------------------------------------------------- passes
class MulPass:
    """One lane-stackable batch of independent full products.

    The batch interpreter gathers all pairs into a single
    ``multiply_batch`` call; the native lowering emits one product per
    pair.
    """

    kind = K_MUL
    __slots__ = ("pairs",)

    def __init__(self) -> None:
        self.pairs: List[Tuple[int, int, int]] = []  # (a_vid, b_vid, out_vid)


class LinearPass:
    """All linear/XOR work between two barrier passes, in one stage.

    ``ops`` keep the (chain-collapsed) op list in dependency order; a stage
    reads registers produced before it and may chain its own results.
    """

    kind = K_LINEAR
    __slots__ = ("ops",)

    def __init__(self) -> None:
        # (out_vid, K_XOR, a_vid, b_vid) or (out_vid, K_LINEAR, map_obj, x_vid)
        self.ops: List[tuple] = []


class SelectPass:
    """All register swaps driven by broadcast lane masks at one level."""

    kind = K_SELECT
    __slots__ = ("triples",)

    def __init__(self) -> None:
        # (mask_name, set_vid, clear_vid, out_vid)
        self.triples: List[Tuple[str, int, int, int]] = []


class FieldProgram:
    """A :class:`FieldIR` scheduled into fused passes and bound to maps.

    Produced by :func:`schedule_program`; consumed by every
    :class:`IRExecutor`.  ``key`` is the process-wide memoization identity
    (curve/field fingerprint chosen by the caller); executors additionally
    key their lowerings by it.  ``pass_labels`` are the ``ir.pass.NN.kind``
    span names every executor records per pass.
    """

    def __init__(
        self,
        ir: FieldIR,
        m: int,
        passes: Sequence[object],
        consts: Sequence[Tuple[int, int]],
        key: Optional[tuple],
    ) -> None:
        self.ir = ir
        self.m = m
        self.passes = tuple(passes)
        self.consts = tuple(consts)  # (vid, value) prologue registers
        self.key = key
        self.op_count = len(ir.ops)
        self.pass_labels = tuple(
            f"ir.pass.{index:02d}.{item.kind}" for index, item in enumerate(self.passes)
        )

    # ------------------------------------------------------------ introspection
    def pass_counts(self) -> Dict[str, int]:
        """Fused passes per kind — the dispatch-level cost of one execution."""
        counts: Dict[str, int] = {}
        for item in self.passes:
            counts[item.kind] = counts.get(item.kind, 0) + 1
        return counts

    def mul_pass_widths(self) -> List[int]:
        """Lane-stacked products per MulPass, in schedule order."""
        return [len(item.pairs) for item in self.passes if item.kind == K_MUL]

    def describe(self) -> str:
        """Structural summary: op counts, fused-pass schedule, stage shapes.

        This is the introspection surface the CLI exposes
        (``repro bench --backend bitslice --describe``).
        """
        counts = self.ir.op_counts()
        ops = ", ".join(f"{counts[kind]} {kind}" for kind in sorted(counts))
        stages = []
        for item in self.passes:
            if item.kind == K_MUL:
                stages.append(f"mul x{len(item.pairs)}")
            elif item.kind == K_LINEAR:
                stages.append(f"linear x{len(item.ops)}")
            else:
                stages.append(f"select x{len(item.triples)}")
        return (
            f"FieldIR program {self.ir.name} (m={self.m}): {ops}; "
            f"{len(self.passes)} fused passes [{', '.join(stages)}]"
        )


def schedule_program(
    ir: FieldIR,
    m: int,
    linear_maps: Mapping[str, "GF2LinearMap"],
    *,
    key: Optional[tuple] = None,
) -> FieldProgram:
    """The level-scheduling fusion pass: trace -> :class:`FieldProgram`.

    Three rewrites happen here, all exact (GF(2^m) arithmetic has no
    rounding, so any correct schedule is byte-identical to the trace):

    1. **chain collapsing** — a linear op whose only consumer-feeding
       operand is another fan-out-1 linear op composes into a single
       :class:`~repro.galois.field.GF2LinearMap`
       (``square∘square``, ``mul_b∘square∘square``), halving the table
       applications on the interpreter path and the instructions of the
       native lowering;
    2. **const hoisting** — ``const`` ops become prologue registers,
       materialized once per execution;
    3. **ASAP pass packing** — each remaining op joins the earliest
       compatible pass that all its operands strictly precede (linear ops
       may *chain within* one LinearPass; mul and select are barriers), so
       independent multiplies lane-stack and all inter-multiply linear
       work fuses into one stage.
    """
    for name in ir.linear_names:
        if name not in linear_maps:
            raise KeyError(f"formula {ir.name!r} needs a linear map named {name!r}")
        if linear_maps[name].input_bits != m:
            raise ValueError(
                f"linear map {name!r} acts on {linear_maps[name].input_bits} bits, "
                f"but the program is scheduled for m={m}"
            )

    ops = list(ir.ops)
    fanout = [0] * len(ops)
    for op in ops:
        if op[0] in (K_MUL, K_XOR):
            fanout[op[1]] += 1
            fanout[op[2]] += 1
        elif op[0] == K_LINEAR:
            fanout[op[2]] += 1
        elif op[0] == K_SELECT:
            fanout[op[2]] += 1
            fanout[op[3]] += 1
    for _, vid in ir.outputs:
        fanout[vid] += 1

    # Chain collapsing: resolve every linear op to (map_obj, source_vid),
    # composing through fan-out-1 linear predecessors.  A predecessor that
    # gets composed through is dead afterwards — its single consumer reads
    # the composed map directly — so it drops out of the schedule entirely.
    resolved: Dict[int, Tuple["GF2LinearMap", int]] = {}
    collapsed: set = set()
    for vid, op in enumerate(ops):
        if op[0] != K_LINEAR:
            continue
        outer = linear_maps[op[1]]
        source = op[2]
        while ops[source][0] == K_LINEAR and fanout[source] == 1:
            inner_map, inner_source = resolved[source]
            outer = outer.compose(inner_map)
            collapsed.add(source)
            source = inner_source
        resolved[vid] = (outer, source)

    mask_name = {vid: name for name, vid in ir.mask_inputs}
    consts = [(vid, op[1]) for vid, op in enumerate(ops) if op[0] == K_CONST]

    passes: List[object] = []
    position: Dict[int, int] = {}  # producing pass index; inputs/consts = -1
    for _, vid in ir.inputs:
        position[vid] = -1
    for vid, _ in consts:
        position[vid] = -1

    def earliest_for(deps: Sequence[int], chainable: Sequence[int] = ()) -> int:
        earliest = 0
        for dep in deps:
            earliest = max(earliest, position[dep] + 1)
        for dep in chainable:
            earliest = max(earliest, position[dep])
        return earliest

    def place(kind: str, earliest: int):
        for index in range(earliest, len(passes)):
            if passes[index].kind == kind:
                return index, passes[index]
        if kind == K_MUL:
            passes.append(MulPass())
        elif kind == K_LINEAR:
            passes.append(LinearPass())
        else:
            passes.append(SelectPass())
        return len(passes) - 1, passes[-1]

    for vid, op in enumerate(ops):
        kind = op[0]
        if kind in (K_INPUT, K_MASK, K_CONST) or vid in collapsed:
            continue
        if kind == K_MUL:
            index, target = place(K_MUL, earliest_for(op[1:3]))
            target.pairs.append((op[1], op[2], vid))
        elif kind == K_SELECT:
            index, target = place(K_SELECT, earliest_for(op[2:4]))
            target.triples.append((mask_name[op[1]], op[2], op[3], vid))
        else:  # linear or xor: may chain onto same-pass linear producers
            if kind == K_LINEAR:
                linear_map, source = resolved[vid]
                deps = [source]
            else:
                deps = [op[1], op[2]]
            hard, soft = [], []
            for dep in deps:
                producer = passes[position[dep]] if position[dep] >= 0 else None
                (soft if isinstance(producer, LinearPass) else hard).append(dep)
            index, target = place(K_LINEAR, earliest_for(hard, soft))
            if kind == K_LINEAR:
                target.ops.append((vid, K_LINEAR, linear_map, source))
            else:
                target.ops.append((vid, K_XOR, op[1], op[2]))
        position[vid] = index

    return FieldProgram(ir, m, passes, consts, key)


#: Scheduled programs keyed by caller-chosen fingerprints (curve, modulus,
#: constants) — repeated field/curve constructions share one fusion pass.
_PROGRAM_CACHE = LRUCache(maxsize=64, name="ir.programs")


def cached_program(key: tuple, factory) -> FieldProgram:
    """The memoized :class:`FieldProgram` for ``key`` (built by ``factory``).

    The process-wide analogue of :func:`repro.backends.bitslice
    .bitsliced_netlist`: formulas are scheduled once per (formula, field,
    constants) fingerprint and shared by every consumer.
    """
    return _PROGRAM_CACHE.get_or_create(key, factory)


# ---------------------------------------------------------------- interpreter
def _batch_lanes(ir: FieldIR, inputs, masks) -> int:
    """The lane count every named input and mask of ``ir`` must share.

    Raises ``KeyError`` naming a missing input or mask and ``ValueError``
    when two streams cover different lane counts.
    """
    lanes: Optional[int] = None
    for kind, declared, streams in (("input", ir.inputs, inputs), ("mask", ir.mask_inputs, masks)):
        for name, _ in declared:
            if streams is None or name not in streams:
                raise KeyError(f"program {ir.name!r} needs {kind} {name!r}")
            count = len(streams[name])
            if lanes is None:
                lanes = count
            elif count != lanes:
                raise ValueError(f"{kind} {name!r} has {count} lanes, expected {lanes}")
    if lanes is None:
        raise ValueError(f"program {ir.name!r} has no inputs")
    return lanes


def execute_program(
    program: FieldProgram,
    backend,
    inputs: Mapping[str, Sequence[int]],
    masks: Optional[Mapping[str, Sequence[int]]] = None,
) -> Dict[str, List[int]]:
    """Run a scheduled program over plain ``int`` batches through a backend.

    The pass schedule is reused as the batching plan: each
    :class:`MulPass` gathers all its products into **one**
    ``backend.multiply_batch`` call, linear ops apply their
    (chain-collapsed) byte-table maps per element, and selects pick per
    lane from the 0/1 mask streams; each pass records the same
    ``ir.pass.NN.kind`` span as on the compiled executors.  Works on
    *every* registered backend — it is what :class:`InterpretedExecutor`
    runs, and the reference twin the parity harness checks every executor
    against.
    """
    ir = program.ir
    lanes = _batch_lanes(ir, inputs, masks)
    values: List[Optional[List[int]]] = [None] * program.op_count
    for name, vid in ir.inputs:
        values[vid] = list(inputs[name])
    for vid, value in program.consts:
        values[vid] = [value] * lanes

    tracer = _trace.TRACER
    for label, item in zip(program.pass_labels, program.passes):
        with tracer.span(label):
            if item.kind == K_MUL:
                lhs: List[int] = []
                rhs: List[int] = []
                for a, b, _ in item.pairs:
                    lhs.extend(values[a])
                    rhs.extend(values[b])
                products = backend.multiply_batch(lhs, rhs)
                for index, (_, _, out) in enumerate(item.pairs):
                    values[out] = products[index * lanes:(index + 1) * lanes]
            elif item.kind == K_LINEAR:
                for op in item.ops:
                    if op[1] == K_XOR:
                        values[op[0]] = [x ^ y for x, y in zip(values[op[2]], values[op[3]])]
                    else:
                        linear_map = op[2]
                        values[op[0]] = [linear_map(value) for value in values[op[3]]]
            else:
                for mask_name, set_vid, clear_vid, out in item.triples:
                    values[out] = [
                        s if bit & 1 else c
                        for s, c, bit in zip(values[set_vid], values[clear_vid], masks[mask_name])
                    ]
    return {name: values[vid] for name, vid in ir.outputs}


# ------------------------------------------------------------------ executors
def lane_words_for(lanes: int) -> int:
    """``uint64`` words holding one bit per lane for ``lanes`` lanes (min 1)."""
    return max(1, (lanes + 63) // 64)


def lane_mask_bytes(bits: Sequence[int]) -> bytes:
    """One control bit per lane, packed little-endian into :func:`lane_words_for` words.

    Bit ``p`` of the result is ``bits[p] & 1``; dead lanes stay zero.  The
    native executor's :meth:`IRExecutor.broadcast_bits` wraps these bytes.
    """
    packed = 0
    for position, bit in enumerate(bits):
        if bit & 1:
            packed |= 1 << position
    return packed.to_bytes(lane_words_for(len(bits)) * 8, "little")


class CompiledProgram(ABC):
    """One :class:`FieldProgram` lowered for one :class:`IRExecutor`.

    Built by :meth:`IRExecutor.compile`.  :meth:`run_arrays` is the
    per-step entry point: packed values in declared input order and
    :meth:`IRExecutor.broadcast_bits` masks in declared mask order go in,
    fresh packed outputs in declared output order come back — the caller
    may feed them in as the next step's inputs.
    """

    def __init__(self, executor: "IRExecutor", program: FieldProgram) -> None:
        self.executor = executor
        self.program = program
        self.m = program.m
        ir = program.ir
        self.input_names = [name for name, _ in ir.inputs]
        self.mask_names = [name for name, _ in ir.mask_inputs]
        self.output_names = [name for name, _ in ir.outputs]
        self._input_vids = [vid for _, vid in ir.inputs]

    @abstractmethod
    def run_arrays(self, input_arrays: Sequence, mask_arrays: Sequence) -> List:
        """Execute the program once over packed inputs and masks."""

    def describe(self) -> str:
        """Structural summary of the scheduled program plus the substrate."""
        return f"{self.program.describe()} on {self.executor.backend.describe()}"


class IRExecutor(ABC):
    """The FieldIR executor of one backend: the contract all four backends meet.

    :meth:`compile` lowers a scheduled :class:`FieldProgram` once, memoized
    per executor by the program's ``key``.  Consumers then run it over int
    lists (:meth:`run`, chunked at :attr:`chunk_size` lanes), or hold the
    packed representation themselves for up to :attr:`chunk_size` lanes:
    :meth:`pack` once, the compiled programs' ``run_arrays``, whole step
    loops (:meth:`run_steps`) and batch inversions (:meth:`inverse_packed`)
    on packed values, and :meth:`unpack` once.  Subclasses fix that
    representation (the three boundary methods) and the lowering
    (:attr:`compiled_type`).
    """

    #: Short executor label: ``interpreted`` or ``native``.
    kind: str
    #: The :class:`CompiledProgram` subclass :meth:`compile` builds.
    compiled_type: type

    def __init__(self, backend, chunk_size: int) -> None:
        self.backend = backend
        self.m = backend.field.m
        self.chunk_size = chunk_size
        self._compiled: Dict[object, Tuple[FieldProgram, CompiledProgram]] = {}

    # ------------------------------------------------------------- boundary
    @abstractmethod
    def pack(self, values: Sequence[int]):
        """Validated field elements → the packed value ``run_arrays`` takes."""

    @abstractmethod
    def unpack(self, array, lanes: int) -> List[int]:
        """A packed value of ``lanes`` live lanes → field elements."""

    @abstractmethod
    def broadcast_bits(self, bits: Sequence[int]):
        """One control bit per lane → the mask ``run_arrays`` takes."""

    @abstractmethod
    def repeat(self, value: int, lanes: int):
        """The packed value holding the field element ``value`` on every one of ``lanes`` lanes."""

    def nonzero_lanes(self, array, lanes: int) -> List[int]:
        """The lanes, ascending, where a packed value of ``lanes`` lanes is nonzero."""
        return [lane for lane, value in enumerate(self.unpack(array, lanes)) if value]

    # ------------------------------------------------------------- programs
    def compile(self, program: FieldProgram) -> CompiledProgram:
        """The memoized lowering of a scheduled ``FieldProgram``."""
        if program.m != self.m:
            raise ValueError(
                f"program is scheduled for m={program.m}, executor is m={self.m}"
            )
        key = program.key if program.key is not None else id(program)
        entry = self._compiled.get(key)
        if entry is None or entry[0] is not program:
            name = self.backend.name
            with _trace.span(
                "ir.compile", backend=name, program=program.ir.name
            ), _metrics.timed(f"ir.compile.{name}"):
                entry = (program, self.compiled_type(self, program))
            self._compiled[key] = entry
        return entry[1]

    def run(
        self,
        program: FieldProgram,
        inputs: Mapping[str, Sequence[int]],
        masks: Optional[Mapping[str, Sequence[int]]] = None,
    ) -> Dict[str, List[int]]:
        """Run ``program`` over int lists, one ``run_arrays`` per chunk of lanes.

        ``inputs`` and ``masks`` map every declared name to one value (or
        one 0/1 bit) per lane: a missing name raises ``KeyError``, streams
        of different lengths ``ValueError``.  Returns the outputs by name.
        """
        lanes = _batch_lanes(program.ir, inputs, masks)
        compiled = self.compile(program)
        columns = [inputs[name] for name in compiled.input_names]
        streams = [masks[name] for name in compiled.mask_names]
        outputs: Dict[str, List[int]] = {name: [] for name in compiled.output_names}
        for start in range(0, lanes, self.chunk_size):
            stop = min(start + self.chunk_size, lanes)
            arrays = compiled.run_arrays(
                [self.pack(column[start:stop]) for column in columns],
                [self.broadcast_bits(stream[start:stop]) for stream in streams],
            )
            for values, array in zip(outputs.values(), arrays):
                values += self.unpack(array, stop - start)
        return outputs

    def run_steps(self, programs: Sequence[FieldProgram], state, fixed, schedule) -> List:
        """Run a step loop over one chunk of lanes; returns the final state.

        ``programs`` are the step programs the schedule's events index
        (:mod:`repro.backends.steps`), ``state`` the initial state
        registers and ``fixed`` the inputs constant over the loop, all as
        packed values (:meth:`pack`); the final state comes back packed.
        The loop is :func:`~repro.backends.steps.run_steps_python`, one
        ``run_arrays`` per step.
        """
        compiled = [self.compile(program) for program in programs]
        return run_steps_python(self, compiled, state, fixed, schedule)

    def inverse_packed(self, array, lanes: int) -> Tuple[object, List[int]]:
        """Batch inverse of a packed value: ``(inverses, zero lanes)``.

        Zero lanes map to zero and are listed in ascending order; the rest
        share one :meth:`~repro.backends.base.FieldBackend.inverse_batch`
        call, so the backend's telemetry counts them.
        """
        values = self.unpack(array, lanes)
        zeros = [lane for lane, value in enumerate(values) if not value]
        inverses = iter(self.backend.inverse_batch([value for value in values if value]))
        return self.pack([next(inverses) if value else 0 for value in values]), zeros

    def describe(self) -> str:
        """One-line summary used by the CLI and benchmarks."""
        return f"FieldIR {self.kind} executor on {self.backend.describe()}"


class InterpretedProgram(CompiledProgram):
    """A program run pass by pass through :func:`execute_program`."""

    def run_arrays(self, input_arrays: Sequence, mask_arrays: Sequence) -> List[List[int]]:
        outputs = execute_program(
            self.program,
            self.executor.backend,
            dict(zip(self.input_names, input_arrays)),
            dict(zip(self.mask_names, mask_arrays)),
        )
        return [outputs[name] for name in self.output_names]


class InterpretedExecutor(IRExecutor):
    """The executor of the backends with no packed form (``python``, ``engine``, ``bitslice``).

    Values stay ``int`` lists and masks 0/1 lists; a compiled program is
    the scheduled program handed to :func:`execute_program`, so every
    MulPass is one ``multiply_batch`` call on the backend.
    """

    kind = "interpreted"
    compiled_type = InterpretedProgram

    def __init__(self, backend) -> None:
        super().__init__(backend, INTERPRETED_CHUNK)

    def pack(self, values: Sequence[int]) -> List[int]:
        return list(values)

    def unpack(self, array: List[int], lanes: int) -> List[int]:
        return list(array)

    def broadcast_bits(self, bits: Sequence[int]) -> List[int]:
        return list(bits)

    def repeat(self, value: int, lanes: int) -> List[int]:
        return [value] * lanes
