"""Step schedules: the per-step control data of a compiled scalar-multiplication loop.

A batched scalar multiplication runs one compiled step program (for τ, one
of a few) many times over a chunk of lanes.  Between steps only control
data changes: the select masks and, on the masked-add routes, the table
point each lane gathers.  A schedule describes that data once per chunk,
in two forms:

* per step, as plain per-lane lists (:meth:`step`) — what
  :func:`run_steps_python` feeds ``run_arrays`` one step at a time (every
  executor but native, and ``repro bench --profile`` on native too, for
  its per-pass table), under one ``{prefix}.step`` span per step;
* packed once, as the scalars, digit rows and point tables the native step
  loop reads in C (``route`` plus the attributes of each class), traced
  or not, under one ``{prefix}.steps`` span per chunk.

``events`` lists ``(program index, row)`` per step, in execution order.
The three routes:

* :class:`LadderSteps` — the binary López-Dahab ladder: one step per
  scalar bit, top bit first; the row is the bit, mask ``bit`` its value.
* :class:`CombSteps` — the fixed-base comb: one double-and-add step per
  column; the row is the column, the digit the lane's tooth pattern.
* :class:`TauSteps` — the τ-adic ladder: one step per position where some
  lane adds (or per run of pure Frobenius squarings, row ``-1``); the row
  is the digit position.  Its digits are position-major int8 rows (byte
  ``position · lanes + lane``, as the recoder writes them) and its table
  holds the executor's packed values of ``u·P`` per lane, so the native
  loop gathers from them directly.

On the masked-add routes a lane with a nonzero digit gathers the table
point of ``|digit|`` (negated for negative digits) and either starts its
accumulator (mask ``init``, first nonzero digit) or adds (mask ``add``).
A schedule's :meth:`step` tracks which lanes have started, so it is read
once, in event order.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..telemetry import trace as _trace

__all__ = [
    "ROUTE_LADDER",
    "ROUTE_COMB",
    "ROUTE_TAU",
    "LadderSteps",
    "CombSteps",
    "TauSteps",
    "run_steps_python",
]

ROUTE_LADDER, ROUTE_COMB, ROUTE_TAU = 0, 1, 2


class LadderSteps:
    """The binary ladder of ``scalars``: one step per bit, top bit first."""

    route = ROUTE_LADDER
    span_prefix = "ladder"
    nstate = 4  # x1 z1 x2 z2; the base x stays fixed

    def __init__(self, scalars: Sequence[int]) -> None:
        self.scalars = scalars
        top = max(scalar.bit_length() for scalar in scalars)
        self.events = [(0, bit) for bit in range(top - 1, -1, -1)]

    def step(self, row: int, executor) -> Tuple[tuple, tuple]:
        """``(gathered inputs, mask bit lists)`` of the step at bit ``row``."""
        return (), ([(scalar >> row) & 1 for scalar in self.scalars],)


class _MaskedAddSteps:
    """Shared gather and ``add``/``init`` mask logic of the comb and τ routes."""

    nstate = 3  # X Y Z, then the gathered x2 y2

    def __init__(self, lanes: int) -> None:
        self.lanes = lanes
        self._started = [False] * lanes

    def _digits(self, row: int) -> Sequence[int]:
        raise NotImplementedError

    def _point(self, magnitude: int, lane: int) -> Tuple[int, int]:
        raise NotImplementedError

    def step(self, row: int, executor) -> Tuple[tuple, tuple]:
        if row < 0:
            return (), ()
        lanes = self.lanes
        started = self._started
        x2 = [0] * lanes
        y2 = [0] * lanes
        add_bits = [0] * lanes
        init_bits = [0] * lanes
        for lane, digit in enumerate(self._digits(row)):
            if not digit:
                continue
            x, y = self._point(digit if digit > 0 else -digit, lane)
            if digit < 0:
                y ^= x  # −(x, y) = (x, x + y) on a binary curve
            x2[lane] = x
            y2[lane] = y
            if started[lane]:
                add_bits[lane] = 1
            else:
                init_bits[lane] = 1
                started[lane] = True
        return (x2, y2), (add_bits, init_bits)


class CombSteps(_MaskedAddSteps):
    """Comb columns of ``scalars``: tooth ``t`` of column ``c`` is bit ``t·columns + c``.

    ``points[pattern - 1]`` is the affine table entry of a nonzero tooth
    pattern, shared by every lane.
    """

    route = ROUTE_COMB
    span_prefix = "comb"

    def __init__(
        self, scalars: Sequence[int], teeth: int, columns: int,
        points: Sequence[Tuple[int, int]],
    ) -> None:
        super().__init__(len(scalars))
        self.scalars = scalars
        self.teeth = teeth
        self.columns = columns
        self.points = points
        self.events = [(0, column) for column in range(columns - 1, -1, -1)]
        self._patterns: List[List[int]] = []

    def _digits(self, row: int) -> Sequence[int]:
        if not self._patterns:
            # One pass over each scalar's set bits fills every column's
            # tooth pattern instead of teeth·columns probes per lane.
            for scalar in self.scalars:
                patterns = [0] * self.columns
                while scalar:
                    index = (scalar & -scalar).bit_length() - 1
                    scalar &= scalar - 1
                    patterns[index % self.columns] |= 1 << (index // self.columns)
                self._patterns.append(patterns)
        return [patterns[row] for patterns in self._patterns]

    def _point(self, magnitude: int, lane: int) -> Tuple[int, int]:
        return self.points[magnitude - 1]


class TauSteps(_MaskedAddSteps):
    """τ-adic steps: ``events`` from the caller, ``digits`` int8 rows by position.

    ``digits[position · lanes + lane]`` is the lane's signed digit at a
    position; ``tables[u - 1]`` holds the packed per-lane affine
    coordinates ``(xs, ys)`` of ``u·P_lane``.  The Python loop unpacks the
    table once, at its first step.
    """

    route = ROUTE_TAU
    span_prefix = "ladder.tau"

    def __init__(
        self, events: Sequence[Tuple[int, int]], digits: bytearray,
        tables: Sequence[tuple], lanes: int,
    ) -> None:
        super().__init__(lanes)
        self.events = events
        self.digits = digits
        self.tables = tables
        self._values: List[Tuple[List[int], List[int]]] = []

    def step(self, row: int, executor) -> Tuple[tuple, tuple]:
        if row >= 0 and not self._values:
            self._values = [
                (executor.unpack(xs, self.lanes), executor.unpack(ys, self.lanes))
                for xs, ys in self.tables
            ]
        return super().step(row, executor)

    def _digits(self, row: int) -> Sequence[int]:
        lanes = self.lanes
        return memoryview(self.digits).cast("b")[row * lanes:(row + 1) * lanes]

    def _point(self, magnitude: int, lane: int) -> Tuple[int, int]:
        xs, ys = self._values[magnitude - 1]
        return xs[lane], ys[lane]


def run_steps_python(executor, programs, state, fixed, schedule) -> List:
    """The step loop in Python: one ``run_arrays`` per step over packed values.

    ``programs`` are compiled lowerings indexed by the schedule's events;
    each takes the state registers, then ``fixed`` (inputs constant over
    the loop), then the step's gathered inputs, and returns the next
    state.  ``state`` and ``fixed`` come packed and the final state goes
    back packed; only each step's gathered inputs and masks are packed
    here.
    """
    tracer = _trace.TRACER
    span = f"{schedule.span_prefix}.step"
    arrays = tuple(state)
    fixed = tuple(fixed)
    for index, row in schedule.events:
        with tracer.span(span):
            gathered, masks = schedule.step(row, executor)
            arrays = tuple(programs[index].run_arrays(
                arrays + fixed + tuple(executor.pack(values) for values in gathered),
                tuple(executor.broadcast_bits(bits) for bits in masks),
            ))
    return list(arrays)
