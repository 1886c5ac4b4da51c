"""Bitsliced netlist evaluation over numpy ``uint64`` plane arrays.

The compiled big-integer engine (:mod:`repro.engine`) evaluates one Python
bytecode operation per gate on arbitrary-precision integers.  This backend
trades that for numpy: every netlist node owns one row of a
``(node_count, lane_words)`` ``uint64`` array, where bit ``p`` of a row is
the node's value for operand pair ``p`` — 64 batch lanes per machine word,
``lane_words`` words per numpy op.

Evaluating gate-by-gate would drown in numpy dispatch overhead (~0.5 µs per
call versus ~30 ns of actual 32-word work), so the circuit is compiled to
**level segments**: live nodes are renumbered densely in
``(logic level, op)`` order, making every run of same-op gates in one level
a *contiguous slice* of the value array.  One segment then evaluates as two
``np.take`` fanin gathers (into reused scratch) and a single vectorized
``bitwise_and`` / ``bitwise_xor`` writing straight into the output slice —
and a segment recognized as the full ``a_i x b_j`` partial-product plane
skips the gathers entirely, evaluating as one broadcast outer product of
the input plane arrays.  A 55k-gate GF(2^163) multiplier collapses to ~45
numpy calls per chunk.

Packing reuses the word-level bit-matrix transposes of
:mod:`repro.engine.bitpack` (rows → plane big-ints) with a zero-copy
``int.to_bytes``/``np.frombuffer`` hop between big-int planes and ``uint64``
lane words.

The backend's FieldIR executor is the inherited
:class:`~repro.backends.ir.InterpretedExecutor`, as on ``engine``: every
MulPass of a ladder, comb or τ program reaches the netlist as one
:meth:`BitslicedNetlist.multiply_batch` call, so batched curve arithmetic
on this backend is the paper's circuit checked lane for lane against the
scalar reference.  ``native`` is the fast path; this one is the circuit
test reference.

numpy is an *optional* dependency: the module imports without it and every
entry point raises a clear ``ImportError`` (install ``numpy`` or the
``gf2m-repro[bitslice]`` extra) only when bitsliced evaluation is actually
requested.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..engine.bitpack import pack_rows, unpack_planes
from ..netlist.netlist import OP_AND, OP_XOR
from ..pipeline.store import LRUCache
from .base import FieldBackend, default_method_for
from .ir import lane_words_for

#: numpy, imported on first use (``None`` when it is not installed):
#: importing it with the package would cost every process ~12 MB of
#: resident memory, word-level backends included.
_UNLOADED = object()
_np = _UNLOADED

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..galois.field import GF2mField
    from ..netlist.netlist import Netlist

__all__ = ["BitslicedNetlist", "BitsliceBackend", "bitsliced_netlist", "numpy_available"]

#: Default batch lanes evaluated per numpy pass (64 pairs per uint64 word).
DEFAULT_LANES = 4096


def _import_numpy():
    """The numpy module, or ``None`` when it is not installed."""
    try:
        import numpy
    except ImportError:  # pragma: no cover
        return None
    return numpy


def numpy_available() -> bool:
    """Whether the optional numpy dependency is importable."""
    global _np
    if _np is _UNLOADED:
        _np = _import_numpy()
    return _np is not None


def _require_numpy():
    if not numpy_available():
        raise ImportError(
            "the bitslice backend needs numpy, which is not installed; "
            "run 'pip install numpy' (or install the gf2m-repro[bitslice] extra), "
            "or select the 'engine' or 'python' backend instead"
        )
    return _np


def _planes_to_array(planes: Sequence[int], lane_words: int):
    """Big-integer planes → a ``(len(planes), lane_words)`` uint64 array."""
    lane_bytes = lane_words * 8
    buffer = b"".join(plane.to_bytes(lane_bytes, "little") for plane in planes)
    return _require_numpy().frombuffer(buffer, dtype="<u8").reshape(len(planes), lane_words)


class _LaneBufferCache:
    """Thread-local per-lane-width buffer pool, bounded to four widths.

    Compiled netlists are cached process-wide and used from multiple
    threads, so each thread gets its own buffers, keyed by lane width and
    evicted wholesale once odd tail widths would accumulate.
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


class BitslicedNetlist:
    """A multiplier netlist compiled for level-segmented numpy evaluation.

    Follows the standard multiplier I/O convention (inputs ``a<i>``/``b<j>``,
    outputs ``c0..c(m-1)``) and raises ``ValueError`` for netlists outside
    it, mirroring :class:`repro.engine.engine.Engine`.  Value buffers are
    cached per lane width, so repeated batches of the same chunk size reuse
    their memory.
    """

    def __init__(self, netlist: Netlist, m: int, chunk_size: int = DEFAULT_LANES) -> None:
        np = _require_numpy()
        if chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        self.m = m
        self.chunk_size = chunk_size
        self.name = netlist.name

        live = netlist.live_nodes()
        level: Dict[int, int] = {}
        for node in live:
            if netlist.op(node) in (OP_AND, OP_XOR):
                fanin0, fanin1 = netlist.fanins(node)
                level[node] = 1 + max(level.get(fanin0, 0), level.get(fanin1, 0))
            else:
                level[node] = 0
        # Raster rank of input-fed AND gates: a partial-product plane whose
        # gates cover the full a_i x b_j grid evaluates as ONE broadcast
        # outer product instead of two 26k-row gathers — detected per
        # segment below, enabled by ordering those gates in (i, j) raster.
        input_bit: Dict[int, Tuple[str, int]] = {}
        for input_name in netlist.inputs:
            operand, digits = input_name[:1], input_name[1:]
            if operand in ("a", "b") and digits.isdigit():
                input_bit[netlist.input_node(input_name)] = (operand, int(digits))
        raster: Dict[int, int] = {}
        for node in live:
            if netlist.op(node) != OP_AND:
                continue
            pair = {}
            for fanin in netlist.fanins(node):
                operand_bit = input_bit.get(fanin)
                if operand_bit is not None:
                    pair[operand_bit[0]] = operand_bit[1]
            if len(pair) == 2 and pair["a"] < m and pair["b"] < m:
                raster[node] = pair["a"] * m + pair["b"]

        # Dense renumbering in (level, op, raster/node) order: every same-op
        # run of one level becomes a contiguous row range of the value
        # array, with raster-eligible AND planes in (i, j) order.
        ordered = sorted(
            live,
            key=lambda node: (
                level[node],
                netlist.op(node) == OP_AND,
                (0, raster[node]) if node in raster else (1, node),
            ),
        )
        renumber = {node: index for index, node in enumerate(ordered)}
        self.node_count = len(ordered)
        self.level_count = (max(level.values()) + 1) if level else 0

        segments: List[List] = []  # [start, end, fanin0s, fanin1s, is_and, ranks]
        current_key: Optional[Tuple[int, int]] = None
        self.and_count = 0
        self.xor_count = 0
        for node in ordered:
            op = netlist.op(node)
            if op not in (OP_AND, OP_XOR):
                continue
            if op == OP_AND:
                self.and_count += 1
            else:
                self.xor_count += 1
            key = (level[node], op)
            if key != current_key:
                segments.append([renumber[node], renumber[node], [], [], op == OP_AND, []])
                current_key = key
            segment = segments[-1]
            fanin0, fanin1 = netlist.fanins(node)
            segment[1] = renumber[node] + 1
            segment[2].append(renumber[fanin0])
            segment[3].append(renumber[fanin1])
            segment[5].append(raster.get(node))
        # An AND segment that is exactly the full m x m raster (in order, by
        # the renumbering above) evaluates as one broadcast outer product.
        self._segments = [
            (
                start,
                end,
                np.asarray(f0, dtype=np.intp),
                np.asarray(f1, dtype=np.intp),
                is_and,
                is_and and end - start == m * m and ranks == list(range(m * m)),
            )
            for start, end, f0, f1, is_and, ranks in segments
        ]
        self._max_gather = max(
            (end - start for start, end, _, _, _, is_outer in self._segments if not is_outer),
            default=0,
        )

        self._input_rows: List[Tuple[int, int, int]] = []  # (dense row, operand, bit)
        for input_name in netlist.inputs:
            operand, digits = input_name[:1], input_name[1:]
            if operand not in ("a", "b") or not digits.isdigit() or int(digits) >= m:
                raise ValueError(
                    f"input {input_name!r} does not follow the a<i>/b<j> convention for m={m}"
                )
            node = netlist.input_node(input_name)
            if node in renumber:  # dead inputs never reach an output
                self._input_rows.append((renumber[node], 0 if operand == "a" else 1, int(digits)))
        position = {output_name: renumber[node] for output_name, node in netlist.outputs}
        self._output_rows: List[int] = []
        for k in range(m):
            row = position.get(f"c{k}")
            if row is None:
                raise ValueError(f"netlist is missing output c{k}")
            self._output_rows.append(row)

        # Index arrays for multiply_planes: one fancy-indexed scatter per
        # operand replaces the per-row input writes.
        a_live = [(row, bit) for row, operand, bit in self._input_rows if operand == 0]
        b_live = [(row, bit) for row, operand, bit in self._input_rows if operand == 1]
        self._a_rows = np.asarray([row for row, _ in a_live], dtype=np.intp)
        self._a_bits = np.asarray([bit for _, bit in a_live], dtype=np.intp)
        self._b_rows = np.asarray([row for row, _ in b_live], dtype=np.intp)
        self._b_bits = np.asarray([bit for _, bit in b_live], dtype=np.intp)
        self._output_row_array = np.asarray(self._output_rows, dtype=np.intp)

        #: (values, gather0, gather1) buffers, thread-local and keyed by lane
        #: words (:class:`_LaneBufferCache`): backend
        #: instances are shared process-wide through the registry cache, so
        #: concurrent batches must never write into the same array.  Const-0
        #: rows stay zero because only gate rows (segments) and input rows
        #: are ever written; the gather scratch lets segments run through
        #: ``np.take(..., out=...)`` — measurably faster than fancy indexing
        #: and allocation-free on the hot path.
        self._buffers = _LaneBufferCache(
            lambda lane_words: (
                np.zeros((self.node_count, lane_words), dtype=np.uint64),
                np.empty((self._max_gather, lane_words), dtype=np.uint64),
                np.empty((self._max_gather, lane_words), dtype=np.uint64),
            )
        )

    # --------------------------------------------------------------- evaluate
    def multiply_planes(self, a_planes, b_planes):
        """Products of two ``(m, lane_words)`` uint64 plane arrays, as planes.

        No packing, no unpacking: inputs scatter into the value buffer with
        two fancy-indexed writes, the level segments run, and the output
        rows gather into a fresh array (never aliasing the reused buffer).
        Any common ``lane_words`` width works.
        """
        np = _require_numpy()
        if a_planes.shape != b_planes.shape or a_planes.shape[0] != self.m:
            raise ValueError(
                f"expected two ({self.m}, lane_words) plane arrays, got "
                f"{a_planes.shape} and {b_planes.shape}"
            )
        values, gather0, gather1 = self._buffers.get(a_planes.shape[1])
        values[self._a_rows] = a_planes[self._a_bits]
        values[self._b_rows] = b_planes[self._b_bits]
        for start, end, fanin0, fanin1, is_and, is_outer in self._segments:
            if is_outer:
                np.bitwise_and(
                    a_planes[:, None, :],
                    b_planes[None, :, :],
                    out=values[start:end].reshape(self.m, self.m, -1),
                )
                continue
            count = end - start
            np.take(values, fanin0, axis=0, out=gather0[:count], mode="clip")
            np.take(values, fanin1, axis=0, out=gather1[:count], mode="clip")
            if is_and:
                np.bitwise_and(gather0[:count], gather1[:count], out=values[start:end])
            else:
                np.bitwise_xor(gather0[:count], gather1[:count], out=values[start:end])
        return values[self._output_row_array]

    def _evaluate_chunk(self, a_chunk: Sequence[int], b_chunk: Sequence[int]) -> List[int]:
        lanes = len(a_chunk)
        lane_words = lane_words_for(lanes)
        product = self.multiply_planes(
            _planes_to_array(pack_rows(a_chunk, self.m), lane_words),
            _planes_to_array(pack_rows(b_chunk, self.m), lane_words),
        )
        product_planes = [int.from_bytes(product[k].tobytes(), "little") for k in range(self.m)]
        return unpack_planes(product_planes, self.m, lanes)

    def multiply_batch(
        self,
        a_words: Sequence[int],
        b_words: Sequence[int],
        chunk_size: Optional[int] = None,
    ) -> List[int]:
        """Products of ``a_words[i] · b_words[i]``, evaluated in plane chunks.

        Only the low ``m`` bits of every operand are used, matching the
        engine and the interpreted simulator.  An empty batch returns an
        empty list.
        """
        if len(a_words) != len(b_words):
            raise ValueError(
                f"operand streams differ in length: {len(a_words)} vs {len(b_words)}"
            )
        chunk = chunk_size if chunk_size is not None else self.chunk_size
        if chunk < 1:
            raise ValueError("chunk_size must be at least 1")
        mask = (1 << self.m) - 1
        results: List[int] = []
        for start in range(0, len(a_words), chunk):
            a_chunk = [word & mask for word in a_words[start:start + chunk]]
            b_chunk = [word & mask for word in b_words[start:start + chunk]]
            results.extend(self._evaluate_chunk(a_chunk, b_chunk))
        return results

    def describe(self) -> str:
        """One-line structural summary."""
        return (
            f"bitslice[numpy] {self.name or 'netlist'} GF(2^{self.m}): "
            f"{self.and_count} AND, {self.xor_count} XOR in {len(self._segments)} "
            f"segments ({self.level_count} levels), {self.chunk_size} lanes/chunk"
        )


#: Memoized lowerings keyed by ``(netlist name, modulus, m, chunk)`` — the
#: modulus disambiguates same-degree pentanomials that share a netlist name.
#: Repeated ``GF2mField``/backend constructions for one field reuse the
#: segment build instead of re-lowering a 55k-gate netlist.
_SLICED_CACHE = LRUCache(maxsize=16, name="bitslice.netlists")


def bitsliced_netlist(
    netlist: Netlist, m: int, chunk_size: int = DEFAULT_LANES, modulus: Optional[int] = None
) -> BitslicedNetlist:
    """The memoized :class:`BitslicedNetlist` lowering of a multiplier netlist.

    ``modulus`` qualifies the cache key (netlist names encode method and
    degree but not the defining polynomial); pass it whenever the netlist
    came from a field so equal fields share one lowering.  Without a
    modulus the lowering is built uncached.
    """
    if modulus is None:
        return BitslicedNetlist(netlist, m, chunk_size=chunk_size)
    key = (netlist.name, modulus, m, chunk_size)
    return _SLICED_CACHE.get_or_create(
        key, lambda: BitslicedNetlist(netlist, m, chunk_size=chunk_size)
    )


class BitsliceBackend(FieldBackend):
    """Field backend evaluating the generated multiplier netlist bitsliced.

    The circuit comes from the same process-wide multiplier cache as the
    engine backend (formally verified per ``(method, modulus)`` unless
    ``verify=False``), then is compiled once into a
    :class:`BitslicedNetlist`.  Byte-identical to the scalar reference by
    construction and asserted by the parity harness.

    ``chunk_size`` is the netlist's numpy pass width (lanes per
    :meth:`BitslicedNetlist.multiply_batch` chunk).  Ladders, combs and τ
    programs run on the inherited interpreting executor and chunk at its
    :data:`~repro.backends.ir.INTERPRETED_CHUNK` lanes, as on ``engine``.
    Batch inversion is the inherited Montgomery chain.
    """

    name = "bitslice"

    def __init__(
        self,
        field: "GF2mField",
        method: Optional[str] = None,
        chunk_size: int = DEFAULT_LANES,
        verify: bool = True,
    ) -> None:
        _require_numpy()
        super().__init__(field)
        self.method = method if method is not None else default_method_for(field.modulus)
        self.chunk_size = chunk_size
        self.verify = verify
        self._sliced: Optional[BitslicedNetlist] = None

    @property
    def sliced(self) -> BitslicedNetlist:
        """The compiled bitsliced circuit (memoized process-wide)."""
        if self._sliced is None:
            from ..multipliers.cache import cached_multiplier

            multiplier = cached_multiplier(self.method, self.field.modulus, verify=self.verify)
            self._sliced = bitsliced_netlist(
                multiplier.netlist,
                multiplier.m,
                chunk_size=self.chunk_size,
                modulus=self.field.modulus,
            )
        return self._sliced

    def multiply(self, a: int, b: int) -> int:
        return self.sliced.multiply_batch([a], [b])[0]

    def multiply_batch(self, a_values: Sequence[int], b_values: Sequence[int]) -> List[int]:
        self._count_batch("multiply_batch", len(a_values))
        return self.sliced.multiply_batch(a_values, b_values)

    def describe(self) -> str:
        return self.sliced.describe()
