"""The batch multiplication engine: compiled netlists fed by word transposes.

:class:`Engine` is the production execution path of this project.  It takes
a generated multiplier circuit, compiles it once
(:mod:`repro.engine.compiler`), and then streams arbitrarily long operand
batches through the compiled function in bit-packed chunks
(:mod:`repro.engine.bitpack`):

1. a chunk of up to ``chunk_size`` operand pairs is transposed from row
   words into per-input-bit plane words,
2. one call of the compiled straight-line function evaluates every gate on
   all pairs of the chunk simultaneously (bit ``p`` of every intermediate
   word belongs to pair ``p``),
3. the output planes are transposed back into product words.

``benchmarks/bench_layers.py`` asserts that throughput at GF(2^163) is at
least 10× the interpreted :func:`repro.netlist.simulate.simulate_words`
path.

:func:`engine_for` caches engines on ``(method, modulus)`` and obtains the
circuit through the process-wide multiplier cache, so repeated callers —
the ``engine`` backend, ``repro bench`` — never recompile.  Checks of one
netlist (:func:`repro.netlist.verify.verify_by_simulation`) run the
interpreted simulator instead: compiling costs more than a few hundred
vectors take to interpret.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, TYPE_CHECKING, Tuple

from ..multipliers.cache import cached_multiplier
from ..pipeline.store import LRUCache
from .bitpack import pack_rows, unpack_planes
from .compiler import compile_netlist

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..multipliers.base import GeneratedMultiplier
    from .compiler import CompiledNetlist

__all__ = ["Engine", "engine_for"]

#: Default number of operand pairs evaluated per compiled call.
DEFAULT_CHUNK_SIZE = 4096


class Engine:
    """Compiled batch-multiplication engine for one multiplier circuit.

    Parameters
    ----------
    multiplier:
        A :class:`~repro.multipliers.base.GeneratedMultiplier`, whose
        netlist follows the ``a<i>``/``b<j>`` → ``c<k>`` I/O convention.
    chunk_size:
        Operand pairs per compiled call.  Larger chunks amortize per-call
        overhead against bigger intermediate words; 4096 is a good default.

    Only the low ``m`` bits of every operand are used, matching the
    interpreted simulator's semantics.
    """

    def __init__(self, multiplier: GeneratedMultiplier, *, chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        if chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        self.method = multiplier.method
        self.modulus = multiplier.modulus
        self.m = multiplier.m
        self.chunk_size = chunk_size
        self.compiled: CompiledNetlist = compile_netlist(multiplier.netlist)
        self._input_sources = self._map_inputs(self.compiled.input_names, self.m)
        self._output_order = self._map_outputs(self.compiled.output_names, self.m)

    # ------------------------------------------------------------- I/O wiring
    @staticmethod
    def _map_inputs(input_names: Sequence[str], m: int) -> List[Tuple[int, int]]:
        sources = []
        for name in input_names:
            operand, digits = name[:1], name[1:]
            if operand not in ("a", "b") or not digits.isdigit() or int(digits) >= m:
                raise ValueError(
                    f"input {name!r} does not follow the a<i>/b<j> convention for m={m}"
                )
            sources.append((0 if operand == "a" else 1, int(digits)))
        return sources

    @staticmethod
    def _map_outputs(output_names: Sequence[str], m: int) -> List[int]:
        position = {name: index for index, name in enumerate(output_names)}
        order = []
        for k in range(m):
            index = position.get(f"c{k}")
            if index is None:
                raise ValueError(f"netlist is missing output c{k}")
            order.append(index)
        return order

    # --------------------------------------------------------------- multiply
    def multiply(self, a: int, b: int) -> int:
        """Multiply a single pair of field elements through the compiled circuit."""
        return self.multiply_batch([a], [b])[0]

    def multiply_batch(
        self,
        a_words: Sequence[int],
        b_words: Sequence[int],
        chunk_size: Optional[int] = None,
    ) -> List[int]:
        """Products of ``a_words[i] · b_words[i]`` for every ``i``, in order.

        The streams may be arbitrarily long; they are processed in chunks of
        ``chunk_size`` pairs (default: the engine's configured chunk size).
        An empty batch returns an empty list.
        """
        if len(a_words) != len(b_words):
            raise ValueError(
                f"operand streams differ in length: {len(a_words)} vs {len(b_words)}"
            )
        chunk = chunk_size if chunk_size is not None else self.chunk_size
        if chunk < 1:
            raise ValueError("chunk_size must be at least 1")
        m = self.m
        mask = (1 << m) - 1
        results: List[int] = []
        for start in range(0, len(a_words), chunk):
            a_chunk = [word & mask for word in a_words[start:start + chunk]]
            b_chunk = [word & mask for word in b_words[start:start + chunk]]
            a_planes = pack_rows(a_chunk, m)
            b_planes = pack_rows(b_chunk, m)
            planes = (a_planes, b_planes)
            inputs = [planes[operand][bit] for operand, bit in self._input_sources]
            outputs = self.compiled.evaluate(inputs)
            product_planes = [outputs[index] for index in self._output_order]
            results.extend(unpack_planes(product_planes, m, len(a_chunk)))
        return results

    def describe(self) -> str:
        """One-line summary used by the CLI."""
        compiled = self.compiled
        return (
            f"engine {self.method} GF(2^{self.m}): "
            f"{compiled.and_count} AND, {compiled.xor_count} XOR, "
            f"{compiled.level_count} levels, chunk {self.chunk_size}"
        )


#: Engines keyed by (method, modulus) — the hot path of `engine_for`.
_ENGINE_CACHE = LRUCache(maxsize=16, name="engine.compiled")


def engine_for(method: str, modulus: int, *, verify: bool = True) -> Engine:
    """A cached :class:`Engine` for the given construction and modulus.

    The multiplier circuit is obtained through the process-wide
    :func:`repro.multipliers.cache.cached_multiplier`, so neither the SiTi
    splitting derivation nor the formal verification nor the compilation is
    repeated for the same ``(method, modulus)`` pair.
    """
    # Resolve the multiplier before consulting the engine cache: a cached
    # engine must not short-circuit the verify upgrade a verify=True caller
    # is entitled to when the circuit was first generated unverified.
    multiplier = cached_multiplier(method, modulus, verify=verify)
    return _ENGINE_CACHE.get_or_create((method, modulus), lambda: Engine(multiplier))
