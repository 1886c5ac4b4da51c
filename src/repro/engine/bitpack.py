"""Word-level bit-matrix transposition for batch simulation.

Feeding K operand pairs through a bit-parallel multiplier netlist requires a
*transpose*: the caller holds K row words (one per operand, ``m`` bits each)
while the simulator wants ``m`` plane words (one per input bit, K bits each).
The obvious double loop costs O(K·m) Python-level bit operations and easily
dominates the whole batch.

This module transposes through whole machine words instead.  The K×m bit
matrix is carved into square power-of-two blocks, each block is transposed
in-place inside a single Python big integer with the classic mask-and-shift
block-swap recursion (log2(B) passes of a few full-width integer operations),
and rows/planes move between the block world and the caller's integers via
``int.to_bytes`` / ``int.from_bytes``, which run at C speed.  The result is
a ~30× faster packing path that the :class:`repro.engine.engine.Engine`
builds on.

The two public helpers are exact inverses of each other:

* :func:`pack_rows` — K row words of ``width`` bits → ``width`` planes of K bits,
* :func:`unpack_planes` — ``width`` planes of K bits → K row words.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["transpose_square", "pack_rows", "unpack_planes", "block_size_for"]

#: Cached mask/shift schedules of :func:`transpose_square`, keyed by block size.
_MASK_CACHE: Dict[int, List[Tuple[int, int]]] = {}


def _transpose_masks(n: int) -> List[Tuple[int, int]]:
    """The (shift, mask) schedule transposing an n×n bit matrix (n a power of 2).

    Step ``s`` swaps, within every 2s×2s tile on the diagonal, the upper-right
    and lower-left s×s sub-blocks.  ``mask`` selects the upper-right sub-block
    bits of every tile; the matching lower-left bit sits ``s·(n-1)`` positions
    higher (s rows up, s columns down in row-major order).
    """
    masks = _MASK_CACHE.get(n)
    if masks is not None:
        return masks
    masks = []
    s = n >> 1
    while s:
        period = 2 * s
        col_unit = ((1 << s) - 1) << s
        col_pattern = 0
        for tile in range(n // period):
            col_pattern |= col_unit << (tile * period)
        row_block = 0
        for row in range(s):
            row_block |= col_pattern << (row * n)
        mask = 0
        for tile in range(n // period):
            mask |= row_block << (tile * period * n)
        masks.append((s * (n - 1), mask))
        s >>= 1
    _MASK_CACHE[n] = masks
    return masks


def transpose_square(x: int, n: int) -> int:
    """Bit-transpose an n×n matrix packed row-major into the integer ``x``.

    Bit ``r·n + c`` of ``x`` is matrix element (r, c); the result holds the
    transposed matrix in the same layout.  ``n`` must be a power of two.
    """
    if n & (n - 1) or n < 1:
        raise ValueError(f"block size must be a power of two, got {n}")
    for shift, mask in _transpose_masks(n):
        upper = (x >> shift) & mask
        lower = (x & mask) << shift
        x = (x & ~(mask | (mask << shift))) | upper | lower
    return x


def block_size_for(width: int) -> int:
    """The square block size used for a matrix of ``width``-bit rows."""
    if width < 1:
        raise ValueError("width must be at least 1")
    return 1 << max(6, (width - 1).bit_length())


def _row_buffer(rows: Sequence[int], row_bytes: int, block: int) -> bytes:
    try:
        buffer = b"".join(value.to_bytes(row_bytes, "little") for value in rows)
    except OverflowError:
        raise ValueError(
            f"row values must be non-negative integers below 2^{row_bytes * 8}"
        ) from None
    if len(rows) < block:
        buffer += bytes(row_bytes * (block - len(rows)))
    return buffer


def pack_rows(rows: Sequence[int], width: int, block: Optional[int] = None) -> List[int]:
    """Transpose K row words of ``width`` bits into ``width`` plane words.

    Plane ``i`` of the result holds bit ``i`` of every row: bit ``p`` of
    ``result[i]`` equals bit ``i`` of ``rows[p]``.  Row bits at positions
    ``width`` and above are ignored (they fall into planes the caller never
    sees), mirroring the masking semantics of the interpreted simulator.
    """
    if block is None:
        block = block_size_for(width)
    elif block & (block - 1) or block < width:
        raise ValueError(f"block must be a power of two >= width, got {block}")
    if not rows:
        return [0] * width
    row_bytes = block // 8
    block_count = (len(rows) + block - 1) // block
    plane_slices: List[List[bytes]] = [[] for _ in range(width)]
    for index in range(block_count):
        chunk = rows[index * block:(index + 1) * block]
        matrix = int.from_bytes(_row_buffer(chunk, row_bytes, block), "little")
        transposed = transpose_square(matrix, block).to_bytes(block * row_bytes, "little")
        for i in range(width):
            plane_slices[i].append(transposed[i * row_bytes:(i + 1) * row_bytes])
    return [int.from_bytes(b"".join(slices), "little") for slices in plane_slices]


def unpack_planes(
    planes: Sequence[int], width: int, count: int, block: Optional[int] = None
) -> List[int]:
    """Inverse of :func:`pack_rows`: ``width`` planes back into ``count`` rows."""
    if len(planes) != width:
        raise ValueError(f"expected {width} planes, got {len(planes)}")
    if block is None:
        block = block_size_for(width)
    elif block & (block - 1) or block < width:
        raise ValueError(f"block must be a power of two >= width, got {block}")
    if count < 0:
        raise ValueError("count must be non-negative")
    if count == 0:
        return []
    row_bytes = block // 8
    block_count = (count + block - 1) // block
    total_bytes = block_count * row_bytes
    try:
        plane_bytes = [plane.to_bytes(total_bytes, "little") for plane in planes]
    except OverflowError:
        raise ValueError(
            f"plane values must be non-negative integers below 2^{total_bytes * 8}"
        ) from None
    rows: List[int] = []
    for index in range(block_count):
        buffer = b"".join(
            plane[index * row_bytes:(index + 1) * row_bytes] for plane in plane_bytes
        )
        buffer += bytes(row_bytes * (block - width))
        transposed = transpose_square(int.from_bytes(buffer, "little"), block)
        block_bytes = transposed.to_bytes(block * row_bytes, "little")
        rows_here = min(block, count - index * block)
        for r in range(rows_here):
            rows.append(int.from_bytes(block_bytes[r * row_bytes:(r + 1) * row_bytes], "little"))
    return rows
