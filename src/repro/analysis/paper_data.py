"""The paper's published Table V numbers (post-place-and-route, ISE 14.7 / Artix-7).

These values are the reference against which ``repro compare --paper/--claims``
and the Table V benchmark (``benchmarks/bench_table5_comparison.py``) compare
our Python-flow measurements.  They are transcribed verbatim from the paper;
the method keys match the generator names of :mod:`repro.multipliers.registry`.
"""

from __future__ import annotations

from typing import Dict, Tuple

__all__ = ["PAPER_TABLE5", "paper_row", "paper_best_area_time"]

#: (m, n) -> method -> (LUTs, slices, time_ns, area_time)
PAPER_TABLE5: Dict[Tuple[int, int], Dict[str, Tuple[int, int, float, float]]] = {
    (8, 2): {
        "paar": (34, 11, 9.86, 335.24),
        "rashidi": (35, 14, 9.62, 336.70),
        "reyhani_hasan": (35, 13, 10.10, 353.50),
        "imana2012": (37, 14, 9.68, 358.16),
        "imana2016": (40, 13, 9.90, 396.00),
        "thiswork": (33, 12, 9.77, 322.41),
    },
    (64, 23): {
        "paar": (1836, 586, 22.63, 41548.68),
        "rashidi": (1794, 585, 20.37, 36543.78),
        "reyhani_hasan": (1749, 566, 20.91, 36571.59),
        "imana2012": (1825, 580, 20.21, 36883.25),
        "imana2016": (1854, 642, 21.28, 39453.12),
        "thiswork": (1769, 541, 20.18, 35698.42),
    },
    (113, 4): {
        "paar": (5747, 2672, 21.39, 122928.33),
        "rashidi": (5501, 2864, 23.29, 128118.29),
        "reyhani_hasan": (5424, 2637, 21.77, 118080.48),
        "imana2012": (5778, 2469, 21.28, 122955.84),
        "imana2016": (5944, 2115, 21.30, 126607.20),
        "thiswork": (5420, 2571, 20.94, 113494.80),
    },
    (113, 34): {
        "paar": (5560, 2849, 23.58, 131104.80),
        "rashidi": (5505, 2682, 23.38, 128706.90),
        "reyhani_hasan": (5445, 2563, 20.84, 113473.80),
        "imana2012": (5813, 2361, 20.36, 118352.68),
        "imana2016": (5909, 2073, 21.73, 128402.57),
        "thiswork": (5474, 2507, 21.59, 118183.66),
    },
    (122, 49): {
        "paar": (6487, 3122, 23.47, 152249.89),
        "rashidi": (6420, 3045, 23.75, 152475.00),
        "reyhani_hasan": (6305, 2024, 21.15, 133350.75),
        "imana2012": (6834, 2287, 21.83, 149186.22),
        "imana2016": (6858, 1992, 21.86, 149915.88),
        "thiswork": (6361, 1951, 20.95, 133262.95),
    },
    (139, 59): {
        "paar": (8370, 3511, 23.54, 197029.80),
        "rashidi": (8301, 3915, 23.77, 197314.77),
        "reyhani_hasan": (8139, 2657, 21.63, 176046.57),
        "imana2012": (8900, 2960, 22.29, 198381.00),
        "imana2016": (8998, 3031, 21.55, 193906.90),
        "thiswork": (8222, 2543, 21.35, 175539.70),
    },
    (148, 72): {
        "paar": (9466, 3888, 25.27, 239205.82),
        "rashidi": (9406, 3804, 23.91, 224897.46),
        "reyhani_hasan": (9252, 3156, 21.98, 203358.96),
        "imana2012": (9996, 3329, 22.40, 223910.40),
        "imana2016": (9943, 3112, 22.31, 221828.33),
        "thiswork": (9314, 3104, 21.76, 202672.64),
    },
    (163, 66): {
        "paar": (11425, 4053, 25.20, 287910.00),
        "rashidi": (11379, 4433, 23.52, 267634.08),
        "reyhani_hasan": (11179, 3361, 23.66, 264495.14),
        "imana2012": (12155, 4056, 22.48, 273244.40),
        "imana2016": (12293, 4015, 22.95, 282124.35),
        "thiswork": (11295, 3621, 22.77, 257187.15),
    },
    (163, 68): {
        "paar": (11422, 4205, 24.20, 276412.40),
        "rashidi": (11379, 4349, 24.01, 273209.79),
        "reyhani_hasan": (11172, 3105, 22.40, 250252.80),
        "imana2012": (12187, 3876, 22.83, 278229.91),
        "imana2016": (12334, 4430, 23.82, 293795.88),
        "thiswork": (11330, 3697, 22.39, 253678.70),
    },
}


def paper_row(m: int, n: int, method: str) -> Tuple[int, int, float, float]:
    """Return the paper's (LUTs, slices, time_ns, area_time) for a field/method."""
    return PAPER_TABLE5[(m, n)][method]


def paper_best_area_time(m: int, n: int) -> str:
    """The method with the best (lowest) published Area×Time for a field."""
    rows = PAPER_TABLE5[(m, n)]
    return min(rows, key=lambda method: rows[method][3])
