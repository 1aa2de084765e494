"""Closed-form sum-DoF calculators for the fully-connected multi-way relay network.

The achievable symbols-per-slot figure is the minimum of the K/2 cut-set cap
and the best of three constructions: neutralization-only exchange over a
K1-user sub-network, joint alignment-and-neutralization over K2 users, and
relay-aided one-way interference alignment over an m-source/m-destination
partition. Each construction's largest feasible sub-network size follows
from the relays' total squared antenna count; sizes are additionally capped
by the users actually present.

All arithmetic is exact (integers and fractions); the only square roots are
integer square roots, so boundary cases at perfect squares are exact too.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

CSV_HEADER = ("L", "term_in", "term_in_ia", "term_ia", "gof", "stpnc_value", "stpnc_exact")


def _sum_sq(antennas) -> int:
    antennas = tuple(int(m) for m in antennas)
    if not antennas or any(m < 1 for m in antennas):
        raise ValueError("every relay needs at least one antenna")
    return sum(m * m for m in antennas)


def k_stars(antennas) -> tuple[int, int, int]:
    """Largest feasible sub-network sizes for the three constructions.

    With n the total squared antenna count: the neutralization-only size is
    the largest K1 with (K1-1)(K1-2)+1 <= n, i.e. floor(sqrt(n-3/4)+3/2),
    evaluated exactly as (isqrt(4n-3)+3)//2; the alignment construction
    gives isqrt(n)+2; the one-way partition gives isqrt(n)+1 sources.
    """
    n = _sum_sq(antennas)
    k1 = (isqrt(4 * n - 3) + 3) // 2
    k2 = isqrt(n) + 2
    k3 = isqrt(n) + 1
    return k1, k2, k3


@dataclass(frozen=True)
class DoFResult:
    """The three candidate terms, the baseline, the cap, and the final value."""

    term_in: Fraction
    term_in_ia: Fraction
    term_ia: Fraction
    gof: Fraction
    cap: Fraction
    value: Fraction
    optimal: bool


def sum_dof(K: int, antennas) -> DoFResult:
    """Achievable sum-DoF for K users served by the given relay antennas.

    Sub-network sizes never exceed the users available: K1 and K2 are capped
    at K, and the one-way partition uses m = min(k3, K//2) sources (k3 from
    ``k_stars``; the partition needs 2m users). The result is optimal (equals
    K/2) exactly when the squared antenna count reaches (K-1)(K-2)+1.
    """
    if K < 3:
        raise ValueError("sum_dof needs at least 3 users")
    n = _sum_sq(antennas)
    k1s, k2s, k3s = k_stars(antennas)
    K1 = min(k1s, K)
    K2 = min(k2s, K)
    m = min(k3s, K // 2)
    term_in = Fraction(K1, 2)
    term_in_ia = Fraction(K2 * (K2 - 2), 2 * K2 - 3)
    term_ia = Fraction(m * m, 2 * m - 1)
    cap = Fraction(K, 2)
    value = min(cap, max(term_in, term_in_ia, term_ia))
    return DoFResult(
        term_in=term_in,
        term_in_ia=term_in_ia,
        term_ia=term_ia,
        gof=gof_dof(K, antennas),
        cap=cap,
        value=value,
        optimal=n >= (K - 1) * (K - 2) + 1,
    )


def gof_dof(K: int, antennas) -> Fraction:
    """Baseline sum-DoF of generalized orthogonalize-and-forward relaying.

    Direct user-user links are ignored, so each exchanged symbol costs two
    slots: min(K, isqrt(n)+1)/2.
    """
    if K < 2:
        raise ValueError("gof_dof needs at least 2 users")
    return Fraction(min(K, isqrt(_sum_sq(antennas)) + 1), 2)


def single_antenna_sweep(K: int, l_max: int) -> list:
    """(L, DoFResult) rows for L = 1..l_max single-antenna relays."""
    return [(L, sum_dof(K, (1,) * L)) for L in range(1, l_max + 1)]


def _sig6(x: Fraction) -> str:
    return f"{float(x):.6g}"


def write_sweep_csv(rows, fileobj) -> None:
    """Emit a sweep as CSV: decimals to 6 significant digits plus the exact value."""
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for L, r in rows:
        writer.writerow([
            L,
            _sig6(r.term_in),
            _sig6(r.term_in_ia),
            _sig6(r.term_ia),
            _sig6(r.gof),
            _sig6(r.value),
            str(r.value),
        ])
