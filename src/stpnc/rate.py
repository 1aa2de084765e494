"""Finite-SNR ergodic rates for the two-pair exchange, by Monte Carlo.

The relay decodes and forwards, so the rate of one symbol flow is the
minimum of its uplink rate (zero-forcing combiner at the relay) and its
downlink rate (maximum-ratio combining of the direct phase-1 observation
with the relayed slot, after normalizing the two receptions by 1/sqrt(P)
and 2/sqrt(P); with uniform power allocation over the four forwarded
symbols this leaves unit-amplitude beams and a fixed effective noise power
of 2.5 sigma^2 / P). The network is symmetric, so the sum rate is 4/3 times
the per-flow ergodic rate: four symbols cross in three channel uses. The
TDMA baseline sends one symbol per slot over the direct link.

Trial i draws its channels from its own generator, seeded derive_trial_seed(seed, i),
even when a batch is drawn in one call, so results are deterministic and trials can
be computed in independent blocks. Both relay vectors are 1x2 null directions, so the
hop gains are closed-form 2x2 determinants, evaluated for a whole block at once.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import NetworkConfig, derive_trial_seeds, draw_layout, draw_pools
from .channel import draw_channels  # noqa: F401  (unused; perfbench/spans.py wraps rate.draw_channels)
from .linalg import null_space  # noqa: F401  (unused; perfbench/spans.py wraps rate.null_space)
from .precoder import design_twic  # noqa: F401  (unused; perfbench/spans.py wraps rate.design_twic)
from .scheduler import schedule_twic

_TWIC = schedule_twic()  # by symmetry, flow 3 -> 1 stands for all four
_TWIC_CFG = NetworkConfig(len(_TWIC.users), _TWIC.relays)
_DRAW_BATCH = 256  # seeds per draw_pools call in trial_gains: about 1 MB of temporaries
_SNR_ELEMENTS = 8 * 2048  # (points x trials) elements per snr_sweep pass; at least one point


@dataclass(frozen=True)
class RatePoint:
    snr_db: float
    stpnc_rate: float
    stpnc_stderr: float
    tdma_rate: float
    tdma_stderr: float


@dataclass(frozen=True)
class RateResult:
    points: tuple
    crossover_db: float | None


def _flow(gain, up, dn) -> np.ndarray:
    """The kernel's nine columns, from ChannelSet-shaped stacks: the slot-2 uplinks of users 4, 3
    and slot-3 downlinks to users 4, 1 (each pair's first is nulled), then user 3 -> 1 in slot 2."""
    return np.concatenate([up[1, 3], up[1, 2], dn[2, 3], dn[2, 0], gain[1, 0, 2:3]], axis=-1)


_POOL, *_SLOT_INDEX = draw_layout(_TWIC_CFG)
_FLOW_INDEX = _flow(*(index + _POOL * np.arange(3)[:, None, None] for index in _SLOT_INDEX))


def _gains(c: np.ndarray) -> np.ndarray:
    """(uplink, downlink, direct) gains of a (trials, 9) _flow batch: a unit relay
    vector nulling row a = (a1, a2) gains |a2 b1 - a1 b2|^2 / ||a||^2 on row b."""
    def hop(a, b):  # column offsets of the nulled and the served row
        return np.abs(c[:, a + 1] * c[:, b] - c[:, a] * c[:, b + 1]) ** 2 / (
            np.abs(c[:, a]) ** 2 + np.abs(c[:, a + 1]) ** 2)
    direct = np.abs(c[:, 8]) ** 2
    return np.column_stack([hop(0, 2), direct + hop(4, 6), direct])


def flow_gains(ch) -> tuple[float, float, float]:
    """Uplink, downlink and direct-link gains of the representative flow.

    The unit-norm relay combiner nulls the co-scheduled transmitter (user 4)
    in the second slot; the unit-norm relay beam nulls the flow at user 4,
    the one user that neither sent nor overheard it. A hop's rate is
    log2(1 + rho * gain), with rho = P / sigma^2 uplink and P / (2.5 sigma^2)
    downlink. The trial_gains kernel on a batch of one.
    """
    return tuple(float(g) for g in _gains(_flow(ch.gain, ch.up, ch.dn)[None, :])[0])


def trial_gains(seed: int, start: int, count: int) -> np.ndarray:
    """Per-trial flow_gains rows (uplink, downlink, direct) for trials start..start+count-1.

    Trial i keeps the nine coefficients of draw_channels(.., derive_trial_seed(seed, i))
    that the gains read: one draw_pools call per _DRAW_BATCH trials and one gather, then
    one kernel call gives the block's gains. SNR-independent, so a sweep reuses one block
    for every SNR point; disjoint blocks concatenate.
    """
    coeffs = np.empty((count, _FLOW_INDEX.size), dtype=complex)
    for b in range(0, count, _DRAW_BATCH):
        seeds = derive_trial_seeds(seed, range(start + b, start + min(b + _DRAW_BATCH, count)))
        coeffs[b:b + seeds.size] = draw_pools(_TWIC_CFG, 3, seeds).reshape(seeds.size, -1)[:, _FLOW_INDEX]
    return _gains(coeffs)


@np.errstate(over="raise")  # a rate past the float range would read inf, its spread nan
def snr_sweep(snr_db, gains: np.ndarray) -> RateResult:
    """Both curves over the SNR grid (dB), from the trial_gains rows of common channel draws.

    Per trial, the relayed exchange delivers 4/3 times the decode-and-forward rate of the
    flow (the smaller of its two hop rates) and TDMA the direct-link rate; each point is the
    mean over trials with its standard error, taken in passes of _SNR_ELEMENTS (points x
    trials) elements whose row-wise statistics have the same bits for any pass size; a grid
    whose rates overflow the float range raises ValueError. The crossover is the linearly
    interpolated SNR where the relayed exchange first overtakes the baseline; None when no
    upward crossing falls inside the grid.
    """
    snr_db, n = tuple(float(x) for x in snr_db), gains.shape[0]
    if not snr_db:
        raise ValueError("need at least one SNR point")
    if n < 1:
        raise ValueError("need at least one trial")
    points, width = [], max(1, _SNR_ELEMENTS // n)  # SNR points per pass
    try:
        for b in range(0, len(snr_db), width):
            grid = snr_db[b:b + width]
            rho = np.array([10.0 ** (snr / 10.0) for snr in grid])[:, None]
            up = np.log2(1.0 + rho * gains[:, 0])
            dn = np.log2(1.0 + (rho / 2.5) * gains[:, 1])
            stats = []
            for rates in ((4.0 / 3.0) * np.minimum(up, dn), np.log2(1.0 + rho * gains[:, 2])):
                stats += [np.mean(rates, axis=1),
                          np.std(rates, axis=1, ddof=1) / np.sqrt(n) if n > 1 else np.zeros(len(grid))]
            points += [RatePoint(snr, *map(float, row)) for snr, row in zip(grid, np.column_stack(stats))]
    except (OverflowError, FloatingPointError):
        raise ValueError("the SNR grid's rates overflow") from None
    crossover = None
    diffs = [p.stpnc_rate - p.tdma_rate for p in points]
    for i in range(len(points) - 1):
        if diffs[i] <= 0.0 < diffs[i + 1]:
            x0, x1 = points[i].snr_db, points[i + 1].snr_db
            crossover = float(x0 + (x1 - x0) * (-diffs[i]) / (diffs[i + 1] - diffs[i]))
            break
    return RateResult(tuple(points), crossover)


def write_rate_csv(result: RateResult, fileobj) -> None:
    fileobj.write("snr_db,stpnc_rate,stpnc_stderr,tdma_rate,tdma_stderr\n")
    for p in result.points:
        fileobj.write(
            f"{p.snr_db:.10g},{p.stpnc_rate:.10g},{p.stpnc_stderr:.10g},"
            f"{p.tdma_rate:.10g},{p.tdma_stderr:.10g}\n"
        )
