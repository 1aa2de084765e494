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

All Monte Carlo paths draw fresh channels per trial from seeds derived off
the root seed, so results are deterministic and trials can be computed in
independent blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import NetworkConfig, derive_trial_seed, draw_channels
from .linalg import null_space
from .precoder import design_twic  # noqa: F401  (perfbench/spans.py wraps rate.design_twic)

_TWIC_CFG = NetworkConfig(K=4, relay_antennas=(2,))  # by symmetry, flow 3 -> 1 stands for all four


@dataclass(frozen=True)
class RateConfig:
    snr_db: tuple
    trials: int = 10_000
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "snr_db", tuple(float(x) for x in self.snr_db))
        if not self.snr_db:
            raise ValueError("need at least one SNR point")
        if self.trials < 1:
            raise ValueError("need at least one trial")


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


def flow_gains(ch) -> tuple[float, float, float]:
    """Uplink, downlink and direct-link gains of the representative flow.

    The unit-norm relay combiner nulls the co-scheduled transmitter (user 4)
    in the second slot; the unit-norm relay beam nulls the flow at user 4,
    the one user that neither sent nor overheard it. A hop's rate is
    log2(1 + rho * gain), with rho = P / sigma^2 uplink and P / (2.5 sigma^2)
    downlink.
    """
    u_row = null_space(ch.h_up(1, 4, 2)[None, :])[:, 0]
    v = null_space(ch.h_dn(4, 1, 3)[None, :])[:, 0]
    direct = abs(ch.h(1, 3, 2)) ** 2
    return abs(u_row @ ch.h_up(1, 3, 2)) ** 2, direct + abs(ch.h_dn(1, 1, 3) @ v) ** 2, direct


def trial_gains(seed: int, start: int, count: int) -> np.ndarray:
    """Per-trial flow_gains rows (uplink, downlink, direct) for trials start..start+count-1.

    SNR-independent, so a sweep reuses one gains block for every SNR point;
    blocks from disjoint trial ranges concatenate deterministically.
    """
    out = np.empty((count, 3))
    for i in range(count):
        ch = draw_channels(_TWIC_CFG, 3, derive_trial_seed(seed, start + i))
        out[i] = flow_gains(ch)
    return out


def tdma_trial_gains(seed: int, start: int, count: int) -> np.ndarray:
    """The direct-link column of trial_gains alone, without the relay beams."""
    out = np.empty(count)
    for i in range(count):
        ch = draw_channels(_TWIC_CFG, 3, derive_trial_seed(seed, start + i))
        out[i] = abs(ch.h(1, 3, 2)) ** 2
    return out


def _interp_crossing(x0, x1, d0, d1) -> float:
    return float(x0 + (x1 - x0) * (-d0) / (d1 - d0))


def snr_sweep(cfg: RateConfig, gains: np.ndarray | None = None) -> RateResult:
    """Both curves over the SNR grid, from common per-trial channel draws.

    Per trial, the relayed exchange delivers 4/3 times the decode-and-forward
    rate of the flow (the smaller of its two hop rates) and TDMA the
    direct-link rate; each point is the mean over trials with its standard
    error. The crossover is the linearly interpolated SNR where the relayed
    exchange first overtakes the baseline; None when no upward crossing
    falls inside the grid.
    """
    if gains is None:
        gains = trial_gains(cfg.seed, 0, cfg.trials)
    n = gains.shape[0]
    points = []
    for snr in cfg.snr_db:
        rho = 10.0 ** (snr / 10.0)
        up = np.log2(1.0 + rho * gains[:, 0])
        dn = np.log2(1.0 + (rho / 2.5) * gains[:, 1])
        stats = []
        for rates in ((4.0 / 3.0) * np.minimum(up, dn), np.log2(1.0 + rho * gains[:, 2])):
            stats.append(float(np.mean(rates)))
            stats.append(float(np.std(rates, ddof=1) / np.sqrt(n)) if n > 1 else 0.0)
        points.append(RatePoint(snr, *stats))
    crossover = None
    diffs = [p.stpnc_rate - p.tdma_rate for p in points]
    for i in range(len(points) - 1):
        if diffs[i] <= 0.0 < diffs[i + 1]:
            crossover = _interp_crossing(points[i].snr_db, points[i + 1].snr_db,
                                         diffs[i], diffs[i + 1])
            break
    return RateResult(tuple(points), crossover)


def write_rate_csv(result: RateResult, fileobj) -> None:
    fileobj.write("snr_db,stpnc_rate,stpnc_stderr,tdma_rate,tdma_stderr\n")
    for p in result.points:
        fileobj.write(
            f"{p.snr_db:.10g},{p.stpnc_rate:.10g},{p.stpnc_stderr:.10g},"
            f"{p.tdma_rate:.10g},{p.tdma_stderr:.10g}\n"
        )
