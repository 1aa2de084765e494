"""Seeded generation of the network's channel coefficients.

All links fade independently per time slot with CN(0,1) coefficients
(real and imaginary parts each of variance 1/2). Users and relays are
1-indexed throughout, matching the slot conventions of the schedules.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def derive_trial_seed(seed: int, trial: int) -> int:
    """Mix a root seed with a trial index into a fresh 64-bit seed.

    SplitMix64 finalizer over seed + (trial+1)*gamma. Every step is a
    bijection mod 2**64, so distinct trials under the same root always get
    distinct seeds; Monte Carlo trials can run in parallel deterministically.
    """
    z = (seed + (trial + 1) * _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class NetworkConfig:
    """Static network description: K single-antenna users, one or more relays.

    relay_antennas holds the antenna count of each relay and noise_var the
    receiver noise variance (0 selects the noiseless mode used for DoF
    verification); every node transmits at unit power.
    """

    K: int
    relay_antennas: tuple[int, ...]
    noise_var: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "relay_antennas", tuple(int(m) for m in self.relay_antennas))
        if self.K < 2:
            raise ValueError("need at least two users")
        if not self.relay_antennas or any(m < 1 for m in self.relay_antennas):
            raise ValueError("every relay needs at least one antenna")
        if self.noise_var < 0:
            raise ValueError("noise_var must be nonnegative")
        if not math.isfinite(self.noise_var):
            raise ValueError("noise_var must be finite")

    @property
    def n_relays(self) -> int:
        return len(self.relay_antennas)

    @property
    def sum_antenna_sq(self) -> int:
        return sum(m * m for m in self.relay_antennas)


@dataclass(frozen=True)
class ChannelSet:
    """All channel coefficients of one realization, indexed per link and slot.

    user_user[(k, i, t)]   scalar from user i to user k in slot t
    user_relay[(l, i, t)]  length-M_l uplink vector from user i to relay l
    relay_user[(k, l, t)]  length-M_l downlink row from relay l to user k
    """

    config: NetworkConfig
    slots: int
    user_user: dict = field(repr=False)
    user_relay: dict = field(repr=False)
    relay_user: dict = field(repr=False)

    def h(self, k: int, i: int, t: int) -> complex:
        return self.user_user[(k, i, t)]

    def h_up(self, ell: int, i: int, t: int) -> np.ndarray:
        return self.user_relay[(ell, i, t)]

    def h_dn(self, k: int, ell: int, t: int) -> np.ndarray:
        return self.relay_user[(k, ell, t)]


def _complex_pool(rng: np.random.Generator, n: int) -> np.ndarray:
    z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
    # exact zeros are a probability-zero event but would break the model
    while True:
        bad = z == 0
        if not bad.any():
            return z
        z[bad] = (rng.standard_normal(bad.sum()) + 1j * rng.standard_normal(bad.sum())) / np.sqrt(2.0)


@functools.cache
def draw_layout(cfg: NetworkConfig) -> tuple[int, dict]:
    """Pool size per slot, and each coefficient's place in a slot's pool, keyed like the
    ChannelSet fields without the slot: user_user[(k, i)] indices, the others slices."""
    users, relays, pos = range(1, cfg.K + 1), tuple(enumerate(cfg.relay_antennas, 1)), 0

    def take(m):
        nonlocal pos
        pos += m
        return slice(pos - m, pos)

    layout = {
        "user_user": {(k, i): take(1).start for k in users for i in users if i != k},
        "user_relay": {(ell, i): take(m) for ell, m in relays for i in users},
        "relay_user": {(k, ell): take(m) for k in users for ell, m in relays},
    }
    return pos, layout


def draw_pools(cfg: NetworkConfig, slots: int, seed: int) -> np.ndarray:
    """The (slots, pool size) stack of per-slot IID CN(0,1) draws that draw_channels places."""
    rng, size = np.random.default_rng(seed), draw_layout(cfg)[0]
    return np.array([_complex_pool(rng, size) for _ in range(slots)])


def draw_channels(cfg: NetworkConfig, slots: int, seed: int) -> ChannelSet:
    """Draw every coefficient for the given number of slots, deterministically.

    Coefficients are IID CN(0,1) across links and slots. draw_layout places
    each slot's pool in a fixed order (user-user pairs, then uplink vectors,
    then downlink rows), so identical (cfg, slots, seed) give identical bits.
    """
    if slots < 1:
        raise ValueError("need at least one slot")
    layout = draw_layout(cfg)[1]
    pools = list(enumerate(draw_pools(cfg, slots, seed), start=1))
    user_user = {(*key, t): complex(pool[p]) for t, pool in pools
                 for key, p in layout["user_user"].items()}
    user_relay, relay_user = ({(*key, t): pool[s].copy() for t, pool in pools
                               for key, s in layout[name].items()}
                              for name in ("user_relay", "relay_user"))
    return ChannelSet(cfg, slots, user_user, user_relay, relay_user)
