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
    def sum_antenna_sq(self) -> int:
        return sum(m * m for m in self.relay_antennas)

    @functools.cached_property
    def relay_columns(self) -> tuple:
        """Relay l's antenna columns in the ChannelSet up and dn stacks: slice l-1."""
        ends = np.cumsum(self.relay_antennas).tolist()
        return tuple(slice(end - m, end) for end, m in zip(ends, self.relay_antennas))


class _KeyedView:
    """Read-only keyed access to the stacks: view[(a, b, t)] is read(a, b, t)."""

    def __init__(self, read):
        self._read = read

    def __getitem__(self, key):
        return self._read(*key)


@dataclass(frozen=True, eq=False)
class ChannelSet:
    """All channel coefficients of one realization, as dense stacks over slots and users.

    gain[t-1, k-1, i-1]   scalar from user i to user k in slot t (0 on the diagonal)
    up[t-1, i-1, c]       relay l's uplink vector from user i, c = config.relay_columns[l-1]
    dn[t-1, k-1, c]       relay l's downlink row to user k

    A batch of realizations adds a leading seed axis to every stack: gain (S, slots, K, K).
    """

    config: NetworkConfig
    gain: np.ndarray = field(repr=False)  # (..., slots, K, K)
    up: np.ndarray = field(repr=False)    # (..., slots, K, sum M_l)
    dn: np.ndarray = field(repr=False)    # (..., slots, K, sum M_l)

    # read-only keyed views, kept only for perfbench/oracles.py; stpnc itself slices the stacks
    @property
    def user_user(self):
        return _KeyedView(lambda k, i, t: self.gain[..., t - 1, k - 1, i - 1])

    @property
    def user_relay(self):
        return _KeyedView(lambda ell, i, t: self.up[..., t - 1, i - 1, self.config.relay_columns[ell - 1]])

    @property
    def relay_user(self):
        return _KeyedView(lambda k, ell, t: self.dn[..., t - 1, k - 1, self.config.relay_columns[ell - 1]])


_SCALE = 1.0 / np.sqrt(2.0)  # z * _SCALE has the bits of z / np.sqrt(2.0)


def _complex_pool(rng: np.random.Generator, n: int) -> np.ndarray:
    z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
    # exact zeros are a probability-zero event but would break the model
    while True:
        bad = z == 0
        if not bad.any():
            return z
        z[bad] = (rng.standard_normal(bad.sum()) + 1j * rng.standard_normal(bad.sum())) / np.sqrt(2.0)


@functools.cache
def draw_layout(cfg: NetworkConfig) -> tuple:
    """Pool size per slot, then each coefficient's position in a slot's pool as index arrays
    shaped like one slot of the ChannelSet stacks: gain (K, K), up and dn (K, sum M_l). A pool
    holds the user pairs row by row without the diagonal, then each relay's uplinks user by
    user, then each user's downlinks relay by relay; gain's diagonal points one past the pool.
    """
    K, width, pairs = cfg.K, sum(cfg.relay_antennas), cfg.K * (cfg.K - 1)
    gain = np.full((K, K), pairs + 2 * K * width)
    gain[~np.eye(K, dtype=bool)] = np.arange(pairs)
    up = np.hstack([pairs + K * c.start + np.arange(K * (c.stop - c.start)).reshape(K, -1)
                    for c in cfg.relay_columns])
    dn = pairs + K * width + np.arange(K * width).reshape(K, width)
    gain.flags.writeable = up.flags.writeable = dn.flags.writeable = False  # cached: shared
    return pairs + 2 * K * width, gain, up, dn


def draw_pools(cfg: NetworkConfig, slots: int, seed) -> np.ndarray:
    """The (slots, pool size) stack of per-slot IID CN(0,1) draws that draw_channels places.

    One standard_normal((slots, 2, pool size)) call per seed: the stream of one
    _complex_pool call per slot (real parts, then imaginary ones) whenever no draw is an
    exact zero; a seed whose block holds one takes that per-slot path with its redraws. A
    sequence of seeds gives one stack per seed, (seeds, slots, pool size).
    """
    seeds, size = ([seed] if np.ndim(seed) == 0 else seed), draw_layout(cfg)[0]
    normals = np.empty((len(seeds), slots, 2, size))
    for row, s in zip(normals, seeds):
        np.random.default_rng(s).standard_normal(out=row)
    # each slot's real and imaginary parts side by side, scaled as _complex_pool scales them
    pools = np.ascontiguousarray(normals.swapaxes(-1, -2)).view(complex)[..., 0] * _SCALE
    if np.count_nonzero(pools) < pools.size:
        for i in np.flatnonzero((pools == 0).any(axis=(1, 2))):
            rng = np.random.default_rng(seeds[i])
            pools[i] = [_complex_pool(rng, size) for _ in range(slots)]
    return pools if np.ndim(seed) else pools[0]


def draw_channels(cfg: NetworkConfig, slots: int, seed) -> ChannelSet:
    """Draw every coefficient for the given number of slots, deterministically.

    Coefficients are IID CN(0,1) across links and slots; each stack indexes the slot pools
    in draw_layout's fixed order, so identical (cfg, slots, seed) give identical bits. A
    sequence of seeds draws each seed as alone and stacks them on a leading seed axis.
    """
    if slots < 1:
        raise ValueError("need at least one slot")
    pools = draw_pools(cfg, slots, seed)
    pools = np.concatenate([pools, np.zeros(pools.shape[:-1] + (1,))], axis=-1)  # the diagonal's 0
    return ChannelSet(cfg, *(pools[..., index] for index in draw_layout(cfg)[1:]))
