"""Seeded generation of the network's channel coefficients.

All links fade independently per time slot with CN(0,1) coefficients
(real and imaginary parts each of variance 1/2). Users and relays are
1-indexed throughout, matching the slot conventions of the schedules.

Every seeded draw of the package is a stream of np.random.default_rng(seed).
standard_normals gives a batch of seeds those same bits, deriving the batch's
generator states with uint32 array arithmetic rather than one SeedSequence per seed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

_MASK32 = (1 << 32) - 1
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


# SplitMix64's operands as 0-d uint64 arrays: on small batches they cost half what Python ints do
_SPLITMIX = [np.array(c, dtype=np.uint64)
             for c in (1, _SPLITMIX_GAMMA, 30, 0xBF58476D1CE4E5B9, 27, 0x94D049BB133111EB, 31)]


def derive_trial_seeds(seed, trials) -> np.ndarray:
    """derive_trial_seed as uint64 array arithmetic, broadcast over seed and trials (at least
    one-dimensional): a root seed and a range of trials, or a batch of seeds and its trials.
    A seed that is not a uint64 array may be any Python int; it counts mod 2**64 either way."""
    one, gamma, s1, m1, s2, m2, s3 = _SPLITMIX
    if not isinstance(seed, np.ndarray):
        seed = [int(s) & _MASK64 for s in seed] if np.ndim(seed) else int(seed) & _MASK64
    z = np.asarray(seed, dtype=np.uint64) + (np.array(trials, dtype=np.uint64, ndmin=1) + one) * gamma
    z = (z ^ (z >> s1)) * m1
    z = (z ^ (z >> s2)) * m2
    return z ^ (z >> s3)


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


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k = 0..n, as a column: SeedSequence's hash constants."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


# SeedSequence (numpy.random.bit_generator) runs its hashes with multipliers that step in a
# fixed sequence whatever the data: hash k xors with row k and multiplies by row k + 1.
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 16)  # 4 entropy words, then 4 x 3 pool mixes
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)   # generate_state(4, uint64): 8 words
# its mix multipliers and shift, as 0-d arrays: on small batches they cost half what Python ints do
_MIX_L, _MIX_R, _XSHIFT = (np.array(c, dtype=np.uint32) for c in (0xCA01F9DD, 0x4973F715, 16))


def _mix_round(src: int) -> np.ndarray:
    """Round src of the pool mixing as (xor, multiplier) columns over the 4 pool words: every
    word but src takes the next hash of word src in word order; row src is never used."""
    rows, k = [d for d in range(4) if d != src], 4 + 3 * src
    keys = np.zeros((2, 4, 1), dtype=np.uint32)
    keys[0, rows], keys[1, rows] = _HASH_A[k:k + 3], _HASH_A[k + 1:k + 4]
    return keys


_MIX_ROUNDS = [_mix_round(src) for src in range(4)]
# Seeds per call from which standard_normals derives the states as arrays: its fixed cost
# is a few default_rng calls, so it took 0.8-0.9 of a default_rng loop's time at 6 seeds
# and 0.9-1.15 at 5 (single thread, pool and payload shapes).
_BATCH_SEEDING = 6


def _hashmix(v, xor, mul):
    v = (v ^ xor) * mul
    return v ^ (v >> _XSHIFT)


def _seed_states(seeds: np.ndarray) -> np.ndarray:
    """SeedSequence(s).generate_state(4, np.uint64) for every s of a uint64 array, (S, 4).

    A uint64 seed is the entropy words (low, high), and a high word of 0 mixes as its absence
    does, so every seed fills the 4-word pool the same way: (low, high, 0, 0)."""
    pool = np.zeros((4, seeds.size), dtype=np.uint32)
    pool[:2] = np.ascontiguousarray(seeds, dtype="<u8").view("<u4").reshape(-1, 2).T
    pool = _hashmix(pool, _HASH_A[:4], _HASH_A[1:5])
    for src, (xor, mul) in enumerate(_MIX_ROUNDS):
        mixed = pool * _MIX_L - _hashmix(pool[src], xor, mul) * _MIX_R
        mixed ^= mixed >> _XSHIFT
        mixed[src] = pool[src]
        pool = mixed
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _HASH_B[:8], _HASH_B[1:])  # the pool, cycled
    return np.ascontiguousarray(words.T, dtype="<u4").view("<u8").astype(np.uint64)


@functools.cache
def _state_generator():
    """words -> Generator(PCG64) seeded with those generate_state(4, uint64) words, through
    numpy's ISeedSequence interface; numpy.random loads on the first call, not at import."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class State(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return lambda words: Generator(PCG64(State(words)))


def standard_normals(seeds, shape: tuple) -> np.ndarray:
    """(len(seeds), *shape) normals; row i has the bits of
    np.random.default_rng(seeds[i]).standard_normal(shape).

    default_rng(s) is PCG64 seeded with SeedSequence(s).generate_state(4, uint64). A uint64
    array of at least _BATCH_SEEDING seeds (derive_trial_seeds gives one) has every state
    derived by _seed_states in one pass of uint32 array arithmetic, and each row drawn from a
    PCG64 given its state. Any other batch calls default_rng per seed, so a seed of any size
    keeps its bits and a seed that default_rng rejects raises as it does.
    """
    out = np.empty((len(seeds), *shape))
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64 and len(seeds) >= _BATCH_SEEDING:
        generator = _state_generator()
        for row, state in zip(out, _seed_states(seeds)):
            generator(state).standard_normal(out=row)
    else:
        for row, s in zip(out, seeds):
            np.random.default_rng(s).standard_normal(out=row)
    return out


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


@functools.cache
def bank_unknowns(antennas: tuple) -> tuple:
    """A slot pair's stacked bank unknowns, relay after relay: each one's uplink and downlink
    antenna (its bank entry is [dn, up]), and vec(I) over them, amplify-and-forward."""
    owner = np.repeat(np.arange(len(antennas)), antennas)  # antenna -> relay
    up_col, dn_col = np.nonzero(owner[:, None] == owner)
    g = (up_col == dn_col).astype(complex)
    up_col.flags.writeable = dn_col.flags.writeable = g.flags.writeable = False  # cached: shared
    return up_col, dn_col, g


def draw_pools(cfg: NetworkConfig, slots: int, seed) -> np.ndarray:
    """The (slots, pool size) stack of per-slot IID CN(0,1) draws that draw_channels places.

    One standard_normals block (slots, 2, pool size) per seed: the stream of one _complex_pool
    call per slot (real parts, then imaginary ones) whenever no draw is an exact zero; a seed
    whose block holds one takes that per-slot path with its redraws. A sequence of seeds gives
    one stack per seed, (seeds, slots, pool size), and an int seed, as draw_channels takes, one.
    """
    seeds, size = ([seed] if np.ndim(seed) == 0 else seed), draw_layout(cfg)[0]
    normals = standard_normals(seeds, (slots, 2, size))
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
    sequence of seeds draws each seed as alone and stacks them on a leading seed axis; an int
    seed gives no seed axis, the form perfbench/oracles.py draws. The stacks are row-major.
    """
    if slots < 1:
        raise ValueError("need at least one slot")
    pools = draw_pools(cfg, slots, seed)
    pools = np.concatenate([pools, np.zeros(pools.shape[:-1] + (1,))], axis=-1)  # the diagonal's 0
    return ChannelSet(cfg, *(np.take(pools, index, axis=-1) for index in draw_layout(cfg)[1:]))
