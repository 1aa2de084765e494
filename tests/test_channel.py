import numpy as np
import pytest

from stpnc import channel
from stpnc.channel import (
    NetworkConfig,
    _complex_pool,
    _seed_states,
    derive_trial_seed,
    derive_trial_seeds,
    draw_channels,
    draw_layout,
    draw_pools,
    standard_normals,
)


def test_config_validation():
    with pytest.raises(ValueError):
        NetworkConfig(1, (2,))
    with pytest.raises(ValueError):
        NetworkConfig(4, ())
    with pytest.raises(ValueError):
        NetworkConfig(4, (0,))
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="noise_var"):
            NetworkConfig(4, (2,), noise_var=bad)
    cfg = NetworkConfig(4, [2, 1])
    assert cfg.relay_antennas == (2, 1)
    assert cfg.relay_columns == (slice(0, 2), slice(2, 3))
    assert cfg.sum_antenna_sq == 5


STACKS = ("gain", "up", "dn")


def test_draws_are_bitwise_deterministic():
    cfg = NetworkConfig(4, (2,))
    a = draw_channels(cfg, 3, 42)
    b = draw_channels(cfg, 3, 42)
    for name in STACKS:
        assert np.array_equal(getattr(a, name), getattr(b, name))
    c = draw_channels(cfg, 3, 43)
    for name in STACKS:
        assert not np.array_equal(getattr(a, name), getattr(c, name))


def per_slot_pools(cfg, slots, seed, rng_of=np.random.default_rng):
    """The seeding contract spelled out: one _complex_pool call per slot on one generator."""
    rng, size = rng_of(seed), draw_layout(cfg)[0]
    return np.array([_complex_pool(rng, size) for _ in range(slots)])


@pytest.mark.parametrize("cfg,slots", [
    (NetworkConfig(4, (2,)), 3),        # twic
    (NetworkConfig(4, (2,)), 5),        # twxc
    (NetworkConfig(6, (1,) * 21), 10),  # case1 K=6 on 21 one-antenna relays
], ids=["twic", "twxc", "21x1"])
def test_one_normal_call_per_seed_is_the_per_slot_stream(cfg, slots):
    seeds = [derive_trial_seed(5, i) for i in range(2000)]
    batch = draw_pools(cfg, slots, seeds)
    for seed, pools in zip(seeds, batch):
        expect = per_slot_pools(cfg, slots, seed)
        assert np.array_equal(draw_pools(cfg, slots, seed).view(np.uint64), expect.view(np.uint64))
        assert np.array_equal(pools.view(np.uint64), expect.view(np.uint64))


REAL_RNG = np.random.default_rng


class ZeroingGenerator:
    """A default_rng(seed) whose normal stream holds exact zeros at the given positions."""

    def __init__(self, seed, zeros):
        self.rng, self.zeros, self.drawn = REAL_RNG(seed), zeros, 0

    def standard_normal(self, size=None, out=None):
        x = self.rng.standard_normal(size if out is None else out.shape)
        flat = x.reshape(-1)
        for p in self.zeros:
            if self.drawn <= p < self.drawn + flat.size:
                flat[p - self.drawn] = 0.0
        self.drawn += flat.size
        if out is None:
            return x
        out[...] = x
        return out


def test_an_exact_zero_takes_the_per_slot_redraw_path(monkeypatch):
    cfg, slots = NetworkConfig(4, (2,)), 3
    size = draw_layout(cfg)[0]
    # seed 8's first slot draws an exact zero at pool entry 5: its real part at stream
    # position 5 and its imaginary part at size + 5
    zeros = {8: (5, size + 5)}

    def stub(seed):
        return ZeroingGenerator(seed, zeros.get(int(seed), ()))

    def normals(seeds, shape):  # the batched draw, with seed 8's zeros injected
        return np.array([stub(seed).standard_normal(shape) for seed in seeds])

    # the block comes from the batched helper, the redraws from default_rng
    monkeypatch.setattr(channel, "standard_normals", normals)
    monkeypatch.setattr(channel.np.random, "default_rng", stub)
    expect = per_slot_pools(cfg, slots, 8, stub)
    assert np.count_nonzero(expect) == expect.size  # _complex_pool redrew the zero
    block = ZeroingGenerator(8, zeros[8]).standard_normal((slots, 2, size))
    assert block[0, 0, 5] == block[0, 1, 5] == 0.0  # the one-call block holds the zero
    assert np.array_equal(draw_pools(cfg, slots, 8), expect)
    batch = draw_pools(cfg, slots, [7, 8, 9])
    assert np.array_equal(batch[1], expect)
    for i, seed in ((0, 7), (2, 9)):
        assert np.array_equal(batch[i], per_slot_pools(cfg, slots, seed, stub))
    # a uint64 batch as the trials draw it: only seed 8 takes the redraw path
    batch = draw_pools(cfg, slots, np.arange(2, 12, dtype=np.uint64))
    assert np.array_equal(batch[6], expect)
    monkeypatch.undo()
    for i in (0, 1, 2, 3, 4, 5, 7, 8, 9):
        assert np.array_equal(batch[i], per_slot_pools(cfg, slots, i + 2))


def test_a_batch_of_seeds_is_each_seed_drawn_alone():
    cfg = NetworkConfig(5, (2, 1, 3))
    seeds = [derive_trial_seed(11, i) for i in range(4)]
    batch = draw_channels(cfg, 7, seeds)
    assert batch.gain.shape == (4, 7, 5, 5) and batch.up.shape == batch.dn.shape == (4, 7, 5, 6)
    for i, seed in enumerate(seeds):
        one = draw_channels(cfg, 7, seed)
        for name in STACKS:
            assert np.array_equal(getattr(batch, name)[i], getattr(one, name))
        assert batch.user_relay[(3, 2, 4)][i].tolist() == one.user_relay[(3, 2, 4)].tolist()


def _slot_coeffs(ch):
    """(slots, coefficients per slot): every link's coefficient, in one link order per slot."""
    off_diagonal = ~np.eye(ch.config.K, dtype=bool)
    slots = ch.gain.shape[0]
    return np.hstack([ch.gain[:, off_diagonal], ch.up.reshape(slots, -1), ch.dn.reshape(slots, -1)])


def test_moments_match_unit_variance_gaussian():
    # law of large numbers oracle over ~1e5 draws
    cfg = NetworkConfig(4, (2,))
    ch = draw_channels(cfg, 4000, 7)
    z = _slot_coeffs(ch).ravel()
    assert z.size >= 100_000
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.02
    assert abs(np.var(z.real) - 0.5) < 0.02
    assert abs(np.var(z.imag) - 0.5) < 0.02
    assert np.all(z != 0)


def test_slot_streams_are_uncorrelated():
    # pair every coefficient with the same link's draw in the next slot
    cfg = NetworkConfig(4, (2,))
    slots = 4000
    by_slot = _slot_coeffs(draw_channels(cfg, slots, 11))
    first = by_slot[:-1].ravel()
    second = by_slot[1:].ravel()
    assert first.size >= 100_000
    for a, b in [(first.real, second.real), (first.imag, second.imag)]:
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.02


def test_slot_prefix_consistency():
    # a longer draw extends a shorter one without rewriting earlier slots
    cfg = NetworkConfig(4, (2,))
    short = draw_channels(cfg, 2, 5)
    long = draw_channels(cfg, 5, 5)
    for name in STACKS:
        assert np.array_equal(getattr(long, name)[:2], getattr(short, name))


def test_stacks_are_the_pools_in_the_seeding_order():
    # the seeding contract, enumerated by hand: per slot, the user pairs row by row without
    # the diagonal, then each relay's uplinks user by user, then each user's downlinks
    # relay by relay; relay l's antennas are the stack columns first .. first + M_l - 1
    cfg = NetworkConfig(5, (2, 1, 3))
    users, relays = range(1, 6), ((0, 2), (2, 1), (3, 3))  # (first column, antennas)
    pools, ch = draw_pools(cfg, 3, 17), draw_channels(cfg, 3, 17)
    assert pools.shape == (3, 20 + 2 * 5 * 6)
    for t in range(3):
        pool = iter(pools[t])
        for k in users:
            for i in users:
                if i != k:
                    assert ch.gain[t, k - 1, i - 1] == next(pool)
        for first, m in relays:
            for i in users:
                for a in range(first, first + m):
                    assert ch.up[t, i - 1, a] == next(pool)
        for k in users:
            for first, m in relays:
                for a in range(first, first + m):
                    assert ch.dn[t, k - 1, a] == next(pool)
        assert next(pool, None) is None
        assert np.all(np.diag(ch.gain[t]) == 0)
    size, gain, up, dn = draw_layout(cfg)
    positions = np.concatenate([gain[~np.eye(5, dtype=bool)], up.ravel(), dn.ravel()])
    assert size == pools.shape[1]
    assert np.array_equal(np.sort(positions), np.arange(size))


def test_derive_trial_seed_basics():
    s = 12345
    assert derive_trial_seed(s, 0) != derive_trial_seed(s, 1)
    # frozen value: derivation is stable across runs and versions
    assert derive_trial_seed(12345, 7) == 7959005890829367068
    assert derive_trial_seed(0, 0) == 16294208416658607535


def test_derive_trial_seed_no_collisions():
    s = 999
    seen = {derive_trial_seed(s, t) for t in range(10_000)}
    assert len(seen) == 10_000


def test_derive_trial_seeds_is_the_scalar_derivation():
    for root in (0, 999, 2**63, 2**64 - 1, 2**64, 2**64 + 12345, 3**90):
        for trials in (range(0), range(5), range(1000, 1300)):
            got = derive_trial_seeds(root, trials)
            assert got.dtype == np.uint64
            assert got.tolist() == [derive_trial_seed(root, i) for i in trials]
    roots = [0, 7, 2**64 - 1, 2**64, 2**70 + 3]
    for trial in (0, 3, 2**40):
        assert derive_trial_seeds(roots, trial).tolist() == [derive_trial_seed(s, trial) for s in roots]
    derived = derive_trial_seeds(11, range(64))
    assert derive_trial_seeds(derived, 2).tolist() == [derive_trial_seed(s, 2) for s in derived.tolist()]
    assert derive_trial_seeds(12345, 7).tolist() == [7959005890829367068]


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
NORMAL_SHAPES = {"twic pools": (3, 2, 28), "21x1 pools": (10, 2, 282), "payload": (2, 4), "noise": (16,)}


def assert_default_rng_bits(got, seeds, shape):
    assert got.shape == (len(seeds), *shape)
    for row, seed in zip(got, seeds):
        want = np.random.default_rng(seed).standard_normal(shape)
        assert np.array_equal(row.view(np.uint64), want.view(np.uint64)), seed


def test_seed_states_are_seed_sequence_states():
    seeds = EDGE_SEEDS + derive_trial_seeds(3, range(4096)).tolist()
    states = _seed_states(np.array(seeds, dtype=np.uint64))
    assert states.dtype == np.uint64 and states.shape == (len(seeds), 4)
    for seed, state in zip(seeds, states):
        assert state.tolist() == np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist(), seed


@pytest.mark.parametrize("shape", NORMAL_SHAPES.values(), ids=NORMAL_SHAPES.keys())
def test_batched_normals_have_the_bits_of_default_rng(shape):
    seeds = EDGE_SEEDS + derive_trial_seeds(5, range(4096 if shape[0] < 10 else 64)).tolist()
    words = np.array(seeds, dtype=np.uint64)
    assert_default_rng_bits(standard_normals(words, shape), seeds, shape)
    assert_default_rng_bits(standard_normals(words[::3], shape), seeds[::3], shape)  # strided
    assert_default_rng_bits(standard_normals(seeds[:40], shape), seeds[:40], shape)
    assert_default_rng_bits(standard_normals([np.uint64(s) for s in seeds[:40]], shape), seeds[:40], shape)
    for n in range(1, 12):  # both sides of the batch size that switches to derived states
        assert_default_rng_bits(standard_normals(words[-n:], shape), seeds[-n:], shape)


def test_out_of_range_seeds_keep_default_rng_behaviour():
    shape = NORMAL_SHAPES["twic pools"]
    seeds = [5, 2**64, 2**64 + 1, 2**100 + 7, 2**64 - 1, 6, 7, 8, 9, 10]  # beyond two entropy words
    assert_default_rng_bits(standard_normals(seeds, shape), seeds, shape)
    for bad in ([-1], [1, 2, 3, 4, 5, 6, 7, 8, 9, -1], np.array([3, 4, 5, 6, 7, 8, 9, -2])):
        with pytest.raises(ValueError):
            np.random.default_rng(bad[-1])
        with pytest.raises(ValueError):
            standard_normals(bad, shape)
