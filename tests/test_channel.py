import numpy as np
import pytest

from stpnc.channel import NetworkConfig, derive_trial_seed, draw_channels, draw_layout, draw_pools


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
