import numpy as np
import pytest

from stpnc.channel import NetworkConfig, derive_trial_seed, draw_channels


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
    assert cfg.n_relays == 2
    assert cfg.sum_antenna_sq == 5


def test_draws_are_bitwise_deterministic():
    cfg = NetworkConfig(4, (2,))
    a = draw_channels(cfg, 3, 42)
    b = draw_channels(cfg, 3, 42)
    assert a.user_user == b.user_user
    for key in a.user_relay:
        assert np.array_equal(a.user_relay[key], b.user_relay[key])
    for key in a.relay_user:
        assert np.array_equal(a.relay_user[key], b.relay_user[key])
    c = draw_channels(cfg, 3, 43)
    assert a.user_user != c.user_user


def _all_coeffs(ch):
    vals = list(ch.user_user.values())
    for v in ch.user_relay.values():
        vals.extend(v)
    for v in ch.relay_user.values():
        vals.extend(v)
    return np.array(vals)


def test_moments_match_unit_variance_gaussian():
    # law of large numbers oracle over ~1e5 draws
    cfg = NetworkConfig(4, (2,))
    ch = draw_channels(cfg, 4000, 7)
    z = _all_coeffs(ch)
    assert z.size >= 100_000
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.02
    assert abs(np.var(z.real) - 0.5) < 0.02
    assert abs(np.var(z.imag) - 0.5) < 0.02
    assert np.all(z != 0)


def test_slot_streams_are_uncorrelated():
    # pair every coefficient with the same link's draw in the next slot
    cfg = NetworkConfig(4, (2,))
    slots = 4000
    ch = draw_channels(cfg, slots, 11)
    by_slot = {t: [] for t in range(1, slots + 1)}
    for (k, i, t), v in sorted(ch.user_user.items()):
        by_slot[t].append(v)
    for (ell, i, t), v in sorted(ch.user_relay.items()):
        by_slot[t].extend(v)
    for (k, ell, t), v in sorted(ch.relay_user.items()):
        by_slot[t].extend(v)
    first = np.array([v for t in range(1, slots) for v in by_slot[t]])
    second = np.array([v for t in range(2, slots + 1) for v in by_slot[t]])
    assert first.size >= 100_000
    for a, b in [(first.real, second.real), (first.imag, second.imag)]:
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.02


def test_slot_prefix_consistency():
    # a longer draw extends a shorter one without rewriting earlier slots
    cfg = NetworkConfig(4, (2,))
    short = draw_channels(cfg, 2, 5)
    long = draw_channels(cfg, 5, 5)
    for key, v in short.user_user.items():
        assert long.user_user[key] == v


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
