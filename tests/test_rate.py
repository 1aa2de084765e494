import numpy as np
import pytest
from scipy import integrate, special

from stpnc.channel import NetworkConfig, draw_channels
from stpnc.precoder import design_twic
from stpnc.rate import (
    RateConfig,
    df_pair_rate,
    downlink_rate,
    snr_sweep,
    stpnc_sum_rate,
    tdma_sum_rate,
    tdma_trial_gains,
    trial_gains,
    uplink_rate,
)

LN2 = np.log(2.0)


def tdma_closed_form(rho):
    """Ergodic rate of log2(1 + rho*X), X ~ Exp(1): e^(1/rho) E1(1/rho) / ln 2."""
    return np.exp(1.0 / rho) * special.exp1(1.0 / rho) / LN2


def test_closed_form_matches_quadrature():
    for rho in (1.0, 10.0):
        got, _ = integrate.quad(lambda x: np.log2(1 + rho * x) * np.exp(-x), 0, np.inf)
        assert got == pytest.approx(tdma_closed_form(rho), rel=1e-9)


def test_uplink_rate_axis_case():
    ch = draw_channels(NetworkConfig(4, (2,)), 3, 0)
    ch.user_relay[(1, 4, 2)] = np.array([1.0 + 0j, 0.0 + 0j])
    ch.user_relay[(1, 3, 2)] = np.array([0.0 + 0j, 1.0 + 0j])
    assert uplink_rate(ch, P=1.0, noise_var=1.0) == pytest.approx(1.0)


def test_uplink_rate_vanishes_at_low_snr():
    ch = draw_channels(NetworkConfig(4, (2,)), 3, 1)
    assert uplink_rate(ch, P=1e-12, noise_var=1.0) < 1e-9


def test_uplink_gain_matches_analytic_projection():
    # the combiner nulls h_up(1,4,2); analytically the gain is
    # |h4[0]*h3[1] - h4[1]*h3[0]|^2 / ||h4||^2
    for seed in range(200):
        ch = draw_channels(NetworkConfig(4, (2,)), 3, seed)
        h4 = ch.h_up(1, 4, 2)
        h3 = ch.h_up(1, 3, 2)
        gain = abs(h4[0] * h3[1] - h4[1] * h3[0]) ** 2 / np.linalg.norm(h4) ** 2
        got = 2.0 ** uplink_rate(ch, 1.0, 1.0) - 1.0
        assert got == pytest.approx(gain, rel=1e-9)


def test_uplink_ergodic_rate_matches_quadrature_oracle():
    # ZF projection of CN(0, I2) onto the 1-dim complement is CN(0,1), so the
    # gain is Exp(1); sample it directly and compare to the closed form
    rng = np.random.default_rng(0)
    n = 100_000
    h4 = (rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))) / np.sqrt(2)
    h3 = (rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))) / np.sqrt(2)
    gains = np.abs(h4[:, 0] * h3[:, 1] - h4[:, 1] * h3[:, 0]) ** 2 / (
        np.abs(h4[:, 0]) ** 2 + np.abs(h4[:, 1]) ** 2
    )
    rho = 10.0
    mc = np.mean(np.log2(1 + rho * gains))
    assert mc == pytest.approx(tdma_closed_form(rho), rel=0.01)


def test_downlink_rate_algebraic_identity():
    ch = draw_channels(NetworkConfig(4, (2,)), 3, 2)
    ch.user_user[(1, 3, 2)] = complex(np.sqrt(1.5))
    ch.relay_user[(1, 1, 3)] = np.array([1.0 + 0j, 0.0 + 0j])
    # the beam nulls the flow at user 4, whose downlink row is the second
    # axis, so the beam is [1, 0]
    ch.relay_user[(4, 1, 3)] = np.array([0.0 + 0j, 1.0 + 0j])
    # squared effective channel norm is 1.5 + 1 = 2.5, so at P/sigma^2 = 1 the
    # rate is exactly log2(2) = 1
    assert downlink_rate(ch, P=1.0, noise_var=1.0) == pytest.approx(1.0)


def test_downlink_rate_vanishes_at_high_noise():
    ch = draw_channels(NetworkConfig(4, (2,)), 3, 3)
    assert downlink_rate(ch, P=1.0, noise_var=1e12) < 1e-9


def test_downlink_beam_is_the_block_precoders_direction():
    # the relay slot must null flow 3 -> 1 at user 4, a one-dimensional
    # constraint on two antennas, so the block precoders of the protocol
    # send that flow along the rate beam
    for seed in range(10):
        ch = draw_channels(NetworkConfig(4, (2,)), 3, seed)
        x = design_twic(ch).per_block[(1, 3, 2)] @ ch.h_up(1, 3, 2)
        direct = abs(ch.h(1, 3, 2)) ** 2
        gain = direct + abs(ch.h_dn(1, 1, 3) @ x) ** 2 / np.linalg.norm(x) ** 2
        assert 2.0 ** downlink_rate(ch, 2.5, 1.0) - 1.0 == pytest.approx(gain, rel=1e-9)


def test_df_pair_rate_is_min_of_hops():
    for seed in range(20):
        ch = draw_channels(NetworkConfig(4, (2,)), 3, seed)
        up = uplink_rate(ch, 10.0, 1.0)
        dn = downlink_rate(ch, 10.0, 1.0)
        df = df_pair_rate(ch, 10.0, 1.0)
        assert df == min(up, dn)
        assert df <= up and df <= dn


def test_trial_gains_positive_finite_and_deterministic():
    g1 = trial_gains(0, 0, 500)
    g2 = trial_gains(0, 0, 500)
    assert np.array_equal(g1, g2)
    assert np.all(np.isfinite(g1)) and np.all(g1 > 0)
    # block splits concatenate to the same stream
    ga = np.vstack([trial_gains(0, 0, 200), trial_gains(0, 200, 300)])
    assert np.array_equal(ga, g1)
    # the tdma-only sampler agrees with the full sampler's direct-link column
    assert np.allclose(tdma_trial_gains(0, 0, 500), g1[:, 2])


def test_single_trial_average_is_hand_computation():
    cfg = RateConfig((10.0,), trials=1, seed=5)
    rows = stpnc_sum_rate(cfg)
    ch = draw_channels(NetworkConfig(4, (2,)), 3, __import__("stpnc").derive_trial_seed(5, 0))
    expect = (4.0 / 3.0) * df_pair_rate(ch, 10.0, 1.0)
    assert rows[0][1] == pytest.approx(expect, rel=1e-12)
    assert rows[0][2] == 0.0


def test_stderr_scales_inverse_sqrt_trials():
    g = trial_gains(1, 0, 8000)
    small = stpnc_sum_rate(RateConfig((10.0,), trials=2000, seed=1), g[:2000])
    big = stpnc_sum_rate(RateConfig((10.0,), trials=8000, seed=1), g)
    ratio = small[0][2] / big[0][2]
    assert ratio == pytest.approx(2.0, rel=0.2)


def test_tdma_monte_carlo_matches_quadrature():
    gains = tdma_trial_gains(2, 0, 100_000)
    for rho in (1.0, 10.0, 100.0):
        mc = np.mean(np.log2(1 + rho * gains))
        assert mc == pytest.approx(tdma_closed_form(rho), rel=0.01)


def test_tdma_rate_vanishes_and_grows_monotonically():
    cfg = RateConfig(tuple(float(s) for s in range(-10, 31, 5)), trials=2000, seed=3)
    rows = tdma_sum_rate(cfg)
    rates = [r[1] for r in rows]
    assert all(a < b for a, b in zip(rates, rates[1:]))
    low = tdma_sum_rate(RateConfig((-100.0,), trials=2000, seed=3))
    assert low[0][1] < 1e-6


def test_snr_sweep_deterministic_and_df_bounded():
    cfg = RateConfig((0.0, 10.0, 20.0), trials=500, seed=4)
    a = snr_sweep(cfg)
    b = snr_sweep(cfg)
    assert a == b
    for p in a.points:
        assert p.stpnc_rate >= 0 and p.tdma_rate >= 0


def test_rate_config_validation():
    with pytest.raises(ValueError):
        RateConfig((), trials=10)
    with pytest.raises(ValueError):
        RateConfig((1.0,), trials=0)
