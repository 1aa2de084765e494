import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special

from stpnc import linalg, rate
from stpnc.channel import NetworkConfig, derive_trial_seed, draw_channels, draw_pools
from stpnc.precoder import design_twic
from stpnc.rate import RatePoint, flow_gains, snr_sweep, trial_gains

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
    ch.up[1, 3] = np.array([1.0 + 0j, 0.0 + 0j])  # user 4 -> relay 1 in slot 2
    ch.up[1, 2] = np.array([0.0 + 0j, 1.0 + 0j])  # user 3 -> relay 1 in slot 2
    assert flow_gains(ch)[0] == pytest.approx(1.0)


def test_uplink_rate_vanishes_at_low_snr():
    ch = draw_channels(NetworkConfig(4, (2,)), 3, 1)
    assert np.log2(1.0 + 1e-12 * flow_gains(ch)[0]) < 1e-9


def test_uplink_gain_matches_analytic_projection():
    # the combiner nulls h_up(1,4,2); analytically the gain is
    # |h4[0]*h3[1] - h4[1]*h3[0]|^2 / ||h4||^2
    for seed in range(200):
        ch = draw_channels(NetworkConfig(4, (2,)), 3, seed)
        h4 = ch.up[1, 3]
        h3 = ch.up[1, 2]
        gain = abs(h4[0] * h3[1] - h4[1] * h3[0]) ** 2 / np.linalg.norm(h4) ** 2
        got = flow_gains(ch)[0]
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
    ch.gain[1, 0, 2] = complex(np.sqrt(1.5))  # user 3 -> user 1 in slot 2
    ch.dn[2, 0] = np.array([1.0 + 0j, 0.0 + 0j])  # relay 1 -> user 1 in slot 3
    # the beam nulls the flow at user 4, whose downlink row is the second
    # axis, so the beam is [1, 0]
    ch.dn[2, 3] = np.array([0.0 + 0j, 1.0 + 0j])
    # squared effective channel norm is 1.5 + 1 = 2.5, so at P/sigma^2 = 1 the
    # rate log2(1 + gain / 2.5) is exactly log2(2) = 1
    assert flow_gains(ch)[1] == pytest.approx(2.5)


def test_downlink_rate_vanishes_at_high_noise():
    ch = draw_channels(NetworkConfig(4, (2,)), 3, 3)
    assert np.log2(1.0 + flow_gains(ch)[1] / (2.5 * 1e12)) < 1e-9


def test_downlink_beam_is_the_block_precoders_direction():
    # the relay slot must null flow 3 -> 1 at user 4, a one-dimensional
    # constraint on two antennas, so the block precoders of the protocol
    # send that flow along the rate beam
    for seed in range(10):
        ch = draw_channels(NetworkConfig(4, (2,)), 3, seed)
        x = design_twic(ch).per_block[(1, 3, 2)] @ ch.up[1, 2]
        direct = abs(ch.gain[1, 0, 2]) ** 2
        gain = direct + abs(ch.dn[2, 0] @ x) ** 2 / np.linalg.norm(x) ** 2
        assert flow_gains(ch)[1] == pytest.approx(gain, rel=1e-9)


def hop_rates(ch, rho):
    """Uplink and downlink rates of the representative flow, by hand from its gains."""
    g_up, g_dn, _ = flow_gains(ch)
    return np.log2(1.0 + rho * g_up), np.log2(1.0 + rho / 2.5 * g_dn)


def test_df_pair_rate_is_min_of_hops():
    for seed in range(20):
        ch = draw_channels(NetworkConfig(4, (2,)), 3, derive_trial_seed(seed, 0))
        up, dn = hop_rates(ch, 10.0)
        got = snr_sweep((10.0,), trial_gains(seed, 0, 1)).points[0].stpnc_rate
        assert got == 4.0 / 3.0 * min(up, dn)
        assert got <= 4.0 / 3.0 * up and got <= 4.0 / 3.0 * dn


def test_trial_gains_positive_finite_and_deterministic():
    g1 = trial_gains(0, 0, 500)
    g2 = trial_gains(0, 0, 500)
    assert np.array_equal(g1, g2)
    assert np.all(np.isfinite(g1)) and np.all(g1 > 0)
    # block splits concatenate to the same stream
    ga = np.vstack([trial_gains(0, 0, 200), trial_gains(0, 200, 300)])
    assert np.array_equal(ga, g1)
    # every row is flow_gains of that trial's ChannelSet, bit for bit, in any block split
    cfg = NetworkConfig(4, (2,))
    rows = [flow_gains(draw_channels(cfg, 3, derive_trial_seed(0, i))) for i in range(500)]
    assert np.array_equal(np.array(rows), g1)
    assert np.array_equal(np.array(rows[:200]), trial_gains(0, 0, 200))
    assert np.array_equal(np.array(rows[200:]), trial_gains(0, 200, 300))


def test_batched_draws_gather_the_per_trial_rows_bitwise(monkeypatch):
    # two full draw batches and a partial one, at a nonzero start
    seed, start, count = 11, 1000, 2 * rate._DRAW_BATCH + 37
    cfg = NetworkConfig(4, (2,))
    rows = np.array([draw_pools(cfg, 3, derive_trial_seed(seed, start + i)).take(rate._FLOW_INDEX)
                     for i in range(count)])
    calls = []

    def recording(cfg, slots, seeds):
        calls.append(list(seeds))
        return draw_pools(cfg, slots, seeds)

    monkeypatch.setattr(rate, "draw_pools", recording)
    gains = trial_gains(seed, start, count)
    assert [len(c) for c in calls] == [rate._DRAW_BATCH, rate._DRAW_BATCH, 37]
    assert sum(calls, []) == [derive_trial_seed(seed, start + i) for i in range(count)]
    assert np.array_equal(gains, rate._gains(rows))
    monkeypatch.setattr(rate, "_gains", lambda c: c)  # trial_gains now returns the gathered rows
    assert np.array_equal(trial_gains(seed, start, count), rows)


def test_trial_gains_temporaries_stay_batch_sized():
    trial_gains(0, 0, 10)  # module-level caches are built before tracing
    tracemalloc.start()
    try:
        trial_gains(0, 0, 20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    coeffs = 20_000 * 9 * 16  # the (trials, 9) complex coefficients the kernel reads
    assert peak < 2 * coeffs  # one draw_pools call over all 20 000 seeds peaks near 30x coeffs


def null_space_gains(ch):
    """The gains through SVD null-space vectors, as flow_gains computed them before the closed form."""
    u_row = linalg.null_space(ch.up[1, 3][None, :])[:, 0]  # nulls user 4's slot-2 uplink
    v = linalg.null_space(ch.dn[2, 3][None, :])[:, 0]  # nulls the slot-3 downlink to user 4
    direct = abs(ch.gain[1, 0, 2]) ** 2
    return abs(u_row @ ch.up[1, 2]) ** 2, direct + abs(ch.dn[2, 0] @ v) ** 2, direct


def test_closed_form_gains_match_null_space_oracle():
    cfg = NetworkConfig(4, (2,))
    for seed in range(1000):
        got = trial_gains(seed, seed, 1)[0]
        want = null_space_gains(draw_channels(cfg, 3, derive_trial_seed(seed, seed)))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def per_point_sweep(snr_db, gains):
    """snr_sweep as one loop over the SNR points, each a mean and stderr over all trials."""
    n = gains.shape[0]
    points = []
    for snr in snr_db:
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
            x0, x1 = points[i].snr_db, points[i + 1].snr_db
            crossover = float(x0 + (x1 - x0) * (-diffs[i]) / (diffs[i + 1] - diffs[i]))
            break
    return points, crossover


# points per snr_sweep pass over 31 points: 3000 trials take 16384 // 3000 = 5 points a
# pass, so six full passes and a partial last one
PASS_WIDTHS = {1: [31], 2: [31], 64: [31], 3000: [5] * 6 + [1]}


@pytest.mark.parametrize("trials", PASS_WIDTHS)
def test_blocked_sweep_is_the_per_point_loop_bitwise(trials, monkeypatch):
    grid = tuple(float(s) for s in range(31))
    gains = trial_gains(trials, 0, trials)
    passes, column_stack = [], np.column_stack

    def recording(arrays):  # snr_sweep closes each pass with one column_stack of its stats
        passes.append(len(arrays[0]))
        return column_stack(arrays)

    monkeypatch.setattr(np, "column_stack", recording)
    got = snr_sweep(grid, gains)
    monkeypatch.undo()
    assert passes == PASS_WIDTHS[trials]
    points, crossover = per_point_sweep(grid, gains)
    assert got.points == tuple(points)
    assert got.crossover_db == crossover
    if trials == 3000:
        assert crossover is not None and 6.0 <= crossover <= 10.0


def test_single_trial_average_is_hand_computation():
    point = snr_sweep((10.0,), trial_gains(5, 0, 1)).points[0]
    ch = draw_channels(NetworkConfig(4, (2,)), 3, derive_trial_seed(5, 0))
    expect = (4.0 / 3.0) * min(hop_rates(ch, 10.0))
    assert point.stpnc_rate == pytest.approx(expect, rel=1e-12)
    assert point.stpnc_stderr == 0.0


def test_stderr_scales_inverse_sqrt_trials():
    g = trial_gains(1, 0, 8000)
    small = snr_sweep((10.0,), g[:2000]).points[0]
    big = snr_sweep((10.0,), g).points[0]
    ratio = small.stpnc_stderr / big.stpnc_stderr
    assert ratio == pytest.approx(2.0, rel=0.2)


def test_tdma_rate_vanishes_and_grows_monotonically():
    g = trial_gains(3, 0, 2000)
    rates = [p.tdma_rate for p in snr_sweep(tuple(float(s) for s in range(-10, 31, 5)), g).points]
    assert all(a < b for a, b in zip(rates, rates[1:]))
    low = snr_sweep((-100.0,), g)
    assert low.points[0].tdma_rate < 1e-6


def test_snr_sweep_deterministic_and_df_bounded():
    grid = (0.0, 10.0, 20.0)
    a = snr_sweep(grid, trial_gains(4, 0, 500))
    b = snr_sweep(grid, trial_gains(4, 0, 500))
    assert a == b
    for p in a.points:
        assert p.stpnc_rate >= 0 and p.tdma_rate >= 0


def test_snr_sweep_validation():
    with pytest.raises(ValueError, match="^need at least one SNR point$"):
        snr_sweep((), trial_gains(0, 0, 10))
    with pytest.raises(ValueError, match="^need at least one trial$"):
        snr_sweep((1.0,), trial_gains(0, 0, 0))
