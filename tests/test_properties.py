"""Randomized invariant harness shared with the acceptance suite.

Each check_* function runs a given number of seeded random cases and raises
on the first violation; acceptance criterion 8 runs them at full strength,
1000 cases each.
"""

import numpy as np

from stpnc.channel import NetworkConfig, derive_trial_seed, draw_channels
from stpnc.linalg import null_space, rank, zf_solve
from stpnc.precoder import AntennaDeficit, design_case1, design_case2, design_twic
from stpnc.protocol import (
    decode_user,
    ledger_linearity_error,
    _execute,
)


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def check_vec_kron_identity(cases):
    rng = np.random.default_rng(100)
    for _ in range(cases):
        a, x, b = crandn(rng, 2, 2), crandn(rng, 2, 2), crandn(rng, 2, 2)
        # vec stacks the columns: reshape in column-major order
        err = np.linalg.norm((a @ x @ b).reshape(-1, order="F") - np.kron(b.T, a) @ x.reshape(-1, order="F"))
        assert err < 1e-10


def check_null_space_properties(cases):
    rng = np.random.default_rng(101)
    for _ in range(cases):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        a = crandn(rng, rows, cols)
        n = null_space(a)
        r = rank(a)
        assert r + n.shape[1] == cols
        if n.shape[1]:
            assert np.max(np.abs(a @ n)) < 1e-10
            gram = n.conj().T @ n
            assert np.max(np.abs(gram - np.eye(n.shape[1]))) < 1e-10


def check_zf_round_trip(cases):
    rng = np.random.default_rng(102)
    for _ in range(cases):
        cols = int(rng.integers(1, 7))
        rows = int(rng.integers(cols, 9))
        h = crandn(rng, rows, cols)
        s = crandn(rng, cols)
        x, kept = zf_solve(h, h @ s)
        assert np.linalg.norm(x - s) < 1e-9 and kept == cols


def check_pipeline_determinism(cases):
    cfg = NetworkConfig(4, (2,))
    for i in range(cases):
        seed = derive_trial_seed(7, i)
        a = draw_channels(cfg, 3, seed)
        b = draw_channels(cfg, 3, seed)
        for name in ("gain", "up", "dn"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        pa, pb = design_twic(a), design_twic(b)
        assert np.array_equal(pa.bank, pb.bank)


def check_ledger_and_recovery(cases):
    cfg = NetworkConfig(4, (2,))
    for i in range(cases):
        seed = derive_trial_seed(8, i)
        sched, _, s, precoders, ledger, failures = _execute("twic", cfg, [seed], None)
        assert failures == {}
        assert ledger_linearity_error(ledger, s)[0] < 1e-9
        assert precoders.residual[0] < 1e-9
        (group,) = sched.decode_groups  # every user, stacked
        res = decode_user(group, ledger, s)
        assert res.effective_rank.tolist() == [[2] * len(sched.users)] and res.failures == {}
        assert res.stray_coeff[0].max() < 1e-9
        assert [sched.symbols[c].dest for c in res.columns] == list(sched.users)
        for c, est in zip(res.columns, res.recovered[0]):
            assert abs(est - s[0, c]) / abs(s[0, c]) < 1e-8


def check_feasibility_boundary(cases):
    # alternate both sides of each antenna bound
    for i in range(cases):
        seed = derive_trial_seed(9, i)
        if i % 2 == 0:
            ch = draw_channels(NetworkConfig(4, (1, 1, 1, 2)), 6, seed)  # sum sq = 7 = bound
            p = design_case1(ch, 4)
            assert p.residual < 1e-9
        else:
            ch = draw_channels(NetworkConfig(4, (1, 1, 2)), 6, seed)  # sum sq = 6 = bound - 1
            try:
                design_case1(ch, 4)
            except AntennaDeficit:
                pass
            else:
                raise AssertionError("expected AntennaDeficit below the bound")
        if i % 2 == 0:
            ch = draw_channels(NetworkConfig(4, (2,)), 5, seed)  # (k2-2)^2 = 4 = bound
            p = design_case2(ch, 4)
            assert p.residual < 1e-9
        else:
            ch = draw_channels(NetworkConfig(4, (1, 1, 1)), 5, seed)  # sum sq = 3
            try:
                design_case2(ch, 4)
            except AntennaDeficit:
                pass
            else:
                raise AssertionError("expected AntennaDeficit below the bound")

