"""The group-stacked decode against the one-user-at-a-time decode it replaced.

``per_user_decode`` is that decode's body, kept here as the oracle: one user's heard,
non-pure rows taken from the ledger, SI and AOI cancelled, and one ``zf_solve`` per user.
``decode_user`` on a ``Schedule.decode_groups`` entry must give, bit for bit, the same
estimates, columns, stray coefficients, kept counts and failure records as this oracle
run on each user of the group in turn.
"""

import numpy as np
import pytest

from stpnc.channel import NetworkConfig, derive_trial_seeds
from stpnc.linalg import RankDeficient, zf_solve
from stpnc.protocol import _execute, _short, decode_user
from stpnc.scheduler import schedule_case2

from test_protocol import deaf_schedule, faulty_twxc_chunk, grid_ledger, two_pure_schedule


def per_user_decode(k, ledger, sched, s):
    """User k's decode as one pass made it before users were stacked: (D estimates, their
    columns, stray coefficient, kept count, failure record). Its columns and slots are read
    here from its receive classes, pure slots and listening slots, not from a DecodeGroup."""
    classes = np.array(sched.classes[k])
    unknowns, own, rest = (np.flatnonzero(np.isin(classes, g)) for g in (("D", "OI"), ("SI",), ("AOI", "N")))
    pure = np.array(sorted(sched.pure_slots(k)), dtype=np.intp) - 1
    kept = np.array([t for t in np.flatnonzero(sched.listens[:, k - 1]) if t not in pure], dtype=np.intp)
    split = np.count_nonzero(kept < sched.phase1_len)
    rows, values = ledger.rows[..., k - 1, :], ledger.values[..., k - 1]
    a, y = rows.take(kept, axis=-2), values.take(kept, axis=-1)
    scale = np.maximum(np.abs(a).max(axis=(-2, -1), initial=0.0),
                       np.abs(ledger.relay).max(axis=(-3, -2, -1)))
    if own.size:
        y -= np.matvec(a.take(own, axis=-1), s[..., own])
    if pure.size:
        a[..., split:, :] -= rows.take(pure, axis=-2).sum(axis=-2)[..., None, :]
        y[..., split:] -= values.take(pure, axis=-1).sum(axis=-1)[..., None]
    stray = np.abs(a.take(rest, axis=-1)).max(axis=(-2, -1), initial=0.0)
    h = a.take(unknowns, axis=-1)
    sol, kept = zf_solve(h, y, scale)
    desired = np.array([sched.classes[k][c] == "D" for c in unknowns], dtype=bool)
    return (sol[..., desired], unknowns[desired], stray, kept,
            _short(kept, h.shape[-1], "user", [k], "unknowns"))


def records(failures):
    """A failure record as comparable values: seed -> (exception type, message)."""
    return {i: (type(e), str(e)) for i, e in failures.items()}


def assert_groups_match_oracle(ledger, sched, s):
    """Every decode group, stacked, against the oracle on each of its users."""
    covered = []
    for group in sched.decode_groups:
        got = decode_user(group, ledger, s)
        want = [per_user_decode(int(k), ledger, sched, s) for k in group.users]
        assert np.array_equal(got.recovered, np.concatenate([w[0] for w in want], axis=-1))
        assert np.array_equal(got.columns, np.concatenate([w[1] for w in want]))
        assert np.array_equal(got.stray_coeff, np.stack([w[2] for w in want], axis=-1))
        assert np.array_equal(got.effective_rank, np.stack([w[3] for w in want], axis=-1))
        first = {}
        for w in want:  # the group's lowest-numbered short user stands
            first = w[4] | first
        assert records(got.failures) == records(first)
        covered += group.users.tolist()
    assert sorted(covered) == list(sched.users)


RELAY_SETS = {
    "twic": ("twic", NetworkConfig(4, (2,))),
    "twxc": ("twxc", NetworkConfig(4, (2,))),
    "case1-21x1": ("case1", NetworkConfig(6, (1,) * 21)),
    "case2-16x1": ("case2", NetworkConfig(6, (1,) * 16)),
    "case2-4-2": ("case2", NetworkConfig(4, (2,))),
}


@pytest.mark.parametrize("name,seeds", [
    ("twic", 1), ("twic", 5), ("twic", 20),
    ("twxc", 1), ("twxc", 5), ("twxc", 20),
    ("case1-21x1", 1), ("case2-16x1", 1), ("case2-4-2", 5),
])
def test_stacked_decode_is_the_per_user_decode_bit_for_bit(name, seeds):
    scenario, cfg = RELAY_SETS[name]
    batch = derive_trial_seeds(3, range(seeds)).tolist()
    sched, _, s, _, ledger, failures = _execute(scenario, cfg, batch, None)
    assert failures == {} and len(sched.decode_groups) == 1
    assert sched.decode_groups[0].users.tolist() == list(sched.users)
    assert_groups_match_oracle(ledger, sched, s)


@pytest.mark.parametrize("name", ["case1-21x1", "case2-16x1"])
def test_a_seed_of_a_chunk_decodes_as_it_does_alone(name):
    scenario, cfg = RELAY_SETS[name]
    batch = derive_trial_seeds(5, range(9)).tolist()
    sched, _, s, _, ledger, _ = _execute(scenario, cfg, batch, None)
    (group,) = sched.decode_groups
    chunk = decode_user(group, ledger, s)
    for i, seed in enumerate(batch):
        _, _, own, _, alone, _ = _execute(scenario, cfg, [seed], None)
        one = decode_user(group, alone, own)
        assert np.array_equal(chunk.recovered[i], one.recovered[0])
        assert np.array_equal(chunk.stray_coeff[i], one.stray_coeff[0])
        assert np.array_equal(chunk.effective_rank[i], one.effective_rank[0])


@pytest.mark.parametrize("sched", [two_pure_schedule(), deaf_schedule(), schedule_case2(5)],
                         ids=["two_pure", "deaf", "case2-5"])
def test_the_grid_schedules_match_the_oracle(sched):
    # two_pure has two decode shapes: its user 1 has no unknowns and a group of its own;
    # deaf's user 1 also stacks no rows; case2 K=5 is one group, each user with a pure slot
    ledger, s = grid_ledger(sched, (2, 2, 1) if len(sched.users) == 5 else (2,), [61, 62, 63])
    shapes = [g.users.tolist() for g in sched.decode_groups]
    assert shapes == ([list(sched.users)] if sched.name == "case2" else [[1], [2, 3]])
    assert_groups_match_oracle(ledger, sched, s)


def test_the_faulty_chunk_matches_the_oracle(monkeypatch):
    cfg, seeds = faulty_twxc_chunk(monkeypatch)
    sched, _, s, _, ledger, _ = _execute("twxc", cfg, seeds, None)
    got = decode_user(sched.decode_groups[0], ledger, s)
    # seed 2's failed design leaves it a short system too; _run lets its design failure stand
    assert records(got.failures)[1] == (RankDeficient, "user 1: effective rank 1 < 2 unknowns")
    assert_groups_match_oracle(ledger, sched, s)
