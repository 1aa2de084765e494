from fractions import Fraction

import numpy as np
import pytest

from stpnc.channel import NetworkConfig, draw_channels
from stpnc.protocol import draw_payload, run_phase1, scenario_schedule
from stpnc.scheduler import (
    InvalidUserCount,
    Schedule,
    SlotPlan,
    SymbolId,
    cyclic_user,
    schedule_case1,
    schedule_case2,
    schedule_twic,
    schedule_twxc,
)

ALL_BUILDERS = [
    schedule_twic,
    schedule_twxc,
    lambda: schedule_case1(3),
    lambda: schedule_case1(5),
    lambda: schedule_case2(4),
    lambda: schedule_case2(6),
]


def test_twic_shape():
    s = schedule_twic()
    assert s.n_slots == 3
    assert s.slot(1).sources == {1, 2}
    assert s.slot(1).destinations == {3, 4}
    assert s.slot(2).sources == {3, 4}
    assert len(s.symbols) == 4
    assert set(s.symbols) == {SymbolId(3, 1), SymbolId(4, 2), SymbolId(1, 3), SymbolId(2, 4)}
    assert s.slot(3).sources == frozenset()


def test_twxc_shape():
    s = schedule_twxc()
    assert s.n_slots == 5
    assert s.slot(3).sends == {3: SymbolId(1, 3), 4: SymbolId(1, 4)}
    assert len(s.symbols) == 8
    assert set(s.symbols) == {
        SymbolId(3, 1), SymbolId(3, 2), SymbolId(4, 1), SymbolId(4, 2),
        SymbolId(1, 3), SymbolId(1, 4), SymbolId(2, 3), SymbolId(2, 4),
    }


def test_case1_shape():
    s = schedule_case1(3)
    assert s.n_slots == 4
    assert len(s.symbols) == 6
    s = schedule_case1(4)
    assert s.slot(2).sources == {1, 3, 4}
    assert s.slot(2).destinations == {2}
    # the symbol/slot budget targets k1/2
    for k1 in range(3, 9):
        s = schedule_case1(k1)
        assert Fraction(len(s.symbols), s.n_slots) == Fraction(k1, 2)


@pytest.mark.parametrize("sched,lengths", [
    (schedule_twic(), (2, 1)),
    (schedule_twxc(), (4, 1)),
    *((schedule_case1(K), (K, K - 2)) for K in range(3, 11)),
    *((schedule_case2(K), (K, K - 3)) for K in range(4, 11)),
], ids=lambda x: f"{x.name}-{len(x.users)}" if isinstance(x, Schedule) else None)
def test_phase_lengths_are_read_from_the_slots(sched, lengths):
    # phase 1 is the leading slots that send, phase 2 the relay slots after them
    assert (sched.phase1_len, sched.phase2_len) == lengths
    assert sched.n_slots == len(sched.slots) == sum(lengths)
    assert list(sched.phase1_slots) == [t for t in range(1, sched.n_slots + 1) if sched.slot(t).sends]
    assert list(sched.phase2_slots) == list(range(lengths[0] + 1, sched.n_slots + 1))


def test_a_slot_that_sends_after_a_relay_slot_is_rejected():
    send, relay = SlotPlan(frozenset({2}), {1: SymbolId(2, 1)}), SlotPlan(frozenset({1, 2}))
    assert Schedule("ok", (1, 2), (send, relay, relay)).phase2_len == 2
    with pytest.raises(ValueError, match="^late: a slot with sends follows a relay slot$"):
        Schedule("late", (1, 2), (send, relay, SlotPlan(frozenset({1}), {2: SymbolId(1, 2)})))


def test_a_schedule_without_a_relay_slot_is_rejected():
    # both phases are needed: chunk sizing and design index the phase-2 slots
    send = SlotPlan(frozenset({2}), {1: SymbolId(2, 1)})
    with pytest.raises(ValueError, match="^direct: no relay slot follows the slots with sends$"):
        Schedule("direct", (1, 2), (send, SlotPlan(frozenset({1}), {2: SymbolId(1, 2)})))


def test_cyclic_user_examples():
    assert cyclic_user(1, 1, 4) == 2
    assert cyclic_user(4, 1, 4) == 1
    assert cyclic_user(3, 2, 5) == 5


def test_case2_shape():
    s = schedule_case2(4)
    assert s.n_slots == 5
    assert len(s.symbols) == 8
    s = schedule_case2(5)
    assert s.slot(1).destinations == {1, 2}
    assert s.slot(1).sources == {3, 4, 5}
    assert schedule_case2(6).phase2_len == 3
    for k2 in range(4, 9):
        s = schedule_case2(k2)
        assert len(s.symbols) == k2 * (k2 - 2)
        assert s.n_slots == 2 * k2 - 3


def test_user_count_validation():
    with pytest.raises(InvalidUserCount):
        schedule_case1(2)
    with pytest.raises(InvalidUserCount):
        schedule_case2(3)


@pytest.mark.parametrize("build", ALL_BUILDERS)
def test_half_duplex(build):
    s = build()
    for t in range(1, s.n_slots + 1):
        plan = s.slot(t)
        assert not (plan.sources & plan.destinations)
        if t <= s.phase1_len:
            assert plan.sources
        else:
            assert not plan.sources


@pytest.mark.parametrize("build", ALL_BUILDERS)
def test_every_relay_stores_every_phase1_slot(build):
    s = build()
    cfg = NetworkConfig(len(s.users), (2, 1))
    ch = draw_channels(cfg, s.n_slots, [3])
    ledger = run_phase1(s, ch, draw_payload(s, [4]))
    # one equation of the whole relay bank per slot: relay l's rows are its antenna columns
    assert ledger.relays == s.phase1_slots
    assert ledger.relay.shape == (1, s.phase1_len, 3, len(s.symbols))
    assert ledger.relay_values.shape == (1, s.phase1_len, 3)
    for t in s.phase1_slots:
        coeffs = ledger.relay[0, t - 1]
        src = [sym.src - 1 for sym in s.slot(t).sends.values()]
        for c in cfg.relay_columns:
            assert np.array_equal(coeffs[c][:, s.slot_columns[t]], ch.up[0, t - 1][src, c].T)
        others = np.setdiff1d(np.arange(len(s.symbols)), s.slot_columns[t])
        assert not coeffs[:, others].any()


@pytest.mark.parametrize("build", ALL_BUILDERS)
def test_listens_is_the_slots_destinations(build):
    s = build()
    assert s.listens.shape == (s.n_slots, len(s.users)) and s.listens.dtype == bool
    assert not s.listens.flags.writeable  # cached and shared
    for t in range(1, s.n_slots + 1):
        assert [k for k in s.users if s.listens[t - 1, k - 1]] == sorted(s.slot(t).destinations)
    for k in s.users:
        assert s.listened_phase1(k) == tuple(t for t in s.phase1_slots if k in s.slot(t).destinations)


@pytest.mark.parametrize("build", ALL_BUILDERS)
def test_every_symbol_sent_exactly_once_by_its_source(build):
    s = build()
    seen = []
    for t in s.phase1_slots:
        for tx, sym in s.slot(t).sends.items():
            assert tx == sym.src
            assert tx in s.slot(t).sources
            seen.append(sym)
    assert len(seen) == len(set(seen)) == len(s.symbols)
    for sym in s.symbols:
        assert sym.dest != sym.src


def test_case1_role_symmetry():
    for k1 in range(3, 8):
        s = schedule_case1(k1)
        for u in s.users:
            dest_count = sum(u in s.slot(t).destinations for t in s.phase1_slots)
            src_count = sum(u in s.slot(t).sources for t in s.phase1_slots)
            assert dest_count == 1
            assert src_count == k1 - 1


def test_case2_each_user_listens_twice():
    for k2 in range(4, 9):
        s = schedule_case2(k2)
        for u in s.users:
            dest_count = sum(u in s.slot(t).destinations for t in s.phase1_slots)
            assert dest_count == 2


def test_twic_roles_for_user_one():
    s = schedule_twic()
    roles = dict(zip(s.symbols, s.classes[1]))
    assert roles[SymbolId(1, 3)] == "D"
    assert roles[SymbolId(3, 1)] == "SI"
    assert roles[SymbolId(2, 4)] == "OI"  # overheard in slot 2, decoded jointly
    assert roles[SymbolId(4, 2)] == "N"
    assert all(s.pure_slots(u) == frozenset() for u in s.users)


def test_twxc_pure_slots_are_the_other_pairs_slots():
    s = schedule_twxc()
    # user 4 overhears slot 1 (both symbols for user 3): aligned interference
    assert s.pure_slots(4) == {1}
    assert s.pure_slots(3) == {2}
    assert s.pure_slots(1) == {4}
    assert s.pure_slots(2) == {3}
    assert s.classes[4][s.column[SymbolId(3, 1)]] == "AOI"  # overheard in a pure slot


@pytest.mark.parametrize("build", ALL_BUILDERS)
def test_roles_partition_every_symbol(build):
    s = build()
    for u in s.users:
        roles = dict(zip(s.symbols, s.classes[u]))
        desired = {sym for sym in s.symbols if sym.dest == u}
        assert {sym for sym, r in roles.items() if r == "D"} == desired
        own = s.decode_group([u]).own[0]
        assert {sym for sym, r in roles.items() if r == "SI"} == {s.symbols[c] for c in own}
        overheard = {sym for t in s.listened_phase1(u) for sym in s.slot(t).sends.values()}
        assert {sym for sym, r in roles.items() if r in ("OI", "AOI")} == overheard - desired
        # pure slots are overheard slots without a desired symbol
        assert s.pure_slots(u) <= set(s.listened_phase1(u))
        for t in s.pure_slots(u):
            assert all(roles[sym] == "AOI" for sym in s.slot(t).sends.values())


def test_case2_next_user_overhears_one_pure_slot():
    k2 = 6
    s = schedule_case2(k2)
    for k in s.phase1_slots:
        assert s.pure_slots(cyclic_user(k, 1, k2)) == {k}


@pytest.mark.parametrize("scenario,K", [("twic", 4), ("twxc", 4)]
                         + [("case1", K) for K in range(3, 11)] + [("case2", K) for K in range(4, 11)])
def test_user_positions_are_user_numbers_minus_one(scenario, K):
    # the precoder and the protocol index the channel stacks' user axes by the positions
    # in Schedule.users (constraint_rows' arrays) or by user - 1: the two must agree
    assert scenario_schedule(scenario, K).users == tuple(range(1, K + 1))
