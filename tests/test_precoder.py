import dataclasses
import math

import numpy as np
import pytest

from stpnc import linalg, precoder, protocol
from stpnc.channel import NetworkConfig, draw_channels
from stpnc.precoder import (
    AntennaDeficit,
    design,
    design_case1,
    design_case2,
    design_twic,
    design_twxc,
    verify_constraints,
)
from stpnc.scheduler import (
    Schedule,
    SlotPlan,
    SymbolId,
    cyclic_user,
    schedule_case1,
    schedule_case2,
    schedule_twic,
    schedule_twxc,
)


def twic_channels(seed):
    return draw_channels(NetworkConfig(4, (2,)), 3, seed)


def twxc_channels(seed):
    return draw_channels(NetworkConfig(4, (2,)), 5, seed)


def triples(sched, k):
    """Phase-1 slot k's constraint rows as (receiver j, transmitter i, aligned), by user id."""
    return tuple((sched.users[r], sched.users[c], bool(a)) for r, c, a in zip(*sched.constraint_rows[k]))


def coefficient(ch, p, j, i, t, k):
    """End-to-end coefficient of slot-k transmitter i at user j, by direct products."""
    return sum(
        ch.dn[t - 1, j - 1, c] @ p.per_block[(ell, t, k)] @ ch.up[k - 1, i - 1, c]
        for ell, c in enumerate(ch.config.relay_columns, start=1)
    )


def block_mask(cfg):
    """True on the relays' diagonal blocks of a bank slice, False off them."""
    mask = np.zeros((sum(cfg.relay_antennas),) * 2, dtype=bool)
    for c in cfg.relay_columns:
        mask[c, c] = True
    return mask


def solver_inputs(sched, ch, monkeypatch):
    """(t, k) -> the constraint matrix design hands that slot pair's solver, and the precoders.

    design hands the solver one (phase-2 slot, phase-1 slot, row, unknown) stack per row
    count, over the phase-1 slots with that many rows in ascending order; each pair is
    unstacked from it, and no pair is seen twice or missed.
    """
    seen = {}
    real = precoder.solve_least_norm

    def record(a, *rest):
        ks = [k for k in sched.phase1_slots if len(sched.constraint_rows[k][0]) == a.shape[-2]]
        assert a.shape[:2] == (sched.phase2_len, len(ks))
        for tp, t in enumerate(sched.phase2_slots):
            for p, k in enumerate(ks):
                assert (t, k) not in seen
                seen[(t, k)] = a[tp, p]
        return real(a, *rest)

    def unreached(*args):
        raise AssertionError("design reached null_space")

    monkeypatch.setattr(precoder, "solve_least_norm", record)
    monkeypatch.setattr(precoder, "null_space", unreached)
    p = design(sched, ch)
    pairs = [(t, k) for t in sched.phase2_slots for k in sched.phase1_slots]
    assert sorted(seen) == pairs
    return {pair: seen[pair] for pair in pairs}, p


def test_twic_zero_constraints():
    ch = twic_channels(0)
    p = design_twic(ch)
    assert p.residual < 1e-10
    assert p.mode == "per_block"  # a class constant: no constructor sets the layout
    assert [f.name for f in dataclasses.fields(p)] == ["bank", "columns", "residual", "failures"]
    # the four victim constraints, spelled out: each symbol is N at one user
    t = 3
    sched = schedule_twic()
    pairs = [(2, SymbolId(3, 1)), (4, SymbolId(1, 3)), (3, SymbolId(2, 4)), (1, SymbolId(4, 2))]
    for victim, sym in pairs:
        k = sched.slot_of(sym)
        assert sched.classes[victim][sched.column[sym]] == "N"
        assert abs(coefficient(ch, p, victim, sym.src, t, k)) < 1e-10
        # null-space precoders are unit norm per slot pair
        assert abs(np.linalg.norm(p.per_block[(1, t, k)]) - 1.0) < 1e-12


def test_twic_axis_null_space():
    ch = twic_channels(1)
    ch.dn[2, 1] = np.array([1.0 + 0j, 0.0 + 0j])  # relay 1 -> user 2 in slot 3
    p = design_twic(ch)
    # symbol 3<-1 must reach user 2 with a zero coefficient, so the relayed
    # vector of slot 1's transmitter 1 lies on the second antenna axis
    x = p.per_block[(1, 3, 1)] @ ch.up[0, 0]
    assert np.linalg.norm(x) > 1e-6
    assert abs(x[0]) < 1e-12 * np.linalg.norm(x)
    assert abs(abs(x[1]) - np.linalg.norm(x)) < 1e-12


def test_twic_wrong_antennas_rejected():
    ch = draw_channels(NetworkConfig(4, (3,)), 3, 0)
    with pytest.raises(AntennaDeficit):
        design_twic(ch)


def test_the_fixed_relay_set_is_schedule_data_that_design_checks():
    assert schedule_twic().relays == schedule_twxc().relays == (2,)
    assert schedule_case1(4).relays is None and schedule_case2(5).relays is None
    for sched in (schedule_twic(), schedule_twxc()):
        for antennas in [(3,), (1, 1), (2, 2), (1,)]:
            ch = draw_channels(NetworkConfig(4, antennas), sched.n_slots, 3)
            with pytest.raises(AntennaDeficit, match=f"^{sched.name} needs a single relay with 2 antennas$"):
                design(sched, ch)


def test_twxc_all_sixteen_constraints():
    ch = twxc_channels(0)
    p = design_twxc(ch)
    assert p.residual < 1e-10
    t = 5
    # per symbol: one zero at the victim, one match at the overhearing partner
    table = {
        SymbolId(3, 1): (2, 4, 1), SymbolId(3, 2): (1, 4, 1),
        SymbolId(4, 1): (2, 3, 2), SymbolId(4, 2): (1, 3, 2),
        SymbolId(1, 3): (4, 2, 3), SymbolId(1, 4): (3, 2, 3),
        SymbolId(2, 3): (4, 1, 4), SymbolId(2, 4): (3, 1, 4),
    }
    for sym, (victim, partner, t1) in table.items():
        assert abs(coefficient(ch, p, victim, sym.src, t, t1)) < 1e-10
        got = coefficient(ch, p, partner, sym.src, t, t1)
        assert abs(got - ch.gain[t1 - 1, partner - 1, sym.src - 1]) < 1e-10


def test_verify_constraints_zero_precoders_equals_max_target():
    ch = twxc_channels(3)
    p = design_twxc(ch)
    p.bank[:] = 0
    sched = schedule_twxc()
    expected = max(
        abs(ch.gain[sched.slot_of(sym) - 1, partner - 1, sym.src - 1])
        for sym in sched.symbols
        for partner in (sched.slot(sched.slot_of(sym)).destinations - {sym.dest})
    )
    assert verify_constraints(p, ch, sched) == pytest.approx(expected, rel=1e-12)


def test_verify_constraints_detects_perturbation():
    ch = twic_channels(4)
    p = design_twic(ch)
    rng = np.random.default_rng(0)
    p.bank[0, 0] += 1e-3 * rng.standard_normal((2, 2))  # relay 1's block of slot pair (3, 1)
    assert verify_constraints(p, ch, schedule_twic()) > 1e-5


def test_stacked_constraints_shape_and_rows(monkeypatch):
    cfg = NetworkConfig(3, (2,))
    ch = draw_channels(cfg, 4, 2)
    sched = schedule_case1(3)
    rx, tx, aligned = sched.constraint_rows[1]
    rows = triples(sched, 1)
    assert rows == ((3, 2, False), (2, 3, False))  # (j, i) for i, then j, ascending
    assert rx.tolist() == [2, 1] and tx.tolist() == [1, 2]  # positions in sched.users
    assert rx.dtype == tx.dtype == np.intp and aligned.dtype == bool
    a = solver_inputs(sched, ch, monkeypatch)[0][(4, 1)]
    assert a.shape == (2, 4)  # (k1-1)(k1-2) rows, sum of squared antennas cols
    # row oracle: the broadcast row (j, i) is bitwise kron(uplink, downlink);
    # applying it to vec(V) equals the direct triple product
    rng = np.random.default_rng(0)
    v = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    f = v.reshape(-1, order="F")
    for row, (j, i, _) in zip(a, rows):
        expect = np.kron(ch.up[0, i - 1], ch.dn[3, j - 1])
        assert np.array_equal(row, expect)
        direct = ch.dn[3, j - 1] @ v @ ch.up[0, i - 1]
        assert abs(row @ f - direct) < 1e-12


def test_stacked_constraints_degenerate_two_users(monkeypatch):
    # a slot whose every receiver is a destination or a transmitter has no rows
    sched = Schedule("pair", (1, 2), (
        SlotPlan(frozenset({2}), {1: SymbolId(2, 1)}),
        SlotPlan(frozenset({1}), {2: SymbolId(1, 2)}),
        SlotPlan(frozenset({1, 2})),
    ))
    ch = draw_channels(NetworkConfig(2, (2,)), 3, 0)
    for rx, tx, aligned in sched.constraint_rows.values():
        assert rx.shape == tx.shape == aligned.shape == (0,)
    matrices, p = solver_inputs(sched, ch, monkeypatch)
    assert [a.shape for a in matrices.values()] == [(0, 4), (0, 4)]
    assert p.residual == 0.0


def test_each_row_count_is_one_stacked_solve(monkeypatch):
    # phase-1 slots with 2, 1 and 2 rows: design stacks slots 1 and 3 in one solve and
    # slot 2 in another, and still names the first infeasible pair in (t, k) order
    sched = Schedule("mixed", (1, 2, 3), (
        SlotPlan(frozenset({2}), {1: SymbolId(2, 1), 3: SymbolId(2, 3)}),
        SlotPlan(frozenset({1}), {2: SymbolId(1, 2)}),
        SlotPlan(frozenset({3}), {2: SymbolId(3, 2), 1: SymbolId(3, 1)}),
        SlotPlan(frozenset({1, 2, 3})),
    ))
    assert [len(rx) for rx, _, _ in sched.constraint_rows.values()] == [2, 1, 2]
    ch = draw_channels(NetworkConfig(3, (2,)), 4, 5)
    matrices, p = solver_inputs(sched, ch, monkeypatch)
    assert p.residual < 1e-12
    g = np.eye(2).reshape(-1)
    for (t, k), a in matrices.items():
        n = linalg.null_space(a)
        want = n @ (n.conj().T @ g)
        assert np.linalg.norm(p.bank[0, k - 1].reshape(-1, order="F") - want / np.linalg.norm(want)) <= 1e-9

    def last_pair_fails(a, b, x0=None):
        ok = np.ones(a.shape[:-2], dtype=bool)
        ok[..., -1] = False
        return np.ones(a.shape[:-2] + a.shape[-1:], dtype=complex), ok

    # the 2-row stack fails at (4,3), the 1-row stack after it at (4,2)
    monkeypatch.setattr(precoder, "solve_least_norm", last_pair_fails)
    (failure,) = design(sched, ch).failures.values()
    with pytest.raises(AntennaDeficit, match=r"^alignment constraints for slot pair \(4,2\) are infeasible$"):
        raise failure


def test_broadcast_rows_match_kron_across_relays(monkeypatch):
    # multi-relay, mixed antennas: each row concatenates one kron segment per relay
    k2 = 5
    ch = draw_channels(NetworkConfig(k2, (2, 3, 1)), 2 * k2 - 3, 8)
    sched = schedule_case2(k2)
    matrices = solver_inputs(sched, ch, monkeypatch)[0]
    for (t, k), a in matrices.items():
        expect = np.vstack([
            np.concatenate([np.kron(ch.up[k - 1, i - 1, c], ch.dn[t - 1, j - 1, c])
                            for c in (slice(0, 2), slice(2, 5), slice(5, 6))])
            for j, i, _ in triples(sched, k)
        ])
        assert np.array_equal(a, expect)


def test_case2_rows_align_before_neutralizing():
    # per transmitter (in the slot's sends order): the aligned row at next(k)
    # first, then every user outside {k, next(k), transmitter}
    k2 = 5
    sched = schedule_case2(k2)
    for k in sched.phase1_slots:
        nxt = cyclic_user(k, 1, k2)
        expect = []
        for off in range(2, k2):
            i = cyclic_user(k, off, k2)
            expect.append((nxt, i, True))
            expect += [(j, i, False) for j in sched.users if j not in (k, nxt, i)]
        assert triples(sched, k) == tuple(expect)


def brute_force_residual(p, ch, sched):
    """Max |coefficient - target| over every constraint row and phase-2 slot, one product each."""
    return max(
        abs(coefficient(ch, p, j, i, t, k) - (ch.gain[k - 1, j - 1, i - 1] if aligned else 0.0))
        for k in sched.phase1_slots for j, i, aligned in triples(sched, k)
        for t in sched.phase2_slots
    )


@pytest.mark.parametrize("sched,antennas", [
    (schedule_twic(), (2,)),
    (schedule_twxc(), (2,)),
    (schedule_case1(4), (1, 1, 1, 2)),
    (schedule_case2(5), (2, 2, 1)),
    (schedule_case2(6), (1,) * 16),
], ids=["twic", "twxc", "case1-4", "case2-5", "case2-6-16x1"])
def test_verify_constraints_is_the_brute_force_maximum(sched, antennas):
    ch = draw_channels(NetworkConfig(len(sched.users), antennas), sched.n_slots, 21)
    p = design(sched, ch)
    assert abs(verify_constraints(p, ch, sched) - brute_force_residual(p, ch, sched)) <= 1e-12
    # off the solution as well, where the residual is of order one
    rng = np.random.default_rng(5)
    shape = p.bank.shape
    p.bank += 0.1 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * block_mask(ch.config)
    got, want = verify_constraints(p, ch, sched), brute_force_residual(p, ch, sched)
    assert want > 1e-3
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("sched,antennas", [
    (schedule_twic(), (2,)),
    (schedule_twxc(), (2,)),
    (schedule_case1(4), (1, 1, 1, 2)),
    (schedule_case1(6), (1,) * 21),
    (schedule_case2(5), (2, 2, 1)),
    (schedule_case2(5), (2, 2, 2)),
], ids=["twic", "twxc", "case1-1112", "case1-21x1", "case2-221", "case2-222"])
def test_each_pair_is_the_constrained_point_nearest_to_amplify_and_forward(sched, antennas):
    # oracle: N, an orthonormal basis of the null space of the pair's Kronecker rows A.
    # The point of {A f = b} nearest to g differs from g by a row-space vector, so
    # N^H (f - g) = 0; with b = 0 it is the projection N N^H g, here scaled to unit norm
    cfg = NetworkConfig(len(sched.users), antennas)
    ch = draw_channels(cfg, sched.n_slots, 13)
    p = design(sched, ch)
    cols = cfg.relay_columns
    g = np.concatenate([np.eye(m).reshape(-1, order="F") for m in antennas])  # vec(I) per relay
    for tp, t in enumerate(sched.phase2_slots):
        for k in sched.phase1_slots:
            rows = triples(sched, k)
            a = np.array([np.concatenate([np.kron(ch.up[k - 1, i - 1, c], ch.dn[t - 1, j - 1, c])
                                          for c in cols]) for j, i, _ in rows])
            b = np.array([ch.gain[k - 1, j - 1, i - 1] if aligned else 0 for j, i, aligned in rows])
            f = np.concatenate([p.bank[tp, k - 1, c, c].reshape(-1, order="F") for c in cols])
            n = linalg.null_space(a)
            if b.any():
                assert np.linalg.norm(a @ f - b) <= 1e-9
                assert np.linalg.norm(n.conj().T @ (f - g)) <= 1e-9
            else:
                want = n @ (n.conj().T @ g)
                assert np.linalg.norm(f - want / np.linalg.norm(want)) <= 1e-9


def test_verify_constraints_sees_one_single_antenna_block():
    sched = schedule_case1(6)
    ch = draw_channels(NetworkConfig(6, (1,) * 21), sched.n_slots, 3)
    p = design(sched, ch)
    assert p.residual < 1e-12
    p.bank[0, 0, 20, 20] += 1e-6  # relay 21's 1x1 block of slot pair (7, 1)
    assert verify_constraints(p, ch, sched) >= 1e-7


@pytest.mark.parametrize("scenario,cfg", [
    ("twic", NetworkConfig(4, (2,))),
    ("twxc", NetworkConfig(4, (2,))),
    ("case1", NetworkConfig(4, (1, 1, 1, 2))),
    ("case1", NetworkConfig(5, (2, 2, 2, 1, 1, 1, 1))),
    ("case1", NetworkConfig(6, (1,) * 21)),
    ("case2", NetworkConfig(5, (2, 2, 1))),
    ("case2", NetworkConfig(6, (1,) * 16)),
], ids=["twic", "twxc", "case1-1112", "case1-2221111", "case1-21x1", "case2-221", "case2-16x1"])
def test_bank_is_zero_outside_the_relay_blocks(scenario, cfg):
    # the product form of verify_constraints and of the relay processing is the per-relay
    # physics only while no relay combines another relay's receptions
    entry = protocol.SCENARIOS[scenario]
    sched = protocol.scenario_schedule(scenario, cfg.K)
    ch = draw_channels(cfg, sched.n_slots, 17)
    p = entry.design(ch, cfg.K)
    width = sum(cfg.relay_antennas)
    assert p.bank.shape == (sched.phase2_len, sched.phase1_len, width, width)
    assert p.columns == cfg.relay_columns
    mask = block_mask(cfg)
    assert np.all(p.bank[..., ~mask] == 0)
    # the per-relay view reads the blocks on the diagonal, read-only
    for ell, c in enumerate(cfg.relay_columns, start=1):
        for tp, t in enumerate(sched.phase2_slots):
            for k in sched.phase1_slots:
                block = p.per_block[(ell, t, k)]
                assert np.array_equal(block, p.bank[tp, k - 1, c, c])
                with pytest.raises(ValueError):
                    block[...] = 0
    assert np.abs(p.bank[..., mask]).max() > 0


def test_entry_points_equal_schedule_design():
    ch = draw_channels(NetworkConfig(5, (3,)), 7, 4)
    a, b = design_case2(ch, 5), design(schedule_case2(5), ch)
    assert a.columns == b.columns
    assert np.array_equal(a.bank, b.bank)
    assert a.residual == b.residual


@pytest.mark.parametrize("k1,antennas", [(3, (2,)), (4, (3,)), (3, (1, 2)), (4, (1, 1, 1, 2))])
def test_case1_synthesis_feasible(k1, antennas):
    ch = draw_channels(NetworkConfig(k1, antennas), 2 * k1 - 2, 5)
    p = design_case1(ch, k1)
    assert p.residual < 1e-10
    assert np.all(np.isfinite(p.bank))
    # stacked vector per (t, k) is unit norm
    sched = schedule_case1(k1)
    for t in sched.phase2_slots:
        norm_sq = sum(
            np.linalg.norm(p.per_block[(ell, t, 1)]) ** 2
            for ell in range(1, len(antennas) + 1)
        )
        assert abs(norm_sq - 1.0) < 1e-10


@pytest.mark.parametrize("k1,antennas", [(4, (2,)), (4, (1, 1, 2)), (5, (3,))])
def test_case1_antenna_deficit(k1, antennas):
    ch = draw_channels(NetworkConfig(k1, antennas), 2 * k1 - 2, 5)
    with pytest.raises(AntennaDeficit):
        design_case1(ch, k1)


@pytest.mark.parametrize("k2,antennas", [(4, (2,)), (5, (3,)), (5, (2, 2, 1))])
def test_case2_synthesis_feasible(k2, antennas):
    ch = draw_channels(NetworkConfig(k2, antennas), 2 * k2 - 3, 6)
    p = design_case2(ch, k2)
    assert p.residual < 1e-10


@pytest.mark.parametrize("k2,antennas", [(5, (2,)), (5, (2, 2)), (6, (3,))])
def test_case2_antenna_deficit(k2, antennas):
    ch = draw_channels(NetworkConfig(k2, antennas), 2 * k2 - 3, 6)
    with pytest.raises(AntennaDeficit):
        design_case2(ch, k2)


class ReachedSynthesis(Exception):
    pass


# the closed-form antenna bounds of the two general constructions, the oracle
# for the need design derives from the constraint rows
HAND_NEED = {"case1": lambda k1: (k1 - 1) * (k1 - 2) + 1, "case2": lambda k2: (k2 - 2) ** 2}


@pytest.mark.parametrize("scenario,k", [("case1", k) for k in range(3, 13)]
                         + [("case2", k) for k in range(4, 13)])
def test_derived_antenna_need_is_the_hand_bound(scenario, k, monkeypatch):
    def reached(*args):
        raise ReachedSynthesis

    # the need is checked before any decomposition, so a deficit never reaches one
    monkeypatch.setattr(precoder, "null_space", reached)
    monkeypatch.setattr(precoder, "solve_least_norm", reached)
    need = HAND_NEED[scenario](k)
    entry = {"case1": design_case1, "case2": design_case2}[scenario]
    n_slots = {"case1": 2 * k - 2, "case2": 2 * k - 3}[scenario]
    for have in (need - 1, need):
        m = math.isqrt(have)
        ch = draw_channels(NetworkConfig(k, (m,) + (1,) * (have - m * m)), n_slots, k)
        assert ch.config.sum_antenna_sq == have
        if have < need:
            with pytest.raises(AntennaDeficit,
                               match=rf"^need sum of squared antennas >= {need}, have {have}$"):
                entry(ch, k)
        else:
            with pytest.raises(ReachedSynthesis):
                entry(ch, k)


def test_case2_alignment_targets():
    k2 = 4
    ch = draw_channels(NetworkConfig(k2, (2,)), 5, 7)
    p = design_case2(ch, k2)
    sched = schedule_case2(k2)
    # matching rows reproduce the phase-1 coefficients at the overhearing user
    for t in sched.phase2_slots:
        for k in sched.phase1_slots:
            nxt = (k % k2) + 1
            for i in sorted(sched.slot(k).sends):
                got = sum(
                    ch.dn[t - 1, nxt - 1, c] @ p.per_block[(ell, t, k)] @ ch.up[k - 1, i - 1, c]
                    for ell, c in enumerate(ch.config.relay_columns, start=1)
                )
                assert abs(got - ch.gain[k - 1, nxt - 1, i - 1]) < 1e-9


def test_synthesis_is_deterministic():
    ch = twxc_channels(9)
    a, b = design_twxc(ch), design_twxc(ch)
    assert np.array_equal(a.bank, b.bank)
    ch1 = draw_channels(NetworkConfig(4, (3,)), 6, 9)
    c1, c2 = design_case1(ch1, 4), design_case1(ch1, 4)
    assert np.array_equal(c1.bank, c2.bank)


def test_a_one_entry_design_row_has_the_bits_it_has_in_a_batch():
    # one row of one unknown per seed: NumPy rounds a one-element complex product made in
    # place otherwise than the same product in a longer array, so a lone seed's bank moved
    sched = Schedule("one_entry", (1, 2, 3), (
        SlotPlan(frozenset({1, 3}), {2: SymbolId(3, 2)}),
        SlotPlan(frozenset({1, 2, 3})),
    ))
    cfg, seeds = NetworkConfig(3, (1,)), list(range(20))
    batch = design(sched, draw_channels(cfg, 2, seeds))
    for i, seed in enumerate(seeds):
        alone = design(sched, draw_channels(cfg, 2, [seed]))
        assert batch.bank[i].tobytes() == alone.bank[0].tobytes(), seed
