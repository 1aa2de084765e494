from fractions import Fraction

import numpy as np
import pytest

from stpnc import channel, precoder, protocol
from stpnc.channel import NetworkConfig, derive_trial_seed, draw_channels
from stpnc.linalg import RankDeficient
from stpnc.precoder import AntennaDeficit, design_twic, design_twxc
from stpnc.protocol import (
    alignment_error,
    decode_user,
    draw_payload,
    draw_symbols,
    ledger_linearity_error,
    relay_decode,
    relay_process,
    run_end_to_end,
    run_phase1,
    run_phase2,
    scenario_schedule,
    verify_scenario,
)
from stpnc.scheduler import (
    InvalidUserCount,
    Schedule,
    SlotPlan,
    SymbolId,
    schedule_case1,
    schedule_case2,
    schedule_twic,
    schedule_twxc,
)


def twic_setup(seed):
    cfg = NetworkConfig(4, (2,))
    sched = schedule_twic()
    ch = draw_channels(cfg, 3, seed)
    return cfg, sched, ch, draw_payload(sched, seed + 1)


def twxc_setup(seed):
    cfg = NetworkConfig(4, (2,))
    sched = schedule_twxc()
    ch = draw_channels(cfg, 5, seed)
    return cfg, sched, ch, draw_payload(sched, seed + 1)


def cls(sched, j, sym):
    """The receive class of symbol sym at user j."""
    return sched.classes[j][sched.column[sym]]


def test_phase1_user_equation_coefficients():
    _, sched, ch, s = twic_setup(0)
    ledger = run_phase1(sched, ch, s)
    assert ledger.users[3][0] == 1  # user 3's first equation is slot 1's
    row, value = ledger.rows[0, 2], ledger.values[0, 2]
    assert ledger.rows.shape == (sched.n_slots, len(sched.users), len(sched.symbols))
    assert row[sched.column[SymbolId(3, 1)]] == ch.gain[0, 2, 0]
    assert row[sched.column[SymbolId(4, 2)]] == ch.gain[0, 2, 1]
    assert np.count_nonzero(row) == 2  # only the slot's two symbols
    s31, s42 = s[sched.column[SymbolId(3, 1)]], s[sched.column[SymbolId(4, 2)]]
    expect = ch.gain[0, 2, 0] * s31 + ch.gain[0, 2, 1] * s42
    assert value == expect


def test_phase1_relay_gets_four_scalar_equations():
    _, sched, ch, s = twic_setup(1)
    ledger = run_phase1(sched, ch, s)
    # two slots, one scalar equation per antenna in each (the one relay's equations)
    assert ledger.relay_values.shape == (2, 2)
    covered = set()
    for t in ledger.relays:
        coeffs, value = ledger.relay[t - 1], ledger.relay_values[t - 1]
        heard = {sym for sym, c in sched.column.items() if coeffs[:, c].any()}
        assert heard == set(sched.slot(t).sends.values())
        covered.update(heard)
        for m in range(value.shape[0]):
            pred = sum(coeffs[m, c] * s[c] for c in sched.column.values())
            assert abs(value[m] - pred) < 1e-12
    assert covered == set(sched.symbols)


def test_relay_decodes_all_symbols_noiselessly():
    _, sched, ch, s = twic_setup(2)
    ledger = run_phase1(sched, ch, s)
    decoded, failures = relay_decode(ledger, 1, ch.config.relay_columns[0])
    assert decoded.shape == (len(sched.symbols),) and failures == {}
    for c in sched.column.values():
        assert abs(decoded[c] - s[c]) < 1e-9


def test_relay_decode_rank_deficient_for_single_antenna_relay():
    cfg = NetworkConfig(4, (1, 1, 1, 2))
    sched = schedule_case1(4)
    ch = draw_channels(cfg, sched.n_slots, 3)
    ledger = run_phase1(sched, ch, draw_payload(sched, 4))
    # one antenna over four slots gives four equations in twelve symbols
    _, failures = relay_decode(ledger, 1, cfg.relay_columns[0])
    assert list(failures) == [0]  # an unbatched draw is seed 0
    with pytest.raises(RankDeficient, match=r"^relay 1: effective rank 4 < 12 symbols$"):
        raise failures[0]


def test_linear_forward_matches_brute_force():
    # per relay, in slot order: each block applied to that relay's own reception
    for sched, cfg in [(schedule_case1(3), NetworkConfig(3, (2,))),
                       (schedule_case2(5), NetworkConfig(5, (2, 3, 1)))]:
        ch = draw_channels(cfg, sched.n_slots, 5)
        p = precoder.design(sched, ch)
        ledger = run_phase1(sched, ch, draw_payload(sched, 6))
        plan = relay_process(ledger, p, "linear_forward")
        width = sum(cfg.relay_antennas)
        assert plan.coeffs.shape == (sched.phase2_len, width, len(sched.symbols))
        assert plan.signals.shape == (sched.phase2_len, width)
        for ell, c in enumerate(cfg.relay_columns, start=1):
            for t in sched.phase2_slots:
                blocks = [(p.per_block[(ell, t, k)], k) for k in sched.phase1_slots]
                expect = sum(v @ ledger.relay_values[k - 1][c] for v, k in blocks)
                assert np.linalg.norm(plan.signals[t - sched.phase1_len - 1][c] - expect) < 1e-12
                expect = sum(v @ ledger.relay[k - 1][c] for v, k in blocks)
                assert np.abs(plan.coeffs[t - sched.phase1_len - 1][c] - expect).max() < 1e-12


def test_unknown_relay_mode_rejected():
    _, sched, ch, s = twic_setup(7)
    with pytest.raises(ValueError, match="^unknown relay mode 'amplify'$"):
        relay_process(run_phase1(sched, ch, s), design_twic(ch), "amplify")


def test_zero_symbols_give_zero_transmit_plan():
    _, sched, ch, s = twic_setup(7)
    ledger = run_phase1(sched, ch, np.zeros_like(s))
    p = design_twic(ch)
    plan = relay_process(ledger, p, "decode_forward")
    assert plan.signals.shape == (sched.phase2_len, 2)
    for sig in plan.signals:
        assert np.linalg.norm(sig) < 1e-12


def test_phase2_neutralized_coefficient_is_tiny():
    _, sched, ch, s = twic_setup(8)
    p = design_twic(ch)
    ledger = run_phase1(sched, ch, s)
    plan = relay_process(ledger, p, "decode_forward")
    ledger = run_phase2(plan, sched, ch, ledger=ledger)
    row = ledger.rows[2, 0]  # user 1 in slot 3
    assert abs(row[sched.column[SymbolId(4, 2)]]) < 1e-10
    assert row.shape == (len(sched.symbols),)
    roles = {sym: cls(sched, 1, sym) for sym in sched.column}
    assert roles == {SymbolId(4, 2): "N", SymbolId(1, 3): "D",
                     SymbolId(3, 1): "SI", SymbolId(2, 4): "OI"}
    assert not sched.pure_slots(1)  # jointly decoded, not aligned


def test_twxc_overheard_part_replays_stored_equation():
    _, sched, ch, s = twxc_setup(9)
    p = design_twxc(ch)
    ledger = run_phase1(sched, ch, s)
    plan = relay_process(ledger, p, "decode_forward")
    ledger = run_phase2(plan, sched, ch, ledger=ledger)
    row5 = ledger.rows[4, 0]  # user 1's equations in slots 5 and 4
    assert sched.pure_slots(1) == {4}
    row4, value4 = ledger.rows[3, 0], ledger.values[3, 0]
    # user 1's OI symbols are all overheard in its pure slot: AOI
    assert {cls(sched, 1, sym) for sym in sched.symbols} == {"D", "SI", "AOI", "N"}
    oi = {sym: row5[c] for sym, c in sched.column.items() if cls(sched, 1, sym) == "AOI"}
    assert set(oi) == {sym for sym, c in sched.column.items() if row4[c] != 0}
    oi_value = sum(c * s[sched.column[sym]] for sym, c in oi.items())
    assert abs(oi_value - value4) < 1e-9
    assert alignment_error(ledger, sched, s) < 1e-9


def two_pure_schedule():
    # user 1 overhears both phase-1 slots and wants neither symbol: two pure slots
    return Schedule("two_pure", (1, 2, 3), (
        SlotPlan(frozenset({1, 3}), {2: SymbolId(3, 2)}),
        SlotPlan(frozenset({1, 2}), {3: SymbolId(2, 3)}),
        SlotPlan(frozenset({1, 2, 3})),
    ))


def deaf_schedule():
    # two_pure_schedule with user 1 deaf in the relay slot: its pure slots have nothing to replay
    plan = two_pure_schedule().slots
    return Schedule("deaf", (1, 2, 3), plan[:2] + (SlotPlan(frozenset({2, 3})),))


def unknowns(sched, k):
    """The columns user k zero-forces, from its one-user decode group."""
    return sched.decode_group([k]).unknowns[0]


def desired(sched, k):
    """User k's symbols of class D in the schedule's receive table, in column order."""
    return [sym for sym, c in zip(sched.symbols, sched.classes[k]) if c == "D"]


@pytest.mark.parametrize("sched", [
    schedule_twic(), schedule_twxc(),
    schedule_case1(3), schedule_case1(4), schedule_case1(6),
    schedule_case2(4), schedule_case2(5), schedule_case2(7),
    two_pure_schedule(),
], ids=lambda s: f"{s.name}-{len(s.users)}")
def test_unknowns_match_the_stored_equations(sched):
    # the decode system the schedule fixes is the one the ledger used to define:
    # desired symbols plus every symbol of a stored phase-1 equation off the pure slots
    ch = draw_channels(NetworkConfig(len(sched.users), (2,)), sched.n_slots, 23)
    ledger = run_phase1(sched, ch, draw_payload(sched, 24))
    assert [sched.symbols[c] for c in sched.column.values()] == list(sched.symbols)
    for k in sched.users:
        stored = {sym for t in sched.phase1_slots if t not in sched.pure_slots(k)
                  for sym, c in sched.column.items() if ledger.rows[t - 1, k - 1, c] != 0}
        g = sched.decode_group([k])
        assert [sched.symbols[c] for c in g.unknowns[0]] == sorted(set(desired(sched, k)) | stored)
        own, rest = g.own[0], g.rest[0]
        assert [sched.symbols[c] for c in own] == [sym for sym in sched.symbols if sym.src == k]
        assert sorted([*g.unknowns[0], *own, *rest]) == list(range(len(sched.symbols)))
        for c in rest:  # what must cancel or arrive neutralized
            sym = sched.symbols[c]
            assert cls(sched, k, sym) == "N" or sched.slot_of(sym) in sched.pure_slots(k)


def brute_force_class(sched, j, sym):
    """The receive rule from the slots' sends and listeners alone."""
    plan = next(sched.slot(t) for t in sched.phase1_slots if sym in sched.slot(t).sends.values())
    if sym.dest == j:
        return "D"
    if sym.src == j:
        return "SI"
    if j not in plan.destinations:
        return "N"
    return "OI" if any(s.dest == j for s in plan.sends.values()) else "AOI"


@pytest.mark.parametrize("sched", [
    schedule_twic(), schedule_twxc(),
    *(schedule_case1(k) for k in range(3, 9)),
    *(schedule_case2(k) for k in range(4, 9)),
    two_pure_schedule(),
], ids=lambda s: f"{s.name}-{len(s.users)}")
def test_receive_table_is_the_rule_and_feeds_every_view(sched):
    table = {j: [brute_force_class(sched, j, sym) for sym in sched.symbols] for j in sched.users}
    assert {j: list(row) for j, row in sched.classes.items()} == table
    for j in sched.users:
        def cols(*classes):
            return [c for c, x in enumerate(table[j]) if x in classes]

        pure = {t for t in sched.phase1_slots if j in sched.slot(t).destinations
                and all(s.dest != j for s in sched.slot(t).sends.values())}
        assert sched.pure_slots(j) == pure
        heard = [t for t in range(1, sched.n_slots + 1) if j in sched.slot(t).destinations]
        g = sched.decode_group([j])
        assert g.users.tolist() == [j]
        assert (g.kept[0] + 1).tolist() == [t for t in heard if t not in pure]
        assert g.split == sum(t <= sched.phase1_len for t in g.kept[0] + 1)
        assert (g.pure[0] + 1).tolist() == sorted(pure)
        assert [c.tolist() for c in (g.unknowns[0], g.own[0], g.rest[0])] == [
            cols("D", "OI"), cols("SI"), cols("AOI", "N")]
        assert g.desired[0].tolist() == [table[j][c] == "D" for c in cols("D", "OI")]
        assert [sched.symbols[c] for c in cols("SI")] == [sym for sym in sched.symbols if sym.src == j]
    for k in sched.phase1_slots:
        rows = []
        for i, sym in sched.slot(k).sends.items():
            c = sched.column[sym]
            rows += [(j, i, True) for j in sched.users if table[j][c] == "AOI"]
            rows += [(j, i, False) for j in sched.users if table[j][c] == "N"]
        rx, tx, aligned = sched.constraint_rows[k]
        assert rx.tolist() == [sched.users.index(j) for j, _, _ in rows]
        assert tx.tolist() == [sched.users.index(i) for _, i, _ in rows]
        assert aligned.tolist() == [a for _, _, a in rows]
    identities = []  # (user, pure slot, phase-2 slot, column) of every replay alignment checks
    for t, r, k, cols in sched.replays:
        assert t.shape == (len(r), t.shape[1]) and cols.shape == (len(r), cols.shape[1])
        identities += [(int(kk) + 1, int(rr) + 1, int(tt) + 1, int(c))
                       for tr, rr, kk, cr in zip(t, r, k, cols) for tt in tr for c in cr]
    assert sorted(identities) == sorted(
        (j, r, t, int(c)) for j in sched.users for r in sched.pure_slots(j)
        for t in sched.phase2_slots if j in sched.slot(t).destinations for c in sched.slot_columns[r])


def test_alignment_error_checks_every_pure_slot():
    sched = two_pure_schedule()
    assert sched.pure_slots(1) == {1, 2}
    ch = draw_channels(NetworkConfig(3, (2,)), sched.n_slots, 19)
    s = draw_payload(sched, 20)
    p = precoder.design(sched, ch)
    assert p.residual < 1e-9
    ledger = run_phase1(sched, ch, s)
    plan = relay_process(ledger, p, "linear_forward")
    ledger = run_phase2(plan, sched, ch, ledger=ledger)
    for k in (2, 3):
        res = decode_user(k, ledger, sched, s)
        assert [sched.symbols[c] for c in res.columns] == desired(sched, k)
        for c, est in zip(res.columns, res.recovered):
            assert abs(est - s[c]) < 1e-9
    assert alignment_error(ledger, sched, s) < 1e-9
    ledger.rows[2, 0, sched.column[SymbolId(2, 3)]] += 1e-6  # user 1, slot 3: a symbol of its second pure slot
    assert alignment_error(ledger, sched, s) > 1e-9


def test_zero_precoders_give_zero_received_values():
    _, sched, ch, s = twic_setup(10)
    p = design_twic(ch)
    p.bank[:] = 0
    ledger = run_phase1(sched, ch, s)
    plan = relay_process(ledger, p, "decode_forward")
    ledger = run_phase2(plan, sched, ch, ledger=ledger)
    for k in sched.users:
        assert abs(ledger.values[2, k - 1]) < 1e-12


def test_decode_user_twic_effective_system():
    _, sched, ch, s = twic_setup(11)
    p = design_twic(ch)
    ledger = run_phase1(sched, ch, s)
    plan = relay_process(ledger, p, "decode_forward")
    ledger = run_phase2(plan, sched, ch, ledger=ledger)
    res = decode_user(1, ledger, sched, s)
    assert res.matrix.shape == (2, 2)
    assert res.effective_rank == 2
    # first row is the stored direct observation
    assert res.matrix[0, 0] == ch.gain[1, 0, 2]
    assert res.matrix[0, 1] == ch.gain[1, 0, 3]
    assert res.columns.tolist() == [sched.column[SymbolId(1, 3)]]
    assert abs(res.recovered[0] - s[sched.column[SymbolId(1, 3)]]) < 1e-9
    assert res.stray_coeff < 1e-10


def test_self_interference_fully_removed():
    _, sched, ch, s = twic_setup(12)
    p = design_twic(ch)
    ledger = run_phase1(sched, ch, s)
    plan = relay_process(ledger, p, "decode_forward")
    ledger = run_phase2(plan, sched, ch, ledger=ledger)
    row, value = ledger.rows[2, 1], ledger.values[2, 1]  # user 2 in slot 3
    roles = {sym: cls(sched, 2, sym) for sym in sched.column}
    assert sorted(roles.values()) == ["D", "N", "OI", "SI"]
    terms = {sym: row[c] * s[c] for sym, c in sched.column.items()}
    cleaned = value - sum(x for sym, x in terms.items() if roles[sym] == "SI")
    rebuilt = sum(x for sym, x in terms.items() if roles[sym] != "SI")
    assert abs(cleaned - rebuilt) < 1e-10


@pytest.mark.parametrize(
    "scenario,cfg,dof,rank",
    [
        ("twic", NetworkConfig(4, (2,)), Fraction(4, 3), 2),
        ("twxc", NetworkConfig(4, (2,)), Fraction(8, 5), 2),
        ("case1", NetworkConfig(3, (2,)), Fraction(3, 2), 2),
        ("case1", NetworkConfig(4, (3,)), Fraction(2), 3),
        ("case2", NetworkConfig(4, (2,)), Fraction(8, 5), 2),
        ("case2", NetworkConfig(5, (3,)), Fraction(15, 7), 3),
    ],
)
def test_end_to_end_scenarios(scenario, cfg, dof, rank):
    rep = run_end_to_end(scenario, cfg, seed=13)
    assert rep.achieved_dof == dof
    assert rep.max_symbol_error < 1e-8
    assert rep.constraint_residual < 1e-9
    assert set(rep.effective_ranks.values()) == {rank}
    assert rep.symbols_delivered == len(rep.recovered)


def test_general_constructions_decode_system_shapes():
    # smallest instances stack one stored phase-1 row with one relay row
    for scenario, cfg in [("case1", NetworkConfig(3, (2,))), ("case2", NetworkConfig(4, (2,)))]:
        from stpnc.protocol import _execute

        sched, _, s, _, ledger, failures = _execute(scenario, cfg, [21], None)
        assert failures == {}
        for k in sched.users:
            res = decode_user(k, ledger, sched, s)
            assert res.matrix.shape == (1, 2, 2)
            assert res.effective_rank.tolist() == [2]
            assert res.recovered.shape == (1, len(desired(sched, k)))
            assert [sched.symbols[c] for c in res.columns] == desired(sched, k)


def test_relay_modes_agree_noiselessly():
    for scenario, cfg in [
        ("twic", NetworkConfig(4, (2,))),
        ("twxc", NetworkConfig(4, (2,))),
        ("case1", NetworkConfig(3, (2,))),
        ("case2", NetworkConfig(4, (2,))),
        ("case1", NetworkConfig(4, (3, 3))),  # each relay decodes from its own rows
    ]:
        a = run_end_to_end(scenario, cfg, 14, relay_mode="decode_forward")
        b = run_end_to_end(scenario, cfg, 14, relay_mode="linear_forward")
        for sym in a.recovered:
            assert abs(a.recovered[sym] - b.recovered[sym]) < 1e-9


def test_end_to_end_is_deterministic():
    cfg = NetworkConfig(4, (2,))
    a = run_end_to_end("twxc", cfg, 15)
    b = run_end_to_end("twxc", cfg, 15)
    assert a.recovered == b.recovered
    assert a.max_symbol_error == b.max_symbol_error


def test_noisy_mode_perturbs_but_stays_close():
    cfg = NetworkConfig(4, (2,), noise_var=1e-8)
    rep = run_end_to_end("twic", cfg, 16)
    assert rep.max_symbol_error > 0
    assert rep.max_symbol_error < 1e-2


def test_ledger_linearity_reflects_noise_level():
    cfg = NetworkConfig(4, (2,))
    sched = schedule_twic()
    ch = draw_channels(cfg, 3, 17)
    s = draw_payload(sched, 18)
    noiseless = run_phase1(sched, ch, s, noise_var=0.0, seed=1)
    assert ledger_linearity_error(noiseless, s) < 1e-12
    noisy = run_phase1(sched, ch, s, noise_var=1e-4, seed=1)
    err = ledger_linearity_error(noisy, s)
    assert 1e-4 < err < 1e-1


def test_noisy_relay_bank_keeps_the_per_relay_noise_stream():
    # phase 1 draws, per slot, one _noise(rng, 1) call per listening user in user order,
    # then one _noise(rng, M_l) call per relay l = 1..L (M_l real parts, then M_l
    # imaginary ones); every user's and the relay bank's noise must keep that stream bit for bit
    cfg = NetworkConfig(5, (2, 3, 1), noise_var=1e-3)
    sched = schedule_case2(5)
    ch = draw_channels(cfg, sched.n_slots, 31)
    s = draw_payload(sched, 32)
    ledger = run_phase1(sched, ch, s, cfg.noise_var, seed=33)
    clean = run_phase1(sched, ch, s)
    assert np.array_equal(ledger.rows, clean.rows) and np.array_equal(ledger.relay, clean.relay)
    rng = np.random.default_rng(33)
    scale = np.sqrt(cfg.noise_var / 2.0)

    def noise(n):
        return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))

    for t in sched.phase1_slots:
        for k in sorted(sched.slot(t).destinations):
            drawn, value = noise(1)[0], ledger.values[t - 1, k - 1]
            assert value == clean.values[t - 1, k - 1] + drawn
            assert abs(value - (ledger.rows[t - 1, k - 1] @ s + drawn)) < 1e-14
        expect = np.concatenate([noise(m) for m in cfg.relay_antennas])
        assert np.array_equal(ledger.relay_values[t - 1], clean.relay_values[t - 1] + expect)
        assert np.array_equal(ledger.relay_values[t - 1], ledger.relay[t - 1] @ s + expect)
        assert np.abs(expect).min() > 0
    assert not ledger.values[~sched.listens].any()  # no noise where nobody listens


def test_verify_scenario_summary():
    summary = verify_scenario("twic", NetworkConfig(4, (2,)), n_seeds=5, base_seed=0)
    assert summary["passed"] is True
    assert summary["failures"] == []
    assert summary["expected_dof"] == "4/3"
    assert summary["max_symbol_error"] < 1e-8
    assert summary["max_constraint_residual"] < 1e-9
    assert summary["rank_ok"] is True


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError):
        run_end_to_end("bogus", NetworkConfig(4, (2,)), 0)


def test_unknown_scenario_error_lists_the_registry_keys():
    for call in (lambda: run_end_to_end("bogus", NetworkConfig(4, (2,)), 0),
                 lambda: verify_scenario("bogus", NetworkConfig(4, (2,)), 1),
                 lambda: scenario_schedule("bogus")):
        with pytest.raises(ValueError) as exc:
            call()
        assert "'bogus'" in str(exc.value)
        assert all(repr(name) in str(exc.value) for name in protocol.SCENARIOS)


@pytest.mark.parametrize("scenario,K", [("twic", 5), ("twxc", 3), ("case1", 2), ("case2", 3)])
def test_library_rejects_a_user_count_the_schedule_cannot_take(scenario, K):
    cfg = NetworkConfig(K, (2,))
    with pytest.raises(InvalidUserCount, match=f"^{scenario} "):
        run_end_to_end(scenario, cfg, 0)
    with pytest.raises(InvalidUserCount, match=f"^{scenario} "):
        verify_scenario(scenario, cfg, 1)


def test_registry_builds_one_cached_schedule_per_scenario_and_count():
    assert scenario_schedule("twic") is scenario_schedule("twic", 4) is schedule_twic()
    assert scenario_schedule("twxc", 4) is schedule_twxc()
    assert scenario_schedule("case1", 5) is schedule_case1(5)
    assert scenario_schedule("case2", 6) is schedule_case2(6)
    for entry in protocol.SCENARIOS.values():
        assert entry.relay_mode in ("decode_forward", "linear_forward")
        # a schedule that fixes its user count also fixes its relay set; builders that fix it ignore K
        assert (entry.user_flag is None) == (entry.schedule(5).relays is not None)


# fault injection: each test perturbs one input of an otherwise passing run and
# checks that verify_scenario fails the seed through the gate meant to catch it

def test_verify_fails_on_perturbed_precoder_block(monkeypatch):
    real = precoder.solve_least_norm
    state = {"done": False}

    def faulty(a, b, x0=None):
        x, ok = real(a, b, x0)
        if not state["done"]:
            x[0, 0, 0, 0] += 1e-6  # seed 0: one entry of one relay block of the first slot pair
            state["done"] = True
        return x, ok

    monkeypatch.setattr(precoder, "solve_least_norm", faulty)
    summary = verify_scenario("case1", NetworkConfig(4, (3,)), n_seeds=2)
    assert summary["failures"] == [0]
    assert summary["max_constraint_residual"] >= 1e-9


def test_verify_fails_on_perturbed_ledger_coefficient(monkeypatch):
    real, sched = protocol.relay_process, scenario_schedule("case2", 4)

    def faulty(ledger, p, *args, **kwargs):
        plan = real(ledger, p, *args, **kwargs)
        # after the relays used it: only the stored equation is now wrong, on every seed;
        # slot 1's row 0, relay 1's first antenna
        ledger.relay[..., 0, 0, sched.column[min(sched.slot(1).sends.values())]] += 1e-6
        return plan

    monkeypatch.setattr(protocol, "relay_process", faulty)
    summary = verify_scenario("case2", NetworkConfig(4, (2,)), n_seeds=2)
    assert summary["failures"] == [0, 1]
    assert summary["max_linearity_error"] >= 1e-9
    assert summary["max_symbol_error"] < 1e-8  # decoding alone would not see it


def test_verify_fails_on_perturbed_oi_coefficient(monkeypatch):
    real = protocol.run_phase2

    def faulty(plan, sched, *args, **kwargs):
        ledger = real(plan, sched, *args, **kwargs)
        t = next(t for t in sched.phase2_slots if sched.listens[t - 1, 0])  # user 1's first phase-2 equation
        sym = next(s for s in sched.symbols if sched.slot_of(s) in sched.pure_slots(1))
        # every seed; the stray gate sees it too: decoding leaves it uncancelled
        ledger.rows[..., t - 1, 0, sched.column[sym]] += 1e-6
        return ledger

    monkeypatch.setattr(protocol, "run_phase2", faulty)
    summary = verify_scenario("twxc", NetworkConfig(4, (2,)), n_seeds=2)
    assert summary["failures"] == [0, 1]
    assert summary["max_alignment_error"] >= 1e-9
    assert summary["max_symbol_error"] < 1e-8


def test_verify_fails_on_stray_coefficient(monkeypatch):
    real = protocol.decode_user

    def faulty(group, *args, **kwargs):
        res = real(group, *args, **kwargs)
        res.stray_coeff[..., group.users.tolist().index(2)] = 1e-6  # user 2, every seed
        return res

    monkeypatch.setattr(protocol, "decode_user", faulty)
    summary = verify_scenario("twic", NetworkConfig(4, (2,)), n_seeds=2)
    assert summary["failures"] == [0, 1]
    assert summary["max_symbol_error"] < 1e-8


def test_simulate_achieved_dof_counts_recovered_symbols():
    # noise leaves some symbols outside SYMBOL_ERROR_TOL; the achieved DoF counts
    # only the recovered ones, not the schedule's 4/3
    cfg = NetworkConfig(4, (2,), noise_var=1e-16)
    for i, ok in [(0, 1), (1, 2), (2, 1)]:
        seed = derive_trial_seed(1, i)
        rep = run_end_to_end("twic", cfg, seed)
        s = draw_payload(schedule_twic(), derive_trial_seed(seed, 1))
        column = schedule_twic().column
        errors = [abs(est - s[column[sym]]) / abs(s[column[sym]]) for sym, est in rep.recovered.items()]
        assert sum(err < protocol.SYMBOL_ERROR_TOL for err in errors) == ok
        assert rep.achieved_dof == Fraction(ok, 3)
        assert rep.symbols_delivered == 4 and rep.slots_used == 3


def test_achieved_dof_counts_recovered_symbols(monkeypatch):
    real = protocol.decode_user

    def faulty(group, *args, **kwargs):
        res = real(group, *args, **kwargs)
        assert group.users[0] == 1  # the estimates run user after user: user 1's come first
        res.recovered[..., 0] *= 1.5  # user 1's first desired symbol, every seed
        return res

    monkeypatch.setattr(protocol, "decode_user", faulty)
    summary = verify_scenario("case1", NetworkConfig(3, (2,)), n_seeds=1)
    assert summary["passed"] is False
    assert summary["expected_dof"] == "3/2"
    assert summary["achieved_dof"] == "mismatch"


# seeds as a batch axis: a chunk of seeds is one pass of every stage, and each seed comes
# out as it would alone

def fold(reports, sched):
    """verify_scenario's summary fields, folded from one SimReport per seed."""
    expected_dof = Fraction(len(sched.symbols), sched.n_slots)
    expected_rank = {k: len(unknowns(sched, k)) for k in sched.users}
    failures = [i for i, rep in enumerate(reports)
                if rep.effective_ranks != expected_rank or rep.achieved_dof != expected_dof
                or rep.max_symbol_error >= protocol.SYMBOL_ERROR_TOL
                or max(rep.constraint_residual, rep.alignment_error, rep.linearity_error,
                       rep.max_stray_coeff) >= protocol.RESIDUAL_TOL]
    return {
        "achieved_dof": str(expected_dof) if all(r.achieved_dof == expected_dof for r in reports)
        else "mismatch",
        "rank_ok": all(r.effective_ranks == expected_rank for r in reports),
        "failures": failures,
        "passed": not failures,
        "max_symbol_error": max(r.max_symbol_error for r in reports),
        "max_constraint_residual": max(r.constraint_residual for r in reports),
        "max_alignment_error": max(r.alignment_error for r in reports),
        "max_linearity_error": max(r.linearity_error for r in reports),
    }


@pytest.mark.parametrize("scenario,cfg", [
    ("twic", NetworkConfig(4, (2,))),
    ("twxc", NetworkConfig(4, (2,))),
    ("case1", NetworkConfig(4, (1, 1, 1, 2))),
    ("case2", NetworkConfig(5, (2, 2, 1))),
    ("case1", NetworkConfig(6, (1,) * 21)),
    ("case2", NetworkConfig(4, (2,))),
], ids=["twic", "twxc", "case1-1112", "case2-221", "case1-21x1", "case2-2"])
def test_verify_over_one_chunk_is_the_fold_of_single_seed_reports(scenario, cfg):
    sched = scenario_schedule(scenario, cfg.K)
    assert protocol.chunk_seeds(sched, cfg) >= 7  # the seven seeds run as one batch
    summary = verify_scenario(scenario, cfg, n_seeds=7, base_seed=4)
    expect = fold([run_end_to_end(scenario, cfg, derive_trial_seed(4, i)) for i in range(7)], sched)
    for key, value in expect.items():
        if isinstance(value, float):
            assert abs(summary[key] - value) <= 1e-12, key
        else:
            assert summary[key] == value, key


def faulty_twxc_chunk(monkeypatch):
    """Four twxc seeds of one chunk, two of them broken: seed 2 loses its uplinks, so design
    cannot meet the alignment targets, and seed 1's user 1 hears nothing in slot 3, so its
    decode system is rank deficient. Returns the config and the seeds."""
    cfg = NetworkConfig(4, (2,))
    seeds = [derive_trial_seed(0, i) for i in range(4)]
    no_uplink, deaf = derive_trial_seed(seeds[2], 0), derive_trial_seed(seeds[1], 0)
    real = protocol.draw_channels

    def faulty(cfg, slots, seed):
        ch = real(cfg, slots, seed)
        for i, s in enumerate(seed):  # the pipeline draws batches, even of one seed
            if s == no_uplink:
                ch.up[i] = 0.0
            if s == deaf:
                ch.gain[i, 2, 0] = 0.0
        return ch

    monkeypatch.setattr(protocol, "draw_channels", faulty)
    assert protocol.chunk_seeds(scenario_schedule("twxc"), cfg) >= 4
    return cfg, seeds


def test_a_failing_chunk_raises_its_first_failing_seed_as_alone(monkeypatch):
    # one pass over the chunk, no replay, raises seed 1's failure exactly as seed 1 alone does
    cfg, seeds = faulty_twxc_chunk(monkeypatch)
    with pytest.raises(AntennaDeficit, match=r"^alignment constraints for slot pair \(5,1\) are infeasible$"):
        run_end_to_end("twxc", cfg, seeds[2])
    with pytest.raises(RankDeficient, match=r"^user 1: effective rank 1 < 2 unknowns$") as alone:
        run_end_to_end("twxc", cfg, seeds[1])
    # the chunk's design and relay record: seed 2, its design failure before its relay's
    failures = protocol._execute("twxc", cfg, seeds, None)[5]
    assert list(failures) == [2] and str(failures[2]) == \
        "alignment constraints for slot pair (5,1) are infeasible"
    real, passes = protocol._run, []

    def counted(scenario, cfg, seeds, relay_mode):
        passes.append(seeds)
        return real(scenario, cfg, seeds, relay_mode)

    monkeypatch.setattr(protocol, "_run", counted)
    with pytest.raises(RankDeficient) as exc:
        verify_scenario("twxc", cfg, n_seeds=4)
    assert passes == [seeds]
    assert str(exc.value) == str(alone.value)
    assert run_end_to_end("twxc", cfg, seeds[0]).achieved_dof == Fraction(8, 5)


def test_a_failing_seed_stays_in_its_own_slot_of_the_batch(monkeypatch):
    # seeds 0 and 3 of the faulty chunk get the ledger and the decode each gets alone: the
    # failed design of seed 2 leaves finite arrays that cannot fail the batched solves
    cfg, seeds = faulty_twxc_chunk(monkeypatch)
    sched, _, s, _, batch, _ = protocol._execute("twxc", cfg, seeds, None)
    for i in (0, 3):
        _, _, own, _, alone, failures = protocol._execute("twxc", cfg, [seeds[i]], None)
        assert failures == {}
        for name in ("rows", "values", "relay", "relay_values"):
            assert np.array_equal(getattr(batch, name)[i], getattr(alone, name)[0]), name
        for k in sched.users:
            got, want = decode_user(k, batch, sched, s), decode_user(k, alone, sched, own)
            assert i not in got.failures and want.failures == {}
            assert np.array_equal(got.columns, want.columns)
            assert np.array_equal(want.recovered[0], got.recovered[i])


@pytest.mark.parametrize("scenario,cfg,seeds", [
    ("case1", NetworkConfig(10, (9,)), 40),       # about 16 MB of stacks per seed: chunks of one
    ("case2", NetworkConfig(6, (1,) * 16), 40),   # several chunks, the last one short
], ids=["case1-10-on-9", "case2-16x1"])
def test_verify_chunks_stay_within_the_byte_budget(monkeypatch, scenario, cfg, seeds):
    chunk = protocol.chunk_seeds(scenario_schedule(scenario, cfg.K), cfg)
    real, leading = precoder.solve_least_norm, []

    def record(a, b, x0=None):
        leading.append(a.shape[0])
        return real(a, b, x0)

    monkeypatch.setattr(precoder, "solve_least_norm", record)
    assert verify_scenario(scenario, cfg, n_seeds=seeds)["passed"]
    assert sum(leading) == seeds
    assert max(leading) <= chunk
    assert len(leading) == -(-seeds // chunk)
    assert chunk == 1 if cfg.K == 10 else 1 < chunk < seeds


def test_noiseless_phases_build_no_generator(monkeypatch):
    cfg, sched, ch, s = twic_setup(3)
    real, drawn = channel.standard_normals, []

    def counting(seeds, shape):
        drawn.append(([int(seed) for seed in seeds], shape))
        return real(seeds, shape)

    def no_generator(*args):
        raise AssertionError("a generator outside the batched draw")

    monkeypatch.setattr(channel, "standard_normals", counting)
    monkeypatch.setattr(protocol, "standard_normals", counting)
    ledger = run_phase1(sched, ch, s, 0.0, seed=5)
    plan = relay_process(ledger, design_twic(ch), "decode_forward")
    run_phase2(plan, sched, ch, 0.0, seed=6, ledger=ledger)
    assert drawn == []
    ledger = run_phase1(sched, ch, s, 1e-3, seed=5)
    run_phase2(plan, sched, ch, 1e-3, seed=6, ledger=ledger)
    # phase 1: 2 slots of 2 listening users and the 2 relay antennas; phase 2: 4 users
    assert drawn == [([5], (16,)), ([6], (8,))]
    drawn.clear()
    with monkeypatch.context() as m:
        m.setattr(np.random, "default_rng", no_generator)  # the helper itself may not build one
        m.setattr(channel, "_BATCH_SEEDING", 1)
        verify_scenario("twic", cfg, n_seeds=5)
    # one batched draw of the channels and one of the payload, nothing else
    seeds = [derive_trial_seed(0, i) for i in range(5)]
    assert drawn == [([derive_trial_seed(seed, 0) for seed in seeds], (3, 2, 28)),
                     ([derive_trial_seed(seed, 1) for seed in seeds], (2, 4))]


def test_noisy_batch_keeps_each_seeds_noise_stream():
    # a batch's noise is each seed's own stream, user after user, then relay after relay
    cfg = NetworkConfig(5, (2, 3, 1), noise_var=1e-3)
    seeds = [derive_trial_seed(2, i) for i in range(3)]
    batch = protocol._execute("case2", cfg, seeds, None)[4]
    for i, seed in enumerate(seeds):
        alone = protocol._execute("case2", cfg, [seed], None)[4]
        for name in ("rows", "values", "relay", "relay_values"):
            assert np.array_equal(getattr(batch, name)[i], getattr(alone, name)[0]), name


@pytest.mark.parametrize("sched", [schedule_twic(), schedule_twxc(), schedule_case2(5)],
                         ids=["twic", "twxc", "case2-5"])
def test_payload_is_each_seeds_draw_bitwise(sched):
    # one row per seed, in Schedule.symbols column order; the symbol-id view is one seed's row
    seeds = [derive_trial_seed(9, i) for i in range(5)]
    batch = draw_payload(sched, seeds)
    assert batch.shape == (len(seeds), len(sched.symbols)) and batch.dtype == complex
    for i, seed in enumerate(seeds):
        alone = draw_payload(sched, seed)
        assert alone.shape == (len(sched.symbols),) and batch[i].tobytes() == alone.tobytes()
        assert draw_symbols(sched, seed) == dict(zip(sched.symbols, draw_payload(sched, seed)))


@pytest.mark.parametrize("scenario,cfg", [
    ("twic", NetworkConfig(4, (2,))),
    ("case2", NetworkConfig(5, (2, 2, 1))),
], ids=["twic", "case2-221"])
def test_symbol_errors_are_pythons_abs_of_the_recovered_symbols(scenario, cfg):
    # the batched errors keep the bits of abs(est - s) / abs(s) on Python complex numbers
    # (libm's hypot), which np.abs does not reproduce
    sched = scenario_schedule(scenario, cfg.K)
    for i in range(20):
        seed = derive_trial_seed(6, i)
        rep = run_end_to_end(scenario, cfg, seed)
        syms = dict(zip(sched.symbols, draw_payload(sched, derive_trial_seed(seed, 1)).tolist()))
        assert rep.max_symbol_error == max(abs(est - syms[sym]) / abs(syms[sym])
                                           for sym, est in rep.recovered.items())


# the ledger is the schedule's (slot, user) grid: rows, values, relay and relay_values

@pytest.mark.parametrize("scenario,cfg", [
    ("twic", NetworkConfig(4, (2,))),
    ("twxc", NetworkConfig(4, (2,))),
    ("case1", NetworkConfig(4, (1, 1, 1, 2))),
    ("case2", NetworkConfig(5, (2, 2, 1))),
    ("case1", NetworkConfig(6, (1,) * 21)),
], ids=["twic", "twxc", "case1-1112", "case2-221", "case1-21x1"])
def test_a_batched_ledger_is_each_seeds_own_ledger_bitwise(scenario, cfg):
    seeds = [derive_trial_seed(8, i) for i in range(4)]
    batch = protocol._execute(scenario, cfg, seeds, None)[4]
    for i, seed in enumerate(seeds):
        alone = protocol._execute(scenario, cfg, [seed], None)[4]
        for name in ("rows", "values", "relay", "relay_values"):
            got, want = getattr(batch, name)[i], getattr(alone, name)[0]
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


def grid_ledger(sched, antennas, seeds):
    """Both phases of sched on a batch of seeds, linear-forward."""
    ch = draw_channels(NetworkConfig(len(sched.users), antennas), sched.n_slots, seeds)
    s = draw_payload(sched, [seed + 100 for seed in seeds])
    ledger = run_phase1(sched, ch, s)
    plan = relay_process(ledger, precoder.design(sched, ch), "linear_forward")
    return run_phase2(plan, sched, ch, ledger=ledger), s


@pytest.mark.parametrize("sched,antennas", [
    (schedule_case2(5), (2, 2, 1)), (two_pure_schedule(), (2,)), (deaf_schedule(), (2,)),
], ids=["case2-5", "two_pure", "deaf"])
def test_b_rows_and_values_are_zero_wherever_nobody_listens(sched, antennas):
    ledger, s = grid_ledger(sched, antennas, [41, 42])
    n1, deaf = sched.phase1_len, ~sched.listens
    assert ledger.rows.shape == (2, sched.n_slots, len(sched.users), len(sched.symbols))
    assert deaf[:n1].any()
    assert not ledger.rows[:, deaf].any() and not ledger.values[:, deaf].any()
    # every heard cell holds its equation: the slot's symbols in phase 1, a relay row after
    carried = np.zeros((n1, len(sched.symbols)), dtype=bool)
    for t in sched.phase1_slots:
        carried[t - 1, sched.slot_columns[t]] = True
    for t, k in zip(*np.nonzero(sched.listens)):
        if t < n1:
            assert np.array_equal(ledger.rows[:, t, k] != 0, np.broadcast_to(carried[t], (2, carried.shape[1])))
        else:
            assert np.all(ledger.values[:, t, k] != 0)
    assert np.all(ledger_linearity_error(ledger, s) < 1e-12)
    assert np.all(alignment_error(ledger, sched, s) < 1e-9)


@pytest.mark.parametrize("sched,antennas", [
    (schedule_twxc(), (2,)), (schedule_case2(5), (2, 2, 1)), (two_pure_schedule(), (2,)),
], ids=["twxc", "case2-5", "two_pure"])
def test_c_decode_system_is_the_heard_non_pure_rows_in_slot_order(sched, antennas):
    ledger, s = grid_ledger(sched, antennas, [51, 52, 53])
    for k in sched.users:
        if not unknowns(sched, k).size:
            continue
        res = decode_user(k, ledger, sched, s)
        slots = [t for t in range(1, sched.n_slots + 1)
                 if k in sched.slot(t).destinations and t not in sched.pure_slots(k)]
        want = ledger.rows[:, np.array(slots) - 1, k - 1][..., unknowns(sched, k)]
        assert res.matrix.shape == want.shape and np.array_equal(res.matrix, want)
        assert [sched.symbols[c] for c in res.columns] == desired(sched, k)
        assert res.recovered.shape == (3, len(res.columns))
        assert np.abs(res.recovered - s[:, res.columns]).max() < 1e-9


def test_effective_rank_is_the_kept_count_of_a_short_system():
    # zeroing every row user 1 stored for seed 1 leaves its system no singular value above the
    # cutoff: its effective rank reads 0, below its 2 unknowns, next to its RankDeficient record
    sched = schedule_twxc()
    ledger, s = grid_ledger(sched, (2,), [71, 72, 73])
    ledger.rows[1, :, 0], ledger.values[1, :, 0] = 0.0, 0.0
    (group,) = sched.decode_groups
    res = decode_user(group, ledger, sched, s)
    assert res.effective_rank.tolist() == [[2, 2, 2, 2], [0, 2, 2, 2], [2, 2, 2, 2]]
    assert list(res.failures) == [1] and str(res.failures[1]) == "user 1: effective rank 0 < 2 unknowns"
    alone = decode_user(1, ledger, sched, s)
    assert alone.effective_rank.tolist() == [2, 0, 2] and len(unknowns(sched, 1)) == 2
    assert str(alone.failures[1]) == str(res.failures[1]) and list(alone.failures) == [1]
