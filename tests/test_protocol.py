from fractions import Fraction

import numpy as np
import pytest

from stpnc import precoder, protocol
from stpnc.channel import NetworkConfig, derive_trial_seed, draw_channels
from stpnc.linalg import RankDeficient
from stpnc.precoder import AntennaDeficit, design_twic, design_twxc
from stpnc.protocol import (
    alignment_error,
    decode_user,
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
    syms = draw_symbols(sched, seed + 1)
    return cfg, sched, ch, syms


def twxc_setup(seed):
    cfg = NetworkConfig(4, (2,))
    sched = schedule_twxc()
    ch = draw_channels(cfg, 5, seed)
    syms = draw_symbols(sched, seed + 1)
    return cfg, sched, ch, syms


def test_phase1_user_equation_coefficients():
    _, sched, ch, syms = twic_setup(0)
    ledger = run_phase1(sched, ch, syms)
    eq = ledger.users[3][0]
    assert eq.slot == 1
    assert eq.coeffs.shape == (len(sched.symbols),)
    assert eq.coeffs[sched.column[SymbolId(3, 1)]] == ch.gain[0, 2, 0]
    assert eq.coeffs[sched.column[SymbolId(4, 2)]] == ch.gain[0, 2, 1]
    assert np.count_nonzero(eq.coeffs) == 2  # only the slot's two symbols
    expect = ch.gain[0, 2, 0] * syms[SymbolId(3, 1)] + ch.gain[0, 2, 1] * syms[SymbolId(4, 2)]
    assert eq.value == expect


def test_phase1_relay_gets_four_scalar_equations():
    _, sched, ch, syms = twic_setup(1)
    ledger = run_phase1(sched, ch, syms)
    eqs = list(ledger.relays.values())  # the one relay's equations
    # two slots, one scalar equation per antenna in each
    assert sum(eq.value.shape[0] for eq in eqs) == 4
    covered = set()
    for eq in eqs:
        heard = {sym for sym, c in sched.column.items() if eq.coeffs[:, c].any()}
        assert heard == set(sched.slot(eq.slot).sends.values())
        covered.update(heard)
        for m in range(eq.value.shape[0]):
            pred = sum(eq.coeffs[m, c] * syms[sym] for sym, c in sched.column.items())
            assert abs(eq.value[m] - pred) < 1e-12
    assert covered == set(sched.symbols)


def test_relay_decodes_all_symbols_noiselessly():
    _, sched, ch, syms = twic_setup(2)
    ledger = run_phase1(sched, ch, syms)
    decoded = relay_decode(ledger, 1, ch.config.relay_columns[0])
    assert decoded.shape == (len(sched.symbols),)
    for sym in sched.symbols:
        assert abs(decoded[sched.column[sym]] - syms[sym]) < 1e-9


def test_relay_decode_rank_deficient_for_single_antenna_relay():
    cfg = NetworkConfig(4, (1, 1, 1, 2))
    sched = schedule_case1(4)
    ch = draw_channels(cfg, sched.n_slots, 3)
    syms = draw_symbols(sched, 4)
    ledger = run_phase1(sched, ch, syms)
    # one antenna over four slots gives four equations in twelve symbols
    with pytest.raises(RankDeficient, match=r"^relay 1: effective rank 4 < 12 symbols$"):
        relay_decode(ledger, 1, cfg.relay_columns[0])


def test_linear_forward_matches_brute_force():
    # per relay, in slot order: each block applied to that relay's own reception
    for sched, cfg in [(schedule_case1(3), NetworkConfig(3, (2,))),
                       (schedule_case2(5), NetworkConfig(5, (2, 3, 1)))]:
        ch = draw_channels(cfg, sched.n_slots, 5)
        syms = draw_symbols(sched, 6)
        p = precoder.design(sched, ch)
        ledger = run_phase1(sched, ch, syms)
        plan = relay_process(ledger, p, sched, "linear_forward")
        for ell, c in enumerate(cfg.relay_columns, start=1):
            for t in sched.phase2_slots:
                blocks = [(p.per_block[(ell, t, k)], ledger.relays[k]) for k in sched.phase1_slots]
                expect = sum(v @ eq.value[c] for v, eq in blocks)
                assert np.linalg.norm(plan.signals[t][c] - expect) < 1e-12
                expect = sum(v @ eq.coeffs[c] for v, eq in blocks)
                assert np.abs(plan.coeffs[t][c] - expect).max() < 1e-12


def test_zero_symbols_give_zero_transmit_plan():
    _, sched, ch, syms = twic_setup(7)
    zeros = {sym: 0.0 for sym in syms}
    ledger = run_phase1(sched, ch, zeros)
    p = design_twic(ch)
    plan = relay_process(ledger, p, sched, "decode_forward")
    for sig in plan.signals.values():
        assert np.linalg.norm(sig) < 1e-12


def test_phase2_neutralized_coefficient_is_tiny():
    _, sched, ch, syms = twic_setup(8)
    p = design_twic(ch)
    ledger = run_phase1(sched, ch, syms)
    plan = relay_process(ledger, p, sched, "decode_forward")
    ledger = run_phase2(plan, sched, ch, ledger=ledger)
    eq = [e for e in ledger.users[1] if e.slot == 3][0]
    assert abs(eq.coeffs[sched.column[SymbolId(4, 2)]]) < 1e-10
    assert eq.coeffs.shape == (len(sched.symbols),)
    roles = {sym: sched.role(1, sym) for sym in sched.column}
    assert roles == {SymbolId(4, 2): "N", SymbolId(1, 3): "D",
                     SymbolId(3, 1): "SI", SymbolId(2, 4): "OI"}
    assert not sched.pure_slots(1)  # jointly decoded, not aligned


def test_twxc_overheard_part_replays_stored_equation():
    _, sched, ch, syms = twxc_setup(9)
    p = design_twxc(ch)
    ledger = run_phase1(sched, ch, syms)
    plan = relay_process(ledger, p, sched, "decode_forward")
    ledger = run_phase2(plan, sched, ch, ledger=ledger)
    eq5 = [e for e in ledger.users[1] if e.slot == 5][0]
    assert sched.pure_slots(1) == {4}
    y4 = [e for e in ledger.users[1] if e.slot == 4][0]
    oi = {sym: eq5.coeffs[c] for sym, c in sched.column.items() if sched.role(1, sym) == "OI"}
    assert set(oi) == {sym for sym, c in sched.column.items() if y4.coeffs[c] != 0}
    oi_value = sum(c * syms[sym] for sym, c in oi.items())
    assert abs(oi_value - y4.value) < 1e-9
    assert alignment_error(ledger, sched, syms) < 1e-9


def two_pure_schedule():
    # user 1 overhears both phase-1 slots and wants neither symbol: two pure slots
    return Schedule("two_pure", (1, 2, 3), (
        SlotPlan(frozenset({1, 3}), {2: SymbolId(3, 2)}),
        SlotPlan(frozenset({1, 2}), {3: SymbolId(2, 3)}),
        SlotPlan(frozenset({1, 2, 3})),
    ), phase1_len=2, phase2_len=1)


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
    ledger = run_phase1(sched, ch, draw_symbols(sched, 24))
    assert [sched.symbols[c] for c in sched.column.values()] == list(sched.symbols)
    for k in sched.users:
        stored = {sym for eq in ledger.users[k] if eq.slot not in sched.pure_slots(k)
                  for sym, c in sched.column.items() if eq.coeffs[c] != 0}
        unknowns = [sched.symbols[c] for c in sched.unknowns(k)]
        assert unknowns == sorted(set(desired(sched, k)) | stored)
        _, own, rest = sched.decode_columns[k]
        assert [sched.symbols[c] for c in own] == list(sched.own_symbols(k))
        assert sorted([*sched.unknowns(k), *own, *rest]) == list(range(len(sched.symbols)))
        for c in rest:  # what must cancel or arrive neutralized
            sym = sched.symbols[c]
            assert sched.role(k, sym) == "N" or sched.slot_of(sym) in sched.pure_slots(k)


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

        for sym, x in zip(sched.symbols, table[j]):
            assert sched.role(j, sym) == ("OI" if x == "AOI" else x)
        pure = {t for t in sched.phase1_slots if j in sched.slot(t).destinations
                and all(s.dest != j for s in sched.slot(t).sends.values())}
        assert sched.pure_slots(j) == pure
        assert [list(c) for c in sched.decode_columns[j]] == [
            cols("D", "OI"), cols("SI"), cols("AOI", "N")]
        assert list(sched.unknowns(j)) == cols("D", "OI")
        assert list(sched.own_symbols(j)) == [sched.symbols[c] for c in cols("SI")]
    for k in sched.phase1_slots:
        rows = []
        for i, sym in sched.slot(k).sends.items():
            c = sched.column[sym]
            rows += [(j, i, True) for j in sched.users if table[j][c] == "AOI"]
            rows += [(j, i, False) for j in sched.users if table[j][c] == "N"]
        view, rx, tx = sched.constraint_rows[k]
        assert view == tuple(rows)
        assert rx.tolist() == [sched.users.index(j) for j, _, _ in rows]
        assert tx.tolist() == [sched.users.index(i) for _, i, _ in rows]


def test_alignment_error_checks_every_pure_slot():
    sched = two_pure_schedule()
    assert sched.pure_slots(1) == {1, 2}
    ch = draw_channels(NetworkConfig(3, (2,)), sched.n_slots, 19)
    syms = draw_symbols(sched, 20)
    p = precoder.design(sched, ch)
    assert p.residual < 1e-9
    ledger = run_phase1(sched, ch, syms)
    plan = relay_process(ledger, p, sched, "linear_forward")
    ledger = run_phase2(plan, sched, ch, ledger=ledger)
    for k in (2, 3):
        own = {sym: syms[sym] for sym in sched.own_symbols(k)}
        res = decode_user(k, ledger, sched, own)
        assert set(res.recovered) == set(desired(sched, k))
        for sym, est in res.recovered.items():
            assert abs(est - syms[sym]) < 1e-9
    assert alignment_error(ledger, sched, syms) < 1e-9
    eq = next(e for e in ledger.users[1] if e.slot == 3)
    eq.coeffs[sched.column[SymbolId(2, 3)]] += 1e-6  # a symbol of user 1's second pure slot
    assert alignment_error(ledger, sched, syms) > 1e-9


def test_zero_precoders_give_zero_received_values():
    _, sched, ch, syms = twic_setup(10)
    p = design_twic(ch)
    p.bank[:] = 0
    ledger = run_phase1(sched, ch, syms)
    plan = relay_process(ledger, p, sched, "decode_forward")
    ledger = run_phase2(plan, sched, ch, ledger=ledger)
    for k in sched.users:
        eq = [e for e in ledger.users[k] if e.slot == 3][0]
        assert abs(eq.value) < 1e-12


def test_decode_user_twic_effective_system():
    _, sched, ch, syms = twic_setup(11)
    p = design_twic(ch)
    ledger = run_phase1(sched, ch, syms)
    plan = relay_process(ledger, p, sched, "decode_forward")
    ledger = run_phase2(plan, sched, ch, ledger=ledger)
    own = {sym: syms[sym] for sym in sched.own_symbols(1)}
    res = decode_user(1, ledger, sched, own)
    assert res.matrix.shape == (2, 2)
    assert res.effective_rank == 2
    # first row is the stored direct observation
    assert res.matrix[0, 0] == ch.gain[1, 0, 2]
    assert res.matrix[0, 1] == ch.gain[1, 0, 3]
    assert abs(res.recovered[SymbolId(1, 3)] - syms[SymbolId(1, 3)]) < 1e-9
    assert res.stray_coeff < 1e-10


def test_self_interference_fully_removed():
    _, sched, ch, syms = twic_setup(12)
    p = design_twic(ch)
    ledger = run_phase1(sched, ch, syms)
    plan = relay_process(ledger, p, sched, "decode_forward")
    ledger = run_phase2(plan, sched, ch, ledger=ledger)
    eq = [e for e in ledger.users[2] if e.slot == 3][0]
    roles = {sym: sched.role(2, sym) for sym in sched.column}
    assert sorted(roles.values()) == ["D", "N", "OI", "SI"]
    terms = {sym: eq.coeffs[c] * syms[sym] for sym, c in sched.column.items()}
    cleaned = eq.value - sum(x for sym, x in terms.items() if roles[sym] == "SI")
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

        sched, _, syms, _, ledger = _execute(scenario, cfg, 21, None)
        for k in sched.users:
            own = {sym: syms[sym] for sym in sched.own_symbols(k)}
            res = decode_user(k, ledger, sched, own)
            assert res.matrix.shape == (2, 2)
            assert res.effective_rank == 2
            assert len(res.recovered) == len(desired(sched, k))


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
    syms = draw_symbols(sched, 18)
    noiseless = run_phase1(sched, ch, syms, noise_var=0.0, seed=1)
    assert ledger_linearity_error(noiseless, sched, syms) < 1e-12
    noisy = run_phase1(sched, ch, syms, noise_var=1e-4, seed=1)
    err = ledger_linearity_error(noisy, sched, syms)
    assert 1e-4 < err < 1e-1


def test_noisy_relay_bank_keeps_the_per_relay_noise_stream():
    # phase 1 draws, per slot, one _noise(rng, 1) call per listening user in user order,
    # then one _noise(rng, M_l) call per relay l = 1..L (M_l real parts, then M_l
    # imaginary ones); the relay bank's noise vector must keep that stream bit for bit
    cfg = NetworkConfig(5, (2, 3, 1), noise_var=1e-3)
    sched = schedule_case2(5)
    ch = draw_channels(cfg, sched.n_slots, 31)
    syms = draw_symbols(sched, 32)
    ledger = run_phase1(sched, ch, syms, cfg.noise_var, seed=33)
    s = np.array([syms[sym] for sym in sched.symbols])
    rng = np.random.default_rng(33)
    scale = np.sqrt(cfg.noise_var / 2.0)

    def noise(n):
        return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))

    for t in sched.phase1_slots:
        for k in sorted(sched.slot(t).destinations):
            eq = next(e for e in ledger.users[k] if e.slot == t)
            assert abs(eq.value - (eq.coeffs @ s + noise(1)[0])) < 1e-14
        eq = ledger.relays[t]
        expect = np.concatenate([noise(m) for m in cfg.relay_antennas])
        assert np.array_equal(eq.value, eq.coeffs @ s + expect)
        assert np.abs(expect).min() > 0


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
                 lambda: verify_scenario("bogus", NetworkConfig(4, (2,)), 1)):
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
        x = real(a, b, x0)
        if not state["done"]:
            x[0, 0, 0, 0] += 1e-6  # seed 0: one entry of one relay block of the first slot pair
            state["done"] = True
        return x

    monkeypatch.setattr(precoder, "solve_least_norm", faulty)
    summary = verify_scenario("case1", NetworkConfig(4, (3,)), n_seeds=2)
    assert summary["failures"] == [0]
    assert summary["max_constraint_residual"] >= 1e-9


def test_verify_fails_on_perturbed_ledger_coefficient(monkeypatch):
    real = protocol.relay_process

    def faulty(ledger, p, sched, *args, **kwargs):
        plan = real(ledger, p, sched, *args, **kwargs)
        # after the relays used it: only the stored equation is now wrong, on every seed
        eq = ledger.relays[1]  # row 0: relay 1's first antenna
        eq.coeffs[..., 0, sched.column[min(sched.slot(1).sends.values())]] += 1e-6
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
        eq = next(e for e in ledger.users[1] if e.slot > sched.phase1_len)
        sym = next(s for s in sched.symbols if sched.slot_of(s) in sched.pure_slots(1))
        eq.coeffs[..., sched.column[sym]] += 1e-6  # every seed; the stray gate sees it too: decoding leaves it uncancelled
        return ledger

    monkeypatch.setattr(protocol, "run_phase2", faulty)
    summary = verify_scenario("twxc", NetworkConfig(4, (2,)), n_seeds=2)
    assert summary["failures"] == [0, 1]
    assert summary["max_alignment_error"] >= 1e-9
    assert summary["max_symbol_error"] < 1e-8


def test_verify_fails_on_stray_coefficient(monkeypatch):
    real = protocol.decode_user

    def faulty(k, *args, **kwargs):
        res = real(k, *args, **kwargs)
        if k == 2:
            res.stray_coeff = np.full_like(res.stray_coeff, 1e-6)  # every seed
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
        syms = draw_symbols(schedule_twic(), derive_trial_seed(seed, 1))
        errors = [abs(est - syms[sym]) / abs(syms[sym]) for sym, est in rep.recovered.items()]
        assert sum(err < protocol.SYMBOL_ERROR_TOL for err in errors) == ok
        assert rep.achieved_dof == Fraction(ok, 3)
        assert rep.symbols_delivered == 4 and rep.slots_used == 3


def test_achieved_dof_counts_recovered_symbols(monkeypatch):
    real = protocol.decode_user

    def faulty(k, *args, **kwargs):
        res = real(k, *args, **kwargs)
        if k == 1:
            sym = next(iter(res.recovered))
            res.recovered[sym] *= 1.5
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
    expected_rank = {k: len(sched.unknowns(k)) for k in sched.users}
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


def test_a_failing_chunk_raises_its_first_failing_seed_as_alone(monkeypatch):
    # in one chunk of four twxc seeds, seed 2 loses its uplinks, so design cannot meet the
    # alignment targets, and seed 1's user 1 hears nothing in slot 3, so its decode system
    # is rank deficient; the chunk fails in design, on seed 2, and its replay raises seed 1's
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
    with pytest.raises(AntennaDeficit, match=r"^alignment constraints for slot pair \(5,1\) are infeasible$"):
        protocol._run("twxc", cfg, seeds, None)
    with pytest.raises(AntennaDeficit, match=r"^alignment constraints for slot pair \(5,1\) are infeasible$"):
        run_end_to_end("twxc", cfg, seeds[2])
    message = r"^user 1: effective rank 1 < 2 unknowns$"
    with pytest.raises(RankDeficient, match=message):
        run_end_to_end("twxc", cfg, seeds[1])
    with pytest.raises(RankDeficient, match=message) as exc:
        verify_scenario("twxc", cfg, n_seeds=4)
    assert exc.value.index == (0,)  # raised by seed 1 run alone, a batch of one
    assert run_end_to_end("twxc", cfg, seeds[0]).achieved_dof == Fraction(8, 5)


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
    cfg, sched, ch, syms = twic_setup(3)
    real, built = np.random.default_rng, []

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(protocol.np.random, "default_rng", counting)
    ledger = run_phase1(sched, ch, syms, 0.0, seed=5)
    plan = relay_process(ledger, design_twic(ch), sched, "decode_forward")
    run_phase2(plan, sched, ch, 0.0, seed=6, ledger=ledger)
    assert built == []
    run_phase1(sched, ch, syms, 1e-3, seed=5)
    run_phase2(plan, sched, ch, 1e-3, seed=6)
    assert built == [(5,), (6,)]
    built.clear()
    verify_scenario("twic", cfg, n_seeds=5)
    assert len(built) == 10  # per seed: the channels and the symbols, nothing else


def test_noisy_batch_keeps_each_seeds_noise_stream():
    # a batch's noise is each seed's own stream, user after user, then relay after relay
    cfg = NetworkConfig(5, (2, 3, 1), noise_var=1e-3)
    seeds = [derive_trial_seed(2, i) for i in range(3)]
    batch = protocol._execute("case2", cfg, seeds, None)[4]
    for i, seed in enumerate(seeds):
        alone = protocol._execute("case2", cfg, seed, None)[4]
        for k, eqs in alone.users.items():
            for got, want in zip(batch.users[k], eqs):
                assert np.array_equal(got.coeffs[i], want.coeffs)
                assert got.value[i] == want.value
        for t, eq in alone.relays.items():
            assert np.array_equal(batch.relays[t].value[i], eq.value)


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
        syms = draw_symbols(sched, derive_trial_seed(seed, 1))
        assert rep.max_symbol_error == max(abs(est - syms[sym]) / abs(syms[sym])
                                           for sym, est in rep.recovered.items())
