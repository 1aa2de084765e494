"""End-to-end execution of the two-phase relay protocol.

Phase 1 transmits data symbols while listeners (users and relays) store
linear equations with exactly known coefficients. The relays then forward
precoded combinations in phase 2. Each user decodes by subtracting its
self-interference, subtracting interference it overheard in phase 1 when
the precoders replay that shape, and zero-forcing the remaining stacked
system. In noiseless mode every desired symbol is recovered exactly and the
report carries the achieved symbols-per-slot ratio as an exact fraction.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .channel import ChannelSet, NetworkConfig, derive_trial_seed, draw_channels
from .linalg import RankDeficient, rank, zf_solve
from .precoder import (
    PrecoderSet,
    design_case1,
    design_case2,
    design_twic,
    design_twxc,
)
from .scheduler import (
    InvalidUserCount,
    Schedule,
    schedule_case1,
    schedule_case2,
    schedule_twic,
    schedule_twxc,
)

SCENARIOS = ("twic", "twxc", "case1", "case2")
SYMBOL_ERROR_TOL = 1e-8  # a symbol counts as recovered below this relative error
RESIDUAL_TOL = 1e-9      # gate on constraint residual, alignment, linearity and stray error


@dataclass
class Equation:
    """One stored linear observation: value = sum coeffs[s] * symbol[s] (+ noise)."""

    slot: int
    coeffs: dict
    value: complex


@dataclass
class RelayEquation:
    """Vector observation of one relay in one phase-1 slot."""

    slot: int
    coeffs: dict  # SymbolId -> (M,) uplink vector
    value: np.ndarray


@dataclass
class EquationLedger:
    """Per-node storage of everything heard: scalar equations for users, vectors for relays."""

    users: dict = field(default_factory=lambda: defaultdict(list))  # user -> [Equation]
    relays: dict = field(default_factory=dict)  # (relay, slot) -> RelayEquation


def draw_symbols(sched: Schedule, seed: int) -> dict:
    """Unit-power CN(0,1) payload for every symbol id of the schedule."""
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal(len(sched.symbols))
         + 1j * rng.standard_normal(len(sched.symbols))) / np.sqrt(2.0)
    return {sym: complex(z[i]) for i, sym in enumerate(sched.symbols)}


def _noise(rng, n, noise_var):
    if noise_var == 0.0:
        return np.zeros(n, dtype=complex)
    return np.sqrt(noise_var / 2.0) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def run_phase1(sched: Schedule, ch: ChannelSet, syms: dict,
               noise_var: float = 0.0, seed: int = 0) -> EquationLedger:
    """Execute the learning phase: every listener stores its linear equation."""
    rng = np.random.default_rng(seed)
    ledger = EquationLedger()
    for t in sched.phase1_slots:
        plan = sched.slot(t)
        sent = sorted(plan.sends.values())
        for k in sorted(plan.destinations):
            coeffs = {sym: ch.h(k, sym.src, t) for sym in sent}
            value = sum(c * syms[sym] for sym, c in coeffs.items())
            value += complex(_noise(rng, 1, noise_var)[0])
            ledger.users[k].append(Equation(t, coeffs, complex(value)))
        if plan.relay_listen:
            for ell, m in enumerate(ch.config.relay_antennas, start=1):
                coeffs = {sym: ch.h_up(ell, sym.src, t) for sym in sent}
                value = sum(c * syms[sym] for sym, c in coeffs.items())
                value = value + _noise(rng, m, noise_var)
                ledger.relays[(ell, t)] = RelayEquation(t, coeffs, value)
    return ledger


@dataclass
class RelayTransmitPlan:
    """Per (relay, phase-2 slot): realized transmit vector plus its design expansion.

    coeffs[(l, t)][sym] is the vector the relay applies to symbol sym by
    design; signals[(l, t)] is the transmit vector actually formed from the
    stored receptions (they coincide in noiseless runs).
    """

    coeffs: dict = field(default_factory=dict)
    signals: dict = field(default_factory=dict)


def relay_decode(ledger: EquationLedger, ell: int, symbols) -> dict:
    """Zero-force all transmitted symbols from one relay's stacked equations."""
    rows, y = [], []
    for slot in sorted(s for (r, s) in ledger.relays if r == ell):
        eq = ledger.relays[(ell, slot)]
        m = eq.value.shape[0]
        block = np.zeros((m, len(symbols)), dtype=complex)
        for j, sym in enumerate(symbols):
            if sym in eq.coeffs:
                block[:, j] = eq.coeffs[sym]
        rows.append(block)
        y.append(eq.value)
    h = np.vstack(rows)
    try:  # as in decode_user, the rank is recomputed only to report it
        sol = zf_solve(h, np.concatenate(y))
    except RankDeficient:
        r = rank(h)
        raise RankDeficient(f"relay {ell}: effective rank {r} < {len(symbols)} symbols") from None
    return {sym: complex(sol[j]) for j, sym in enumerate(symbols)}


def relay_process(ledger: EquationLedger, p: PrecoderSet, sched: Schedule,
                  mode: str = "linear_forward") -> RelayTransmitPlan:
    """Turn stored receptions into phase-2 transmit signals through the block precoders.

    linear_forward applies each block to the raw vector received in its
    phase-1 slot. decode_forward first zero-forces every symbol from the
    relay's own stacked equations and applies the blocks to the clean
    per-slot vectors rebuilt from them. Both modes expose identical design
    coefficients and agree in noiseless runs.
    """
    if mode not in ("decode_forward", "linear_forward"):
        raise ValueError(f"unknown relay mode {mode!r}")
    plan = RelayTransmitPlan()
    n_relays = len({ell for (ell, _) in ledger.relays})
    for ell in range(1, n_relays + 1):
        if mode == "decode_forward":
            decoded = relay_decode(ledger, ell, sched.symbols)
        for t in sched.phase2_slots:
            coeffs: dict = {}
            m = p.per_block[(ell, t, sched.phase1_slots[0])].shape[0]
            value = np.zeros(m, dtype=complex)
            for k in sched.phase1_slots:
                eq = ledger.relays[(ell, k)]
                block = p.per_block[(ell, t, k)]
                slot_syms = sorted(sched.slot(k).sends.values())
                for sym in slot_syms:
                    coeffs[sym] = block @ eq.coeffs[sym]
                if mode == "decode_forward":
                    h = np.stack([eq.coeffs[sym] for sym in slot_syms], axis=1)
                    clean = h @ np.array([decoded[sym] for sym in slot_syms])
                    value = value + block @ clean
                else:
                    value = value + block @ eq.value
            plan.coeffs[(ell, t)] = coeffs
            plan.signals[(ell, t)] = value
    return plan


def run_phase2(plan: RelayTransmitPlan, sched: Schedule, ch: ChannelSet,
               noise_var: float = 0.0, seed: int = 0,
               ledger: EquationLedger | None = None) -> EquationLedger:
    """Relay slots: every user stores one equation over every symbol the relays forward."""
    if ledger is None:
        ledger = EquationLedger()
    rng = np.random.default_rng(seed)
    relays = sorted({ell for (ell, _) in plan.signals})
    for t in sched.phase2_slots:
        for j in sorted(sched.slot(t).destinations):
            coeffs: dict = {}
            for ell in relays:
                row = ch.h_dn(j, ell, t)
                for sym, v in plan.coeffs[(ell, t)].items():
                    coeffs[sym] = coeffs.get(sym, 0.0) + complex(row @ v)
            value = sum(complex(ch.h_dn(j, ell, t) @ plan.signals[(ell, t)]) for ell in relays)
            value += complex(_noise(rng, 1, noise_var)[0])
            ledger.users[j].append(Equation(t, coeffs, complex(value)))
    return ledger


@dataclass
class DecodeResult:
    recovered: dict           # desired SymbolId -> estimate
    effective_rank: int
    matrix: np.ndarray        # the stacked system that was zero-forced
    stray_coeff: float        # worst coefficient left on symbols outside the system


def decode_user(k: int, ledger: EquationLedger, sched: Schedule, own_syms: dict) -> DecodeResult:
    """Recover user k's desired symbols from its stored equations.

    Phase-2 equations are cleaned by subtracting the self-interference terms
    (sched.own_symbols(k) times their known effective coefficients) and the
    stored equation of every pure slot (sched.pure_slots(k)), which cancels
    the aligned interference. The cleaned rows are stacked with the other
    heard phase-1 equations and zero-forced jointly.
    """
    desired = set(sched.desired_symbols(k))
    pure = sched.pure_slots(k)
    stored = {eq.slot: eq for eq in ledger.users[k] if eq.slot <= sched.phase1_len}
    p2 = [eq for eq in ledger.users[k] if eq.slot > sched.phase1_len]
    stack_p1 = [eq for t, eq in stored.items() if t not in pure]
    oi_refs = [stored[t] for t in sorted(pure)]

    unknowns = set(desired)
    for eq in stack_p1:
        unknowns.update(eq.coeffs)
    unknowns = sorted(unknowns)
    index = {sym: i for i, sym in enumerate(unknowns)}

    rows, values, stray = [], [], 0.0
    for eq in stack_p1:
        row = np.zeros(len(unknowns), dtype=complex)
        for sym, c in eq.coeffs.items():
            row[index[sym]] = c
        rows.append(row)
        values.append(eq.value)
    for eq in p2:
        coeffs = dict(eq.coeffs)
        value = eq.value
        for sym in sched.own_symbols(k):
            if sym in coeffs:
                value -= coeffs.pop(sym) * own_syms[sym]
        for ref in oi_refs:
            value -= ref.value
            for sym, c in ref.coeffs.items():
                coeffs[sym] = coeffs.get(sym, 0.0) - c
        row = np.zeros(len(unknowns), dtype=complex)
        for sym, c in coeffs.items():
            if sym in index:
                row[index[sym]] = c
            else:
                stray = max(stray, abs(c))
        rows.append(row)
        values.append(value)

    h = np.vstack(rows)
    try:  # zf_solve makes the one rank check; the rank is recomputed only to report it
        sol = zf_solve(h, np.array(values, dtype=complex))
    except RankDeficient:
        r = rank(h)
        raise RankDeficient(f"user {k}: effective rank {r} < {h.shape[1]} unknowns") from None
    recovered = {sym: complex(sol[index[sym]]) for sym in unknowns if sym in desired}
    return DecodeResult(recovered, h.shape[1], h, stray)


@dataclass
class SimReport:
    """Outcome of one protocol run."""

    scenario: str
    seed: int
    recovered: dict
    max_symbol_error: float
    effective_ranks: dict
    slots_used: int
    symbols_delivered: int
    achieved_dof: Fraction
    constraint_residual: float


def _build(scenario: str, cfg: NetworkConfig):
    """Schedule, precoder factory and default relay mode for a scenario."""
    if scenario == "twic":
        if cfg.K != 4:
            raise InvalidUserCount("twic is defined for exactly 4 users")
        return schedule_twic(), design_twic, "decode_forward"
    if scenario == "twxc":
        if cfg.K != 4:
            raise InvalidUserCount("twxc is defined for exactly 4 users")
        return schedule_twxc(), design_twxc, "decode_forward"
    if scenario == "case1":
        return schedule_case1(cfg.K), lambda ch: design_case1(ch, cfg.K), "linear_forward"
    if scenario == "case2":
        return schedule_case2(cfg.K), lambda ch: design_case2(ch, cfg.K), "linear_forward"
    raise ValueError(f"unknown scenario {scenario!r}; expected one of {SCENARIOS}")


def _execute(scenario: str, cfg: NetworkConfig, seed: int, relay_mode: str | None):
    sched, make_precoders, default_mode = _build(scenario, cfg)
    ch = draw_channels(cfg, sched.n_slots, derive_trial_seed(seed, 0))
    syms = draw_symbols(sched, derive_trial_seed(seed, 1))
    precoders = make_precoders(ch)
    ledger = run_phase1(sched, ch, syms, cfg.noise_var, derive_trial_seed(seed, 2))
    plan = relay_process(ledger, precoders, sched, relay_mode or default_mode)
    ledger = run_phase2(plan, sched, ch, cfg.noise_var, derive_trial_seed(seed, 3), ledger)
    return sched, ch, syms, precoders, ledger


def _decode_all(sched: Schedule, ledger: EquationLedger, syms: dict):
    """Decode every user: their DecodeResults and each recovered symbol's relative error."""
    results, errors = {}, {}
    for k in sched.users:
        own = {sym: syms[sym] for sym in sched.own_symbols(k)}
        results[k] = res = decode_user(k, ledger, sched, own)
        for sym, est in res.recovered.items():
            errors[sym] = abs(est - syms[sym]) / abs(syms[sym])
    return results, errors


def run_end_to_end(scenario: str, cfg: NetworkConfig, seed: int,
                   relay_mode: str | None = None) -> SimReport:
    """Run one full protocol instance and summarize recovery quality."""
    sched, _, syms, precoders, ledger = _execute(scenario, cfg, seed, relay_mode)
    results, errors = _decode_all(sched, ledger, syms)
    recovered: dict = {}
    for res in results.values():
        recovered.update(res.recovered)
    return SimReport(
        scenario=scenario,
        seed=seed,
        recovered=recovered,
        max_symbol_error=max(errors.values(), default=0.0),
        effective_ranks={k: res.effective_rank for k, res in results.items()},
        slots_used=sched.n_slots,
        symbols_delivered=len(sched.symbols),
        achieved_dof=Fraction(len(sched.symbols), sched.n_slots),
        constraint_residual=precoders.residual,
    )


def ledger_linearity_error(ledger: EquationLedger, syms: dict) -> float:
    """Worst |observed - coeffs applied to the true symbols| over all equations.

    Independent of the decoding path; equals the noise magnitude in noisy
    runs and vanishes (to numerical precision) in noiseless ones.
    """
    worst = 0.0
    for eqs in ledger.users.values():
        for eq in eqs:
            pred = sum(c * syms[sym] for sym, c in eq.coeffs.items())
            worst = max(worst, abs(eq.value - pred))
    for vec_eq in ledger.relays.values():
        pred = sum(c * syms[sym] for sym, c in vec_eq.coeffs.items())
        worst = max(worst, float(np.max(np.abs(vec_eq.value - pred))))
    return worst


def alignment_error(ledger: EquationLedger, sched: Schedule, syms: dict) -> float:
    """Worst mismatch between relayed interference and the stored equations it replays.

    For every phase-2 equation of every user and every pure slot of that user,
    checks the entrywise coefficients of the slot's symbols and the value they
    rebuild against the stored phase-1 equation. Zero (to numerical precision)
    when the scenario designs no alignment.
    """
    worst = 0.0
    for k, eqs in ledger.users.items():
        stored = {eq.slot: eq for eq in eqs if eq.slot <= sched.phase1_len}
        for eq in eqs:
            if eq.slot <= sched.phase1_len:
                continue
            for t in sorted(sched.pure_slots(k)):
                ref = stored[t]
                oi_value = 0.0
                for sym, want in ref.coeffs.items():
                    got = eq.coeffs.get(sym, 0.0)
                    worst = max(worst, abs(got - want))
                    oi_value += got * syms[sym]
                worst = max(worst, abs(oi_value - ref.value))
    return worst


EXPECTED_RANK = {
    "twic": lambda K: 2,
    "twxc": lambda K: 2,
    "case1": lambda K: K - 1,
    "case2": lambda K: K - 2,
}


def verify_scenario(scenario: str, cfg: NetworkConfig, n_seeds: int, base_seed: int = 0) -> dict:
    """Run the invariant suite over derived seeds and report a JSON-ready summary.

    A seed fails when any symbol's relative error reaches SYMBOL_ERROR_TOL;
    when the constraint residual, the alignment error (the replay identity
    between phase-2 equations and the stored pure-slot equations), the ledger
    linearity error or any user's stray coefficient reaches RESIDUAL_TOL;
    when a user's effective rank differs from the expected one; or when the
    symbols recovered within tolerance per slot fall short of the
    schedule's own symbols-per-slot ratio.
    """
    sched = _build(scenario, cfg)[0]
    expected_dof = Fraction(len(sched.symbols), sched.n_slots)
    expected_rank = EXPECTED_RANK[scenario](cfg.K)
    failures = []
    max_err = max_resid = max_align = max_linear = 0.0
    dof_ok = rank_ok = True
    for i in range(n_seeds):
        seed = derive_trial_seed(base_seed, i)
        sched, _, syms, precoders, ledger = _execute(scenario, cfg, seed, None)
        results, errors = _decode_all(sched, ledger, syms)
        seed_ok = True
        if any(res.effective_rank != expected_rank for res in results.values()):
            rank_ok = seed_ok = False
        recovered = sum(err < SYMBOL_ERROR_TOL for err in errors.values())
        if Fraction(recovered, sched.n_slots) != expected_dof:
            dof_ok = seed_ok = False
        worst = max(errors.values(), default=0.0)
        stray = max(res.stray_coeff for res in results.values())
        align = alignment_error(ledger, sched, syms)
        linear = ledger_linearity_error(ledger, syms)
        max_err = max(max_err, worst)
        max_resid = max(max_resid, precoders.residual)
        max_align = max(max_align, align)
        max_linear = max(max_linear, linear)
        if worst >= SYMBOL_ERROR_TOL or max(precoders.residual, align, linear, stray) >= RESIDUAL_TOL:
            seed_ok = False
        if not seed_ok:
            failures.append(i)
    return {
        "scenario": scenario,
        "K": cfg.K,
        "relay_antennas": list(cfg.relay_antennas),
        "seeds": n_seeds,
        "base_seed": base_seed,
        "expected_dof": str(expected_dof),
        "achieved_dof": str(expected_dof) if dof_ok else "mismatch",
        "expected_rank": expected_rank,
        "rank_ok": rank_ok,
        "max_symbol_error": max_err,
        "max_constraint_residual": max_resid,
        "max_alignment_error": max_align,
        "max_linearity_error": max_linear,
        "failures": failures,
        "passed": not failures,
    }
