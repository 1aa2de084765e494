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
from typing import Callable, NamedTuple

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

SYMBOL_ERROR_TOL = 1e-8  # a symbol counts as recovered below this relative error
RESIDUAL_TOL = 1e-9      # gate on constraint residual, alignment, linearity and stray error


@dataclass
class Equation:
    """One stored linear observation: value = coeffs @ symbols (+ noise).

    coeffs runs over ``Schedule.symbols`` (column ``sched.column[sym]``): a
    length-n row for a user, an M x n matrix for an M-antenna relay, whose
    value is then a length-M vector.
    """

    slot: int
    coeffs: np.ndarray
    value: complex | np.ndarray


@dataclass
class EquationLedger:
    """Per-node storage of everything heard: scalar equations for users, vectors for relays."""

    users: dict = field(default_factory=lambda: defaultdict(list))  # user -> [Equation]
    relays: dict = field(default_factory=dict)  # (relay, slot) -> Equation


def draw_symbols(sched: Schedule, seed: int) -> dict:
    """Unit-power CN(0,1) payload for every symbol id of the schedule."""
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal(len(sched.symbols))
         + 1j * rng.standard_normal(len(sched.symbols))) / np.sqrt(2.0)
    return {sym: complex(z[i]) for i, sym in enumerate(sched.symbols)}


def _symbol_vector(sched: Schedule, syms: dict) -> np.ndarray:
    return np.array([syms[sym] for sym in sched.symbols], dtype=complex)


def _noise(rng, n, noise_var):
    if noise_var == 0.0:
        return np.zeros(n, dtype=complex)
    return np.sqrt(noise_var / 2.0) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def run_phase1(sched: Schedule, ch: ChannelSet, syms: dict,
               noise_var: float = 0.0, seed: int = 0) -> EquationLedger:
    """Execute the learning phase: every listening user and every relay stores its equation."""
    rng = np.random.default_rng(seed)
    s = _symbol_vector(sched, syms)
    ledger = EquationLedger()
    for t in sched.phase1_slots:
        plan = sched.slot(t)
        sent = list(plan.sends.values())
        cols = sched.slot_columns[t]
        dests = sorted(plan.destinations)
        rows = np.zeros((len(dests), len(s)), dtype=complex)
        rows[:, cols] = [[ch.h(k, sym.src, t) for sym in sent] for k in dests]
        for k, row, value in zip(dests, rows, rows @ s):
            ledger.users[k].append(Equation(t, row, complex(value + _noise(rng, 1, noise_var)[0])))
        for ell, m in enumerate(ch.config.relay_antennas, start=1):
            a = np.zeros((m, len(s)), dtype=complex)
            a[:, cols] = np.array([ch.h_up(ell, sym.src, t) for sym in sent]).T
            ledger.relays[(ell, t)] = Equation(t, a, a @ s + _noise(rng, m, noise_var))
    return ledger


@dataclass
class RelayTransmitPlan:
    """Per (relay, phase-2 slot): realized transmit vector plus its design expansion.

    coeffs[(l, t)] is the M x n matrix sum_k V(l,t,k) @ A(l,k) that the relay
    applies to the symbol vector by design, A(l,k) being the coefficients it
    stored in phase-1 slot k; signals[(l, t)] is the transmit vector actually
    formed from the stored receptions (they coincide in noiseless runs).
    """

    coeffs: dict = field(default_factory=dict)
    signals: dict = field(default_factory=dict)


def relay_decode(ledger: EquationLedger, ell: int) -> np.ndarray:
    """Zero-force the whole symbol vector from one relay's stacked equations."""
    eqs = [eq for (r, _), eq in sorted(ledger.relays.items()) if r == ell]
    h = np.vstack([eq.coeffs for eq in eqs])
    try:  # as in decode_user, the rank is recomputed only to report it
        return zf_solve(h, np.concatenate([eq.value for eq in eqs]))
    except RankDeficient:
        raise RankDeficient(f"relay {ell}: effective rank {rank(h)} < {h.shape[1]} symbols") from None


def relay_process(ledger: EquationLedger, p: PrecoderSet, sched: Schedule,
                  mode: str = "linear_forward") -> RelayTransmitPlan:
    """Turn stored receptions into phase-2 transmit signals through the block precoders.

    linear_forward applies each block to the raw vector received in its
    phase-1 slot. decode_forward first zero-forces every symbol from the
    relay's own stacked equations and transmits the design coefficients
    applied to them. Both modes expose identical design coefficients and
    agree in noiseless runs.
    """
    if mode not in ("decode_forward", "linear_forward"):
        raise ValueError(f"unknown relay mode {mode!r}")
    plan = RelayTransmitPlan()
    n_relays = len({ell for (ell, _) in ledger.relays})
    for ell in range(1, n_relays + 1):
        if mode == "decode_forward":
            decoded = relay_decode(ledger, ell)
        for t in sched.phase2_slots:
            blocks = [(p.per_block[(ell, t, k)], ledger.relays[(ell, k)]) for k in sched.phase1_slots]
            plan.coeffs[(ell, t)] = coeffs = sum(v @ eq.coeffs for v, eq in blocks)
            if mode == "decode_forward":
                plan.signals[(ell, t)] = coeffs @ decoded
            else:
                plan.signals[(ell, t)] = sum(v @ eq.value for v, eq in blocks)
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
            row = sum(ch.h_dn(j, ell, t) @ plan.coeffs[(ell, t)] for ell in relays)
            value = sum(complex(ch.h_dn(j, ell, t) @ plan.signals[(ell, t)]) for ell in relays)
            value += complex(_noise(rng, 1, noise_var)[0])
            ledger.users[j].append(Equation(t, row, complex(value)))
    return ledger


@dataclass
class DecodeResult:
    recovered: dict           # desired SymbolId -> estimate
    effective_rank: int
    matrix: np.ndarray        # the stacked system that was zero-forced
    stray_coeff: float        # worst coefficient left on symbols outside the system


def decode_user(k: int, ledger: EquationLedger, sched: Schedule, own_syms: dict) -> DecodeResult:
    """Recover user k's desired symbols from its stored equations.

    Phase-2 rows are cleaned of SI (the known own symbols subtracted) and of
    AOI (the stored pure-slot equations subtracted), stacked under the other
    heard phase-1 rows and zero-forced over the D and OI columns; what the
    cleaned rows keep on the AOI and N columns is the stray coefficient.
    """
    unknowns, own, rest = sched.decode_columns[k]
    pure = sched.pure_slots(k)
    eqs = ledger.users[k]
    p1 = [eq for eq in eqs if eq.slot <= sched.phase1_len and eq.slot not in pure]
    p2 = [eq for eq in eqs if eq.slot > sched.phase1_len]
    refs = [eq for eq in eqs if eq.slot in pure]
    a = np.array([eq.coeffs for eq in p1 + p2])
    y = np.array([eq.value for eq in p1 + p2])
    # k sends nothing in a slot it listens to, so its own columns are zero on the phase-1 rows
    y -= a.take(own, axis=1) @ np.array([own_syms[sym] for sym in sched.own_symbols(k)], dtype=complex)
    if refs:
        a[len(p1):] -= sum(ref.coeffs for ref in refs)
        y[len(p1):] -= sum(ref.value for ref in refs)
    stray = float(np.abs(a.take(rest, axis=1)).max(initial=0.0))
    h = a.take(unknowns, axis=1)
    try:  # zf_solve makes the one rank check; the rank is recomputed only to report it
        sol = zf_solve(h, y)
    except RankDeficient:
        raise RankDeficient(f"user {k}: effective rank {rank(h)} < {h.shape[1]} unknowns") from None
    recovered = {sched.symbols[c]: x for c, x in zip(unknowns, sol.tolist())
                 if sched.classes[k][c] == "D"}
    return DecodeResult(recovered, h.shape[1], h, stray)


@dataclass
class SimReport:
    """Outcome of one protocol run, with the invariants verify gates on."""

    scenario: str
    seed: int
    recovered: dict
    max_symbol_error: float
    effective_ranks: dict
    slots_used: int
    symbols_delivered: int
    achieved_dof: Fraction
    constraint_residual: float
    max_stray_coeff: float   # worst coefficient left outside any user's decode system
    alignment_error: float   # alignment_error of the run's ledger
    linearity_error: float   # ledger_linearity_error of the run's ledger


class Scenario(NamedTuple):
    """A built-in construction; its user count and relay set are read from its schedule."""

    schedule: Callable   # user count K (None where the schedule fixes it) -> Schedule
    design: Callable     # (ChannelSet, K) -> PrecoderSet
    relay_mode: str      # the default relay processing
    user_flag: str | None  # the CLI flag that carries K; None where the schedule fixes it


# design callables look up this module's design_* globals per call: wrappers set there fire
SCENARIOS = {
    "twic": Scenario(lambda K: schedule_twic(), lambda ch, K: design_twic(ch), "decode_forward", None),
    "twxc": Scenario(lambda K: schedule_twxc(), lambda ch, K: design_twxc(ch), "decode_forward", None),
    "case1": Scenario(schedule_case1, lambda ch, K: design_case1(ch, K), "linear_forward", "k1"),
    "case2": Scenario(schedule_case2, lambda ch, K: design_case2(ch, K), "linear_forward", "k2"),
}


def scenario_schedule(scenario: str, K: int | None = None) -> Schedule:
    """The scenario's schedule for K users; K None takes the count the schedule fixes."""
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; expected one of {tuple(SCENARIOS)}")
    sched = SCENARIOS[scenario].schedule(K)
    if K is not None and len(sched.users) != K:
        raise InvalidUserCount(f"{scenario} is defined for exactly {len(sched.users)} users")
    return sched


def _execute(scenario: str, cfg: NetworkConfig, seed: int, relay_mode: str | None):
    sched = scenario_schedule(scenario, cfg.K)
    ch = draw_channels(cfg, sched.n_slots, derive_trial_seed(seed, 0))
    syms = draw_symbols(sched, derive_trial_seed(seed, 1))
    precoders = SCENARIOS[scenario].design(ch, cfg.K)
    ledger = run_phase1(sched, ch, syms, cfg.noise_var, derive_trial_seed(seed, 2))
    plan = relay_process(ledger, precoders, sched, relay_mode or SCENARIOS[scenario].relay_mode)
    ledger = run_phase2(plan, sched, ch, cfg.noise_var, derive_trial_seed(seed, 3), ledger)
    return sched, ch, syms, precoders, ledger


def run_end_to_end(scenario: str, cfg: NetworkConfig, seed: int,
                   relay_mode: str | None = None) -> SimReport:
    """Run one protocol instance and decode every user; the achieved DoF counts the
    symbols recovered within SYMBOL_ERROR_TOL relative error, per slot."""
    sched, _, syms, precoders, ledger = _execute(scenario, cfg, seed, relay_mode)
    results = {k: decode_user(k, ledger, sched, {sym: syms[sym] for sym in sched.own_symbols(k)})
               for k in sched.users}
    recovered = {sym: x for res in results.values() for sym, x in res.recovered.items()}
    errors = [abs(est - syms[sym]) / abs(syms[sym]) for sym, est in recovered.items()]
    return SimReport(
        scenario=scenario,
        seed=seed,
        recovered=recovered,
        max_symbol_error=max(errors, default=0.0),
        effective_ranks={k: res.effective_rank for k, res in results.items()},
        slots_used=sched.n_slots,
        symbols_delivered=len(sched.symbols),
        achieved_dof=Fraction(sum(err < SYMBOL_ERROR_TOL for err in errors), sched.n_slots),
        constraint_residual=precoders.residual,
        max_stray_coeff=max(res.stray_coeff for res in results.values()),
        alignment_error=alignment_error(ledger, sched, syms),
        linearity_error=ledger_linearity_error(ledger, sched, syms),
    )


def ledger_linearity_error(ledger: EquationLedger, sched: Schedule, syms: dict) -> float:
    """Worst |observed - coeffs applied to the true symbols| over all equations.

    Independent of the decoding path; equals the noise magnitude in noisy
    runs and vanishes (to numerical precision) in noiseless ones.
    """
    eqs = [eq for user_eqs in ledger.users.values() for eq in user_eqs] + list(ledger.relays.values())
    a = np.vstack([eq.coeffs for eq in eqs])
    y = np.hstack([eq.value for eq in eqs])
    return float(np.max(np.abs(y - a @ _symbol_vector(sched, syms))))


def alignment_error(ledger: EquationLedger, sched: Schedule, syms: dict) -> float:
    """Worst mismatch between relayed interference and the stored equations it replays.

    For every phase-2 equation of every user and every pure slot of that user,
    checks the coefficients of the slot's symbols and the value they rebuild
    against the stored phase-1 equation. Zero (to numerical precision) when
    the scenario designs no alignment.
    """
    s = _symbol_vector(sched, syms)
    worst = 0.0
    for k, eqs in ledger.users.items():
        refs = [eq for eq in eqs if eq.slot in sched.pure_slots(k)]
        if not refs:
            continue
        p2 = np.array([eq.coeffs for eq in eqs if eq.slot > sched.phase1_len])
        for ref in refs:
            cols = sched.slot_columns[ref.slot]
            got = p2.take(cols, axis=1)
            worst = max(worst, np.abs(got - ref.coeffs.take(cols)).max(),
                        np.abs(got @ s.take(cols) - ref.value).max())
    return float(worst)


def verify_scenario(scenario: str, cfg: NetworkConfig, n_seeds: int, base_seed: int = 0) -> dict:
    """Run the invariant suite over derived seeds and report a JSON-ready summary.

    A seed fails when any symbol's relative error reaches SYMBOL_ERROR_TOL;
    when the constraint residual, the alignment error (the replay identity
    between phase-2 equations and the stored pure-slot equations), the ledger
    linearity error or any user's stray coefficient reaches RESIDUAL_TOL;
    when a user's effective rank differs from its unknown count
    (sched.unknowns); or when the symbols recovered within tolerance per slot
    fall short of the schedule's own symbols-per-slot ratio.
    """
    sched = scenario_schedule(scenario, cfg.K)
    expected_dof = Fraction(len(sched.symbols), sched.n_slots)
    expected_rank = {k: len(sched.unknowns(k)) for k in sched.users}
    failures = []
    max_err = max_resid = max_align = max_linear = 0.0
    dof_ok = rank_ok = True
    for i in range(n_seeds):  # each report is folded in and dropped: memory stays flat
        rep = run_end_to_end(scenario, cfg, derive_trial_seed(base_seed, i))
        rank_ok = rank_ok and rep.effective_ranks == expected_rank
        dof_ok = dof_ok and rep.achieved_dof == expected_dof
        max_err = max(max_err, rep.max_symbol_error)
        max_resid = max(max_resid, rep.constraint_residual)
        max_align = max(max_align, rep.alignment_error)
        max_linear = max(max_linear, rep.linearity_error)
        coeff_err = max(rep.constraint_residual, rep.alignment_error, rep.linearity_error,
                        rep.max_stray_coeff)
        if (rep.effective_ranks != expected_rank or rep.achieved_dof != expected_dof
                or rep.max_symbol_error >= SYMBOL_ERROR_TOL or coeff_err >= RESIDUAL_TOL):
            failures.append(i)
    return {
        "scenario": scenario,
        "K": cfg.K,
        "relay_antennas": list(cfg.relay_antennas),
        "seeds": n_seeds,
        "base_seed": base_seed,
        "expected_dof": str(expected_dof),
        "achieved_dof": str(expected_dof) if dof_ok else "mismatch",
        "expected_rank": min(expected_rank.values()),  # common to every user of a built-in scenario
        "rank_ok": rank_ok,
        "max_symbol_error": max_err,
        "max_constraint_residual": max_resid,
        "max_alignment_error": max_align,
        "max_linearity_error": max_linear,
        "failures": failures,
        "passed": not failures,
    }
