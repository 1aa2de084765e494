"""End-to-end execution of the two-phase relay protocol.

Phase 1 transmits data symbols while listeners (users and relays) store
linear equations with exactly known coefficients. The relays then forward
precoded combinations in phase 2. Each user decodes by subtracting its
self-interference, subtracting interference it overheard in phase 1 when
the precoders replay that shape, and zero-forcing the remaining stacked
system. In noiseless mode every desired symbol is recovered exactly and the
report carries the achieved symbols-per-slot ratio as an exact fraction.

Seeds are a leading batch axis. Every stage takes the arrays of one seed or
of a batch of seeds, (S, ...) (one seed axis: splits along the other axes
swap it to the front), so one pass draws, designs, runs both phases
and the relays, decodes and checks a whole batch, and each seed gets the bits
it would get alone. ``run_end_to_end`` is that pass on a batch of one.
``verify_scenario`` and ``simulate`` run their seeds in chunks of
``chunk_seeds`` seeds, sized by CHUNK_BYTES, so memory stays flat for any seed
count; a chunk that raises is replayed seed by seed, so the first failing
seed raises exactly as it would alone.
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
# Budget for one chunk's largest stacks (see chunk_seeds). A whole pass holds two to five
# times that, measured; per-call costs are amortised well before chunks this large.
CHUNK_BYTES = 4 << 20


@dataclass
class Equation:
    """One stored linear observation: value = coeffs @ symbols (+ noise).

    coeffs runs over ``Schedule.symbols`` (column ``sched.column[sym]``): a
    length-n row for a user, a sum M_l x n matrix for the relay bank (relay l's
    rows are its antenna columns ``relay_columns[l-1]``), whose value is then a
    length-sum M_l vector. A batch of seeds leads coeffs and value with its seed axis.
    """

    slot: int
    coeffs: np.ndarray
    value: complex | np.ndarray


@dataclass
class EquationLedger:
    """Per-node storage of everything heard: scalar equations for users, vectors for the relays."""

    users: dict = field(default_factory=lambda: defaultdict(list))  # user -> [Equation]
    relays: dict = field(default_factory=dict)  # phase-1 slot -> the relay bank's Equation


def _batch(seed) -> list:
    """The seeds of a batch, or one seed as a batch of one."""
    return [seed] if np.ndim(seed) == 0 else list(seed)


def _derived(seed, i: int):
    """derive_trial_seed(seed, i) of one seed, or of every seed of a batch."""
    return derive_trial_seed(seed, i) if np.ndim(seed) == 0 else [derive_trial_seed(s, i) for s in seed]


def draw_symbols(sched: Schedule, seed) -> dict:
    """Unit-power CN(0,1) payload for every symbol id of the schedule.

    A sequence of seeds gives each symbol an array over the seeds, each seed drawn alone.
    """
    n = len(sched.symbols)
    normals = np.array([np.random.default_rng(s).standard_normal((2, n)) for s in _batch(seed)])
    z = (normals[:, 0] + 1j * normals[:, 1]) / np.sqrt(2.0)
    if np.ndim(seed) == 0:
        return {sym: complex(x) for sym, x in zip(sched.symbols, z[0])}
    return dict(zip(sched.symbols, z.T))


def _stack(parts, axis: int) -> np.ndarray:
    """np.stack(parts, axis) for a negative axis and parts of one seed or of a seed axis
    (S, ...), row-major like a seed's own arrays, so every seed's products take one BLAS
    path; np.array and one swap cost a third of np.stack."""
    return np.ascontiguousarray(np.array(parts, dtype=complex).swapaxes(0, axis))


def _symbol_vector(sched: Schedule, syms: dict) -> np.ndarray:
    """The payload in column order: (n,) for one seed, (seeds, n) for a batch."""
    return _stack([syms[sym] for sym in sched.symbols], -1)


def _noise(seed, sizes, noise_var: float) -> np.ndarray:
    """Per seed, from default_rng(seed), one CN(0, noise_var) vector per entry of sizes in
    turn (its real parts, then its imaginary ones), concatenated: the receivers' noise
    stream in reception order. One seed gives (sum sizes,), a batch (seeds, sum sizes)."""
    def one(s):
        rng = np.random.default_rng(s)
        return np.concatenate([np.sqrt(noise_var / 2.0)
                               * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) for n in sizes])
    draws = np.array([one(s) for s in _batch(seed)])
    return draws if np.ndim(seed) else draws[0]


def run_phase1(sched: Schedule, ch: ChannelSet, syms: dict,
               noise_var: float = 0.0, seed=0) -> EquationLedger:
    """Execute the learning phase: every listening user stores its equation, and the relay
    bank one sum M_l x n equation per slot (relay l's rows at its antenna columns).

    Noisy runs draw each slot's noise user after user, then relay after relay, from
    default_rng of the seed (one per seed of a batch); noiseless runs build no generator.
    """
    s = _symbol_vector(sched, syms)
    antennas = ch.config.relay_antennas
    plans = [(t, np.array(sorted(sched.slot(t).destinations)) - 1) for t in sched.phase1_slots]
    if noise_var:
        noise = _noise(seed, [m for _, rx in plans for m in (1,) * len(rx) + antennas], noise_var)
    ledger, at = EquationLedger(), 0
    for t, rx in plans:
        src = [sym.src - 1 for sym in sched.slot(t).sends.values()]  # a user's row in the stacks is user - 1
        cols = sched.slot_columns[t]
        rows = np.zeros(s.shape[:-1] + (len(rx), s.shape[-1]), dtype=complex)
        rows[..., cols] = ch.gain[..., t - 1, rx[:, None], src]
        values = np.matvec(rows, s)
        if noise_var:
            values += noise[..., at:at + len(rx)]
        at += len(rx)
        for k, row, value in zip(rx + 1, rows.swapaxes(0, -2), values.swapaxes(0, -1)):
            ledger.users[int(k)].append(Equation(t, row, value))
        a = np.zeros(s.shape[:-1] + (ch.up.shape[-1], s.shape[-1]), dtype=complex)
        a[..., cols] = ch.up[..., t - 1, src, :].swapaxes(-1, -2)
        value = np.matvec(a, s)
        if noise_var:
            value += noise[..., at:at + a.shape[-2]]
        at += a.shape[-2]
        ledger.relays[t] = Equation(t, a, value)
    return ledger


@dataclass
class RelayTransmitPlan:
    """Per phase-2 slot: the relay bank's realized transmit vector plus its design expansion.

    coeffs[t] is the sum M_l x n matrix sum_k B(t,k) @ A(k) that the bank applies
    to the symbol vector by design, A(k) being the coefficients it stored in
    phase-1 slot k; signals[t] is the transmit vector actually formed from the
    stored receptions (they coincide in noiseless runs). Relay l's entries are
    the rows ``relay_columns[l-1]``; a batch of seeds leads both with its seed axis.
    """

    coeffs: dict = field(default_factory=dict)
    signals: dict = field(default_factory=dict)


def relay_decode(ledger: EquationLedger, ell: int, rows: slice) -> np.ndarray:
    """Zero-force the whole symbol vector from relay ell's own rows of the bank equations."""
    eqs = [ledger.relays[k] for k in sorted(ledger.relays)]
    h = np.concatenate([eq.coeffs[..., rows, :] for eq in eqs], axis=-2)
    try:  # as in decode_user, the rank is recomputed only to report it
        return zf_solve(h, np.concatenate([eq.value[..., rows] for eq in eqs], axis=-1))
    except RankDeficient as exc:
        h = h[exc.index]
        raise RankDeficient(f"relay {ell}: effective rank {rank(h)} < {h.shape[1]} symbols",
                            exc.index) from None


def relay_process(ledger: EquationLedger, p: PrecoderSet, sched: Schedule,
                  mode: str = "linear_forward") -> RelayTransmitPlan:
    """Turn stored receptions into phase-2 transmit signals through the relay bank.

    Per phase-2 slot, the bank's product with each phase-1 slot's equation, summed in slot
    order. linear_forward applies it to the raw vectors received. decode_forward first
    zero-forces every symbol from each relay's own rows and transmits that relay's rows of
    the design coefficients applied to them. Both modes expose identical design
    coefficients and agree in noiseless runs.
    """
    if mode not in ("decode_forward", "linear_forward"):
        raise ValueError(f"unknown relay mode {mode!r}")
    eqs = [ledger.relays[k] for k in sched.phase1_slots]
    # (..., phase-2 slots, sum M_l, n)
    coeffs = (p.bank @ _stack([eq.coeffs for eq in eqs], -3)[..., None, :, :, :]).sum(axis=-3)
    if mode == "decode_forward":
        signals = np.empty(coeffs.shape[:-1], dtype=complex)
        for ell, c in enumerate(p.columns, start=1):
            signals[..., c] = np.matvec(coeffs[..., c, :], relay_decode(ledger, ell, c)[..., None, :])
    else:
        received = _stack([eq.value for eq in eqs], -2)[..., None]  # (..., phase-1 slots, sum M_l, 1)
        signals = (p.bank @ received[..., None, :, :, :]).sum(axis=-3)[..., 0]
    slots = sched.phase2_slots
    return RelayTransmitPlan(dict(zip(slots, coeffs.swapaxes(0, -3))),
                             dict(zip(slots, signals.swapaxes(0, -2))))


def run_phase2(plan: RelayTransmitPlan, sched: Schedule, ch: ChannelSet,
               noise_var: float = 0.0, seed=0,
               ledger: EquationLedger | None = None) -> EquationLedger:
    """Relay slots: every user stores one equation over every symbol the relays forward.

    Noisy runs draw the noise per slot, user after user, from default_rng of the seed (one
    per seed of a batch); noiseless runs build no generator.
    """
    if ledger is None:
        ledger = EquationLedger()
    plans = [(t, np.array(sorted(sched.slot(t).destinations)) - 1) for t in sched.phase2_slots]
    if noise_var:
        noise = _noise(seed, [1] * sum(len(rx) for _, rx in plans), noise_var)
    at = 0
    for t, rx in plans:
        # (..., users, sum M_l), one row per destination; row-major like a seed's own gather,
        # so that every seed's products take the same BLAS path
        dn = np.ascontiguousarray(ch.dn[..., t - 1, rx, :])
        rows, values = dn @ plan.coeffs[t], np.matvec(dn, plan.signals[t])
        if noise_var:
            values += noise[..., at:at + len(rx)]
        at += len(rx)
        for j, row, value in zip(rx + 1, rows.swapaxes(0, -2), values.swapaxes(0, -1)):
            ledger.users[int(j)].append(Equation(t, row, value))
    return ledger


@dataclass
class DecodeResult:
    recovered: dict           # desired SymbolId -> estimate (an array over the seeds of a batch)
    effective_rank: int
    matrix: np.ndarray        # the stacked system that was zero-forced
    stray_coeff: float | np.ndarray  # worst coefficient left on symbols outside the system


def decode_user(k: int, ledger: EquationLedger, sched: Schedule, own_syms: dict) -> DecodeResult:
    """Recover user k's desired symbols from its stored equations.

    Phase-2 rows are cleaned of SI (the known own symbols subtracted) and of
    AOI (the stored pure-slot equations subtracted), stacked under the other
    heard phase-1 rows and zero-forced over the D and OI columns; what the
    cleaned rows keep on the AOI and N columns is the stray coefficient. A batch
    of seeds is one stacked zero-forcing solve.
    """
    unknowns, own, rest = sched.decode_columns[k]
    pure = sched.pure_slots(k)
    eqs = ledger.users[k]
    p1 = [eq for eq in eqs if eq.slot <= sched.phase1_len and eq.slot not in pure]
    p2 = [eq for eq in eqs if eq.slot > sched.phase1_len]
    refs = [eq for eq in eqs if eq.slot in pure]
    a = _stack([eq.coeffs for eq in p1 + p2], -2)
    y = _stack([eq.value for eq in p1 + p2], -1)
    if own.size:  # k sends nothing in a slot it listens to, so its own columns are zero on the phase-1 rows
        sent = _stack([own_syms[sym] for sym in sched.own_symbols(k)], -1)
        y -= np.matvec(a.take(own, axis=-1), sent)
    if refs:
        a[..., len(p1):, :] -= sum(ref.coeffs for ref in refs)[..., None, :]
        y[..., len(p1):] -= sum(ref.value for ref in refs)[..., None]
    stray = np.abs(a.take(rest, axis=-1)).max(axis=(-2, -1), initial=0.0)
    h = a.take(unknowns, axis=-1)
    try:  # zf_solve makes the one rank check; the rank is recomputed only to report it
        sol = zf_solve(h, y)
    except RankDeficient as exc:
        h = h[exc.index]
        raise RankDeficient(f"user {k}: effective rank {rank(h)} < {h.shape[1]} unknowns",
                            exc.index) from None
    recovered = {sched.symbols[c]: x for c, x in zip(unknowns, sol.swapaxes(0, -1))
                 if sched.classes[k][c] == "D"}
    return DecodeResult(recovered, h.shape[-1], h, stray)


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


def _execute(scenario: str, cfg: NetworkConfig, seed, relay_mode: str | None):
    """Draw, design, both phases and the relays for one seed or a batch of seeds."""
    sched = scenario_schedule(scenario, cfg.K)
    ch = draw_channels(cfg, sched.n_slots, _derived(seed, 0))
    syms = draw_symbols(sched, _derived(seed, 1))
    precoders = SCENARIOS[scenario].design(ch, cfg.K)
    ledger = run_phase1(sched, ch, syms, cfg.noise_var, _derived(seed, 2))
    plan = relay_process(ledger, precoders, sched, relay_mode or SCENARIOS[scenario].relay_mode)
    ledger = run_phase2(plan, sched, ch, cfg.noise_var, _derived(seed, 3), ledger)
    return sched, ch, syms, precoders, ledger


class _Outcome(NamedTuple):
    """Per-seed results of one batch of seeds: every array's leading axis is the seed."""

    sched: Schedule
    recovered: dict          # desired SymbolId -> estimates
    errors: np.ndarray       # (seeds, recovered symbols) relative errors, in recovered's order
    ranks: dict              # user -> effective rank, one decode shape for every seed
    residual: np.ndarray
    stray: np.ndarray
    alignment: np.ndarray
    linearity: np.ndarray


def _run(scenario: str, cfg: NetworkConfig, seeds: list, relay_mode: str | None) -> _Outcome:
    """One pass of the protocol over a batch of seeds: decode every user, take both checks."""
    sched, _, syms, precoders, ledger = _execute(scenario, cfg, seeds, relay_mode)
    results = {k: decode_user(k, ledger, sched, {sym: syms[sym] for sym in sched.own_symbols(k)})
               for k in sched.users}
    recovered = {sym: x for res in results.values() for sym, x in res.recovered.items()}
    want = _stack([syms[sym] for sym in recovered], -1)
    miss = _stack(list(recovered.values()), -1) - want
    # np.hypot is Python's abs of a complex; np.abs rounds differently
    errors = np.hypot(miss.real, miss.imag) / np.hypot(want.real, want.imag)
    return _Outcome(sched, recovered, errors, {k: res.effective_rank for k, res in results.items()},
                    precoders.residual, np.max([res.stray_coeff for res in results.values()], axis=0),
                    alignment_error(ledger, sched, syms), ledger_linearity_error(ledger, sched, syms))


def chunk_seeds(sched: Schedule, cfg: NetworkConfig) -> int:
    """Seeds per chunk: CHUNK_BYTES over one seed's share of the largest stacks, the design's
    Kronecker rows with their complete QR factors and relay_process's bank products."""
    n, width = cfg.sum_antenna_sq, sum(cfg.relay_antennas)
    rows = sum(len(rows) for rows, _, _ in sched.constraint_rows.values())
    per_seed = 16 * sched.phase2_len * (n * (rows + sched.phase1_len * n)
                                        + sched.phase1_len * width * len(sched.symbols))
    return max(1, CHUNK_BYTES // per_seed)


def _chunks(scenario: str, cfg: NetworkConfig, base_seed: int, count: int,
            relay_mode: str | None = None):
    """(seeds, outcome) for the derived seeds 0..count-1 in chunks of chunk_seeds, in order.

    A chunk that raises is replayed seed by seed as batches of one, so the first failing
    seed raises exactly as it would alone.
    """
    size = chunk_seeds(scenario_schedule(scenario, cfg.K), cfg)
    for start in range(0, count, size):
        seeds = [derive_trial_seed(base_seed, i) for i in range(start, min(start + size, count))]
        try:
            batches = [(seeds, _run(scenario, cfg, seeds, relay_mode))]
        except Exception:  # whatever a stage raised, the replay raises again, from its seed
            if len(seeds) == 1:
                raise
            batches = (([seed], _run(scenario, cfg, [seed], relay_mode)) for seed in seeds)
        yield from batches


def _reports(scenario: str, seeds: list, out: _Outcome) -> list:
    """One SimReport per seed of a batch's outcome; the achieved DoF counts the symbols
    recovered within SYMBOL_ERROR_TOL relative error, per slot."""
    sched = out.sched
    worst = out.errors.max(axis=-1, initial=0.0)
    counts = np.count_nonzero(out.errors < SYMBOL_ERROR_TOL, axis=-1)
    return [SimReport(
        scenario=scenario,
        seed=seed,
        recovered={sym: complex(x[i]) for sym, x in out.recovered.items()},
        max_symbol_error=float(worst[i]),
        effective_ranks=dict(out.ranks),
        slots_used=sched.n_slots,
        symbols_delivered=len(sched.symbols),
        achieved_dof=Fraction(int(counts[i]), sched.n_slots),
        constraint_residual=float(out.residual[i]),
        max_stray_coeff=float(out.stray[i]),
        alignment_error=float(out.alignment[i]),
        linearity_error=float(out.linearity[i]),
    ) for i, seed in enumerate(seeds)]


def run_end_to_end(scenario: str, cfg: NetworkConfig, seed: int,
                   relay_mode: str | None = None) -> SimReport:
    """Run one protocol instance and decode every user: the batched pass on a batch of one."""
    return _reports(scenario, [seed], _run(scenario, cfg, [seed], relay_mode))[0]


def simulate(scenario: str, cfg: NetworkConfig, base_seed: int, trials: int,
             relay_mode: str | None = None) -> list:
    """The SimReport of each derived seed derive_trial_seed(base_seed, i), i < trials, in
    chunks; the first failing trial raises as it would alone."""
    return [rep for seeds, out in _chunks(scenario, cfg, base_seed, trials, relay_mode)
            for rep in _reports(scenario, seeds, out)]


def ledger_linearity_error(ledger: EquationLedger, sched: Schedule, syms: dict):
    """Worst |observed - coeffs applied to the true symbols| over all equations, per seed.

    Independent of the decoding path; equals the noise magnitude in noisy
    runs and vanishes (to numerical precision) in noiseless ones.
    """
    users = [eq for user_eqs in ledger.users.values() for eq in user_eqs]
    relays = list(ledger.relays.values())
    a = np.concatenate([eq.coeffs[..., None, :] for eq in users] + [eq.coeffs for eq in relays], axis=-2)
    y = np.concatenate([eq.value[..., None] for eq in users] + [eq.value for eq in relays],
                       axis=-1)
    return np.abs(y - np.matvec(a, _symbol_vector(sched, syms))).max(axis=-1)


def alignment_error(ledger: EquationLedger, sched: Schedule, syms: dict):
    """Worst mismatch between relayed interference and the stored equations it replays, per seed.

    For every phase-2 equation of every user and every pure slot of that user,
    checks the coefficients of the slot's symbols and the value they rebuild
    against the stored phase-1 equation: one gather of every user's equations, then
    one product per shape of (phase-2 equations, slot symbols), one shape for every
    built-in schedule. Zero (to numerical precision) when the scenario designs no alignment.
    """
    s = _symbol_vector(sched, syms)
    eqs, groups = [], defaultdict(list)  # shape -> [(phase-2 equations, stored equation, columns)]
    for k, user_eqs in ledger.users.items():
        p2 = [len(eqs) + i for i, eq in enumerate(user_eqs) if eq.slot > sched.phase1_len]
        for i, ref in enumerate(user_eqs):
            if ref.slot in sched.pure_slots(k):
                cols = sched.slot_columns[ref.slot]
                groups[len(p2), len(cols)].append((p2, len(eqs) + i, cols))
        eqs += user_eqs
    worst = np.zeros(s.shape[:-1])
    if not groups:
        return worst
    coeffs = _stack([eq.coeffs for eq in eqs], -2)
    values = _stack([eq.value for eq in eqs], -1)
    for members in groups.values():
        p2, ref, cols = (np.array(x, dtype=np.intp) for x in zip(*members))
        got = np.ascontiguousarray(coeffs[..., p2[:, :, None], cols[:, None, :]])  # (..., pair, row, column)
        gap = np.abs(got - coeffs[..., ref[:, None], cols][..., None, :]).max(axis=(-3, -2, -1), initial=0.0)
        value = np.matvec(got, np.ascontiguousarray(s[..., cols])) - values[..., ref, None]
        worst = np.maximum(worst, np.maximum(gap, np.abs(value).max(axis=(-2, -1), initial=0.0)))
    return worst


def verify_scenario(scenario: str, cfg: NetworkConfig, n_seeds: int, base_seed: int = 0) -> dict:
    """Run the invariant suite over derived seeds and report a JSON-ready summary.

    A seed fails when any symbol's relative error reaches SYMBOL_ERROR_TOL;
    when the constraint residual, the alignment error (the replay identity
    between phase-2 equations and the stored pure-slot equations), the ledger
    linearity error or any user's stray coefficient reaches RESIDUAL_TOL;
    when a user's effective rank differs from its unknown count
    (sched.unknowns); or when the symbols recovered within tolerance per slot
    fall short of the schedule's own symbols-per-slot ratio. The seeds run in
    chunks (see _chunks), each folded into the summary as one set of arrays and dropped.
    """
    sched = scenario_schedule(scenario, cfg.K)
    expected_dof = Fraction(len(sched.symbols), sched.n_slots)
    expected_rank = {k: len(sched.unknowns(k)) for k in sched.users}
    failures = []
    max_err = max_resid = max_align = max_linear = 0.0
    dof_ok = rank_ok = True
    done = 0
    for seeds, out in _chunks(scenario, cfg, base_seed, n_seeds):
        errors = out.errors.max(axis=-1, initial=0.0)
        dof = np.count_nonzero(out.errors < SYMBOL_ERROR_TOL, axis=-1) == len(sched.symbols)
        ranks = out.ranks == expected_rank
        coeff_err = np.max([out.residual, out.alignment, out.linearity, out.stray], axis=0)
        bad = ~dof | (errors >= SYMBOL_ERROR_TOL) | (coeff_err >= RESIDUAL_TOL) | (not ranks)
        failures += (done + np.flatnonzero(bad)).tolist()
        done += len(seeds)
        rank_ok = rank_ok and ranks
        dof_ok = dof_ok and bool(dof.all())
        max_err = max(max_err, float(errors.max()))
        max_resid = max(max_resid, float(out.residual.max()))
        max_align = max(max_align, float(out.alignment.max()))
        max_linear = max(max_linear, float(out.linearity.max()))
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
