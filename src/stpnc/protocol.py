"""End-to-end execution of the two-phase relay protocol.

Phase 1 transmits data symbols while listeners (users and relays) store linear equations
with exactly known coefficients. The relays then forward precoded combinations in phase 2.
Each user decodes by subtracting its self-interference and the interference it overheard
in phase 1 when the precoders replay that shape, and zero-forcing the rest, one pass per
group of users with one decode shape (``Schedule.decode_groups``). In noiseless mode every
desired symbol is recovered exactly and the report carries the achieved symbols-per-slot
ratio as an exact fraction.

The payload is one complex array ``s`` in ``Schedule.symbols`` column order
(``draw_payload``). Phase 1 applies the ledger's rows to it, each user reads its SI
values as its own columns of it, both checks rebuild the stored values from it, and
the users' estimates come back in the same columns, as ``SimReport.recovered``; only the
CLI's report keys them by symbol id. The side information is stored on the
schedule's (slot, user) grid (see ``EquationLedger``): each phase writes its slots
with whole-array products, and decoding and both checks index the grid through the
schedule's cached arrays.

Seeds are a leading batch axis: the draws take a batch of seeds, and every later stage any
leading axes (the noise draws and failure records read one seed axis). One pass draws,
designs, runs both phases and the relays, decodes and checks a whole batch, and each seed
gets the bits it would get alone. The pass returns one ``SimReport``, each result an array
with a row per seed; ``run_end_to_end`` is that pass on a batch of one. ``verify_scenario``
and ``simulate`` run their seeds in chunks of ``chunk_seeds`` seeds, sized by CHUNK_BYTES,
so memory stays flat for any seed count. A stage that can fail for some seeds returns a
failure record, {seed position: exception}, and leaves those seeds' arrays finite; ``_run``
merges the records in pipeline order, and the first failing seed raises once, exactly as
it would alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .channel import (
    ChannelSet,
    NetworkConfig,
    derive_trial_seeds,
    draw_channels,
    standard_normals,
)
from .linalg import RankDeficient, zf_solve
from .linalg import rank  # noqa: F401  (unused; perfbench/spans.py wraps protocol.rank)
from .precoder import PrecoderSet, design_case1, design_case2, design_twic, design_twxc
from .scheduler import DecodeGroup, InvalidUserCount, Schedule
from .scheduler import schedule_case1, schedule_case2, schedule_twic, schedule_twxc

SYMBOL_ERROR_TOL = 1e-8  # a symbol counts as recovered below this relative error
RESIDUAL_TOL = 1e-9      # gate on constraint residual, alignment, linearity and stray error
# Budget for one chunk's largest stacks (see chunk_seeds). A whole pass holds two to five
# times that, measured; per-call costs are amortised well before chunks this large.
CHUNK_BYTES = 4 << 20


@dataclass
class EquationLedger:
    """Everything heard, as linear observations value = row @ symbols (+ noise) whose rows
    run over ``Schedule.symbols`` (column ``sched.column[sym]``), on the schedule's grid.

    rows[t-1, k-1] and values[t-1, k-1] are user k's equation in slot t, exactly zero where
    ``listens`` (the schedule's table) is False. relay[t-1] and relay_values[t-1] are the
    relay bank's equations in phase-1 slot t, relay l's rows at ``relay_columns[l-1]``. A
    batch of seeds leads every array but ``listens`` with its seed axis.
    """

    rows: np.ndarray          # (..., slots, users, n)
    values: np.ndarray        # (..., slots, users)
    relay: np.ndarray         # (..., phase-1 slots, sum M_l, n)
    relay_values: np.ndarray  # (..., phase-1 slots, sum M_l)
    listens: np.ndarray       # (slots, users) bool

    # read-only views kept only for perfbench/spans.py, which counts the equations stored
    @property
    def users(self) -> dict:
        """User k -> the slots it heard, one equation each."""
        return {k: tuple(int(t) + 1 for t in np.flatnonzero(heard))
                for k, heard in enumerate(self.listens.T, start=1)}

    @property
    def relays(self) -> range:
        """The phase-1 slots, one equation of the relay bank each."""
        return range(1, self.relay.shape[-3] + 1)


def draw_payload(sched: Schedule, seeds) -> np.ndarray:
    """Unit-power CN(0,1) payload in ``Schedule.symbols`` column order, (seeds, n): each seed
    drawn alone, its real parts, then its imaginary ones, from default_rng(seed)'s stream."""
    normals = standard_normals(seeds, (2, len(sched.symbols)))
    return (normals[:, 0] + 1j * normals[:, 1]) / np.sqrt(2.0)


def draw_symbols(sched: Schedule, seed: int) -> dict:
    """One seed's payload as Python complex numbers keyed by symbol id; only
    perfbench/oracles.py reads it."""
    return dict(zip(sched.symbols, draw_payload(sched, [seed])[0].tolist()))


def _noise(seeds, sizes, noise_var: float) -> np.ndarray:
    """Per seed, from default_rng(seed)'s stream, one CN(0, noise_var) vector per entry of
    sizes in turn (its real parts, then its imaginary ones), concatenated: the receivers'
    noise in reception order, (seeds, sum sizes)."""
    sizes = np.asarray(sizes)
    normals = standard_normals(seeds, (2 * sizes.sum(),))
    # vector j fills output entries o_j..e_j-1; entry p reads its real part at o_j + p and
    # its imaginary part at e_j + p of the seed's block
    ends, at = np.cumsum(sizes), np.arange(sizes.sum())
    return np.sqrt(noise_var / 2.0) * (normals[:, np.repeat(ends - sizes, sizes) + at]
                                       + 1j * normals[:, np.repeat(ends, sizes) + at])


def run_phase1(sched: Schedule, ch: ChannelSet, s: np.ndarray,
               noise_var: float = 0.0, seeds=None) -> EquationLedger:
    """Execute the learning phase: every listening user stores its equation, and the relay
    bank one sum M_l x n equation per slot (relay l's rows at its antenna columns).

    One gather of every column's sender gains writes the users' rows, a second the bank's
    uplinks. Noisy runs draw each slot's noise user after user, then relay after relay, for
    s[i] from seeds[i]'s default_rng stream; noiseless runs draw none and read no seeds.
    """
    n1, (src, carries) = sched.phase1_len, sched.senders
    heard = sched.listens[:n1]
    rows = np.zeros(s.shape[:-1] + sched.listens.shape + s.shape[-1:], dtype=complex)
    rows[..., :n1, :, :] = np.where(heard[:, :, None] & carries[:, None, :], ch.gain[..., :n1, :, src], 0)
    values = np.matvec(rows, s[..., None, :])
    # row-major like the user rows: NumPy picks its product kernel from the strides
    relay = np.ascontiguousarray(np.where(carries[:, None, :], ch.up[..., :n1, src, :].swapaxes(-1, -2), 0))
    relay_values = np.matvec(relay, s[..., None, :])
    if noise_var:  # the stream runs per slot: its listening users, then the bank's antennas
        noise = _noise(seeds, [m for row in heard for m in (1,) * row.sum() + ch.config.relay_antennas],
                       noise_var)
        users = np.concatenate([[True] * row.sum() + [False] * relay.shape[-2] for row in heard])
        values[..., :n1, :][..., heard] += noise[..., users]
        relay_values += noise[..., ~users].reshape(relay_values.shape)
    return EquationLedger(rows, values, relay, relay_values, sched.listens)


@dataclass
class RelayTransmitPlan:
    """The relay bank's phase-2 transmissions, per phase-2 slot t (at t - phase1_len - 1).

    coeffs (..., phase-2 slots, sum M_l, n) is sum_k B(t,k) @ A(k), what the bank applies
    to the symbol vector by design, A(k) being the coefficients it stored in phase-1 slot
    k; signals (..., phase-2 slots, sum M_l) is the transmit vector actually formed from
    the stored receptions (they coincide in noiseless runs). Relay l's entries are the
    rows ``relay_columns[l-1]``; a batch of seeds leads both with its seed axis. failures
    holds each seed's first relay that cannot decode.
    """

    coeffs: np.ndarray
    signals: np.ndarray
    failures: dict


def _short(kept, need: int, who: str, ids, what: str) -> dict:
    """Per seed, RankDeficient for its first system (kept's last axis: ``who`` ids) below need."""
    kept = np.reshape(kept, (-1, len(ids)))
    first = (kept < need).argmax(axis=-1)
    return {int(i): RankDeficient(f"{who} {ids[first[i]]}: effective rank {kept[i, first[i]]} < {need} {what}")
            for i in np.flatnonzero(kept.min(axis=-1) < need)}


def relay_decode(ledger: EquationLedger, ell: int, rows: slice) -> tuple[np.ndarray, dict]:
    """Zero-force the whole symbol vector from relay ell's own rows of the bank equations."""
    h = ledger.relay[..., rows, :]
    h = h.reshape(h.shape[:-3] + (-1, h.shape[-1]))  # slot after slot
    sol, kept = zf_solve(h, ledger.relay_values[..., rows].reshape(h.shape[:-1]))
    return sol, _short(kept, h.shape[-1], "relay", [ell], "symbols")


def relay_process(ledger: EquationLedger, p: PrecoderSet, mode: str) -> RelayTransmitPlan:
    """Turn stored receptions into phase-2 transmit signals through the relay bank.

    Per phase-2 slot, the bank's product with each phase-1 slot's equation, summed in slot
    order. linear_forward applies it to the raw vectors received. decode_forward first
    zero-forces every symbol from each relay's own rows and transmits that relay's rows of
    the design coefficients applied to them. Both modes expose identical design
    coefficients and agree in noiseless runs.
    """
    if mode not in ("decode_forward", "linear_forward"):
        raise ValueError(f"unknown relay mode {mode!r}")
    coeffs = (p.bank @ ledger.relay[..., None, :, :, :]).sum(axis=-3)
    failures = {}
    if mode == "decode_forward":
        signals = np.empty(coeffs.shape[:-1], dtype=complex)
        for ell, c in enumerate(p.columns, start=1):
            decoded, short = relay_decode(ledger, ell, c)
            signals[..., c] = np.matvec(coeffs[..., c, :], decoded[..., None, :])
            failures = short | failures  # an earlier relay's failure stands
    else:
        signals = (p.bank @ ledger.relay_values[..., None, :, :, None]).sum(axis=-3)[..., 0]
    return RelayTransmitPlan(coeffs, signals, failures)


def run_phase2(plan: RelayTransmitPlan, sched: Schedule, ch: ChannelSet,
               noise_var: float = 0.0, seeds=None, *, ledger: EquationLedger) -> EquationLedger:
    """Relay slots: every listening user stores one equation over every symbol the relays
    forward, into the ledger's phase-2 rows.

    Noisy runs draw the noise per slot, user after user, for the ledger's seed i from
    seeds[i]'s default_rng stream; noiseless runs draw none and read no seeds.
    """
    n1, heard = sched.phase1_len, sched.listens[sched.phase1_len:]
    dn = ch.dn[..., n1:, :, :]  # (..., phase-2 slots, users, sum M_l)
    ledger.rows[..., n1:, :, :] = np.where(heard[:, :, None], dn @ plan.coeffs, 0)
    values = np.where(heard, np.matvec(dn, plan.signals), 0)
    if noise_var:
        values[..., heard] += _noise(seeds, [1] * np.count_nonzero(heard), noise_var)
    ledger.values[..., n1:, :] = values
    return ledger


@dataclass
class DecodeResult:
    """One ``decode_user`` pass over a group: its users axis follows the seed axes."""

    recovered: np.ndarray       # (..., desired) estimates of the D columns, user after user
    columns: np.ndarray         # those columns
    effective_rank: np.ndarray  # (..., users) zf_solve's kept count of each system
    matrix: np.ndarray          # (..., users, rows, unknowns) the systems that were zero-forced
    stray_coeff: np.ndarray     # (..., users) worst coefficient left on columns outside each system
    failures: dict              # per seed, the first user whose system is rank deficient


def decode_user(g: DecodeGroup, ledger: EquationLedger, s: np.ndarray) -> DecodeResult:
    """Recover the desired symbols of every user of a ``DecodeGroup`` in one pass.

    One gather stacks each user's heard, non-pure rows (``DecodeGroup.kept``), columns ordered
    unknowns (D, OI), own (SI), rest (AOI, N). Phase-2 rows lose SI (own payload values) and
    AOI (the stored pure-slot equations); one ``zf_solve`` over seeds and users zero-forces
    the unknowns, and the rest columns keep the stray coefficient.
    """
    at, n, own = g.users[:, None, None] - 1, g.unknowns.shape[-1], g.own.shape[-1]
    order = np.concatenate((g.unknowns, g.own, g.rest), axis=-1)[:, None, :]
    # (..., users, rows, n): row-major, so every seed takes one BLAS path
    a = np.ascontiguousarray(ledger.rows[..., g.kept[..., None], at, order])
    y = np.ascontiguousarray(ledger.values[..., g.kept, at[..., 0]])
    # the rows' scale before cancellation, floored by the bank's uplinks: constraints can zero them
    scale = np.maximum(np.abs(a).max(axis=(-2, -1), initial=0.0),
                       np.abs(ledger.relay).max(axis=(-3, -2, -1))[..., None])
    # a user sends nothing in a slot it listens to: its own columns are zero on phase-1 rows
    y -= np.matvec(a[..., n:n + own], s.take(g.own, axis=-1))
    if g.pure.size:  # summed row-major, so a seed's sums add in one order in any batch
        pure_rows = np.ascontiguousarray(ledger.rows[..., g.pure[..., None], at, order])
        pure_values = np.ascontiguousarray(ledger.values[..., g.pure, at[..., 0]])
        a[..., g.split:, :] -= pure_rows.sum(axis=-2)[..., None, :]
        y[..., g.split:] -= pure_values.sum(axis=-1)[..., None]
    stray = np.abs(a[..., n + own:]).max(axis=(-2, -1), initial=0.0)
    sol, kept = zf_solve(a[..., :n], y, scale)
    return DecodeResult(sol[..., g.desired], g.unknowns[g.desired], kept, a[..., :n], stray,
                        _short(kept, n, "user", g.users, "unknowns"))


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


def _execute(scenario: str, cfg: NetworkConfig, seeds, relay_mode: str | None):
    """Draw, design, both phases and the relays for a batch of seeds, plus the failure
    record of design and then the relays. Seed s's stages i = 0..3 (channels, payload,
    phase-1 noise, phase-2 noise) draw from derive_trial_seed(s, i)."""
    sched = scenario_schedule(scenario, cfg.K)
    channel_seed, payload_seed, noise1_seed, noise2_seed = derive_trial_seeds(seeds, [[0], [1], [2], [3]])
    ch = draw_channels(cfg, sched.n_slots, channel_seed)
    s = draw_payload(sched, payload_seed)
    precoders = SCENARIOS[scenario].design(ch, cfg.K)
    ledger = run_phase1(sched, ch, s, cfg.noise_var, noise1_seed)
    plan = relay_process(ledger, precoders, relay_mode or SCENARIOS[scenario].relay_mode)
    ledger = run_phase2(plan, sched, ch, cfg.noise_var, noise2_seed, ledger=ledger)
    return sched, ch, s, precoders, ledger, plan.failures | precoders.failures


class SimReport(NamedTuple):
    """A protocol run's results and the invariants verify gates on; array row i is seeds[i]'s."""

    sched: Schedule
    seeds: list
    recovered: np.ndarray            # (seeds, n) estimates, in Schedule.symbols column order
    max_symbol_error: np.ndarray     # (seeds,) largest relative error of those estimates
    delivered: np.ndarray            # (seeds,) estimates within SYMBOL_ERROR_TOL relative error
    effective_ranks: np.ndarray      # (seeds, users) each user's effective rank
    constraint_residual: np.ndarray  # (seeds,) the design's worst constraint violation
    max_stray_coeff: np.ndarray      # (seeds,) worst coefficient left outside any user's decode system
    alignment_error: np.ndarray      # (seeds,) alignment_error of the run's ledger
    linearity_error: np.ndarray      # (seeds,) ledger_linearity_error of the run's ledger

    def achieved_dof(self, i: int) -> Fraction:
        """Seed i's symbols recovered within SYMBOL_ERROR_TOL, per slot."""
        return Fraction(int(self.delivered[i]), self.sched.n_slots)


def _run(scenario: str, cfg: NetworkConfig, seeds: list, relay_mode: str | None) -> SimReport:
    """One pass of the protocol over a batch of seeds: decode every group of users, take both checks."""
    sched, _, s, precoders, ledger, failures = _execute(scenario, cfg, seeds, relay_mode)
    recovered = np.full_like(s, np.nan)  # every column is its destination user's D: none stays NaN
    ranks, stray = np.empty((len(seeds), len(sched.users)), dtype=int), np.zeros(len(seeds))
    for group in sched.decode_groups:  # one for every built-in: the lowest short user stands
        res = decode_user(group, ledger, s)
        failures = res.failures | failures
        recovered[:, res.columns] = res.recovered
        ranks[:, group.users - 1] = res.effective_rank
        stray = np.maximum(stray, res.stray_coeff.max(axis=-1))
    if failures:
        raise failures[min(failures)]
    miss = recovered - s
    # np.hypot is Python's abs of a complex; np.abs rounds differently
    errors = np.hypot(miss.real, miss.imag) / np.hypot(s.real, s.imag)
    return SimReport(sched, seeds, recovered, errors.max(axis=-1, initial=0.0),
                     np.count_nonzero(errors < SYMBOL_ERROR_TOL, axis=-1), ranks, precoders.residual,
                     stray, alignment_error(ledger, sched, s), ledger_linearity_error(ledger, s))


def chunk_seeds(sched: Schedule, cfg: NetworkConfig) -> int:
    """Seeds per chunk: CHUNK_BYTES over one seed's share of the largest stacks, the design's
    rows and their Gram, rows x (sum M_l^2 + rows) per slot pair, and the bank products."""
    n, width = cfg.sum_antenna_sq, sum(cfg.relay_antennas)
    rows = sum(len(rx) * (n + len(rx)) for rx, _, _ in sched.constraint_rows.values())
    per_seed = 16 * sched.phase2_len * (rows + sched.phase1_len * width * len(sched.symbols))
    return max(1, CHUNK_BYTES // per_seed)


def _chunks(scenario: str, cfg: NetworkConfig, base_seed: int, count: int,
            relay_mode: str | None = None):
    """The SimReport of the derived seeds 0..count-1 in chunks of chunk_seeds, in order."""
    size = chunk_seeds(scenario_schedule(scenario, cfg.K), cfg)
    for start in range(0, count, size):
        seeds = derive_trial_seeds(base_seed, range(start, min(start + size, count))).tolist()
        yield _run(scenario, cfg, seeds, relay_mode)


def run_end_to_end(scenario: str, cfg: NetworkConfig, seed: int,
                   relay_mode: str | None = None) -> SimReport:
    """Run one protocol instance and decode every user: the batched pass on a batch of one."""
    return _run(scenario, cfg, [seed], relay_mode)


def simulate(scenario: str, cfg: NetworkConfig, base_seed: int, trials: int,
             relay_mode: str | None = None) -> SimReport:
    """The SimReport of the derived seeds derive_trial_seed(base_seed, i), i < trials, its
    chunks concatenated; the first failing trial raises as it would alone."""
    if trials < 1:
        raise ValueError("need at least one trial")
    parts = list(_chunks(scenario, cfg, base_seed, trials, relay_mode))
    return SimReport(parts[0].sched, [seed for rep in parts for seed in rep.seeds],
                     *map(np.concatenate, zip(*(rep[2:] for rep in parts))))


def ledger_linearity_error(ledger: EquationLedger, s: np.ndarray):
    """Worst |observed - coeffs applied to the true symbols| over all equations, per seed.

    Independent of the decoding path; equals the noise magnitude in noisy
    runs and vanishes (to numerical precision) in noiseless ones.
    """
    s = s[..., None, :]
    users = np.abs(ledger.values - np.matvec(ledger.rows, s)).max(axis=(-2, -1))
    return np.maximum(users, np.abs(ledger.relay_values - np.matvec(ledger.relay, s)).max(axis=(-2, -1)))


def alignment_error(ledger: EquationLedger, sched: Schedule, s: np.ndarray):
    """Worst mismatch between relayed interference and the stored equations it replays, per seed.

    For every replay identity of the schedule (``Schedule.replays``: a user's phase-2
    equation and one of its pure slots), checks the coefficients of the slot's symbols and
    the value they rebuild against the stored phase-1 equation: one gather and one product
    per group of identities, one group for every built-in schedule. Zero (to numerical
    precision) when the scenario designs no alignment.
    """
    worst = np.zeros(s.shape[:-1])
    for t, r, k, cols in sched.replays:
        # (..., pair, phase-2 row, column): row-major, so every seed takes one BLAS path
        got = np.ascontiguousarray(ledger.rows[..., t[:, :, None], k[:, None, None], cols[:, None, :]])
        gap = np.abs(got - ledger.rows[..., r[:, None], k[:, None], cols][..., None, :]).max(axis=(-3, -2, -1))
        value = np.matvec(got, np.ascontiguousarray(s[..., cols])) - ledger.values[..., r, k][..., None]
        worst = np.maximum(worst, np.maximum(gap, np.abs(value).max(axis=(-2, -1))))
    return worst


def verify_scenario(scenario: str, cfg: NetworkConfig, n_seeds: int, base_seed: int = 0) -> dict:
    """Run the invariant suite over derived seeds and report a JSON-ready summary.

    A seed fails when any symbol's relative error reaches SYMBOL_ERROR_TOL; when the
    constraint residual, the alignment error (the replay identity between phase-2 equations
    and the stored pure-slot equations), the ledger linearity error or any user's stray
    coefficient reaches RESIDUAL_TOL; when a user's effective rank, zf_solve's kept count,
    differs from its unknown count (its ``DecodeGroup``'s); or when the symbols recovered within
    tolerance per slot fall short of the schedule's own symbols-per-slot ratio. The seeds
    run in chunks (see _chunks), each folded into the summary as one set of arrays and dropped.
    """
    sched = scenario_schedule(scenario, cfg.K)
    expected_dof = Fraction(len(sched.symbols), sched.n_slots)
    expected_rank = np.empty(len(sched.users), dtype=int)
    for g in sched.decode_groups:
        expected_rank[g.users - 1] = g.unknowns.shape[-1]
    failures = []
    max_err = max_resid = max_align = max_linear = 0.0
    dof_ok = rank_ok = True
    done = 0
    for rep in _chunks(scenario, cfg, base_seed, n_seeds):
        dof = rep.delivered == len(sched.symbols)
        ranks = (rep.effective_ranks == expected_rank).all(axis=-1)
        coeff_err = np.max([rep.constraint_residual, rep.alignment_error, rep.linearity_error,
                            rep.max_stray_coeff], axis=0)
        bad = ~dof | (rep.max_symbol_error >= SYMBOL_ERROR_TOL) | (coeff_err >= RESIDUAL_TOL) | ~ranks
        failures += (done + np.flatnonzero(bad)).tolist()
        done += len(rep.seeds)
        rank_ok = rank_ok and bool(ranks.all())
        dof_ok = dof_ok and bool(dof.all())
        max_err = max(max_err, float(rep.max_symbol_error.max()))
        max_resid = max(max_resid, float(rep.constraint_residual.max()))
        max_align = max(max_align, float(rep.alignment_error.max()))
        max_linear = max(max_linear, float(rep.linearity_error.max()))
    return {
        "scenario": scenario,
        "K": cfg.K,
        "relay_antennas": list(cfg.relay_antennas),
        "seeds": n_seeds,
        "base_seed": base_seed,
        "expected_dof": str(expected_dof),
        "achieved_dof": str(expected_dof) if dof_ok else "mismatch",
        "expected_rank": int(expected_rank.min()),  # common to every user of a built-in scenario
        "rank_ok": rank_ok,
        "max_symbol_error": max_err,
        "max_constraint_residual": max_resid,
        "max_alignment_error": max_align,
        "max_linearity_error": max_linear,
        "failures": failures,
        "passed": not failures,
    }
