"""Relay precoder synthesis, derived from the schedule's receive table.

The relays shape phase-2 transmissions so that every user receives only
what its receive class allows it: D, SI and jointly decoded OI
components are free; an aligned (AOI) component's coefficient must equal
the phase-1 channel, so the relayed interference replays the stored
equation; every N component is neutralized to a zero coefficient.

The relays act together as one distributed precoder. Relay l owns the
antenna columns ``relay_columns[l-1]``, so the whole bank is one
block-diagonal sum M_l x sum M_l matrix per (phase-2 slot t, phase-1 slot k)
pair, applied to what every relay received in slot k; relay l's M_l x M_l
block V_(l,t,k) sits on its own columns and everything off the blocks is
zero (no relay combines another relay's receptions). The end-to-end
coefficient of transmitter i at user j is h_dn(j, t) B_(t,k) h_up(i, k),
which per relay is the Kronecker row (h_up^T x h_dn) applied to vec(V), so
each pair's stacked vec'd blocks solve one linear system in those rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelSet, _KeyedView
from .linalg import solve_least_norm
from .linalg import null_space  # noqa: F401  (unused; perfbench/spans.py wraps precoder.null_space)
from .scheduler import (
    Schedule,
    schedule_case1,
    schedule_case2,
    schedule_twic,
    schedule_twxc,
)


class SynthesisFailed(Exception):
    """A precoder constraint system was singular (probability-zero event).

    Nothing raises it: ``design`` reports an unsolvable slot pair as
    AntennaDeficit. The name stays public.
    """


class AntennaDeficit(Exception):
    """The relays do not have enough antennas to satisfy the constraints."""


@dataclass
class PrecoderSet:
    """Synthesized relay precoders plus the recomputed worst constraint violation.

    bank[t', k-1] is the relay bank of the pair (phase-2 slot t, phase-1 slot k),
    t' = t - phase1_len - 1: a (phase-2 slots, phase-1 slots, sum M_l, sum M_l) array,
    block-diagonal by ``columns`` (the config's relay_columns), relay l's block on
    columns[l-1] x columns[l-1]. Each pair's operator is the constrained point nearest to
    amplify-and-forward (see ``design``), scaled to unit norm where no target pins the scale.
    A batch of seeds puts its seed axis first, in bank and residual alike. failures names
    each seed's first infeasible pair in (t, k) order, whose operator is left zero.
    """

    scenario: str
    bank: np.ndarray = field(repr=False)
    columns: tuple
    mode: str = "per_block"
    residual: float | np.ndarray = 0.0  # one value per seed of a batch
    failures: dict = field(default_factory=dict)

    # read-only keyed view block[(l, t, k)], kept only for perfbench/oracles.py (with mode);
    # stpnc itself reads the bank
    @property
    def per_block(self):
        return _KeyedView(self._block)

    def _block(self, ell: int, t: int, k: int) -> np.ndarray:
        c = self.columns[ell - 1]
        block = self.bank[..., t - self.bank.shape[-3] - 1, k - 1, c, c]
        block.flags.writeable = False
        return block


def _targets(ch: ChannelSet, k, aligned, rx, tx) -> np.ndarray:
    """Each constraint row's required coefficient: h(j, i, k) where it aligns, else 0."""
    return np.where(aligned, ch.gain[..., k - 1, rx, tx], 0)


def design(sched: Schedule, ch: ChannelSet) -> PrecoderSet:
    """Block precoders meeting every constraint the schedule's D/SI/OI/N rule derives.

    One rule per (phase-2 slot, phase-1 slot) pair: with A the pair's rows, b their targets
    and g the stacked vec(I) blocks (amplify-and-forward), f is the point of {A f = b}
    nearest to g, whatever basis the solver uses; a pair without targets is then scaled to
    unit norm. The pairs whose phase-1 slots have the same row count are solved as one
    stack, one ``solve_least_norm`` call; every built-in schedule has a single row count.
    Leading axes of the channel stacks (a batch of seeds) lead every array here too, and
    the bank and residual keep them; an infeasible pair goes to ``failures``. A schedule
    that fixes its relay set (``Schedule.relays``) rejects any other before that.
    """
    if sched.relays not in (None, ch.config.relay_antennas):
        (m,) = sched.relays  # the built-in fixed sets are one relay
        raise AntennaDeficit(f"{sched.name} needs a single relay with {m} antennas")
    view = sched.constraint_rows
    # checked before any decomposition: a slot pair's stacked precoder has sum M_l^2 unknowns;
    # homogeneous rows need one more than their count for a nonzero solution
    need = max(len(rows) + (not any(aligned for *_, aligned in rows)) for rows, _, _ in view.values())
    have = ch.config.sum_antenna_sq
    if have < need:
        raise AntennaDeficit(f"need sum of squared antennas >= {need}, have {have}")
    cfg = ch.config
    width = sum(cfg.relay_antennas)
    batch = ch.gain.shape[:-3]
    bank = np.zeros(batch + (sched.phase2_len, sched.phase1_len, width, width), dtype=complex)
    # row (j, i) is kron(h_up(l, i, k), h_dn(j, l, t)) for each relay l in turn: its entries
    # pair every uplink antenna a of relay l with every downlink antenna b (stack columns),
    # and the entry for (a, b) is the bank's [b, a]: one assignment places a pair's blocks
    owner = np.repeat(np.arange(len(cfg.relay_antennas)), cfg.relay_antennas)  # antenna -> relay
    up_col, dn_col = np.nonzero(owner[:, None] == owner)
    g = (up_col == dn_col).astype(complex)  # vec(I) per relay: amplify-and-forward
    dn = ch.dn[..., sched.phase1_len:sched.n_slots, :, dn_col]  # (phase-2 slot, user, unknown)
    infeasible = np.zeros(bank.shape[:-2], dtype=bool)  # (..., phase-2 slot, phase-1 slot)
    for count in dict.fromkeys(len(rows) for rows, _, _ in view.values()):
        ks = np.array([k for k, (rows, _, _) in view.items() if len(rows) == count])
        rx, tx = (np.stack([view[k][i] for k in ks]) for i in (1, 2))
        aligned = np.array([[a for *_, a in view[k][0]] for k in ks], dtype=bool)
        # (phase-2 slot, phase-1 slot, row, unknown): a row's uplink half and its target
        # depend on the phase-1 slot alone
        up = ch.up[..., ks[:, None, None] - 1, tx[..., None], up_col]
        a = up[..., None, :, :, :] * dn[..., :, rx, :]
        b = _targets(ch, ks[:, None], aligned, rx, tx)
        f, ok = solve_least_norm(a, np.broadcast_to(b[..., None, :, :], a.shape[:-1]), g)
        # zeroed, not left NaN: a non-finite member would fail every later batched solve
        f[~ok] = 0.0
        infeasible[..., ks - 1] = ~ok
        free = ~b.any(axis=-1)[..., None, :] & ok
        f[free] /= np.linalg.norm(f[free], axis=-1, keepdims=True)
        bank[..., :, ks[:, None] - 1, dn_col, up_col] = f
    pairs, failures = infeasible.reshape(-1, sched.phase2_len * sched.phase1_len), {}
    for i in np.flatnonzero(pairs.any(axis=-1)):  # a failing seed's first pair in (t, k) order
        tp, kp = divmod(int(pairs[i].argmax()), sched.phase1_len)
        failures[int(i)] = AntennaDeficit(
            f"alignment constraints for slot pair ({sched.phase2_slots[tp]},{kp + 1}) are infeasible")
    p = PrecoderSet(sched.name, bank, cfg.relay_columns, failures=failures)
    p.residual = verify_constraints(p, ch, sched)
    return p


def design_twic(ch: ChannelSet) -> PrecoderSet:
    """Pairwise exchange on one 2-antenna relay: each symbol is nulled at one user."""
    return design(schedule_twic(), ch)


def design_twxc(ch: ChannelSet) -> PrecoderSet:
    """Crossed exchange on one 2-antenna relay: null at one user, align at another."""
    return design(schedule_twxc(), ch)


def design_case1(ch: ChannelSet, k1: int) -> PrecoderSet:
    """Neutralization only among k1 users."""
    return design(schedule_case1(k1), ch)


def design_case2(ch: ChannelSet, k2: int) -> PrecoderSet:
    """Joint neutralization and alignment among k2 users."""
    return design(schedule_case2(k2), ch)


def verify_constraints(p: PrecoderSet, ch: ChannelSet, sched: Schedule):
    """Max absolute violation over the schedule's constraint rows, recomputed from raw channels.

    Independent of the Kronecker rows synthesis stacks: per slot pair, one direct
    product DN(t) @ B_(t,k) @ UP(k)^T of the downlink stack, the block-diagonal bank and
    the uplink stack gives every (receiver, transmitter) coefficient, read at the rows'
    positions. Equal to the per-relay sum while the bank is zero off its relay blocks.
    One value per leading index (seed) of the stacks.
    """
    n1 = sched.phase1_len
    # (..., phase-2 slot, phase-1 slot, receiver, transmitter)
    coeff = ch.dn[..., n1:sched.n_slots, None, :, :] @ p.bank @ ch.up[..., None, :n1, :, :].swapaxes(-1, -2)
    gaps = []
    for k, (rows, rx, tx) in sched.constraint_rows.items():
        target = _targets(ch, k, [aligned for *_, aligned in rows], rx, tx)
        gaps.append(coeff[..., :, k - 1, rx, tx] - target[..., None, :])
    return np.abs(np.concatenate(gaps, axis=-1)).max(axis=(-2, -1), initial=0.0)
