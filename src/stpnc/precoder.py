"""Relay precoder synthesis, derived from the schedule's receive table.

The relays shape phase-2 transmissions so that every user receives only
what its receive class allows it: D, SI and jointly decoded OI
components are free; an aligned (AOI) component's coefficient must equal
the phase-1 channel, so the relayed interference replays the stored
equation; every N component is neutralized to a zero coefficient.

The relays act together as one distributed precoder: per (phase-2 slot t, phase-1 slot
k) pair, one block-diagonal sum M_l x sum M_l bank B_(t,k) applied to what every relay
received in slot k, relay l's M_l x M_l block V_(l,t,k) on its own antenna columns
``relay_columns[l-1]`` and zero elsewhere (no relay combines another's receptions). The
coefficient of transmitter i at user j is h_dn(j, t) B_(t,k) h_up(i, k), per relay the
Kronecker row (h_up^T x h_dn) applied to vec(V), so each pair's stacked vec'd blocks solve
one linear system in those rows, in dual (Gram) form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .channel import ChannelSet, _KeyedView, bank_unknowns
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
    """Never raised: ``design`` reports an unsolvable slot pair as AntennaDeficit. Kept public."""


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

    bank: np.ndarray = field(repr=False)
    columns: tuple
    residual: float | np.ndarray = 0.0  # one value per seed of a batch
    failures: dict = field(default_factory=dict)
    mode: ClassVar[str] = "per_block"  # the one layout; read only by perfbench/oracles.py

    # read-only keyed view block[(l, t, k)], kept only for perfbench/oracles.py;
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
    nearest to g, in dual form f = g + A^H l with (A A^H) l = b - A g; a pair without
    targets is then scaled to unit norm. Pairs with equal row counts are one stack, one
    ``solve_least_norm`` call, laid out by the cached ``Schedule.constraint_layout`` and
    ``bank_unknowns``. A batch of seeds leads every array; an infeasible pair goes to
    ``failures``. A schedule that fixes its relay set rejects any other first.
    """
    cfg = ch.config
    if sched.relays not in (None, cfg.relay_antennas):
        (m,) = sched.relays  # the built-in fixed sets are one relay
        raise AntennaDeficit(f"{sched.name} needs a single relay with {m} antennas")
    need, groups, _ = sched.constraint_layout  # checked before any decomposition
    if cfg.sum_antenna_sq < need:
        raise AntennaDeficit(f"need sum of squared antennas >= {need}, have {cfg.sum_antenna_sq}")
    width = sum(cfg.relay_antennas)
    bank = np.zeros(ch.gain.shape[:-3] + (sched.phase2_len, sched.phase1_len, width, width), dtype=complex)
    # row (j, i) is kron(h_up(l, i, k), h_dn(j, l, t)) for each relay l in turn: its entries
    # pair every uplink antenna a of relay l with every downlink antenna b (stack columns),
    # and the entry for (a, b) is the bank's [b, a]: one assignment places a pair's blocks
    up_col, dn_col, g = bank_unknowns(cfg.relay_antennas)
    dn = ch.dn[..., sched.phase1_len:sched.n_slots, :, dn_col]  # (phase-2 slot, user, unknown)
    infeasible = np.zeros(bank.shape[:-2], dtype=bool)  # (..., phase-2 slot, phase-1 slot)
    for ks, rx, tx, aligned in groups:
        # (phase-2 slot, phase-1 slot, row, unknown): a row's uplink half and its target
        # depend on the phase-1 slot alone
        up = ch.up[..., ks[:, None, None] - 1, tx[..., None], up_col]
        a = dn.take(rx, axis=-2)  # row-major, so the solver reshapes it without a copy
        np.multiply(up[..., None, :, :, :], a, out=a)  # uplink first, as kron multiplies
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
    p = PrecoderSet(bank, cfg.relay_columns, failures=failures)
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

    Independent of the Kronecker rows synthesis stacks: one direct product DN(t) @ B_(t,k) @
    UP(k)^T per slot pair gives every (receiver, transmitter) coefficient (the per-relay sum,
    the bank being zero off its blocks), read in one gather at ``constraint_layout``'s stacked
    rows. One value per leading index (seed) of the stacks.
    """
    n1, (k, rx, tx, aligned) = sched.phase1_len, sched.constraint_layout[2]
    # (..., phase-2 slot, phase-1 slot, receiver, transmitter)
    coeff = ch.dn[..., n1:sched.n_slots, None, :, :] @ p.bank @ ch.up[..., None, :n1, :, :].swapaxes(-1, -2)
    gaps = coeff[..., :, k - 1, rx, tx] - _targets(ch, k, aligned, rx, tx)[..., None, :]
    return np.abs(gaps).max(axis=(-2, -1), initial=0.0)
