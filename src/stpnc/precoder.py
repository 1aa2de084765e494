"""Relay precoder synthesis, derived from the schedule's receive table.

The relays shape phase-2 transmissions so that every user receives only
what ``Schedule.classes`` allows it: D, SI and jointly decoded OI
components are free; an aligned (AOI) component's coefficient must equal
the phase-1 channel, so the relayed interference replays the stored
equation; every N component is neutralized to a zero coefficient.

Each relay l holds one M_l x M_l matrix per (phase-2 slot t, phase-1 slot k)
pair, applied to what it received in slot k. The end-to-end coefficient of
transmitter i at user j is sum_l h_dn(j, l, t) V_(l,t,k) h_up(l, i, k), the
Kronecker row (h_up^T x h_dn) applied to vec(V), so each pair's stacked
vec'd precoders solve one linear system in those rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelSet
from .linalg import InconsistentSystem, null_space, solve_least_norm, unvec
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

    per_block maps (relay, phase-2 slot, phase-1 slot) -> matrix. Null-space
    precoders are unit norm per slot pair; aligning ones keep the scale the
    constraints pin.
    """

    scenario: str
    mode: str = "per_block"  # the only layout
    per_block: dict = field(default_factory=dict)
    residual: float = 0.0


def _rows(sched: Schedule, k: int) -> list:
    """Constraint rows on phase-1 slot k as (receiver j, transmitter i, aligned).

    Per symbol, in the slot's sends order: the aligned rows (AOI) first, then
    the neutralized rows (N), each in user order. D, SI and jointly decoded
    OI give no row.
    """
    rows = []
    for i, sym in sched.slot(k).sends.items():
        c = sched.column[sym]
        rows += [(j, i, True) for j in sched.users if sched.classes[j][c] == "AOI"]
        rows += [(j, i, False) for j in sched.users if sched.classes[j][c] == "N"]
    return rows


def _constraint_matrix(ch: ChannelSet, rows: list, t: int, k: int) -> np.ndarray:
    """Row (j, i) segment l is kron(h_up(l, i, k), h_dn(j, l, t)), for every relay l."""
    n = len(rows)
    blocks = []
    for ell, m in enumerate(ch.config.relay_antennas, start=1):
        up = np.array([ch.h_up(ell, i, k) for _, i, _ in rows]).reshape(n, m)
        dn = np.array([ch.h_dn(j, ell, t) for j, _, _ in rows]).reshape(n, m)
        blocks.append((up[:, :, None] * dn[:, None, :]).reshape(n, m * m))
    return np.hstack(blocks)


def design(sched: Schedule, ch: ChannelSet) -> PrecoderSet:
    """Block precoders meeting every constraint the schedule's D/SI/OI/N rule derives.

    Per (phase-2 slot, phase-1 slot) pair the stacked vec'd precoder is the
    first null-space vector of the constraint rows when every target is
    zero, and the minimum-norm solution otherwise; both keep the precoders
    deterministic and bounded. A schedule that fixes its relay set
    (``Schedule.relays``) rejects any other before that.
    """
    if sched.relays not in (None, ch.config.relay_antennas):
        (m,) = sched.relays  # the built-in fixed sets are one relay
        raise AntennaDeficit(f"{sched.name} needs a single relay with {m} antennas")
    rows = {k: _rows(sched, k) for k in sched.phase1_slots}
    # checked before any decomposition: a slot pair's stacked precoder has sum M_l^2 unknowns;
    # homogeneous rows need one more than their count for a nonzero null-space vector
    need = max(len(r) + (not any(aligned for *_, aligned in r)) for r in rows.values())
    have = ch.config.sum_antenna_sq
    if have < need:
        raise AntennaDeficit(f"need sum of squared antennas >= {need}, have {have}")
    p = PrecoderSet(sched.name)
    for t in sched.phase2_slots:
        for k in sched.phase1_slots:
            a = _constraint_matrix(ch, rows[k], t, k)
            b = np.array([ch.h(j, i, k) if aligned else 0.0 for j, i, aligned in rows[k]],
                         dtype=complex)
            if b.any():
                try:
                    f = solve_least_norm(a, b)
                except InconsistentSystem as exc:
                    raise AntennaDeficit(
                        f"alignment constraints for slot pair ({t},{k}) are infeasible"
                    ) from exc
            else:
                basis = null_space(a)
                if basis.shape[1] == 0:
                    raise AntennaDeficit(f"constraints for slot pair ({t},{k}) leave no null space")
                f = basis[:, 0]
            pos = 0
            for ell, m in enumerate(ch.config.relay_antennas, start=1):
                p.per_block[(ell, t, k)] = unvec(f[pos:pos + m * m], m, m)
                pos += m * m
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


def _block_coefficient(ch: ChannelSet, p: PrecoderSet, j: int, i: int, t: int, k: int) -> complex:
    """End-to-end coefficient of slot-k transmitter i at user j, via all relays."""
    return complex(sum(
        ch.h_dn(j, ell, t) @ p.per_block[(ell, t, k)] @ ch.h_up(ell, i, k)
        for ell in range(1, ch.config.n_relays + 1)
    ))


def verify_constraints(p: PrecoderSet, ch: ChannelSet, sched: Schedule) -> float:
    """Max absolute violation over the derived constraints, recomputed from raw channels.

    Deliberately evaluates every coefficient as direct products
    h_dn @ V @ h_up instead of the stacked rows used during synthesis.
    """
    worst = 0.0
    for t in sched.phase2_slots:
        for k in sched.phase1_slots:
            for j, i, aligned in _rows(sched, k):
                want = ch.h(j, i, k) if aligned else 0.0
                worst = max(worst, abs(_block_coefficient(ch, p, j, i, t, k) - want))
    return worst
