"""Relay precoder synthesis, derived from the schedule's receive table.

The relays shape phase-2 transmissions so that every user receives only
what its receive class allows it: D, SI and jointly decoded OI
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


def _targets(ch: ChannelSet, k: int, rows: tuple, rx: np.ndarray, tx: np.ndarray) -> np.ndarray:
    """Each constraint row's required coefficient: h(j, i, k) where it aligns, else 0."""
    return np.where([aligned for *_, aligned in rows], ch.gain[k - 1][rx, tx], 0)


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
    view = sched.constraint_rows
    # checked before any decomposition: a slot pair's stacked precoder has sum M_l^2 unknowns;
    # homogeneous rows need one more than their count for a nonzero null-space vector
    need = max(len(rows) + (not any(aligned for *_, aligned in rows)) for rows, _, _ in view.values())
    have = ch.config.sum_antenna_sq
    if have < need:
        raise AntennaDeficit(f"need sum of squared antennas >= {need}, have {have}")
    p = PrecoderSet(sched.name)
    targets = {k: _targets(ch, k, *rows) for k, rows in view.items()}
    # row (j, i) is kron(h_up(l, i, k), h_dn(j, l, t)) for each relay l in turn: its entries
    # pair every uplink antenna a of relay l with every downlink antenna b (stack columns)
    up_col, dn_col = np.array([(a, b) for c in ch.config.relay_columns
                               for a in range(c.start, c.stop) for b in range(c.start, c.stop)]).T
    for t in sched.phase2_slots:
        for k, (rows, rx, tx) in view.items():
            a = ch.up[k - 1][np.ix_(tx, up_col)] * ch.dn[t - 1][np.ix_(rx, dn_col)]
            if targets[k].any():
                try:
                    f = solve_least_norm(a, targets[k])
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


def verify_constraints(p: PrecoderSet, ch: ChannelSet, sched: Schedule) -> float:
    """Max absolute violation over the schedule's constraint rows, recomputed from raw channels.

    Independent of the Kronecker rows synthesis stacks: per slot pair, one direct
    product sum_l DN(l,t) @ V_(l,t,k) @ UP(l,k) gives every (receiver, transmitter)
    coefficient, read at the rows' positions.
    """
    gaps = []
    for k, (rows, rx, tx) in sched.constraint_rows.items():
        want = _targets(ch, k, rows, rx, tx)
        for t in sched.phase2_slots:
            coeff = sum(ch.dn[t - 1][:, c] @ p.per_block[(ell, t, k)] @ ch.up[k - 1][:, c].T
                        for ell, c in enumerate(ch.config.relay_columns, start=1))
            gaps.append(coeff[rx, tx] - want)
    return float(np.abs(np.concatenate(gaps)).max(initial=0.0))
