"""Per-slot transmission schedules for the supported exchange scenarios.

Every schedule has two phases. In phase 1 subsets of users transmit while
the remaining users and all relays listen and store linear equations
(side-information learning). In phase 2 only the relays transmit.
Slots and users are 1-indexed; a symbol id (dest, src) names the unit-power
data symbol user `src` sends for user `dest`. Schedules are immutable and
their builders cached, so what a schedule derives (its symbols, the slot of
a symbol, who listens in each slot, the columns of a coefficient row, the
receive class of every symbol at every user, its constraint rows and the index
arrays the protocol reads its ledger through) is computed once per process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np


class InvalidUserCount(ValueError):
    """Scenario cannot be built for the requested number of users."""


class SymbolId(NamedTuple):
    dest: int
    src: int


@dataclass(frozen=True)
class SlotPlan:
    """One slot: listening users and payloads. Every relay listens in a phase-1 slot."""

    destinations: frozenset
    sends: dict = field(default_factory=dict)  # transmitter -> SymbolId (phase 1)

    @property
    def sources(self) -> frozenset:
        return frozenset(self.sends)


@dataclass(frozen=True)
class Schedule:
    name: str
    users: tuple
    slots: tuple  # SlotPlan, position i is time slot i+1
    phase1_len: int
    phase2_len: int
    relays: tuple | None = None  # the one relay set (antennas per relay) it allows; None: any

    @property
    def n_slots(self) -> int:
        return self.phase1_len + self.phase2_len

    @property
    def phase1_slots(self) -> range:
        return range(1, self.phase1_len + 1)

    @property
    def phase2_slots(self) -> range:
        return range(self.phase1_len + 1, self.n_slots + 1)

    def slot(self, t: int) -> SlotPlan:
        return self.slots[t - 1]

    @cached_property
    def symbols(self) -> tuple:
        return tuple(sorted(self._slot_index))

    @cached_property
    def _slot_index(self) -> dict:
        return {sym: t for t in self.phase1_slots for sym in self.slot(t).sends.values()}

    def slot_of(self, sym: SymbolId) -> int:
        return self._slot_index[sym]

    @cached_property
    def listens(self) -> np.ndarray:
        """(slots, users) bool: True at [t-1, k-1] when user k listens in slot t, read from
        the slots' destinations; the side-information ledger holds an equation exactly there."""
        table = np.array([[k in plan.destinations for k in self.users] for plan in self.slots])
        table.flags.writeable = False
        return table

    def listened_phase1(self, k: int) -> tuple:
        return tuple(t for t in self.phase1_slots if self.listens[t - 1, k - 1])

    @cached_property
    def classes(self) -> dict:
        """User j -> the receive class of each column (symbol) at j: the receive rule.

        D: j wants it. SI: j sent it. OI: j overheard it in a slot with one of
        its D symbols and decodes it jointly. AOI: j overheard it in a pure slot
        (one without), so it must arrive in the stored shape, which j subtracts.
        N: anything else must be neutralized.
        """
        table = {}
        for j in self.users:
            heard = self.listened_phase1(j)
            joint = {t for t in heard if any(s.dest == j for s in self.slot(t).sends.values())}
            table[j] = tuple(
                "D" if sym.dest == j else "SI" if sym.src == j
                else "OI" if self._slot_index[sym] in joint
                else "AOI" if self._slot_index[sym] in heard else "N"
                for sym in self.symbols
            )
        return table

    def pure_slots(self, j: int) -> frozenset:
        """Phase-1 slots user j overheard that carry none of its desired symbols."""
        return self._pure_slots[j]

    @cached_property
    def _pure_slots(self) -> dict:
        return {j: frozenset(self._slot_index[sym] for sym, c in zip(self.symbols, self.classes[j])
                             if c == "AOI")
                for j in self.users}

    @cached_property
    def constraint_rows(self) -> dict:
        """Phase-1 slot k -> the relays' constraints on it: the rows (receiver j, transmitter
        i, aligned), then each row's j and each row's i as positions in ``users`` (arrays).
        Per symbol, in the slot's sends order: its AOI users (aligned: the coefficient must
        equal the phase-1 channel), then its N users (neutralized), each in user order. D,
        SI and OI give no row."""
        view = {}
        for k in self.phase1_slots:
            rows = tuple((j, i, x == "AOI") for i, sym in self.slot(k).sends.items()
                         for x in ("AOI", "N") for j in self.users
                         if self.classes[j][self.column[sym]] == x)
            rx = np.array([self.users.index(j) for j, _, _ in rows], dtype=np.intp)
            tx = np.array([self.users.index(i) for _, i, _ in rows], dtype=np.intp)
            view[k] = (rows, rx, tx)
        return view

    @cached_property
    def constraint_layout(self) -> tuple:
        """``constraint_rows`` as the precoder reads them: the antenna need (the largest row
        count of a slot, +1 for a slot without targets); per row count, its phase-1 slots ks and
        their rows' rx, tx and aligned, stacked; every row's (k, rx, tx, aligned), in slot order."""
        view = {k: (rx, tx, np.array([a for *_, a in rows], dtype=bool))
                for k, (rows, rx, tx) in self.constraint_rows.items()}
        need = max(len(a) + (not a.any()) for _, _, a in view.values())
        groups = []
        for count in dict.fromkeys(len(rx) for rx, _, _ in view.values()):
            ks = np.array([k for k, (rx, _, _) in view.items() if len(rx) == count])
            groups.append((ks, *(np.stack([view[k][i] for k in ks]) for i in range(3))))
        rows = (np.repeat(list(view), [len(rx) for rx, _, _ in view.values()]),
                *(np.concatenate([v[i] for v in view.values()]) for i in range(3)))
        return need, tuple(groups), rows

    @cached_property
    def column(self) -> dict:
        """Position of each symbol in a coefficient row; rows run over ``symbols``."""
        return {sym: i for i, sym in enumerate(self.symbols)}

    @cached_property
    def slot_columns(self) -> dict:
        """Phase-1 slot -> columns of the symbols it carries, in its sends order."""
        return {t: np.array([self.column[sym] for sym in self.slot(t).sends.values()], dtype=np.intp)
                for t in self.phase1_slots}

    @cached_property
    def senders(self) -> tuple:
        """Each column's transmitter as a position in ``users`` (src - 1), and the (phase-1
        slots, symbols) bool table that is True at [t-1, c] when slot t carries column c."""
        src = np.array([sym.src - 1 for sym in self.symbols], dtype=np.intp)
        carries = np.arange(1, self.phase1_len + 1)[:, None] == [self._slot_index[sym] for sym in self.symbols]
        return src, carries

    def unknowns(self, k: int) -> np.ndarray:
        """Columns user k zero-forces, ascending: its D and OI symbols."""
        return self.decode_columns[k][0]

    @cached_property
    def decode_columns(self) -> dict:
        """User k -> the columns it zero-forces (D, OI), subtracts by value (SI)
        and must see cancelled or neutralized (AOI, N), each ascending."""
        groups = (("D", "OI"), ("SI",), ("AOI", "N"))
        return {k: tuple(np.array([c for c, x in enumerate(self.classes[k]) if x in g], dtype=np.intp)
                         for g in groups)
                for k in self.users}

    @cached_property
    def decode_slots(self) -> dict:
        """User k -> the slots whose equations it stacks (heard, not pure) as positions t-1,
        ascending; how many of them are phase-1 slots; and its pure slots' positions."""
        view = {}
        for k in self.users:
            pure = sorted(t - 1 for t in self.pure_slots(k))
            kept = [t for t in range(self.n_slots) if self.listens[t, k - 1] and t not in pure]
            view[k] = (np.array(kept, dtype=np.intp), sum(t < self.phase1_len for t in kept),
                       np.array(pure, dtype=np.intp))
        return view

    @cached_property
    def replays(self) -> tuple:
        """The replay identities of alignment: for each pure slot r of each user k, k's
        equations in the phase-2 slots it hears must carry r's symbols with the coefficients
        k stored in slot r. Grouped by (phase-2 slots heard, symbols in r), each group holds
        the arrays of those slots' positions t-1 (pairs, slots), r-1, k-1 and r's columns."""
        groups = {}
        for k in self.users:
            late = [t - 1 for t in self.phase2_slots if self.listens[t - 1, k - 1]]
            for r in sorted(self.pure_slots(k)) if late else ():  # nothing replays to a deaf user
                cols = self.slot_columns[r]
                groups.setdefault((len(late), len(cols)), []).append((late, r - 1, k - 1, cols))
        return tuple(tuple(np.array(x, dtype=np.intp) for x in zip(*g)) for g in groups.values())


@cache
def schedule_twic() -> Schedule:
    """Two user pairs (1<->3, 2<->4) exchanging one symbol each via one 2-antenna relay.

    Two learning slots, one relay slot: four symbols over three channel uses.
    """
    s31, s42 = SymbolId(3, 1), SymbolId(4, 2)
    s13, s24 = SymbolId(1, 3), SymbolId(2, 4)
    slots = (
        SlotPlan(frozenset({3, 4}), {1: s31, 2: s42}),
        SlotPlan(frozenset({1, 2}), {3: s13, 4: s24}),
        SlotPlan(frozenset({1, 2, 3, 4})),
    )
    return Schedule("twic", (1, 2, 3, 4), slots, phase1_len=2, phase2_len=1, relays=(2,))


@cache
def schedule_twxc() -> Schedule:
    """Users 1,2 exchange two symbols with each of users 3,4 via one 2-antenna relay.

    Four learning slots, one relay slot: eight symbols over five channel uses.
    """
    slots = (
        SlotPlan(frozenset({3, 4}), {1: SymbolId(3, 1), 2: SymbolId(3, 2)}),
        SlotPlan(frozenset({3, 4}), {1: SymbolId(4, 1), 2: SymbolId(4, 2)}),
        SlotPlan(frozenset({1, 2}), {3: SymbolId(1, 3), 4: SymbolId(1, 4)}),
        SlotPlan(frozenset({1, 2}), {3: SymbolId(2, 3), 4: SymbolId(2, 4)}),
        SlotPlan(frozenset({1, 2, 3, 4})),
    )
    return Schedule("twxc", (1, 2, 3, 4), slots, phase1_len=4, phase2_len=1, relays=(2,))


@cache
def schedule_case1(k1: int) -> Schedule:
    """Neutralization-only exchange: slot k delivers to user k from all others.

    k1 learning slots plus k1-2 relay slots carry k1*(k1-1) symbols, one per
    ordered user pair, targeting a rate of k1/2 symbols per channel use.
    """
    if k1 < 3:
        raise InvalidUserCount("case1 needs at least 3 users")
    users = tuple(range(1, k1 + 1))
    slots = []
    for k in users:
        slots.append(SlotPlan(frozenset({k}), {i: SymbolId(k, i) for i in users if i != k}))
    slots.extend(SlotPlan(frozenset(users)) for _ in range(k1 - 2))
    return Schedule("case1", users, tuple(slots), phase1_len=k1, phase2_len=k1 - 2)


def cyclic_user(k: int, j: int, n_users: int) -> int:
    """User index k advanced by j positions around the cyclic user ordering."""
    return ((k - 1 + j) % n_users) + 1


@cache
def schedule_case2(k2: int) -> Schedule:
    """Alignment-and-neutralization exchange over a cyclic two-listener plan.

    In slot k users {k, next(k)} listen while the other k2-2 users each send
    one symbol for user k; next(k) stores the overheard equation for reuse.
    k2 learning slots plus k2-3 relay slots carry k2*(k2-2) symbols.
    """
    if k2 < 4:
        raise InvalidUserCount("case2 needs at least 4 users")
    users = tuple(range(1, k2 + 1))
    slots = []
    for k in users:
        dests = frozenset({k, cyclic_user(k, 1, k2)})
        srcs = tuple(cyclic_user(k, j, k2) for j in range(2, k2))
        slots.append(SlotPlan(dests, {i: SymbolId(k, i) for i in srcs}))
    slots.extend(SlotPlan(frozenset(users)) for _ in range(k2 - 3))
    return Schedule("case2", users, tuple(slots), phase1_len=k2, phase2_len=k2 - 3)
