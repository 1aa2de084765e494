"""A seeded corpus of random schedules, run through the engine as a differential test.

Every built-in schedule has one decode group and at most one pure slot per user, and every
built-in user hears a phase-1 slot. These schedules leave all three paths. Each one is
registered as a scenario and run over three seeds on two relay sets at its antenna need:
one relay of ceil(sqrt(need)) antennas, and need single-antenna relays. Whatever a run
does, only a typed failure with its reason may escape; a run that does not raise passes
verify; each seed of a batch gets the bits it gets alone; and the stacked decode is the
per-user decode bit for bit.
"""

import math
import random
import re

import pytest

from stpnc.channel import NetworkConfig, derive_trial_seeds
from stpnc.linalg import RankDeficient
from stpnc.precoder import AntennaDeficit, design
from stpnc.protocol import SCENARIOS, Scenario, SimReport, _execute, run_end_to_end, simulate, verify_scenario
from stpnc.scheduler import Schedule, SlotPlan, SymbolId

from test_decode_oracle import assert_groups_match_oracle

CORPUS_SEED, CORPUS_SIZE = 17, 100
ROOT_SEED = 5  # the runs' root seed: seeds derive_trial_seed(5, 0..2)
REASON = re.compile(r"(user|relay) \d+: effective rank \d+ < \d+ (unknowns|symbols)"
                    r"|alignment constraints for slot pair \(\d+,\d+\) are infeasible")


def random_schedule(rng: random.Random, name: str) -> Schedule:
    """K = 3..6 users and up to K+1 phase-1 slots with random senders, destinations and
    listeners: no (dest, src) pair twice, no transmitter listening in its own slot and no
    symbol addressed to its sender. A sender left with no new destination sends nothing, and
    a slot with no sends is dropped. Then the fewest relay slots, each heard by every user,
    that give every user as many rows as unknowns: at least one, as every schedule has two
    phases."""
    users = tuple(range(1, rng.randint(3, 6) + 1))
    sent, slots = set(), []
    for _ in range(rng.randint(1, len(users) + 1)):
        sends = {}
        for i in sorted(rng.sample(users, rng.randint(1, len(users)))):
            free = [j for j in users if j != i and (j, i) not in sent]
            if free:
                sends[i] = SymbolId(rng.choice(free), i)
                sent.add(sends[i])
        if sends:
            quiet = [j for j in users if j not in sends]
            slots.append(SlotPlan(frozenset(rng.sample(quiet, rng.randint(0, len(quiet)))), sends))
    relay = SlotPlan(frozenset(users))
    one = Schedule(name, users, (*slots, relay))  # split counts each user's phase-1 rows
    short = max(g.unknowns.shape[-1] - g.split for g in (one.decode_group([k]) for k in users))
    return Schedule(name, users, (*slots, *(relay,) * max(short, 1)))


def _corpus() -> list:
    rng = random.Random(CORPUS_SEED)
    return [random_schedule(rng, f"random-{n}") for n in range(CORPUS_SIZE)]


CORPUS = _corpus()


def test_the_corpus_is_valid_and_leaves_the_built_in_paths():
    for sched in CORPUS:
        assert len(sched.symbols) == sum(len(sched.slot(t).sends) for t in sched.phase1_slots)
        for t in sched.phase1_slots:
            plan = sched.slot(t)
            assert not plan.destinations & plan.sources
            assert all(sym.src == i != sym.dest for i, sym in plan.sends.items())
        # the fewest relay slots: every user has a row per unknown, and one fewer leaves one short
        spare = [g.kept.shape[-1] - g.unknowns.shape[-1] for g in (sched.decode_group([k]) for k in sched.users)]
        assert min(spare) == 0 or (min(spare) > 0 and sched.phase2_len == 1)
    # how often the corpus takes each path no built-in takes: several decode groups, four
    # pure slots at one user, and a user that hears no phase-1 slot
    assert sum(len(s.decode_groups) > 1 for s in CORPUS) == 95
    assert sum(max(len(s.pure_slots(k)) for k in s.users) >= 4 for s in CORPUS) == 1
    assert sum(not s.listens[:s.phase1_len].any(axis=0).all() for s in CORPUS) == 83


def _typed(call):
    """call()'s result, or the RankDeficient or AntennaDeficit it raised, with its reason."""
    try:
        return call()
    except (RankDeficient, AntennaDeficit) as exc:
        assert REASON.fullmatch(str(exc)), str(exc)
        return exc


@pytest.mark.parametrize("sched", CORPUS, ids=lambda s: s.name)
def test_a_random_schedule_runs_as_a_built_in_does(monkeypatch, sched):
    monkeypatch.setitem(SCENARIOS, "random", Scenario(
        lambda K: sched, lambda ch, K: design(sched, ch), "linear_forward", None))
    need = sched.constraint_layout[0]
    seeds = derive_trial_seeds(ROOT_SEED, range(3)).tolist()
    for antennas in ((math.isqrt(need - 1) + 1,), (1,) * need):
        cfg = NetworkConfig(len(sched.users), antennas)
        batch = _typed(lambda: simulate("random", cfg, ROOT_SEED, 3))
        alone = [_typed(lambda: run_end_to_end("random", cfg, seed)) for seed in seeds]
        failed = [one for one in alone if isinstance(one, Exception)]
        if failed:  # the batch raises its first failing seed's failure, as that seed alone does
            assert (type(batch), str(batch)) == (type(failed[0]), str(failed[0])), antennas
        else:
            assert verify_scenario("random", cfg, 3, ROOT_SEED)["passed"], antennas
            assert batch.seeds == seeds
            for i, one in enumerate(alone):
                for name in SimReport._fields[2:]:
                    assert getattr(batch, name)[i].tobytes() == getattr(one, name)[0].tobytes(), name
        _, _, s, _, ledger, _ = _execute("random", cfg, seeds, None)
        assert_groups_match_oracle(ledger, sched, s)
