"""The library names the benchmark in perfbench/ binds must keep resolving.

perfbench/spans.py patches timing spans onto names looked up with getattr,
and perfbench/oracles.py reads the precoder layout; a rename breaks the
benchmark's traced run, so this test breaks first.
"""

import math
from pathlib import Path

import pytest

import stpnc.precoder
import stpnc.protocol
from stpnc import cli
from stpnc.channel import NetworkConfig, draw_channels
from stpnc.precoder import design_case1, design_case2, design_twic, design_twxc
from stpnc.protocol import run_end_to_end
from stpnc.scheduler import schedule_case1, schedule_case2, schedule_twic, schedule_twxc

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import oracles
    import spans

    return oracles, spans


def test_spans_instrument_and_restore(perfbench, tmp_path):
    _, spans = perfbench
    before = stpnc.protocol.run_phase1
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert stpnc.protocol.run_phase1 is not before
        out = tmp_path / "v.json"
        assert cli.main(["verify", "--scenario", "twxc", "--seeds", "3", "--output", str(out)]) == 0
    assert stpnc.protocol.run_phase1 is before
    # the three seeds run as one chunk: one pass of every stage, one decode per user
    assert tracer.calls["precoder.design"] == 1
    assert tracer.calls["protocol.decode_user"] == 4
    # twxc stores 8 phase-1 user equations, 4 relay vector equations and 4 relay-slot ones,
    # each holding all three seeds
    assert tracer.counters["protocol.equations_stored"] == 16


@pytest.mark.parametrize("flags,users,rows", [
    (["--scenario", "twic"], 4, 8),
    (["--scenario", "twxc"], 4, 32),
    (["--scenario", "case1", "--k1", "4", "--relays", "3"], 4, 96),
    (["--scenario", "case2", "--k2", "5", "--relays", "3"], 5, 180),
], ids=["twic", "twxc", "case1", "case2"])
def test_spans_see_every_registry_route(perfbench, tmp_path, monkeypatch, flags, users, rows):
    # the registry reaches the design_* entry points through stpnc.protocol's globals,
    # which is where spans.py wraps them; design reaches the solvers and the check
    # through stpnc.precoder's globals
    _, spans = perfbench
    real = stpnc.precoder.solve_least_norm
    stacked_rows, seeds = [], []

    def record(a, *rest):  # inside the span: sees the stack design hands the solver
        stacked_rows.append(math.prod(a.shape[:-1]))
        seeds.append(a.shape[0])
        return real(a, *rest)

    monkeypatch.setattr(stpnc.precoder, "solve_least_norm", record)
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        out = tmp_path / "v.json"
        assert cli.main(["verify", *flags, "--seeds", "2", "--output", str(out)]) == 0
    # both seeds run as one chunk, so every stage fires once per chunk, not per seed
    assert tracer.calls["precoder.design"] == 1
    assert tracer.calls["protocol.decode_user"] == users
    assert tracer.calls["precoder.verify_constraints"] == 1
    # one stacked least-norm solve per chunk, its leading axis the two seeds, fed every
    # (phase-2 slot, phase-1 slot) pair's constraint rows of each seed, and no
    # null-space decomposition
    assert tracer.calls["linalg.null_space"] == 0
    assert tracer.calls["linalg.solve_least_norm"] == len(stacked_rows) == 1
    assert seeds == [2]
    # rows counts both seeds' rows: what the two per-seed solves summed to
    assert sum(stacked_rows) == rows


def test_spans_bind_the_rate_path(perfbench, tmp_path):
    # the trial loop draws coefficient pools, not ChannelSets, and makes no SVD;
    # the rate names spans.py patches must still bind
    _, spans = perfbench
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        argv = ["rate-sweep", "--snr", "0:30:1", "--trials", "5", "--jobs", "1",
                "--output", str(tmp_path / "r.csv")]
        assert cli.main(argv) == 0
    assert tracer.counters["rate.trials"] == 5
    assert tracer.calls["rate.trial_gains"] == 1
    assert tracer.calls["linalg.null_space"] == 0
    assert tracer.calls["channel.draw_channels"] == 0


@pytest.mark.parametrize("sched,design,antennas", [
    (schedule_twic(), design_twic, (2,)),
    (schedule_twxc(), design_twxc, (2,)),
    (schedule_case1(4), lambda ch: design_case1(ch, 4), (1, 1, 1, 2)),
    (schedule_case2(5), lambda ch: design_case2(ch, 5), (2, 2, 1)),
])
def test_oracle_coefficients_follow_the_rule(perfbench, sched, design, antennas):
    oracles, _ = perfbench
    ch = draw_channels(NetworkConfig(len(sched.users), antennas), sched.n_slots, 11)
    p = design(ch)
    seen = 0
    for t, j, t1, sym, c in oracles.end_to_end_coefficients(sched, ch, p):
        seen += 1
        kind = oracles.classify(sched, j, t1, sym)
        cls = sched.classes[j][sched.column[sym]]
        assert kind == ("OI" if cls == "AOI" else cls)  # the oracle reads AOI as OI
        if kind == "N":
            assert abs(c) <= oracles.COEFF_TOL
        if kind == "OI" and t1 in sched.pure_slots(j):
            assert abs(c - ch.gain[t1 - 1, j - 1, sym.src - 1]) <= oracles.COEFF_TOL
    assert seen == sched.phase2_len * len(sched.users) * len(sched.symbols)


@pytest.mark.parametrize("scenario,cfg", [
    ("twic", NetworkConfig(4, (2,))),
    ("twxc", NetworkConfig(4, (2,))),
    ("case1", NetworkConfig(4, (1, 1, 1, 2))),
    ("case2", NetworkConfig(5, (2, 2, 1))),
    ("case1", NetworkConfig(6, (1,) * 21)),
    ("case2", NetworkConfig(6, (1,) * 16)),
], ids=["twic", "twxc", "case1", "case2", "case1-21x1", "case2-16x1"])
@pytest.mark.parametrize("seed", [3, 12345])
def test_oracle_accepts_runs_through_the_keyed_views(perfbench, scenario, cfg, seed):
    # the verify oracle reads the channel through ChannelSet's keyed views user_user,
    # user_relay and relay_user, and the precoders through PrecoderSet.per_block; a view
    # reading the wrong link or block fails a correct run; the many-relay sets are the
    # verify-many-relays workload's shapes
    oracles, _ = perfbench
    trial = cli._report_json(run_end_to_end(scenario, cfg, seed), 0)
    assert oracles.check_verify_seed(scenario, cfg, seed, trial) == []
