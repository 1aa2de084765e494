"""The library names the benchmark in perfbench/ binds must keep resolving.

perfbench/spans.py patches timing spans onto names looked up with getattr,
and perfbench/oracles.py reads the precoder layout; a rename breaks the
benchmark's traced run, so this test breaks first.
"""

from pathlib import Path

import pytest

import stpnc.protocol
from stpnc import cli
from stpnc.channel import NetworkConfig, draw_channels
from stpnc.precoder import design_case1, design_case2, design_twic, design_twxc
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
        assert cli.main(["verify", "--scenario", "twxc", "--seeds", "1", "--output", str(out)]) == 0
    assert stpnc.protocol.run_phase1 is before
    assert tracer.calls["precoder.design"] == 1
    assert tracer.calls["protocol.decode_user"] == 4
    # twxc stores 8 phase-1 user equations, 4 relay vector equations and 4 relay-slot ones
    assert tracer.counters["protocol.equations_stored"] == 16


@pytest.mark.parametrize("flags,users,rows,solves", [
    (["--scenario", "twic"], 4, 8, 4),
    (["--scenario", "twxc"], 4, 32, 8),
    (["--scenario", "case1", "--k1", "4", "--relays", "3"], 4, 96, 16),
    (["--scenario", "case2", "--k2", "5", "--relays", "3"], 5, 180, 20),
], ids=["twic", "twxc", "case1", "case2"])
def test_spans_see_every_registry_route(perfbench, tmp_path, flags, users, rows, solves):
    # the registry reaches the design_* entry points through stpnc.protocol's globals,
    # which is where spans.py wraps them; design reaches the solvers and the check
    # through stpnc.precoder's globals
    _, spans = perfbench
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        out = tmp_path / "v.json"
        assert cli.main(["verify", *flags, "--seeds", "2", "--output", str(out)]) == 0
    assert tracer.calls["precoder.design"] == 2
    assert tracer.calls["protocol.decode_user"] == 2 * users
    assert tracer.calls["precoder.verify_constraints"] == 2
    # one solver call per (phase-2 slot, phase-1 slot) pair and seed, fed every constraint row
    assert tracer.calls["linalg.null_space"] + tracer.calls["linalg.solve_least_norm"] == solves
    assert tracer.counters["precoder.constraint_rows"] == rows


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
        assert kind == sched.role(j, sym)
        if kind == "N":
            assert abs(c) <= oracles.COEFF_TOL
        if kind == "OI" and t1 in sched.pure_slots(j):
            assert abs(c - ch.h(j, sym.src, t1)) <= oracles.COEFF_TOL
    assert seen == sched.phase2_len * len(sched.users) * len(sched.symbols)
