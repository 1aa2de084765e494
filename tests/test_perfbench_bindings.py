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
