"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import json
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

import numpy as np
import pytest
from scipy import special

from stpnc import cli
from stpnc.channel import NetworkConfig
from stpnc.dof import single_antenna_sweep
from stpnc.protocol import run_end_to_end, verify_scenario
from stpnc.precoder import AntennaDeficit
from stpnc.rate import COLUMNS, snr_sweep, trial_gains
from stpnc.scheduler import schedule_case2

from test_properties import (
    check_feasibility_boundary,
    check_ledger_and_recovery,
    check_null_space_properties,
    check_pipeline_determinism,
    check_vec_kron_identity,
    check_zf_round_trip,
)


@contextmanager
def criterion(n, budget_s, desc):
    t0 = perf_counter()
    try:
        yield
        dt = perf_counter() - t0
        assert dt < budget_s, f"runtime {dt:.1f}s exceeds the {budget_s}s budget"
    except BaseException:
        print(f"criterion {n}: FAIL - {desc}")
        raise
    print(f"criterion {n}: PASS ({dt:.1f}s) - {desc}")


def _cli_verify(tmp_path, *args):
    out = tmp_path / "summary.json"
    code = cli.main(["verify", *args, "--output", str(out)])
    return code, json.loads(out.read_text())


def test_criterion_1_twic_dof(tmp_path):
    with criterion(1, 5.0, "twic: exact recovery, rank 2, residual < 1e-9, DoF 4/3 over 100 seeds"):
        code, doc = _cli_verify(tmp_path, "--scenario", "twic", "--seeds", "100")
        assert code == 0 and doc["passed"] and not doc["failures"]
        assert doc["max_symbol_error"] < 1e-8
        assert doc["max_constraint_residual"] < 1e-9
        assert doc["rank_ok"] and doc["expected_rank"] == 2
        assert doc["achieved_dof"] == doc["expected_dof"] == "4/3"


def test_criterion_2_twxc_dof(tmp_path):
    with criterion(2, 5.0, "twxc: 8 symbols in 5 slots, DoF 8/5, aligned replay to 1e-9 over 100 seeds"):
        code, doc = _cli_verify(tmp_path, "--scenario", "twxc", "--seeds", "100")
        assert code == 0 and doc["passed"] and not doc["failures"]
        assert doc["max_symbol_error"] < 1e-8
        assert doc["max_constraint_residual"] < 1e-9
        assert doc["max_alignment_error"] < 1e-9
        assert doc["achieved_dof"] == doc["expected_dof"] == "8/5"
        rep = run_end_to_end("twxc", NetworkConfig(4, (2,)), 0)
        assert rep.delivered.tolist() == [8] and len(rep.sched.symbols) == 8 and rep.sched.n_slots == 5


def test_criterion_3_general_neutralization():
    with criterion(3, 30.0, "case1 at (3,4), (4,9), (5,16): 50 seeds exact, DoF k1/2; (4,4) infeasible"):
        for k1, antennas in [(3, (2,)), (4, (3,)), (5, (4,))]:
            doc = verify_scenario("case1", NetworkConfig(k1, antennas), 50, base_seed=0)
            assert doc["passed"] and not doc["failures"], (k1, antennas)
            assert doc["max_symbol_error"] < 1e-8
            assert Fraction(doc["achieved_dof"]) == Fraction(k1, 2)
        with pytest.raises(AntennaDeficit):
            run_end_to_end("case1", NetworkConfig(4, (2,)), 0)


def test_criterion_4_general_alignment():
    with criterion(4, 30.0, "case2 at (4,4), (5,9), (6,16): 50 seeds exact, DoF k2(k2-2)/(2k2-3), rank k2-2"):
        for k2, antennas in [(4, (2,)), (5, (3,)), (6, (4,))]:
            doc = verify_scenario("case2", NetworkConfig(k2, antennas), 50, base_seed=0)
            assert doc["passed"] and not doc["failures"], (k2, antennas)
            assert doc["max_symbol_error"] < 1e-8
            assert Fraction(doc["achieved_dof"]) == Fraction(k2 * (k2 - 2), 2 * k2 - 3)
            assert doc["rank_ok"] and doc["expected_rank"] == k2 - 2
            sched = schedule_case2(k2)
            for u in sched.users:
                assert sched.classes[u].count("D") == k2 - 2


def test_criterion_5_dof_table():
    with criterion(5, 1.0, "K=6 golden table: ST-PNC >= G-OF (L<=25), IA max at {2,4,5,6}, cap hit at L=21"):
        rows = dict(single_antenna_sweep(6, 30))
        for L, r in rows.items():
            assert r.value == min(r.cap, max(r.term_in, r.term_in_ia, r.term_ia))
            if L <= 25:
                assert r.value >= r.gof
        for L in (2, 4, 5, 6):
            r = rows[L]
            assert r.term_ia > r.term_in and r.term_ia > r.term_in_ia
        assert rows[20].value < Fraction(3)
        for L in range(21, 31):
            assert rows[L].value == Fraction(3)


def test_criterion_6_rate_crossover(tmp_path, capsys):
    with criterion(6, 120.0, "rate sweep: crossover at 8 +/- 2 dB; 30-50 dB slope ratio 4/3 +/- 5%"):
        out = tmp_path / "rates.csv"
        code = cli.main(["rate-sweep", "--snr", "0:30:1", "--trials", "10000",
                         "--seed", "0", "--output", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.startswith("crossover_db=")
        crossover = float(printed.strip().split("=")[1])
        assert 6.0 <= crossover <= 10.0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 32
        at_20db = lines[21].split(",")
        assert float(at_20db[0]) == 20.0 and float(at_20db[1]) > float(at_20db[3])

        grid = tuple(float(s) for s in range(30, 51, 2))
        gains = trial_gains(1, 0, 10_000)
        assert np.all(np.isfinite(gains)) and np.all(gains > 0)
        res = snr_sweep(grid, gains)
        cols = dict(zip(COLUMNS, res.table.T))
        x = cols["snr_db"]
        slope_stpnc = np.polyfit(x, cols["stpnc_rate"], 1)[0]
        slope_tdma = np.polyfit(x, cols["tdma_rate"], 1)[0]
        ratio = slope_stpnc / slope_tdma
        assert abs(ratio - 4.0 / 3.0) < 0.05 * (4.0 / 3.0)


def test_criterion_7_tdma_oracle():
    with criterion(7, 30.0, "TDMA Monte Carlo matches e^(1/rho) E1(1/rho)/ln2 within 1% at 1e5 trials"):
        gains = trial_gains(2, 0, 100_000)[:, 2]
        for rho in (1.0, 10.0, 100.0):
            mc = float(np.mean(np.log2(1.0 + rho * gains)))
            exact = float(np.exp(1.0 / rho) * special.exp1(1.0 / rho) / np.log(2.0))
            assert abs(mc - exact) / exact < 0.01, rho


def test_criterion_8_property_suites():
    with criterion(8, 120.0, "randomized invariant harness, 1000 cases per property"):
        check_vec_kron_identity(1000)
        check_null_space_properties(1000)
        check_zf_round_trip(1000)
        check_pipeline_determinism(1000)
        check_ledger_and_recovery(1000)
        check_feasibility_boundary(1000)
