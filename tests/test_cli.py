import functools
import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from stpnc import cli, protocol
from stpnc.channel import NetworkConfig
from stpnc.precoder import design
from stpnc.protocol import SCENARIOS, run_end_to_end, verify_scenario
from stpnc.scheduler import Schedule, SlotPlan, SymbolId

SRC = Path(__file__).resolve().parents[1] / "src"


def run(args):
    return cli.main(args)


def load_schema(name):
    with resources.files("stpnc.schemas").joinpath(name).open() as f:
        return json.load(f)


def test_verify_twic_exit_zero(tmp_path):
    out = tmp_path / "v.json"
    assert run(["verify", "--scenario", "twic", "--seeds", "5", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    jsonschema.validate(doc, load_schema("verify_report.schema.json"))


def test_verify_case_scenarios(tmp_path):
    out = tmp_path / "v.json"
    assert run(["verify", "--scenario", "case1", "--k1", "4", "--relays", "3",
                "--seeds", "3", "--output", str(out)]) == 0
    assert run(["verify", "--scenario", "case2", "--k2", "5", "--relays", "3",
                "--seeds", "3", "--output", str(out)]) == 0


def test_verify_failure_exit_code(tmp_path, monkeypatch):
    def fake_verify(*args, **kwargs):
        return {"passed": False, "failures": [0]}

    monkeypatch.setattr(cli, "verify_scenario", fake_verify)
    out = tmp_path / "v.json"
    code = run(["verify", "--scenario", "twic", "--seeds", "1", "--output", str(out)])
    assert code == cli.EXIT_VERIFY_FAILED


def test_simulate_json_schema_and_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["simulate", "--scenario", "twxc", "--seed", "9", "--trials", "2"]
    assert run(args + ["--output", str(a)]) == 0
    assert run(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    jsonschema.validate(doc, load_schema("sim_report.schema.json"))
    assert doc["trials"][0]["achieved_dof"] == "8/5"
    assert doc["trials"][0]["max_symbol_error"] < 1e-8


def _choices(command, dest):
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    return next(a for a in sub.choices[command]._actions if a.dest == dest).choices


def test_scenario_names_agree_across_registry_cli_and_schemas():
    names = set(SCENARIOS)
    assert set(_choices("verify", "scenario")) == set(_choices("simulate", "scenario")) == names
    for schema in ("verify_report.schema.json", "sim_report.schema.json"):
        assert set(load_schema(schema)["properties"]["scenario"]["enum"]) == names
    modes = set(load_schema("sim_report.schema.json")["properties"]["relay_mode"]["enum"])
    assert modes == set(_choices("simulate", "relay_mode"))
    assert {entry.relay_mode for entry in SCENARIOS.values()} <= modes


def test_a_scenarios_user_flag_comes_from_its_registry_entry(monkeypatch, tmp_path):
    # a new entry with a new user flag needs nothing else: simulate and verify take the flag
    monkeypatch.setitem(SCENARIOS, "wide", SCENARIOS["case1"]._replace(user_flag="kw"))
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser.__wrapped__))
    for command in ("simulate", "verify"):
        ns = cli._parse_args([command, "--scenario", "wide", "--kw", "5", "--relays", "3,2"])
        assert ns.kw == 5 and cli._network_config(ns) == NetworkConfig(5, (3, 2))
        with pytest.raises(cli.UsageError, match="^--kw is required for scenario wide$"):
            cli._network_config(cli._parse_args([command, "--scenario", "wide", "--relays", "3"]))
    out = tmp_path / "v.json"
    argv = ["verify", "--scenario", "wide", "--kw", "4", "--relays", "3", "--seeds", "2"]
    assert run(argv + ["--output", str(out)]) == 0
    assert json.loads(out.read_text()) == verify_scenario("wide", NetworkConfig(4, (3,)), 2)


def gof_schedule():
    # pairs 1<->2, 3<->4 and 5<->6 send in one slot nobody listens to, then one relay slot
    # every user hears: each user's one row is a relayed row
    sends = {i: SymbolId(i + 1 if i % 2 else i - 1, i) for i in range(1, 7)}
    return Schedule("gof", tuple(range(1, 7)), (SlotPlan(frozenset(), sends), SlotPlan(frozenset(range(1, 7)))))


@pytest.mark.parametrize("relays", ["4,3", "5", "5,1"])
def test_a_user_that_hears_no_phase1_slot_fails_with_its_reason(monkeypatch, tmp_path, capsys, relays):
    # on (4,3) the constraints zero every user's row; the rank cutoff must not vanish with it
    sched = gof_schedule()
    monkeypatch.setitem(SCENARIOS, "gof", protocol.Scenario(
        lambda K: sched, lambda ch, K: design(sched, ch), "linear_forward", None))
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser.__wrapped__))
    out = tmp_path / "v.json"
    code = run(["verify", "--scenario", "gof", "--relays", relays, "--seeds", "20", "--output", str(out)])
    err = capsys.readouterr().err
    if relays == "4,3":
        assert code == cli.EXIT_INFEASIBLE and err == "infeasible: user 1: effective rank 0 < 1 unknowns\n"
    else:
        assert code == 0 and err == "" and json.loads(out.read_text())["achieved_dof"] == "3"


VERIFY_CONFIGS = {  # scenario: (CLI flags, the NetworkConfig they resolve to)
    "twic": ([], NetworkConfig(4, (2,))),
    "twxc": ([], NetworkConfig(4, (2,))),
    "case1": (["--k1", "4", "--relays", "2,2,1"], NetworkConfig(4, (2, 2, 1))),
    "case2": (["--k2", "5", "--relays", "3"], NetworkConfig(5, (3,))),
}


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_verify_bytes_are_the_library_summary(scenario, tmp_path):
    flags, cfg = VERIFY_CONFIGS[scenario]
    out = tmp_path / "v.json"
    argv = ["verify", "--scenario", scenario, "--seeds", "3", "--seed", "5", *flags]
    assert run(argv + ["--output", str(out)]) == 0
    summary = verify_scenario(scenario, cfg, 3, 5)
    assert out.read_text() == json.dumps(summary, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("scenario", ["twxc", "case2"])
@pytest.mark.parametrize("mode", [None, "decode_forward", "linear_forward"])
def test_simulate_reports_the_mode_that_ran_and_every_check(scenario, mode, tmp_path):
    flags, cfg = VERIFY_CONFIGS[scenario]
    out = tmp_path / "s.json"
    argv = ["simulate", "--scenario", scenario, "--seed", "4", "--noise-var", "0.01", *flags]
    assert run(argv + (["--relay-mode", mode] if mode else []) + ["--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, load_schema("sim_report.schema.json"))
    ran = mode or SCENARIOS[scenario].relay_mode
    assert doc["relay_mode"] == ran
    trial = doc["trials"][0]
    rep = run_end_to_end(scenario, NetworkConfig(cfg.K, cfg.relay_antennas, 0.01), trial["seed"], ran)
    assert trial["max_stray_coeff"] == rep.max_stray_coeff[0]
    assert trial["alignment_error"] == rep.alignment_error[0]
    assert trial["linearity_error"] == rep.linearity_error[0] > 0


@pytest.mark.parametrize("argv,message", [
    (["--scenario", "case1", "--k1", "2", "--relays", "3"], "error: case1 needs at least 3 users\n"),
    (["--scenario", "case1", "--k1", "1", "--relays", "3"], "error: case1 needs at least 3 users\n"),
    (["--scenario", "case2", "--k2", "3", "--relays", "3"], "error: case2 needs at least 4 users\n"),
    (["--scenario", "case2", "--relays", "3"], "error: --k2 is required for scenario case2\n"),
    (["--scenario", "case1", "--k1", "4"], "error: --relays is required for scenario case1\n"),
    (["--scenario", "twxc", "--relays", ""],
     "error: --relays expects comma-separated antenna counts, got ''\n"),
])
def test_scenario_usage_messages_name_the_scenario_or_flag(argv, message, capsys):
    assert run(["verify", *argv, "--seeds", "1"]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == message


def test_simulate_csv(tmp_path):
    out = tmp_path / "a.csv"
    assert run(["simulate", "--scenario", "twic", "--seed", "1", "--trials", "3",
                "--format", "csv", "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("trial,seed,max_symbol_error")
    assert len(lines) == 4


def test_simulate_antenna_deficit_exit_three(tmp_path):
    code = run(["simulate", "--scenario", "case1", "--k1", "4", "--relays", "2",
                "--output", str(tmp_path / "x.json")])
    assert code == cli.EXIT_INFEASIBLE


def test_decode_forward_on_single_antenna_relays_names_the_relay(tmp_path, capsys):
    code = run(["simulate", "--scenario", "case1", "--k1", "6", "--relays", ",".join(["1"] * 21),
                "--relay-mode", "decode_forward", "--output", str(tmp_path / "x.json")])
    assert code == cli.EXIT_INFEASIBLE
    # six phase-1 slots give the one-antenna relay six equations in thirty symbols
    assert capsys.readouterr().err == "infeasible: relay 1: effective rank 6 < 30 symbols\n"


@pytest.mark.parametrize("flags,reason", [
    (["case1", "--k1", "5", "--relays", "3,2"], r"^infeasible: user 1: effective rank \d+ < 4 unknowns$"),
    (["case2", "--k2", "7", "--relays", "4,3"],
     r"^infeasible: alignment constraints for slot pair \(8,1\) are infeasible\n\Z"),
    # rank-deficient homogeneous slot pairs: the least-norm solver still returns null vectors
    (["case1", "--k1", "10", "--relays", "8,3"], r"^infeasible: user 1: effective rank \d+ < 9 unknowns$"),
], ids=["case1-5-32", "case2-7-43", "case1-10-83"])
def test_refuted_relay_sets_exit_three_with_their_reason(tmp_path, capsys, flags, reason):
    # every set meets the antenna need and counts as feasible in sum_dof, yet fails structurally
    code = run(["verify", "--scenario", *flags, "--seeds", "3", "--output", str(tmp_path / "v.json")])
    assert code == cli.EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert re.search(reason, err), err


def test_usage_errors_exit_two(tmp_path):
    assert run(["simulate", "--scenario", "nope"]) == cli.EXIT_USAGE
    assert run(["simulate", "--scenario", "case1", "--relays", "3"]) == cli.EXIT_USAGE  # no --k1
    assert run(["simulate", "--scenario", "case1", "--k1", "2", "--relays", "3"]) == cli.EXIT_USAGE
    assert run(["verify", "--scenario", "case2", "--k2", "4"]) == cli.EXIT_USAGE  # no --relays
    assert run(["rate-sweep", "--snr", "abc"]) == cli.EXIT_USAGE
    assert run(["rate-sweep", "--snr", "10:0:1"]) == cli.EXIT_USAGE
    assert run(["no-such-command"]) == cli.EXIT_USAGE


def test_dof_sweep_matches_library(tmp_path):
    import io

    from stpnc.dof import single_antenna_sweep, write_sweep_csv

    out = tmp_path / "dof.csv"
    assert run(["dof-sweep", "--k", "6", "--l-max", "30", "--output", str(out)]) == 0
    buf = io.StringIO()
    write_sweep_csv(single_antenna_sweep(6, 30), buf)
    assert out.read_text() == buf.getvalue()
    outj = tmp_path / "dof.json"
    assert run(["dof-sweep", "--k", "6", "--l-max", "30", "--format", "json",
                "--output", str(outj)]) == 0
    doc = json.loads(outj.read_text())
    jsonschema.validate(doc, load_schema("dof_sweep.schema.json"))
    assert [(r["L"], r["stpnc_value"], r["optimal"]) for r in doc] == [
        (L, str(r.value), r.optimal) for L, r in single_antenna_sweep(6, 30)]


def test_dof_sweep_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["dof-sweep", "--k", "5", "--l-max", "12", "--output", str(a)])
    run(["dof-sweep", "--k", "5", "--l-max", "12", "--output", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_rate_sweep_csv_and_json(tmp_path, capsys):
    out = tmp_path / "r.csv"
    args = ["rate-sweep", "--snr", "0:10:5", "--trials", "300", "--seed", "2",
            "--output", str(out)]
    assert run(args) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("crossover_db=")
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "snr_db,stpnc_rate,stpnc_stderr,tdma_rate,tdma_stderr"
    assert len(lines) == 4
    out2 = tmp_path / "r2.csv"
    assert run(["rate-sweep", "--snr", "0:10:5", "--trials", "300", "--seed", "2",
                "--output", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()

    outj = tmp_path / "r.json"
    assert run(["rate-sweep", "--snr", "0:10:5", "--trials", "300", "--seed", "2",
                "--format", "json", "--output", str(outj)]) == 0
    doc = json.loads(outj.read_text())
    jsonschema.validate(doc, load_schema("rate_sweep.schema.json"))
    assert len(doc["points"]) == 3


@pytest.mark.parametrize("grid", ["-10:30:10", "-0.5:1:0.5", "-5"])
def test_negative_snr_start_reads_as_the_grid(tmp_path, grid):
    # '--snr -10:30:10' once exited 2 with "expected one argument"; both spellings agree
    outs = [tmp_path / "spaced.csv", tmp_path / "bound.csv"]
    for snr, out in zip((["--snr", grid], [f"--snr={grid}"]), outs):
        assert run(["rate-sweep", *snr, "--trials", "4", "--jobs", "1", "--output", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    first = outs[0].read_text().splitlines()[1].split(",")[0]
    assert float(first) == float(grid.split(":")[0])


@pytest.mark.parametrize("snr", ["3082", "3083"])
def test_a_grid_whose_rates_overflow_exits_two_naming_snr(snr, tmp_path):
    # 10 ** 308.3 overflows a float; at 3082 dB rho * gain does, so a rate reads inf, its spread nan
    out = tmp_path / "r.csv"
    proc = cli_process(["rate-sweep", "--snr", snr, "--trials", "5", "--jobs", "1",
                        "--output", str(out)], tmp_path, stdout=subprocess.PIPE)
    assert proc.returncode == cli.EXIT_USAGE
    assert proc.stderr == f"error: --snr '{snr}' is too high: its rates overflow\n"
    assert proc.stdout == "" and not out.exists()


def test_snr_grid_parsing():
    assert cli._parse_snr_grid("0:30:1") == tuple(float(x) for x in range(31))
    assert cli._parse_snr_grid("5") == (5.0,)
    assert cli._parse_snr_grid("0:1:0.25") == (0.0, 0.25, 0.5, 0.75, 1.0)


def test_env_seed_default(tmp_path, monkeypatch):
    monkeypatch.setenv("STPNC_SEED", "31")
    a = tmp_path / "a.json"
    assert run(["simulate", "--scenario", "twic", "--output", str(a)]) == 0
    b = tmp_path / "b.json"
    monkeypatch.delenv("STPNC_SEED")
    assert run(["simulate", "--scenario", "twic", "--seed", "31", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_defaults_and_flag_priority(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "twic", "seeds": 3, "seed": 7}))
    out1 = tmp_path / "o1.json"
    assert run(["verify", "--scenario", "twic", "--config", str(cfg),
                "--output", str(out1)]) == 0
    assert json.loads(out1.read_text())["seeds"] == 3
    # explicit flag beats the config value
    out2 = tmp_path / "o2.json"
    assert run(["verify", "--scenario", "twic", "--config", str(cfg),
                "--seeds", "4", "--output", str(out2)]) == 0
    assert json.loads(out2.read_text())["seeds"] == 4


def test_parallel_jobs_reproduce_sequential(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["rate-sweep", "--snr", "0:6:3", "--trials", "4100", "--seed", "3",
                "--jobs", "1", "--output", str(a)]) == 0
    assert run(["rate-sweep", "--snr", "0:6:3", "--trials", "4100", "--seed", "3",
                "--jobs", "2", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


GOLDEN = Path(__file__).resolve().parent / "golden"
# fixed bytes of two sweeps, which any change to the draws, the gather or the SNR passes
# must keep: 4100 trials span 17 draw batches and three 2048-trial gain blocks, the last
# of each partial
RATE_GOLDEN = {
    "rate_sweep_snr0-30-1_trials4100_seed3.csv": ["--snr", "0:30:1", "--trials", "4100", "--seed", "3"],
    "rate_sweep_snr0-30-5_trials500.json": ["--snr", "0:30:5", "--trials", "500", "--format", "json"],
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("name", RATE_GOLDEN)
def test_rate_sweep_writes_the_golden_bytes(name, jobs, tmp_path, monkeypatch):
    monkeypatch.delenv("STPNC_SEED", raising=False)  # the JSON file is seed 0's
    out = tmp_path / name
    assert run(["rate-sweep", *RATE_GOLDEN[name], "--jobs", jobs, "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


# fixed bytes of the protocol and DoF commands, which any change to the schedule's derived
# tables, the design, the decode or the JSON writer must keep: the crossed exchange on one
# relay, case2 on three relays, case1 on the 21 one-antenna relays of its antenna bound,
# a noisy run, a run of three chunks (7, 7 and 1 seeds) and a DoF table
CLI_GOLDEN = {
    "verify_twxc_seeds12.json": ["verify", "--scenario", "twxc", "--seeds", "12"],
    "verify_case2_k5_relays2-2-1_seeds5.json": [
        "verify", "--scenario", "case2", "--k2", "5", "--relays", "2,2,1", "--seeds", "5"],
    "verify_case1_k6_relays21x1_seeds2.json": [
        "verify", "--scenario", "case1", "--k1", "6", "--relays", ",".join(["1"] * 21), "--seeds", "2"],
    "simulate_twxc_noise0.01_trials3.json": [
        "simulate", "--scenario", "twxc", "--noise-var", "0.01", "--trials", "3", "--format", "json"],
    "simulate_case1_k6_relays21x1_trials15.json": [
        "simulate", "--scenario", "case1", "--k1", "6", "--relays", ",".join(["1"] * 21), "--trials", "15",
        "--format", "json"],
    "dof_sweep_k6_lmax30.json": ["dof-sweep", "--k", "6", "--l-max", "30", "--format", "json"],
}


@pytest.mark.parametrize("name", CLI_GOLDEN)
def test_cli_writes_the_golden_bytes(name, tmp_path, monkeypatch):
    monkeypatch.delenv("STPNC_SEED", raising=False)  # the files are seed 0's
    out = tmp_path / name
    assert run([*CLI_GOLDEN[name], "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_worker_pool_is_capped_at_the_core_count(tmp_path, monkeypatch):
    # a fake pool records its size and maps in-process: no worker is started
    import multiprocessing

    sizes = []

    class RecordingPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, args):
            return [fn(*a) for a in args]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    args = ["rate-sweep", "--snr", "0:6:3", "--trials", str(4 * 2048 + 1), "--seed", "3"]
    outs = {}
    for jobs in ("1", "2", "0", "100000"):
        outs[jobs] = tmp_path / f"j{jobs}.csv"
        assert run(args + ["--jobs", jobs, "--output", str(outs[jobs])]) == 0
    assert sizes == [2, 3, 3]  # five trial blocks; --jobs 1 starts no pool
    assert len({p.read_bytes() for p in outs.values()}) == 1


def test_cli_import_leaves_multiprocessing_unloaded():
    # only a rate-sweep that starts worker processes imports multiprocessing
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    code = "import sys, stpnc.cli; print('multiprocessing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_reused_parser_gives_the_bytes_of_lone_calls(tmp_path, monkeypatch):
    # the parser is built once per process; a --config call must not leak its
    # values into later calls, which rely on the defaults it overrode
    monkeypatch.delenv("STPNC_SEED", raising=False)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seeds": 2, "seed": 5, "format": "json"}))
    calls = [
        ["verify", "--scenario", "twic", "--seeds", "3"],
        ["verify", "--scenario", "twxc", "--config", str(cfg)],
        ["verify", "--scenario", "twic", "--seeds", "3"],
        ["simulate", "--scenario", "case1", "--k1", "3", "--relays", "2", "--format", "csv"],
        ["dof-sweep", "--k", "5", "--l-max", "8"],
        ["rate-sweep", "--snr", "0:10:5", "--trials", "40", "--jobs", "1"],
    ]
    cli.build_parser.cache_clear()
    in_row = []
    for i, args in enumerate(calls):
        out = tmp_path / f"row{i}"
        assert run(args + ["--output", str(out)]) == 0
        in_row.append(out.read_bytes())
    assert cli.build_parser.cache_info().misses == 1
    for i, args in enumerate(calls):
        cli.build_parser.cache_clear()
        out = tmp_path / f"alone{i}"
        assert run(args + ["--output", str(out)]) == 0
        assert out.read_bytes() == in_row[i], args
    assert in_row[0] == in_row[2]


def test_config_values_are_parsed_like_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": "40", "snr": "0:10:5", "jobs": 1, "seed": 2,
                               "k1": 9}))  # k1 is no rate-sweep flag: ignored
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["rate-sweep", "--snr", "0:10:5", "--config", str(cfg), "--output", str(a)]) == 0
    assert run(["rate-sweep", "--snr", "0:10:5", "--trials", "40", "--jobs", "1",
                "--seed", "2", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    cfg.write_text(json.dumps({"relays": [2, 1], "k2": 4}))
    assert run(["verify", "--scenario", "case2", "--seeds", "1", "--config", str(cfg),
                "--output", str(a)]) == 0
    assert json.loads(a.read_text())["relay_antennas"] == [2, 1]


@pytest.mark.parametrize("args", [
    ["verify", "--scenario", "twic", "--seeds", "1", "--format", "csv"],
    ["verify", "--scenario", "twic", "--seeds", "1", "--jobs", "2"],
    ["simulate", "--scenario", "twic", "--jobs", "2"],
    ["dof-sweep", "--k", "5", "--l-max", "3", "--jobs", "2"],
    ["dof-sweep", "--k", "5", "--l-max", "3", "--seed", "1"],
])
def test_flags_a_subcommand_does_not_read_are_rejected(args, tmp_path):
    assert run(args + ["--output", str(tmp_path / "x")]) == cli.EXIT_USAGE


VERIFY = ["verify", "--scenario", "twic", "--seeds", "1"]
BAD_INPUTS = {  # name: (text of {tmp}/cfg.json or None, argv)
    "missing-config": (None, VERIFY + ["--config", "{tmp}/missing.json"]),
    "malformed-config": ("{not json", VERIFY + ["--config", "{tmp}/cfg.json"]),
    "list-config": ("[1, 2]", VERIFY + ["--config", "{tmp}/cfg.json"]),
    "mistyped-config": ('{"trials": "x"}',
                        ["rate-sweep", "--snr", "0:10:5", "--config", "{tmp}/cfg.json"]),
    "negative-noise": (None, ["simulate", "--scenario", "twic", "--noise-var", "-1"]),
    "unwritable-output": (None, ["dof-sweep", "--k", "5", "--l-max", "3",
                                 "--output", "{tmp}/no/such/dir/x.csv"]),
    "infinite-snr-stop": (None, ["rate-sweep", "--snr", "0:inf:1"]),
    "nan-snr-stop": (None, ["rate-sweep", "--snr", "0:nan:1"]),
    "nan-snr-step": (None, ["rate-sweep", "--snr", "0:10:nan"]),
    "nan-snr": (None, ["rate-sweep", "--snr", "nan"]),
    "infinite-snr": (None, ["rate-sweep", "--snr", "inf"]),
    "overflowing-snr-count": (None, ["rate-sweep", "--snr", "0:1e300:1e-300", "--trials", "4"]),
    "overflowing-snr-span": (None, ["rate-sweep", "--snr=-1e308:1e308:1", "--trials", "4"]),
    "nan-noise": (None, ["simulate", "--scenario", "twic", "--noise-var", "nan"]),
    "infinite-noise": (None, ["simulate", "--scenario", "twic", "--noise-var", "inf"]),
    "zero-trials": (None, ["simulate", "--scenario", "twic", "--trials", "0"]),
    "negative-trials": (None, ["simulate", "--scenario", "twic", "--trials", "-2"]),
    "negative-jobs": (None, ["rate-sweep", "--snr", "0:10:5", "--jobs", "-4"]),
    "k1-below-two": (None, ["verify", "--scenario", "case1", "--k1", "1", "--relays", "3"]),
    "k2-below-four": (None, ["verify", "--scenario", "case2", "--k2", "3", "--relays", "3"]),
    "twic-empty-relays": (None, ["verify", "--scenario", "twic", "--relays", ""]),
    "case1-empty-relays": (None, ["verify", "--scenario", "case1", "--k1", "4", "--relays", ""]),
    "negative-seed": (None, VERIFY + ["--seed", "-1"]),
    "negative-config-seed": ('{"seed": -3}', VERIFY + ["--config", "{tmp}/cfg.json"]),
}


@pytest.mark.parametrize("name", BAD_INPUTS)
def test_bad_input_exits_two_without_traceback(name, tmp_path):
    config, args = BAD_INPUTS[name]
    if config is not None:
        (tmp_path / "cfg.json").write_text(config)
    args = [a.format(tmp=tmp_path) for a in args]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "stpnc.cli", *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == cli.EXIT_USAGE, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip()


def cli_process(args, tmp_path, **kwargs):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    env.update(kwargs.pop("env", {}))
    return subprocess.run([sys.executable, "-m", "stpnc.cli", *args], cwd=tmp_path, env=env,
                          stderr=subprocess.PIPE, text=True, timeout=120, **kwargs)


@pytest.mark.parametrize("value", ["abc", "-1", "1.5", ""])
@pytest.mark.parametrize("command", [VERIFY, ["rate-sweep", "--snr", "0", "--trials", "2"]],
                         ids=["verify", "rate-sweep"])
def test_bad_env_seed_exits_two_naming_the_variable(value, command, tmp_path):
    proc = cli_process(command, tmp_path, env={"STPNC_SEED": value}, stdout=subprocess.PIPE)
    assert proc.returncode == cli.EXIT_USAGE, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"error: $STPNC_SEED must be a nonnegative integer, got {value!r}\n"
    assert proc.stdout == ""


def test_flag_seed_error_names_the_flag(tmp_path):
    proc = cli_process(VERIFY + ["--seed", "-1"], tmp_path, env={"STPNC_SEED": "abc"},
                       stdout=subprocess.PIPE)
    assert proc.returncode == cli.EXIT_USAGE
    assert proc.stderr == "error: --seed must be a nonnegative integer, got '-1'\n"


def test_closed_output_pipe_exits_one_without_traceback(tmp_path):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first byte is written
    try:
        proc = cli_process(["dof-sweep", "--k", "6", "--l-max", "200", "--format", "json"],
                           tmp_path, stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_OUTPUT_CLOSED == 1
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


@pytest.mark.parametrize("flags", [
    ["--scenario", "twic"],
    ["--scenario", "twxc", "--seed", "3"],
    ["--scenario", "case2", "--k2", "5", "--relays", "2,2,1"],
    ["--scenario", "case1", "--k1", "6", "--relays", ",".join(["1"] * 21)],
], ids=["twic", "twxc", "case2", "case1-21x1"])
def test_verify_bytes_do_not_depend_on_the_chunk_size(tmp_path, monkeypatch, flags):
    # a byte budget of one byte runs one seed per chunk; a huge one runs all nine as one
    real, batches, outputs = protocol._run, [], []

    def counted(scenario, cfg, seeds, relay_mode):
        batches.append(len(seeds))
        return real(scenario, cfg, seeds, relay_mode)

    monkeypatch.setattr(protocol, "_run", counted)
    for budget in (1, 1 << 40):
        monkeypatch.setattr(protocol, "CHUNK_BYTES", budget)
        out = tmp_path / f"v{budget}.json"
        assert run(["verify", *flags, "--seeds", "9", "--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert batches == [1] * 9 + [9]
    assert outputs[0] == outputs[1]
