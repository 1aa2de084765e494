"""Command-line front end: scenario runs, DoF sweeps, rate sweeps, verification.

Exit codes: 0 success, 2 usage error, 3 infeasible configuration
(antenna deficit / rank-deficient decoding), 4 verification failure.
The STPNC_SEED environment variable supplies the default root seed; an
optional JSON config file can pre-set any flag of the subcommand; its
values are parsed like the flags themselves, and explicit flags win. Output
files are byte-identical across runs with identical arguments.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from contextlib import nullcontext

import numpy as np

from . import dof, rate
from .channel import NetworkConfig, derive_trial_seed
from .linalg import InconsistentSystem, RankDeficient
from .precoder import AntennaDeficit, SynthesisFailed
from .protocol import SCENARIOS, run_end_to_end, verify_scenario
from .scheduler import InvalidUserCount

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_VERIFY_FAILED = 4

_GAIN_BLOCK = 2048  # trials per parallel work unit; fixed so merges are identical


class UsageError(Exception):
    pass


def _parse_relays(text) -> tuple:
    try:
        antennas = tuple(int(p) for p in str(text).split(","))
    except ValueError:
        raise UsageError(f"--relays expects comma-separated antenna counts, got {text!r}")
    if not antennas or any(m < 1 for m in antennas):
        raise UsageError("--relays needs at least one relay with at least one antenna")
    return antennas


def _parse_snr_grid(text) -> tuple:
    """SNR grid 'start:stop:step' in dB, endpoints inclusive; or a single value."""
    parts = str(text).split(":")
    try:
        if len(parts) == 1:
            return (float(parts[0]),)
        if len(parts) != 3:
            raise ValueError
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise UsageError(f"--snr expects 'start:stop:step' in dB, got {text!r}")
    if step <= 0 or stop < start:
        raise UsageError("--snr needs step > 0 and stop >= start")
    count = int(np.floor((stop - start) / step + 1e-9)) + 1
    return tuple(start + k * step for k in range(count))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing never mutates it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", default=None, help="output path (default: stdout)")
    common.add_argument("--config", default=None,
                        help="JSON file with flag defaults; explicit flags win")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=None,
                        help="root seed (default: $STPNC_SEED or 0)")

    parser = argparse.ArgumentParser(
        prog="stpnc",
        description="Simulator for two-phase relayed multi-way exchange: "
                    "protocol runs, DoF tables, and ergodic-rate sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[seeded],
                       help="run the protocol end to end and report recovery quality")
    p.add_argument("--scenario", required=True, choices=SCENARIOS)
    p.add_argument("--k1", type=int, default=None, help="user count for case1")
    p.add_argument("--k2", type=int, default=None, help="user count for case2")
    p.add_argument("--relays", default=None,
                   help="comma-separated antenna counts, e.g. '2' or '1,1,2'")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--noise-var", type=float, default=0.0)
    p.add_argument("--relay-mode", choices=("decode_forward", "linear_forward"), default=None)
    p.add_argument("--format", choices=("csv", "json"), default="json")

    p = sub.add_parser("dof-sweep", parents=[common],
                       help="closed-form sum-DoF table over single-antenna relay counts")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l-max", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("rate-sweep", parents=[seeded],
                       help="Monte Carlo ergodic sum rate vs the TDMA baseline")
    p.add_argument("--snr", required=True, help="grid 'start:stop:step' in dB")
    p.add_argument("--jobs", type=int, default=0,
                   help="worker processes for Monte Carlo blocks (0 = all cores)")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("verify", parents=[seeded],
                       help="run the invariant suite over many seeds; exit 0 iff all pass")
    p.add_argument("--scenario", required=True, choices=SCENARIOS)
    p.add_argument("--seeds", type=int, default=100)
    p.add_argument("--k1", type=int, default=None)
    p.add_argument("--k2", type=int, default=None)
    p.add_argument("--relays", default=None)
    return parser


def _parse_args(argv: list) -> argparse.Namespace:
    """Parse argv; a --config file's values enter as flags placed before the explicit ones.

    Argparse keeps the last value of a flag, so explicit flags win. Keys that
    name no flag of the subcommand are ignored. Errors exit through argparse.
    """
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.config is None:
        return ns
    try:
        with open(ns.config) as f:
            overrides = json.load(f)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read --config {ns.config}: {exc}")
    if not isinstance(overrides, dict):
        parser.error("--config must hold a JSON object of flag values")
    tokens = []
    for key, val in overrides.items():
        attr = key.replace("-", "_")
        if attr in ("command", "config") or not hasattr(ns, attr):
            continue
        if isinstance(val, list):
            val = ",".join(str(v) for v in val)
        tokens.append(f"--{attr.replace('_', '-')}={val}")
    return parser.parse_args([argv[0], *tokens, *argv[1:]])


def _resolve_seed(ns: argparse.Namespace) -> int:
    if ns.seed is not None:
        return int(ns.seed)
    return int(os.environ.get("STPNC_SEED", "0"))


def _network_config(ns: argparse.Namespace, noise_var: float = 0.0) -> NetworkConfig:
    scenario = ns.scenario
    if scenario in ("twic", "twxc"):
        relays = _parse_relays(ns.relays) if ns.relays else (2,)
        return NetworkConfig(4, relays, noise_var=noise_var)
    if scenario == "case1":
        if ns.k1 is None:
            raise UsageError("--k1 is required for scenario case1")
        if ns.k1 < 3:
            raise UsageError("--k1 must be at least 3")
        users = ns.k1
    else:
        if ns.k2 is None:
            raise UsageError("--k2 is required for scenario case2")
        if ns.k2 < 4:
            raise UsageError("--k2 must be at least 4")
        users = ns.k2
    if ns.relays is None:
        raise UsageError(f"--relays is required for scenario {scenario}")
    return NetworkConfig(users, _parse_relays(ns.relays), noise_var=noise_var)


def _out_stream(ns: argparse.Namespace):
    if ns.output in (None, "-"):
        return nullcontext(sys.stdout)
    try:
        return open(ns.output, "w")
    except OSError as exc:
        raise UsageError(f"cannot write --output {ns.output}: {exc.strerror}")


def _sym_key(sym) -> str:
    return f"{sym.dest}:{sym.src}"


def _report_json(rep, trial: int) -> dict:
    return {
        "trial": trial,
        "seed": rep.seed,
        "max_symbol_error": rep.max_symbol_error,
        "constraint_residual": rep.constraint_residual,
        "achieved_dof": str(rep.achieved_dof),
        "slots_used": rep.slots_used,
        "symbols_delivered": rep.symbols_delivered,
        "effective_ranks": {str(k): r for k, r in sorted(rep.effective_ranks.items())},
        "recovered": {
            _sym_key(sym): [val.real, val.imag] for sym, val in sorted(rep.recovered.items())
        },
    }


def _cmd_simulate(ns: argparse.Namespace) -> int:
    if ns.noise_var < 0:
        raise UsageError("--noise-var must be nonnegative")
    seed = _resolve_seed(ns)
    cfg = _network_config(ns, noise_var=ns.noise_var)
    reports = [
        run_end_to_end(ns.scenario, cfg, derive_trial_seed(seed, i), ns.relay_mode)
        for i in range(ns.trials)
    ]
    with _out_stream(ns) as f:
        if ns.format == "json":
            doc = {
                "scenario": ns.scenario,
                "K": cfg.K,
                "relay_antennas": list(cfg.relay_antennas),
                "power_P": 1.0,  # unit transmit power; the key stays in the schema
                "noise_var": cfg.noise_var,
                "relay_mode": ns.relay_mode,
                "trials": [_report_json(rep, i) for i, rep in enumerate(reports)],
            }
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        else:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["trial", "seed", "max_symbol_error", "constraint_residual",
                        "achieved_dof", "slots_used", "symbols_delivered",
                        "rank_min", "rank_max"])
            for i, rep in enumerate(reports):
                ranks = rep.effective_ranks.values()
                w.writerow([i, rep.seed, f"{rep.max_symbol_error:.10g}",
                            f"{rep.constraint_residual:.10g}", str(rep.achieved_dof),
                            rep.slots_used, rep.symbols_delivered, min(ranks), max(ranks)])
    return EXIT_OK


def _cmd_dof_sweep(ns: argparse.Namespace) -> int:
    if ns.k < 3:
        raise UsageError("--k must be at least 3")
    if ns.l_max < 1:
        raise UsageError("--l-max must be at least 1")
    rows = dof.single_antenna_sweep(ns.k, ns.l_max)
    with _out_stream(ns) as f:
        if ns.format == "csv":
            dof.write_sweep_csv(rows, f)
        else:
            doc = [
                {
                    "L": L,
                    "term_in": str(r.term_in),
                    "term_in_ia": str(r.term_in_ia),
                    "term_ia": str(r.term_ia),
                    "gof": str(r.gof),
                    "stpnc_value": str(r.value),
                    "optimal": r.optimal,
                }
                for L, r in rows
            ]
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
    return EXIT_OK


def _parallel_gains(seed: int, trials: int, jobs: int) -> np.ndarray:
    blocks = [(seed, start, min(_GAIN_BLOCK, trials - start))
              for start in range(0, trials, _GAIN_BLOCK)]
    if jobs == 1 or len(blocks) == 1:
        parts = [rate.trial_gains(*b) for b in blocks]
    else:
        from multiprocessing import Pool  # here, so processes that start no worker skip its import
        with Pool(min(jobs, len(blocks))) as pool:
            parts = pool.starmap(rate.trial_gains, blocks)
    return np.vstack(parts)


def _cmd_rate_sweep(ns: argparse.Namespace) -> int:
    seed = _resolve_seed(ns)
    grid = _parse_snr_grid(ns.snr)
    if ns.trials < 1:
        raise UsageError("--trials must be at least 1")
    cfg = rate.RateConfig(grid, ns.trials, seed)
    jobs = ns.jobs if ns.jobs > 0 else (os.cpu_count() or 1)
    gains = _parallel_gains(seed, ns.trials, jobs)
    result = rate.snr_sweep(cfg, gains)
    cross = "none" if result.crossover_db is None else f"{result.crossover_db:.4g}"
    with _out_stream(ns) as f:
        if ns.format == "csv":
            rate.write_rate_csv(result, f)
        else:
            doc = {
                "seed": seed,
                "trials": ns.trials,
                "crossover_db": result.crossover_db,
                "points": [
                    {
                        "snr_db": p.snr_db,
                        "stpnc_rate": p.stpnc_rate,
                        "stpnc_stderr": p.stpnc_stderr,
                        "tdma_rate": p.tdma_rate,
                        "tdma_stderr": p.tdma_stderr,
                    }
                    for p in result.points
                ],
            }
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
    summary = sys.stdout if ns.output not in (None, "-") else sys.stderr
    print(f"crossover_db={cross}", file=summary)
    return EXIT_OK


def _cmd_verify(ns: argparse.Namespace) -> int:
    if ns.seeds < 1:
        raise UsageError("--seeds must be at least 1")
    seed = _resolve_seed(ns)
    cfg = _network_config(ns, noise_var=0.0)
    summary = verify_scenario(ns.scenario, cfg, ns.seeds, seed)
    with _out_stream(ns) as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    return EXIT_OK if summary["passed"] else EXIT_VERIFY_FAILED


_COMMANDS = {
    "simulate": _cmd_simulate,
    "dof-sweep": _cmd_dof_sweep,
    "rate-sweep": _cmd_rate_sweep,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        ns = _parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[ns.command](ns)
    except (UsageError, InvalidUserCount) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AntennaDeficit, RankDeficient, SynthesisFailed, InconsistentSystem) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
