"""Interleaved in-process timing of ``precoder.design`` in this checkout and another one.

Usage (from the repository root):

    python3 tools/design_ab.py --parent ../stpnc-parent [--sets twic,case1-10-9] [--rounds 7]
    python3 tools/design_ab.py --parent ../stpnc-parent --verify [--rounds 400]

Loads this checkout's ``src/stpnc`` and the other checkout's as two separately named
packages in one process, so both run on the same interpreter, BLAS and machine state. Each
relay set's channels are drawn in both trees from the same seeds; then every round times
one ``design`` call per tree (``verify_constraints`` included), the trees taking turns to
go first. Prints a markdown table: each tree's best time, the speedup, and the bank's
largest difference relative to the other tree's bank. BLAS runs on one thread unless the
environment says otherwise.

With ``--verify`` it times instead the benchmark's five ``verify`` calls through each
tree's ``stpnc.cli.main``, after one untimed round, in interleaved rounds that alternate
which tree goes first. Its table gives each tree's best and median ms per call, the
speedup of the best, and whether the exit code, stdout and output file are byte-equal.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import os
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the BLAS thread settings)

ROOT = Path(__file__).resolve().parent.parent

# name -> (scenario, K, relay antennas, seeds per design call)
RELAY_SETS = {
    "case1-6-21x1": ("case1", 6, (1,) * 21, 1),
    "case2-6-16x1": ("case2", 6, (1,) * 16, 1),
    "twic": ("twic", 4, (2,), 20),
    "twxc": ("twxc", 4, (2,), 12),
    "case1-8-7": ("case1", 8, (7,), 1),
    "case2-8-6": ("case2", 8, (6,), 1),
    "case1-9-7222": ("case1", 9, (7, 2, 2, 2), 1),
    "case2-10-8": ("case2", 10, (8,), 1),
    "case1-10-9": ("case1", 10, (9,), 1),
}

# name -> the flags of one of the benchmark's verify calls (perfbench/run.py's WORKLOADS)
VERIFY_CALLS = {
    "case1-6-21x1": ("--scenario", "case1", "--k1", "6", "--relays", ",".join("1" * 21), "--seeds", "1"),
    "case2-6-16x1": ("--scenario", "case2", "--k2", "6", "--relays", ",".join("1" * 16), "--seeds", "1"),
    "twic": ("--scenario", "twic", "--seeds", "20"),
    "twxc": ("--scenario", "twxc", "--seeds", "12"),
    "case2-4-2": ("--scenario", "case2", "--k2", "4", "--relays", "2", "--seeds", "5"),
}


def load(checkout, name: str) -> dict:
    """checkout's src/stpnc imported as the package ``name``: its channel, precoder,
    protocol and cli modules."""
    src = Path(checkout).resolve() / "src" / "stpnc"
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py",
                                                  submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {m: importlib.import_module(f"{name}.{m}") for m in ("channel", "precoder", "protocol", "cli")}


def inputs(tree: dict, scenario: str, K: int, antennas: tuple, seeds: int) -> tuple:
    """The schedule and a batch of seeds' channels, as design takes them."""
    sched = tree["protocol"].scenario_schedule(scenario, K)
    cfg = tree["channel"].NetworkConfig(K, antennas)
    return sched, tree["channel"].draw_channels(cfg, sched.n_slots, list(range(seeds)))


def compare(trees: dict, name: str, rounds: int) -> str:
    """One table row: best ms per tree over interleaved rounds, speedup, bank difference."""
    args = {t: inputs(tree, *RELAY_SETS[name]) for t, tree in trees.items()}
    best, bank = dict.fromkeys(trees, float("inf")), {}
    for r in range(rounds):
        for t in (list(trees) if r % 2 == 0 else list(trees)[::-1]):
            start = perf_counter()
            bank[t] = trees[t]["precoder"].design(*args[t]).bank
            best[t] = min(best[t], perf_counter() - start)
    diff = np.linalg.norm(bank["this"] - bank["parent"]) / np.linalg.norm(bank["parent"])
    seeds = RELAY_SETS[name][3]
    return (f"| {name} ({seeds}) | {1e3 * best['parent']:.2f} | {1e3 * best['this']:.2f} "
            f"| {best['parent'] / best['this']:.2f} | {diff:.1e} |")


def verify_call(tree: dict, name: str, out: Path) -> tuple:
    """One verify call through the tree's cli.main: seconds taken, and (exit code, stdout,
    output file bytes)."""
    stdout = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(stdout):
        code = tree["cli"].main(["verify", *VERIFY_CALLS[name], "--output", str(out)])
    return perf_counter() - start, (code, stdout.getvalue(), out.read_bytes())


def compare_verify(trees: dict, name: str, rounds: int, tmp: Path) -> str:
    """One table row: best and median ms per call of each tree, speedup, equal outputs."""
    times, outputs = {t: [] for t in trees}, {}
    for r in range(-1, rounds):  # round -1 fills the caches and is not timed
        for t in (list(trees) if r % 2 == 0 else list(trees)[::-1]):
            took, outputs[t] = verify_call(trees[t], name, tmp / f"{t}.json")
            if r >= 0:
                times[t].append(took)
    ms = {t: (1e3 * min(x), 1e3 * statistics.median(x)) for t, x in times.items()}
    seeds = VERIFY_CALLS[name][-1]
    return (f"| {name} ({seeds}) | {ms['parent'][0]:.2f} / {ms['parent'][1]:.2f} "
            f"| {ms['this'][0]:.2f} / {ms['this'][1]:.2f} | {ms['parent'][0] / ms['this'][0]:.2f} "
            f"| {'yes' if outputs['this'] == outputs['parent'] else 'NO'} |")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="root of the checkout to compare against")
    ap.add_argument("--sets", default=",".join(RELAY_SETS),
                    help=f"comma-separated relay sets (default: all of {', '.join(RELAY_SETS)})")
    ap.add_argument("--rounds", type=int, default=7)
    ap.add_argument("--verify", action="store_true",
                    help="time the benchmark's five verify CLI calls instead of design")
    args = ap.parse_args(argv)
    names = args.sets.split(",")
    unknown = sorted(set(names) - set(RELAY_SETS))
    if unknown or args.rounds < 1:
        ap.error(f"unknown relay sets {unknown}" if unknown else "--rounds must be at least 1")
    trees = {"parent": load(args.parent, "stpnc_parent"), "this": load(ROOT, "stpnc_this")}
    if args.verify:
        print("| verify call (seeds) | parent best / median ms | this best / median ms | × best | equal |")
        print("|---|---|---|---|---|")
        with tempfile.TemporaryDirectory() as tmp:
            for name in VERIFY_CALLS:
                print(compare_verify(trees, name, args.rounds, Path(tmp)), flush=True)
        return 0
    print("| relay set (seeds) | parent ms | this ms | × | bank diff (rel.) |")
    print("|---|---|---|---|---|")
    for name in names:
        print(compare(trees, name, args.rounds), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
