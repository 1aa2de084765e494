"""stpnc benchmark: times `stpnc verify`, `rate-sweep` and `dof-sweep` end to end.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-pairs --seed 3 --seconds 18 --trace 0

Each workload is a fixed round of CLI calls made in-process through
``stpnc.cli.main``, writing to files; the run repeats whole rounds for
``--seconds`` and reports per-round medians. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the same rounds once untraced and once
with timing spans around the library's public functions and prints the
per-layer metrics. Afterwards, outside the timed region, every output is
checked by the independent oracles in ``oracles.py``. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SNR_GRID = "0:30:1"  # as the CLI takes it; the oracles check these points:
SNR_DB = [float(x) for x in range(31)]
GAIN_BLOCK = 2048  # trials per Monte Carlo block in `stpnc rate-sweep`
SETUP_SAMPLES = 16  # fresh-interpreter imports, spread over the timed rounds
# `sweeps` also runs one large sweep, with one and with two workers; it spans four
# blocks and, pooled with the timed sweeps, gives the crossover check enough trials
DETERMINISM_TRIALS = 3 * GAIN_BLOCK + 4


@dataclass(frozen=True)
class Verify:
    """`stpnc verify` over `seeds` derived seeds of one scenario."""

    scenario: str
    K: int
    antennas: tuple
    seeds: int
    kind = "verify"

    def flags(self) -> list:
        relays = ",".join(str(m) for m in self.antennas)
        if self.scenario == "case1":
            return ["--k1", str(self.K), "--relays", relays]
        if self.scenario == "case2":
            return ["--k2", str(self.K), "--relays", relays]
        return ["--relays", relays]

    def argv(self, seed: int, out: str) -> list:
        return ["verify", "--scenario", self.scenario, *self.flags(),
                "--seeds", str(self.seeds), "--seed", str(seed), "--output", out]

    @property
    def amount(self) -> int:
        return self.seeds

    @property
    def ops(self) -> int:
        return self.seeds


@dataclass(frozen=True)
class RateSweep:
    """`stpnc rate-sweep` over the 0:30:1 dB grid on one worker."""

    trials: int
    kind = "rate"

    def argv(self, seed: int, out: str) -> list:
        return ["rate-sweep", "--snr", SNR_GRID, "--trials", str(self.trials),
                "--jobs", "1", "--seed", str(seed), "--output", out]

    @property
    def amount(self) -> int:
        return self.trials

    @property
    def ops(self) -> int:
        return math.ceil(self.trials / GAIN_BLOCK)


@dataclass(frozen=True)
class DofSweep:
    """`stpnc dof-sweep` table for K users and 1..l_max single-antenna relays."""

    k: int
    l_max: int
    kind = "dof"

    def argv(self, seed: int, out: str) -> list:
        return ["dof-sweep", "--k", str(self.k), "--l-max", str(self.l_max), "--output", out]

    @property
    def amount(self) -> int:
        return self.l_max

    @property
    def ops(self) -> int:
        return self.l_max


# One round per workload. Every workload reports every end-to-end metric, so the
# verify workloads carry a small rate-sweep and dof-sweep (`verify-many-relays` after
# each of its slow verify calls, for more samples), and `sweeps` a small verify (case2
# with K=4, so the block-precoder least-norm path is exercised there too).
WORKLOADS = {
    "verify-pairs": (
        Verify("twic", 4, (2,), 20),
        Verify("twxc", 4, (2,), 12),
        RateSweep(64),
        DofSweep(6, 200),
    ),
    "verify-many-relays": (
        Verify("case1", 6, (1,) * 21, 1),
        RateSweep(64),
        DofSweep(6, 200),
        Verify("case2", 6, (1,) * 16, 1),
        RateSweep(64),
        DofSweep(6, 200),
    ),
    "sweeps": (
        *(RateSweep(64) for _ in range(4)),
        DofSweep(6, 200),
        DofSweep(12, 200),
        DofSweep(24, 200),
        Verify("case2", 4, (2,), 5),
    ),
}

RATE_METRIC = {"verify": ("seeds_per_s", "seeds/s"), "rate": ("trials_per_s", "trials/s"),
               "dof": ("dof_rows_per_s", "rows/s")}


@dataclass
class Outcome:
    call: object
    seed: int
    rc: int
    seconds: float
    text: str


def call_seed(run_seed: int, workload: str, label, j: int) -> int:
    """63-bit seed of call j of a round, from the run's --seed alone."""
    digest = hashlib.blake2b(f"{workload}/{run_seed}/{label}/{j}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def run_round(main, workload: str, run_seed: int, label, workdir: Path) -> list:
    """Make every call of one round; only the `main` call itself is timed."""
    outcomes = []
    for j, call in enumerate(WORKLOADS[workload]):
        seed = call_seed(run_seed, workload, label, j)
        out = workdir / f"call{j}.out"
        argv = call.argv(seed, str(out))
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            rc = main(argv)
            dt = perf_counter() - t0
        text = out.read_text() if out.exists() else ""
        if out.exists():
            out.unlink()
        outcomes.append(Outcome(call, seed, rc, dt, text))
    return outcomes


def throughput_metrics(rounds) -> dict:
    """Work per second inside each kind of call, from each distinct call's fastest time.

    Every round makes the same calls, so each call of every round is one
    sample of the same work on fresh seeds, and a call made several times per
    round gives several samples per round. Load from other tenants of a
    shared machine only ever slows a call down, so the fastest sample is the
    steadiest estimate of what the program itself costs.
    """
    fastest = {}
    for outcome in (o for r in rounds for o in r):
        fastest[outcome.call] = min(fastest.get(outcome.call, math.inf), outcome.seconds)
    amount, secs = Counter(), Counter()
    for call, seconds in fastest.items():
        amount[call.kind] += call.amount
        secs[call.kind] += seconds
    return {RATE_METRIC[k][0]: {"value": amount[k] / secs[k], "unit": RATE_METRIC[k][1]}
            for k in amount}


def measure_setup() -> float:
    """Seconds from starting a fresh interpreter to `import stpnc.cli` done."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import stpnc.cli; "
            "sys.stdout.write('ready\\n'); sys.stdout.flush()")
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-c", code, str(SRC)], stdout=subprocess.PIPE,
                          env={**os.environ, **BLAS_ENV}, cwd=ROOT, text=True) as proc:
        line = proc.stdout.readline()
        dt = perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError("`import stpnc.cli` failed in a fresh interpreter "
                           f"(exit {proc.returncode})")
    return dt


# ---- checks of every output, made between the timed calls ---------------------------

def library_failure(scenario, cfg, seed) -> str:
    """Exception class name one seed raises when run through the library, if any."""
    import oracles
    from stpnc.protocol import run_end_to_end
    try:
        run_end_to_end(scenario, cfg, seed)
    except oracles.SEED_ERRORS as exc:
        return type(exc).__name__
    return "verify.nonzero_exit"


class Checker:
    """Runs the oracles on each round's outputs and keeps the operation accounting.

    An operation is one verify seed, one Monte Carlo trial block or one DoF
    row; each counts as failed at most once, under every check it fails.
    """

    def __init__(self, main, workdir: Path):
        self.main, self.workdir = main, workdir
        self.attempted = self.failed = 0
        self.names = Counter()
        self.rate_texts, self.rate_trials, self.rate_ops = [], [], 0

    def fail(self, ops: int, names) -> None:
        self.failed += ops
        self.names.update({n: ops for n in names})

    def check_round(self, outcomes) -> None:
        import oracles
        for o in outcomes:
            self.attempted += o.call.ops
            if o.call.kind == "verify":
                for names in self._verify_call(o).values():
                    if names:
                        self.fail(1, names)
            elif o.rc != 0:
                self.fail(o.call.ops, [f"{o.call.kind}.exit_{o.rc}"])
            elif o.call.kind == "rate":
                names = oracles.check_rate_table(o.text, SNR_DB)
                if names:
                    self.fail(o.call.ops, names)
                else:  # kept for the pooled check of the `sweeps` workload
                    self.rate_texts.append(o.text)
                    self.rate_trials.append(o.call.trials)
                    self.rate_ops += o.call.ops
            else:
                bad, names = oracles.check_dof_table(o.text, o.call.k, o.call.l_max)
                self.fail(bad, names)

    def _verify_call(self, o: Outcome) -> dict:
        """{seed index: failed check names} for one `verify` call, re-derived per seed."""
        import oracles
        from stpnc.channel import NetworkConfig, derive_trial_seed

        call = o.call
        cfg = NetworkConfig(call.K, call.antennas)
        seeds = [derive_trial_seed(o.seed, i) for i in range(call.seeds)]
        failed = defaultdict(set)
        if o.rc not in (0, 4):  # the whole batch stopped on an exception
            for i, s in enumerate(seeds):
                failed[i].add(library_failure(call.scenario, cfg, s))
            return failed
        doc = json.loads(o.text)
        for i in doc.get("failures", []):
            failed[i].add("verify.failed_seed")
        summary = oracles.check_verify_summary(call.scenario, cfg, doc)
        if summary and not doc.get("failures"):
            for i in range(call.seeds):
                failed[i].update(summary)
        # the per-seed symbols the CLI reports come from `simulate` on the same seeds
        out = self.workdir / "simulate.json"
        argv = ["simulate", "--scenario", call.scenario, *call.flags(),
                "--trials", str(call.seeds), "--seed", str(o.seed),
                "--format", "json", "--output", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.main(argv)
        if rc != 0:
            for i, s in enumerate(seeds):
                failed[i].add(library_failure(call.scenario, cfg, s))
            return failed
        trials = json.loads(out.read_text())["trials"]
        out.unlink()
        for i, s in enumerate(seeds):
            try:
                failed[i].update(oracles.check_verify_seed(call.scenario, cfg, s, trials[i]))
            except oracles.SEED_ERRORS as exc:
                failed[i].add(type(exc).__name__)
        return failed


def check_sweeps_rates(main, run_seed: int, workdir: Path, checker: Checker) -> bool:
    """The `sweeps` workload's rate checks, made after its rounds; False if not deterministic.

    One large rate-sweep must write identical bytes with one and with two
    worker processes. Pooled with the run's timed sweeps, it must match the
    quadratures and the crossover window; if not, every pooled block fails.
    """
    import oracles

    seed = call_seed(run_seed, "sweeps", "jobs", 0)
    texts = []
    for jobs in (1, 2):
        out = workdir / f"jobs{jobs}.csv"
        argv = ["rate-sweep", "--snr", SNR_GRID, "--trials", str(DETERMINISM_TRIALS),
                "--jobs", str(jobs), "--seed", str(seed), "--output", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
        texts.append(out.read_text() if rc == 0 and out.exists() else None)
    if texts[0] is None or texts[0] != texts[1]:
        checker.names["determinism.jobs"] += 1
        return False
    names = oracles.check_rate_table(texts[0], SNR_DB)
    if not names:
        names = oracles.check_rate_sweeps([*checker.rate_texts, texts[0]],
                                          [*checker.rate_trials, DETERMINISM_TRIALS], SNR_DB)
    if names:
        checker.fail(checker.rate_ops, names)
    return True


def same_outputs(a, b) -> bool:
    return len(a) == len(b) and all(x.rc == y.rc and x.text == y.text
                                    for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def timed_run(main, args, workdir: Path, checker: Checker) -> dict:
    """End-to-end metrics from whole rounds until the timed calls add up to --seconds.

    Each round's outputs are checked right after it, outside the timed calls,
    and the set-up samples are spread evenly over the rounds; both stretch the
    timed samples over more of the machine's changing load than running them
    back to back would.
    """
    measure_setup()  # the first start also writes the bytecode cache
    setup_times, rounds, timed = [], [], 0.0
    while timed < args.seconds:
        rounds.append(run_round(main, args.workload, args.seed, len(rounds), workdir))
        timed += sum(o.seconds for o in rounds[-1])
        checker.check_round(rounds[-1])
        due = len(setup_times) * args.seconds / SETUP_SAMPLES
        if len(setup_times) < SETUP_SAMPLES and timed >= due:
            setup_times.append(measure_setup())
    while len(setup_times) < SETUP_SAMPLES:
        setup_times.append(measure_setup())
    print(f"rounds: {len(rounds)}", file=sys.stderr)
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
        **throughput_metrics(rounds),
    }


def traced_run(main, args, workdir: Path, checker: Checker) -> tuple[dict, bool]:
    """Per-layer metrics: each round runs untraced, then again on the same seeds traced.

    Pairing the two runs of a round puts both under the same machine load, so
    their difference measures what the spans cost. Untraced call time adds up
    to --seconds/2.
    """
    import spans

    tracer = spans.Tracer()
    traced_main = tracer.wrap(main, "cli.main")
    plain, traced, timed = [], [], 0.0
    while timed < args.seconds / 2:
        label = len(plain)
        plain.append(run_round(main, args.workload, args.seed, label, workdir))
        with spans.instrument(tracer):
            traced.append(run_round(traced_main, args.workload, args.seed, label, workdir))
        checker.check_round(plain[-1])
        timed += sum(o.seconds for o in plain[-1])
    metrics = spans.layer_metrics(tracer, len(plain))
    overhead = sum(o.seconds for r in traced for o in r) - sum(o.seconds for r in plain for o in r)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    ok = same_outputs(plain, traced)
    if not ok:
        checker.names["determinism.traced_outputs"] += 1
    print(f"rounds: {len(plain)}, each untraced and traced\n"
          + spans.span_table(tracer, len(plain)), file=sys.stderr)
    return metrics, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stpnc" / "cli.py").is_file():
        print(f"error: no stpnc sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before numpy loads: one BLAS thread per process
    sys.path.insert(0, str(SRC))
    import stpnc.cli

    main_fn = stpnc.cli.main
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        checker = Checker(main_fn, workdir)
        run_round(main_fn, args.workload, args.seed, "warm-up", workdir)  # discarded
        if args.trace:
            metrics, correct = traced_run(main_fn, args, workdir, checker)
        else:
            metrics, correct = timed_run(main_fn, args, workdir, checker), True
        if args.workload == "sweeps":
            correct &= check_sweeps_rates(main_fn, args.seed, workdir, checker)
    if args.trace:  # the traced runs repeat the same calls: same operations, same failures
        checker.attempted *= 2
        checker.failed *= 2
    for name, n in sorted(checker.names.items()):
        print(f"failed: {name}: {n}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
