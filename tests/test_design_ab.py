"""tools/design_ab.py runs end to end: this checkout against itself, on twic."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_design_ab_prints_one_row_per_relay_set():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "design_ab.py"), "--parent", str(ROOT),
                          "--sets", "twic", "--rounds", "2"], capture_output=True, text=True, check=True).stdout
    header, rule, row = out.splitlines()
    assert header.startswith("| relay set (seeds) | parent ms | this ms |") and rule.startswith("|---")
    # the same tree twice: the same bank, bit for bit
    assert re.fullmatch(r"\| twic \(20\) \| [\d.]+ \| [\d.]+ \| [\d.]+ \| 0\.0e\+00 \|", row), row


def test_design_ab_rejects_an_unknown_relay_set():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "design_ab.py"), "--parent", str(ROOT),
                           "--sets", "nope"], capture_output=True, text=True)
    assert done.returncode == 2 and "unknown relay sets ['nope']" in done.stderr


def test_design_ab_times_the_benchmark_verify_calls():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "design_ab.py"), "--parent", str(ROOT),
                          "--verify", "--rounds", "2"], capture_output=True, text=True, check=True).stdout
    header, rule, *rows = out.splitlines()
    assert header.startswith("| verify call (seeds) | parent best / median ms |") and rule.startswith("|---")
    # the benchmark's five verify calls, in WORKLOADS order; the same tree twice gives the same bytes
    assert [row.split(" | ")[0] for row in rows] == [
        "| twic (20)", "| twxc (12)", "| case1-6-21x1 (1)", "| case2-6-16x1 (1)", "| case2-4-2 (5)"]
    for row in rows:
        assert re.fullmatch(r"\| [\w-]+ \(\d+\) \| [\d.]+ / [\d.]+ \| [\d.]+ / [\d.]+ \| [\d.]+ \| yes \|", row), row
