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
