"""The package metadata matches what the code needs."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_numpy_floor_has_matvec():
    # protocol calls np.matvec, which NumPy added in 2.2
    text = (ROOT / "pyproject.toml").read_text()
    found = re.search(r'^dependencies = \[.*"numpy>=(\d+)\.(\d+)', text, re.MULTILINE)
    assert found, "no numpy floor in the dependencies line"
    assert (int(found[1]), int(found[2])) >= (2, 2)


def test_cli_import_leaves_numpy_random_unloaded():
    # loading numpy.random costs about 17 ms per start; the seeding helpers load it on use
    code = "import sys, stpnc.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "src", capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
