"""The package metadata matches what the code needs."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_numpy_floor_has_matvec():
    # protocol calls np.matvec, which NumPy added in 2.2
    text = (ROOT / "pyproject.toml").read_text()
    found = re.search(r'^dependencies = \[.*"numpy>=(\d+)\.(\d+)', text, re.MULTILINE)
    assert found, "no numpy floor in the dependencies line"
    assert (int(found[1]), int(found[2])) >= (2, 2)
