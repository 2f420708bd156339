"""Every pinned report stays byte-identical unless a change says otherwise.

``tools/report_digests.py`` prints the sha256 of each report that every
subcommand writes with its defaults, and that the lambda-weight subcommands
write with the inverted weight ``--alpha 2 --beta 1``;
``tools/report_digests.txt`` holds the lines of the last accepted change.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.skipif(
    np.finfo(np.longdouble).nmant != 63,
    reason="the pins were made with the x87 80-bit long double, and the circle sum's "
    "long-double prefix sums set the last bits of the reports",
)
def test_default_report_digests_are_pinned():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "report_digests.py")],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    pinned = (ROOT / "tools" / "report_digests.txt").read_text()
    assert out == pinned, (
        "a default report changed: if the change is intended, regenerate the pins with "
        "`python3 tools/report_digests.py > tools/report_digests.txt` and name the changed "
        "report in CHANGES.md"
    )
