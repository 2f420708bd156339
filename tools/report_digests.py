#!/usr/bin/env python3
"""Print the sha256 of every report each subcommand writes with its defaults,
and with an inverted weight.

Every subcommand of ``nlhomog`` runs once, in-process and with its default
config, in its own directory under a temporary directory; ``energy``, which
has no default input, reads the fixed step function u = 1 on [1/2, 1), 0
before. The subcommands that read only the lambda weight (``INVERTED``) run
once more with ``--alpha 2 --beta 1``, the inverted weight, whose short range
is the expensive one. One line per JSON or CSV file written:

    <sha256>  <subcommand>/<file>
    <sha256>  <subcommand>@a2b1/<file>

Two checkouts give the same lines exactly when these reports are
byte-identical. Run from the root of a checkout (no install needed):

    python3 tools/report_digests.py

``tools/report_digests.txt`` pins the lines, and
``tests/test_report_digests.py`` compares this script's output with it; a
change that alters one of these reports regenerates the file with

    python3 tools/report_digests.py > tools/report_digests.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nlhomog import StepFunction, cli  # noqa: E402


# the subcommands whose weight is the lambda weight and that need no input file
INVERTED = ("gamma-table", "cell-solve", "cell-verify", "gamma-limit", "non-rep", "fm-threshold")
INVERTED_FLAGS = ["--alpha", "2", "--beta", "1"]


def main() -> int:
    cwd = os.getcwd()
    runs = [(command, [command]) for command in cli.COMMANDS]
    runs += [(f"{command}@a2b1", [command] + INVERTED_FLAGS) for command in INVERTED]
    with tempfile.TemporaryDirectory() as tmp:
        for label, argv in runs:
            command = argv[0]
            rundir = Path(tmp) / label
            rundir.mkdir()
            if command == "energy":
                u = StepFunction([0.0, 0.5], [0.0, 1.0])
                (rundir / "u.json").write_text(json.dumps(u.to_json()))
                argv += ["--u", "u.json"]
            os.chdir(rundir)
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.dispatch(argv)
            finally:
                os.chdir(cwd)
            for path in sorted(rundir.iterdir()):
                if path.suffix in (".json", ".csv") and path.name != "u.json":
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    print(f"{digest}  {label}/{path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
