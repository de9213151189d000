"""Record the exit code and report digest of every CLI item into
expected.json, the reference the correctness gate compares against.

Usage (from the root of a checkout): python3 bench/record_expected.py

Run it only on a commit whose reports are known to be right; the reports do
not depend on the seed, so seed 0 stands for all.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import SRC, WORK
from workloads import EXPECTED_PATH, WORKLOADS, run_cli


def main():
    sys.path.insert(0, str(SRC))
    workdir = WORK / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    expected = {}
    try:
        for name in ("fixtures-verify", "chain-strict"):
            spec = WORKLOADS[name].prepare(0, workdir)
            expected[name] = {label: list(run_cli(argv))
                              for label, argv in spec["argv"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
