"""Print one ``sha256 exit counts argv`` line per run of the report suite.

The suite is 416 in-process ``cli.run`` runs: the six commands on the six
bundled fixtures and on chain(3,Z2) and chain(2,S3) model files, under both
seed orders, in json and md, at degrees 2 and 3, with ``hokan`` and
``verify`` left out on chain(2,S3) at degree 3 (376 runs); then ``verify``
on fix-a with a base object that has an empty fiber, without and with an
arrow into it, in the same orders, formats and degrees (16 runs); then
``hokan`` and ``verify`` on a model whose map over its Cauchy arrow is not
invertible, in the same orders, formats and degrees (16 runs); then the six
commands on fix-b with their options before the command, ``verify`` on
chain(3,Z2) with its options between the command and the model file, and
``verify`` on fix-bprime with its two expected names given to two
``--expect`` flags (8 runs). counts gives the number of checks of each
status in the report, as ``pass:N,fail:N,violation:N,blocked:N``, or ``-``
for a report of model errors, so that a diff names the findings that moved.

``tests/report_digests.txt`` holds the suite's output, and
``tests/test_report_digests.py`` compares a fresh run with it. A change
that means to move a report records the file again and names each run it
moved:

    python3 tests/report_digests.py > tests/report_digests.txt

The library, ``bench/chainmodel.py`` and ``tests/test_cli.py`` are read from
the checkout that holds this script. pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile
import types

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from fibkan import cli  # noqa: E402
from fibkan.fixtures import fixture_names  # noqa: E402
from test_cli import empty_fiber_model, timeslice_failure_model  # noqa: E402

COMMANDS = ("validate", "axioms", "classify", "kan", "hokan", "verify")
CHAINS = {"chain3_z2.json": (3, "Z2"), "chain2_s3.json": (2, "S3")}
EMPTY_FIBERS = {"empty_fiber.json": False, "arrow_into_empty_fiber.json": True}
TIMESLICE_FAILURE = "timeslice_failure.json"


def chain_dict(n, group):
    path = ROOT / "bench" / "chainmodel.py"
    module = types.ModuleType("chainmodel")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module.chain_dict(n, group)


def suite():
    models = [("--fixture", name) for name in fixture_names()]
    models += [(name,) for name in CHAINS]
    for command in COMMANDS:
        for model in models:
            for order in ("normal", "reversed"):
                for fmt in ("json", "md"):
                    for degree in (2, 3):
                        if (model == ("chain2_s3.json",) and degree == 3
                                and command in ("hokan", "verify")):
                            continue
                        yield [command, *model, "--seed-order", order,
                               "--format", fmt, "--max-degree", str(degree)]
    for name in EMPTY_FIBERS:
        for order in ("normal", "reversed"):
            for fmt in ("json", "md"):
                for degree in (2, 3):
                    yield ["verify", name, "--seed-order", order,
                           "--format", fmt, "--max-degree", str(degree)]
    for command in ("hokan", "verify"):
        for order in ("normal", "reversed"):
            for fmt in ("json", "md"):
                for degree in (2, 3):
                    yield [command, TIMESLICE_FAILURE, "--seed-order", order,
                           "--format", fmt, "--max-degree", str(degree)]
    for command in COMMANDS:
        yield ["--seed-order", "reversed", "--format", "md", "--max-degree",
               "2", command, "--fixture", "fix-b"]
    yield ["verify", "--max-degree", "2", "--format", "md", "chain3_z2.json"]
    yield ["verify", "--fixture", "fix-bprime", "--max-degree", "2",
           "--expect", "qft-causality", "--expect", "product-reversal-causality"]


def status_counts(report):
    """The checks of each status in a rendered report, or "-" for a report
    of model errors. A JSON report (which every report of model errors is)
    starts with "{", a markdown report with its title."""
    if report.startswith("{"):
        statuses = [c["status"] for c in json.loads(report).get("checks", ())]
    else:
        table = report.split("| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
        statuses = [row.strip("| ").split(" | ")[1]
                    for row in table.splitlines()]
    if not statuses:
        return "-"
    return ",".join(f"{status}:{statuses.count(status)}"
                    for status in ("pass", "fail", "violation", "blocked"))


def lines():
    """The suite's output lines, run in a scratch working directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        # model files are named relative to the working directory, so the
        # paths that reports print are the same in every checkout
        os.chdir(work)
        try:
            for name, (n, group) in CHAINS.items():
                pathlib.Path(name).write_text(json.dumps(chain_dict(n, group)))
            for name, arrow in EMPTY_FIBERS.items():
                pathlib.Path(name).write_text(
                    json.dumps(empty_fiber_model(arrow)))
            pathlib.Path(TIMESLICE_FAILURE).write_text(
                json.dumps(timeslice_failure_model()))
            for argv in suite():
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.run(argv)
                report = out.getvalue()
                digest = hashlib.sha256(report.encode()).hexdigest()
                yield f"{digest} {code} {status_counts(report)} {' '.join(argv)}"
        finally:
            os.chdir(cwd)


def main():
    for line in lines():
        print(line, flush=True)


if __name__ == "__main__":
    main()
