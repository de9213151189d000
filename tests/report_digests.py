"""Print one ``sha256 exit argv`` line per run of the report suite.

The suite is 392 in-process ``cli.run`` runs: the six commands on the six
bundled fixtures and on chain(3,Z2) and chain(2,S3) model files, under both
seed orders, in json and md, at degrees 2 and 3, with ``hokan`` and
``verify`` left out on chain(2,S3) at degree 3 (376 runs); then ``verify``
on fix-a with a base object that has an empty fiber, without and with an
arrow into it, in the same orders, formats and degrees (16 runs). Run it in
two checkouts and diff the outputs to show that a change leaves every
report byte-identical:

    python3 tests/report_digests.py > digests.txt

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
from test_cli import empty_fiber_model  # noqa: E402

COMMANDS = ("validate", "axioms", "classify", "kan", "hokan", "verify")
CHAINS = {"chain3_z2.json": (3, "Z2"), "chain2_s3.json": (2, "S3")}
EMPTY_FIBERS = {"empty_fiber.json": False, "arrow_into_empty_fiber.json": True}


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


def main():
    with tempfile.TemporaryDirectory() as work:
        # model files are named relative to the working directory, so the
        # paths that reports print are the same in every checkout
        os.chdir(work)
        for name, (n, group) in CHAINS.items():
            pathlib.Path(name).write_text(json.dumps(chain_dict(n, group)))
        for name, arrow in EMPTY_FIBERS.items():
            pathlib.Path(name).write_text(json.dumps(empty_fiber_model(arrow)))
        for argv in suite():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.run(argv)
            digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
            print(digest, code, " ".join(argv), flush=True)


if __name__ == "__main__":
    main()
