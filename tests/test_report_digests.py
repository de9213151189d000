"""The report suite's digests, pinned: every report stays byte-identical."""

import itertools
import pathlib

import report_digests

RECORDED = pathlib.Path(__file__).resolve().parent / "report_digests.txt"


def test_reports_match_the_recorded_digests():
    # each line is "sha256 exit counts argv" in suite order; a change that
    # means to move a report records the file again (see report_digests.py)
    want = RECORDED.read_text().splitlines()
    differ = [(got, recorded) for got, recorded in itertools.zip_longest(
        report_digests.lines(), want) if got != recorded]
    assert not differ, (
        f"{len(differ)} of {len(want)} recorded runs differ; the first:\n"
        f"  now:      {differ[0][0]}\n  recorded: {differ[0][1]}")
