"""Byte-identity of the seed-0 exploration stream.

The golden file holds the exact standard output of

    srsq explore --seed 0 --count 100 --full

that is, the full implication audit of the first 100 complexes of the seed-0
stream over the default fields: every verdict, witness and scan size.  Any
change in the stream, in an audit verdict or in a witness shows up here.

Regenerate after a deliberate change in the reports with

    PYTHONPATH=src python tests/test_explore_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from srsq.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden" / "explore_seed0.json"

ARGV = ["explore", "--seed", "0", "--count", "100", "--full"]


def explore_output() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(ARGV)
    assert code == EXIT_OK, code
    return out.getvalue()


def test_explore_stream_matches_golden_bytes():
    got = explore_output()
    golden = GOLDEN.read_text()
    # report by report first, so a failure names the complex that moved
    got_reports = json.loads(got)["reports"]
    golden_reports = json.loads(golden)["reports"]
    assert len(got_reports) == len(golden_reports)
    for i, (a, b) in enumerate(zip(got_reports, golden_reports)):
        assert a == b, f"explore[{i}]"
    assert got == golden


if __name__ == "__main__":
    GOLDEN.write_text(explore_output())
