"""Byte-identity of the check reports on the paper's worked examples.

For each complex of ``reproduce.named_battery()`` the golden file pins the
exact JSON that ``srsq check`` prints: the implication audit over the default
fields, and the Reisner, Stanley, local Gorenstein and homology checks over
Q, F2 and F3.  The witnesses in these reports are the first failing face and
degree, so any reordering of the link walks shows up here.

Regenerate after a deliberate change in the reports with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from srsq import jsonio
from srsq.cli import EXIT_OK, main
from srsq.reproduce import named_battery

GOLDEN = Path(__file__).parent / "golden" / "named_checks.json"

CHECKS = {
    "audit": ["check", "audit"],
    "cm": ["check", "cm", "--fields", "Q,F2,F3"],
    "gorenstein": ["check", "gorenstein", "--fields", "Q,F2,F3"],
    "locally-gorenstein": ["check", "locally-gorenstein", "--fields", "Q,F2,F3"],
    "homology": ["check", "homology", "--fields", "Q,F2,F3"],
}


def check_outputs(delta, workdir: Path) -> dict[str, str]:
    """The standard output of every pinned check on one complex."""
    path = workdir / "complex.json"
    path.write_text(json.dumps(jsonio.complex_to_dict(delta)))
    outputs = {}
    for name, argv in CHECKS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv + ["--in", str(path)])
        assert code == EXIT_OK, (name, code)
        outputs[name] = out.getvalue()
    return outputs


@pytest.mark.parametrize("name,delta", named_battery(), ids=[n for n, _ in named_battery()])
def test_check_reports_match_golden_bytes(name, delta, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert check_outputs(delta, tmp_path) == golden[name]


def test_golden_file_covers_the_named_battery():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(name for name, _ in named_battery())
    assert all(sorted(checks) == sorted(CHECKS) for checks in golden.values())


def write_golden() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        doc = {name: check_outputs(delta, Path(tmp)) for name, delta in named_battery()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


if __name__ == "__main__":
    write_golden()
