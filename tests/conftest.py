import sys
from pathlib import Path

import pytest

from srsq import takayama

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def scans(monkeypatch):
    """The complex of each Takayama scan started, in either form: one entry
    per call of takayama._scan_reports, the loop both forms share."""
    calls = []
    scan_reports = takayama._scan_reports

    def counted(delta, *args):
        calls.append(delta)
        return scan_reports(delta, *args)

    monkeypatch.setattr(takayama, "_scan_reports", counted)
    return calls
