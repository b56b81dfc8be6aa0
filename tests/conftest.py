import sys
from pathlib import Path

import pytest

from srsq import takayama

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def scans(monkeypatch):
    """One entry per Takayama scan started (a call of takayama._scan_points)."""
    calls = []
    scan_points = takayama._scan_points

    def counted(*args):
        calls.append(args)
        return scan_points(*args)

    monkeypatch.setattr(takayama, "_scan_points", counted)
    return calls
