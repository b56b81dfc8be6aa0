"""Acceptance gate: every battery criterion at its stated runtime limit.

Each test runs one criterion end to end, prints its PASS/FAIL line (visible
with -v plus -s, and in the CLI `reproduce-paper` report), and asserts both
the verdicts and the runtime bound.  Expected values are pinned here; the
independent oracles behind the derived ones live in the unit test modules.
"""

import hashlib
import json

import pytest

from srsq.reproduce import (
    criterion_1_triangle,
    criterion_2_pentagon,
    criterion_3_projective_plane,
    criterion_4_phantom_pentagon,
    criterion_5_four_path,
    criterion_6_cross_stellar,
    criterion_7_disjoint_pentagons,
    criterion_8_oracle_equivalences,
    criterion_9_implication_audits,
    criterion_10_conjecture,
    iter_pure_complexes,
    _pentagon_relabeling,
)
from srsq import cycle_complex, path_complex


def report(result):
    print(result.line())
    failed = {k: v for k, v in result.details["checks"].items() if not v}
    if failed:
        print("  failed checks:", sorted(failed))
        print("  details:", json.dumps(result.details, default=str)[:2000])
    return result


def test_criterion_01_triangle_bit_exact_under_1ms():
    r = report(criterion_1_triangle())
    assert r.details["checks"]["symbolic_square_equals_square_plus_cubic"]
    assert r.details["checks"]["symbolic_square_differs_from_square"]
    assert r.details["best_compute_seconds"] < 1e-3
    assert r.passed


def test_criterion_02_pentagon_under_1s():
    r = report(criterion_2_pentagon())
    assert r.passed and r.elapsed < 1.0


def test_criterion_03_projective_plane_under_2min():
    r = report(criterion_3_projective_plane())
    assert r.passed and r.elapsed < 120.0


def test_criterion_04_phantom_pentagon_under_2min():
    r = report(criterion_4_phantom_pentagon())
    assert r.passed and r.elapsed < 120.0


def test_criterion_05_four_path_under_10s():
    r = report(criterion_5_four_path())
    assert r.passed and r.elapsed < 10.0


def test_criterion_06_cross_stellar_under_10min():
    r = report(criterion_6_cross_stellar())
    assert r.passed and r.elapsed < 600.0


def test_criterion_07_disjoint_pentagons_by_join_factors():
    r = report(criterion_7_disjoint_pentagons())
    assert r.details["checks"]["whole_join_scan_agrees_Q"]
    assert r.details["checks"]["whole_join_scan_agrees_F2"]
    assert r.details["depth"] == {"Q": 4, "F2": 4}
    assert r.details["factor_depths"] == {"Q": [[2, 2], [2, 2]], "F2": [[2, 2], [2, 2]]}
    assert r.details["scan_size"] == 23104
    assert r.passed


@pytest.mark.parametrize("criterion, count", [
    (criterion_2_pentagon, 1),
    (criterion_5_four_path, 1),
    (criterion_6_cross_stellar, 1),
    # S/I and the square of each pentagon, and the facet-form scan of the whole join
    (criterion_7_disjoint_pentagons, 5),
])
def test_cm_square_criteria_scan_each_join_factor_once(criterion, count, scans):
    assert criterion().passed
    assert len(scans) == count


def test_criterion_08_oracle_equivalences_under_30min():
    r = report(criterion_8_oracle_equivalences())
    assert r.details["exhaustive_complexes"] == 1817
    assert r.details["random_complexes"] == 200
    assert r.details["failures"] == []
    assert r.passed and r.elapsed < 1800.0


def test_criterion_08_enumerates_the_pure_complexes_in_a_fixed_order():
    # Pinned from the enumeration before it became one comprehension over the
    # set bits of each selection; tests/test_takayama.py keeps the first
    # complex of each relabeling class, so the order matters as well.
    digest = hashlib.sha256()
    count = 0
    for delta in iter_pure_complexes():
        count += 1
        digest.update(repr((delta.n, delta.facet_tuples())).encode())
    assert count == 1817
    assert digest.hexdigest() == (
        "6156c8035914da54389069fec8d189dd9c51b2662dfbd8112792901388d1d5a8"
    )


def test_criterion_09_implication_audits_clean():
    r = report(criterion_9_implication_audits())
    assert r.details["violations"] == []
    assert r.passed


def test_criterion_10_conjecture_recorded():
    r = report(criterion_10_conjecture())
    assert r.passed
    assert "n = 2, 3 and 4 recorded" in r.title
    for n in (2, 3, 4):
        recorded = r.details[f"n{n}_recorded_verdicts"]
        assert set(recorded) == {"Q", "F2"}
        for verdict in recorded.values():
            assert {"cm", "depth", "dim"} <= set(verdict)
    # the square of conjecture_complex(4) is CM over both fields, depth 5 = dim 5
    assert r.details["n4_recorded_verdicts"] == {
        f: {"cm": True, "depth": 5, "dim": 5} for f in ("Q", "F2")}


def test_the_pentagon_relabeling_refuses_a_hexagon_and_a_path():
    # criterion 3's link check: a wrong vertex count, then five vertices
    # that no relabeling turns into the pentagon
    assert _pentagon_relabeling(cycle_complex(6)) is None
    assert _pentagon_relabeling(path_complex(5)) is None
