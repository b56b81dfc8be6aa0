"""The benchmark's four workloads: inputs, the timed operation, and its checks.

Each workload is a fixed pool of complexes.  The run's seed picks LABELINGS
vertex relabelings of every complex, one per pass in turn, so each seed
hands srsq different inputs while the work stays isomorphic: verdicts and
work counts (scan points, generators) do not depend on labels, and
run-to-run spread stays small enough to gate on.  Drawing a fresh random
pool per seed instead moved the time of 100 explore complexes by a quartile
spread of ~27% from seed to seed.  The time of some single complexes still
depends on labels by ~10% (generator and face orders decide where early
exits and minimalisation stop), so passes cycle through several labelings.

One operation is one complex: a fresh SimplicialComplex is built from the
relabeled facets (so cached face lists never carry over between repetitions)
and every verdict is computed through srsq's public API.  The operation
returns label-free verdicts, compared against values pinned from the seed
commit, plus the problems its own cross-checks found.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

PINNED_PATH = Path(__file__).with_name("pinned.json")

LABELINGS = 8
EXPLORE_COUNT = 100  # srsq explore --seed 0 --count 100 --n-max 6
ORACLE_COUNT = 50  # the first complexes of criterion 8's random stream


@dataclass(frozen=True)
class Item:
    """One input: a complex as plain data, so it outlives module reloads."""

    label: str
    n: int
    facets: tuple[int, ...]


class Api:
    """The srsq package an operation calls into.

    Operations build complexes through ``fresh``, an attribute that a traced
    pass replaces with a span around ``new_complex``.
    """

    def __init__(self, srsq: Any):
        self.srsq = srsq
        self.fresh: Callable[[Item], Any] = self.new_complex

    def new_complex(self, item: Item) -> Any:
        return self.srsq.SimplicialComplex(item.n, item.facets)


def relabel(pool: list[tuple[str, Any]], key: str) -> list[Item]:
    """A vertex permutation of each complex in ``pool``, seeded by ``key``."""
    items = []
    for label, delta in pool:
        perm = list(range(1, delta.n + 1))
        random.Random(f"{key}:{label}").shuffle(perm)
        moved = delta.relabel({v: perm[v - 1] for v in range(1, delta.n + 1)})
        items.append(Item(label, moved.n, moved.facets))
    return items


def _by_field(reports: dict, attr: str) -> dict[str, Any]:
    return {f.name: getattr(r, attr) for f, r in reports.items()}


def audit_verdicts(report: Any) -> dict[str, Any]:
    """The label-free verdicts of a paper_audit report."""
    return {
        "dim_ring": report.dim_ring,
        "pure": report.pure,
        "gorenstein": _by_field(report.gorenstein, "is_gorenstein"),
        "locally_gorenstein": _by_field(report.locally_gorenstein, "holds"),
        "depth2": None if report.depth2 is None else report.depth2.holds,
        "s2": None if report.s2 is None else report.s2.holds,
        "sym2_equal": report.sym2.equal,
        "condition3": None if report.condition3 is None else report.condition3.holds,
        "square_depth": _by_field(report.cm_square, "depth"),
        "symbolic_square_depth": _by_field(report.cm_symbolic_square, "depth"),
    }


# -- operations ------------------------------------------------------------------


def explore_op(api: Api, item: Item) -> tuple[dict, list[str]]:
    """The per-complex path of `srsq explore`: audit, then serialise."""
    srsq = api.srsq
    report = srsq.paper_audit(api.fresh(item))
    doc = srsq.jsonio.audit_to_dict(report)
    problems = [f"violation: {v}" for v in report.violations]
    if doc["violations"] != list(report.violations):
        problems.append("serialised violations differ from the report")
    return audit_verdicts(report), problems


def named_op(api: Api, item: Item) -> tuple[dict, list[str]]:
    report = api.srsq.paper_audit(api.fresh(item))
    return audit_verdicts(report), [f"violation: {v}" for v in report.violations]


def oracle_op(api: Api, item: Item) -> tuple[dict, list[str]]:
    """Criterion 8's equivalences, each against an independent route."""
    srsq = api.srsq
    delta = api.fresh(item)
    ideal = srsq.stanley_reisner(delta)
    equal = ideal.power(2) == srsq.symbolic_power(delta, 2)
    checks = {
        "triangle_criterion": srsq.symbolic2_equals_square(ideal).equal == equal,
        "condition3": srsq.condition3_check(delta).holds == equal,
    }
    verdicts: dict[str, Any] = {"sym2_equal": equal}
    for field in srsq.DEFAULT_FIELDS:
        reisner = bool(srsq.is_cohen_macaulay(delta, field))
        takayama = True if ideal.is_zero() else srsq.depth_via_takayama(ideal, field).is_cm
        checks[f"reisner_vs_takayama_{field.name}"] = reisner == takayama
        verdicts[f"cm_{field.name}"] = reisner
    if delta.dim >= 1:
        deep = srsq.symbolic_square_depth_report(delta, srsq.GF2).depth >= 2
        checks["diameter_vs_depth"] = srsq.depth2_criterion(delta).holds == deep
        verdicts["symbolic_square_depth_ge_2"] = deep
    return verdicts, [f"equivalence fails: {k}" for k, ok in checks.items() if not ok]


def link_op(api: Api, item: Item) -> tuple[dict, list[str]]:
    """Reisner and Stanley link loops plus reduced homology, per field."""
    srsq = api.srsq
    delta = api.fresh(item)
    verdicts: dict[str, Any] = {}
    betti = {}
    for field in srsq.DEFAULT_FIELDS:
        betti[field.name] = srsq.reduced_homology(delta, field).betti
        verdicts[field.name] = {
            "cohen_macaulay": bool(srsq.is_cohen_macaulay(delta, field)),
            "gorenstein": bool(srsq.is_gorenstein(delta, field)),
            "locally_gorenstein": bool(srsq.is_locally_gorenstein(delta, field)),
            "betti": list(betti[field.name]),
        }
    problems = []
    if any(b2 < bq for bq, b2 in zip(betti["Q"], betti["F2"])):
        problems.append(f"an F2 Betti number is below its Q counterpart: {betti}")
    return verdicts, problems


# -- input pools -------------------------------------------------------------------


def explore_pool(srsq: Any) -> list[tuple[str, Any]]:
    complexes = srsq.criteria.explore_complexes(0, EXPLORE_COUNT, 6)
    return [(f"explore[{i}]", d) for i, d in enumerate(complexes)]


def named_pool(srsq: Any) -> list[tuple[str, Any]]:
    return srsq.reproduce.named_battery()


def oracle_pool(srsq: Any) -> list[tuple[str, Any]]:
    rng = random.Random(0)
    return [(f"oracle[{i}]", srsq.random_pure_complex(rng, 6 + i % 2))
            for i in range(ORACLE_COUNT)]


def link_pool(srsq: Any) -> list[tuple[str, Any]]:
    return [
        ("cross_polytope_6", srsq.cross_polytope(6)),
        ("disjoint_pentagons_2", srsq.disjoint_pentagons(2)),
        ("cross_polytope_stellar_5", srsq.cross_polytope_stellar(5)),
        ("rp2", srsq.rp2()),
        ("phantom_pentagon_4", srsq.phantom_pentagon(4)),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    pool: Callable[[Any], list[tuple[str, Any]]]
    op: Callable[[Api, Item], tuple[dict, list[str]]]

    def build(self, srsq: Any, seed: int) -> list[list[Item]]:
        """LABELINGS relabeled copies of the pool."""
        pool = self.pool(srsq)
        return [relabel(pool, f"{self.name}:{seed}:{i}") for i in range(LABELINGS)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("explore-audit", explore_pool, explore_op),
        Workload("named-audit", named_pool, named_op),
        Workload("oracle-sweep", oracle_pool, oracle_op),
        Workload("link-criteria", link_pool, link_op),
    )
}


def load_pinned() -> dict[str, dict[str, Any]]:
    """Verdicts per workload and complex label, pinned from the seed commit."""
    with PINNED_PATH.open() as fh:
        return json.load(fh)
