"""The benchmark's own tests: trace accounting, count repeatability, relabeling
invariance, the failure count, probe scaling and refusal to run without the
source tree.

    python3 -m pytest perfbench -q

They run each workload on a few of its cheaper complexes, so they take
seconds, not the minutes of a benchmark run.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import probe
import run
from tracer import ACCOUNTING_TOLERANCE, Tracer
from workloads import WORKLOADS, Api, load_pinned

sys.path.insert(0, str(run.SRC))

# Labels kept per workload: cheap, but every layer the workload uses shows.
SUBSETS = {
    "explore-audit": {f"explore[{i}]" for i in range(6)},
    "named-audit": {"triangle_complex", "pentagon", "four_path", "cross_polytope_2",
                    "conjecture_1", "phantom_pentagon_2"},
    "oracle-sweep": {"oracle[0]", "oracle[1]", "oracle[2]"},
    "link-criteria": {"disjoint_pentagons_2", "rp2", "phantom_pentagon_4"},
}


def small_run(workload: str, seed: int) -> run.Run:
    srsq = run.import_srsq()
    labelings = [[i for i in items if i.label in SUBSETS[workload]]
                 for items in WORKLOADS[workload].build(srsq, seed)]
    assert all(len(items) == len(SUBSETS[workload]) for items in labelings)
    return run.Run(workload, labelings, Api(srsq), load_pinned()[workload])


def counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_self_times_sum_to_traced_wall_and_counts_repeat(workload):
    first, _, errors1 = run.measure_traced(small_run(workload, 1), seconds=1)
    second, _, errors2 = run.measure_traced(small_run(workload, 1), seconds=1)
    assert errors1 == errors2 == []
    for m in (first, second):
        parts = sum(v for k, v in m.items() if k.split(".")[0] in
                    {"ideals", "takayama", "homology", "complexes", "criteria", "jsonio",
                     "bits", "bench"} and k.endswith(".self_s"))
        assert abs(parts - m["trace.wall_s"]) <= ACCOUNTING_TOLERANCE * m["trace.wall_s"]
    assert counts(first) == counts(second)


@pytest.mark.parametrize("workload", ["explore-audit", "named-audit", "oracle-sweep"])
def test_verdicts_and_work_counts_do_not_depend_on_labels(workload):
    results = []
    for seed in (1, 2):
        r = small_run(workload, seed)
        metrics, _, errors = run.measure_traced(r, seconds=1)
        assert errors == [] and r.problems == []
        results.append(metrics)
    for key in ("takayama.scan_points", "ideals.gens_out", "takayama.scan_calls"):
        assert results[0][key] == results[1][key] > 0


def test_link_criteria_does_no_ideal_or_scan_work():
    metrics, _, errors = run.measure_traced(small_run("link-criteria", 3), seconds=1)
    assert errors == []
    assert metrics["ideals.self_s"] == metrics["takayama.self_s"] == 0
    assert metrics["homology.rank_Q_calls"] > 0 and metrics["homology.rank_F2_calls"] > 0


def test_reported_metrics_are_the_ones_benchmark_json_declares():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    traced, _, _ = run.measure_traced(small_run("link-criteria", 1), seconds=1)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: run.unit_of(k) for k in traced} == declared
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: run.unit_of(k) for k in run.END_TO_END_UNITS} == declared
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_a_wrong_verdict_counts_as_failed():
    r = small_run("link-criteria", 1)
    r.pinned = {**r.pinned, "rp2": {}}
    r.run_pass()
    assert r.failed == 1 and r.attempted == len(SUBSETS["link-criteria"])


def test_scaling_takes_out_probe_runs_and_divides_by_nearby_probe_times():
    ref = probe.REFERENCE_S
    sampler = probe.Sampler()
    sampler.stamps, sampler.durations = [0.0, 1.0, 2.0], [ref, ref, 2 * ref]
    assert sampler.scaled(0.5, 0.6) == pytest.approx(0.1)  # nearest probe only
    assert sampler.scaled(1.9, 2.1) == pytest.approx((0.2 - 2 * ref) / 2)
    assert sampler.scaled(0.9, 2.1) == pytest.approx((1.2 - 3 * ref) / 1.5)


def test_sampler_probes_while_active_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with probe.Sampler() as sampler:
        deadline = time.perf_counter() + 0.35
        while time.perf_counter() < deadline:
            pass
    assert len(sampler.stamps) >= 3
    assert signal.getsignal(signal.SIGALRM) == before


def test_tracer_restores_every_patched_name():
    srsq = run.import_srsq()
    before = (srsq.paper_audit, srsq.takayama.profile_from_faces,
              srsq.SimplicialComplex.link, srsq.homology.matrix_rank)
    tracer = Tracer()
    tracer.install()
    assert srsq.paper_audit is not before[0]
    assert srsq.takayama.profile_from_faces is srsq.homology.profile_from_faces
    tracer.uninstall()
    assert (srsq.paper_audit, srsq.takayama.profile_from_faces,
            srsq.SimplicialComplex.link, srsq.homology.matrix_rank) == before


def test_refuses_to_run_without_the_source_tree(tmp_path: Path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "link-criteria",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
