"""Verdict benchmark for srsq: one workload per run, or all four in turn.

    python3 perfbench/run.py --workload explore-audit --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; srsq is imported from ./src.  A run
sets up ``SETUP_REPEATS`` times (import srsq, build the seeded inputs), then
measures for about ``--seconds``: one discarded warm-up pass over the
workload, then timed passes while another fits, at least ``MIN_TIMED_PASSES``.
The loop is closed: one process, one complex at a time.

With ``--trace 0`` it reports the end-to-end metrics: median set-up time,
median pass time (the sum of its operations' times), per-complex latency
percentiles (interpolated over every complex of every timed pass), and peak
resident memory.  These times are scaled to a reference host speed by a probe
timed every 0.1 s during the run (see probe.py).  With ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer split of the
traced passes (unscaled means per pass, so self times add up to the traced
pass time) and the tracing overhead.  Every operation's verdicts are checked;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (failed_ratio = failed / attempted) and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
from probe import Sampler  # noqa: E402
from tracer import ACCOUNTING_TOLERANCE, Tracer  # noqa: E402
from workloads import WORKLOADS, Api, Item, load_pinned  # noqa: E402

SETUP_REPEATS = 11
MIN_TIMED_PASSES = 2
EXIT_NO_SOURCE = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def import_srsq() -> Any:
    """A fresh import of srsq from this checkout's source tree."""
    for name in [m for m in sys.modules if m == "srsq" or m.startswith("srsq.")]:
        del sys.modules[name]
    srsq = importlib.import_module("srsq")
    if Path(srsq.__file__).resolve().parent != SRC / "srsq":
        raise ImportError(f"srsq was imported from {srsq.__file__}, not from {SRC}")
    importlib.import_module("srsq.jsonio")
    importlib.import_module("srsq.reproduce")
    return srsq


class Run:
    """One workload's passes, with every operation's outcome checked."""

    def __init__(self, workload_name: str, labelings: list[list[Item]], api: Api, pinned: dict):
        self.workload = WORKLOADS[workload_name]
        self.labelings = labelings
        self.passes = 0
        self.api = api
        self.pinned = pinned
        self.attempted = 0
        self.problems: list[str] = []

    def run_pass(self, op=None, labeling: int | None = None) -> list[tuple[float, float]]:
        """Start and end clock readings of each operation, over the given
        labeling of the pool or else the next one in turn."""
        op = op or self.workload.op
        clock = time.perf_counter
        spans: list[tuple[float, float]] = []
        if labeling is None:
            labeling = self.passes % len(self.labelings)
            self.passes += 1
        for item in self.labelings[labeling]:
            start = clock()
            try:
                verdicts, problems = op(self.api, item)
            except Exception:
                verdicts, problems = None, [traceback.format_exc()]
            spans.append((start, clock()))
            if verdicts is not None and json.loads(json.dumps(verdicts)) != self.pinned.get(item.label):
                problems.append(f"verdicts {verdicts} differ from the pinned ones")
            self.attempted += 1
            if problems:
                self.problems.append(f"{item.label}: " + "; ".join(problems))
        return spans

    @property
    def failed(self) -> int:
        return len(self.problems)


def fits(start: float, seconds: int, pass_time: float) -> bool:
    return time.perf_counter() - start + pass_time <= seconds


def busy_s(spans: list[tuple[float, float]]) -> float:
    return sum(end - start for start, end in spans)


def measure(run: Run, seconds: int) -> tuple[dict[str, float], list[str]]:
    start = time.perf_counter()
    run.run_pass()  # warm-up, discarded
    passes: list[list[tuple[float, float]]] = []
    with Sampler() as sampler:
        while len(passes) < MIN_TIMED_PASSES or fits(
                start, seconds, statistics.median(map(busy_s, passes))):
            passes.append(run.run_pass())
    scaled = [[sampler.scaled(*span) for span in spans] for spans in passes]
    latencies = [t for times in scaled for t in times]
    # Interpolated, not nearest rank: oracle-sweep's complexes alternate
    # between n = 6 and n = 7, so its median falls in the gap between the two
    # groups, where a nearest-rank p50 jumps from one side to the other.
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    notes = [f"{len(passes)} timed passes of {len(run.labelings[0])} complexes after one warm-up pass",
             f"latency percentiles over {len(latencies)} samples (linear interpolation)",
             f"unscaled median pass time {statistics.median(map(busy_s, passes)):.4f} s, "
             f"median probe {1000 * statistics.median(sampler.durations):.3f} ms"]
    return {
        "wall_s": statistics.median(map(sum, scaled)),
        "latency_p50_ms": 1000 * cuts[49],
        "latency_p90_ms": 1000 * cuts[89],
    }, notes


def measure_traced(run: Run, seconds: int) -> tuple[dict[str, float], list[str], list[str]]:
    """Alternate untraced and traced passes over the first labeling, whose
    work counts then repeat exactly; per-layer means per traced pass."""
    tracer = Tracer()
    traced_op = tracer.wrap("bench.op", run.workload.op)
    start = time.perf_counter()
    run.run_pass(labeling=0)  # warm-up, discarded
    untraced: list[float] = []
    per_pass: list[dict[str, float]] = []
    counts: list[dict[str, float]] = []
    errors: list[str] = []
    table: list[str] = []
    while not per_pass or fits(start, seconds, untraced[-1] + per_pass[-1]["trace.wall_s"]):
        untraced.append(busy_s(run.run_pass(labeling=0)))
        tracer.reset()
        tracer.install()
        run.api.fresh = tracer.wrap("complexes.SimplicialComplex", run.api.new_complex)
        try:
            wall = busy_s(run.run_pass(op=traced_op, labeling=0))
        finally:
            tracer.uninstall()
            run.api.fresh = run.api.new_complex
        metrics = tracer.metrics()
        metrics["trace.wall_s"] = wall
        metrics["trace.unaccounted_s"] = wall - tracer.total_self()
        if abs(metrics["trace.unaccounted_s"]) > ACCOUNTING_TOLERANCE * wall:
            errors.append(f"self times leave {metrics['trace.unaccounted_s']:.4f} s of a "
                          f"{wall:.4f} s traced pass unaccounted")
        per_pass.append(metrics)
        counts.append({k: v for k, v in metrics.items() if not k.endswith("_s")})
        table = tracer.table()
    if any(c != counts[0] for c in counts):
        errors.append("work counts differ between traced passes")
    out = {k: statistics.fmean(p[k] for p in per_pass) if k.endswith("_s") else v
           for k, v in per_pass[0].items()}
    out["trace.untraced_wall_s"] = statistics.fmean(untraced)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    notes = [f"{len(per_pass)} traced and {len(untraced)} untraced passes after one warm-up pass"]
    return out, notes + table, errors


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name == "takayama.evals_per_point":
        return "evals/point"
    return "count"


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    setups = []
    with Sampler() as sampler:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            srsq = import_srsq()
            labelings = WORKLOADS[workload].build(srsq, seed)
            setups.append((start, time.perf_counter()))
    run = Run(workload, labelings, Api(srsq), load_pinned()[workload])
    errors: list[str] = []
    if trace:
        values, notes, errors = measure_traced(run, seconds)
    else:
        values, notes = measure(run, seconds)
        values["setup_s"] = statistics.median(sampler.scaled(*span) for span in setups)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        notes.append(f"setup_s is the median of {SETUP_REPEATS} set-ups")
    for line in notes:
        print(f"# {workload}: {line}")
    for problem in run.problems[:5] + errors:
        print(f"FAILED {workload}: {problem}", file=sys.stderr)
    failed = run.failed
    print(f"# {workload}: failed_ratio = {failed}/{run.attempted} = {failed / run.attempted:.4f}")
    metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(values.items())}
    for k, m in metrics.items():
        value = f"{m['value']:.6f}" if isinstance(m["value"], float) else m["value"]
        print(f"{workload:14s} {k:32s} {value:>16} {m['unit']}")
    return {"correct": failed == 0 and not errors, "attempted": run.attempted,
            "failed": failed, "metrics": metrics}


def run_all(seed: int, seconds: int, trace: int) -> dict:
    """Each workload in its own process, so peak_rss_mb is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"{workload} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{k}"] = m
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "srsq" / "__init__.py").is_file():
        print(f"no srsq source tree at {SRC}", file=sys.stderr)
        return EXIT_NO_SOURCE
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
