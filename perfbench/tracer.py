"""Span tracer for the benchmark's traced runs.

It wraps srsq's public functions at layer boundaries from outside the
package: every module-level name and class attribute that refers to a wrapped
function is replaced for the duration of a traced pass, then restored.  Spans
are aggregated as they close, per (parent span, span) edge, into call counts
and self time (duration minus the time covered by direct child spans), so
a pass of a few hundred thousand spans keeps a few dozen numbers in memory.

bits' per-face kernels (pack, unpack, submasks, ...) are not wrapped: each
call does less work than a span costs.  Their time is self time of the
calling span.  Only bits.minimal_transversals is called per ideal or complex,
so it gets a span.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Any, Callable

LAYERS = ("ideals", "takayama", "homology", "complexes", "criteria", "jsonio", "bits")

# (module, attribute) pairs; the span name is "<module>.<attribute>".
SPANS = (
    ("ideals", "stanley_reisner"),
    ("ideals", "symbolic_power"),
    ("ideals", "MonomialIdeal.power"),
    ("ideals", "symbolic2_equals_square"),
    ("ideals", "complex_of_ideal"),
    ("takayama", "depth_via_takayama"),
    ("takayama", "square_depth_report"),
    ("takayama", "symbolic_square_depth_report"),
    ("homology", "profile_from_faces"),
    ("homology", "matrix_rank"),
    ("homology", "reduced_homology"),
    ("homology", "is_cohen_macaulay"),
    ("homology", "is_gorenstein"),
    ("homology", "is_locally_gorenstein"),
    ("complexes", "SimplicialComplex.link"),
    ("complexes", "SimplicialComplex.core"),
    ("complexes", "SimplicialComplex.one_skeleton"),
    ("complexes", "SimplicialComplex.minimal_nonfaces"),
    ("complexes", "Graph.diameter"),
    ("criteria", "paper_audit"),
    ("criteria", "depth2_criterion"),
    ("criteria", "s2_criterion"),
    ("criteria", "condition3_check"),
    ("jsonio", "audit_to_dict"),
    ("bits", "minimal_transversals"),
)

RANK = "homology.matrix_rank"
LINK_CRITERIA = (
    "homology.is_cohen_macaulay",
    "homology.is_gorenstein",
    "homology.is_locally_gorenstein",
)

# Self times sum to the traced pass's wall time up to the loop between
# operations; the benchmark refuses a traced pass that leaves more than
# this share of its wall time unaccounted.
ACCOUNTING_TOLERANCE = 0.01


def _rank_span(args: tuple, kwargs: dict) -> str:
    field = kwargs["field"] if "field" in kwargs else args[1]
    return f"{RANK}[{field.name}]"


def _scan_points(tracer: "Tracer", report: Any) -> None:
    tracer.counts["takayama.scan_points"] += report.scan_size


def _gens_out(tracer: "Tracer", ideal: Any) -> None:
    tracer.counts["ideals.gens_out"] += len(ideal.gens)


def _violations(tracer: "Tracer", report: Any) -> None:
    tracer.counts["criteria.violations"] += len(report.violations)


OBSERVERS: dict[str, Callable[["Tracer", Any], None]] = {
    "takayama.depth_via_takayama": _scan_points,
    "ideals.symbolic_power": _gens_out,
    "ideals.MonomialIdeal.power": _gens_out,
    "criteria.paper_audit": _violations,
}


class Tracer:
    """Aggregated spans of srsq calls; install() patches, uninstall() restores.

    ``self_s`` and ``calls`` are keyed by (parent span name or None, span
    name); ``counts`` holds the work counters the observers read off return
    values, and "<span>!<exception type>" for each exception a span raised.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()

    def wrap(self, name: str, fn: Callable, namer: Callable | None = None) -> Callable:
        """``fn`` recording one span per call; ``namer(args, kwargs)`` may
        refine the span name per call."""
        observe = OBSERVERS.get(name)
        clock = self.clock
        stack = self._stack
        self_s, calls = self.self_s, self.calls

        def traced(*args, **kwargs):
            span = namer(args, kwargs) if namer else name
            parent = stack[-1] if stack else None
            frame = [span, 0.0]  # name, time covered by child spans
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{span}!{type(exc).__name__}"] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                if parent is not None:
                    parent[1] += elapsed
                edge = (parent[0] if parent is not None else None, span)
                self_s[edge] += elapsed - frame[1]
                calls[edge] += 1
            if observe is not None:
                observe(self, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every function in SPANS wherever the loaded srsq modules
        refer to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sys.modules.items() if k == "srsq" or k.startswith("srsq.")]
        for module_name, attr in SPANS:
            module = sys.modules[f"srsq.{module_name}"]
            name = f"{module_name}.{attr}"
            namer = _rank_span if name == RANK else None
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = getattr(cls, method)
                self._patch(cls, method, self.wrap(name, original, namer))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, namer)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries ---------------------------------------------------------

    def span_self(self, name: str) -> float:
        """Self time of ``name`` under any parent."""
        return sum(t for (_, s), t in self.self_s.items() if s == name)

    def span_calls(self, name: str) -> int:
        return sum(c for (_, s), c in self.calls.items() if s == name)

    def layer_self(self, layer: str) -> float:
        return sum(t for (_, s), t in self.self_s.items() if s.split(".", 1)[0] == layer)

    def total_self(self) -> float:
        return sum(self.self_s.values())

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of one traced pass (times in seconds)."""
        scan = "takayama.depth_via_takayama"
        evals = self.calls[(scan, "homology.profile_from_faces")]
        points = self.counts["takayama.scan_points"]
        out: dict[str, float] = {f"{layer}.self_s": self.layer_self(layer)
                                 for layer in LAYERS + ("bench",)}
        out.update({
            "ideals.symbolic_power_s": self.span_self("ideals.symbolic_power"),
            "ideals.symbolic_power_calls": self.span_calls("ideals.symbolic_power"),
            "ideals.power_s": self.span_self("ideals.MonomialIdeal.power"),
            "ideals.power_calls": self.span_calls("ideals.MonomialIdeal.power"),
            "ideals.sym2_criterion_s": self.span_self("ideals.symbolic2_equals_square"),
            "ideals.complex_of_ideal_s": self.span_self("ideals.complex_of_ideal")
            + self.self_s[("ideals.complex_of_ideal", "bits.minimal_transversals")],
            "ideals.gens_out": self.counts["ideals.gens_out"],
            "takayama.scan_self_s": self.span_self(scan),
            "takayama.scan_calls": self.span_calls(scan),
            "takayama.scan_points": points,
            "takayama.homology_evals": evals,
            "takayama.evals_per_point": evals / points if points else 0.0,
            "takayama.budget_exceeded": self.counts[f"{scan}!BudgetExceeded"],
            "homology.rank_Q_s": self.span_self(f"{RANK}[Q]"),
            "homology.rank_F2_s": self.span_self(f"{RANK}[F2]"),
            "homology.rank_Q_calls": self.span_calls(f"{RANK}[Q]"),
            "homology.rank_F2_calls": self.span_calls(f"{RANK}[F2]"),
            "homology.profile_self_s": self.span_self("homology.profile_from_faces"),
            "homology.link_criteria_self_s": sum(self.span_self(s) for s in LINK_CRITERIA),
            "criteria.audit_self_s": self.span_self("criteria.paper_audit"),
            "criteria.condition3_s": self.span_self("criteria.condition3_check"),
            "criteria.s2_s": self.span_self("criteria.s2_criterion"),
            "criteria.violations": self.counts["criteria.violations"],
            "complexes.link_s": self.span_self("complexes.SimplicialComplex.link"),
            "complexes.link_calls": self.span_calls("complexes.SimplicialComplex.link"),
            "jsonio.serialise_s": self.span_self("jsonio.audit_to_dict"),
        })
        return out

    def table(self) -> list[str]:
        """One line per (parent, span) edge, largest self time first."""
        rows = sorted(self.self_s.items(), key=lambda kv: -kv[1])
        return [f"{t:10.4f} s {self.calls[edge]:9d} calls  {edge[0] or '-'} > {edge[1]}"
                for edge, t in rows]
