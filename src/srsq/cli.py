"""Command-line front end: JSON pipes in, JSON (or markdown) out.

Subcommands: generate (named complexes), complex (transforms), ideal
(Stanley-Reisner algebra), check (criteria and scans), reproduce-paper (the
full acceptance battery), explore (randomized audits).

Only check, reproduce-paper and explore run a scan, so only they take
--budget; SRSQ_BUDGET overrides the default scan budget.

Exit codes: 0 success, 1 battery failure, 2 usage error, 3 budget exceeded,
4 implication violation, 141 output pipe closed by its reader.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Any

from . import jsonio
from .complexes import Graph, SimplicialComplex, named_complex, new_complex
from .criteria import (
    condition3_check,
    depth2_criterion,
    explore_complexes,
    paper_audit,
    s2_criterion,
)
from .homology import (
    DEFAULT_FIELDS,
    FieldSpec,
    is_cohen_macaulay,
    is_gorenstein,
    is_locally_gorenstein,
    parse_field_battery,
    reduced_homology,
)
from .ideals import (
    special_triangles,
    stanley_reisner,
    symbolic2_equals_square,
    symbolic_power,
    complex_of_ideal,
)
from .takayama import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    depth_reports,
    square_depth_reports,
    symbolic_square_depth_reports,
)
from .reproduce import run_all

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_VIOLATION = 4
EXIT_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer a closed pipe ends


def _emit(doc: Any, fmt: str) -> None:
    out = sys.stdout
    if fmt == "json":
        json.dump(doc, out, sort_keys=True, separators=(",", ":"))
        out.write("\n")
    else:
        out.write(_markdown(doc) + "\n")


def _markdown(doc: Any, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(doc, dict):
        lines = []
        for k, v in doc.items():
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}- {k}:")
                lines.append(_markdown(v, indent + 1))
            else:
                lines.append(f"{pad}- {k}: {_scalar(v)}")
        return "\n".join(lines)
    if isinstance(doc, list):
        if all(not isinstance(x, (dict, list)) for x in doc):
            return pad + ", ".join(_scalar(x) for x in doc)
        if all(isinstance(x, list) and all(not isinstance(y, (dict, list)) for y in x)
               for x in doc):
            return "\n".join(pad + "[" + ", ".join(_scalar(y) for y in x) + "]" for x in doc)
        return "\n".join(_markdown(x, indent) for x in doc)
    return f"{pad}{_scalar(doc)}"


def _scalar(v: Any) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _read_json(path: str | None):
    text = sys.stdin.read() if path in (None, "-") else open(path).read()
    return json.loads(text)


def _read_complex(path: str | None) -> SimplicialComplex:
    return jsonio.complex_from_dict(_read_json(path))


def _read_graph(path: str | None) -> Graph:
    return jsonio.graph_from_dict(_read_json(path))


def _read_ideal(path: str | None):
    return jsonio.ideal_from_dict(_read_json(path))


def _read_complex_or_ideal(path: str | None):
    doc = _read_json(path)
    if isinstance(doc, dict) and "facets" in doc:
        return jsonio.complex_from_dict(doc)
    return jsonio.ideal_from_dict(doc)


def _parse_face(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.replace(",", " ").split())


def _budget(args) -> int:
    if args.budget is not None:
        budget = args.budget
    else:
        env = os.environ.get("SRSQ_BUDGET")
        budget = int(env) if env else DEFAULT_BUDGET
    if budget < 0:
        raise ValueError(f"the budget must be >= 0, got {budget}")
    return budget


def _fields(args) -> tuple[FieldSpec, ...]:
    return parse_field_battery(args.fields) if args.fields is not None else DEFAULT_FIELDS


# -- generate ---------------------------------------------------------------


def cmd_generate(args) -> int:
    params: dict[str, Any] = {}
    for key in ("n", "d", "k", "r"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    if args.graph:
        params["graph"] = _read_graph(args.graph)
    delta = named_complex(args.name, **params)
    _emit(jsonio.complex_to_dict(delta), args.format)
    return EXIT_OK


# -- complex transforms -------------------------------------------------------


def cmd_complex(args) -> int:
    op = args.op
    needed = {"new": "n", "skeleton": "k"}.get(op)
    if needed and getattr(args, needed) is None:
        raise ValueError(f"'complex {op}' needs --{needed}")
    if op == "new":
        delta = new_complex(args.n, [_parse_face(f) for f in args.face or []])
        _emit(jsonio.complex_to_dict(delta), args.format)
        return EXIT_OK
    delta = _read_complex(args.infile)
    if op == "link":
        link, vmap = delta.link_with_map(_parse_face(args.face_arg))
        _emit(jsonio.complex_to_dict(link, vmap), args.format)
    elif op == "star":
        _emit(jsonio.complex_to_dict(delta.star(_parse_face(args.face_arg))), args.format)
    elif op == "skeleton":
        _emit(jsonio.complex_to_dict(delta.skeleton(args.k)), args.format)
    elif op == "restrict":
        sub, vmap = delta.restrict_with_map(_parse_face(args.face_arg))
        _emit(jsonio.complex_to_dict(sub, vmap), args.format)
    elif op == "core":
        core, vmap = delta.core_with_map()
        _emit(jsonio.complex_to_dict(core, vmap), args.format)
    elif op == "join":
        other = _read_complex(args.with_file)
        _emit(jsonio.complex_to_dict(delta.join(other)), args.format)
    elif op == "stellar":
        _emit(
            jsonio.complex_to_dict(delta.stellar_subdivision(_parse_face(args.face_arg))),
            args.format,
        )
    elif op == "f-vector":
        _emit(jsonio.fvector_to_dict(delta.f_vector()), args.format)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown complex op {op}")
    return EXIT_OK


# -- ideal operations ----------------------------------------------------------


def cmd_ideal(args) -> int:
    op = args.op
    if op == "sr":
        _emit(jsonio.ideal_to_dict(stanley_reisner(_read_complex(args.infile))), args.format)
    elif op == "complex":
        _emit(jsonio.complex_to_dict(complex_of_ideal(_read_ideal(args.infile))), args.format)
    elif op == "power":
        _emit(jsonio.ideal_to_dict(_read_ideal(args.infile).power(args.k)), args.format)
    elif op == "symbolic":
        src = _read_complex_or_ideal(args.infile)
        _emit(jsonio.ideal_to_dict(symbolic_power(src, args.ell)), args.format)
    elif op == "intersect":
        left = _read_ideal(args.infile)
        right = _read_ideal(args.with_file)
        _emit(jsonio.ideal_to_dict(left.intersect(right)), args.format)
    elif op == "equals":
        left = _read_ideal(args.infile)
        right = _read_ideal(args.with_file)
        _emit({"equal": left == right}, args.format)
    elif op == "triangles":
        tris = special_triangles(_read_ideal(args.infile))
        _emit({"count": len(tris), "triangles": [jsonio.triangle_to_dict(t) for t in tris]},
              args.format)
    elif op == "equals-sym2":
        _emit(jsonio.sym2_to_dict(symbolic2_equals_square(_read_ideal(args.infile))), args.format)
    else:  # pragma: no cover
        raise ValueError(f"unknown ideal op {op}")
    return EXIT_OK


# -- checks ---------------------------------------------------------------------


# check op -> (the check on one field, its JSON form), run once per field
_PER_FIELD_CHECKS = {
    "cm": (is_cohen_macaulay, jsonio.reisner_to_dict),
    "gorenstein": (is_gorenstein, jsonio.gorenstein_to_dict),
    "locally-gorenstein": (is_locally_gorenstein, jsonio.locally_gorenstein_to_dict),
    "homology": (reduced_homology, jsonio.profile_to_dict),
}


def cmd_check(args) -> int:
    op = args.op
    fields = _fields(args)
    budget = _budget(args)
    delta = _read_complex(args.infile)
    if op in _PER_FIELD_CHECKS:
        check, to_dict = _PER_FIELD_CHECKS[op]
        _emit({f.name: to_dict(check(delta, f)) for f in fields}, args.format)
    elif op == "s2":
        _emit(jsonio.s2_to_dict(s2_criterion(delta)), args.format)
    elif op == "depth2":
        _emit(jsonio.depth2_to_dict(depth2_criterion(delta)), args.format)
    elif op == "condition3":
        _emit(jsonio.condition3_to_dict(condition3_check(delta)), args.format)
    elif op == "depth":
        if args.of == "symbolic-square":
            reports = symbolic_square_depth_reports(delta, fields, budget)
        elif args.of == "square":
            reports = square_depth_reports(delta, fields, budget)
        else:
            reports = depth_reports(stanley_reisner(delta), fields, budget)
        _emit({f.name: jsonio.depth_report_to_dict(r) for f, r in reports.items()}, args.format)
    elif op == "audit":
        report = paper_audit(delta, fields, budget)
        _emit(jsonio.audit_to_dict(report), args.format)
        if report.violations:
            return EXIT_VIOLATION
    else:  # pragma: no cover
        raise ValueError(f"unknown check {op}")
    return EXIT_OK


# -- the battery -----------------------------------------------------------------


def cmd_reproduce(args) -> int:
    results = run_all(budget=_budget(args), only=args.only)
    doc = {
        "criteria": [
            {
                "key": r.key,
                "title": r.title,
                "passed": r.passed,
                "elapsed_seconds": round(r.elapsed, 3),
                "limit_seconds": r.limit,
                "details": r.details,
                "notes": list(r.notes),
            }
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    md_lines = ["# Worked-example reproduction report", ""]
    for r in results:
        md_lines.append(f"- {r.line()}")
    md_lines.append("")
    md_lines.append(f"overall: {'PASS' if doc['all_passed'] else 'FAIL'}")
    md = "\n".join(md_lines)
    if args.out:
        with open(args.out + ".json", "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=1)
            fh.write("\n")
        with open(args.out + ".md", "w") as fh:
            fh.write(md + "\n")
    if args.format == "json":
        _emit(doc, "json")
    else:
        print(md)
    violated = any(
        "violations" in r.details and r.details.get("violations") for r in results
    )
    if violated:
        return EXIT_VIOLATION
    return EXIT_OK if doc["all_passed"] else EXIT_FAIL


# -- exploration ------------------------------------------------------------------


def _audit_doc(delta: SimplicialComplex, fields: tuple[FieldSpec, ...], budget: int) -> dict:
    return jsonio.audit_to_dict(paper_audit(delta, fields, budget))


def cmd_explore(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    audit = functools.partial(_audit_doc, fields=_fields(args), budget=_budget(args))
    complexes = explore_complexes(args.seed, args.count, args.n_max)
    # More workers than cores or complexes only adds processes to start.
    jobs = min(args.jobs, os.cpu_count() or 1, len(complexes))
    if jobs > 1:
        import multiprocessing

        with multiprocessing.get_context("fork").Pool(jobs) as pool:
            docs = pool.map(audit, complexes)
    else:
        docs = list(map(audit, complexes))
    violated = [d for d in docs if d["violations"]]
    for i, doc in enumerate(violated):
        path = os.path.join(args.dump_dir, f"counterexample_candidate_{i:03d}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=1)
            fh.write("\n")
    summary = {
        "seed": args.seed,
        "count": args.count,
        "n_max": args.n_max,
        "violations": len(violated),
        "reports": docs if args.full else [
            {"complex": d["complex"], "violations": d["violations"],
             "cm_square": {k: v["cohen_macaulay"] for k, v in d["cm_square"].items()}}
            for d in docs
        ],
    }
    _emit(summary, args.format)
    return EXIT_VIOLATION if violated else EXIT_OK


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srsq",
        description="Exact second-power toolkit for Stanley-Reisner ideals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="emit a named complex as JSON")
    g.add_argument("name", help="cycle, path, simplex, cross-polytope, cross-polytope-stellar,"
                                " rp2, phantom-pentagon, four-path, conjecture-graph,"
                                " disjoint-pentagons, complementary")
    g.add_argument("--n", type=int, default=None)
    g.add_argument("--d", type=int, default=None)
    g.add_argument("--k", type=int, default=None)
    g.add_argument("--r", type=int, default=None)
    g.add_argument("--graph", default=None, help="graph JSON file for 'complementary'")
    g.set_defaults(func=cmd_generate)

    c = sub.add_parser("complex", help="construct or transform complexes")
    c.add_argument("op", choices=("new", "link", "star", "skeleton", "restrict", "core",
                                  "join", "stellar", "f-vector"))
    c.add_argument("--n", type=int, default=None, help="vertex count for 'new'")
    c.add_argument("--face", action="append", default=None, help="face for 'new' (repeatable)")
    c.add_argument("--face-arg", default="", help="face for link/star/stellar/restrict, e.g. 1,2")
    c.add_argument("--k", type=int, default=None, help="skeleton dimension")
    c.add_argument("--with", dest="with_file", default=None, help="second complex for join")
    c.set_defaults(func=cmd_complex)

    i = sub.add_parser("ideal", help="Stanley-Reisner and monomial ideal operations")
    i.add_argument("op", choices=("sr", "complex", "power", "symbolic", "intersect",
                                  "equals", "triangles", "equals-sym2"))
    i.add_argument("--k", type=int, default=2, help="exponent for 'power'")
    i.add_argument("--ell", type=int, default=2, help="symbolic power exponent")
    i.add_argument("--with", dest="with_file", default=None, help="second ideal file")
    i.set_defaults(func=cmd_ideal)

    k = sub.add_parser("check", help="run a criterion on a complex")
    k.add_argument("op", choices=("cm", "gorenstein", "locally-gorenstein", "homology",
                                  "s2", "depth2", "condition3", "depth", "audit"))
    k.add_argument("--of", choices=("radical", "square", "symbolic-square"), default="radical",
                   help="which ideal 'depth' scans")
    k.set_defaults(func=cmd_check)

    r = sub.add_parser("reproduce-paper", help="run the acceptance battery")
    r.add_argument("--only", action="append", default=None,
                   help="run a single criterion key (repeatable)")
    r.add_argument("--out", default=None, help="write PREFIX.md and PREFIX.json")
    r.set_defaults(func=cmd_reproduce)

    e = sub.add_parser("explore", help="audit seeded random complexes")
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--count", type=int, default=20)
    e.add_argument("--n-max", type=int, default=6)
    e.add_argument("--jobs", type=int, default=1)
    e.add_argument("--dump-dir", default=".", help="where counterexample candidates go")
    e.add_argument("--full", action="store_true", help="include full audit reports")
    e.set_defaults(func=cmd_explore)

    for p in (g, c, i, k, r, e):
        p.add_argument("--format", choices=("json", "md"), default="json")
    for p in (k, r, e):  # the subcommands that run a scan
        p.add_argument("--budget", type=int, default=None,
                       help=f"scan budget (default {DEFAULT_BUDGET} or SRSQ_BUDGET)")
    for p in (k, e):
        p.add_argument("--fields", default=None, help="field battery, e.g. Q,F2,F3")
    for p in (c, i, k):  # the subcommands that read a document
        p.add_argument("--in", dest="infile", default=None, help="input file (default stdin)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader has gone.  Send what is still buffered to the null
        # device, so the flush at exit stays quiet too, and end as SIGPIPE would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, KeyError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
