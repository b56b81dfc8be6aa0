"""Command-line front end: JSON pipes in, JSON (or markdown) out.

Subcommands: generate (named complexes), complex (transforms), ideal
(Stanley-Reisner algebra), check (criteria and scans), reproduce-paper (the
full acceptance battery), explore (randomized audits).  Each op of complex,
ideal and check is one entry of OPS, which run_op runs.

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
from pathlib import Path
from typing import Any, Callable

from . import jsonio
from .complexes import NAMED_COMPLEXES, Graph, SimplicialComplex, named_complex, new_complex
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
    cohen_macaulay_reports,
    gorenstein_reports,
    locally_gorenstein_reports,
    parse_field_battery,
    profile_from_faces,
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
    _symbolic_depth_reports,
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
    text = sys.stdin.read() if path in (None, "-") else Path(path).read_text()
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
        try:
            budget = int(env) if env else DEFAULT_BUDGET
        except ValueError:
            raise ValueError(f"SRSQ_BUDGET must be an integer, got {env!r}") from None
    if budget < 0:
        raise ValueError(f"the budget must be >= 0, got {budget}")
    return budget


def _fields(args) -> tuple[FieldSpec, ...]:
    return parse_field_battery(args.fields) if args.fields is not None else DEFAULT_FIELDS


# -- generate ---------------------------------------------------------------

# the parameters the named complexes take, in order of first appearance; each is a flag
GENERATE_PARAMS = tuple(dict.fromkeys(param for _, param in NAMED_COMPLEXES.values() if param))


def cmd_generate(args) -> int:
    params = {p: getattr(args, p) for p in GENERATE_PARAMS if getattr(args, p) not in (None, "")}
    if "graph" in params:
        params["graph"] = _read_graph(params["graph"])
    _emit(jsonio.complex_to_dict(named_complex(args.name, **params)), args.format)
    return EXIT_OK


# -- complex, ideal and check: one table entry per op ---------------------------


def _face(args) -> tuple[int, ...]:
    return _parse_face(args.face_arg)


def _triangles(ideal, args) -> dict:
    tris = special_triangles(ideal)
    return {"count": len(tris), "triangles": [jsonio.triangle_to_dict(t) for t in tris]}


def _by_name(reports: dict, to_dict) -> dict:
    return {f.name: to_dict(r) for f, r in reports.items()}


def _audit_doc(delta: SimplicialComplex, fields: tuple[FieldSpec, ...], budget: int) -> dict:
    return jsonio.audit_to_dict(paper_audit(delta, fields, budget))


# check depth --of target -> the battery scan of that ideal of the complex; I_Delta is
# I_Delta^(1), scanned in facet form, so its minimal non-faces are never listed
DEPTH_OF = {
    "radical": lambda d, fields, budget: _symbolic_depth_reports(d, 1, fields, budget),
    "square": lambda d, fields, budget: square_depth_reports(d, fields, budget),
    "symbolic-square": lambda d, fields, budget: symbolic_square_depth_reports(d, fields, budget),
}

# command -> op -> (the flag it needs, or None; the reader of its input document, or None;
# the document it prints, from that input and the arguments).  The entries name each
# function in a lambda, so a function is looked up when its op runs.
OPS: dict[str, dict[str, tuple[str | None, Any, Callable[[Any, Any], dict]]]] = {
    "complex": {
        "new": ("n", None, lambda _, a: jsonio.complex_to_dict(
            new_complex(a.n, [_parse_face(f) for f in a.face or []]))),
        "link": (None, _read_complex,
                 lambda d, a: jsonio.complex_to_dict(*d.link_with_map(_face(a)))),
        "star": (None, _read_complex, lambda d, a: jsonio.complex_to_dict(d.star(_face(a)))),
        "skeleton": ("k", _read_complex, lambda d, a: jsonio.complex_to_dict(d.skeleton(a.k))),
        "restrict": (None, _read_complex,
                     lambda d, a: jsonio.complex_to_dict(*d.restrict_with_map(_face(a)))),
        "core": (None, _read_complex, lambda d, a: jsonio.complex_to_dict(*d.core_with_map())),
        "join": ("with", _read_complex,
                 lambda d, a: jsonio.complex_to_dict(d.join(_read_complex(a.with_file)))),
        "stellar": (None, _read_complex,
                    lambda d, a: jsonio.complex_to_dict(d.stellar_subdivision(_face(a)))),
        "f-vector": (None, _read_complex, lambda d, a: jsonio.fvector_to_dict(d.f_vector())),
    },
    "ideal": {
        "sr": (None, _read_complex, lambda d, a: jsonio.ideal_to_dict(stanley_reisner(d))),
        "complex": (None, _read_ideal, lambda i, a: jsonio.complex_to_dict(complex_of_ideal(i))),
        "power": (None, _read_ideal, lambda i, a: jsonio.ideal_to_dict(i.power(a.k))),
        "symbolic": (None, _read_complex_or_ideal,
                     lambda x, a: jsonio.ideal_to_dict(symbolic_power(x, a.ell))),
        "intersect": ("with", _read_ideal,
                      lambda i, a: jsonio.ideal_to_dict(i.intersect(_read_ideal(a.with_file)))),
        "equals": ("with", _read_ideal, lambda i, a: {"equal": i == _read_ideal(a.with_file)}),
        "triangles": (None, _read_ideal, _triangles),
        "equals-sym2": (None, _read_ideal,
                        lambda i, a: jsonio.sym2_to_dict(symbolic2_equals_square(i))),
    },
    "check": {
        "cm": (None, _read_complex, lambda d, a: _by_name(
            cohen_macaulay_reports(d, a.fields), jsonio.reisner_to_dict)),
        "gorenstein": (None, _read_complex, lambda d, a: _by_name(
            gorenstein_reports(d, a.fields), jsonio.gorenstein_to_dict)),
        "locally-gorenstein": (None, _read_complex, lambda d, a: _by_name(
            locally_gorenstein_reports(d, a.fields), jsonio.locally_gorenstein_to_dict)),
        "homology": (None, _read_complex, lambda d, a: {
            p.field.name: jsonio.profile_to_dict(p)
            for p in profile_from_faces(d, d.face_index.everything, a.fields)}),
        "s2": (None, _read_complex, lambda d, a: jsonio.s2_to_dict(s2_criterion(d))),
        "depth2": (None, _read_complex, lambda d, a: jsonio.depth2_to_dict(depth2_criterion(d))),
        "condition3": (None, _read_complex,
                       lambda d, a: jsonio.condition3_to_dict(condition3_check(d))),
        "depth": (None, _read_complex, lambda d, a: _by_name(
            DEPTH_OF[a.of](d, a.fields, a.budget), jsonio.depth_report_to_dict)),
        "audit": (None, _read_complex, lambda d, a: _audit_doc(d, a.fields, a.budget)),
    },
}


def run_op(args) -> int:
    """Run ``args.op`` of ``args.command`` from its OPS entry; exit 4 on a document
    that lists violations (an audit's)."""
    needs, read, show = OPS[args.command][args.op]
    # a missing flag or a bad battery or budget is refused before any document is read
    if needs is not None and getattr(args, "with_file" if needs == "with" else needs) is None:
        raise ValueError(f"'{args.command} {args.op}' needs --{needs}")
    if args.command == "check":
        args.fields, args.budget = _fields(args), _budget(args)
    doc = show(read(args.infile) if read else None, args)
    _emit(doc, args.format)
    return EXIT_VIOLATION if doc.get("violations") else EXIT_OK


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

    g = sub.add_parser("generate", help="emit a named complex as JSON",
                       formatter_class=argparse.RawTextHelpFormatter)
    g.add_argument("name", help="a named complex and the parameter it takes:\n" + "\n".join(
        name.replace("_", "-") + (f" --{param}" if param else "")
        for name, (_, param) in NAMED_COMPLEXES.items()))
    for param in GENERATE_PARAMS:
        if param == "graph":
            g.add_argument("--graph", default=None, help="graph JSON file for 'complementary'")
        else:
            g.add_argument(f"--{param}", type=int, default=None)
    g.set_defaults(func=cmd_generate)

    c = sub.add_parser("complex", help="construct or transform complexes")
    c.add_argument("--n", type=int, default=None, help="vertex count for 'new'")
    c.add_argument("--face", action="append", default=None, help="face for 'new' (repeatable)")
    c.add_argument("--face-arg", default="", help="face for link/star/stellar/restrict, e.g. 1,2")
    c.add_argument("--k", type=int, default=None, help="skeleton dimension")
    c.add_argument("--with", dest="with_file", default=None, help="second complex for join")

    i = sub.add_parser("ideal", help="Stanley-Reisner and monomial ideal operations")
    i.add_argument("--k", type=int, default=2, help="exponent for 'power'")
    i.add_argument("--ell", type=int, default=2, help="symbolic power exponent")
    i.add_argument("--with", dest="with_file", default=None, help="second ideal file")

    k = sub.add_parser("check", help="run a criterion on a complex")
    k.add_argument("--of", choices=tuple(DEPTH_OF), default="radical",
                   help="which ideal 'depth' scans")

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
    for command, p in (("complex", c), ("ideal", i), ("check", k)):  # each reads a document
        p.add_argument("op", choices=tuple(OPS[command]))
        p.add_argument("--in", dest="infile", default=None, help="input file (default stdin)")
        p.set_defaults(func=run_op)
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
