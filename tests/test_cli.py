import io
import json
import os
import re
import subprocess
import sys
from itertools import takewhile
from pathlib import Path

import pytest

from srsq import DEFAULT_FIELDS, cli, depth_reports, jsonio, stanley_reisner
from srsq.bits import pack, unpack
from srsq.complexes import NAMED_COMPLEXES, cycle_graph, named_complex, new_complex
from srsq.criteria import explore_complexes
from srsq.cli import EXIT_BUDGET, EXIT_OK, EXIT_PIPE, EXIT_USAGE, EXIT_VIOLATION, main
from srsq.reproduce import named_battery

from helpers import generator_form_square_reports, join_blocks_by_bfs


def run(argv, stdin_text="", monkeypatch=None, capsys=None):
    assert monkeypatch is not None and capsys is not None
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_rp2(monkeypatch, capsys):
    code, out, _ = run(["generate", "rp2"], monkeypatch=monkeypatch, capsys=capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["n"] == 6 and len(doc["facets"]) == 10
    assert doc["facets"] == sorted(doc["facets"])


def test_generate_with_params(monkeypatch, capsys):
    code, out, _ = run(
        ["generate", "cross-polytope-stellar", "--d", "2"],
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == EXIT_OK
    assert json.loads(out)["n"] == 5


def test_pipeline_sr_equals_sym2(monkeypatch, capsys):
    code, out, _ = run(["generate", "cycle", "--n", "5"], monkeypatch=monkeypatch, capsys=capsys)
    code, out, _ = run(["ideal", "sr"], stdin_text=out, monkeypatch=monkeypatch, capsys=capsys)
    assert code == EXIT_OK
    ideal_doc = out
    code, out, _ = run(
        ["ideal", "equals-sym2"], stdin_text=ideal_doc, monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == EXIT_OK
    assert json.loads(out) == {"equal": True, "triangles_checked": 0}


def test_complex_link(monkeypatch, capsys):
    _, rp2_doc, _ = run(["generate", "rp2"], monkeypatch=monkeypatch, capsys=capsys)
    code, out, _ = run(
        ["complex", "link", "--face-arg", "4"],
        stdin_text=rp2_doc,
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["n"] == 5 and len(doc["facets"]) == 5
    assert doc["vertex_map"] == {"1": 1, "2": 2, "3": 3, "5": 4, "6": 5}


def test_complex_join_and_stellar(monkeypatch, capsys, tmp_path):
    _, pentagon_doc, _ = run(["generate", "cycle", "--n", "5"], monkeypatch=monkeypatch, capsys=capsys)
    other = tmp_path / "other.json"
    other.write_text(pentagon_doc)
    code, out, _ = run(
        ["complex", "join", "--with", str(other)],
        stdin_text=pentagon_doc,
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == EXIT_OK
    assert json.loads(out)["n"] == 10

    code, out, _ = run(
        ["complex", "stellar", "--face-arg", "1,2"],
        stdin_text=pentagon_doc,
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == EXIT_OK
    assert json.loads(out)["n"] == 6


def test_check_cm_square(monkeypatch, capsys):
    _, doc, _ = run(["generate", "cross-polytope-stellar", "--d", "3"], monkeypatch=monkeypatch, capsys=capsys)
    code, out, _ = run(
        ["check", "depth", "--of", "square", "--fields", "Q,F2"],
        stdin_text=doc,
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == EXIT_OK
    verdicts = json.loads(out)
    assert verdicts["Q"]["cohen_macaulay"] and verdicts["F2"]["cohen_macaulay"]


def test_check_audit_clean(monkeypatch, capsys):
    _, doc, _ = run(["generate", "cycle", "--n", "5"], monkeypatch=monkeypatch, capsys=capsys)
    code, out, _ = run(
        ["check", "audit"], stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == EXIT_OK
    assert json.loads(out)["violations"] == []


def test_audit_of_a_join_folds_its_square_as_check_depth_does(monkeypatch, capsys):
    # rp2 joined with two points: I^2 != I^(2), and the square is folded from the factors
    doc = json.dumps(jsonio.complex_to_dict(named_complex("rp2").join(new_complex(2, [(1,), (2,)]))))
    fields = ["--fields", "Q,F2,F3"]
    code, audit, _ = run(["check", "audit", *fields], stdin_text=doc,
                         monkeypatch=monkeypatch, capsys=capsys)
    assert code == EXIT_OK
    _, square, _ = run(["check", "depth", "--of", "square", *fields], stdin_text=doc,
                       monkeypatch=monkeypatch, capsys=capsys)
    audit = json.loads(audit)
    assert not audit["symbolic2_equals_square"]["equal"] and audit["violations"] == []
    assert audit["cm_square"] == json.loads(square)
    assert all(len(r["join_factors"]) == 2 for r in audit["cm_square"].values())


def test_byte_identical_reports(monkeypatch, capsys):
    _, doc, _ = run(["generate", "rp2"], monkeypatch=monkeypatch, capsys=capsys)
    outs = []
    for _ in range(2):
        _, out, _ = run(
            ["check", "audit", "--fields", "Q,F2"],
            stdin_text=doc,
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        outs.append(out)
    assert outs[0] == outs[1]


def test_budget_exit_code(monkeypatch, capsys):
    _, doc, _ = run(["generate", "rp2"], monkeypatch=monkeypatch, capsys=capsys)
    code, _, err = run(
        ["check", "depth", "--of", "square", "--budget", "10"],
        stdin_text=doc,
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == EXIT_BUDGET
    assert "budget" in err


def test_env_budget_override(monkeypatch, capsys):
    monkeypatch.setenv("SRSQ_BUDGET", "10")
    _, doc, _ = run(["generate", "rp2"], monkeypatch=monkeypatch, capsys=capsys)
    code, _, _ = run(
        ["check", "depth", "--of", "square"], stdin_text=doc, monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == EXIT_BUDGET


@pytest.mark.parametrize("budget,code", [("-1", EXIT_USAGE), ("0", EXIT_BUDGET)])
@pytest.mark.parametrize("source", ["flag", "env"])
def test_negative_budget_is_a_usage_error(budget, code, source, monkeypatch, capsys):
    _, doc, _ = run(["generate", "rp2"], monkeypatch=monkeypatch, capsys=capsys)
    argv = ["check", "audit"]
    if source == "flag":
        argv += ["--budget", budget]
    else:
        monkeypatch.setenv("SRSQ_BUDGET", budget)
    got, _, err = run(argv, stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys)
    assert got == code and "budget" in err


@pytest.mark.parametrize("budget", ["abc", "1e3"])
def test_a_malformed_env_budget_names_itself(budget, monkeypatch, capsys):
    _, doc, _ = run(["generate", "rp2"], monkeypatch=monkeypatch, capsys=capsys)
    monkeypatch.setenv("SRSQ_BUDGET", budget)
    got = run(["check", "audit"], stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys)
    assert got == (EXIT_USAGE, "", f"error: SRSQ_BUDGET must be an integer, got '{budget}'\n")


def test_a_field_that_is_neither_0_nor_prime_is_a_usage_error(monkeypatch, capsys):
    _, doc, _ = run(["generate", "rp2"], monkeypatch=monkeypatch, capsys=capsys)
    got = run(["check", "cm", "--fields", "F1"], stdin_text=doc,
              monkeypatch=monkeypatch, capsys=capsys)
    assert got == (EXIT_USAGE, "", "error: field characteristic must be 0 or prime, got 1\n")


@pytest.mark.parametrize("doc", [
    '{"n":3,"facets":[[1,2]]}',
    '{"n":4,"facets":[[1,2],[2,3],[1,3]]}',
], ids=["edge", "triangle-boundary"])
def test_audit_with_an_unused_vertex_is_clean(doc, monkeypatch, capsys):
    code, out, _ = run(["check", "audit"], stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys)
    assert code == EXIT_OK and json.loads(out)["violations"] == []


@pytest.mark.parametrize("op", ["cm", "gorenstein", "locally-gorenstein"])
def test_link_checks_reject_the_void_complex(op, monkeypatch, capsys):
    code, _, err = run(["check", op], stdin_text='{"n":3,"facets":[]}',
                       monkeypatch=monkeypatch, capsys=capsys)
    assert code == EXIT_USAGE and "void complex is undefined" in err


def test_usage_errors(monkeypatch, capsys):
    with pytest.raises(SystemExit) as err:
        main(["check", "not-a-check"])
    assert err.value.code == EXIT_USAGE

    code, _, err_text = run(
        ["ideal", "sr"], stdin_text="{not json", monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == EXIT_USAGE and "error" in err_text

    code, _, _ = run(
        ["generate", "cycle", "--n", "2"], monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == EXIT_USAGE


def test_violation_exit_code(monkeypatch, capsys):
    # force a fake violation through the audit path to pin the exit code
    real_audit = cli.paper_audit

    def fake_audit(delta, fields, budget):
        report = real_audit(delta, fields, budget)
        report.violations = ("synthetic violation for exit-code test",)
        return report

    monkeypatch.setattr(cli, "paper_audit", fake_audit)
    _, doc, _ = run(["generate", "cycle", "--n", "5"], monkeypatch=monkeypatch, capsys=capsys)
    code, out, _ = run(
        ["check", "audit"], stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == EXIT_VIOLATION


@pytest.mark.parametrize("argv", [
    ["check", "audit", "--condition3-bound", "12"],
    ["explore", "--count", "1", "--condition3-bound", "12"],
    ["generate", "rp2", "--in", "-"],
    ["reproduce-paper", "--only", "criterion-01", "--in", "-"],
    ["explore", "--count", "1", "--in", "-"],
    # 'depth --of' is the one spelling of the square scans
    pytest.param(["check", "cm-square"], id="check-cm-square"),
    pytest.param(["check", "cm-symbolic-square"], id="check-cm-symbolic-square"),
    # --budget only where a scan reads it
    pytest.param(["generate", "rp2", "--budget", "5"], id="generate-budget"),
    pytest.param(["complex", "f-vector", "--budget", "5"], id="complex-budget"),
    pytest.param(["ideal", "sr", "--budget", "5"], id="ideal-budget"),
])
def test_removed_options_are_usage_errors(argv, monkeypatch, capsys):
    _, doc, _ = run(["generate", "cycle", "--n", "5"], monkeypatch=monkeypatch, capsys=capsys)
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == EXIT_USAGE


@pytest.mark.parametrize("n, code", [(64, EXIT_OK), (65, EXIT_USAGE)])
def test_ideal_documents_keep_to_the_vertex_limit(n, code, monkeypatch, capsys):
    got, out, err = run(["ideal", "power"], stdin_text=json.dumps({"n": n, "gens": []}),
                        monkeypatch=monkeypatch, capsys=capsys)
    assert got == code
    if code == EXIT_USAGE:
        assert out == "" and "at most 64" in err


def test_check_depth_targets(monkeypatch, capsys):
    # the 4-path is CM, but its 1-skeleton has diameter 3, so neither the
    # square nor the symbolic square reaches depth 2
    _, doc, _ = run(["generate", "four-path"], monkeypatch=monkeypatch, capsys=capsys)
    for target, cm in (("radical", True), ("square", False), ("symbolic-square", False)):
        code, out, _ = run(
            ["check", "depth", "--of", target, "--fields", "Q"],
            stdin_text=doc,
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == EXIT_OK
        assert json.loads(out)["Q"]["cohen_macaulay"] == cm


def test_depth_checks_start_one_scan_per_battery(monkeypatch, capsys, scans):
    for generate in (["rp2"], ["cycle", "--n", "5"]):
        _, doc, _ = run(["generate", *generate], monkeypatch=monkeypatch, capsys=capsys)
        for of in ("symbolic-square", "square", "radical"):
            scans.clear()
            code, out, _ = run(
                ["check", "depth", "--of", of, "--fields", "Q,F2,F3"],
                stdin_text=doc,
                monkeypatch=monkeypatch,
                capsys=capsys,
            )
            assert code == EXIT_OK
            assert len(scans) == 1
            assert list(json.loads(out)) == ["F2", "F3", "Q"]


def test_check_depth_of_the_radical_scans_the_facets(monkeypatch, capsys):
    # I_Delta = I_Delta^(1) is scanned in facet form, so the 52-vertex
    # explore complex, whose minimal non-faces take a transversal search,
    # answers at once; void and vertexless input are usage errors
    big = json.dumps(jsonio.complex_to_dict(explore_complexes(0, 1, 70)[0]))
    code, out, _ = run(["check", "depth", "--fields", "Q,F2"], stdin_text=big,
                       monkeypatch=monkeypatch, capsys=capsys)
    assert code == EXIT_OK
    assert {f: (r["depth"], r["scan_size"]) for f, r in json.loads(out).items()} == {
        "Q": (2, 2655), "F2": (2, 2655)}
    for doc in ('{"n":3,"facets":[]}', '{"n":0,"facets":[[]]}'):
        code, out, err = run(["check", "depth", "--of", "radical"], stdin_text=doc,
                             monkeypatch=monkeypatch, capsys=capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert "needs a nonvoid complex on at least one vertex" in err


def test_ideal_power_and_intersect(monkeypatch, capsys, tmp_path):
    triangle = {"n": 3, "gens": [[1, 1, 0], [0, 1, 1], [1, 0, 1]]}
    code, out, _ = run(
        ["ideal", "power", "--k", "2"],
        stdin_text=json.dumps(triangle),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == EXIT_OK
    assert len(json.loads(out)["gens"]) == 6

    other = tmp_path / "other.json"
    other.write_text(json.dumps({"n": 3, "gens": [[0, 1, 0]]}))
    code, out, _ = run(
        ["ideal", "intersect", "--with", str(other)],
        stdin_text=json.dumps({"n": 3, "gens": [[1, 0, 0]]}),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert json.loads(out)["gens"] == [[1, 1, 0]]


@pytest.mark.parametrize("doc", [
    {"n": 2, "gens": [[1.7, 0], [0, 1]]},
    {"n": 2, "gens": [[1.0, 0]]},
    {"n": 2, "gens": [[True, 0]]},
    {"n": 2, "gens": [["1", 0]]},
    {"n": 2.0, "gens": [[1, 0]]},
    {"n": "2", "gens": [[1, 0]]},
    {"n": True, "gens": [[1]]},
])
def test_ideal_loader_rejects_non_integers(doc, monkeypatch, capsys):
    code, out, err = run(["ideal", "power", "--k", "1"], stdin_text=json.dumps(doc),
                         monkeypatch=monkeypatch, capsys=capsys)
    assert code == EXIT_USAGE and out == ""
    assert "must be an integer" in err


@pytest.mark.parametrize("argv, doc", [
    (["complex", "f-vector"], {"n": 3, "facets": [[1.7, 2], [True, 3]]}),
    (["complex", "f-vector"], {"n": 3.0, "facets": [[1, 2], [3]]}),
    (["ideal", "sr"], {"n": 3, "facets": [[1, "2"], [3]]}),
    (["generate", "complementary", "--graph", "-"], {"n": "3", "edges": [[1.9, 2]]}),
    (["generate", "complementary", "--graph", "-"], {"n": 3, "edges": [[True, 2]]}),
])
def test_complex_and_graph_loaders_reject_non_integers(argv, doc, monkeypatch, capsys):
    code, out, err = run(argv, stdin_text=json.dumps(doc), monkeypatch=monkeypatch, capsys=capsys)
    assert code == EXIT_USAGE and out == ""
    assert "must be an integer" in err


@pytest.mark.parametrize("doc", ["5", "null", "[1, 2]", '"facets"'])
@pytest.mark.parametrize("argv", [
    ["complex", "f-vector"],
    ["ideal", "power"],
    ["ideal", "symbolic"],
    ["generate", "complementary", "--graph", "-"],
])
def test_documents_that_are_not_objects_are_usage_errors(argv, doc, monkeypatch, capsys):
    code, out, err = run(argv, stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys)
    assert code == EXIT_USAGE and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("fields", ["Q,Q", "F2,2", "Q,Q,F2", "F3,Q,F3"])
def test_field_battery_naming_a_field_twice_is_a_usage_error(fields, monkeypatch, capsys):
    _, doc, _ = run(["generate", "cycle", "--n", "5"], monkeypatch=monkeypatch, capsys=capsys)
    code, out, err = run(["check", "audit", "--fields", fields], stdin_text=doc,
                         monkeypatch=monkeypatch, capsys=capsys)
    assert code == EXIT_USAGE and out == ""
    assert "names a field twice" in err


@pytest.mark.parametrize("argv, message", [
    (["complex", "skeleton"], "needs --k"),
    (["complex", "new", "--face", "1,2"], "needs --n"),
    (["check", "depth", "--fields", ""], "empty field battery"),
    (["explore", "--count", "1", "--fields", ""], "empty field battery"),
])
def test_missing_or_empty_options_are_usage_errors(argv, message, monkeypatch, capsys):
    _, doc, _ = run(["generate", "cycle", "--n", "5"], monkeypatch=monkeypatch, capsys=capsys)
    code, out, err = run(argv, stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys)
    assert code == EXIT_USAGE and out == ""
    assert message in err


X1_SQUARED = json.dumps({"n": 1, "gens": [[2]]})


@pytest.mark.parametrize("argv, stdin, message", [
    (["ideal", "power", "--k", "-1"], "pentagon ideal", "negative powers are undefined"),
    (["ideal", "intersect", "--with", "four-cycle ideal"], "pentagon ideal",
     "ideals live in different variable counts"),
    (["ideal", "triangles"], X1_SQUARED, "special triangles are defined for squarefree ideals"),
    (["ideal", "equals-sym2"], X1_SQUARED, "the criterion applies to squarefree ideals"),
    (["ideal", "symbolic", "--ell", "0"], "pentagon ideal", "symbolic powers need ell >= 1"),
    (["generate", "path", "--n", "1"], "", "a path needs at least 2 vertices"),
    (["generate", "conjecture-graph", "--n", "0"], "", "n must be >= 1"),
    (["generate", "disjoint-pentagons", "--r", "0"], "", "r must be >= 1"),
    (["generate", "phantom-pentagon", "--k", "0"], "", "k must be >= 1"),
    (["complex", "restrict", "--face-arg", "1,7"], "pentagon", "restriction set out of range"),
])
def test_malformed_input_exits_2_with_its_message(argv, stdin, message, monkeypatch, capsys,
                                                  tmp_path):
    docs = {}
    for name, n in (("pentagon", 5), ("four-cycle", 4)):
        _, docs[name], _ = run(["generate", "cycle", "--n", str(n)],
                               monkeypatch=monkeypatch, capsys=capsys)
        _, docs[f"{name} ideal"], _ = run(["ideal", "sr"], stdin_text=docs[name],
                                          monkeypatch=monkeypatch, capsys=capsys)
    (tmp_path / "four-cycle ideal").write_text(docs["four-cycle ideal"])
    argv = [str(tmp_path / a) if a in docs else a for a in argv]
    code, out, err = run(argv, stdin_text=docs.get(stdin, stdin),
                         monkeypatch=monkeypatch, capsys=capsys)
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")


def test_ideal_symbolic_accepts_complex_or_ideal(monkeypatch, capsys):
    _, doc, _ = run(["generate", "cycle", "--n", "5"], monkeypatch=monkeypatch, capsys=capsys)
    code, from_complex, _ = run(
        ["ideal", "symbolic", "--ell", "2"], stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == EXIT_OK
    _, ideal_doc, _ = run(["ideal", "sr"], stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys)
    code, from_ideal, _ = run(
        ["ideal", "symbolic", "--ell", "2"],
        stdin_text=ideal_doc,
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert from_complex == from_ideal


def test_explore_writes_summary(monkeypatch, capsys, tmp_path):
    code, out, _ = run(
        ["explore", "--seed", "3", "--count", "4", "--n-max", "5",
         "--dump-dir", str(tmp_path)],
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["count"] == 4 and doc["violations"] == 0
    assert len(doc["reports"]) == 4
    assert not list(tmp_path.iterdir())  # no counterexample files when clean


def test_explore_rejects_a_negative_count(monkeypatch, capsys):
    code, out, err = run(["explore", "--count", "-1"], monkeypatch=monkeypatch, capsys=capsys)
    assert code == EXIT_USAGE
    assert out == "" and "count" in err


@pytest.mark.parametrize("argv, message", [
    (["--n-max", "1"], "n_max must be >= 3, got 1"),
    (["--n-max", "2"], "n_max must be >= 3, got 2"),
    (["--jobs", "0"], "--jobs must be >= 1, got 0"),
    (["--jobs", "-3"], "--jobs must be >= 1, got -3"),
], ids=["n-max-1", "n-max-2", "jobs-0", "jobs-negative"])
def test_explore_rejects_settings_instead_of_rewriting_them(argv, message, monkeypatch,
                                                            capsys, tmp_path):
    code, out, err = run(["explore", "--count", "2", "--dump-dir", str(tmp_path), *argv],
                         monkeypatch=monkeypatch, capsys=capsys)
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")


@pytest.mark.parametrize("delta", [d for _, d in named_battery()],
                         ids=[name for name, _ in named_battery()])
def test_square_checks_print_the_generator_form_reports(delta, monkeypatch, capsys):
    oracle = generator_form_square_reports(delta, DEFAULT_FIELDS)
    expected = {f.name: jsonio.depth_report_to_dict(r) for f, r in oracle.items()}
    cone = pack(delta.cone_vertices())
    blocks = [b for b in join_blocks_by_bfs(delta) if b != cone]
    if len(blocks) >= 2:  # a join: each field's report lists its factors, with the witnesses
        for f in DEFAULT_FIELDS:
            expected[f.name].pop("witness", None)
            expected[f.name]["join_factors"] = [{
                "vertices": list(unpack(b)),
                "radical": jsonio.depth_report_to_dict(
                    depth_reports(stanley_reisner(delta.restrict(unpack(b))), (f,))[f]),
                "power": jsonio.depth_report_to_dict(
                    generator_form_square_reports(delta.restrict(unpack(b)), (f,))[f]),
            } for b in blocks]
    doc = json.dumps(jsonio.complex_to_dict(delta))
    code, out, _ = run(["check", "depth", "--of", "square"], stdin_text=doc,
                       monkeypatch=monkeypatch, capsys=capsys)
    assert (code, out) == (EXIT_OK, json.dumps(expected, sort_keys=True, separators=(",", ":"))
                           + "\n")


def test_an_input_file_is_closed_after_reading(tmp_path):
    doc = tmp_path / "path.json"
    doc.write_text(json.dumps(jsonio.complex_to_dict(named_complex("path", n=5))))
    child = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m",
                            "srsq", "check", "s2", "--in", str(doc)],
                           capture_output=True, text=True, timeout=20, env=module_env())
    assert (child.returncode, child.stderr) == (EXIT_OK, "")
    assert json.loads(child.stdout)["holds"] is False


@pytest.mark.parametrize("of", ["square", "symbolic-square"])
def test_square_checks_refuse_a_52_vertex_complex_before_its_minimal_nonfaces(of):
    # listing the minimal non-faces of this complex runs for minutes; the
    # scan size, from the faces alone, refuses it first
    doc = json.dumps(jsonio.complex_to_dict(explore_complexes(0, 1, 70)[0]))
    child = subprocess.run([sys.executable, "-m", "srsq", "check", "depth", "--of", of],
                           input=doc, capture_output=True, text=True, timeout=20,
                           env=module_env())
    assert child.returncode == EXIT_BUDGET and child.stdout == ""
    assert child.stderr == "error: scan needs 2295146960098689024 points, budget is 1000000\n"


def test_explore_jobs_deterministic(monkeypatch, capsys, tmp_path):
    outs = []
    for jobs in ("1", "2"):
        code, out, _ = run(
            ["explore", "--seed", "7", "--count", "4", "--n-max", "5",
             "--jobs", jobs, "--dump-dir", str(tmp_path)],
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == EXIT_OK
        outs.append(out)
    assert outs[0] == outs[1]


def test_explore_pool_is_capped_by_cores_and_complexes(monkeypatch, capsys, tmp_path):
    sizes = []

    class SerialPool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    class SerialContext:
        Pool = SerialPool

    monkeypatch.setattr("os.cpu_count", lambda: 3)
    monkeypatch.setattr("multiprocessing.get_context", lambda method=None: SerialContext())
    outs = []
    for jobs in ("64", "1"):
        code, out, _ = run(
            ["explore", "--seed", "7", "--count", "4", "--n-max", "5",
             "--jobs", jobs, "--dump-dir", str(tmp_path)],
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == EXIT_OK
        outs.append(out)
    assert sizes == [3]
    assert outs[0] == outs[1]


def test_explore_dumps_counterexample_candidates(monkeypatch, capsys, tmp_path):
    real_audit = cli.paper_audit

    def fake_audit(delta, fields, budget):
        report = real_audit(delta, fields, budget)
        report.violations = ("synthetic violation",)
        return report

    monkeypatch.setattr(cli, "paper_audit", fake_audit)
    code, out, _ = run(
        ["explore", "--seed", "3", "--count", "2", "--n-max", "4",
         "--dump-dir", str(tmp_path)],
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == EXIT_VIOLATION
    dumped = sorted(p.name for p in tmp_path.iterdir())
    assert dumped == [
        "counterexample_candidate_000.json",
        "counterexample_candidate_001.json",
    ]
    saved = json.loads((tmp_path / dumped[0]).read_text())
    assert saved["violations"] == ["synthetic violation"]


def test_markdown_format(monkeypatch, capsys):
    _, doc, _ = run(["generate", "cycle", "--n", "5"], monkeypatch=monkeypatch, capsys=capsys)
    code, out, _ = run(
        ["check", "s2", "--format", "md"], stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == EXIT_OK
    assert "- holds: true" in out


def test_markdown_of_nested_reports_and_lists(monkeypatch, capsys):
    # a dict of dicts, a list of dicts and non-bool scalars
    _, doc, _ = run(["generate", "disjoint-pentagons", "--r", "2"],
                    monkeypatch=monkeypatch, capsys=capsys)
    code, out, _ = run(["check", "depth", "--of", "square", "--format", "md"], stdin_text=doc,
                       monkeypatch=monkeypatch, capsys=capsys)

    def report(field, pad, depth, size):
        return [f"{pad}- field: {field}", f"{pad}- depth: {depth}", f"{pad}- dim: {depth}",
                f"{pad}- cohen_macaulay: true", f"{pad}- scan_size: {size}"]

    expected = []
    for field in ("Q", "F2"):
        expected += [f"- {field}:", *report(field, "  ", 4, 23104), "  - join_factors:"]
        for k, vertices in enumerate(("1, 2, 3, 4, 5", "6, 7, 8, 9, 10"), 1):
            expected += [f"    - {k}:", "      - vertices:", f"        {vertices}",
                         "      - radical:", *report(field, "        ", 2, 11),
                         "      - power:", *report(field, "        ", 2, 152)]
    assert code == EXIT_OK and out == "\n".join(expected) + "\n"


def test_special_triangles_of_rp2_in_json_and_markdown(monkeypatch, capsys):
    # a list of lists: each triangle's witnesses
    _, doc, _ = run(["generate", "rp2"], monkeypatch=monkeypatch, capsys=capsys)
    _, ideal, _ = run(["ideal", "sr"], stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys)
    code, out, _ = run(["ideal", "triangles"], stdin_text=ideal,
                       monkeypatch=monkeypatch, capsys=capsys)
    triangles = json.loads(out)
    assert code == EXIT_OK and triangles["count"] == 90 == len(triangles["triangles"])
    assert triangles["triangles"][0] == {"vertices": [1, 2, 3],
                                         "witnesses": [[2, 3, 4], [1, 3, 6], [1, 2, 5]]}
    code, out, _ = run(["ideal", "triangles", "--format", "md"], stdin_text=ideal,
                       monkeypatch=monkeypatch, capsys=capsys)
    assert code == EXIT_OK and out.splitlines()[:8] == [
        "- count: 90", "- triangles:", "  - 1:", "    - vertices:", "      1, 2, 3",
        "    - witnesses:", "      [2, 3, 4]", "      [1, 3, 6]"]
    assert len(out.splitlines()) == 2 + 90 * 7
    assert out.splitlines()[8:10] == ["      [1, 2, 5]", "  - 2:"]


def test_reproduce_single_criterion_in_markdown(monkeypatch, capsys):
    code, out, _ = run(["reproduce-paper", "--only", "criterion-01", "--format", "md"],
                       monkeypatch=monkeypatch, capsys=capsys)
    assert code == EXIT_OK
    assert re.fullmatch(r"# Worked-example reproduction report\n\n"
                        r"- PASS criterion-01: triangle ideal second powers \[\d+\.\d\ds\]\n\n"
                        r"overall: PASS\n", out)


def test_reproduce_single_criterion(monkeypatch, capsys, tmp_path):
    prefix = tmp_path / "report"
    code, out, _ = run(
        ["reproduce-paper", "--only", "criterion-01", "--out", str(prefix)],
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["all_passed"] and doc["criteria"][0]["key"] == "criterion-01"
    assert (tmp_path / "report.json").exists() and (tmp_path / "report.md").exists()
    assert "PASS criterion-01" in (tmp_path / "report.md").read_text()


@pytest.mark.parametrize("only", [["criterion-1"], ["criterion-11"], ["criterion-01", "nope"]])
def test_reproduce_unknown_criterion_is_a_usage_error(only, monkeypatch, capsys):
    argv = ["reproduce-paper"]
    for key in only:
        argv += ["--only", key]
    code, out, err = run(argv, monkeypatch=monkeypatch, capsys=capsys)
    assert code == EXIT_USAGE and out == ""
    assert only[-1] in err and "criterion-01" in err and "criterion-10" in err


def test_audit_pipeline_matches_projective_plane_verdicts(monkeypatch, capsys):
    # generate rp2 | check audit --fields Q,F2: the published verdict table
    _, doc, _ = run(["generate", "rp2"], monkeypatch=monkeypatch, capsys=capsys)
    code, out, _ = run(
        ["check", "audit", "--fields", "Q,F2"],
        stdin_text=doc,
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == EXIT_OK
    audit = json.loads(out)
    assert audit["s2"]["holds"] is True
    assert audit["condition3"]["holds"] is False
    assert audit["symbolic2_equals_square"]["equal"] is False
    assert audit["gorenstein"]["Q"]["gorenstein"] is False
    assert audit["gorenstein"]["F2"]["gorenstein"] is False
    assert audit["cm_square"]["Q"]["cohen_macaulay"] is False
    assert audit["cm_symbolic_square"]["Q"]["cohen_macaulay"] is False
    assert audit["cm_symbolic_square"]["Q"]["depth"] == 2
    assert audit["violations"] == []


def test_check_homology_schema(monkeypatch, capsys):
    _, doc, _ = run(["generate", "rp2"], monkeypatch=monkeypatch, capsys=capsys)
    code, out, _ = run(
        ["check", "homology", "--fields", "Q,F2"],
        stdin_text=doc,
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == EXIT_OK
    profiles = json.loads(out)
    assert profiles["F2"] == {
        "field": "F2",
        "betti": {"-1": 0, "0": 0, "1": 1, "2": 1},
    }
    assert profiles["Q"]["betti"]["2"] == 0


def test_complex_new_restrict_core_fvector(monkeypatch, capsys):
    code, out, _ = run(
        ["complex", "new", "--n", "5", "--face", "1,2", "--face", "2,3",
         "--face", "3,4", "--face", "4,5", "--face", "5,1"],
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == EXIT_OK
    pentagon_doc = out
    assert json.loads(out)["n"] == 5

    code, out, _ = run(
        ["complex", "restrict", "--face-arg", "1,2,3"],
        stdin_text=pentagon_doc,
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    doc = json.loads(out)
    assert doc["facets"] == [[1, 2], [2, 3]] and doc["n"] == 3

    code, out, _ = run(
        ["complex", "core"], stdin_text=pentagon_doc, monkeypatch=monkeypatch, capsys=capsys
    )
    assert json.loads(out)["n"] == 5  # pentagon has no cone vertices

    code, out, _ = run(
        ["complex", "f-vector"], stdin_text=pentagon_doc, monkeypatch=monkeypatch, capsys=capsys
    )
    assert json.loads(out) == {"euler_reduced": -1, "f": [5, 5]}


def test_generate_complementary_from_graph(monkeypatch, capsys, tmp_path):
    graph = tmp_path / "c5.json"
    graph.write_text(json.dumps(
        {"n": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 1]]}
    ))
    code, out, _ = run(
        ["generate", "complementary", "--graph", str(graph)],
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["n"] == 5 and len(doc["facets"]) == 5


def test_generate_cross_stellar_alias(monkeypatch, capsys):
    code, out, _ = run(
        ["generate", "cross-stellar", "--d", "2"], monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == EXIT_OK and json.loads(out)["n"] == 5


# a value for each parameter a named complex takes, as typed
GENERATE_PARAMS = {"n": "5", "d": "2", "k": "2", "r": "2"}


def _pentagon_graph_file(tmp_path):
    graph = tmp_path / "c5.json"
    graph.write_text(json.dumps({"n": 5, "edges": [list(e) for e in cycle_graph(5).edge_tuples()]}))
    return str(graph)


def _generate_args(param, tmp_path):
    """generate's options for ``param``, and named_complex's keywords for them."""
    if param is None:
        return [], {}
    if param == "graph":
        return ["--graph", _pentagon_graph_file(tmp_path)], {"graph": cycle_graph(5)}
    return [f"--{param}", GENERATE_PARAMS[param]], {param: int(GENERATE_PARAMS[param])}


@pytest.mark.parametrize("name", sorted(NAMED_COMPLEXES))
def test_generate_builds_every_table_entry(name, monkeypatch, capsys, tmp_path):
    _, param = NAMED_COMPLEXES[name]
    argv, params = _generate_args(param, tmp_path)
    code, out, _ = run(["generate", name.replace("_", "-"), *argv],
                       monkeypatch=monkeypatch, capsys=capsys)
    assert code == EXIT_OK
    assert json.loads(out) == jsonio.complex_to_dict(named_complex(name, **params))


def test_generate_help_lists_the_table(monkeypatch, capsys):
    with pytest.raises(SystemExit) as err:
        main(["generate", "--help"])
    assert err.value.code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    start = next(i for i, line in enumerate(lines) if "the parameter it takes:" in line) + 1
    listed = [line.split() for line in lines[start:start + len(NAMED_COMPLEXES) + 1]]
    assert listed[-1] == []  # the list ends with the table
    assert listed[:-1] == [
        [name.replace("_", "-")] + ([f"--{param}"] if param else [])
        for name, (_, param) in NAMED_COMPLEXES.items()
    ]


def test_readme_lists_every_named_complex():
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| name | parameter | complex |") + 2  # past the rule
    rows = takewhile(lambda line: line.startswith("|"), lines[start:])
    listed = {name.strip(" `"): param.strip(" `")
              for name, param in (row.split("|")[1:3] for row in rows)}
    assert listed == {
        name.replace("_", "-"): f"--{param}" if param else "none"
        for name, (_, param) in NAMED_COMPLEXES.items()
    }


def test_readme_lists_every_op_of_the_tables():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    paragraph = text[text.index("Subcommands: "):].split("\n\n")[0].replace("\n", " ")
    listed = [(command, [op.strip() for op in ops.split("/")])
              for command, ops in re.findall(r"`(\w+)` \(([^)]*)\)", paragraph)]
    assert listed == [(command, list(ops)) for command, ops in cli.OPS.items()]
    assert f"`check depth --of {'|'.join(cli.DEPTH_OF)}`" in paragraph


@pytest.mark.parametrize("argv, param", [
    pytest.param(["rp2", "--n", "5"], "'n'", id="rp2-n"),
    pytest.param(["cycle", "--n", "5", "--d", "3"], "'d'", id="cycle-d"),
    pytest.param(["cycle", "--n", "5", "--graph", "GRAPH"], "'graph'", id="cycle-graph"),
    pytest.param(["four-path", "--k", "2"], "'k'", id="four-path-k"),
])
def test_generate_rejects_a_parameter_the_complex_does_not_take(
        argv, param, monkeypatch, capsys, tmp_path):
    graph = _pentagon_graph_file(tmp_path)
    argv = [graph if a == "GRAPH" else a for a in argv]
    code, out, err = run(["generate", *argv], monkeypatch=monkeypatch, capsys=capsys)
    assert code == EXIT_USAGE and out == ""
    assert f"takes no parameter {param}" in err


def _pentagons_document(r):
    """A graph document of r disjoint pentagons, on 5r vertices."""
    edges = [[5 * k + i, 5 * k + i % 5 + 1] for k in range(r) for i in range(1, 6)]
    return json.dumps({"n": 5 * r, "edges": edges})


@pytest.mark.parametrize("argv, doc, n", [
    pytest.param(["disjoint-pentagons", "--r", "13"], "", 65, id="disjoint-pentagons"),
    pytest.param(["conjecture-graph", "--n", "21"], "", 65, id="conjecture-graph"),
    pytest.param(["complementary", "--graph", "-"], _pentagons_document(13), 65,
                 id="complementary-65"),
    pytest.param(["complementary", "--graph", "-"], '{"n": -1, "edges": []}', -1,
                 id="complementary-negative"),
])
def test_generate_refuses_a_graph_off_the_vertex_range_before_any_search(
        argv, doc, n, monkeypatch, capsys):
    code, out, err = run(["generate", *argv], stdin_text=doc, monkeypatch=monkeypatch,
                         capsys=capsys)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and err.endswith(f"vertex count must be in 0..64, got {n}\n")


class _UnreadableStdin:
    def read(self, *args):
        raise AssertionError("stdin was read")


@pytest.mark.parametrize("command", [
    ["complex", "join"], ["ideal", "intersect"], ["ideal", "equals"],
], ids=" ".join)
def test_with_is_checked_before_any_document_is_read(command, monkeypatch, capsys, tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"n": 2, "facets": [[1], [2]], "gens": [[1, 1]]}))
    monkeypatch.setattr("sys.stdin", _UnreadableStdin())
    for argv in ([], ["--in", str(doc)]):
        assert main([*command, *argv]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: '{' '.join(command)}' needs --with\n"


# a usage error that the op table refuses before any document is read, and its message
EARLY_USAGE_ERRORS = [
    (["complex", "new"], "'complex new' needs --n"),
    (["complex", "skeleton"], "'complex skeleton' needs --k"),
    *[(["check", op, "--budget", "-1"], "the budget must be >= 0, got -1")
      for op in cli.OPS["check"]],
    *[(["check", op, "--fields", ""], "empty field battery") for op in cli.OPS["check"]],
]


@pytest.mark.parametrize("argv, message", EARLY_USAGE_ERRORS,
                         ids=[" ".join(a or '""' for a in argv) for argv, _ in EARLY_USAGE_ERRORS])
def test_usage_errors_are_found_before_any_document_is_read(argv, message, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", _UnreadableStdin())
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_star_output_pipes_back_in(monkeypatch, capsys):
    _, doc, _ = run(["generate", "rp2"], monkeypatch=monkeypatch, capsys=capsys)
    code, star_doc, _ = run(
        ["complex", "star", "--face-arg", "4"],
        stdin_text=doc,
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == EXIT_OK
    # star output has ghost vertices; it must still round-trip through the CLI
    code, out, _ = run(
        ["complex", "f-vector"], stdin_text=star_doc, monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == EXIT_OK
    assert json.loads(out)["f"][0] == 6  # the star of a vertex in rp2 covers all 6


def test_irrelevant_complex_round_trip(monkeypatch, capsys):
    doc = json.dumps({"n": 0, "facets": [[]]})
    code, out, _ = run(["complex", "f-vector"], stdin_text=doc, monkeypatch=monkeypatch,
                       capsys=capsys)
    assert code == EXIT_OK and json.loads(out) == {"euler_reduced": -1, "f": []}
    code, out, _ = run(
        ["ideal", "symbolic", "--ell", "2"], stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys
    )
    # the irrelevant complex has no variables; symbolic powers are undefined
    assert code == EXIT_USAGE


# -- the module entry point, in a child process ------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"


def module_env():
    """The environment of a child that imports the source tree first."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def run_module(argv, stdin_text):
    """``python -m srsq`` with the source tree first on the import path."""
    return subprocess.run([sys.executable, "-m", "srsq", *argv], input=stdin_text,
                          capture_output=True, text=True, timeout=300, env=module_env())


def test_module_entry_point_audits_like_main(monkeypatch, capsys):
    _, doc, _ = run(["generate", "rp2"], monkeypatch=monkeypatch, capsys=capsys)
    code, out, _ = run(["check", "audit"], stdin_text=doc, monkeypatch=monkeypatch,
                       capsys=capsys)
    assert code == EXIT_OK
    child = run_module(["check", "audit"], doc)
    assert (child.returncode, child.stdout, child.stderr) == (EXIT_OK, out, "")


def test_module_entry_point_rejects_a_malformed_document():
    child = run_module(["check", "audit"], '{"n": 3, "facets": [[1, 2]')
    assert child.returncode == EXIT_USAGE and child.stdout == ""
    assert child.stderr.startswith("error: ") and child.stderr.count("\n") == 1
    assert "Traceback" not in child.stderr


@pytest.mark.parametrize("argv", [
    # 137 kB, larger than a pipe buffer, so the write fails whatever the timing
    ["cross-polytope", "--d", "12"],
    # 99 bytes, which stay in the stream's buffer until the final flush
    ["rp2"],
], ids=["large", "small"])
def test_a_closed_output_pipe_ends_quietly_with_the_sigpipe_status(argv):
    # the reader closes before the writer writes; stdout is block-buffered,
    # as under a plain shell
    env = {k: v for k, v in module_env().items() if k != "PYTHONUNBUFFERED"}
    child = subprocess.Popen([sys.executable, "-m", "srsq", "generate", *argv],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    child.stdout.close()
    _, err = child.communicate(timeout=300)
    assert (child.returncode, err) == (EXIT_PIPE, b"")
