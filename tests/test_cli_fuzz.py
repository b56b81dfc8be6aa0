"""Fuzzing the CLI's JSON loaders: integer slots hold junk.

Complex, graph and ideal documents whose n, vertex, edge endpoint or exponent
slots hold floats, booleans, strings, nulls, nested lists or negatives go
through the CLI in-process.  Every run must exit 0 or 2 (an uncaught
exception fails the test), and a document with a non-integer in an integer
slot must exit 2.
"""

import contextlib
import io
import json
import sys

from hypothesis import given, settings, strategies as st

from srsq.cli import EXIT_OK, EXIT_USAGE, main

NON_INTEGERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.lists(st.integers(-2, 4), max_size=2),
)


def slots(lo, hi):
    """One integer slot: a small integer (negatives included) or junk."""
    return st.one_of(st.integers(lo, hi), st.integers(lo, hi), NON_INTEGERS)


def malformed(*values) -> bool:
    return any(type(v) is not int for v in values)


@st.composite
def complex_docs(draw):
    n = draw(slots(-1, 5))
    facets = draw(st.lists(st.lists(slots(-1, 6), max_size=3), max_size=4))
    return {"n": n, "facets": facets}, malformed(n, *(v for f in facets for v in f))


@st.composite
def graph_docs(draw):
    n = draw(slots(-1, 5))
    edges = draw(st.lists(st.lists(slots(-1, 6), min_size=1, max_size=3), max_size=5))
    return {"n": n, "edges": edges}, malformed(n, *(v for e in edges for v in e))


@st.composite
def ideal_docs(draw):
    n = draw(slots(-1, 4))
    width = n if type(n) is int and 0 <= n <= 4 else draw(st.integers(0, 4))
    gens = draw(st.lists(st.lists(slots(-2, 3), min_size=width, max_size=width), max_size=4))
    return {"n": n, "gens": gens}, malformed(n, *(e for g in gens for e in g))


def run(argv, doc):
    stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def check(argv, case):
    doc, bad = case
    code, out, err = run(argv, doc)
    assert code in (EXIT_OK, EXIT_USAGE), (code, err)
    if code == EXIT_USAGE:
        assert out == "" and err.startswith("error: ")
    if bad:
        assert code == EXIT_USAGE, doc


FUZZ = settings(max_examples=150, deadline=None)


@FUZZ
@given(complex_docs())
def test_complex_f_vector_loader(case):
    check(["complex", "f-vector"], case)


@FUZZ
@given(complex_docs())
def test_ideal_sr_loader(case):
    check(["ideal", "sr"], case)


@FUZZ
@given(graph_docs())
def test_generate_complementary_graph_loader(case):
    check(["generate", "complementary", "--graph", "-"], case)


@FUZZ
@given(ideal_docs())
def test_ideal_power_loader(case):
    check(["ideal", "power"], case)
