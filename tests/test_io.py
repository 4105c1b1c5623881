from __future__ import annotations

import json
import re
from dataclasses import replace

import pytest

from helpers import MIN2, NOT2, PROJ2, Z3_MALTSEV, make_algebra
from maltsev_lab import (
    Apply,
    Variable,
    decide,
    format_algebra,
    format_term,
    has_k_qwnu,
    has_n_local_k_qwnu,
    has_quasi_taylor,
    nlocal,
    parse_algebra,
    parse_term,
    qtaylor,
    qwnu,
    random_algebra,
    report_to_dict,
    report_to_json,
    report_to_text,
    verify_local,
)
from maltsev_lab.errors import AlgebraFormatError, TermError


def test_parse_minimal_file():
    alg = parse_algebra("algebra m\nsize 2\nop meet 2\n0 0 0 1\n")
    assert alg.name == "m" and alg.size == 2
    assert alg.ops[0].table == (0, 0, 0, 1)


def test_parse_with_version_and_comments():
    text = "# a semilattice\nmaltsev-lab/1\nalgebra m # inline comment\nsize 2\nop meet 2\n0 0\n0 1\n"
    assert parse_algebra(text) == parse_algebra("algebra m\nsize 2\nop meet 2\n0 0 0 1")


def test_parse_short_table_error():
    with pytest.raises(AlgebraFormatError, match="table entry"):
        parse_algebra("algebra m\nsize 2\nop meet 2\n0 0 0\n")


def test_parse_range_error():
    with pytest.raises(AlgebraFormatError, match="outside universe"):
        parse_algebra("algebra m\nsize 2\nop meet 2\n0 0 0 2\n")


def test_parse_errors_carry_positions():
    try:
        parse_algebra("algebra m\nsize 2\nop meet 2\n0 0 0 2\n")
    except AlgebraFormatError as exc:
        assert exc.line == 4 and exc.column == 7
    else:
        pytest.fail("expected a format error")


def test_parse_duplicate_symbol():
    with pytest.raises(AlgebraFormatError, match="duplicate"):
        parse_algebra("algebra m\nsize 2\nop f 1\n0 1\nop f 1\n1 0\n")


def test_parse_unknown_version():
    with pytest.raises(AlgebraFormatError, match="version"):
        parse_algebra("maltsev-lab/9\nalgebra m\nsize 2\nop f 1\n0 1\n")


def test_roundtrip_seeded_corpus():
    for seed in range(1000):
        alg = random_algebra(
            seed,
            (seed % 3) + 1,
            [[2], [1], [0], [1, 2], [3]][seed % 5],
            idempotent=False,
        )
        assert parse_algebra(format_algebra(alg)) == alg


def test_term_roundtrip():
    term = Apply("f", (Variable(0), Apply("g", ()), Apply("f", (Variable(2), Variable(1), Variable(0)))))
    assert parse_term(format_term(term)) == term
    assert parse_term("x7") == Variable(7)


def test_parse_term_errors():
    for bad in ["", "(f", "f x0)", "(f x0))", "(0f x0)", "y1", "( )", "(f (x0)"]:
        with pytest.raises(TermError):
            parse_term(bad)


def test_report_text_and_json_agree():
    for alg, runner in [
        (MIN2, lambda a: has_k_qwnu(a, 3)),
        (PROJ2, lambda a: has_k_qwnu(a, 2)),
        (NOT2, has_quasi_taylor),
        (Z3_MALTSEV, lambda a: has_k_qwnu(a, 2)),
    ]:
        report = runner(alg)
        text = report_to_text(report, include_witnesses=True)
        data = json.loads(report_to_json(report, include_witnesses=True))
        assert (data["answer"] == "yes") == report.answer
        assert ("answer: yes" in text) == report.answer
        if not report.answer:
            assert "refuted at" in text and data["refutation"] is not None


def test_json_report_is_its_dict_dumped_with_an_indent():
    # report_to_json writes the witness entries itself: it must equal
    # json.dumps of report_to_dict with indent=2, byte for byte, on every
    # golden case, refutations (an empty witness list) and pairs of tuples
    # among them, and where the algebra's name and a symbol in its witness
    # terms hold a quote, a backslash, a control character and non-ASCII
    from test_golden import CASES

    odd = 'q"\\\x01\u00e9\u2603'
    meet = make_algebra(odd, 2, (odd + "m", 2, (0, 0, 0, 1)))
    neg = make_algebra(odd, 2, (odd + "n", 1, (1, 0)))
    reports = [procedure(alg, *args) for _, procedure, alg, args in CASES]
    reports += [
        has_quasi_taylor(meet),
        has_n_local_k_qwnu(meet, 2, 2),
        has_quasi_taylor(neg),
        has_k_qwnu(neg, 2),
        # pair names that hold a % are not read as template fields
        decide(meet, replace(nlocal(1, 2), pair_names=("r%s", 'b"%%'))),
    ]
    # one report with witnesses of every shape: elements, 1- and 2-tuples,
    # results of one and two entries, and zero to two identities
    shapes = [has_k_qwnu(MIN2, 2), has_n_local_k_qwnu(MIN2, 2, 2), has_quasi_taylor(MIN2),
              has_n_local_k_qwnu(MIN2, 1, 2)]
    first = shapes[0].witnesses[0]
    edited = (replace(first, identities=()), replace(first, identities=("a", "b")))
    mixed = sum((r.witnesses for r in shapes), edited)
    reports.append(replace(shapes[0], witnesses=mixed))
    seen = set()
    for report in reports:
        for witnesses in (False, True):
            want = json.dumps(report_to_dict(report, witnesses), indent=2) + "\n"
            assert report_to_json(report, witnesses) == want, report.algebra
        seen.add("yes" if report.answer else "no")
        seen.update(
            "tuple pairs" if isinstance(w.pair[0], tuple) else "element pairs"
            for w in report.witnesses
        )
        if report.algebra == odd:
            seen.add(f"odd {'yes' if report.answer else 'no'}")
            if any(odd in format_term(w.term) for w in report.witnesses):
                seen.add("odd term")
    assert seen == {
        "yes", "no", "tuple pairs", "element pairs", "odd yes", "odd no", "odd term"
    }, seen


def test_serialized_witnesses_reverify():
    report = has_k_qwnu(MIN2, 3)
    data = report_to_dict(report, include_witnesses=True)
    for w in data["witnesses"]:
        term = parse_term(w["term"])
        value = verify_local(MIN2, qwnu(3), (w["r"], w["s"]), term)
        assert value == tuple(w["result"])
    report = has_quasi_taylor(MIN2)
    data = report_to_dict(report, include_witnesses=True)
    for w in data["witnesses"]:
        term = parse_term(w["term"])
        assert verify_local(MIN2, qtaylor(), (w["a"], w["b"]), term) == tuple(w["result"])


# name -> (decision, report_to_text with witnesses, elapsed time stripped):
# a witnessed and a refuted report for each pair naming, (r, s), pairs of
# n-tuples and (a, b)
TEXT_REPORTS = {
    "qwnu-k2-min2": (
        lambda: has_k_qwnu(MIN2, 2),
        """\
problem: qwnu
algebra: min2
parameters: k=2
answer: yes
witness (r=0, s=0): x0
  satisfies: t(0,0) = t(0,0) = 0
witness (r=0, s=1): (meet x0 x1)
  satisfies: t(1,0) = t(0,1) = 0
witness (r=1, s=0): (meet x0 x1)
  satisfies: t(0,1) = t(1,0) = 0
witness (r=1, s=1): x0
  satisfies: t(1,1) = t(1,1) = 1
stats: pairs=4 tuples=4 rounds=1
""",
    ),
    "qwnu-k2-proj2": (
        lambda: has_k_qwnu(PROJ2, 2),
        """\
problem: qwnu
algebra: proj2
parameters: k=2
answer: no
refuted at: r=0 s=1
stats: pairs=2 tuples=3 rounds=1
""",
    ),
    "nlocal-n2k2-min2": (
        lambda: has_n_local_k_qwnu(MIN2, 2, 2),
        """\
problem: nlocal-qwnu
algebra: min2
parameters: n=2 k=2
answer: yes
witness (r=(0,0), s=(0,0)): x0
  satisfies: t((0,0),(0,0)) = t((0,0),(0,0)) = (0,0) in every block
witness (r=(0,0), s=(0,1)): (meet x0 x1)
  satisfies: t((0,1),(0,0)) = t((0,0),(0,1)) = (0,0) in every block
witness (r=(0,0), s=(1,0)): (meet x0 x1)
  satisfies: t((1,0),(0,0)) = t((0,0),(1,0)) = (0,0) in every block
witness (r=(0,0), s=(1,1)): (meet x0 x1)
  satisfies: t((1,1),(0,0)) = t((0,0),(1,1)) = (0,0) in every block
witness (r=(0,1), s=(0,0)): (meet x0 x1)
  satisfies: t((0,0),(0,1)) = t((0,1),(0,0)) = (0,0) in every block
witness (r=(0,1), s=(0,1)): x0
  satisfies: t((0,1),(0,1)) = t((0,1),(0,1)) = (0,1) in every block
witness (r=(0,1), s=(1,0)): (meet x0 x1)
  satisfies: t((1,0),(0,1)) = t((0,1),(1,0)) = (0,0) in every block
witness (r=(0,1), s=(1,1)): (meet x0 x1)
  satisfies: t((1,1),(0,1)) = t((0,1),(1,1)) = (0,1) in every block
witness (r=(1,0), s=(0,0)): (meet x0 x1)
  satisfies: t((0,0),(1,0)) = t((1,0),(0,0)) = (0,0) in every block
witness (r=(1,0), s=(0,1)): (meet x0 x1)
  satisfies: t((0,1),(1,0)) = t((1,0),(0,1)) = (0,0) in every block
witness (r=(1,0), s=(1,0)): x0
  satisfies: t((1,0),(1,0)) = t((1,0),(1,0)) = (1,0) in every block
witness (r=(1,0), s=(1,1)): (meet x0 x1)
  satisfies: t((1,1),(1,0)) = t((1,0),(1,1)) = (1,0) in every block
witness (r=(1,1), s=(0,0)): (meet x0 x1)
  satisfies: t((0,0),(1,1)) = t((1,1),(0,0)) = (0,0) in every block
witness (r=(1,1), s=(0,1)): (meet x0 x1)
  satisfies: t((0,1),(1,1)) = t((1,1),(0,1)) = (0,1) in every block
witness (r=(1,1), s=(1,0)): (meet x0 x1)
  satisfies: t((1,0),(1,1)) = t((1,1),(1,0)) = (1,0) in every block
witness (r=(1,1), s=(1,1)): x0
  satisfies: t((1,1),(1,1)) = t((1,1),(1,1)) = (1,1) in every block
stats: pairs=16 tuples=4 rounds=1
""",
    ),
    "nlocal-n2k2-proj2": (
        lambda: has_n_local_k_qwnu(PROJ2, 2, 2),
        """\
problem: nlocal-qwnu
algebra: proj2
parameters: n=2 k=2
answer: no
refuted at: r=(0,0) s=(0,1)
stats: pairs=2 tuples=3 rounds=1
""",
    ),
    "qtaylor-min2": (
        lambda: has_quasi_taylor(MIN2),
        """\
problem: qtaylor
algebra: min2
answer: yes
witness (a=0, b=0): x0
  satisfies: s(0,0,0,0) = s(0,0,0,0) = 0
  satisfies: s(0,0,0,0) = s(0,0,0,0) = 0
witness (a=0, b=1): (meet x0 x1)
  satisfies: s(0,1,0,1) = s(1,0,1,1) = 0
  satisfies: s(1,1,1,0) = s(1,1,0,1) = 1
witness (a=1, b=0): (meet x0 x1)
  satisfies: s(1,0,1,0) = s(0,1,0,0) = 0
  satisfies: s(0,0,0,1) = s(0,0,1,0) = 0
witness (a=1, b=1): x0
  satisfies: s(1,1,1,1) = s(1,1,1,1) = 1
  satisfies: s(1,1,1,1) = s(1,1,1,1) = 1
stats: pairs=4 tuples=6 rounds=1
""",
    ),
    "qtaylor-not2": (
        lambda: has_quasi_taylor(NOT2),
        """\
problem: qtaylor
algebra: not2
answer: no
refuted at: a=0 b=1
stats: pairs=2 tuples=9 rounds=2
""",
    ),
}


@pytest.mark.parametrize("name", TEXT_REPORTS)
def test_text_report_is_pinned(name):
    run, want = TEXT_REPORTS[name]
    text = report_to_text(run(), include_witnesses=True)
    assert re.sub(r" elapsed=\S+", "", text) == want
