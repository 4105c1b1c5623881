"""Golden reports: every decision procedure must reproduce its committed JSON
report byte for byte, witness terms included, with ``elapsed_seconds``
removed.  The corpus pins which witness term each pair gets, so a change to
the pair sweep or the term evaluator that alters a report shows here.

Regenerate (only for a deliberate change of reports) with

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest

from helpers import (
    MIN2,
    NOT2,
    PROJ2,
    Z2_MINORITY,
    Z3_MALTSEV,
    make_algebra,
    patch_chunk,
    record_closure_paths,
)
from maltsev_lab import (
    decision,
    has_k_qwnu,
    has_k_wnu_idemp,
    has_n_local_k_qwnu,
    has_quasi_taylor,
    random_algebra,
    report_to_json,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def _affine(n):
    table = tuple((x - y + z) % n for x, y, z in itertools.product(range(n), repeat=3))
    return make_algebra(f"affine{n}", n, ("m", 3, table))


def _commutative_idempotent(seed, n, planted=False):
    rows = random_algebra(seed, n, [2]).ops[0].table
    table = [rows[min(a, b) * n + max(a, b)] for a in range(n) for b in range(n)]
    for a in range(n):
        table[a * n + a] = a
    if planted:
        # the top two elements form a projection subalgebra: no WNU
        table[(n - 2) * n + n - 1] = n - 2
        table[(n - 1) * n + n - 2] = n - 1
    name = f"comm{seed}n{n}" + ("planted" if planted else "")
    return make_algebra(name, n, ("f", 2, tuple(table)))


# a constant next to a binary operation, and a 4-ary operation
NULLARY3 = make_algebra(
    "nullary3",
    3,
    ("c", 0, (2,)),
    ("f", 2, tuple(random_algebra(11, 3, [2]).ops[0].table)),
)
MAJ4ARY2 = make_algebra(
    "quat2",
    2,
    ("q", 4, tuple(int(sum(a) >= 2) for a in itertools.product(range(2), repeat=4))),
)
MEET4 = make_algebra(
    "meet4", 4, ("meet", 2, tuple(min(a, b) for a, b in itertools.product(range(4), repeat=2)))
)

# (name, procedure, algebra, extra arguments)
CASES = [
    ("qwnu-k2-min2", has_k_qwnu, MIN2, (2,)),
    ("qwnu-k2-proj2", has_k_qwnu, PROJ2, (2,)),
    ("qwnu-k3-min2", has_k_qwnu, MIN2, (3,)),
    ("qwnu-k3-proj2", has_k_qwnu, PROJ2, (3,)),
    ("qwnu-k2-not2", has_k_qwnu, NOT2, (2,)),
    ("qwnu-k2-z3maltsev", has_k_qwnu, Z3_MALTSEV, (2,)),
    ("qwnu-k3-z3maltsev", has_k_qwnu, Z3_MALTSEV, (3,)),
    ("qwnu-k2-z2minority", has_k_qwnu, Z2_MINORITY, (2,)),
    ("qwnu-k3-z2minority", has_k_qwnu, Z2_MINORITY, (3,)),
    ("qwnu-k2-affine4", has_k_qwnu, _affine(4), (2,)),
    ("qwnu-k3-affine5", has_k_qwnu, _affine(5), (3,)),
    # 4^9 tuples: keyed when the dense limit is 2^16 keys
    ("qwnu-k9-meet4", has_k_qwnu, MEET4, (9,)),
    ("qwnu-k4-quat2", has_k_qwnu, MAJ4ARY2, (4,)),
    ("qwnu-k2-nullary3", has_k_qwnu, NULLARY3, (2,)),
    ("qwnu-k3-nullary3", has_k_qwnu, NULLARY3, (3,)),
]
CASES += [
    (f"qwnu-k{k}-random{seed}n{n}", has_k_qwnu, random_algebra(seed, n, sig), (k,))
    for seed, n, sig, k in [
        (0, 3, [2], 2),
        (1, 4, [2], 2),
        (2, 3, [1, 2], 2),
        (3, 4, [2], 3),
        (4, 3, [2], 3),
        (5, 3, [1, 2], 3),
    ]
]
CASES += [
    (f"wnu-k{k}-{alg.name}", has_k_wnu_idemp, alg, (k,))
    for alg, k in [
        (_commutative_idempotent(0, 5), 2),
        (_commutative_idempotent(0, 5), 3),
        (_commutative_idempotent(1, 6), 3),
        (_commutative_idempotent(2, 5, planted=True), 3),
        (_commutative_idempotent(3, 6, planted=True), 2),
        (random_algebra(6, 3, [2], idempotent=True), 3),
        (Z2_MINORITY, 3),
    ]
]
CASES += [
    ("nlocal-n2k2-min2", has_n_local_k_qwnu, MIN2, (2, 2)),
    ("nlocal-n1k2-proj2", has_n_local_k_qwnu, PROJ2, (1, 2)),
    ("nlocal-n2k3-random7n3", has_n_local_k_qwnu, random_algebra(7, 3, [2]), (2, 3)),
    ("nlocal-n2k2-random8n3", has_n_local_k_qwnu, random_algebra(8, 3, [2]), (2, 2)),
    ("nlocal-n2k3-nullary3", has_n_local_k_qwnu, NULLARY3, (2, 3)),
]
CASES += [
    (f"qtaylor-{alg.name}", has_quasi_taylor, alg, ())
    for alg in [
        MIN2,
        PROJ2,
        NOT2,
        Z3_MALTSEV,
        _affine(6),
        NULLARY3,
        MAJ4ARY2,
        random_algebra(9, 5, [2]),
        random_algebra(10, 6, [2]),
        random_algebra(12, 4, [1, 2]),
        random_algebra(13, 3, [1]),
    ]
]


def render(procedure, alg, args) -> str:
    """The report as ``check --json --witness`` prints it, minus elapsed time."""
    report = json.loads(report_to_json(procedure(alg, *args), include_witnesses=True))
    del report["stats"]["elapsed_seconds"]
    return json.dumps(report, indent=2) + "\n"


def test_case_names_are_unique():
    names = [name for name, *_ in CASES]
    assert len(names) == len(set(names))
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(names)


@pytest.mark.parametrize("name,procedure,alg,args", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(name, procedure, alg, args):
    want = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert render(procedure, alg, args) == want


def test_reports_do_not_depend_on_the_sweep_block(monkeypatch):
    # blocks of 3 pairs make every known term cross block boundaries; with
    # the dense limit at 2^16 keys, the corpus has closures on both sides
    monkeypatch.setattr(decision, "_PAIR_BLOCK", 3)
    patch_chunk(monkeypatch, 1 << 16)
    paths = record_closure_paths(monkeypatch)
    for name, procedure, alg, args in CASES:
        want = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
        assert render(procedure, alg, args) == want, name
    assert paths["dense"] >= 100 and paths["keyed"] >= 1, paths


def test_reports_do_not_depend_on_the_saturation_chunk(monkeypatch):
    # chunks of 7 combinations make duplicates within a round cross chunk
    # boundaries, which the bulk commit must resolve in first-occurrence order
    patch_chunk(monkeypatch, 7)
    paths = record_closure_paths(monkeypatch)
    for name, procedure, alg, args in CASES:
        want = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
        assert render(procedure, alg, args) == want, name
    assert paths["keyed"] >= 100 and paths["dense"] >= 1, paths


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, procedure, alg, args in CASES:
        (GOLDEN / f"{name}.json").write_text(render(procedure, alg, args), encoding="utf-8")
