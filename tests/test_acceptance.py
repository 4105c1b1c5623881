"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain -v shows one pass/fail line per criterion through the test
names.  The scaling measurement also writes benchmark_report.txt at the
repository root.
"""
from __future__ import annotations

import itertools
import math
import random
import time
from pathlib import Path

import numpy as np

from helpers import (
    ALL_BINARY2,
    MIN2,
    PROJ2,
    Z2_MINORITY,
    Z3_MALTSEV,
    naive_subpower,
)
from maltsev_lab import (
    Digraph,
    generate_subpower,
    has_algebraic_length_one,
    has_k_qwnu,
    has_k_wnu_idemp,
    has_loop,
    has_n_local_k_qwnu,
    has_quasi_taylor,
    is_admissible,
    is_smooth,
    minimal_unary_idempotent,
    nlocal,
    oracle_find_quasi_siggers,
    oracle_find_qwnu,
    qtaylor,
    qwnu,
    random_algebra,
    unary_term_monoid,
    verify_local,
)
from maltsev_lab.algebra import flat_index


def _passed(n, label):
    print(f"ACCEPTANCE {n} ({label}): PASS")


def test_criterion_01_oracle_agreement_exhaustive():
    for alg in ALL_BINARY2:
        for k in (2, 3):
            table, complete = oracle_find_qwnu(alg, k)
            decided = has_k_qwnu(alg, k).answer
            if table is not None:
                assert decided, (alg.name, k)
            else:
                assert complete, (alg.name, k)
                assert not decided, (alg.name, k)
        table, complete = oracle_find_quasi_siggers(alg)
        decided = has_quasi_taylor(alg).answer
        if table is not None:
            assert decided, alg.name
        else:
            assert complete, alg.name
            assert not decided, alg.name
    _passed(1, "oracle agreement on all 16 two-element binary algebras")


def test_criterion_02_named_verdicts():
    cases = [
        (MIN2, 2, True),
        (MIN2, 3, True),
        (MIN2, 4, True),
        (MIN2, 5, True),
        (PROJ2, 2, False),
        (PROJ2, 3, False),
        (Z2_MINORITY, 3, True),
        (Z3_MALTSEV, 2, True),
        (Z3_MALTSEV, 3, False),
    ]
    for alg, k, expected in cases:
        # oracle first, then the polynomial path, then witness replay
        table, complete = oracle_find_qwnu(alg, k)
        if expected:
            assert table is not None, (alg.name, k)
        else:
            assert table is None and complete, (alg.name, k)
        report = has_k_qwnu(alg, k)
        assert report.answer == expected, (alg.name, k)
        if expected:
            for w in report.witnesses:
                assert verify_local(alg, qwnu(k), w.pair, w.term) == w.result
    _passed(2, "named verdicts, oracle-confirmed, witnesses replayed")


def _corpus_mixed(count):
    signatures = [[2], [3], [1, 2], [2, 2], [1, 3], [2, 3]]
    for i in range(count):
        yield random_algebra(i, (i % 3) + 1, signatures[i % len(signatures)])


def test_criterion_03_witness_soundness():
    failures = 0
    for alg in _corpus_mixed(200):
        for k in (2, 3):
            report = has_k_qwnu(alg, k)
            if report.answer:
                for w in report.witnesses:
                    if verify_local(alg, qwnu(k), w.pair, w.term) != w.result:
                        failures += 1
        report = has_quasi_taylor(alg)
        if report.answer:
            for w in report.witnesses:
                if verify_local(alg, qtaylor(), w.pair, w.term) != w.result:
                    failures += 1
    assert failures == 0
    _passed(3, "witness soundness on 200 random algebras")


def test_criterion_04_local_monotonicity():
    violations = []
    for i in range(100):
        size = 2 if i % 2 else 3
        signature = [1, 2] if i % 10 == 7 else [2]
        alg = random_algebra(i, size, signature)
        if not has_n_local_k_qwnu(alg, 1, 3).answer:
            continue
        r2 = has_n_local_k_qwnu(alg, 2, 3)
        r3 = has_n_local_k_qwnu(alg, 3, 3)
        if not r2.answer or not r3.answer:
            violations.append((alg.name, r2.answer, r3.answer))
        else:
            for w in r3.witnesses[:3]:
                assert verify_local(alg, nlocal(3, 3), w.pair, w.term) == w.result
    assert violations == []
    _passed(4, "1-local => 2-local => 3-local on 100 random algebras")


def test_criterion_05_idempotent_quasi_equivalence():
    disagreements = []
    signatures = [[2], [3], [1, 2]]
    for i in range(100):
        alg = random_algebra(i, (i % 3) + 1, signatures[i % 3], idempotent=True)
        for k in (2, 3):
            if has_k_wnu_idemp(alg, k).answer != has_k_qwnu(alg, k).answer:
                disagreements.append((alg.name, k))
    assert disagreements == []
    _passed(5, "wnu-idemp equals qwnu on 100 idempotent algebras")


def test_criterion_06_idempotent_image():
    violations = []
    signatures = [[2], [1], [1, 2], [2, 2]]
    for i in range(100):
        alg = random_algebra(i, (i % 3) + 1, signatures[i % 4])
        alpha, b = minimal_unary_idempotent(alg)
        if alpha.compose(alpha).images != alpha.images:
            violations.append((alg.name, "not idempotent"))
        if alpha.image() != b:
            violations.append((alg.name, "image mismatch"))
        for u in unary_term_monoid(alg):
            if set(u.images) < set(b):
                violations.append((alg.name, "smaller image exists"))
                break
    assert violations == []
    _passed(6, "minimal idempotent unary image on 100 random algebras")


def _admissible_pair_relations(alg):
    """All subsets of the 16 pairs over universe^2 closed under the operation,
    as width-4 tuple sets (vertex labels are pairs)."""
    n = alg.size
    op = alg.ops[0]
    elems = list(itertools.product(range(n), repeat=4))
    pos = {e: i for i, e in enumerate(elems)}
    comp = [
        [
            pos[
                tuple(
                    op.table[flat_index((a[c], b[c]), n)] for c in range(4)
                )
            ]
            for b in elems
        ]
        for a in elems
    ]
    count = len(elems)
    masks = np.arange(1 << count, dtype=np.uint32)
    violated = np.zeros(masks.shape, dtype=bool)
    for i in range(count):
        bit_i = (masks >> i) & 1
        for j in range(count):
            bit_j = (masks >> j) & 1
            bit_k = (masks >> comp[i][j]) & 1
            violated |= (bit_i & bit_j & (1 - bit_k)).astype(bool)
    closed = np.nonzero(~violated)[0]
    out = []
    for mask in closed.tolist():
        out.append([elems[i] for i in range(count) if mask >> i & 1])
    return out


def test_criterion_07_loop_lemma_spot_check():
    counterexamples = []
    instances = 0
    for alg in ALL_BINARY2:
        quasi_taylor = has_quasi_taylor(alg).answer
        # every edge set over the two-element universe itself
        pairs = list(itertools.product(range(2), repeat=2))
        edge_sets = []
        for mask in range(1 << 4):
            edge_sets.append([pairs[i] for i in range(4) if mask >> i & 1])
        # every admissible edge set over the squared universe: vertices are
        # pairs, an edge is a width-4 tuple, up to 4 vertices per digraph
        edge_sets += [
            [((a, b), (c, d)) for a, b, c, d in rel]
            for rel in _admissible_pair_relations(alg)
        ]
        for edges in edge_sets:
            if not edges:
                continue
            width = 2 if isinstance(edges[0][0], int) else 4
            flat = (
                edges
                if width == 2
                else [(u[0], u[1], v[0], v[1]) for u, v in edges]
            )
            if not is_admissible(alg, flat):
                continue
            g = Digraph.from_edges(edges)
            if not is_smooth(g):
                continue
            if not has_algebraic_length_one(g)[0]:
                continue
            if not quasi_taylor:
                continue
            instances += 1
            if has_loop(g) is None:
                counterexamples.append((alg.name, sorted(edges)))
    assert counterexamples == []
    assert instances > 50
    _passed(7, f"loop lemma holds on {instances} smooth length-one instances")


def test_criterion_08_qwnu_implies_quasi_taylor():
    offenders = []
    algebras = list(_corpus_mixed(200))
    algebras += [MIN2, PROJ2, Z2_MINORITY, Z3_MALTSEV] + ALL_BINARY2
    for i in range(100):
        algebras.append(random_algebra(i, (i % 3) + 1, [[2], [3], [1, 2]][i % 3], idempotent=True))
    for alg in algebras:
        if any(has_k_qwnu(alg, k).answer for k in (2, 3)):
            if not has_quasi_taylor(alg).answer:
                offenders.append(alg.name)
    assert offenders == []
    _passed(8, f"qwnu implies quasi Taylor across {len(algebras)} algebras")


def test_criterion_09_subpower_engine_equivalence():
    rng = random.Random(90125)
    differences = []
    for case in range(500):
        size = rng.randint(1, 3)
        signature = [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
        alg = random_algebra(case, size, signature)
        width = rng.randint(1, 4)
        gens = [
            tuple(rng.randrange(size) for _ in range(width))
            for _ in range(rng.randint(1, 4))
        ]
        if generate_subpower(alg, gens).as_set() != naive_subpower(alg, gens):
            differences.append((case, alg.name, gens))
    assert differences == []
    _passed(9, "engine equals naive closure on 500 seeded instances")


def test_criterion_10_polynomial_scaling_smoke():
    k = 2
    rows = []
    for n in range(2, 9):
        times = []
        for seed in (1, 2, 3):
            alg = random_algebra(seed * 1000 + n, n, [2])
            t0 = time.perf_counter()
            report = has_k_qwnu(alg, k)
            times.append(time.perf_counter() - t0)
        per_pair = sorted(times)[1] / (n * n)
        rows.append((n, sorted(times)[1], per_pair))
    xs = [math.log(n) for n, _, _ in rows]
    ys = [math.log(max(t, 1e-7)) for _, t, _ in rows]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    denom = sum((x - mx) ** 2 for x in xs)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / denom
    lines = [
        "scaling smoke test: has_k_qwnu, k=2, one random binary operation",
        "growth envelope: per-pair generation is expected within degree "
        f"k*arity = {k * 2}; total adds the n^2 pair factor (informational, "
        "not a hard gate)",
        "n  total_s  per_pair_s",
    ]
    for n, total, per_pair in rows:
        lines.append(f"{n}  {total:.6f}  {per_pair:.8f}")
    lines.append(f"fitted log-log slope of total runtime: {slope:.2f}")
    report_text = "\n".join(lines) + "\n"
    out_path = Path(__file__).resolve().parent.parent / "benchmark_report.txt"
    out_path.write_text(report_text)
    print(report_text)
    assert len(rows) == 7
    _passed(10, f"scaling measurements recorded (slope {slope:.2f})")
