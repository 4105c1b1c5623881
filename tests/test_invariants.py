"""Invariants the theory guarantees above the oracle's reach.

The decision procedures check each other: a qWNU is a quasi Taylor term,
and an idempotent algebra is Taylor exactly when it has a WNU of every
prime arity above its size (Barto and Kozik, LMCS 8(1), 2012; Maróti and
McKenzie, Algebra Universalis 59, 2008).  And A and A x A satisfy the same
identities, so every condition has the same verdict on both.
"""
from __future__ import annotations

import collections
import itertools

from helpers import make_algebra, record_admissibility_paths
from maltsev_lab import (
    decide,
    decision,
    has_k_qwnu,
    has_k_wnu_idemp,
    has_quasi_taylor,
    qtaylor,
    qwnu,
    random_algebra,
)


def square(alg):
    """A x A: the pair (a, b) is a * n + b, and each operation acts on both
    coordinates."""
    n = alg.size
    ops = []
    for op in alg.ops:
        table = op.table
        entries = []
        for args in itertools.product(range(n * n), repeat=op.arity):
            left = right = 0
            for x in args:
                left, right = left * n + x // n, right * n + x % n
            entries.append(table[left] * n + table[right])
        ops.append((op.symbol, op.arity, entries))
    return make_algebra(f"{alg.name}^2", n * n, *ops)


def test_a_qwnu_is_a_quasi_taylor_term():
    counts = collections.Counter()
    for seed in range(200):
        alg = random_algebra(seed, 3 + seed % 3, [[2], [1, 2]][seed % 2])
        qwnu_found = any(has_k_qwnu(alg, k).answer for k in (2, 3))
        taylor = has_quasi_taylor(alg).answer
        assert taylor or not qwnu_found, seed
        counts[qwnu_found, taylor] += 1
    assert counts[True, True] >= 100 and counts[False, False] >= 10, counts


def test_idempotent_quasi_taylor_is_a_wnu_of_prime_arity_above_the_size():
    # 5 is a prime above |A| <= 4
    counts = collections.Counter()
    for seed in range(120):
        alg = random_algebra(seed, 3 + seed % 2, [2], idempotent=True)
        answer = has_quasi_taylor(alg).answer
        assert has_k_wnu_idemp(alg, 5).answer == answer, seed
        counts[answer] += 1
    assert min(counts[True], counts[False]) >= 30, counts


def test_an_algebra_and_its_square_have_the_same_verdicts(monkeypatch):
    # every "no" on A x A is proved by the closedness check, with the
    # pattern's group where the closure is too large for one gather
    paths = record_admissibility_paths(monkeypatch, decision)
    counts = collections.Counter()
    for seed in range(200):
        alg = random_algebra(seed, 2 + seed % 2, [[2], [1, 2]][seed % 2])
        pair = square(alg)
        for problem in (qwnu(2), qwnu(3), qtaylor()):
            answer = decide(alg, problem).answer
            assert decide(pair, problem).answer == answer, (seed, problem.name)
            counts[answer] += 1
    assert counts[True] >= 300 and counts[False] >= 60, counts
    assert paths["gather"] and paths["blocked"], paths
