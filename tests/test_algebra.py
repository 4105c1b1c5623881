from __future__ import annotations

import itertools
import os
import random
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from helpers import (
    CLIP3,
    MIN2,
    NOT2,
    ONE1,
    Z2_MINORITY,
    make_algebra,
    naive_unary_maps,
    random_dag_term,
    scalar_evaluate,
)
from maltsev_lab import (
    Apply,
    FiniteAlgebra,
    Operation,
    UnaryMap,
    Variable,
    evaluate_columns,
    evaluate_term,
    random_algebra,
    induced_image_algebra,
    is_idempotent,
    minimal_unary_idempotent,
    restrict_to_image,
    term_table,
    unary_term_monoid,
)
from maltsev_lab.algebra import flat_index, term_arity
from maltsev_lab.errors import BudgetExceededError, ConsistencyError, TermError

MEET = Apply("meet", (Variable(0), Variable(1)))
MEET_NESTED = Apply("f", (Variable(0), Apply("f", (Variable(1), Variable(2)))))
# f(0, 0) = 0 and f(1, 1) = 1, but f(0, 1) = 2
K3 = make_algebra("k3", 3, ("f", 2, (0, 2, 0, 2, 1, 1, 0, 1, 2)))


def test_algebra_validation():
    with pytest.raises(ValueError):
        FiniteAlgebra("empty", 2, ())
    with pytest.raises(ValueError):
        FiniteAlgebra("tiny", 0, (Operation("f", 1, ()),))
    with pytest.raises(ValueError):
        make_algebra("short", 2, ("f", 2, (0, 0, 0)))
    with pytest.raises(ValueError):
        make_algebra("range", 2, ("f", 1, (0, 2)))
    with pytest.raises(ValueError):
        make_algebra("dup", 2, ("f", 1, (0, 1)), ("f", 1, (1, 0)))


def test_huge_arity_table_is_refused_promptly():
    # the one-entry table cannot hold 3^(10^8) entries: refused before the
    # power is taken, which would run for minutes
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"table has 1 entries, expected 3\^100000000"):
        FiniteAlgebra("a", 3, (Operation("f", 10**8, (0,)),))
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ValueError, match=r"table has 3 entries, expected 2\^2"):
        make_algebra("short", 2, ("f", 2, (0, 0, 0)))
    # on one element every arity has a one-entry table
    alg = FiniteAlgebra("one", 1, (Operation("f", 10**8, (0,)),))
    assert alg.operation("f").arity == 10**8


def test_lifted_table_is_the_operation_on_row_keys():
    for seed, size, signature, width in [
        (1, 2, [0, 1, 2, 3], 3),
        (2, 3, [2, 1, 0], 2),
        (3, 4, [3], 1),
        (4, 1, [2, 0], 4),
        (5, 3, [1], 4),
    ]:
        alg = random_algebra(seed, size, signature)
        rows = list(itertools.product(range(size), repeat=width))
        for op in alg.ops:
            table = alg.lifted_table(op.symbol, width)
            assert table.shape == (size**width,) * op.arity
            assert not table.flags.writeable
            assert alg.lifted_table(op.symbol, width) is table
            for keys in itertools.product(range(size**width), repeat=op.arity):
                image = tuple(
                    op.table[flat_index([rows[r][c] for r in keys], size)]
                    for c in range(width)
                )
                assert rows[table[keys]] == image, (seed, op.symbol, keys)


def test_lifted_table_build_memory_is_bounded_by_its_size():
    # the largest table a check builds: 2^16 keys of width 16, unary.  It is
    # built one coordinate at a time, in about five arrays of its size; the
    # digits of all 16 coordinates at once would take more than 16
    import tracemalloc

    from maltsev_lab import is_admissible, subpower

    alg = random_algebra(9, 2, [1])
    width = 16
    assert (2**width) ** 1 == subpower._CHUNK
    is_admissible(alg, [(0, 1)])  # numpy imports some helpers lazily
    rel = [(0,) * width, (1,) * width]
    tracemalloc.start()
    try:
        is_admissible(alg, rel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the check built it
    assert alg._lifted[("f0", width)].size == subpower._CHUNK
    bound = 6 * subpower._CHUNK * 8
    assert peak <= bound, (peak, bound)


def test_total_table_size():
    assert MIN2.total_table_size == 4
    assert Z2_MINORITY.total_table_size == 8


def test_evaluate_term_examples():
    big = make_algebra("six", 6, ("f", 1, tuple(range(6))))
    assert evaluate_term(big, Variable(0), (5,)) == 5
    assert evaluate_term(MIN2, MEET, (0, 1)) == 0
    min3 = make_algebra(
        "min3", 3,
        ("f", 2, tuple(min(a, b) for a, b in itertools.product(range(3), repeat=2))),
    )
    assert evaluate_term(min3, MEET_NESTED, (2, 1, 0)) == 0


def test_evaluate_term_errors():
    with pytest.raises(TermError):
        evaluate_term(MIN2, Apply("join", (Variable(0), Variable(1))), (0, 1))
    with pytest.raises(TermError):
        evaluate_term(MIN2, Apply("meet", (Variable(0),)), (0, 1))
    with pytest.raises(TermError):
        evaluate_term(MIN2, MEET, (0, 2))
    with pytest.raises(TermError):
        evaluate_term(MIN2, MEET, (0,))


def test_evaluate_columns_agrees_with_scalar_reference():
    rng = random.Random(2002)
    signatures = ([2], [0, 2], [1, 3], [0, 1, 2, 3])
    for seed in range(40):
        alg = random_algebra(seed, 2 + seed % 4, signatures[seed % len(signatures)])
        k = 1 + seed % 4
        term = random_dag_term(rng, alg, k, nodes=1 + seed % 12)
        cols = np.array(
            [[rng.randrange(alg.size) for _ in range(25)] for _ in range(k)]
        )
        got = evaluate_columns(alg, term, cols)
        assert got.shape == (25,)
        want = [scalar_evaluate(alg, term, tuple(cols[:, w])) for w in range(25)]
        assert got.tolist() == want


def test_evaluate_columns_shares_subterms():
    # 60 nested self-compositions: a tree walk would visit 2^60 nodes
    t = Variable(0)
    for _ in range(60):
        t = Apply("meet", (t, t))
    cols = np.array([[0, 1, 1]])
    assert evaluate_columns(MIN2, t, cols).tolist() == [0, 1, 1]


def test_evaluate_columns_errors():
    # the columns' range and shape are checked first, whatever the term
    for bad, message in [
        ([[0, 1], [1, 2]], "argument 2 outside universe of size 2"),
        ([[0, -1], [1, 1]], "argument -1 outside universe of size 2"),
        ([0, 1], "argument columns must have shape (k, W), got (2,)"),
        ([[[0, 1], [1, 1]]], "argument columns must have shape (k, W), got (1, 2, 2)"),
    ]:
        for term in (MEET, Variable(0), Apply("join", ())):
            with pytest.raises(TermError, match=re.escape(message)):
                evaluate_columns(MIN2, term, np.array(bad))
    cols = np.array([[0, 1], [1, 1]])
    # a variable's values are a copy, not a row of the columns
    evaluate_columns(MIN2, Variable(1), cols)[:] = 0
    assert cols.tolist() == [[0, 1], [1, 1]]
    with pytest.raises(TermError, match="unknown operation"):
        evaluate_columns(MIN2, Apply("join", (Variable(0), Variable(1))), cols)
    with pytest.raises(TermError, match="expects 2 children"):
        evaluate_columns(MIN2, Apply("meet", (Variable(0),)), cols)
    with pytest.raises(TermError, match="x2"):
        evaluate_columns(MIN2, Apply("meet", (Variable(0), Variable(2))), cols)
    with pytest.raises(TermError, match="shape"):
        evaluate_columns(MIN2, MEET, np.array([0, 1]))


def test_term_table_examples():
    assert term_table(MIN2, Variable(0), 2) == (0, 0, 1, 1)
    assert term_table(MIN2, MEET, 2) == (0, 0, 0, 1)
    assert term_table(MIN2, Apply("meet", (Variable(0), Variable(0))), 1) == (0, 1)


def test_term_table_agrees_with_evaluate():
    terms = [
        (MIN2, MEET, 3),
        (Z2_MINORITY, Apply("m", (Variable(0), Variable(1), Variable(2))), 3),
        (NOT2, Apply("neg", (Apply("neg", (Variable(0),)),)), 2),
        (CLIP3, Apply("g", (Variable(1),)), 2),
    ]
    for alg, t, k in terms:
        table = term_table(alg, t, k)
        for args in itertools.product(range(alg.size), repeat=k):
            assert table[flat_index(args, alg.size)] == evaluate_term(alg, t, args)


def test_term_arity():
    assert term_arity(Variable(3)) == 4
    assert term_arity(MEET) == 2
    assert term_arity(Apply("c", ())) == 0


def test_is_idempotent_examples():
    assert is_idempotent(MIN2)
    assert not is_idempotent(NOT2)
    assert not is_idempotent(CLIP3)


def test_unary_term_monoid_examples():
    # derived expectations from the independent naive fixed point
    for alg, expected in [
        (MIN2, {(0, 1)}),
        (NOT2, {(0, 1), (1, 0)}),
        (CLIP3, {(0, 1, 2), (0, 1, 1)}),
    ]:
        got = {u.images for u in unary_term_monoid(alg)}
        assert got == naive_unary_maps(alg) == expected


def test_unary_term_monoid_closure_properties():
    from maltsev_lab import random_algebra

    for seed in range(20):
        alg = random_algebra(seed, (seed % 3) + 1, [[2], [1]][seed % 2])
        monoid = unary_term_monoid(alg)
        members = {u.images for u in monoid}
        assert tuple(range(alg.size)) in members
        for u, v in itertools.product(monoid, repeat=2):
            assert u.compose(v).images in members
        for op in alg.ops:
            for combo in itertools.product(monoid, repeat=op.arity):
                new = tuple(
                    op.table[flat_index((u.images[x] for u in combo), alg.size)]
                    for x in range(alg.size)
                )
                assert new in members


def test_unary_term_monoid_budget():
    # NOT2 has two maps, the identity and negation; the identity counts
    assert len(unary_term_monoid(NOT2, budget=2)) == 2
    with pytest.raises(BudgetExceededError, match="^unary term monoid exceeds budget of 1 maps$"):
        unary_term_monoid(NOT2, budget=1)
    # the identity alone always fits, even under a budget of 0
    assert len(unary_term_monoid(ONE1, budget=0)) == 1
    with pytest.raises(BudgetExceededError, match="budget of 0 maps"):
        unary_term_monoid(NOT2, budget=0)


def test_minimal_unary_idempotent_examples():
    alpha, b = minimal_unary_idempotent(MIN2)
    assert alpha.images == (0, 1) and b == (0, 1)
    alpha, b = minimal_unary_idempotent(NOT2)
    assert alpha.images == (0, 1) and b == (0, 1)
    alpha, b = minimal_unary_idempotent(CLIP3)
    assert alpha.images == (0, 1, 1) and b == (0, 1)


def test_minimal_unary_idempotent_invariants():
    from maltsev_lab import random_algebra

    for seed in range(40):
        alg = random_algebra(seed, (seed % 3) + 1, [[2], [1, 2], [1]][seed % 3])
        alpha, b = minimal_unary_idempotent(alg)
        assert alpha.compose(alpha).images == alpha.images
        assert alpha.image() == b
        for u in unary_term_monoid(alg):
            assert not set(u.images) < set(b)


def test_minimal_image_is_the_least_inclusion_minimal_image():
    # in a monoid of maps the inclusion-minimal images are those of least
    # size, so selecting by size picks what the pairwise scan picks
    from maltsev_lab import random_algebra

    shrinking = ties = 0
    for seed in range(400):
        size = 2 + seed % 3
        alg = random_algebra(seed, size, [[1], [2], [1, 1], [1, 2]][seed // 3 % 4])
        images = {frozenset(u.images) for u in unary_term_monoid(alg)}
        minimal = [img for img in images if not any(other < img for other in images)]
        _, b = minimal_unary_idempotent(alg)
        assert b == min(tuple(sorted(img)) for img in minimal), seed
        assert {len(img) for img in minimal} == {len(b)}, seed
        shrinking += len(b) < size
        ties += len(minimal) > 1
    assert shrinking >= 100 and ties >= 50, (shrinking, ties)


def test_a_minimal_image_that_is_not_permuted_is_refused(monkeypatch):
    # both image constructions check that a map permutes the image it
    # works on before they invert it; a monoid that is not closed under
    # composition, or an alpha that is not idempotent on its image, breaks
    # that
    from maltsev_lab import algebra

    monkeypatch.setattr(algebra, "unary_term_monoid", lambda alg, budget: (UnaryMap((1, 2, 2)),))
    with pytest.raises(ConsistencyError, match="unary map is not a permutation"):
        minimal_unary_idempotent(CLIP3)
    monkeypatch.setattr(
        algebra, "minimal_unary_idempotent", lambda alg, budget: (UnaryMap((0, 0)), (0, 1))
    )
    with pytest.raises(ConsistencyError, match="diagonal map is not a permutation"):
        induced_image_algebra(MIN2)
    # an alpha of its own that sends a value of an operation outside the
    # image is an internal fault too
    monkeypatch.setattr(
        algebra, "minimal_unary_idempotent", lambda alg, budget: (UnaryMap((0, 1, 2)), (0, 1))
    )
    with pytest.raises(ConsistencyError, match="to 2, outside the minimal image"):
        induced_image_algebra(K3)


def test_a_caller_alpha_that_does_not_permute_the_image_is_refused():
    # restrict_to_image is public: an alpha whose diagonal map does not
    # permute the image is the caller's error, a ValueError and not the
    # internal ConsistencyError
    with pytest.raises(ValueError, match="diagonal map is not a permutation"):
        restrict_to_image(MIN2, UnaryMap((0, 0)), (0, 1), MEET, 2)
    neg_term = Apply("neg", (Variable(0),))
    with pytest.raises(ValueError, match="diagonal map is not a permutation"):
        restrict_to_image(NOT2, UnaryMap((1, 1)), (0, 1), neg_term, 1)
    # so is an alpha that permutes the image on the diagonal but sends
    # another value of the term outside it: f(0, 1) = 2 and alpha(2) = 2
    f_term = Apply("f", (Variable(0), Variable(1)))
    with pytest.raises(ValueError, match="to 2, outside the minimal image"):
        restrict_to_image(K3, UnaryMap((0, 1, 2)), (0, 1), f_term, 2)


def _power(u, d):
    """u composed with itself d times, for d >= 1."""
    power = u
    for _ in range(d - 1):
        power = power.compose(u)
    return power


def _least_idempotent_power(u):
    power = u
    while power.compose(power) != power:
        power = power.compose(u)
    return power


def _cyclic_algebra(f):
    """The unary f and a binary g with g(x, x) = f(x) that mixes its
    arguments elsewhere."""
    n = len(f)
    g = tuple(f[x] if x == y else (x + 2 * y + 1) % n for x in range(n) for y in range(n))
    return make_algebra(f"cyc{n}", n, ("f", 1, f)), make_algebra(
        f"cyc{n}g", n, ("f", 1, f), ("g", 2, g)
    )


# f permutes its image {0..n-2} with order 3, 4, 5, 6 (one 6-cycle, and a
# 2-cycle beside a 3-cycle), and sends the last element into it
CYCLIC_MAPS = {
    3: [(1, 2, 0, 0)],
    4: [(1, 2, 3, 0, 0)],
    5: [(1, 2, 3, 4, 0, 0)],
    6: [(1, 2, 3, 4, 5, 0, 0), (1, 0, 3, 4, 2, 0)],
}


def test_minimal_unary_idempotent_is_the_least_idempotent_power():
    # alpha is pinned to the least idempotent power of the first map with
    # the minimal image, found by composition; the permutations here have
    # order 3 to 6, where a permutation is not its own inverse
    for order, maps in CYCLIC_MAPS.items():
        for f in maps:
            alg, _ = _cyclic_algebra(f)
            monoid = unary_term_monoid(alg)
            b = tuple(range(len(f) - 1))
            base = next(u for u in monoid if u.image() == b)
            assert base.images == f
            alpha, image = minimal_unary_idempotent(alg)
            assert image == b
            assert alpha == _least_idempotent_power(base), f
            assert _power(base, order) == alpha != _power(base, order - 1)
    alg, _ = _cyclic_algebra((1, 2, 0, 0))
    assert minimal_unary_idempotent(alg)[0].images == (0, 1, 2, 2)
    # order 6, exponent 5 is the inverse
    fifth = _power(UnaryMap((1, 0, 3, 4, 2, 0)), 5)
    assert {b: fifth.images[b] for b in range(5)} == {0: 1, 1: 0, 2: 4, 3: 2, 4: 3}


def test_restrict_to_image_is_the_inverse_corrected_term():
    # the table is beta^p . alpha . t for the least p >= 1 with beta^(p+1)
    # the identity on B, p found by composition; beta has order 2 to 6
    f_term = Apply("f", (Variable(0),))
    g_term = Apply("g", (Variable(0), Variable(1)))
    fg_term = Apply("f", (g_term,))
    orders = set()
    for maps in CYCLIC_MAPS.values():
        for f in maps:
            # alpha and B of f alone: g adds maps to the monoid
            unary, alg = _cyclic_algebra(f)
            alpha, b = minimal_unary_idempotent(unary)
            for t, arity in ((f_term, 1), (g_term, 2), (fg_term, 2)):
                beta = UnaryMap(
                    tuple(alpha.images[scalar_evaluate(alg, t, (a,) * arity)] for a in range(alg.size))
                )
                p = 1
                while any(_power(beta, p + 1).images[x] != x for x in b):
                    p += 1
                orders.add(p + 1)
                beta_p = _power(beta, p)
                expected = tuple(
                    beta_p.images[alpha.images[scalar_evaluate(alg, t, args)]]
                    for args in itertools.product(b, repeat=arity)
                )
                assert restrict_to_image(alg, alpha, b, t, arity) == expected, (f, t)
    assert {3, 4, 5, 6} <= orders, orders


def test_restrict_to_image_examples():
    # idempotent term on an idempotent algebra: the table of the term itself
    alpha = UnaryMap((0, 1))
    assert restrict_to_image(MIN2, alpha, (0, 1), MEET, 2) == (0, 0, 0, 1)
    # negation: beta has order 2, the corrected operation is the identity
    neg_term = Apply("neg", (Variable(0),))
    assert restrict_to_image(NOT2, UnaryMap((0, 1)), (0, 1), neg_term, 1) == (0, 1)
    # clip: beta is the identity on the image, g corrects to the identity
    alpha, b = minimal_unary_idempotent(CLIP3)
    g_term = Apply("g", (Variable(0),))
    assert restrict_to_image(CLIP3, alpha, b, g_term, 1) == (0, 1)


def test_restrict_to_image_idempotent_and_closed():
    from maltsev_lab import random_algebra

    for seed in range(30):
        alg = random_algebra(seed, (seed % 3) + 1, [[2], [1, 2], [3]][seed % 3])
        alpha, b = minimal_unary_idempotent(alg)
        for op in alg.ops:
            t = Apply(op.symbol, tuple(Variable(i) for i in range(op.arity)))
            table = restrict_to_image(alg, alpha, b, t, op.arity)
            assert all(v in set(b) for v in table)
            for i, a in enumerate(b):
                diag = flat_index((i,) * op.arity, len(b))
                assert table[diag] == a


def test_induced_image_algebra_is_idempotent():
    from maltsev_lab import random_algebra

    for seed in range(30):
        alg = random_algebra(seed, (seed % 3) + 1, [2])
        induced, alpha, b = induced_image_algebra(alg)
        assert induced.size == len(b)
        assert is_idempotent(induced)


def test_reimport_releases_old_classes():
    # re-importing the package must not keep earlier copies of its classes
    # alive (a typing.Union alias would, through typing's cache)
    script = """
import gc, importlib, sys, weakref
refs = []
for _ in range(4):
    for name in [m for m in sys.modules if m.startswith("maltsev_lab")]:
        del sys.modules[name]
    refs.append(weakref.ref(importlib.import_module("maltsev_lab").Apply))
gc.collect()
print(sum(r() is not None for r in refs))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "1"
