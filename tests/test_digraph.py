from __future__ import annotations

import collections
import itertools
import random

import numpy as np
import pytest

from helpers import (
    MIN2,
    NOT2,
    Z2_MINORITY,
    Z3_MALTSEV,
    count_gathered,
    make_algebra,
    patch_chunk,
    record_admissibility_paths,
    relabel,
    scalar_is_admissible,
    walk_net_lengths,
)
from maltsev_lab import (
    Digraph,
    SplitMix64,
    build_G,
    build_S,
    format_digraph,
    generate_subpower,
    has_algebraic_length_one,
    has_loop,
    has_quasi_taylor,
    is_admissible,
    is_smooth,
    parse_digraph,
    random_algebra,
    replay_walk,
    subpower,
)
from maltsev_lab.errors import AlgebraFormatError, ConsistencyError


def cycle_edges(vertices):
    return [(vertices[i], vertices[(i + 1) % len(vertices)]) for i in range(len(vertices))]


def test_is_smooth_examples():
    assert is_smooth(Digraph.from_edges([(0, 0)]))
    assert is_smooth(Digraph.from_edges(cycle_edges([0, 1, 2])))
    assert not is_smooth(Digraph.from_edges([(0, 1)]))


def test_has_loop_examples():
    assert has_loop(Digraph.from_edges([(0, 0)])) == 0
    assert has_loop(Digraph.from_edges([(0, 1), (1, 0)])) is None
    assert has_loop(Digraph.from_edges([(2, 2), (1, 1), (0, 1)])) == 1


def test_algebraic_length_one_shared_cycles():
    # two directed cycles of consecutive lengths sharing a vertex
    g = Digraph.from_edges(cycle_edges([0, 1, 2]) + cycle_edges([0, 3]))
    ok, cert = has_algebraic_length_one(g)
    assert ok
    start, steps = cert
    end, net = replay_walk(g, start, steps)
    assert end == start and net == 1


def test_algebraic_length_one_certificates_are_pinned():
    # the exact walks, so that a change to the spanning tree's order shows:
    # shared cycles; two components where the second answers; tree edges
    # taken backward from a root with no out-edge, once with the chords'
    # combination 2 * 3 - 5; and a 2-cycle 1 <-> 2, where the tree takes
    # vertex 1 by 2's out-step, which comes before its in-steps
    cases = [
        (
            cycle_edges([0, 1, 2]) + cycle_edges([0, 3]),
            (0, (((0, 1), 1), ((1, 2), 1), ((2, 0), 1), ((3, 0), -1), ((0, 3), -1))),
        ),
        (
            cycle_edges([0, 1]) + cycle_edges([2, 3, 4]) + cycle_edges([2, 5]),
            (2, (((2, 3), 1), ((3, 4), 1), ((4, 2), 1), ((5, 2), -1), ((2, 5), -1))),
        ),
        ([(1, 0), (2, 0), (2, 1)], (0, (((2, 0), -1), ((2, 1), 1), ((1, 0), 1)))),
        (
            [(1, 0)] + cycle_edges([1, 2, 3]) + cycle_edges([1, 4, 5, 6, 7]),
            (0, (((1, 0), -1), ((1, 2), 1), ((2, 3), 1), ((3, 1), 1), ((1, 0), 1))
             + (((1, 0), -1), ((1, 2), 1), ((2, 3), 1), ((3, 1), 1), ((1, 0), 1))
             + (((1, 0), -1), ((7, 1), -1), ((6, 7), -1), ((5, 6), -1), ((4, 5), -1),
                ((1, 4), -1), ((1, 0), 1))),
        ),
        (
            [(0, 2), (1, 2), (1, 3), (2, 1), (3, 2)],
            (0, (((0, 2), 1), ((1, 2), -1), ((2, 1), -1), ((0, 2), -1), ((0, 2), 1),
                 ((2, 1), 1), ((1, 3), 1), ((3, 2), 1), ((0, 2), -1))),
        ),
    ]
    for edges, cert in cases:
        assert has_algebraic_length_one(Digraph.from_edges(edges)) == (True, cert), edges


def test_algebraic_length_one_single_cycle_false():
    assert not has_algebraic_length_one(Digraph.from_edges(cycle_edges([0, 1])))[0]
    assert not has_algebraic_length_one(Digraph.from_edges(cycle_edges([0, 1, 2, 3])))[0]


def test_algebraic_length_one_loop():
    ok, cert = has_algebraic_length_one(Digraph.from_edges([(0, 0), (1, 2)], vertices=[0, 1, 2]))
    assert ok
    start, steps = cert
    end, net = replay_walk(Digraph.from_edges([(0, 0), (1, 2)]), start, steps)
    assert end == start and net == 1


def test_a_walk_that_fails_its_replay_is_refused(monkeypatch):
    # the assembled walk is replayed before it is returned: one that ends
    # elsewhere or has another net length is an internal fault
    from maltsev_lab import digraph

    g = Digraph.from_edges(cycle_edges([0, 1, 2]) + cycle_edges([0, 3]))
    for end, net in ((0, 0), (1, 1)):
        monkeypatch.setattr(digraph, "replay_walk", lambda g, start, steps: (end, net))
        with pytest.raises(ConsistencyError, match="assembled walk failed replay"):
            has_algebraic_length_one(g)


def test_algebraic_length_agrees_with_brute_force():
    # exhaustive on 3 vertices, seeded samples on 4 and 5 vertices
    def check(g):
        expected = 1 in walk_net_lengths(g, 2 * len(g.edges) + 1)
        got, cert = has_algebraic_length_one(g)
        assert got == expected, (sorted(g.edges), got, expected)
        if got:
            start, steps = cert
            end, net = replay_walk(g, start, steps)
            assert end == start and net == 1

    pairs3 = list(itertools.product(range(3), repeat=2))
    for mask in range(1 << 9):
        edges = [pairs3[i] for i in range(9) if mask >> i & 1]
        check(Digraph.from_edges(edges, vertices=range(3)))
    rng = random.Random(424242)
    for v in (4, 5):
        pairs = list(itertools.product(range(v), repeat=2))
        for _ in range(400):
            edges = [p for p in pairs if rng.random() < 0.25]
            check(Digraph.from_edges(edges, vertices=range(v)))


def test_is_admissible_examples():
    full = list(itertools.product(range(2), repeat=2))
    assert is_admissible(MIN2, full)
    assert is_admissible(MIN2, [(0, 1)])
    assert not is_admissible(MIN2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        is_admissible(MIN2, [(0, 5)])


def _admissibility_cases(seed, count):
    """Seeded (algebra, generators, relation) triples: operations of arity
    0-3, widths 1-4, relations that are random (some with duplicates),
    empty, generated closures, or such closures without their last tuple.
    Their key spaces are small, so at the default chunk their operations
    take the gather path."""
    rng = random.Random(seed)
    for case in range(count):
        size = rng.randint(1, 3)
        width = rng.randint(1, 4)
        # keep the scalar reference cheap on closed relations
        arities = [m for m in range(4) if (size**width) ** m <= 20000]
        signature = [rng.choice(arities) for _ in range(rng.randint(1, 3))]
        alg = random_algebra(seed + case, size, signature)
        gens = [
            tuple(rng.randrange(size) for _ in range(width))
            for _ in range(rng.randint(1, 4))
        ]
        kind = case % 4
        if case % 25 == 0:
            rel = []
        elif kind == 0:
            rel = gens + [gens[0]]
        elif kind == 1:
            rel = list(generate_subpower(alg, gens).tuples)
        elif kind == 2:
            rel = list(generate_subpower(alg, gens).tuples)[:-1]
        else:
            rel = [
                tuple(rng.randrange(size) for _ in range(width))
                for _ in range(rng.randint(1, size**width))
            ]
        yield alg, gens, rel


def _wide_admissibility_cases(seed, count):
    """Seeded (algebra, generators, relation) triples whose key space n^width
    (2^9 to 2^18) or lifted tables are too large for one gather at the
    default chunk: the check saturates the relation from the first binary
    or ternary operation on, and from the start past 2^16 keys.  Every
    generator's coordinates are copies of one or two base coordinates, and
    so are those of every tuple it generates, so a closure has at most n^2
    tuples.  Relations are closures, closures without their last tuple,
    generators with a duplicate, or random tuples."""
    rng = random.Random(seed)
    for case in range(count):
        size = rng.randint(2, 4)
        width = rng.randint({2: 9, 3: 6, 4: 5}[size], {2: 18, 3: 12, 4: 9}[size])
        signature = [rng.choice([0, 1, 2, 2, 3]) for _ in range(rng.randint(1, 3))]
        alg = random_algebra(seed + case, size, signature)
        # one base coordinate when ternary, so closed checks stay cheap
        base = rng.randint(1, 1 if 3 in signature else 2)
        copies = [rng.randrange(base) for _ in range(width)]
        gens = []
        for _ in range(rng.randint(1, 3)):
            b = [rng.randrange(size) for _ in range(base)]
            gens.append(tuple(b[c] for c in copies))
        kind = case % 4
        if kind == 0:
            rel = gens + [gens[-1]]
        elif kind == 1:
            rel = list(generate_subpower(alg, gens).tuples)
        elif kind == 2:
            rel = list(generate_subpower(alg, gens).tuples)[:-1]
        else:
            rel = [
                tuple(rng.randrange(size) for _ in range(width))
                for _ in range(rng.randint(1, 12))
            ]
        yield alg, gens, rel


_CONST1 = make_algebra("const1", 2, ("c", 0, (1,)))

# small cases named by what they cover, each with its answer
_EDGE_CASES = [
    # nullary operations only, and mixed with others
    (_CONST1, [(1, 1)], True),
    (_CONST1, [(0, 0), (0, 1)], False),
    (_CONST1, [(1,)], True),
    (random_algebra(5, 3, [0, 1]), [(0,), (1,), (2,)], True),
    # unary operations at width 1 and 2
    (NOT2, [(0,), (1,)], True),
    (NOT2, [(0,)], False),
    (NOT2, [(0, 1), (1, 0)], True),
    (NOT2, [(0, 1), (1, 1)], False),
    # ternary operations: the graph of x -> x + 1 is closed under x - y + z
    (Z3_MALTSEV, [(0,), (1,), (2,)], True),
    (Z3_MALTSEV, [(0,), (1,)], False),
    (Z3_MALTSEV, [(0, 1), (1, 2), (2, 0)], True),
    (Z3_MALTSEV, [(0, 1), (1, 2), (2, 2)], False),
    (Z2_MINORITY, [(0, 0, 0), (1, 1, 1), (0, 1, 1), (1, 0, 0)], True),
    # duplicate tuples: more rows than keys, on the gather path and, past
    # 256 rows of a binary operation, in a saturation
    (MIN2, [(0, 1), (0, 1), (0, 0), (0, 0), (0, 1)], True),
    (MIN2, [(1, 0)] * 3 + [(0, 1)] * 3, False),
    (MIN2, [(0,)] * 257 + [(1,)], True),
    (make_algebra("join2", 2, ("j", 2, (0, 1, 1, 1))), [(0,)] * 257 + [(1,)], True),
    (MIN2, [(0, 1)] + [(1, 0)] * 300, False),
]



@pytest.mark.parametrize("chunk", [None, 7])
def test_is_admissible_matches_scalar_check(monkeypatch, chunk):
    # at chunk 7 the first failing combination can lie past a block
    # boundary, so the early exit has to cross blocks
    if chunk is not None:
        patch_chunk(monkeypatch, chunk)
    paths = record_admissibility_paths(monkeypatch)
    for alg, rel, want in _EDGE_CASES:
        assert scalar_is_admissible(alg, rel) == want, (alg.name, rel)
        assert is_admissible(alg, rel) == want, (alg.name, rel)
    answers = []
    cases = itertools.chain(
        _admissibility_cases(8000, 320), _wide_admissibility_cases(8100, 160)
    )
    for alg, _, rel in cases:
        want = scalar_is_admissible(alg, rel)
        assert is_admissible(alg, rel) == want, (alg.name, rel)
        answers.append(want)
    assert answers.count(True) >= 120 and answers.count(False) >= 120
    if chunk is None:
        assert paths["gather"] >= 50 and paths["saturate"] >= 50, paths
    else:
        assert paths["saturate"] >= 50, paths
    # Python int entries are converted to rows only to be saturated
    assert paths["converted"] == paths["saturate"], paths


def test_a_second_check_at_the_same_width_builds_no_table():
    alg = random_algebra(11, 3, [2, 1, 0])
    full = list(itertools.product(range(3), repeat=3))
    assert is_admissible(alg, full)
    built = dict(alg._lifted)
    assert sorted(built) == [("f0", 3), ("f1", 3), ("f2", 3)]
    for rel in (full[:5], full[::2], full):
        is_admissible(alg, rel)
        assert alg._lifted.keys() == built.keys()
        assert all(alg._lifted[key] is table for key, table in built.items())
    # another width gets tables of its own
    assert is_admissible(alg, list(itertools.product(range(3), repeat=2)))
    assert len(alg._lifted) == 6


def test_admissibility_is_invariant_under_relabelling(monkeypatch):
    # (A, R) and its isomorphic copy (perm(A), perm(R)) are both admissible or
    # neither, whichever path checks them; a closure is always admissible,
    # and so is the copy's closure of the mapped generators
    paths = record_admissibility_paths(monkeypatch)
    rng = random.Random(2024)
    cases = itertools.chain(
        _admissibility_cases(9000, 120), _wide_admissibility_cases(9200, 100)
    )
    answers = []
    for alg, gens, rel in cases:
        n = alg.size
        perm = rng.sample(range(n), n)
        copy = relabel(alg, perm)
        image = lambda tuples: [tuple(perm[v] for v in t) for t in tuples]
        answer = is_admissible(alg, rel)
        assert is_admissible(copy, image(rel)) == answer, (alg.name, perm, rel)
        answers.append(answer)
        assert is_admissible(alg, generate_subpower(alg, gens).tuples)
        assert is_admissible(copy, generate_subpower(copy, image(gens)).tuples)
    assert len(answers) >= 200
    assert answers.count(True) >= 50 and answers.count(False) >= 50
    assert paths["gather"] >= 50 and paths["saturate"] >= 50, paths
    assert paths["converted"] == paths["saturate"], paths


def test_is_admissible_wide_tuples_match_scalar_check():
    # 2^62 tuples and more do not fit int64 keys: the tuple fallback runs
    rng = random.Random(64)
    for alg in (MIN2, Z2_MINORITY, random_algebra(2, 2, [0, 1, 2])):
        for width in (61, 62, 64):
            gens = [tuple(rng.randrange(2) for _ in range(width)) for _ in range(3)]
            closure = list(generate_subpower(alg, gens).tuples)
            for rel in (closure, closure[:-1], gens):
                want = scalar_is_admissible(alg, rel)
                assert is_admissible(alg, rel) == want, (alg.name, width, rel)
            assert is_admissible(alg, closure)


def test_is_admissible_errors():
    # the tuples are validated in order; the first defect names the error
    for rel, message in [
        ([(0, 1), (1,)], "relation tuples must have equal width"),
        ([(0, 5)], "relation entry 5 outside universe"),
        ([(0, -1)], "relation entry -1 outside universe"),
        ([(0, 1), (1,), (0, 5)], "relation tuples must have equal width"),
        ([(0, 5), (1,)], "relation entry 5 outside universe"),
        ([(0, 1), (1, 7, 0)], "relation tuples must have equal width"),
    ]:
        for check in (is_admissible, scalar_is_admissible):
            with pytest.raises(ValueError) as info:
                check(MIN2, rel)
            assert str(info.value) == message, (check, rel)
    assert is_admissible(MIN2, []) and is_admissible(MIN2, iter(()))
    # entries that are not integers are refused, not truncated
    for check in (is_admissible, scalar_is_admissible):
        with pytest.raises(TypeError):
            check(MIN2, [(0, 1), (1, 0.5)])
    assert is_admissible(MIN2, [(True, False)])


def test_is_admissible_input_rules():
    # bools and numpy integers are entries; the first bad entry or tuple
    # decides the error, its type and its message
    big = make_algebra("id300", 300, ("f", 1, tuple(range(300))))
    integers = "relation entries must be integers, got float64"
    for alg, rel, want in [
        (MIN2, [(True, False), (0, 0)], True),
        (MIN2, [(np.int64(0), np.uint8(1))], True),
        # numpy promotes uint64 beside a signed integer to float64
        (MIN2, [(np.uint64(0), 0)], True),
        (MIN2, [(np.uint64(1), np.int32(0)), (np.int64(0), np.uint64(1))], False),
        (MIN2, [[0, 1], [1, 0]], False),
        (MIN2, iter([[0, 1]]), True),
        (big, [(299, 256), (0, 255)], True),
        (big, [(0, 300)], ValueError("relation entry 300 outside universe")),
        # six entries, as many as three pairs
        (MIN2, [(0, 1), (0, 1, 1), (0,)], ValueError("relation tuples must have equal width")),
        (MIN2, [(0, 255)], ValueError("relation entry 255 outside universe")),
        (MIN2, [(0, 1), (2**70, 0)], ValueError(f"relation entry {2**70} outside universe")),
        (MIN2, [(1.0, 0)], TypeError(integers)),
        (MIN2, [()], TypeError(integers)),
    ]:
        if isinstance(want, bool):
            assert is_admissible(alg, rel) is want, rel
            continue
        with pytest.raises(type(want)) as info:
            is_admissible(alg, rel)
        assert str(info.value) == str(want), rel


# entry types of a relation: Python ints alone take the keyed path when the
# sizes admit gathers; the others are converted to rows
_ENTRY_MIXES = [
    (int,), (int,), (int,), (int,),
    (bool, int), (np.uint8,), (np.uint8, int), (np.int32,), (np.int64, int),
    (np.uint64, int), (np.uint64, np.int32), (np.uint64, np.int64),
]


def _typed_admissibility_cases(seed, count):
    """Seeded (algebra, relation) pairs for each path of ``is_admissible``.
    Shapes: a binary operation on at most 256 keys (gathers), unary
    operations on 512 to 4096 keys (gathers, with keys past np.uint8), and a
    binary operation on 512 to 4096 keys (saturation).  Every generator's
    coordinates are copies of one or two base coordinates, so a closure has
    at most n^2 tuples.  Relations are closures, closures without their last
    tuple, generators with a duplicate, or random tuples; their entries are
    of one of ``_ENTRY_MIXES`` (a bool only for 0 and 1), and a few
    relations have a tuple of another width or an entry outside the
    universe."""
    rng = random.Random(seed)
    widths = {
        "binary": {2: (1, 8), 3: (1, 5), 4: (1, 4)},
        "unary": {2: (9, 12), 3: (6, 7), 4: (5, 6)},
        "wide": {2: (9, 12), 3: (6, 7), 4: (5, 6)},
    }
    signatures = {
        "binary": [[2], [2, 1], [2, 0]],
        "unary": [[1], [1, 1], [1, 0]],
        "wide": [[2], [2, 1], [2, 0]],
    }
    for case in range(count):
        shape = ("binary", "unary", "wide")[case % 3]
        size = rng.randint(2, 4)
        width = rng.randint(*widths[shape][size])
        alg = random_algebra(seed + case, size, rng.choice(signatures[shape]))
        base = rng.randint(1, 2)
        copies = [rng.randrange(base) for _ in range(width)]
        gens = []
        for _ in range(rng.randint(1, 3)):
            b = [rng.randrange(size) for _ in range(base)]
            gens.append(tuple(b[c] for c in copies))
        kind = rng.randrange(4)
        if kind == 0:
            rel = gens + [gens[-1]]
        elif kind == 1:
            rel = list(generate_subpower(alg, gens).tuples)
        elif kind == 2:
            rel = list(generate_subpower(alg, gens).tuples)[:-1] or gens
        else:
            rel = [
                tuple(rng.randrange(size) for _ in range(width))
                for _ in range(rng.randint(1, 12))
            ]
        mix = rng.choice(_ENTRY_MIXES)

        def typed(v):
            kinds = [t for t in mix if t is not bool or v < 2]
            return rng.choice(kinds)(v)

        rel = [tuple(typed(v) for v in t) for t in rel]
        defect = rng.random()
        if defect < 0.04:
            i = rng.randrange(len(rel))
            rel[i] = rel[i] + (0,) if defect < 0.02 else rel[i][1:]
        elif defect < 0.06:
            i = rng.randrange(len(rel))
            rel[i] = rel[i][:-1] + (typed(size),)
        yield alg, rel


def test_keyed_admissibility_matches_scalar_check_on_typed_entries(monkeypatch):
    # each path (keys of Python ints, rows converted from other entry
    # types, saturation) gives the scalar answer, or its error, and runs
    # at least 100 checks with both answers
    paths = record_admissibility_paths(monkeypatch)
    answers = {path: collections.Counter() for path in ("keyed", "converted", "saturate")}
    errors = 0

    def outcome(check, alg, rel):
        try:
            return check(alg, rel)
        except (TypeError, ValueError) as exc:
            return type(exc), str(exc)

    for alg, rel in _typed_admissibility_cases(31, 900):
        # the scalar check reads the entries' values as Python ints
        want = outcome(scalar_is_admissible, alg, [tuple(map(int, t)) for t in rel])
        before = paths.copy()
        got = outcome(is_admissible, alg, rel)
        assert got == want, (alg.name, rel)
        taken = paths - before
        if isinstance(got, tuple):
            errors += 1
            assert not taken, taken
            continue
        path = (
            "saturate" if taken["saturate"]
            else "converted" if taken["converted"]
            else "keyed"
        )
        assert taken["gather"] or path == "saturate", taken
        answers[path][got] += 1
    assert errors >= 20, errors
    for path, counts in answers.items():
        assert sum(counts.values()) >= 100 and min(counts[True], counts[False]) >= 20, answers


def test_is_admissible_on_one_element_at_any_arity():
    # every relation of a one-element algebra is closed; an arity past
    # numpy's limit on dimensions has no lifted table
    one = make_algebra("one", 1, ("f", 100, (0,)), ("c", 0, (0,)))
    for rel in ([(0,)], [(0, 0, 0)]):
        assert is_admissible(one, rel) and scalar_is_admissible(one, rel)
    assert is_admissible(one, [])


def test_is_admissible_memory_is_bounded_by_the_chunk(monkeypatch):
    # the subpower of A^6 generated by four tuples under x - y + z mod 7 is
    # closed and not all of A^6, so every combination of its 343 rows is
    # checked but those that the symmetry in arguments 0 and 2 repeats:
    # 343 * 343 * 344 / 2 with index 0 at most index 2; one broadcast over
    # all 343^3 needs about 1.9 GB
    import tracemalloc

    alg = make_algebra(
        "z7maltsev", 7,
        ("m", 3, tuple((x - y + z) % 7 for x, y, z in itertools.product(range(7), repeat=3))),
    )
    width = 6
    rng = SplitMix64(11)
    gens = [tuple(rng.below(7) for _ in range(width)) for _ in range(4)]
    rel = generate_subpower(alg, gens).tuples
    assert len(rel) == 343
    is_admissible(alg, rel[:2])  # numpy imports some helpers lazily
    gathered = count_gathered(monkeypatch)
    tracemalloc.start()
    try:
        assert is_admissible(alg, rel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    k = len(rel)
    assert gathered["combinations"] == k * k * (k + 1) // 2 >= 1 << 20
    bound = 6 * subpower._CHUNK * width * 8 + 4 * len(rel) * (width + 1) * 8
    assert peak <= bound, (peak, bound)


def test_build_S_examples():
    assert build_S([(0, 1, 0, 0)], 1) == frozenset({(1, 0)})
    assert build_S([(0, 1, 1, 0)], 1) == frozenset()
    assert build_S([(0, 1, 0, 1), (1, 0, 1, 0)], 1) == frozenset({(1, 1), (0, 0)})
    with pytest.raises(ValueError):
        build_S([(0, 1, 0)], 1)


def test_build_S_accepts_relations():
    # closure of (0,1,0,0) under meet is itself, so S is {(1,0)}; a relation
    # iterates over its tuples, so it is also an admissible relation
    rel = generate_subpower(MIN2, [(0, 1, 0, 0)])
    assert build_S(rel, 1) == frozenset({(1, 0)})
    assert list(rel) == [(0, 1, 0, 0)] and is_admissible(MIN2, rel)


def test_build_G_examples():
    g = build_G([(1, 1, 1)])
    assert g.vertices == ((1,),) and g.edges == frozenset({((1,), (1,))})
    g = build_G([(0, 1, 2)])
    assert set(g.vertices) == {(0,), (1,)}
    assert g.edges == frozenset({((0,), (1,))})
    perms = {p for p in itertools.permutations((0, 1, 2))}
    g = build_G(sorted(perms))
    for t in perms:
        assert (t[:1], t[1:2]) in g.edges
    with pytest.raises(ValueError):
        build_G([(0, 1)])
    with pytest.raises(ValueError):
        build_G([])


def test_build_G_smooth_on_permutation_closed_sets():
    rng = random.Random(11)
    for _ in range(50):
        width = rng.choice([3, 4])
        size = rng.choice([2, 3])
        seeds = {
            tuple(rng.randrange(size) for _ in range(width))
            for _ in range(rng.randint(1, 3))
        }
        closed = {p for t in seeds for p in itertools.permutations(t)}
        g = build_G(sorted(closed))
        assert is_smooth(g), sorted(closed)


def test_loop_lemma_on_admissible_closures():
    # relations closed by generation are admissible; whenever the digraph is
    # smooth with a net-length-one closed walk and the algebra has a quasi
    # Taylor term, a loop must exist
    rng = random.Random(314159)
    instances = 0
    for case in range(150):
        size = rng.choice([2, 3])
        alg = random_algebra(case, size, [2])
        seed_edges = {
            (rng.randrange(size), rng.randrange(size))
            for _ in range(rng.randint(1, 4))
        }
        rel = generate_subpower(alg, sorted(seed_edges))
        edges = rel.as_set()
        assert is_admissible(alg, edges)
        g = Digraph.from_edges(edges, vertices=range(size))
        if not is_smooth(g):
            continue
        if not has_algebraic_length_one(g)[0]:
            continue
        if not has_quasi_taylor(alg).answer:
            continue
        instances += 1
        assert has_loop(g) is not None, (case, sorted(edges))
    assert instances > 10


def test_digraph_format_roundtrip():
    g = Digraph.from_edges([(0, 1), (1, 2), (2, 0)], vertices=range(4))
    text = format_digraph(g)
    again = parse_digraph(text)
    assert set(again.edges) == set(g.edges)
    assert len(again.vertices) == 4


def test_digraph_format_roundtrip_is_exact():
    # digraphs on 0..count-1, isolated vertices and the empty one included
    rng = random.Random(5)
    graphs = [Digraph(vertices=(), edges=frozenset())]
    for count in range(1, 7):
        edges = [(u, v) for u in range(count) for v in range(count) if rng.random() < 0.3]
        graphs.append(Digraph.from_edges(edges, vertices=range(count)))
    for g in graphs:
        assert parse_digraph(format_digraph(g)) == g


def test_format_digraph_refuses_labels_that_do_not_round_trip():
    # the header declares 0..count-1: a gap would come back as isolated
    # vertices, and a negative label would not parse at all
    gap = Digraph.from_edges([(0, 5), (5, 0)])
    assert is_smooth(gap)
    with pytest.raises(ValueError, match=r"vertices 0\.\.1"):
        format_digraph(gap)
    with pytest.raises(ValueError, match=r"vertices 0\.\.1"):
        format_digraph(Digraph.from_edges([(-1, 0), (0, -1)]))
    with pytest.raises(ValueError, match="integer-labeled"):
        format_digraph(Digraph.from_edges([(0, True)]))
    with pytest.raises(ValueError, match="integer-labeled"):
        format_digraph(Digraph.from_edges([("a", "b")]))


def test_parse_digraph_errors():
    with pytest.raises(AlgebraFormatError):
        parse_digraph("")
    with pytest.raises(AlgebraFormatError):
        parse_digraph("graph 3\n0 1\n")
    with pytest.raises(AlgebraFormatError):
        parse_digraph("digraph 2\n0 5\n")
    with pytest.raises(AlgebraFormatError):
        parse_digraph("digraph 2\n0\n")
