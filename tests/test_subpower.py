from __future__ import annotations

import collections
import dataclasses
import functools
import itertools
import json
import math
import re

import numpy as np
import pytest

from helpers import (
    MIN2,
    PROJ2,
    Z2_MINORITY,
    count_gathered,
    is_dense,
    make_algebra,
    naive_subpower,
    patch_chunk,
    record_closure_paths,
    reference_closure,
    scalar_is_admissible,
    table_bytes,
)
from maltsev_lab import (
    Apply,
    BlockRepeat,
    Variable,
    evaluate_term,
    extract_witness,
    find_block_repeat,
    generate_subpower,
    generate_until,
    random_algebra,
    SplitMix64,
    subpower,
    unary_term_monoid,
)
from maltsev_lab.algebra import flat_index
from maltsev_lab.errors import BudgetExceededError, ConsistencyError

GENS3 = [(0, 1, 1), (1, 0, 1), (1, 1, 0)]


def test_projection_closure_adds_nothing():
    rel = generate_subpower(PROJ2, [(0, 1), (1, 0)])
    assert rel.as_set() == {(0, 1), (1, 0)}


def test_min_closure_contains_constant():
    rel = generate_subpower(MIN2, GENS3)
    assert (0, 0, 0) in rel
    assert rel.as_set() == naive_subpower(MIN2, GENS3)


def test_minority_closure_contains_constant():
    rel = generate_subpower(Z2_MINORITY, GENS3)
    assert (0, 0, 0) in rel
    assert rel.as_set() == naive_subpower(Z2_MINORITY, GENS3)


def test_generator_validation():
    with pytest.raises(ValueError):
        generate_subpower(MIN2, [])
    with pytest.raises(ValueError):
        generate_subpower(MIN2, [()])
    with pytest.raises(ValueError):
        generate_subpower(MIN2, [(0, 1), (0,)])
    with pytest.raises(ValueError):
        generate_subpower(MIN2, [(0, 2)])
    # entries that are not integers are refused, not truncated to a row
    # that the generators would not show; the range is checked first
    floats = "generator entries must be integers, got float64"
    for run in (generate_subpower, lambda alg, gens: generate_until(alg, gens, bool)):
        with pytest.raises(TypeError, match=floats):
            run(MIN2, [(0, 1.5), (1, 0)])
        with pytest.raises(TypeError, match=floats):
            run(MIN2, [(0, 1.0)])
        with pytest.raises(ValueError, match="generator entry 2 outside universe"):
            run(MIN2, [(0, 1.5), (2, 0)])
    rel = generate_subpower(MIN2, [(True, False), (np.int64(0), np.uint8(1))])
    assert rel.as_set() == {(1, 0), (0, 1), (0, 0)}
    # uint64 beside a signed integer, which numpy promotes to float64
    for signed in (0, np.int32(0), np.int64(0), np.bool_(False)):
        rel = generate_subpower(MIN2, [(np.uint64(1), signed), (signed, np.uint64(1))])
        assert rel.as_set() == {(1, 0), (0, 1), (0, 0)}, type(signed)


def _nested_validation(tuples, n, noun):
    """Validation through one nested-sequence conversion of the tuples: the
    reference for the flat conversion of ``_tuple_keys`` and ``_rows``."""
    width = len(tuples[0])
    for t in tuples:
        if len(t) != width:
            raise ValueError(f"{noun} tuples must have equal width")
        for v in t:
            if not 0 <= v < n:
                raise ValueError(f"{noun} entry {v} outside universe")
    rows = np.array(tuples)
    integers = (int, np.integer, np.bool_)
    entries = [v for t in tuples for v in t]
    if rows.dtype.kind == "f" and entries and all(isinstance(v, integers) for v in entries):
        # uint64 beside a signed integer promotes to float64: the entries
        # are integers all the same
        rows = np.array(tuples, dtype=np.int64)
    if rows.dtype.kind not in "biu":
        raise TypeError(f"{noun} entries must be integers, got {rows.dtype}")
    return rows


def _validated_rows(tuples, n, noun):
    subpower._tuple_keys(tuples, n, noun)
    return subpower._rows(tuples, noun)


def _validation_outcome(validate, tuples, n):
    try:
        rows = validate(tuples, n, "relation")
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return rows.dtype.kind, rows.shape, rows.tolist()


def test_validation_matches_the_nested_conversion():
    # a seeded corpus of Python ints and bools, numpy scalars of three
    # dtypes, floats, entries outside the universe, width-0 and ragged
    # tuples, and np.uint8(255) among wider entries of a 300-element
    # universe: one flat conversion gives the rows and dtype kind of the
    # nested one, or the same exception and message
    import random

    rng = random.Random(29)
    kinds = {
        "int": lambda n: rng.randrange(n),
        "bool": lambda n: rng.random() < 0.5,
        "uint8": lambda n: np.uint8(rng.randrange(min(n, 256))),
        "int32": lambda n: np.int32(rng.randrange(n)),
        "uint64": lambda n: np.uint64(rng.randrange(n)),
        "float": lambda n: rng.choice([0.0, 1.0, 0.5]),
        "outside": lambda n: rng.choice([n, -1, 2**70]),
    }
    outcomes = collections.Counter()
    for case in range(2000):
        n = rng.choice([2, 300])
        width = rng.choice([0, 1, 2, 3, 4])
        mix = rng.sample(sorted(kinds), rng.choice([1, 1, 2]))
        weights = [1 if k in ("float", "outside") else 20 for k in mix]

        def entry():
            return kinds[rng.choices(mix, weights)[0]](n)

        tuples = [tuple(entry() for _ in range(width)) for _ in range(rng.randint(1, 4))]
        if n == 300 and width >= 2 and rng.random() < 0.3:
            t = list(tuples[-1])
            t[rng.randrange(width)] = np.uint8(255)
            tuples[-1] = tuple(t)
        if rng.random() < 0.1:
            i = rng.randrange(len(tuples))
            tuples[i] = tuples[i] + (0,) if rng.random() < 0.5 else tuples[i][1:]
        want = _validation_outcome(_nested_validation, tuples, n)
        got = _validation_outcome(_validated_rows, tuples, n)
        assert got == want, (case, tuples, n)
        outcomes[want[0] if isinstance(want[0], str) else want[0].__name__] += 1
    assert all(outcomes[k] >= 50 for k in ("b", "i", "u", "TypeError", "ValueError")), outcomes


def test_budget_error():
    with pytest.raises(BudgetExceededError):
        generate_subpower(MIN2, GENS3, budget=3)


def test_find_constant():
    # a constant tuple is the repeat of a block of width 1
    rel = generate_subpower(PROJ2, [(0, 1), (1, 0)])
    assert find_block_repeat(rel, 1, rel.width) is None
    rel = generate_subpower(MIN2, GENS3)
    assert find_block_repeat(rel, 1, rel.width) == (0,)
    rel = generate_subpower(PROJ2, [(0, 0), (1, 1)])
    assert find_block_repeat(rel, 1, rel.width) == (0,)  # least of {0, 1}


def test_find_block_repeat():
    rel = generate_subpower(PROJ2, [(0, 1, 0, 1)])
    assert find_block_repeat(rel, 2, 2) == (0, 1)
    rel = generate_subpower(PROJ2, [(0, 1, 1, 0)])
    assert find_block_repeat(rel, 2, 2) is None
    rel = generate_subpower(PROJ2, [(1, 1, 1, 1), (0, 1, 0, 1)])
    assert find_block_repeat(rel, 2, 2) == (0, 1)
    with pytest.raises(ValueError):
        find_block_repeat(rel, 3, 2)


def test_negation_diagonal_closure_has_no_qqrr():
    # closing the columns of the diagonal a/b matrix under negation gives
    # eight tuples and no (q,q,r,r) member
    from helpers import NOT2

    cols = [tuple(0 if i == j else 1 for i in range(4)) for j in range(4)]
    rel = generate_subpower(NOT2, cols)
    assert len(rel) == 8
    assert not any(t[0] == t[1] and t[2] == t[3] for t in rel.tuples)


def test_extract_witness_generator():
    rel = generate_subpower(MIN2, GENS3)
    w = extract_witness(rel, (1, 0, 1))
    assert w.term == Variable(1)


def test_extract_witness_replays():
    for alg in (MIN2, Z2_MINORITY):
        rel = generate_subpower(alg, GENS3)
        for target in rel.tuples:
            w = extract_witness(rel, target)
            replay = tuple(
                evaluate_term(alg, w.term, [g[c] for g in rel.generators])
                for c in range(rel.width)
            )
            assert replay == target
    with pytest.raises(ValueError):
        extract_witness(generate_subpower(MIN2, GENS3), (9, 9, 9))


def test_extract_witness_from_a_row_needs_no_lookup(monkeypatch):
    # a witness walked from a row position is the one of that row's tuple,
    # found without looking the tuple up; a position outside the relation
    # is refused
    rels = [generate_subpower(alg, GENS3) for alg in (MIN2, Z2_MINORITY)]
    wants = [[extract_witness(rel, t) for t in rel.tuples] for rel in rels]

    def no_lookup(rel, t):
        raise AssertionError("looked a tuple up")

    monkeypatch.setattr(subpower.TupleRelation, "_position", no_lookup)
    for rel, want in zip(rels, wants):
        assert [extract_witness(rel, row=i) for i in range(len(rel))] == want
        for bad in (-1, len(rel)):
            with pytest.raises(ValueError, match=f"row {bad} is not in the relation"):
                extract_witness(rel, row=bad)


def test_a_wrong_derivation_fails_its_replay(monkeypatch):
    # the extraction replays its term on the generator rows and compares the
    # values' key with the row's: a relation whose records derive a row that
    # its term does not produce is refused.  Meet and join differ on
    # distinct parents, so every derived row whose record has its operation
    # swapped is wrong, and so is every row under another key.  A record
    # whose ranges start one row earlier gives its rows other parents, all
    # of earlier rounds: a row is refused exactly when they give another
    # tuple.  Each key dtype is covered: int64 keys of a dense and of a
    # keyed closure, and Python int keys of generators 21 copies wide (2^63
    # keys)
    lattice = make_algebra("lattice2", 2, ("meet", 2, (0, 0, 0, 1)), ("join", 2, (0, 1, 1, 1)))
    paths = record_closure_paths(monkeypatch)
    rels = [generate_subpower(lattice, GENS3), generate_subpower(lattice, [g * 21 for g in GENS3])]
    patch_chunk(monkeypatch, 4)
    rels.append(generate_subpower(lattice, GENS3))
    assert paths == {"dense": 1, "tuple": 1, "keyed": 1}
    for rel in rels:
        assert len(rel) == 8
        shifted = refused = 0
        for i in range(len(rel)):
            message = re.escape(f"expected {rel.tuples[i]}")
            assert extract_witness(rel, row=i).target == rel.tuples[i]
            keys = rel.keys.copy()
            keys[i] = (keys[i] + 1) % 2**rel.width
            with pytest.raises(ConsistencyError, match="witness replay produced"):
                extract_witness(dataclasses.replace(rel, keys=keys), row=i)
            r = max(j for j, start in enumerate(rel.starts) if start <= i)
            o, block = rel.records[r]
            if o < 0:
                continue
            records = list(rel.records)
            records[r] = (1 - o, block)
            with pytest.raises(ConsistencyError, match=message):
                extract_witness(dataclasses.replace(rel, records=records), row=i)
            prefix, ranges = block
            if not any(q.start for q in ranges):
                continue
            earlier = tuple(range(q.start - 1, q.stop - 1) if q.start else q for q in ranges)
            records[r] = (o, (prefix, earlier))
            tampered = dataclasses.replace(rel, records=records)
            step = [0] * len(prefix) + [1 if q.start else 0 for q in ranges]
            a, b = (rel.tuples[p - d] for p, d in zip(rel.parents[i], step))
            table = lattice.ops[o].table
            image = tuple(table[2 * x + y] for x, y in zip(a, b))
            shifted += 1
            if image == rel.tuples[i]:
                assert extract_witness(tampered, row=i).target == image
            else:
                refused += 1
                with pytest.raises(ConsistencyError, match=message):
                    extract_witness(tampered, row=i)
        assert shifted >= 1 and refused >= 1, (shifted, refused)


def test_a_derivation_from_a_later_row_is_refused(monkeypatch):
    # a closure derives each row from earlier rows only; a decoded parent at
    # or after its row, here the row itself or the last row, is refused at
    # once instead of growing the walk
    rel = generate_subpower(MIN2, GENS3)
    last = len(rel) - 1
    derivation = subpower.TupleRelation._derivation
    calls = 0

    for row, parent in ((last, last), (last - 1, last)):
        assert derivation(rel, row)[0] >= 0

        def later_parent(rel, i):
            nonlocal calls
            calls += 1
            assert calls < 1000, "the walk did not end"
            o, parents = derivation(rel, i)
            return (o, [parent, *parents[1:]]) if i == row else (o, parents)

        monkeypatch.setattr(subpower.TupleRelation, "_derivation", later_parent)
        with pytest.raises(ConsistencyError, match=f"row {row} is derived from a row at or after it"):
            extract_witness(rel, row=row)


def test_idempotent_closure():
    rel = generate_subpower(Z2_MINORITY, GENS3)
    again = generate_subpower(Z2_MINORITY, list(rel.tuples))
    assert again.as_set() == rel.as_set()


def test_generate_until_hit_and_miss():
    rel, hit = generate_until(MIN2, GENS3, lambda t: len(set(t)) == 1)
    assert hit is not None
    assert rel.tuples[hit] == (0, 0, 0)
    assert not rel.complete
    rel, hit = generate_until(PROJ2, [(0, 1)], lambda t: len(set(t)) == 1)
    assert hit is None and rel.complete


def test_brute_force_equivalence_corpus():
    # random algebras and generators, engine vs the independent closure
    import random

    rng = random.Random(20240817)
    for case in range(300):
        size = rng.randint(1, 3)
        signature = [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
        alg = random_algebra(case, size, signature)
        width = rng.randint(1, 4)
        gens = [
            tuple(rng.randrange(size) for _ in range(width))
            for _ in range(rng.randint(1, 4))
        ]
        rel = generate_subpower(alg, gens)
        assert rel.as_set() == naive_subpower(alg, gens), (case, alg.name, gens)


def test_permutation_equivariance():
    import random

    rng = random.Random(7)
    for case in range(60):
        size = rng.randint(2, 3)
        alg = random_algebra(case, size, [2])
        width = rng.randint(2, 3)
        gens = [
            tuple(rng.randrange(size) for _ in range(width)) for _ in range(3)
        ]
        perm = list(range(3))
        rng.shuffle(perm)
        permuted = [gens[p] for p in perm]
        rel = generate_subpower(alg, gens)
        rel_p = generate_subpower(alg, permuted)
        assert rel.as_set() == rel_p.as_set()
        # renaming variables by the permutation keeps witnesses valid
        target = rel.tuples[-1]
        w = extract_witness(rel, target)
        renamed_args = lambda c: [permuted[j][c] for j in range(3)]
        inverse = {p: j for j, p in enumerate(perm)}

        def rename(node):
            from maltsev_lab import Apply, Variable as V

            if isinstance(node, V):
                return V(inverse[node.index])
            return Apply(node.symbol, tuple(rename(ch) for ch in node.children))

        renamed = rename(w.term)
        replay = tuple(
            evaluate_term(alg, renamed, renamed_args(c)) for c in range(width)
        )
        assert replay == target


def test_monotonicity_in_generators():
    import random

    rng = random.Random(99)
    for case in range(40):
        size = rng.randint(1, 3)
        alg = random_algebra(case, size, [2])
        width = rng.randint(1, 3)
        gens = [tuple(rng.randrange(size) for _ in range(width)) for _ in range(2)]
        extra = tuple(rng.randrange(size) for _ in range(width))
        small = generate_subpower(alg, gens)
        large = generate_subpower(alg, gens + [extra])
        assert small.as_set() <= large.as_set()


def test_derivation_replay_exact():
    rel = generate_subpower(Z2_MINORITY, GENS3)
    for i, (symbol, parents) in enumerate(rel.derivations):
        if symbol is None:
            assert rel.tuples[i] == rel.generators[parents[0]]
            continue
        op = rel.algebra.operation(symbol)
        out = tuple(
            op.table[
                sum(
                    rel.tuples[p][c] * rel.algebra.size ** (op.arity - 1 - j)
                    for j, p in enumerate(parents)
                )
            ]
            for c in range(rel.width)
        )
        assert out == rel.tuples[i]
        assert all(p < i for p in parents)


def test_nullary_operation_closure():
    alg = random_algebra(0, 3, [2])
    from maltsev_lab import FiniteAlgebra, Operation

    with_const = FiniteAlgebra(
        "withc", 3, alg.ops + (Operation("c", 0, (2,)),)
    )
    rel = generate_subpower(with_const, [(0, 1)])
    assert (2, 2) in rel
    assert rel.as_set() == naive_subpower(with_const, [(0, 1)])


def _reference_cases(seed, count):
    """Seeded closures on random algebras: operations of arity 0-4 (an
    arity only where the scalar reference stays cheap), widths 1-4, and
    generator lists that are random, repeat a tuple, or are all of A^w."""
    import random

    rng = random.Random(seed)
    for case in range(count):
        size = rng.randint(1, 3)
        width = rng.randint(1, 4)
        arities = [m for m in range(5) if (size**width) ** m <= 20000]
        signature = [rng.choice(arities) for _ in range(rng.randint(1, 3))]
        alg = random_algebra(seed + case, size, signature)
        if case % 10 == 0:
            gens = list(itertools.product(range(size), repeat=width))
            rng.shuffle(gens)
        else:
            gens = [
                tuple(rng.randrange(size) for _ in range(width))
                for _ in range(rng.randint(1, 4))
            ]
            if case % 10 == 1:
                gens.append(gens[0])
        yield rng, alg, gens


def _as_reference(rel, hit=None):
    return list(rel.tuples), list(rel.derivations), rel.rounds, hit


def _assert_arrays_match(rel, alg, want):
    """Every record holds a row and is a block (op_id, (prefix, ranges)) of
    the operation's arity (1 for the generators, op -1) that its rows'
    positions are in; the relation's rows, op ids and parents (-1 past each
    arity) are the reference's tuples and derivations, and so is each row's
    derivation decoded alone from its record."""
    ends = rel.starts[1:] + [len(rel)]
    assert len(rel.records) == len(rel.starts) and rel.starts[0] == 0
    assert all(start < end for start, end in zip(rel.starts, ends)), rel.starts
    for (o, block), start, end in zip(rel.records, rel.starts, ends):
        prefix, ranges = block
        assert type(prefix) is tuple and all(type(r) is range for r in ranges), block
        assert len(prefix) + len(ranges) == (1 if o < 0 else alg.ops[o].arity), block
        size = math.prod(map(len, ranges))
        assert 0 <= rel.positions[start:end].min() <= rel.positions[start:end].max() < size
    tuples, derivations = want[0][:len(rel)], want[1][:len(rel)]
    symbols = [op.symbol for op in alg.ops]
    op_ids, parents = [], []
    for symbol, args in derivations:
        op_ids.append(-1 if symbol is None else symbols.index(symbol))
        parents.append(list(args) + [-1] * (rel.parents.shape[1] - len(args)))
    assert rel.rows.tolist() == [list(t) for t in tuples]
    assert rel.op_ids.tolist() == op_ids
    assert rel.parents.tolist() == parents
    assert [rel._derivation(i) for i in range(len(rel))] == [
        (o, list(args)) for o, (_, args) in zip(op_ids, derivations)
    ]


def _assert_budget_raise_matches(alg, gens, want):
    """A closure with a budget between its generators and its size raises
    at a block, and its state then holds the reference's first rows, with
    their derivations.  Returns whether the closure had room to raise."""
    distinct = len(set(map(tuple, gens)))
    if len(want[0]) == distinct:
        return False
    budget = (distinct + len(want[0])) // 2
    tuples = [tuple(g) for g in gens]
    subpower._tuple_keys(tuples, alg.size, "generator")
    rows = subpower._rows(tuples, "generator")
    state = subpower._Closure(alg, rows, budget, None)
    with pytest.raises(BudgetExceededError):
        state.run()
    rel = state.relation()
    assert distinct <= len(rel) <= budget
    _assert_arrays_match(rel, alg, want)
    return True


def _force_layout(monkeypatch, layout):
    """Every closure from now on cuts its rows into width-1 chunks ("ones"),
    or reads them as one chunk where its lifted tables hold at most 2^16
    entries ("single"); "selected" keeps the engine's rule."""
    choose = subpower._layout

    def forced(n, width, arity, chunk):
        if layout == "ones":
            return subpower._Layout(n, (1,) * width)
        if layout == "single" and (n**width) ** max(arity, 1) <= 1 << 16:
            return subpower._Layout(n, (width,))
        return choose(n, width, arity, chunk)

    if layout != "selected":
        monkeypatch.setattr(subpower, "_layout", forced)


@pytest.mark.parametrize("chunk", [None, 7, 1])
def test_engine_matches_reference_closure(monkeypatch, chunk):
    # the engine commits exactly the scalar reference's tuples, derivations
    # and rounds, whatever the chunk size; chunks of 7 or 1 make a round's
    # duplicates and a rectangle's rows cross chunk boundaries, and put most
    # cases above the dense limit n^width <= _CHUNK
    _check_reference_cases(monkeypatch, chunk, "selected")


@pytest.mark.parametrize("layout", ["ones", "single"])
@pytest.mark.parametrize("chunk", [None, 7, 1])
def test_forced_layouts_match_reference_closure(monkeypatch, chunk, layout):
    # however a row is cut into chunks, the closure is the same
    _check_reference_cases(monkeypatch, chunk, layout)


def _check_reference_cases(monkeypatch, chunk, layout):
    if chunk is not None:
        patch_chunk(monkeypatch, chunk)
    _force_layout(monkeypatch, layout)
    paths = record_closure_paths(monkeypatch)
    full_power = generators_full = grouped = split = raised = 0
    for rng, alg, gens in _reference_cases(4000, 240):
        label = (alg.name, gens)
        width = len(gens[0])
        arity = max(op.arity for op in alg.ops)
        widths = subpower._layout(alg.size, width, arity, subpower._CHUNK).widths
        assert sum(widths) == width and max(widths) - min(widths) <= 1, label
        grouped += len(widths) < width
        split += 1 < len(widths) < width
        want = reference_closure(alg, gens)
        rel = generate_subpower(alg, gens)
        assert _as_reference(rel) == want, label
        _assert_arrays_match(rel, alg, want)
        full = alg.size ** width
        full_power += len(rel) == full
        generators_full += len(set(gens)) == full
        if len(set(gens)) == full:
            assert rel.rounds == 1, label
        # a stop at a random member: the prefix up to it, cut mid-block
        target = rng.choice(want[0])
        until = reference_closure(alg, gens, lambda t: t == target)
        got, hit = generate_until(alg, gens, lambda t: t == target)
        assert _as_reference(got, hit) == until, label
        _assert_arrays_match(got, alg, until)
        assert got.complete is False
        # and a budget that a block exceeds
        raised += _assert_budget_raise_matches(alg, gens, want)
    assert full_power >= 60 and generators_full >= 20 and raised >= 100, raised
    if layout == "selected" and chunk is None:
        # most rows are read a few coordinates per chunk
        assert grouped >= 50, grouped
    if layout == "selected" and chunk == 7:
        # and some through more than one chunk of width 2 or more
        assert split >= 10, split
    if chunk is None:
        assert paths == {"dense": 480 + raised}
    else:
        assert paths["dense"] >= 100 and paths["keyed"] >= 100, paths


class _Counted:
    """A key-form stop that counts its per-tuple calls and masked keys."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.masked = 0

    def __call__(self, t):
        self.calls += 1
        return self.inner(t)

    def key_mask(self, keys, n, width):
        self.masked += len(keys)
        return self.inner.key_mask(keys, n, width)


class _Tabled(_Counted):
    """A ``_Counted`` stop that also offers the key table a dense closure
    reads instead of the mask; counts the tables fetched."""

    tables = 0

    def key_table(self, n, width):
        self.tables += 1
        return self.inner.key_table(n, width)


class _Never:
    """A key-form stop that never fires."""

    def __call__(self, t):
        return False

    def key_mask(self, keys, n, width):
        return np.zeros(len(keys), dtype=bool)


@pytest.mark.parametrize("chunk", [None, 7, 1])
def test_mask_stop_matches_the_per_tuple_stop(monkeypatch, chunk):
    # a stop with a key mask tests a block's fresh keys at once and must end
    # where the same predicate, called tuple by tuple, ends; the per-tuple
    # form is called on the committed tuples in order and never past the
    # hit, and the key form is never called per tuple.  Every other case
    # offers a key table too, which a dense closure reads in place of the
    # mask, so both forms stop dense closures
    if chunk is not None:
        patch_chunk(monkeypatch, chunk)
    paths = record_closure_paths(monkeypatch)
    later = misses = 0
    forms = collections.Counter()
    for case, (rng, alg, gens) in enumerate(_reference_cases(4000, 240)):
        width = len(gens[0])
        block = rng.choice([b for b in range(1, width) if width % b == 0] or [width])
        label = (alg.name, gens, block)
        stop = (_Tabled if case % 2 else _Counted)(BlockRepeat(block))
        rel, hit = generate_until(alg, gens, stop)
        dense = alg.size**width <= subpower._CHUNK
        form = "table" if dense and case % 2 else "mask"
        forms[form, dense] += 1
        if form == "table":
            assert stop.tables == 1 and stop.masked == 0, label
        else:
            assert stop.masked >= len(rel) and not getattr(stop, "tables", 0), label
        assert stop.calls == 0, label
        assert "tuples" not in vars(rel) and "derivations" not in vars(rel), label
        called = []

        def predicate(t):
            called.append(t)
            return t == t[:block] * (width // block)

        want, want_hit = generate_until(alg, gens, predicate)
        assert _as_reference(rel, hit) == _as_reference(want, want_hit), label
        assert _as_reference(rel, hit) == reference_closure(alg, gens, BlockRepeat(block))
        if hit is None:
            assert called == list(rel.tuples), label
            misses += 1
        else:
            assert len(called) == hit + 1 and called == list(rel.tuples[:hit + 1]), label
            later += hit >= len(gens)
    # most hits are a generator; some come later, and a few closures miss
    assert later >= 40 and misses >= 2, (later, misses)
    assert forms["table", True] >= 20 and forms["mask", True] >= 20, forms
    if chunk is None:
        assert paths == {"dense": 480}
    else:
        assert paths["dense"] >= 100 and paths["keyed"] >= 100, paths
        assert forms["mask", False] >= 20, forms


def _limit_algebra(size):
    """A constant, halving and the sum mod 2: closures of a few generators
    stay small enough for the reference, and the sum's blocks repeat
    tuples."""
    return make_algebra(
        f"limit{size}",
        size,
        ("c", 0, (size - 1,)),
        ("h", 1, tuple(x // 2 for x in range(size))),
        ("s", 2, tuple((x + y) % 2 for x, y in itertools.product(range(size), repeat=2))),
    )


@pytest.mark.parametrize(
    "n,width",
    [(2, 1), (2, 6), (3, 4), (5, 6), (5, 7), (7, 22), (3, 39), (2, 61)],
)
def test_key_form_block_repeat_matches_the_rows(monkeypatch, n, width):
    # BlockRepeat.key_mask on base-n keys equals _is_repeat on the rows they
    # decode to, for every block dividing the width (1 and the width
    # included), up to n^width just below 2^62
    import random

    assert n**width < 1 << 62
    rng = random.Random(n * 100 + width)
    blocks = [b for b in range(1, width + 1) if width % b == 0]
    rows = [[0] * width, [n - 1] * width]
    for b in blocks:
        for _ in range(20):
            rows.append([rng.randrange(n) for _ in range(b)] * (width // b))
    rows += [[rng.randrange(n) for _ in range(width)] for _ in range(200)]
    keys = np.array(
        [sum(v * n ** (width - 1 - i) for i, v in enumerate(r)) for r in rows],
        dtype=np.int64,
    )
    assert subpower._layout(n, width, 2, subpower._CHUNK).decode(keys).tolist() == rows
    rows = np.array(rows, dtype=np.int64)
    for b in blocks:
        want = subpower._is_repeat(rows, b)
        assert BlockRepeat(b).key_mask(keys, n, width).tolist() == want.tolist(), b
        assert want.any() and (b == width or not want.all()), b
    # a closure of A^width whose key space is at most _CHUNK reads the stop
    # from BlockRepeat.key_table, once, and never masks keys, whether its
    # commit tables are dense or not; any other closure masks them.  The
    # table equals key_mask and _is_repeat on every key, also where a
    # smaller _CHUNK makes fewer spaces tabled, and both forms find the
    # same first hit in a block
    alg = random_algebra(n, n, [1])
    for chunk in (None, 7, 1):
        if chunk is not None:
            patch_chunk(monkeypatch, chunk)
        tabled = n**width <= subpower._CHUNK
        for b in blocks:
            label = (chunk, b)
            stop = _Tabled(BlockRepeat(b))
            state = subpower._Closure(alg, rows[:1], 1, stop)
            assert state.dense == is_dense(n**width, 1), label
            assert (stop.tables, stop.masked) == ((1, 0) if tabled else (0, 1)), label
            want = subpower._is_repeat(rows, b)
            assert state.find_hit(keys) == want.argmax() and want.any(), label
            if tabled:
                every = np.arange(n**width)
                table = BlockRepeat(b).key_table(n, width)
                assert table.tolist() == BlockRepeat(b).key_mask(every, n, width).tolist()
                assert table.tolist() == subpower._is_repeat(state.layout.decode(every), b).tolist()


@pytest.mark.parametrize(
    "size,width,limit,path",
    [
        (256, 2, 1 << 16, "dense"),
        (4, 8, 1 << 16, "dense"),
        (257, 2, 1 << 16, "keyed"),
        (5, 7, 1 << 16, "keyed"),
        (53, 4, None, "dense"),
        (54, 4, None, "keyed"),
    ],
    ids=[
        "256-2-dense", "4-8-dense", "257-2-keyed", "5-7-keyed",
        "cap-53-4-dense", "cap-54-4-keyed",
    ],
)
def test_closures_at_the_dense_limit_match_reference_closure(
    monkeypatch, size, width, limit, path
):
    # with the dense limit at 2^16 keys, 2^16 is the largest dense key
    # space, and 257^2 and 5^7 lie just above it; at the default cap of
    # 64 MiB, 53^4 keys fit at 8 bytes a key and 54^4 do not
    import random

    if limit is not None:
        patch_chunk(monkeypatch, limit)
    budget = subpower.DEFAULT_TUPLE_BUDGET
    dense = table_bytes(size**width) <= subpower._TABLE_BYTES
    assert dense == (path == "dense")
    paths = record_closure_paths(monkeypatch)
    alg = _limit_algebra(size)
    rng = random.Random(size * 100 + width)
    for _ in range(3):
        gens = [
            tuple(rng.randrange(size) for _ in range(width))
            for _ in range(rng.randint(2, 4))
        ]
        want = reference_closure(alg, gens)
        assert _as_reference(generate_subpower(alg, gens, budget)) == want, gens
        target = rng.choice(want[0])
        until = reference_closure(alg, gens, lambda t: t == target)
        got, hit = generate_until(alg, gens, lambda t: t == target, budget)
        assert _as_reference(got, hit) == until, gens
    assert paths == {path: 6}


def _arrays(rel):
    return rel.keys.tolist(), rel.op_ids.tolist(), rel.parents.tolist()


def _halving_case():
    """4^8 = _CHUNK keys: dense at any budget, and (4^8)^2 combinations are
    above _CHUNK, so is_closed saturates.  Tuple h of the closure is the
    halving of the first generator, and h + 1 of the second, in the same
    block."""
    alg = _limit_algebra(4)
    gens = [(0, 1, 2, 3, 0, 1, 2, 3), (3, 2, 1, 0, 3, 2, 1, 0), (1,) * 8]
    want = generate_subpower(alg, gens)
    assert len(want) >= 8
    h = want.op_ids.tolist().index(1)
    assert want.op_ids[h + 1] == 1 and want.parents[h:h + 2, 0].tolist() == [0, 1]
    return alg, gens, want, h


def test_a_cut_closure_marks_only_its_commits(monkeypatch):
    # a dense closure finds a block's first occurrences in its seen slots;
    # after a budget cut, a stop hit that cut its block short and an
    # is_closed refusal, record_closure_paths checks that seen marks
    # exactly the tuples committed, and those are what a full run commits
    # first
    paths = record_closure_paths(monkeypatch)
    alg, gens, want, h = _halving_case()
    with pytest.raises(BudgetExceededError):
        generate_subpower(alg, gens, h + 1)
    rel, hit = generate_until(alg, gens, lambda t: t == want.tuples[h])
    assert hit == h == len(rel) - 1
    assert _arrays(rel) == tuple(a[:h + 1] for a in _arrays(want))
    assert not subpower.is_closed(alg, want.keys[:-1], want.width)
    assert paths == {"dense": 4}, paths


def test_a_closure_that_commits_a_key_twice_raises_at_once(monkeypatch):
    # a fault that reports committed keys as fresh carries the count past
    # the full power; the commit raises there instead of running on to the
    # budget
    import time

    monkeypatch.setattr(
        subpower._Closure, "_fresh", lambda self, keys, scratch=None: np.arange(len(keys))
    )
    start = time.perf_counter()
    with pytest.raises(ConsistencyError, match="commits more than the 4 tuples of A"):
        generate_subpower(MIN2, [(0, 1), (1, 0)])
    assert time.perf_counter() - start < 1.0


def test_the_dense_choice_weighs_the_budget(monkeypatch):
    # a closure keeps a dense table over at most the larger of its budget
    # and _CHUNK keys.  is_admissible of two width-4 rows in 48^4 keys
    # saturates them under a budget of two, keyed, instead of filling a
    # 42-MB table; a standalone closure there and a sweep in 17^4 keys, at
    # their default budgets, and a unary monoid of 7^7 maps stay dense.  A
    # sweep whose budget is below its key space commits the same, keyed
    from maltsev_lab import decision, digraph, io

    paths = record_closure_paths(monkeypatch)
    alg = random_algebra(7, 48, [2])
    rows = [(0, 1, 2, 3), (0, 0, 0, 0)]
    assert digraph.is_admissible(alg, rows) == scalar_is_admissible(alg, rows)
    assert paths == {"keyed": 1}
    generate_until(alg, rows, BlockRepeat(1))
    assert paths == {"keyed": 1, "dense": 1}
    assert len(unary_term_monoid(random_algebra(3, 7, [1]))) > 1
    assert paths == {"keyed": 1, "dense": 2}
    paths.clear()
    small = random_algebra(7, 17, [2])
    want = decision.has_quasi_taylor(small)
    dense = dict(paths)
    paths.clear()
    got = decision.has_quasi_taylor(small, budget=17**4 - 1)
    assert list(dense) == ["dense"] and paths == {"keyed": dense["dense"]}, (dense, paths)

    def stripped(report):
        report = json.loads(io.report_to_json(report, include_witnesses=True))
        del report["stats"]["elapsed_seconds"]
        return report

    assert want.answer and stripped(got) == stripped(want)


def test_closures_pass_their_table_on_clean(monkeypatch):
    # closures sharing a tables dict: one that returns, here after a stop
    # hit that cut its block short, leaves its table for the next closure
    # of the key space, which commits what a closure with a table of its
    # own commits; one that raises, in run or, with a budget below the
    # generators, before it, leaves no table
    paths = record_closure_paths(monkeypatch)
    alg, gens, want, h = _halving_case()
    tables = {}
    generate_until(alg, gens, lambda t: t == want.tuples[h], tables=tables)
    (table,) = tables.values()
    assert table.size == 4**8
    rel, _ = generate_until(alg, gens, None, tables=tables)
    assert list(tables) == [4**8] and tables[4**8] is table
    assert _arrays(rel) == _arrays(want)
    # a closure of another key space leaves the table and adds its own
    generate_until(alg, [g[:3] for g in gens], None, tables=tables)
    assert sorted(tables) == [4**3, 4**8] and tables[4**8] is table
    del tables[4**3]
    for budget in (h + 1, 1):
        with pytest.raises(BudgetExceededError):
            generate_until(alg, gens, None, budget, tables)
        assert tables == {}, budget
        rel, _ = generate_until(alg, gens, None, tables=tables)
        assert _arrays(rel) == _arrays(want), budget
    assert paths == {"dense": 7}, paths


@pytest.mark.parametrize("chunk", [None, 4], ids=["dense", "keyed"])
def test_repeated_fresh_tuples_commit_at_their_first_occurrence(monkeypatch, chunk):
    # the first round's one block is 9, 4, 9, 4: both are new, 9 comes first
    # though its key is larger, and each is derived from its first position
    if chunk is not None:
        patch_chunk(monkeypatch, chunk)
    paths = record_closure_paths(monkeypatch)
    alg = make_algebra("repeat10", 10, ("f", 1, (9, 4, 9, 4, 4, 5, 6, 7, 8, 9)))
    gens = [(0,), (1,), (2,), (3,)]
    rel = generate_subpower(alg, gens)
    assert rel.tuples == ((0,), (1,), (2,), (3,), (9,), (4,))
    assert rel.derivations[4:] == (("f", (0,)), ("f", (1,)))
    assert _as_reference(rel) == reference_closure(alg, gens)
    assert paths == {"dense" if chunk is None else "keyed": 1}


def test_wide_tuples_match_reference_closure():
    # 2^62 tuples and more do not fit int64 keys: the index fallback runs
    import random

    rng = random.Random(62)
    raised = collections.Counter()
    for alg in (MIN2, Z2_MINORITY, random_algebra(1, 2, [0, 1, 2])):
        for width in (61, 62, 64):
            gens = [tuple(rng.randrange(2) for _ in range(width)) for _ in range(2)]
            gens.append(gens[0])
            label = (alg.name, width)
            want = reference_closure(alg, gens)
            rel = generate_subpower(alg, gens)
            assert _as_reference(rel) == want, label
            _assert_arrays_match(rel, alg, want)
            # a stop hit in the middle, and a budget that a block exceeds
            target = want[0][len(want[0]) // 2]
            until = reference_closure(alg, gens, lambda t: t == target)
            got, hit = generate_until(alg, gens, lambda t: t == target)
            assert _as_reference(got, hit) == until, label
            _assert_arrays_match(got, alg, until)
            raised["tuple" if width >= 62 else "keyed"] += _assert_budget_raise_matches(
                alg, gens, want
            )
    assert raised["tuple"] >= 2 and raised["keyed"] >= 1, raised


@pytest.mark.parametrize("layout", ["selected", "ones"])
def test_a_constant_in_a_python_int_key_space(monkeypatch, layout):
    # 2^64 keys: the constant's one image is gathered from its 0-d lifted
    # tables, one per chunk, as a Python int like any other block's; its
    # record's block is empty, its derivation has no parents and its
    # witness is the constant itself
    import random

    _force_layout(monkeypatch, layout)
    paths = record_closure_paths(monkeypatch)
    alg = make_algebra("meetc", 2, ("meet", 2, (0, 0, 0, 1)), ("c", 0, (1,)))
    rng = random.Random(64)
    gens = [tuple(rng.randrange(2) for _ in range(64)) for _ in range(3)]
    want = reference_closure(alg, gens)
    rel = generate_subpower(alg, gens)
    assert paths == {"tuple": 1}
    assert len(rel.layout.widths) == (64 if layout == "ones" else 8)
    assert _as_reference(rel) == want
    _assert_arrays_match(rel, alg, want)
    row = rel.derivations.index(("c", ()))
    assert rel.tuples[row] == (1,) * 64 and row >= len(gens)
    assert rel.records[rel.starts.index(row)] == (1, ((), ()))
    assert rel._derivation(row) == (1, [])
    assert extract_witness(rel, row=row).term == Apply("c", ())


def test_wide_keys_are_looked_up_in_linear_time():
    # 16^16 = 2^64 maps: Python int keys, looked up in a set; compared
    # pairwise, this monoid's 32684 maps took seven seconds to generate
    # and as long to check for closedness
    import time

    alg = random_algebra(24, 16, [1, 1])
    identity = [tuple(range(16))]
    start = time.perf_counter()
    rel = generate_subpower(alg, identity)
    assert subpower.is_closed(alg, rel.keys, rel.width)
    elapsed = time.perf_counter() - start
    assert len(rel) == 32684 and elapsed < 3.0, elapsed
    want = reference_closure(alg, identity)
    assert _as_reference(rel) == want
    _assert_arrays_match(rel, alg, want)


def _affine(p):
    """x - y + z mod p: a subpower is a coset, so most tuples are outside."""
    return make_algebra(
        f"z{p}", p,
        ("m", 3, tuple((x - y + z) % p for x, y, z in itertools.product(range(p), repeat=3))),
    )


@pytest.mark.parametrize(
    "path,alg,width,gens",
    [
        ("dense", _affine(3), 8, 4),
        # 5^11 keys: above the dense tables' cap
        ("keyed", _affine(5), 11, 4),
        # the 16^16 unary monoid from the identity map
        ("tuple", random_algebra(24, 16, [1, 1]), 16, None),
    ],
    ids=["dense", "keyed", "tuple"],
)
def test_lookup_by_key_on_every_commit_path(monkeypatch, path, alg, width, gens):
    # a tuple is in the relation exactly when its key is committed, whatever
    # the keys' dtype; a sample of the committed tuples is looked up, each
    # with one coordinate changed, the wrong width, and an entry n or -1
    import random

    paths = record_closure_paths(monkeypatch)
    n = alg.size
    rng = random.Random(width)
    if gens is None:
        gens = [tuple(range(n))]
    else:
        gens = [tuple(rng.randrange(n) for _ in range(width)) for _ in range(gens)]
    rel = generate_subpower(alg, gens)
    assert paths == {path: 1}
    members = rel.as_set()
    outside = 0
    for t in rng.sample(rel.tuples, min(len(rel), 40)):
        assert t in rel and extract_witness(rel, t).target == t
        c = rng.randrange(width)
        changed = t[:c] + (rng.choice([v for v in range(n) if v != t[c]]),) + t[c + 1:]
        assert (changed in rel) == (changed in members), changed
        outside += changed not in members
        assert t[:-1] not in rel and t + t[:1] not in rel
        for c in range(width):
            for v in (n, -1):
                assert t[:c] + (v,) + t[c + 1:] not in rel, (t, c, v)
    assert outside > 0


def _two_fresh_algebra(size):
    """From 0 and 1, b gives 0, 2, 2, 3 in round 1 and 0 from then on: the
    block has three fresh images, two of them distinct."""
    table = {(0, 1): 2, (1, 0): 2, (1, 1): 3}
    return make_algebra(
        "twofresh", size,
        ("b", 2, tuple(table.get(xy, 0) for xy in itertools.product(range(size), repeat=2))),
    )


@pytest.mark.parametrize("path,width", [("dense", 1), ("keyed", 9), ("tuple", 32)])
def test_no_budget_room_raises_before_the_block_is_deduped(monkeypatch, path, width):
    # the round-1 block holds constant tuples 2, 2, 3: a budget of 4 commits
    # both, one of 3 has room for one and raises, and one of 2 has no room,
    # so it raises at the first fresh key without ordering first occurrences;
    # with the dense limit at 2^16 keys, 4^9 keys take the keyed path
    patch_chunk(monkeypatch, 1 << 16)
    paths = record_closure_paths(monkeypatch)
    rooms = []
    first_positions = subpower._Closure._first_positions

    def recorded(state, keys, fresh):
        rooms.append(state.budget - state.count)
        return first_positions(state, keys, fresh)

    monkeypatch.setattr(subpower._Closure, "_first_positions", recorded)
    alg = _two_fresh_algebra(4)
    gens = [(0,) * width, (1,) * width]
    rel = generate_subpower(alg, gens, budget=4)
    assert rel.tuples == tuple((v,) * width for v in range(4))
    assert rooms == [4, 2]
    for budget, want in ((3, [3, 1]), (2, [2])):
        rooms.clear()
        with pytest.raises(BudgetExceededError, match=f"budget of {budget} tuples"):
            generate_subpower(alg, gens, budget=budget)
        assert rooms == want
    assert paths == {path: 3}


def test_enumeration_stops_at_the_full_power(monkeypatch):
    # once a closure holds all of A^w, no later combination is enumerated
    commit = subpower._Closure._commit_block

    def checked(self, *args):
        assert self.count < self.full_size
        return commit(self, *args)

    monkeypatch.setattr(subpower._Closure, "_commit_block", checked)
    reached = 0
    for _, alg, gens in _reference_cases(4000, 240):
        rel = generate_subpower(alg, gens)
        reached += len(rel) == alg.size ** len(gens[0])
    assert reached >= 60


def test_budget_counts_commits_up_to_the_hit():
    # the budget is exceeded only by a tuple committed at or before the hit
    for rng, alg, gens in _reference_cases(5000, 80):
        tuples = reference_closure(alg, gens)[0]
        generate_subpower(alg, gens, budget=len(tuples))
        with pytest.raises(BudgetExceededError, match=f"budget of {len(tuples) - 1} tuples"):
            generate_subpower(alg, gens, budget=len(tuples) - 1)
        h = rng.randrange(len(tuples))
        stop = lambda t: t == tuples[h]
        _, hit = generate_until(alg, gens, stop, budget=h + 1)
        assert hit == h
        with pytest.raises(BudgetExceededError):
            generate_until(alg, gens, stop, budget=h)


def test_stop_is_not_tested_past_the_budget_room():
    # a stop that never fires sees exactly the tuples the budget admits, in
    # committed order, and the closure then raises; a key mask sees as many
    # keys
    for rng, alg, gens in _reference_cases(5000, 80):
        tuples = reference_closure(alg, gens)[0]
        if len(tuples) < 2:
            continue
        h = rng.randrange(1, len(tuples))
        called = []
        with pytest.raises(BudgetExceededError):
            generate_until(alg, gens, lambda t: called.append(t), budget=h)
        assert called == tuples[:h], (alg.name, gens, h)
        stop = _Counted(_Never())
        with pytest.raises(BudgetExceededError):
            generate_until(alg, gens, stop, budget=h)
        assert stop.masked == h and stop.calls == 0


def test_unary_term_monoid_is_the_identity_closure():
    # the order matters: minimal_unary_idempotent breaks ties by it
    checked = 0
    for _, alg, _ in _reference_cases(6000, 200):
        n = alg.size
        if any((n**n) ** op.arity > 20000 for op in alg.ops):
            continue
        tuples = reference_closure(alg, [tuple(range(n))])[0]
        assert [u.images for u in unary_term_monoid(alg)] == tuples, alg.name
        checked += 1
    assert checked >= 100


def test_blocks_enumerate_a_round_lexicographically(monkeypatch):
    # the blocks of a round, flattened, are exactly the lexicographic
    # combinations whose largest index is at least the round's first, 0
    # counting as the largest index of a constant's empty combination, for
    # every chunk size: a constant's one empty block in round 1, none later
    cases = [(0, 0, 3), (0, 2, 5), (1, 2, 5), (2, 0, 3), (2, 2, 5), (3, 1, 4), (4, 2, 3)]
    for m, lo, k in cases:
        want = [
            c for c in itertools.product(range(k), repeat=m) if max(c, default=0) >= lo
        ]
        for chunk in (1, 2, 7, 1 << 20):
            monkeypatch.setattr(subpower, "_CHUNK", chunk)
            blocks = list(subpower._blocks(m, lo, k))
            got = [
                prefix + tail
                for prefix, ranges in blocks
                for tail in itertools.product(*ranges)
            ]
            assert got == want, (m, lo, k, chunk)
            assert max((math.prod(map(len, ranges)) for _, ranges in blocks), default=0) <= chunk


@pytest.mark.parametrize(
    "size,width,arity,seed,count,chunk",
    [
        (4, 6, 2, 3, 3, 1 << 14),
        (3, 6, 3, 1, 2, 1 << 12),
        # 4^8 = 2^16 = _CHUNK: the largest key space with dense tables
        (4, 8, 2, 3, 3, 1 << 16),
    ],
    ids=["binary", "ternary", "binary-dense-limit"],
)
def test_round_memory_is_bounded_by_the_chunk(
    monkeypatch, size, width, arity, seed, count, chunk
):
    # a round's working set is a few arrays of one chunk's rows, whatever
    # the round's size, plus the closure's own row and key arrays
    import random
    import tracemalloc

    alg = random_algebra(seed, size, [arity])
    rng = random.Random(1)
    gens = [tuple(rng.randrange(size) for _ in range(width)) for _ in range(count)]
    generate_subpower(alg, [(0,) * width])  # numpy imports some helpers lazily
    monkeypatch.setattr(subpower, "_CHUNK", chunk)
    gathered = count_gathered(monkeypatch)
    tracemalloc.start()
    try:
        rel = generate_subpower(alg, gens)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gathered["combinations"] >= 10**7
    bound = 6 * chunk * width * 8 + 4 * len(rel) * (width + 1) * 8
    assert peak - current <= bound, (peak - current, bound)


def _symmetric_algebra(rng, size, arity, positions):
    """An operation of this arity that is symmetric in the given argument
    positions: a random table precomposed with a sort of the arguments at
    those positions.  Every third algebra also has a random unary
    operation, declared first."""
    base = [rng.randrange(size) for _ in range(size**arity)]
    table = []
    for args in itertools.product(range(size), repeat=arity):
        args = list(args)
        for i, v in zip(positions, sorted(args[i] for i in positions)):
            args[i] = v
        table.append(base[flat_index(args, size)])
    ops = [("s", arity, table)]
    if rng.random() < 1 / 3:
        ops.insert(0, ("u", 1, [rng.randrange(size) for _ in range(size)]))
    return make_algebra(f"sym{arity}{positions}", size, *ops)


# constraint kinds: (arity, symmetric positions, largest key space); a
# prefix index against a range index trims the range, two prefix indices
# skip the prefix, and the two range indices of a binary operation leave
# everything to the dedup
_SWAP_KINDS = {
    "trim-02": (3, (0, 2), 32),
    "trim-01": (3, (0, 1), 32),
    "prefix-skip": (4, (0, 1), 9),
    "range-range": (2, (0, 1), 64),
}


@functools.lru_cache(maxsize=None)
def _symmetric_cases(kind):
    """100 seeded closures under an operation of the kind, every other one
    in the largest key space, and every fourth one from 17 generators where
    there are 24 tuples: per closure the algebra, the generators, the
    reference closure, a BlockRepeat block and the reference stopped at it,
    and a budget at, just around or below the closure's size."""
    import random

    arity, positions, largest = _SWAP_KINDS[kind]
    rng = random.Random(arity * 10 + positions[1])
    cases = []
    for case in range(100):
        size = rng.choice([2, 3])
        widths = [w for w in range(1, 6) if size**w <= largest]
        width = widths[-1] if case % 2 else rng.choice(widths)
        alg = _symmetric_algebra(rng, size, arity, positions)
        assert positions in alg.swaps("s"), alg.ops
        if case % 4 == 1 and size**width >= 24:
            gens = rng.sample(list(itertools.product(range(size), repeat=width)), 17)
        else:
            gens = [
                tuple(rng.randrange(size) for _ in range(width))
                for _ in range(rng.randint(1, 4))
            ]
        want = reference_closure(alg, gens)
        block = rng.choice([b for b in range(1, width + 1) if width % b == 0])
        until = reference_closure(alg, gens, BlockRepeat(block))
        budget = len(want[0]) + rng.choice([-1, 0, 1, -rng.randint(1, len(want[0]))])
        cases.append((alg, gens, want, block, until, budget))
    return cases


@pytest.mark.parametrize("chunk", [None, 256])
@pytest.mark.parametrize("kind", sorted(_SWAP_KINDS))
def test_symmetric_operations_match_reference_closure(monkeypatch, kind, chunk):
    # an operation whose table a transposition (i, j) fixes is applied only
    # to the combinations with index i at most index j, where i is in the
    # block's prefix, and must still commit exactly the reference's tuples,
    # derivations and rounds, stop at the same BlockRepeat hit and raise
    # exactly when the reference closure is larger than the budget; under
    # chunks of 256, a ternary rectangle of more than 16 rows is cut into
    # row strips, and those are trimmed
    if chunk is not None:
        patch_chunk(monkeypatch, chunk)
    gathered = count_gathered(monkeypatch)
    listed = collections.Counter()
    blocks = subpower._blocks

    def counted(m, lo, k):
        listed["rows"] = max(listed["rows"], k)
        for prefix, ranges in blocks(m, lo, k):
            listed["combinations"] += math.prod(map(len, ranges))
            yield prefix, ranges

    monkeypatch.setattr(subpower, "_blocks", counted)
    skipped = strips = hits = raised = 0
    for case, (alg, gens, want, block, until, budget) in enumerate(_symmetric_cases(kind)):
        label = (kind, case, alg.ops, gens)
        gathered.clear()
        listed.clear()
        rel = generate_subpower(alg, gens)
        assert _as_reference(rel) == want, label
        _assert_arrays_match(rel, alg, want)
        if kind == "range-range":
            # nothing is left out
            assert gathered["combinations"] == listed["combinations"], label
        elif gathered["combinations"] < listed["combinations"]:
            skipped += 1
            strips += listed["rows"] ** 2 > subpower._CHUNK
        got, hit = generate_until(alg, gens, BlockRepeat(block))
        assert _as_reference(got, hit) == until, label
        hits += hit is not None and hit >= len(set(gens))
        try:
            generate_subpower(alg, gens, budget)
        except BudgetExceededError:
            assert len(want[0]) > budget, label
            raised += 1
        else:
            assert len(want[0]) <= budget, label
        _assert_budget_raise_matches(alg, gens, want)
    assert hits >= 10 and 30 <= raised <= 70, (hits, raised)
    if kind != "range-range":
        assert skipped >= 50, skipped
        if chunk is not None and kind.startswith("trim"):
            assert strips >= 20, strips


def test_block_repeat_refuses_a_block_below_one():
    # BlockRepeat(0) would divide by zero on its first call, and under
    # BlockRepeat(-1) the key form finds a hit that the tuple form does not
    for block in (0, -1):
        with pytest.raises(ValueError, match="must be positive"):
            BlockRepeat(block)


def _record_scratch(monkeypatch):
    """Count the blocks gathered from now on by where their images are
    written: ``"scratch"``, a thread's scratch, or ``"fresh"`` arrays;
    ``"last"`` is 1 when the last block's went into the scratch."""
    blocks = collections.Counter()
    images = subpower._Layout.images

    def recorded(layout, tables, digits, prefix, ranges, scratch=None):
        blocks["fresh" if scratch is None else "scratch"] += 1
        blocks["last"] = scratch is not None
        return images(layout, tables, digits, prefix, ranges, scratch)

    monkeypatch.setattr(subpower._Layout, "images", recorded)
    return blocks


def _drop_scratch(monkeypatch):
    """Every block from now on is gathered into fresh arrays."""
    images, fresh = subpower._Layout.images, subpower._Closure._fresh

    def unscratched_images(layout, tables, digits, prefix, ranges, scratch=None):
        return images(layout, tables, digits, prefix, ranges)

    def unscratched_fresh(state, keys, scratch=None):
        return fresh(state, keys)

    monkeypatch.setattr(subpower._Layout, "images", unscratched_images)
    monkeypatch.setattr(subpower._Closure, "_fresh", unscratched_fresh)


def _scratch_cases():
    """Closures with blocks of more than _CHUNK // 4 combinations, each with
    its stop and budget: three binary width-5 closures at n = 4 of 1024
    tuples, one of them also cut by its budget and stopped by a plain
    predicate, each at a block in the scratch; the ternary qWNU k=3 closure
    of x - y + z mod 15 at (0, 1), whose symmetry trims its blocks; and a
    width-6 closure stopped at a block repeat in the scratch."""
    binary = random_algebra(3, 4, [2])
    every = subpower.DEFAULT_TUPLE_BUDGET
    gens = {}
    for seed, width in ((103, 5), (104, 5), (105, 5), (114, 6)):
        rng = SplitMix64(seed)
        gens[seed] = [tuple(rng.below(4) for _ in range(width)) for _ in range(3)]
    return [
        (binary, gens[103], None, every),
        (binary, gens[103], None, 1023),
        (binary, gens[103], lambda t: t == (2, 1, 1, 2, 3), every),
        (binary, gens[104], None, every),
        (binary, gens[105], None, every),
        (_affine(15), [(0, 0, 1), (0, 1, 0), (1, 0, 0)], None, every),
        (binary, gens[114], BlockRepeat(1), every),
    ]


def _outcome(alg, gens, stop, budget):
    try:
        rel, hit = generate_until(alg, gens, stop, budget)
    except BudgetExceededError:
        return "raised"
    return _arrays(rel), rel.positions.tolist(), rel.records, rel.rounds, hit


@pytest.mark.parametrize("path", ["dense", "keyed"])
def test_large_blocks_in_the_scratch_match_fresh_arrays(monkeypatch, path):
    # a block of more than _CHUNK // 4 combinations is gathered into the
    # thread's scratch, and a dense closure gathers its seen values there
    # too; each closure commits exactly the keys, positions, records,
    # rounds and hit, or raises exactly where, the same closure does with
    # every block's arrays fresh
    if path == "keyed":
        monkeypatch.setattr(subpower, "_TABLE_BYTES", 0)
    paths = record_closure_paths(monkeypatch)
    blocks = _record_scratch(monkeypatch)
    got, last = [], []
    for case in _scratch_cases():
        got.append(_outcome(*case))
        last.append(blocks["last"])
    assert paths == {path: 7}, paths
    assert blocks["scratch"] >= 150, blocks
    # the budget cut and both stops are at a block in the scratch
    assert got[1] == "raised" and got[2][-1] == 900 and got[6][-1] == 1284
    assert last[1] and last[2] and last[6], last
    _drop_scratch(monkeypatch)
    blocks.clear()
    assert [_outcome(*case) for case in _scratch_cases()] == got
    assert not blocks["scratch"], blocks


def test_a_relation_shares_no_memory_with_the_scratch(monkeypatch):
    # the arrays of a returned relation are the closure's own, also when
    # its last block was gathered into the scratch
    blocks = _record_scratch(monkeypatch)
    alg, gens, _, _ = _scratch_cases()[0]
    rel = generate_subpower(alg, gens)
    assert blocks["last"], blocks
    scratch = subpower._SCRATCH.arrays()
    for name in ("keys", "positions", "rows", "generator_rows"):
        for part in (scratch.images, scratch.seen, scratch.mask):
            assert not np.shares_memory(getattr(rel, name), part), name


def test_a_stop_predicate_may_run_a_closure_of_its_own(monkeypatch):
    # a plain predicate is called on a copy of a block's fresh keys, so a
    # closure that it runs, which writes the same thread's scratch, leaves
    # the outer closure as the reference has it
    patch_chunk(monkeypatch, 64)
    blocks = _record_scratch(monkeypatch)
    alg, gens = random_algebra(5, 3, [2]), [(0, 1, 2, 0), (2, 2, 1, 0)]
    inner = random_algebra(6, 3, [2]), [(1, 0, 2, 2), (0, 2, 0, 1)]
    calls = collections.Counter()

    def stop(t):
        calls["after a scratch block"] += blocks["last"]
        calls["inner"] += 1
        generate_subpower(*inner)
        return False

    rel, hit = generate_until(alg, gens, stop)
    assert calls["inner"] == len(rel) and calls["after a scratch block"] >= 5, calls
    assert blocks["scratch"] >= 100, blocks
    want = reference_closure(alg, gens)
    assert _as_reference(rel, hit) == want
    _assert_arrays_match(rel, alg, want)


def test_threads_get_their_own_scratch(monkeypatch):
    # each thread allocates its scratch on first use, of _CHUNK entries,
    # and gets the same arrays again; no two threads share one
    import threading

    patch_chunk(monkeypatch, 256)
    got = []

    def arrays():
        first, again = subpower._SCRATCH.arrays(), subpower._SCRATCH.arrays()
        parts = (first.images, first.seen, first.mask)
        assert all(a is b for a, b in zip(parts, (again.images, again.seen, again.mask)))
        got.append(parts)

    threads = [threading.Thread(target=arrays) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert len(got) == 2
    assert [a.shape for a in got[0]] == [(2, 256), (256,), (256,)]
    for a, b in itertools.product(*got):
        assert not np.shares_memory(a, b)


def test_concurrent_closures_match_one_thread():
    # more threads than cores, switching every 10 us, each saturate the
    # scratch cases; every result equals the one-thread run
    import sys
    import threading

    cases = _scratch_cases()
    want = [_outcome(*case) for case in cases]
    got = [None] * 4
    interval = sys.getswitchinterval()

    def run(i):
        got[i] = [_outcome(*case) for case in cases]

    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(got))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * len(got)
