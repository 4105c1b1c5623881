"""Shared fixtures and independent brute-force oracles for the test suite.

The naive closures here are deliberately written differently from the
library (set-based, sorted rescan until stable, no derivations) so they can
serve as ground truth for the result sets.  ``reference_closure`` is the
scalar statement of the canonical order (tuples, derivations, rounds) that
the vectorised engine must reproduce exactly.
"""
from __future__ import annotations

import collections
import itertools
import math

import numpy as np

from maltsev_lab import (
    Apply,
    BudgetExceededError,
    FiniteAlgebra,
    Operation,
    Variable,
    subpower,
)
from maltsev_lab.algebra import flat_index


def make_algebra(name, size, *ops):
    return FiniteAlgebra(name, size, tuple(Operation(s, a, tuple(t)) for s, a, t in ops))


MIN2 = make_algebra("min2", 2, ("meet", 2, (0, 0, 0, 1)))
PROJ2 = make_algebra("proj2", 2, ("p1", 2, (0, 0, 1, 1)))
NOT2 = make_algebra("not2", 2, ("neg", 1, (1, 0)))
CLIP3 = make_algebra("clip3", 3, ("g", 1, (0, 1, 1)))
ONE1 = make_algebra("one1", 1, ("f", 1, (0,)))

Z2_MINORITY = make_algebra(
    "z2minority",
    2,
    ("m", 3, tuple((x + y + z) % 2 for x, y, z in itertools.product(range(2), repeat=3))),
)
Z3_MALTSEV = make_algebra(
    "z3maltsev",
    3,
    ("m", 3, tuple((x - y + z) % 3 for x, y, z in itertools.product(range(3), repeat=3))),
)

# all 16 algebras with universe {0,1} and one binary operation
ALL_BINARY2 = [
    make_algebra(f"b{i}", 2, ("f", 2, tuple((i >> (3 - j)) & 1 for j in range(4))))
    for i in range(16)
]


def relabel(alg, perm, order=None):
    """The isomorphic copy of ``alg`` whose element a is called perm[a], its
    operations listed in ``order`` (positions in ``alg.ops``; default: as
    declared).  Each new table sends (perm[x1], ..., perm[xm]) to
    perm[f(x1, ..., xm)]."""
    n = alg.size
    forward = np.array(perm)
    back = np.argsort(forward)
    ops = []
    for i in range(len(alg.ops)) if order is None else order:
        op = alg.ops[i]
        table = np.array(op.table).reshape((n,) * op.arity)
        image = forward[table[np.ix_(*[back] * op.arity)]]
        ops.append(Operation(op.symbol, op.arity, tuple(image.ravel().tolist())))
    return FiniteAlgebra(alg.name, n, tuple(ops))


def scalar_evaluate(alg, term, args):
    """Independent term evaluation: plain recursion, one argument tuple."""
    if isinstance(term, Variable):
        return args[term.index]
    op = alg.operation(term.symbol)
    values = [scalar_evaluate(alg, c, args) for c in term.children]
    return op.table[flat_index(values, alg.size)]


def random_dag_term(rng, alg, k, nodes):
    """A random term over x0..x(k-1) whose nodes reuse earlier nodes, so
    subterm objects are shared; ``rng`` is a random.Random."""
    pool = [Variable(i) for i in range(k)]
    for _ in range(nodes):
        op = rng.choice(alg.ops)
        pool.append(Apply(op.symbol, tuple(rng.choice(pool) for _ in range(op.arity))))
    return pool[-1]


def reference_identities(problem, pair, result):
    """``Problem.identities`` rendered call by call with f-strings, as the
    library wrote them before it compiled them into templates."""

    def call(name, args):
        return name + "(" + ",".join(map(str, args)) + ")"

    if problem.point is None:
        points = [str(x) for x in pair]
    else:
        points = [call("", p) for p in pair]
    calls = [
        f"{problem.symbol}({','.join([points[b] for b in row])})"
        for row in problem.pattern
    ]
    if problem.point is not None:
        return (f"{' = '.join(calls)} = {call('', result)} in every block",)
    return tuple(
        f"{' = '.join(calls[j::problem.block])} = {result[j]}"
        for j in range(problem.block)
    )


def naive_subpower(alg, generators):
    """Independent closure: iterate over sorted snapshots until stable."""
    current = {tuple(g) for g in generators}
    while True:
        added = set()
        snapshot = sorted(current)
        for op in alg.ops:
            for combo in itertools.product(snapshot, repeat=op.arity):
                new = tuple(
                    op.table[flat_index((p[c] for p in combo), alg.size)]
                    for c in range(len(snapshot[0]))
                )
                if new not in current:
                    added.add(new)
        if not added:
            return current
        current |= added


def reference_closure(alg, generators, stop=None):
    """Scalar closure in canonical order: (tuples, derivations, rounds, hit).

    Rounds apply each operation in declaration order to argument
    combinations in lexicographic order of tuple indices: a combination
    belongs to the round that starts at index lo when its largest index is
    at least lo, 0 counting as the largest index of a constant's empty
    combination, so a nullary operation contributes in round 1 only.
    Without a stop predicate the last round is the one that finds nothing
    new.  With one, generation ends at the first tuple satisfying it, whose
    index is ``hit``.
    """
    n = alg.size
    tuples, derivations, index = [], [], {}

    def commit(t, derivation):
        index[t] = len(tuples)
        tuples.append(t)
        derivations.append(derivation)
        return stop is not None and stop(t)

    for pos, g in enumerate(generators):
        g = tuple(g)
        if g not in index and commit(g, (None, (pos,))):
            return tuples, derivations, 0, len(tuples) - 1
    width = len(tuples[0])
    rounds, lo = 0, 0
    while lo < len(tuples):
        rounds += 1
        k = len(tuples)
        for op in alg.ops:
            if op.arity == 0:
                combos = [()] if lo == 0 else []
            else:
                combos = itertools.product(range(k), repeat=op.arity)
            for combo in combos:
                if combo and max(combo) < lo:
                    continue
                t = tuple(
                    op.table[flat_index((tuples[i][c] for i in combo), n)]
                    for c in range(width)
                )
                if t not in index and commit(t, (op.symbol, combo)):
                    return tuples, derivations, rounds, len(tuples) - 1
        lo = k
    return tuples, derivations, rounds, None


def table_bytes(full):
    """The bytes of a dense closure's key-indexed table ``seen`` over
    ``full`` keys, one intp position a key."""
    return full * np.dtype(np.intp).itemsize


def is_dense(full, budget):
    """Does a closure over ``full`` keys with this budget keep a dense
    table: one that fits ``_TABLE_BYTES``, over at most the larger of the
    budget and ``_CHUNK`` keys?"""
    return table_bytes(full) <= subpower._TABLE_BYTES and full <= max(budget, subpower._CHUNK)


def patch_chunk(monkeypatch, chunk):
    """Blocks of at most ``chunk`` combinations, and a dense table only for
    key spaces of at most ``chunk`` keys, so that small closures take the
    keyed path too."""
    monkeypatch.setattr(subpower, "_CHUNK", chunk)
    monkeypatch.setattr(subpower, "_TABLE_BYTES", table_bytes(chunk))


def count_gathered(monkeypatch):
    """Count the argument combinations gathered from now on, under
    ``"combinations"``: per block passed to ``_Layout.images``, the product
    of its range lengths.  These are the combinations a closure applies its
    operations to, after a symmetric operation's repeated argument orders
    are left out."""
    counts = collections.Counter()
    images = subpower._Layout.images

    def counted(layout, tables, digits, prefix, ranges, scratch=None):
        counts["combinations"] += math.prod(map(len, ranges))
        return images(layout, tables, digits, prefix, ranges, scratch)

    monkeypatch.setattr(subpower._Layout, "images", counted)
    return counts


def record_closure_paths(monkeypatch):
    """Count the closures run from now on by the path their commits take.

    A closure whose key-indexed table fits ``_TABLE_BYTES``, over at most
    the larger of its budget and ``_CHUNK`` keys, is "dense": it keeps a
    table of its commits indexed by the key.  Another one is "keyed": it
    searches an array of committed keys.  From 2^62 on, keys do not fit
    int64 and the closure searches Python ints ("tuple").  Each closure must
    take the path its size selects.  A dense table must mark exactly the
    generators when the closure starts, and exactly the tuples it
    committed, each with its position, when it ends, also after a stop or
    a budget cut that cut a block short.
    """
    paths = collections.Counter()
    run = subpower._Closure.run

    def marks_committed(state):
        committed = state.keys[:state.count]
        marked = np.flatnonzero(state.seen >= 0)
        assert set(marked.tolist()) == set(committed.tolist())
        # and each marked slot holds its tuple's position
        assert state.seen[committed].tolist() == list(range(state.count))

    def recorded(state):
        full = state.n**state.width
        want = (
            "dense" if is_dense(full, state.budget)
            else "keyed" if full < 1 << 62
            else "tuple"
        )
        got = (
            "dense" if state.dense
            else "keyed" if state.layout.keyed
            else "tuple"
        )
        assert got == want, (state.n, state.width, got)
        paths[got] += 1
        if state.dense:
            marks_committed(state)
        try:
            run(state)
        except BudgetExceededError:
            if state.dense:
                marks_committed(state)
            raise
        if state.dense:
            marks_committed(state)

    monkeypatch.setattr(subpower._Closure, "run", recorded)
    return paths


def record_admissibility_paths(monkeypatch, module=subpower):
    """Count the closedness checks run from now on by the paths they take.

    A check of k keys of width-w rows over n elements takes one path, chosen
    by the largest arity M.  It takes the "gather" path for each operation,
    in declaration order, when n^w, (n^w)^M and k^M are at most ``_CHUNK``
    and M is at most 32: it reads the algebra's lifted table at the keys.
    Otherwise it takes the "saturate" path: one closure of the rows decoded
    from the keys, which reads lifted tables of its own.  Each check must
    take the path its sizes select, through every operation when the answer
    is yes.

    ``is_admissible`` validates its tuples into keys; a relation with an
    entry that is not a Python int is converted to rows first, and its keys
    are encoded from them.  A check also counts as "converted" when its
    relation was made rows: by that conversion, or by the decode of its
    keys for saturation.  The checks counted are those through
    ``module.is_closed``, ``subpower``'s (``is_admissible``'s) by default.
    """
    paths = collections.Counter()
    events = None
    saturating = False
    converted = False
    lifted_table = FiniteAlgebra.lifted_table
    run = subpower._Closure.run
    decode = subpower._Layout.decode
    rows = subpower._rows
    check = module.is_closed

    def recorded_lifted_table(alg, symbol, width):
        if events is not None and not saturating:
            events.append(("gather", symbol))
        return lifted_table(alg, symbol, width)

    def recorded_run(state):
        nonlocal saturating
        if events is not None:
            events.append(("saturate", None))
        saturating = True
        try:
            return run(state)
        finally:
            saturating = False

    def recorded_decode(layout, keys):
        nonlocal converted
        if events is not None and not saturating:
            converted = True
        return decode(layout, keys)

    def recorded_rows(tuples, noun):
        nonlocal converted
        out = rows(tuples, noun)
        converted = converted or noun == "relation"
        return out

    def recorded(alg, k, w, closed):
        nonlocal events, converted
        n = alg.size
        chunk = subpower._CHUNK
        m = max(op.arity for op in alg.ops)
        if n**w <= chunk and m <= 32 and max(n**w, k) ** m <= chunk:
            want = [("gather", op.symbol) for op in alg.ops]
        else:
            want = [("saturate", None)]
        events = []
        try:
            answer = closed()
            got = events
        finally:
            events = None
        assert got == (want if answer else want[:len(got)]), (got, want, answer)
        paths.update({path for path, _ in got})
        if converted:
            paths["converted"] += 1
            converted = False
        return answer

    def recorded_check(alg, keys, width):
        return recorded(alg, len(keys), width, lambda: check(alg, keys, width))

    monkeypatch.setattr(FiniteAlgebra, "lifted_table", recorded_lifted_table)
    monkeypatch.setattr(subpower._Closure, "run", recorded_run)
    monkeypatch.setattr(subpower._Layout, "decode", recorded_decode)
    monkeypatch.setattr(subpower, "_rows", recorded_rows)
    monkeypatch.setattr(module, "is_closed", recorded_check)
    return paths


def scalar_is_admissible(alg, rel):
    """Scalar closedness check: every combination of tuples, one at a time,
    with the same validation and error messages as ``is_admissible``."""
    tuples = [tuple(t) for t in rel]
    if not tuples:
        return True
    width = len(tuples[0])
    for t in tuples:
        if len(t) != width:
            raise ValueError("relation tuples must have equal width")
        for v in t:
            if not 0 <= v < alg.size:
                raise ValueError(f"relation entry {v} outside universe")
    members = set(tuples)
    for op in alg.ops:
        for combo in itertools.product(tuples, repeat=op.arity):
            image = tuple(
                op.table[flat_index((p[c] for p in combo), alg.size)]
                for c in range(width)
            )
            if image not in members:
                return False
    return True


def naive_unary_maps(alg):
    """Independent fixed point of unary term operations."""
    n = alg.size
    current = {tuple(range(n))}
    while True:
        added = set()
        snapshot = sorted(current)
        for op in alg.ops:
            for combo in itertools.product(snapshot, repeat=op.arity):
                new = tuple(
                    op.table[flat_index((u[x] for u in combo), n)] for x in range(n)
                )
                if new not in current:
                    added.add(new)
        if not added:
            return current
        current |= added


def walk_net_lengths(g, max_steps):
    """All (vertex, net) pairs reachable by closed walks of <= max_steps steps."""
    moves = {}
    for u, v in g.edges:
        moves.setdefault(u, []).append((v, 1))
        moves.setdefault(v, []).append((u, -1))
    achievable = set()
    for start in g.vertices:
        states = {(start, 0)}
        for _ in range(max_steps):
            nxt = set(states)
            for at, net in states:
                for to, d in moves.get(at, ()):
                    nxt.add((to, net + d))
            if nxt == states:
                break
            states = nxt
        for at, net in states:
            if at == start:
                achievable.add(net)
    return achievable
