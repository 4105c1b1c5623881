"""Generated subpowers: worklist saturation with derivations and witness replay.

Width-w tuples over the universe are closed under every basic operation
applied coordinate-wise.  Insertion order is the canonical breadth-first
order: rounds of applying each operation (declaration order) to argument
combinations of known tuples in lexicographic order of tuple indices.  A
combination belongs to the round that starts at index lo when its largest
index is at least lo, 0 counting as the largest index of a constant's
empty combination; one with no new index cannot change the result set or
the first discovery of any tuple.  Each tuple carries the operation and
parent indices that first produced it, so membership certificates are
replayable terms over the generators.

One engine, ``_Closure``, runs every closure (design: README.md).  A tuple
is its base-n key, and a subpower of A^w is one of (A^s)^c, s the largest
width with (n^s)^M at most ``_CHUNK`` for the largest arity M: a block's
image keys are one gather per chunk from the algebra's cached lifted
tables, combined by Horner's rule.  A relation is the committed keys
(Python ints from 2^62 on), each key's position in its block, and one
record ``(op_id, (prefix, ranges))`` per committed block.  Every record is
a block: the g generators' is ``(-1, ((), (range(g),)))``, a constant's
block is ``((), ())``.  Rows, operations and parents are decoded only when
asked for; a witness walk decodes the rows it visits, one record each.

A closure pays once for its two arrays, sized to the least of key space,
budget and ``_FIRST_ROWS`` and left unfilled; in a key space whose
key-indexed table of commits fits ``_TABLE_BYTES`` and has at most the
larger of budget and ``_CHUNK`` keys (dense) for that table, unless an
earlier closure of its sweep passed one on; and in a key space of at most
``_CHUNK`` for a cached table of the keys ``BlockRepeat`` stops at.  Per
block of at most ``_CHUNK`` keys it pays a gather per chunk, a lookup of
the fresh keys and of the stop (key arithmetic above ``_CHUNK``) and the
commit: keys, positions and one record.

Checks.  Tuples are checked where they enter, in one ordered pass,
``_tuple_keys``, that also gives each tuple's base-n key: NaN for a tuple
with an entry that is not a Python int.  ``generate_until`` converts its
generators to rows with ``_rows``.  ``is_admissible`` checks a relation
that ``_gathers`` admits from its keys when they are all ints, with
``_closed_keys``, the core of ``is_closed``'s gather path, and converts
any other relation to rows for ``is_closed``.  A witness's term is
replayed on the generator rows by the algebra's one term evaluator,
``_evaluate``, which checks the term node by node and does not scan the
rows' range again.  The replay's key must be the key of the row the term
was walked from; keys are one to one with rows, so no row is decoded
unless the replay fails.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .algebra import Apply, FiniteAlgebra, Term, Variable, _evaluate
from .errors import BudgetExceededError, ConsistencyError

DEFAULT_TUPLE_BUDGET = 10_000_000
# a closure's first capacity in rows, if key space and budget are larger
_FIRST_ROWS = 1 << 12
# combinations per block: large enough to amortise numpy's per-call cost,
# small enough that a block's arrays stay in cache
_CHUNK = 1 << 16
# a closure keeps a key-indexed table of its commits when it fits this
# many bytes
_TABLE_BYTES = 1 << 26

# derivations: (None, (generator_position,)) for generators,
# (op_symbol, parent_indices) for derived tuples
Derivation = tuple


@dataclass(frozen=True, eq=False)
class TupleRelation:
    """A generated set of fixed-width tuples with per-tuple derivations.

    ``keys`` holds the tuples' base-n keys in committed order.  Derivations
    are kept per committed block: ``records[r]`` is ``(op_id, (prefix,
    ranges))`` for the tuples from row ``starts[r]`` up to the next
    record's, the position in ``algebra.ops`` of the operation that produced
    them and the block of argument combinations it was applied to, prefix +
    the row-major product of the ranges.  Every record is a block: the g
    generators' is ``(-1, ((), (range(g),)))``, a constant's block is ``((),
    ())``.  ``positions[i]`` is tuple i's position in its block.
    ``generator_rows`` are the generators, validated, as an int64 array.

    Decoded when first asked for: ``op_ids[i]``, tuple i's operation, and
    ``parents[i, :arity]``, the tuples it was applied to (a generator's
    position in column 0; -1 past the arity), as well as ``generators``,
    ``rows``, ``tuples`` and ``derivations``.  A tuple is looked up by its
    key.  Relations are compared by identity.
    """

    algebra: FiniteAlgebra
    width: int
    generator_rows: np.ndarray
    keys: np.ndarray
    records: list
    starts: list
    positions: np.ndarray
    rounds: int
    complete: bool
    layout: _Layout = field(repr=False)

    @cached_property
    def rows(self) -> np.ndarray:
        return self.layout.decode(self.keys)

    @cached_property
    def tuples(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.rows.tolist()))

    @cached_property
    def generators(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.generator_rows.tolist()))

    @cached_property
    def op_ids(self) -> np.ndarray:
        ops = np.array([o for o, _ in self.records], dtype=np.intp)
        return np.repeat(ops, np.diff(self.starts + [len(self)]))

    @cached_property
    def parents(self) -> np.ndarray:
        # one column per argument of the largest arity; with one possible
        # tuple no row is derived, whatever the arities
        columns = max(self.algebra.max_arity, 1) if self.layout.n > 1 else 1
        out = np.full((len(self), columns), -1, dtype=np.intp)
        ends = self.starts[1:] + [len(self)]
        for (_, (prefix, ranges)), start, end in zip(self.records, self.starts, ends):
            rows, q = out[start:end], self.positions[start:end]
            rows[:, :len(prefix)] = prefix
            for d, r in reversed(list(enumerate(ranges, len(prefix)))):
                q, j = np.divmod(q, len(r))
                rows[:, d] = j + r.start
        return out

    @cached_property
    def derivations(self) -> tuple[Derivation, ...]:
        ops = self.algebra.ops
        return tuple(
            (None, (row[0],)) if o < 0 else (ops[o].symbol, tuple(row[:ops[o].arity]))
            for o, row in zip(self.op_ids.tolist(), self.parents.tolist())
        )

    def _derivation(self, i) -> tuple[int, list[int]]:
        """Row i's operation position and parents (a generator's position),
        decoded from its record alone."""
        o, (prefix, ranges) = self.records[bisect.bisect_right(self.starts, i) - 1]
        q = self.positions.item(i)
        if len(ranges) == 2:
            a, q = divmod(q, len(ranges[1]))
            return o, [*prefix, ranges[0].start + a, ranges[1].start + q]
        # in one range the position is an offset; a constant has no range
        return o, [*prefix, *[r.start + q for r in ranges]]

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self):
        return iter(self.tuples)

    def _position(self, t) -> int:
        """The position of the tuple, or -1."""
        t = tuple(t)
        if len(t) != self.width:
            return -1
        n, key = self.algebra.size, 0
        for v in t:
            if v not in range(n):
                return -1
            key = key * n + int(v)
        found = (self.keys == key).nonzero()[0]
        return int(found[0]) if found.size else -1

    def __contains__(self, t) -> bool:
        return self._position(t) >= 0

    def as_set(self) -> frozenset:
        return frozenset(self.tuples)


@dataclass(frozen=True)
class WitnessTerm:
    """A term over generator variables whose replay derives a target tuple."""

    term: Term
    target: tuple[int, ...]


def _rectangles(m, lo, k):
    """The round that starts at lo of an m-ary operation on k tuples, in
    lexicographic order, as (prefix, ranges): prefix + the row-major
    product of the ranges, which hold the last min(m, 2) indices."""
    r = min(m, 2)
    full = (range(k),) * r
    # under a prefix below lo (none in round 1), the first index at least
    # lo is in a range, and the ranges before it are below lo
    tails = [(range(lo),) * j + (range(lo, k),) + (range(k),) * (r - 1 - j)
             for j in reversed(range(r))] if lo else ()
    for prefix in itertools.product(range(k), repeat=m - r):
        if max(prefix, default=0) >= lo:
            yield prefix, full
        else:
            for ranges in tails:
                yield prefix, ranges


def _blocks(m, lo, k):
    """The round's rectangles cut into blocks of at most _CHUNK combinations,
    in the same order and form."""
    for prefix, ranges in _rectangles(m, lo, k):
        if math.prod(map(len, ranges)) <= _CHUNK:
            yield prefix, ranges
            continue
        first, *rest = ranges
        inner = math.prod(map(len, rest))
        if inner <= _CHUNK:
            step = _CHUNK // inner
            for start in range(0, len(first), step):
                yield prefix, (first[start:start + step], *rest)
        else:
            (cols,) = rest
            for i in first:
                for start in range(0, len(cols), _CHUNK):
                    yield prefix, (range(i, i + 1), cols[start:start + _CHUNK])


@functools.lru_cache(maxsize=256)
def _key_powers(n, width):
    """Weights of a width-w row's base-n key; cached for small checks."""
    powers = n ** np.arange(width - 1, -1, -1, dtype=np.int64)
    powers.flags.writeable = False
    return powers


class _Layout:
    """Width-w rows cut into chunks of the given widths; a row's key is its
    base-n rank, a Python int in an object array from 2^62 on."""

    def __init__(self, n, widths):
        self.n, self.widths, self.width = n, widths, sum(widths)
        self.keyed = n**self.width < 1 << 62
        self.powers = np.array([n**c for c in range(self.width)][::-1],
                               dtype=np.int64 if self.keyed else object)
        self.scales = [n**s for s in widths]
        # chunk j of a key is key // shifts[j] % scales[j]
        self.shifts = [n ** sum(widths[j + 1:]) for j in range(len(widths))]

    def encode(self, rows):
        """The keys of the rows of a (P, width) array."""
        return rows @ self.powers

    def decode(self, keys):
        """The rows with these keys, a (P, width) array, chunk by chunk."""
        return np.hstack([
            d[:, None] // _key_powers(self.n, s) % self.n
            for d, s in zip(self.digits(keys), self.widths)
        ])

    def digits(self, keys):
        """Per chunk, the chunk keys of the rows with these keys."""
        out = []
        for j, (d, scale) in enumerate(zip(self.shifts, self.scales)):
            c = keys // d if d > 1 else keys
            # the first chunk's quotient is below its scale already
            out.append((c % scale if j else c).astype(np.int64, copy=False))
        return out

    def images(self, tables, digits, prefix, ranges):
        """The keys of a block's images, in row-major order: per chunk, the
        lifted table at the prefix is taken along each range's axis, the
        shorter first so the step between stays small, and Horner's rule
        adds it."""
        takes = list(enumerate(ranges))
        if len(ranges) == 2 and len(ranges[0]) > len(ranges[1]):
            takes.reverse()
        keys = None
        for table, d, scale in zip(tables, digits, self.scales):
            for i in prefix:
                table = table[d[i]]
            for axis, r in takes:
                table = table.take(d[r.start:r.stop], axis)
            g = table.ravel()
            if keys is None:
                # a constant's ravel is a view of its read-only 0-d table
                keys = g.astype(self.powers.dtype, copy=not g.flags.writeable)
            else:
                keys *= scale
                keys += g
        return keys


@functools.lru_cache(maxsize=256)
def _layout(n, width, arity, chunk):
    """Chunks of width s, the largest with (n^s)^m at most ``chunk`` for the
    largest arity m (and at least 1), cut balanced, the wider first."""
    arity = max(arity, 1)
    s = 1
    while s < width and n ** ((s + 1) * arity) <= chunk:
        s += 1
    count = -(-width // s)
    q, r = divmod(width, count)
    return _Layout(n, (q + 1,) * r + (q,) * (count - r))


def _is_repeat(values: np.ndarray, block: int) -> np.ndarray:
    """Which rows of a (P, W) array are W/block copies of their first block."""
    v = values.reshape(values.shape[0], -1, block)
    return (v == v[:, :1]).all(axis=(1, 2))


class BlockRepeat:
    """Stop predicate: the tuple is copies of its first ``block`` entries.

    Callable on one tuple like any predicate; a closure applies it to rows
    by key: ``key_mask`` to given keys, ``key_table`` to all of A^width.  A
    block's key times 1 + n^b + n^2b + ... is the key of its repeat.
    """

    def __init__(self, block: int):
        self.block = block

    def __call__(self, t) -> bool:
        return t == t[:self.block] * (len(t) // self.block)

    def key_table(self, n: int, width: int) -> np.ndarray:
        """Which rows of A^width repeat their first block, by key; cached."""
        return _repeat_table(n, width, self.block)

    def key_mask(self, keys: np.ndarray, n: int, width: int) -> np.ndarray:
        """Which rows of A^width with these keys repeat their first block."""
        b = self.block
        if width % b:
            return np.zeros(len(keys), dtype=bool)
        # not keys % repeat == 0: on a 5000-key block it takes twice as long
        repeat = sum(n ** (b * i) for i in range(width // b))
        return keys // n ** (width - b) * repeat == keys


@functools.lru_cache(maxsize=64)
def _repeat_table(n, width, b):
    table = BlockRepeat(b).key_mask(np.arange(n**width), n, width)
    table.flags.writeable = False
    return table


def _hit_finder(predicate, layout):
    """The closure's stop test: first(keys) is the position of the first of
    a block's fresh keys whose row satisfies the predicate, or None.  In a
    key space of at most ``_CHUNK`` it reads the predicate's ``key_table``
    if it has one."""
    if getattr(predicate, "key_mask", None):
        n, width = layout.n, layout.width
        if n**width <= _CHUNK and getattr(predicate, "key_table", None):
            mask = predicate.key_table(n, width).__getitem__
        else:
            def mask(keys):
                return predicate.key_mask(keys, n, width)

        def first(keys):
            hits = mask(keys).nonzero()[0]
            return int(hits[0]) if hits.size else None
        return first

    # called on the rows in order, never past the first hit
    def first(keys):
        rows = map(tuple, layout.decode(keys).tolist())
        return next((i for i, t in enumerate(rows) if predicate(t)), None)
    return first


class _Closure:
    """Mutable saturation state; committed order is the canonical one.
    The first ``count`` entries of its arrays, whose capacity doubles, are
    the committed keys and their positions in their blocks; ``records``
    and ``starts`` hold one entry per block that committed a key (see
    ``TupleRelation``)."""

    def __init__(self, alg, rows, budget, stop, tables=None):
        self.alg = alg
        self.n = alg.size
        self.width = rows.shape[1]
        self.full_size = self.n**self.width
        self.budget = budget
        self.layout = _layout(self.n, self.width, alg.max_arity, _CHUNK)
        # key-indexed: seen holds each committed tuple's position, -1 for
        # the others, in the dtype of a block's positions (a cast slows
        # np.minimum.at, which finds first occurrences in it); one passed
        # on in ``tables`` saves the fill.  Not over more keys than the
        # larger of budget and _CHUNK: a small budget (is_closed's) would
        # fill a table that its few commits never use
        self.dense = (
            self.full_size * np.dtype(np.intp).itemsize <= _TABLE_BYTES
            and self.full_size <= max(budget, _CHUNK)
        )
        if self.dense:
            spare = None if tables is None else tables.pop(self.full_size, None)
            self.seen = np.full(self.full_size, -1, dtype=np.intp) if spare is None else spare
        elif not self.layout.keyed:
            # Python int keys: np.isin would compare them pairwise
            self.known: set[int] = set()
        self.find_hit = None if stop is None else _hit_finder(stop, self.layout)
        self.hit: Optional[int] = None
        self.rounds = 0
        self.count = 0
        self.keys = np.empty(0, dtype=np.int64 if self.layout.keyed else object)
        self.positions = np.empty(0, dtype=np.intp)
        self.records: list = []
        self.starts: list[int] = []
        self._reserve(min(self.full_size, budget, _FIRST_ROWS))
        self.rows = rows.astype(np.int64, copy=False)
        self._commit_block(self.layout.encode(self.rows), -1, ((), (range(len(rows)),)))

    def pass_on(self, tables):
        """Reset the committed slots of a dense closure's table and leave it
        in ``tables`` for the next closure of the key space."""
        if self.dense:
            self.seen[self.keys[:self.count]] = -1
            tables[self.full_size] = self.seen

    def _reserve(self, end):
        """Room for ``end`` rows, the capacity at least doubling."""
        if end <= len(self.keys):
            return
        capacity = max(end, 2 * len(self.keys))
        for name in ("keys", "positions"):
            old = getattr(self, name)
            new = np.empty(capacity, dtype=old.dtype)
            new[:self.count] = old[:self.count]
            setattr(self, name, new)

    def _fresh(self, keys):
        """The positions in a block of the keys not committed yet."""
        if self.dense:
            return (self.seen[keys] < 0).nonzero()[0]
        if self.layout.keyed:
            return np.isin(keys, self.keys[:self.count], invert=True).nonzero()[0]
        known = self.known
        fresh = [i for i, key in enumerate(keys.tolist()) if key not in known]
        return np.array(fresh, dtype=np.intp)

    def _first_positions(self, keys, fresh):
        """The fresh positions that hold their key's first occurrence.  A
        dense closure leaves them in the fresh keys' ``seen`` slots, which
        the commit overwrites or resets."""
        fk = keys[fresh]
        if self.dense:
            # each fresh key's least position, in its slot (-1 till now),
            # set past every position first
            self.seen[fk] = len(keys)
            np.minimum.at(self.seen, fk, fresh)
            return fresh[self.seen[fk] == fresh]
        if not self.layout.keyed:
            # Python int keys: a dict built backwards keeps the first
            first = dict(zip(fk[::-1].tolist(), fresh[::-1].tolist()))
            return np.sort(np.fromiter(first.values(), np.intp, len(first)))
        _, first = np.unique(fk, return_index=True)
        return fresh[np.sort(first)]

    def _commit_block(self, keys, op_id, block):
        """Commit the new keys of a result block in first-occurrence order,
        with their positions in the block, and record ``(op_id, block)``
        for them if there are any."""
        fresh = self._fresh(keys)
        if not fresh.size:
            return
        start = self.count
        room = max(self.budget - start, 0)
        # with no room left, the first fresh key exceeds the budget
        positions = self._first_positions(keys, fresh) if room else fresh[:1]
        cut = positions.size
        new = keys[positions]
        if self.find_hit is not None:
            i = self.find_hit(new[:room])
            if i is not None:
                cut = i + 1
                self.hit = start + i
                if self.dense:
                    # first occurrences past the hit free their slots again
                    self.seen[new[cut:]] = -1
        if cut > room:
            if self.dense:
                self.seen[new] = -1
            raise BudgetExceededError(
                f"subpower generation exceeds budget of {self.budget} tuples"
            )
        end = start + cut
        new = new[:cut]
        self._reserve(end)
        self.keys[start:end] = new
        self.positions[start:end] = positions[:cut]
        self.records.append((op_id, block))
        self.starts.append(start)
        if self.dense:
            self.seen[new] = np.arange(start, end)
        elif not self.layout.keyed:
            self.known.update(new.tolist())
        self.count = end

    def _done(self):
        return self.hit is not None or self.count == self.full_size

    def _round(self, op_id, digits, lo, k):
        """Apply one operation to the round's combinations, block by block."""
        op = self.alg.ops[op_id]
        tables = [self.alg.lifted_table(op.symbol, s) for s in self.layout.widths]
        for block in _blocks(op.arity, lo, k):
            # bound until the next block's images exist: freed before them,
            # a block's arrays let malloc trim the heap top, and the next
            # block faults its pages in again
            keys = self.layout.images(tables, digits, *block)
            self._commit_block(keys, op_id, block)
            if self._done():
                return

    def run(self):
        lo = 0
        while self.hit is None and lo < self.count:
            k = self.count
            self.rounds += 1
            if k == self.full_size:
                # the round after the last commit, which finds nothing new
                return
            # the chunk keys of the round's known rows; Python int keys are
            # split once, the last round's added
            if self.layout.keyed or not lo:
                digits = self.layout.digits(self.keys[:k])
            else:
                new = self.layout.digits(self.keys[lo:k])
                digits = [np.concatenate(p) for p in zip(digits, new)]
            for op_id in range(len(self.alg.ops)):
                self._round(op_id, digits, lo, k)
                if self._done():
                    break
            lo = k

    def relation(self) -> TupleRelation:
        c = self.count
        return TupleRelation(
            algebra=self.alg,
            width=self.width,
            generator_rows=self.rows,
            keys=self.keys[:c],
            records=self.records,
            starts=self.starts,
            positions=self.positions[:c],
            rounds=self.rounds,
            complete=self.hit is None,
            layout=self.layout,
        )


def _tuple_keys(tuples, n, noun):
    """The base-n keys of equal-width tuples of elements of 0..n-1, checked
    tuple by tuple (width, then entries) with messages that name the tuples
    by ``noun``.  An entry whose type is not int (a bool, a float, a numpy
    scalar, whose arithmetic could overflow) makes its tuple's key NaN."""
    width = len(tuples[0])
    keys = []
    for t in tuples:
        if len(t) != width:
            raise ValueError(f"{noun} tuples must have equal width")
        key = 0
        for v in t:
            if not 0 <= v < n:
                raise ValueError(f"{noun} entry {v} outside universe")
            key = key * n + v if type(v) is int else math.nan
        keys.append(key)
    return keys


def _rows(tuples, noun):
    """The rows of checked equal-width tuples as an array, converted as one
    flat list; entries must be integers."""
    flat = []
    for t in tuples:
        flat += t
    rows = np.array(flat).reshape(len(tuples), len(tuples[0]))
    if rows.dtype.kind not in "biu":
        # numpy promotes uint64 beside a signed integer to float64
        if flat and all(isinstance(v, (int, np.integer, np.bool_)) for v in flat):
            return np.array(flat, dtype=np.int64).reshape(rows.shape)
        # an int64 cast would truncate 1.5 to a valid entry
        raise TypeError(f"{noun} entries must be integers, got {rows.dtype}")
    return rows


def _validate_tuples(tuples, n, noun):
    """The rows of equal-width tuples of elements of 0..n-1, as an array:
    ``_tuple_keys`` checks them, ``_rows`` converts them."""
    _tuple_keys(tuples, n, noun)
    return _rows(tuples, noun)


def generate_subpower(
    alg: FiniteAlgebra,
    generators: Sequence[Sequence[int]],
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> TupleRelation:
    """The subpower generated by the given tuples, fully saturated."""
    return generate_until(alg, generators, None, budget)[0]


def generate_until(
    alg: FiniteAlgebra,
    generators: Sequence[Sequence[int]],
    predicate: Optional[Callable[[tuple[int, ...]], bool]],
    budget: int = DEFAULT_TUPLE_BUDGET,
    tables: Optional[dict] = None,
) -> tuple[TupleRelation, Optional[int]]:
    """Saturate until a committed tuple satisfies the predicate.

    Returns (relation, hit_index).  On a hit the relation is a prefix of the
    full closure (complete=False); a None hit means the closure saturated
    without a match, or with no predicate, and the relation is complete.  A
    predicate with ``key_mask(keys, n, width)`` is tested on a block's fresh
    keys at once, in a key space of at most ``_CHUNK`` through its
    ``key_table(n, width)`` if it has one; a plain one is called per
    committed tuple, in order, up to the hit.

    A sweep that runs many closures of one key space shares a ``tables``
    dict among them: a dense closure that returns leaves its key-indexed
    table there, reset, and the next one takes it instead of filling its
    own.  The tables go when the dict does; a closure that raises drops its
    table.
    """
    gens = [tuple(g) for g in generators]
    if not gens:
        raise ValueError("at least one generator tuple is required")
    if not gens[0]:
        raise ValueError("generator width must be positive")
    rows = _validate_tuples(gens, alg.size, "generator")
    state = _Closure(alg, rows, budget, predicate, tables)
    state.run()
    if tables is not None:
        state.pass_on(tables)
    return state.relation(), state.hit


def _gathers(alg: FiniteAlgebra, width: int, k: int) -> bool:
    """Are k rows of this width checked by gathers: are n^width,
    (n^width)^M and k^M at most ``_CHUNK`` for the largest arity M?"""
    n, m = alg.size, alg.max_arity
    # m <= 32 keeps the table within numpy 1's limit on dimensions, and a
    # huge arity's power from being taken
    return n**width <= _CHUNK and m <= 32 and max(n**width, k) ** m <= _CHUNK


def _closed_keys(alg: FiniteAlgebra, keys: np.ndarray, width: int) -> bool:
    """Is the set of width-w rows with these base-n keys, an integer array
    of a size that ``_gathers`` admits, closed under every basic operation?
    Each operation's lifted table is taken at the keys along each axis and
    its images are looked up in a dense member table."""
    member = np.zeros(alg.size**width, dtype=bool)
    member[keys] = True
    for op in alg.ops:
        images = alg.lifted_table(op.symbol, width)
        for axis in range(op.arity):
            images = images.take(keys, axis)
        # not .all(): its reduction costs a tenth of a small check
        if np.count_nonzero(member[images]) != images.size:
            return False
    return True


def is_closed(alg: FiniteAlgebra, rows: np.ndarray) -> bool:
    """Is the set of rows of a (k, width) array, k >= 1, closed under every
    basic operation, coordinate-wise?  Rows that ``_gathers`` admits are
    checked from their keys by ``_closed_keys``.  Otherwise the rows are
    saturated with a budget of their own number, which a closure that
    commits a tuple exceeds, and which keeps a key space of more than
    ``_CHUNK`` and k keys from filling a dense table.
    """
    k, w = rows.shape
    if _gathers(alg, w, k):
        return _closed_keys(alg, rows.dot(_key_powers(alg.size, w)), w)
    state = _Closure(alg, rows, k, None)
    # the first image outside the rows exceeds the budget
    state.budget = state.count
    try:
        state.run()
    except BudgetExceededError:
        return False
    return True


def find_block_repeat(
    rel: TupleRelation, block_width: int, block_count: int
) -> Optional[tuple[int, ...]]:
    """Least u (lexicographically) whose block_count-fold repeat is in rel."""
    if block_width < 1 or block_count < 1:
        raise ValueError("block width and count must be positive")
    if rel.width != block_width * block_count:
        raise ValueError(
            f"relation width {rel.width} is not {block_width} x {block_count}"
        )
    blocks = rel.rows[_is_repeat(rel.rows, block_width), :block_width]
    if not len(blocks):
        return None
    # lexsort's last key is the primary one
    return tuple(blocks[np.lexsort(blocks.T[::-1])[0]].tolist())


def extract_witness(rel: TupleRelation, target=None, row=None) -> WitnessTerm:
    """A term over generator variables deriving the target tuple, or the
    tuple at position ``row``, which is not looked up.

    Walks the relation's derivations from that row, decoding each row it
    visits from its record: generators map to Variable(position); derived
    tuples map to Apply over their parents' terms.  The term is replayed by
    ``_evaluate`` on the generator rows, and the key of its values must be
    the row's key.  A derived row with a parent at or after it, or a replay
    with another key, raises ConsistencyError.
    """
    if row is None:
        row = rel._position(target)
        if row < 0:
            raise ValueError(f"target tuple {tuple(target)} is not in the relation")
    elif not 0 <= row < len(rel):
        raise ValueError(f"row {row} is not in the relation")
    ops = rel.algebra.ops
    terms: dict[int, Term] = {}
    stack = [row]
    while stack:
        i = stack[-1]
        if i in terms:
            stack.pop()
            continue
        o, parents = rel._derivation(i)
        if o < 0:
            terms[i] = Variable(parents[0])
            stack.pop()
            continue
        # a closure derives a row from earlier rows only; a later parent
        # would grow the walk without end
        if parents and max(parents) >= i:
            raise ConsistencyError(f"row {i} is derived from a row at or after it")
        missing = [p for p in parents if p not in terms]
        if missing:
            stack.extend(missing)
            continue
        terms[i] = Apply(ops[o].symbol, tuple(terms[p] for p in parents))
        stack.pop()
    # variable j's values are generator j's row, validated int64
    values = _evaluate(rel.algebra, terms[row], rel.generator_rows)
    replay = tuple(values.tolist())
    if rel.layout.encode(values) != rel.keys[row]:
        target = tuple(rel.layout.decode(rel.keys[row:row + 1])[0].tolist())
        raise ConsistencyError(
            f"witness replay produced {replay}, expected {target}"
        )
    return WitnessTerm(term=terms[row], target=replay)
