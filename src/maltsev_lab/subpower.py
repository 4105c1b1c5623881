"""Generated subpowers: worklist saturation with derivations and witness replay.

Width-m tuples over the universe are closed under every basic operation
applied coordinate-wise.  Insertion order is the canonical breadth-first
order: rounds of applying each operation (declaration order) to all argument
combinations of previously known tuples, combinations enumerated in
lexicographic order of tuple indices; a combination is skipped when none of
its arguments is new from the previous round, which cannot change the result
set or the first discovery of any tuple.  Each tuple carries the operation
and parent indices that first produced it, so membership certificates are
replayable terms over the generators.

One engine, ``_Closure``, runs every closure, the unary term monoid
included, and one enumerator serves every arity.  Per (m-2)-prefix of an
m-ary operation, a round is the rectangles of the last two indices: old x
new then new x full, or full x full once the prefix holds a new index.  The
rectangles are cut into blocks of at most ``_CHUNK`` combinations.  A
block's table indices are one broadcast sum of row arrays, and only the
committed rows get their parent indices, decoded from their flat position
in the block, so a round's memory is bounded by ``_CHUNK`` whatever its
size.  Once the relation holds all n^width tuples no later combination can
add one, so enumeration stops there; ``rounds`` still counts the one empty
round that the plain loop runs after its last commit.

The state is arrays: the committed rows in one int64 array whose capacity
doubles when it fills, and per row the index of the operation that first
produced it (-1 for a generator) and its parent rows.  Each block is
committed in bulk: its rows not known yet, in first-occurrence order, are
copied in at once.  The stop test is a mask over those fresh rows; its
first hit within the budget's room ends the closure there, and a fresh row
at or before the hit that exceeds the budget raises.  A plain per-tuple
predicate is called on the fresh rows in order, up to its hit.  So on the
dense and keyed paths a commit runs no Python per tuple.  A
``TupleRelation`` reads the arrays and builds its ``tuples`` and
``derivations`` only when they are asked for.

Rows are compared by their base-n keys.  When the key space n^width is at
most ``_CHUNK``, a closure keeps two tables indexed by the key: the
position of each committed tuple (-1 for the others), which answers both
membership and ``index_of``, and an index slot per possible tuple that
``np.minimum.at`` fills with the first position of each fresh key in a
block.  A block's commit then needs no sort and no search of a growing
array.  Tying the limit to ``_CHUNK`` keeps the tables within the
working set a block already has.  Larger key spaces search an array of the
committed keys with ``np.isin`` and order first occurrences with
``np.unique``; from 2^62 on, keys do not fit int64 and tuples are looked up
in the index.

``is_closed`` decides whether a given relation is closed: a small one in a
few array operations on the algebra's lifted tables, any other with one
round of the enumerator that commits nothing.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .algebra import Apply, FiniteAlgebra, Term, Variable, evaluate_columns
from .errors import BudgetExceededError, ConsistencyError

DEFAULT_TUPLE_BUDGET = 10_000_000
# combinations per block: large enough to amortise numpy's per-call cost,
# small enough that a block's arrays stay in cache
_CHUNK = 1 << 16

# derivations: (None, (generator_position,)) for generators,
# (op_symbol, parent_indices) for derived tuples
Derivation = tuple


@dataclass(frozen=True, eq=False)
class TupleRelation:
    """A generated set of fixed-width tuples with per-tuple derivations.

    The closure's arrays are the state: ``rows`` holds the tuples in
    committed order, ``op_ids[i]`` is the position in ``algebra.ops`` of the
    operation that first produced row i (-1 for a generator), and
    ``parents[i, :arity]`` are the rows it was applied to (a generator's
    position in column 0; -1 past the arity).  ``tuples`` and
    ``derivations`` are built from them when first asked for.  A tuple's row
    is read from the dense path's key table, else found by a scan of
    ``rows``.  Equality and hashing are by algebra, width, generators,
    tuples, derivations, rounds and complete.
    """

    algebra: FiniteAlgebra
    width: int
    generators: tuple[tuple[int, ...], ...]
    rows: np.ndarray
    op_ids: np.ndarray
    parents: np.ndarray
    rounds: int
    complete: bool
    # on the dense path, each tuple's position by its key (-1 for absent)
    _table: Optional[np.ndarray] = field(default=None, repr=False)

    @cached_property
    def tuples(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.rows.tolist()))

    @cached_property
    def derivations(self) -> tuple[Derivation, ...]:
        ops = self.algebra.ops
        return tuple(
            (None, (row[0],)) if o < 0 else (ops[o].symbol, tuple(row[:ops[o].arity]))
            for o, row in zip(self.op_ids.tolist(), self.parents.tolist())
        )

    def _value(self) -> tuple:
        return (
            self.algebra, self.width, self.generators, self.tuples,
            self.derivations, self.rounds, self.complete,
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._value() == other._value()

    def __hash__(self):
        return hash(self._value())

    def __len__(self) -> int:
        return len(self.rows)

    def _position(self, t) -> int:
        """The row holding the tuple, or -1."""
        t = tuple(t)
        if len(t) != self.width:
            return -1
        if self._table is None:
            found = np.flatnonzero((self.rows == t).all(axis=1))
            return int(found[0]) if found.size else -1
        n, key = self.algebra.size, 0
        for v in t:
            if v not in range(n):
                return -1
            key = key * n + int(v)
        return int(self._table[key])

    def __contains__(self, t) -> bool:
        return self._position(t) >= 0

    def index_of(self, t) -> int:
        i = self._position(t)
        if i < 0:
            raise KeyError(tuple(t))
        return i

    def as_set(self) -> frozenset:
        return frozenset(self.tuples)


@dataclass(frozen=True)
class WitnessTerm:
    """A term over generator variables whose replay derives a target tuple."""

    term: Term
    target: tuple[int, ...]


def _rectangles(m, lo, k):
    """One round of an m-ary operation (m >= 1) in lexicographic order.

    The round is every index combination over [0, k) holding an index >= lo.
    Yields (prefix, ranges): the combinations prefix + the row-major product
    of the ranges, which hold the last index (m = 1) or the last two.  Per
    (m-2)-prefix that is old x new then new x full, or full x full once the
    prefix holds a new index.
    """
    if m == 1:
        yield (), (range(lo, k),)
        return
    for prefix in itertools.product(range(k), repeat=m - 2):
        if any(i >= lo for i in prefix):
            yield prefix, (range(k), range(k))
            continue
        if lo:
            yield prefix, (range(lo), range(lo, k))
        yield prefix, (range(lo, k), range(k))


def _blocks(m, lo, k):
    """The round's rectangles cut into blocks of at most _CHUNK combinations,
    in the same order and form."""
    for prefix, (first, *rest) in _rectangles(m, lo, k):
        inner = math.prod(len(r) for r in rest)
        if inner <= _CHUNK:
            step = _CHUNK // inner
            for start in range(0, len(first), step):
                yield prefix, (first[start:start + step], *rest)
        else:
            (cols,) = rest
            for i in first:
                for start in range(0, len(cols), _CHUNK):
                    yield prefix, (range(i, i + 1), cols[start:start + _CHUNK])


def _block_indices(rows, n, m, prefix, ranges):
    """Table indices of a block's combinations of an m-ary operation.

    One row per combination, in the block's row-major order: the prefix's
    part plus the last indices' parts, broadcast over the block's grid.
    """
    w = rows.shape[1]
    flat = 0
    for q, i in enumerate(prefix):
        flat = flat + rows[i] * n ** (m - 1 - q)
    last = len(ranges) - 1
    for d, r in enumerate(ranges):
        part = rows[r.start:r.stop]
        if d < last:
            part = part * n ** (last - d)
        flat = flat + part.reshape((1,) * d + (len(r),) + (1,) * (last - d) + (w,))
    return flat.reshape(-1, w)


@functools.lru_cache(maxsize=256)
def _key_powers(n, width):
    """Weights of the base-n ranking key of a width-w row, or None when the
    keys do not fit int64 (n^width >= 2^62).  Cached and read-only: a small
    relation's check would otherwise spend a tenth of its time here."""
    if n**width >= 1 << 62:
        return None
    powers = n ** np.arange(width - 1, -1, -1, dtype=np.int64)
    powers.flags.writeable = False
    return powers


def _is_repeat(values: np.ndarray, block: int) -> np.ndarray:
    """Which rows of a (P, W) array are W/block copies of their first block."""
    v = values.reshape(values.shape[0], -1, block)
    return (v == v[:, :1]).all(axis=(1, 2))


class BlockRepeat:
    """Stop predicate: the tuple is copies of its first ``block`` entries.

    Callable on one tuple like any predicate; ``mask(rows)`` tests every row
    of a (P, width) array at once, which is how a closure applies it.
    """

    def __init__(self, block: int):
        self.block = block

    def __call__(self, t) -> bool:
        return t == t[:self.block] * (len(t) // self.block)

    def mask(self, rows: np.ndarray) -> np.ndarray:
        return _is_repeat(rows, self.block)


def _hit_finder(predicate):
    """The closure's stop test: first(rows) is the position of the first row
    of a (P, width) array that satisfies the predicate, or None.

    A predicate with a ``mask(rows)`` method is evaluated on the whole array
    at once; a plain one is called on the rows as tuples, in order, and
    never past the first hit.
    """
    mask = getattr(predicate, "mask", None)
    if mask is not None:
        def first(rows):
            hits = np.flatnonzero(mask(rows))
            return int(hits[0]) if hits.size else None
    else:
        def first(rows):
            for i, t in enumerate(map(tuple, rows.tolist())):
                if predicate(t):
                    return i
            return None
    return first


class _Closure:
    """Mutable saturation state; committed order is the canonical one.

    The committed rows and their derivations live in arrays whose capacity
    doubles when they fill; ``count`` rows of them are committed.
    """

    def __init__(self, alg, generators, budget, stop):
        self.alg = alg
        self.n = alg.size
        self.width = len(generators[0])
        self.full_size = self.n**self.width
        self.budget = budget
        self.find_hit = None if stop is None else _hit_finder(stop)
        self.hit: Optional[int] = None
        self.rounds = 0
        self.count = 0
        # one parent column per argument of the largest arity; with one
        # possible tuple no row is derived, whatever the arities
        arity = max(op.arity for op in alg.ops) if self.full_size > 1 else 1
        self.rows = np.empty((0, self.width), dtype=np.int64)
        self.op_ids = np.empty(0, dtype=np.intp)
        self.parents = np.empty((0, max(arity, 1)), dtype=np.intp)
        # without int64 ranking keys, fall back to a slower per-candidate
        # dict check
        self.key_powers = _key_powers(self.n, self.width)
        self.use_keys = self.key_powers is not None
        # key-indexed tables for key spaces of at most _CHUNK tuples: seen
        # holds each committed tuple's position (-1 for the others), first
        # holds a block's positions and so takes their dtype (a cast makes
        # np.minimum.at many times slower); larger key spaces keep an array
        # of the committed keys
        self.dense = self.full_size <= _CHUNK
        if self.dense:
            self.seen = np.full(self.full_size, -1, dtype=np.intp)
            self.first = np.zeros(self.full_size, dtype=np.intp)
        elif self.use_keys:
            self.known_keys = np.empty(0, dtype=np.int64)
        else:
            self.index: dict[tuple[int, ...], int] = {}

        def generator_positions(positions, out):
            out[:, 0] = positions

        self._commit_block(
            np.array(generators, dtype=np.int64), -1, generator_positions
        )

    def _reserve(self, end):
        """Room for ``end`` rows, the capacity at least doubling."""
        if end <= len(self.rows):
            return
        capacity = max(end, 2 * len(self.rows), 16)
        names = ["rows", "op_ids", "parents"]
        if not self.dense and self.use_keys:
            names.append("known_keys")
        for name in names:
            old = getattr(self, name)
            new = np.full((capacity,) + old.shape[1:], -1, dtype=old.dtype)
            new[:self.count] = old[:self.count]
            setattr(self, name, new)

    def _commit_block(self, res, op_id, parents_of):
        """Commit the new rows of a result block in first-occurrence order.

        ``parents_of(positions, out)`` writes the parent indices of the rows
        at those positions into the columns of ``out`` (for generators:
        their generator positions).
        """
        if self.dense:
            keys = res @ self.key_powers
            fresh = np.flatnonzero(self.seen[keys] < 0)
            fk = keys[fresh]
            # the least position of each fresh key, its slot reset first;
            # rows past a stop hit or a budget cut leave stale slots, never
            # read again because the closure ends there
            self.first[fk] = len(keys)
            np.minimum.at(self.first, fk, fresh)
            positions = fresh[self.first[fk] == fresh]
        elif self.use_keys:
            keys = res @ self.key_powers
            known = self.known_keys[:self.count]
            fresh = np.flatnonzero(np.isin(keys, known, invert=True))
            _, first = np.unique(keys[fresh], return_index=True)
            positions = fresh[np.sort(first)]
        else:
            flat = np.ascontiguousarray(res)
            view = flat.view(
                np.dtype((np.void, flat.dtype.itemsize * self.width))
            ).ravel()
            _, first = np.unique(view, return_index=True)
            positions = np.sort(first)
            # without keys, known tuples are looked up in the index
            known = [tuple(t) in self.index for t in res[positions].tolist()]
            positions = positions[~np.array(known, dtype=bool)]
        if not positions.size:
            return
        start = self.count
        room = max(self.budget - start, 0)
        cut = positions.size
        new = res[positions]
        if self.find_hit is not None:
            i = self.find_hit(new[:room])
            if i is not None:
                cut = i + 1
                self.hit = start + i
        if cut > room:
            raise BudgetExceededError(
                f"subpower generation exceeds budget of {self.budget} tuples"
            )
        end = start + cut
        positions = positions[:cut]
        self._reserve(end)
        self.rows[start:end] = new[:cut]
        self.op_ids[start:end] = op_id
        parents_of(positions, self.parents[start:end])
        if self.dense:
            self.seen[keys[positions]] = np.arange(start, end)
        elif self.use_keys:
            self.known_keys[start:end] = keys[positions]
        else:
            self.index.update(
                zip(map(tuple, new[:cut].tolist()), range(start, end))
            )
        self.count = end

    def _done(self):
        return self.hit is not None or self.count == self.full_size

    def _round(self, op_id, table, rows, lo, k):
        """Apply one operation to the round's combinations, block by block."""
        op = self.alg.ops[op_id]
        n, w, m = self.n, self.width, op.arity
        if m == 0:
            # the constant tuple can only appear once; round 1 suffices
            if lo == 0:
                res = np.full((1, w), int(op.table[0]), dtype=np.int64)
                self._commit_block(res, op_id, lambda positions, out: None)
            return
        for prefix, ranges in _blocks(m, lo, k):
            shape = tuple(len(r) for r in ranges)
            res = table[_block_indices(rows, n, m, prefix, ranges)]

            def parents_of(positions, out):
                out[:, :len(prefix)] = prefix
                grid = np.unravel_index(positions, shape)
                for d, (g, r) in enumerate(zip(grid, ranges), len(prefix)):
                    out[:, d] = g + r.start

            self._commit_block(res, op_id, parents_of)
            if self._done():
                return

    def run(self):
        tables = [self.alg.table_arrays[op.symbol] for op in self.alg.ops]
        lo = 0
        while self.hit is None and lo < self.count:
            k = self.count
            self.rounds += 1
            if k == self.full_size:
                # the round after the last commit, which finds nothing new
                return
            # a view of the rows known at the round's start: commits only
            # write past them, and a growth leaves this buffer intact
            rows = self.rows[:k]
            for op_id, table in enumerate(tables):
                self._round(op_id, table, rows, lo, k)
                if self._done():
                    break
            lo = k

    def relation(self, generators) -> TupleRelation:
        c = self.count
        return TupleRelation(
            algebra=self.alg,
            width=self.width,
            generators=tuple(generators),
            rows=self.rows[:c],
            op_ids=self.op_ids[:c],
            parents=self.parents[:c],
            rounds=self.rounds,
            complete=self.hit is None,
            _table=self.seen if self.dense else None,
        )


def _validate_generators(alg, generators):
    gens = [tuple(g) for g in generators]
    if not gens:
        raise ValueError("at least one generator tuple is required")
    width = len(gens[0])
    if width == 0:
        raise ValueError("generator width must be positive")
    for g in gens:
        if len(g) != width:
            raise ValueError("all generator tuples must have equal width")
        for v in g:
            if not 0 <= v < alg.size:
                raise ValueError(f"generator entry {v} outside universe")
    return gens


def generate_subpower(
    alg: FiniteAlgebra,
    generators: Sequence[Sequence[int]],
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> TupleRelation:
    """The subpower generated by the given tuples, fully saturated."""
    gens = _validate_generators(alg, generators)
    state = _Closure(alg, gens, budget, None)
    state.run()
    return state.relation(gens)


def generate_until(
    alg: FiniteAlgebra,
    generators: Sequence[Sequence[int]],
    predicate: Callable[[tuple[int, ...]], bool],
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> tuple[TupleRelation, Optional[int]]:
    """Saturate until a committed tuple satisfies the predicate.

    Returns (relation, hit_index).  On a hit the relation is a prefix of the
    full closure (complete=False); a None hit means the closure saturated
    without a match and the relation is complete.  A predicate with a
    ``mask(rows)`` method, such as ``BlockRepeat``, is tested on each
    block's fresh rows at once; a plain one is called once per committed
    tuple, in order, up to the hit.
    """
    gens = _validate_generators(alg, generators)
    state = _Closure(alg, gens, budget, predicate)
    state.run()
    return state.relation(gens), state.hit


def _enumerated_closed(alg, op, rows, powers, member) -> bool:
    """Is every image of the operation on the rows a row?  Checked block by
    block, up to the first block with an image outside."""
    if member is not None:
        contains = lambda block: member[block @ powers].all()
    elif powers is not None:
        members = set((rows @ powers).tolist())
        contains = lambda block: members.issuperset((block @ powers).tolist())
    else:
        members = set(map(tuple, rows.tolist()))
        contains = lambda block: members.issuperset(map(tuple, block.tolist()))
    k, w = rows.shape
    m = op.arity
    table = alg.table_arrays[op.symbol]
    if m == 0:
        return contains(np.full((1, w), table[0]))
    return all(
        contains(table[_block_indices(rows, alg.size, m, prefix, ranges)])
        for prefix, ranges in _blocks(m, 0, k)
    )


def is_closed(alg: FiniteAlgebra, rows: np.ndarray) -> bool:
    """Is the set of rows of a (k, width) array closed under every basic
    operation, coordinate-wise?

    Operations are checked in declaration order.  When the key space
    n^width is at most ``_CHUNK``, the rows' keys are marked in a dense
    member table, and an m-ary operation with (n^width)^m and k^m at most
    ``_CHUNK`` is checked on all k^m combinations at once: the algebra's
    cached lifted table for this width is gathered at the keys along each
    of its m axes, and the images are looked up in the member table.  That
    check and the table's build hold O(``_CHUNK``) entries.  Any other
    operation gets one round of the closure enumerator over the k^m
    combinations that commits nothing; each block's images are looked up
    in the member table, or in a set of keys above ``_CHUNK``, or of tuples
    from 2^62 on.  Its memory is bounded by ``_CHUNK``.
    """
    k, w = rows.shape
    n = alg.size
    powers = _key_powers(n, w)
    member = None
    if powers is not None and n**w <= _CHUNK:
        keys = rows.dot(powers)
        member = np.zeros(n**w, dtype=bool)
        member[keys] = True
    for op in alg.ops:
        m = op.arity
        # m <= 32 keeps the table within numpy 1's limit on dimensions,
        # and a huge arity's power from being taken
        if member is not None and m <= 32 and max(n**w, k) ** m <= _CHUNK:
            images = alg.lifted_table(op.symbol, w)
            for axis in range(m):
                images = images.take(keys, axis)
            # not .all(): its reduction costs a tenth of a small check
            if np.count_nonzero(member[images]) != images.size:
                return False
        elif not _enumerated_closed(alg, op, rows, powers, member):
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


def find_constant(rel: TupleRelation) -> Optional[int]:
    """Least element c with the constant tuple (c, ..., c) in rel."""
    u = find_block_repeat(rel, 1, rel.width)
    return None if u is None else u[0]


def extract_witness(rel: TupleRelation, target) -> WitnessTerm:
    """A term over generator variables deriving the target tuple.

    Walks the relation's parent arrays from the target's row: generators map
    to Variable(position); derived tuples map to Apply over their parents'
    terms.  The term is replayed coordinate-wise against the generators
    before it is returned.
    """
    target = tuple(target)
    root = rel._position(target)
    if root < 0:
        raise ValueError(f"target tuple {target} is not in the relation")
    ops = rel.algebra.ops
    terms: dict[int, Term] = {}
    stack = [root]
    while stack:
        i = stack[-1]
        if i in terms:
            stack.pop()
            continue
        o = rel.op_ids.item(i)
        parents = rel.parents[i].tolist()
        if o < 0:
            terms[i] = Variable(parents[0])
            stack.pop()
            continue
        parents = parents[:ops[o].arity]
        missing = [p for p in parents if p not in terms]
        if missing:
            stack.extend(missing)
            continue
        terms[i] = Apply(ops[o].symbol, tuple(terms[p] for p in parents))
        stack.pop()
    term = terms[root]
    # generator j is row j, so column c holds the arguments at coordinate c
    replay = tuple(evaluate_columns(rel.algebra, term, rel.generators).tolist())
    if replay != target:
        raise ConsistencyError(
            f"witness replay produced {replay}, expected {target}"
        )
    return WitnessTerm(term=term, target=target)
