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
size.  Each block is committed in bulk: its rows not known yet, in
first-occurrence order, are appended at once, and the stop predicate and
the tuple budget are applied to them in that order.  Once the relation
holds all n^width tuples no later combination can add one, so enumeration
stops there; ``rounds`` still counts the one empty round that the plain
loop runs after its last commit.

Rows are compared by their base-n keys.  When the key space n^width is at
most ``_CHUNK``, a closure keeps two tables indexed by the key: a bool per
possible tuple that marks the committed ones, and an index slot per
possible tuple that ``np.minimum.at`` fills with the first position of each
fresh key in a block.  A block's commit then needs no sort and no search of
a growing array.  Tying the limit to ``_CHUNK`` keeps the tables within the
working set a block already has.  Larger key spaces search an array of the
committed keys with ``np.isin`` and order first occurrences with
``np.unique``; from 2^62 on, keys do not fit int64 and tuples are looked up
in the index.

``is_closed`` decides whether a given relation is closed with the same
pieces: one round over all combinations of the relation's rows that commits
nothing, block by block, stopping at the first block with an image outside
the relation.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class TupleRelation:
    """A generated set of fixed-width tuples with per-tuple derivations.

    ``_index`` maps each tuple to its position; it is built from ``tuples``
    unless the closure that produced them hands its own over.
    """

    algebra: FiniteAlgebra
    width: int
    generators: tuple[tuple[int, ...], ...]
    tuples: tuple[tuple[int, ...], ...]
    derivations: tuple[Derivation, ...]
    rounds: int
    complete: bool
    _index: Optional[dict] = field(default=None, repr=False, compare=False, hash=False)

    def __post_init__(self):
        if self._index is None:
            object.__setattr__(
                self, "_index", {t: i for i, t in enumerate(self.tuples)}
            )

    def __len__(self) -> int:
        return len(self.tuples)

    def __contains__(self, t) -> bool:
        return tuple(t) in self._index

    def index_of(self, t) -> int:
        return self._index[tuple(t)]

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


def _key_powers(n, width):
    """Weights of the base-n ranking key of a width-w row, or None when the
    keys do not fit int64 (n^width >= 2^62)."""
    if n**width >= 1 << 62:
        return None
    return n ** np.arange(width - 1, -1, -1, dtype=np.int64)


class _Closure:
    """Mutable saturation state; committed order is the canonical one."""

    def __init__(self, alg, generators, budget, stop):
        self.alg = alg
        self.n = alg.size
        self.width = len(generators[0])
        self.full_size = self.n**self.width
        self.budget = budget
        self.stop = stop
        self.tuples: list[tuple[int, ...]] = []
        self.derivs: list[Derivation] = []
        self.index: dict[tuple[int, ...], int] = {}
        self.hit: Optional[int] = None
        self.rounds = 0
        # without int64 ranking keys, fall back to a slower per-candidate
        # dict check
        self.key_powers = _key_powers(self.n, self.width)
        self.use_keys = self.key_powers is not None
        # key-indexed tables for key spaces of at most _CHUNK tuples: seen
        # marks committed tuples, first holds a block's positions and so
        # takes their dtype (a cast makes np.minimum.at many times
        # slower); larger key spaces keep an array of the committed keys
        self.dense = self.full_size <= _CHUNK
        if self.dense:
            self.seen = np.zeros(self.full_size, dtype=bool)
            self.first = np.zeros(self.full_size, dtype=np.intp)
        else:
            self.known_keys = np.empty(0, dtype=np.int64)
        # committed rows not yet stacked into the row array
        self.pending: list[np.ndarray] = []
        self._commit_block(
            np.array(generators, dtype=np.int64),
            None,
            lambda positions: [positions.tolist()],
        )

    def _commit_block(self, res, symbol, parents_of):
        """Commit the new rows of a result block in first-occurrence order.

        ``parents_of(positions)`` gives the parent indices of the rows at
        those positions as one list per argument (for generators: their
        generator positions).
        """
        if self.dense:
            keys = res @ self.key_powers
            fresh = np.flatnonzero(~self.seen[keys])
            fk = keys[fresh]
            # the least position of each fresh key, its slot reset first;
            # rows past a stop hit or a budget cut leave stale slots, never
            # read again because the closure ends there
            self.first[fk] = len(keys)
            np.minimum.at(self.first, fk, fresh)
            positions = fresh[self.first[fk] == fresh]
        elif self.use_keys:
            keys = res @ self.key_powers
            fresh = np.flatnonzero(np.isin(keys, self.known_keys, invert=True))
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
        new = list(map(tuple, res[positions].tolist()))
        if not new:
            return
        start = len(self.tuples)
        room = max(self.budget - start, 0)
        cut = len(new)
        if self.stop is not None:
            for i, t in enumerate(itertools.islice(new, room)):
                if self.stop(t):
                    cut = i + 1
                    self.hit = start + i
                    break
        if cut > room:
            raise BudgetExceededError(
                f"subpower generation exceeds budget of {self.budget} tuples"
            )
        positions = positions[:cut]
        new = new[:cut]
        self.tuples.extend(new)
        self.index.update(zip(new, range(start, start + cut)))
        parents = parents_of(positions)
        args = zip(*parents) if parents else itertools.repeat((), cut)
        self.derivs.extend(zip(itertools.repeat(symbol), args))
        self.pending.append(res[positions])
        if self.dense:
            self.seen[keys[positions]] = True
        elif self.use_keys:
            self.known_keys = np.concatenate([self.known_keys, keys[positions]])

    def _done(self):
        return self.hit is not None or len(self.tuples) == self.full_size

    def _round(self, op, table, rows, lo, k):
        """Apply one operation to the round's combinations, block by block."""
        n, w, m = self.n, self.width, op.arity
        if m == 0:
            # the constant tuple can only appear once; round 1 suffices
            if lo == 0:
                res = np.full((1, w), int(op.table[0]), dtype=np.int64)
                self._commit_block(res, op.symbol, lambda positions: [])
            return
        for prefix, ranges in _blocks(m, lo, k):
            shape = tuple(len(r) for r in ranges)
            res = table[_block_indices(rows, n, m, prefix, ranges)]

            def parents_of(positions):
                grid = np.unravel_index(positions, shape)
                return [[i] * positions.size for i in prefix] + [
                    (g + r.start).tolist() for g, r in zip(grid, ranges)
                ]

            self._commit_block(res, op.symbol, parents_of)
            if self._done():
                return

    def run(self):
        rows = np.empty((0, self.width), dtype=np.int64)
        tables = [self.alg.table_arrays[op.symbol] for op in self.alg.ops]
        lo = 0
        while self.hit is None and lo < len(self.tuples):
            k = len(self.tuples)
            self.rounds += 1
            if k == self.full_size:
                # the round after the last commit, which finds nothing new
                return
            rows = np.vstack([rows] + self.pending)
            self.pending = []
            for op, table in zip(self.alg.ops, tables):
                self._round(op, table, rows, lo, k)
                if self._done():
                    break
            lo = k

    def relation(self, generators) -> TupleRelation:
        return TupleRelation(
            algebra=self.alg,
            width=self.width,
            generators=tuple(generators),
            tuples=tuple(self.tuples),
            derivations=tuple(self.derivs),
            rounds=self.rounds,
            complete=self.hit is None,
            _index=self.index,
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
    without a match and the relation is complete.
    """
    gens = _validate_generators(alg, generators)
    state = _Closure(alg, gens, budget, predicate)
    state.run()
    return state.relation(gens), state.hit


def is_closed(alg: FiniteAlgebra, rows: np.ndarray) -> bool:
    """Is the set of rows of a (k, width) array closed under every basic
    operation, coordinate-wise?

    One round of the closure enumerator over all k^m combinations of each
    m-ary operation, in declaration order, that commits nothing: each
    block's images must all be rows already, and the first block holding
    one that is not ends the check.  Memory is bounded by ``_CHUNK``.
    """
    k, w = rows.shape
    n = alg.size
    powers = _key_powers(n, w)
    if powers is None:
        keys = lambda block: map(tuple, block.tolist())
    else:
        keys = lambda block: (block @ powers).tolist()
    members = set(keys(rows))
    for op in alg.ops:
        table = alg.table_arrays[op.symbol]
        m = op.arity
        if m == 0:
            if not members.issuperset(keys(np.full((1, w), table[0]))):
                return False
            continue
        for prefix, ranges in _blocks(m, 0, k):
            block = table[_block_indices(rows, n, m, prefix, ranges)]
            if not members.issuperset(keys(block)):
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
    best = None
    for t in rel.tuples:
        u = t[:block_width]
        if t == u * block_count and (best is None or u < best):
            best = u
    return best


def find_constant(rel: TupleRelation) -> Optional[int]:
    """Least element c with the constant tuple (c, ..., c) in rel."""
    u = find_block_repeat(rel, 1, rel.width)
    return None if u is None else u[0]


def extract_witness(rel: TupleRelation, target) -> WitnessTerm:
    """A term over generator variables deriving the target tuple.

    Generators map to Variable(position); derived tuples map to Apply over
    their parents' terms.  The term is replayed coordinate-wise against the
    generators before it is returned.
    """
    target = tuple(target)
    if target not in rel:
        raise ValueError(f"target tuple {target} is not in the relation")
    root = rel.index_of(target)
    terms: dict[int, Term] = {}
    stack = [root]
    while stack:
        i = stack[-1]
        if i in terms:
            stack.pop()
            continue
        symbol, parents = rel.derivations[i]
        if symbol is None:
            terms[i] = Variable(parents[0])
            stack.pop()
            continue
        missing = [p for p in parents if p not in terms]
        if missing:
            stack.extend(missing)
            continue
        terms[i] = Apply(symbol, tuple(terms[p] for p in parents))
        stack.pop()
    term = terms[root]
    # generator j is row j, so column c holds the arguments at coordinate c
    replay = tuple(evaluate_columns(rel.algebra, term, rel.generators).tolist())
    if replay != target:
        raise ConsistencyError(
            f"witness replay produced {replay}, expected {target}"
        )
    return WitnessTerm(term=term, target=target)
