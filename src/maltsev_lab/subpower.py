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

Rounds are vectorized with numpy; the committed order is identical to the
scalar enumeration above.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .algebra import Apply, FiniteAlgebra, Term, Variable, evaluate_columns
from .errors import BudgetExceededError, ConsistencyError

DEFAULT_TUPLE_BUDGET = 10_000_000
_CHUNK = 1 << 20

# derivations: (None, (generator_position,)) for generators,
# (op_symbol, parent_indices) for derived tuples
Derivation = tuple


@dataclass(frozen=True)
class TupleRelation:
    """A generated set of fixed-width tuples with per-tuple derivations."""

    algebra: FiniteAlgebra
    width: int
    generators: tuple[tuple[int, ...], ...]
    tuples: tuple[tuple[int, ...], ...]
    derivations: tuple[Derivation, ...]
    rounds: int
    complete: bool
    _index: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
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


class _Closure:
    """Mutable saturation state; committed order is the canonical one."""

    def __init__(self, alg, generators, budget, stop):
        self.alg = alg
        self.n = alg.size
        self.width = len(generators[0])
        self.budget = budget
        self.stop = stop
        self.tuples: list[tuple[int, ...]] = []
        self.derivs: list[Derivation] = []
        self.index: dict[tuple[int, ...], int] = {}
        self.hit: Optional[int] = None
        self.rounds = 0
        # int64 ranking keys fit iff n^width < 2^62; otherwise fall back to
        # a slower per-candidate dict check
        self.use_keys = self.n ** self.width < (1 << 62)
        if self.use_keys:
            self.key_powers = np.array(
                [self.n ** (self.width - 1 - i) for i in range(self.width)],
                dtype=np.int64,
            )
        self.known_keys = np.empty(0, dtype=np.int64)
        self.round_rows: list[np.ndarray] = []
        for pos, g in enumerate(generators):
            if g in self.index:
                continue
            self._commit(g, (None, (pos,)))
            if self.hit is not None:
                return

    def _commit(self, t, derivation):
        if len(self.tuples) >= self.budget:
            raise BudgetExceededError(
                f"subpower generation exceeds budget of {self.budget} tuples"
            )
        idx = len(self.tuples)
        self.index[t] = idx
        self.tuples.append(t)
        self.derivs.append(derivation)
        if self.stop is not None and self.hit is None and self.stop(t):
            self.hit = idx

    def _commit_block(self, res, parents, symbol):
        """Commit the new tuples of a result block in first-occurrence order."""
        if res.shape[0] == 0:
            return
        if self.use_keys:
            keys = res @ self.key_powers
            fresh = (
                np.nonzero(~np.isin(keys, self.known_keys))[0]
                if self.known_keys.size
                else np.arange(keys.shape[0])
            )
            if fresh.size == 0:
                return
            _, first = np.unique(keys[fresh], return_index=True)
            positions = fresh[np.sort(first)]
        else:
            flat = np.ascontiguousarray(res)
            view = flat.view(
                np.dtype((np.void, flat.dtype.itemsize * self.width))
            ).ravel()
            _, first = np.unique(view, return_index=True)
            positions = np.sort(first)
        for p in positions.tolist():
            t = tuple(int(v) for v in res[p])
            if t in self.index:
                continue
            self._commit(t, (symbol, tuple(int(a[p]) for a in parents)))
            self.round_rows.append(res[p])
            if self.hit is not None:
                return

    def _apply_batch(self, table, rows, idx_arrays, symbol):
        """Compose one operation over explicit parent index arrays, chunked."""
        total = idx_arrays[0].shape[0]
        for start in range(0, total, _CHUNK):
            end = min(start + _CHUNK, total)
            chunk = [a[start:end] for a in idx_arrays]
            flat = rows[chunk[0]].astype(np.int64)
            for a in chunk[1:]:
                flat = flat * self.n + rows[a]
            res = table[flat]
            self._commit_block(res, chunk, symbol)
            if self.hit is not None:
                return

    def run(self):
        n, w = self.n, self.width
        rows = np.array(self.tuples, dtype=np.int64).reshape(-1, w)
        if self.use_keys:
            self.known_keys = np.sort(rows @ self.key_powers)
        tables = [self.alg.table_arrays[op.symbol] for op in self.alg.ops]
        lo, hi = 0, len(self.tuples)
        while lo < hi:
            self.rounds += 1
            k = hi
            self.round_rows = []
            for op, table in zip(self.alg.ops, tables):
                m = op.arity
                if m == 0:
                    # the constant tuple can only appear once; round 1 suffices
                    if lo == 0:
                        res = np.full((1, w), int(op.table[0]), dtype=np.int64)
                        self._commit_block(res, [], op.symbol)
                elif m == 1:
                    idx = np.arange(lo, k, dtype=np.int64)
                    self._apply_batch(table, rows, [idx], op.symbol)
                elif m == 2:
                    old = np.arange(0, lo, dtype=np.int64)
                    new = np.arange(lo, k, dtype=np.int64)
                    full = np.arange(0, k, dtype=np.int64)
                    if old.size and new.size:
                        # i < lo pairs only with j >= lo; all-old pairs were
                        # enumerated in an earlier round
                        self._apply_batch(
                            table,
                            rows,
                            [np.repeat(old, new.size), np.tile(new, old.size)],
                            op.symbol,
                        )
                    if self.hit is None and new.size:
                        self._apply_batch(
                            table,
                            rows,
                            [np.repeat(new, full.size), np.tile(full, new.size)],
                            op.symbol,
                        )
                elif m == 3:
                    self._ternary_round(table, rows, lo, k, op.symbol)
                else:
                    self._generic_round(op, lo, k)
                if self.hit is not None:
                    return
            if self.round_rows:
                rows = np.vstack([rows] + self.round_rows)
                if self.use_keys:
                    self.known_keys = np.sort(rows @ self.key_powers)
            lo, hi = k, len(self.tuples)

    def _ternary_round(self, table, rows, lo, k, symbol):
        old = np.arange(0, lo, dtype=np.int64)
        new = np.arange(lo, k, dtype=np.int64)
        full = np.arange(0, k, dtype=np.int64)
        for i1 in range(k):
            if i1 < lo:
                # (i2, i3) must contain a new index: [0,lo) x [lo,k), then
                # [lo,k) x [0,k), which is lexicographic among survivors
                blocks = []
                if old.size and new.size:
                    blocks.append(
                        (np.repeat(old, new.size), np.tile(new, old.size))
                    )
                if new.size:
                    blocks.append(
                        (np.repeat(new, full.size), np.tile(full, new.size))
                    )
            else:
                blocks = [(np.repeat(full, full.size), np.tile(full, full.size))]
            for i2, i3 in blocks:
                i1_arr = np.full(i2.shape[0], i1, dtype=np.int64)
                self._apply_batch(table, rows, [i1_arr, i2, i3], symbol)
                if self.hit is not None:
                    return

    def _generic_round(self, op, lo, k):
        # arities above 3 are rare at this scale; scalar path, same order
        n = self.n
        for combo in itertools.product(range(k), repeat=op.arity):
            if max(combo) < lo:
                continue
            parents = [self.tuples[i] for i in combo]
            t = tuple(
                op.table[
                    sum(p[c] * n ** (op.arity - 1 - j) for j, p in enumerate(parents))
                ]
                for c in range(self.width)
            )
            if t in self.index:
                continue
            self._commit(t, (op.symbol, combo))
            self.round_rows.append(np.array(t, dtype=np.int64))
            if self.hit is not None:
                return


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
    return gens, width


def generate_subpower(
    alg: FiniteAlgebra,
    generators: Sequence[Sequence[int]],
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> TupleRelation:
    """The subpower generated by the given tuples, fully saturated."""
    gens, width = _validate_generators(alg, generators)
    state = _Closure(alg, gens, budget, None)
    state.run()
    return TupleRelation(
        algebra=alg,
        width=width,
        generators=tuple(gens),
        tuples=tuple(state.tuples),
        derivations=tuple(state.derivs),
        rounds=state.rounds,
        complete=True,
    )


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
    gens, width = _validate_generators(alg, generators)
    state = _Closure(alg, gens, budget, predicate)
    if state.hit is None:
        state.run()
    rel = TupleRelation(
        algebra=alg,
        width=width,
        generators=tuple(gens),
        tuples=tuple(state.tuples),
        derivations=tuple(state.derivs),
        rounds=state.rounds,
        complete=state.hit is None,
    )
    return rel, state.hit


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


def find_qqrr(rel: TupleRelation) -> Optional[tuple[int, int]]:
    """Least (q, r) lexicographically with (q, q, r, r) in rel; q = r allowed."""
    if rel.width != 4:
        raise ValueError(f"relation width must be 4, got {rel.width}")
    best = None
    for t in rel.tuples:
        if t[0] == t[1] and t[2] == t[3]:
            qr = (t[0], t[2])
            if best is None or qr < best:
                best = qr
    return best


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
