"""Brute-force ground truth: exhaustive clone slices and direct identity search.

The k-ary slice of the clone is enumerated as operation tables, starting from
the k projections and composing basic operations with already-found tables
until a fixed point.  This is deliberately a separate, scalar code path from
the subpower engine so the two can check each other.

Table search is exponentially smaller than term search and suffices for
validating the decision procedures: a found table proves "yes" regardless of
whether the slice is complete, while "no" is only reported from a complete
slice.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .algebra import FiniteAlgebra, Operation, flat_index

DEFAULT_TABLE_BUDGET = 100_000

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64: a well-known 64-bit generator with a tiny fixed state.

    Reference stream from seed 0 starts
    0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F; these are
    asserted in the test suite so generated corpora are reproducible across
    implementations.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Next value reduced modulo bound; the documented table-fill rule."""
        return self.next_u64() % bound


@dataclass(frozen=True)
class CloneSlice:
    """All k-ary term operations found within budget, as sorted tables."""

    arity: int
    tables: tuple[tuple[int, ...], ...]
    complete: bool


def _projections(size: int, k: int) -> list[tuple[int, ...]]:
    total = size ** k
    out = []
    for i in range(k):
        block = size ** (k - 1 - i)
        out.append(tuple((idx // block) % size for idx in range(total)))
    return out


def _clone_tables(alg: FiniteAlgebra, k: int, budget: int, satisfies=None) -> tuple:
    """(tables, hit, complete): the k-ary slice's tables in discovery order,
    up to the first that satisfies the predicate, the hit (or None), and
    whether the slice is complete.  A hit claims no completeness."""
    n = alg.size
    total = n ** k
    tables: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()

    def hits(table):
        seen.add(table)
        tables.append(table)
        return satisfies is not None and satisfies(table)

    for p in _projections(n, k):
        if p not in seen and hits(p):
            return tables, p, False
    lo, hi = 0, len(tables)
    while lo < hi:
        for op in alg.ops:
            # a combination belongs to the round that starts at index lo when
            # its largest index is at least lo, 0 counting as the largest
            # index of a constant's empty combination
            for combo in itertools.product(range(hi), repeat=op.arity):
                if max(combo, default=0) < lo:
                    continue
                args = [tables[i] for i in combo]
                new = tuple(
                    op.table[flat_index((a[idx] for a in args), n)]
                    for idx in range(total)
                )
                if new in seen:
                    continue
                if len(tables) >= budget:
                    return tables, None, False
                if hits(new):
                    return tables, new, False
        lo, hi = hi, len(tables)
    return tables, None, True


def enumerate_clone_slice(
    alg: FiniteAlgebra, k: int, budget: int = DEFAULT_TABLE_BUDGET
) -> CloneSlice:
    """The k-ary term operations of the algebra, up to a table-count budget.

    An exceeded budget is reported through complete=False, never an error;
    an incomplete slice still contains genuine term operations.
    """
    if k < 1:
        raise ValueError("slice arity must be at least 1")
    if budget < k:
        raise ValueError("budget must allow at least the projections")
    tables, _, complete = _clone_tables(alg, k, budget)
    return CloneSlice(arity=k, tables=tuple(sorted(tables)), complete=complete)


def qwnu_table_check(table: Sequence[int], size: int, k: int) -> bool:
    """Does a k-ary table satisfy all displaced equalities for all x, y."""
    for x in range(size):
        for y in range(size):
            base = None
            for i in range(k):
                args = [x] * k
                args[i] = y
                v = table[flat_index(args, size)]
                if base is None:
                    base = v
                elif v != base:
                    return False
    return True


def quasi_siggers_table_check(table: Sequence[int], size: int) -> bool:
    """Does a 4-ary table satisfy s(r,a,r,e) = s(a,r,e,a) for all r, a, e."""
    for r in range(size):
        for a in range(size):
            for e in range(size):
                left = table[flat_index((r, a, r, e), size)]
                right = table[flat_index((a, r, e, a), size)]
                if left != right:
                    return False
    return True


def oracle_find_qwnu(
    alg: FiniteAlgebra, k: int, budget: int = DEFAULT_TABLE_BUDGET
) -> tuple[Optional[tuple[int, ...]], bool]:
    """Search the k-ary slice for a quasi weak near-unanimity table.

    Returns (table, complete).  A table is definitive evidence for "yes";
    (None, True) is a definitive "no"; (None, False) is inconclusive.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    _, table, complete = _clone_tables(
        alg, k, budget, lambda t: qwnu_table_check(t, alg.size, k)
    )
    return table, complete


def oracle_find_quasi_siggers(
    alg: FiniteAlgebra, budget: int = DEFAULT_TABLE_BUDGET
) -> tuple[Optional[tuple[int, ...]], bool]:
    """Search the 4-ary slice for a table satisfying the quasi Siggers identity."""
    _, table, complete = _clone_tables(
        alg, 4, budget, lambda t: quasi_siggers_table_check(t, alg.size)
    )
    return table, complete


def random_algebra(
    seed: int,
    size: int,
    signature: Sequence[int],
    idempotent: bool = False,
) -> FiniteAlgebra:
    """A reproducible random algebra.

    Tables are filled from one splitmix64 stream seeded with ``seed``, in
    index order, operation by operation in signature order, each entry being
    next_u64() mod size.  With ``idempotent`` the diagonal entries are then
    forced to the diagonal argument; that requires every arity to be at
    least 1.  The seed must lie in 0..2^64-1: splitmix64 keeps only its low
    64 bits, so any other seed would alias one of those under another name.
    """
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be in 0..2^64-1, got {seed}")
    if size < 1:
        raise ValueError("size must be at least 1")
    if not signature:
        raise ValueError("signature must list at least one arity")
    if idempotent and any(m < 1 for m in signature):
        raise ValueError("idempotent algebras need arities of at least 1")
    rng = SplitMix64(seed)
    ops = []
    for i, m in enumerate(signature):
        if m < 0:
            raise ValueError("arities must be nonnegative")
        table = [rng.below(size) for _ in range(size ** m)]
        if idempotent:
            for a in range(size):
                table[flat_index((a,) * m, size)] = a
        ops.append(Operation(f"f{i}", m, tuple(table)))
    tag = "x".join(str(m) for m in signature)
    name = f"rand-s{seed}-n{size}-a{tag}" + ("-idem" if idempotent else "")
    return FiniteAlgebra(name, size, tuple(ops))


def dump_corpus(
    directory,
    seeds: Sequence[int],
    size: int,
    signature: Sequence[int],
    idempotent: bool = False,
) -> list:
    """Write one algebra file per seed; the filename encodes seed and signature.

    Returns the written paths.  Files use the standard text format, so they
    feed straight back into the command line tools.
    """
    from pathlib import Path

    from .io import format_algebra

    out = []
    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    for seed in seeds:
        alg = random_algebra(seed, size, signature, idempotent=idempotent)
        path = base / f"{alg.name}.alg"
        path.write_text(format_algebra(alg), encoding="utf-8")
        out.append(path)
    return out
