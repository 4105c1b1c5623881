"""Decision procedures for quasi weak near-unanimity and quasi Taylor terms.

Each procedure quantifies over pairs of elements (or element tuples).  A
pair fixes W argument tuples of length k, one per output coordinate, and a
k-ary term is a local witness at the pair when its W values repeat their
first block:

  k-qWNU           the k displaced tuples; block 1, a constant
  n-local k-qWNU   k blocks of n tuples, block i displaced in argument i;
                   block n
  quasi Taylor     both sides of two quasi Siggers instances at the pair,
                   left values first; block 2

Read the other way, the k argument positions are the generator columns of a
subpower, and a witness exists iff that subpower holds a block repeat.

The sweep is term first.  Pairs are taken in lexicographic order, in blocks
of _PAIR_BLOCK.  Each term found so far is evaluated, in discovery order, on
every pair of the block that no earlier term covers, one batched
``evaluate_columns`` call per term.  The first pair left uncovered is
saturated; the term read off its derivation is evaluated on the uncovered
pairs after it, and so on.  So every pair gets the earliest-discovered term
that works for it, and the first pair whose saturation holds no block repeat
refutes.  A refutation is saturated again from scratch and checked by the
standalone pattern finder.  Before a report is built, every witness is
evaluated again on its pair, one call per distinct term, and checked against
the equalities it claims.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional

import numpy as np

from .algebra import (  # noqa: F401  term_table stays importable from here
    FiniteAlgebra,
    Term,
    evaluate_columns,
    idempotence_violation,
    term_table,
)
from .errors import BudgetExceededError, ConsistencyError
from .subpower import (
    DEFAULT_TUPLE_BUDGET,
    extract_witness,
    find_block_repeat,
    generate_subpower,
    generate_until,
)

# pairs per sweep block; the block's argument array is k x _PAIR_BLOCK x W
_PAIR_BLOCK = 1 << 12


@dataclass(frozen=True)
class PairWitness:
    """A verified local witness: the term, its output pattern, and the
    equality chain it satisfies at the pair."""

    pair: tuple
    term: Term
    result: tuple
    identities: tuple[str, ...]


@dataclass(frozen=True)
class ReportStats:
    pairs_checked: int
    tuples_generated: int
    rounds_max: int
    elapsed_seconds: float


@dataclass(frozen=True)
class DecisionReport:
    """Outcome of one decision run: verdict plus witnesses or a refutation."""

    problem: str
    algebra: str
    parameters: tuple[tuple[str, int], ...]
    answer: bool
    witnesses: tuple[PairWitness, ...]
    refutation: Optional[tuple]
    stats: ReportStats

    @property
    def parameter_map(self) -> dict:
        return dict(self.parameters)




def _is_repeat(values: np.ndarray, block: int) -> np.ndarray:
    """Which rows of a (P, W) array are W/block copies of their first block."""
    v = values.reshape(values.shape[0], -1, block)
    return (v == v[:, :1]).all(axis=(1, 2))


def _values(alg, term, cols, idx) -> np.ndarray:
    """The term's values on pairs ``idx`` of a (k, P, W) argument array, as a
    (len(idx), W) array."""
    k, _, width = cols.shape
    values = evaluate_columns(alg, term, cols[:, idx].reshape(k, -1))
    return values.reshape(len(idx), width)


def _claimed_witnesses(alg, chunk, cols, term_of, block, identities_of):
    """The witnesses of one block, each term evaluated again on its pairs."""
    members: dict[int, list[int]] = {}
    for p, term in enumerate(term_of):
        members.setdefault(id(term), []).append(p)
    witnesses: list = [None] * len(chunk)
    for group in members.values():
        term = term_of[group[0]]
        values = _values(alg, term, cols, group)
        ok = _is_repeat(values, block)
        if not ok.all():
            pair = chunk[group[int(np.argmin(ok))]]
            raise ConsistencyError(
                f"witness violates its claimed equalities at pair {pair}"
            )
        for p, row in zip(group, values[:, :block].tolist()):
            result = tuple(row)
            witnesses[p] = PairWitness(
                pair=chunk[p],
                term=term,
                result=result,
                identities=identities_of(chunk[p], result),
            )
    return witnesses


def _run_pair_sweep(
    alg: FiniteAlgebra,
    problem: str,
    parameters: tuple[tuple[str, int], ...],
    pairs: Iterable[tuple],
    args_of: Callable[[tuple], list[tuple[int, ...]]],
    block: int,
    identities_of: Callable[[tuple, tuple], tuple[str, ...]],
    budget: int,
) -> DecisionReport:
    start = time.perf_counter()
    known_terms: list[Term] = []
    witnesses: list[PairWitness] = []
    tuples_generated = 0
    rounds_max = 0
    pairs_checked = 0

    def report(refutation):
        stats = ReportStats(
            pairs_checked=pairs_checked,
            tuples_generated=tuples_generated,
            rounds_max=rounds_max,
            elapsed_seconds=time.perf_counter() - start,
        )
        return DecisionReport(
            problem=problem,
            algebra=alg.name,
            parameters=parameters,
            answer=refutation is None,
            witnesses=tuple(witnesses) if refutation is None else (),
            refutation=refutation,
            stats=stats,
        )

    pairs = iter(pairs)
    while chunk := list(itertools.islice(pairs, _PAIR_BLOCK)):
        # cols[j, p, c]: argument j of pair p at output coordinate c
        cols = np.array([args_of(p) for p in chunk], dtype=np.int64).transpose(2, 0, 1)
        reps = cols.shape[2] // block
        term_of: list[Optional[Term]] = [None] * len(chunk)
        uncovered = np.ones(len(chunk), dtype=bool)

        def cover(term, lo):
            idx = lo + np.flatnonzero(uncovered[lo:])
            if idx.size == 0:
                return
            hit = idx[_is_repeat(_values(alg, term, cols, idx), block)]
            uncovered[hit] = False
            for p in hit.tolist():
                term_of[p] = term

        for term in known_terms:
            cover(term, 0)
        for p, pair in enumerate(chunk):
            pairs_checked += 1
            if term_of[p] is not None:
                continue
            gens = [tuple(g) for g in cols[:, p].tolist()]
            rel, hit = generate_until(
                alg, gens, lambda t: t == t[:block] * reps, budget
            )
            tuples_generated += len(rel)
            rounds_max = max(rounds_max, rel.rounds)
            if hit is None:
                # refutation: replay the pair from scratch and require the
                # standalone pattern finder to agree before reporting "no"
                again = generate_subpower(alg, gens, budget)
                if (
                    again.as_set() != rel.as_set()
                    or find_block_repeat(again, block, reps) is not None
                ):
                    raise ConsistencyError(
                        f"refutation at pair {pair} did not reproduce"
                    )
                return report(pair)
            term = extract_witness(rel, rel.tuples[hit]).term
            known_terms.append(term)
            term_of[p] = term
            uncovered[p] = False
            cover(term, p + 1)
        witnesses.extend(
            _claimed_witnesses(alg, chunk, cols, term_of, block, identities_of)
        )
    return report(None)


def _local_result(alg, term, args, block) -> Optional[tuple]:
    """The first block of the term's values at the argument tuples, if the
    values repeat it, else None."""
    values = evaluate_columns(alg, term, np.array(args, dtype=np.int64).T)
    if not _is_repeat(values.reshape(1, -1), block)[0]:
        return None
    return tuple(values[:block].tolist())


def _displaced_args(r, s, k, i):
    args = [r] * k
    args[i] = s
    return tuple(args)


def _qwnu_args(r, s, k):
    return [_displaced_args(r, s, k, i) for i in range(k)]


def _nlocal_args(rbar, sbar, k):
    """Block i, coordinate c: sbar[c] in argument i, rbar[c] elsewhere."""
    return [
        tuple((sbar if i == j else rbar)[c] for j in range(k))
        for i in range(k)
        for c in range(len(rbar))
    ]


def _siggers_instances(a, b):
    """Two instantiations of s(r,x,r,e) = s(x,r,e,x) over the values {a, b}.

    The first flips a/b in argument positions 1 and 2, the second in
    positions 3 and 4, so one term satisfying both is a local quasi Taylor
    term for the pair.  Each instance is ((left args), (right args)).
    """
    return (
        ((a, b, a, b), (b, a, b, b)),  # (r, x, e) = (a, b, b)
        ((b, b, b, a), (b, b, a, b)),  # (r, x, e) = (b, b, a)
    )


def _qtaylor_args(a, b):
    (i1l, i1r), (i2l, i2r) = _siggers_instances(a, b)
    return [i1l, i2l, i1r, i2r]


def _call(name, args):
    return name + "(" + ",".join(map(str, args)) + ")"


def has_k_qwnu(
    alg: FiniteAlgebra, k: int, budget: int = DEFAULT_TUPLE_BUDGET
) -> DecisionReport:
    """Decide whether the algebra has a k-ary quasi weak near-unanimity term.

    For every ordered pair (r, s) the subpower generated by the k tuples
    with s in one coordinate and r elsewhere must contain a constant tuple.
    k = 1 is rejected: the unary case is vacuous and almost always a misuse.
    """
    if k < 2:
        raise ValueError("k must be at least 2")

    def identities(pair, result):
        chain = " = ".join(_call("t", args) for args in _qwnu_args(*pair, k))
        return (f"{chain} = {result[0]}",)

    return _run_pair_sweep(
        alg,
        problem="qwnu",
        parameters=(("k", k),),
        pairs=itertools.product(range(alg.size), repeat=2),
        args_of=lambda pair: _qwnu_args(*pair, k),
        block=1,
        identities_of=identities,
        budget=budget,
    )


def has_k_wnu_idemp(
    alg: FiniteAlgebra, k: int, budget: int = DEFAULT_TUPLE_BUDGET
) -> DecisionReport:
    """Decide whether an idempotent algebra has a k-ary weak near-unanimity term.

    In an idempotent algebra every quasi witness is itself idempotent, so this
    delegates to the quasi decision and then asserts idempotence of each
    witness as a consistency check.  Non-idempotent input is a precondition
    error naming the violating operation and element.
    """
    violation = idempotence_violation(alg)
    if violation is not None:
        symbol, element, value = violation
        diag = ",".join([str(element)] * max(alg.operation(symbol).arity, 1))
        raise ValueError(
            f"algebra is not idempotent: {symbol}({diag}) = {value}, "
            f"expected {element}"
        )
    report = has_k_qwnu(alg, k, budget=budget)
    diagonal = np.tile(np.arange(alg.size), (k, 1))
    terms = {id(w.term): w.term for w in report.witnesses}
    for term in terms.values():
        if (evaluate_columns(alg, term, diagonal) != diagonal[0]).any():
            raise ConsistencyError(
                "witness of an idempotent algebra is not idempotent"
            )
    return replace(report, problem="wnu-idemp")


def has_n_local_k_qwnu(
    alg: FiniteAlgebra, n: int, k: int, budget: int = DEFAULT_TUPLE_BUDGET
) -> DecisionReport:
    """Decide whether the algebra has n-local k-ary quasi weak near-unanimity
    terms: for every pair of n-tuples (rbar, sbar), the subpower of width k*n
    generated by the k block columns (sbar in block i of column i, rbar in the
    other blocks) must contain a k-fold block repeat (ubar, ..., ubar).
    """
    if n < 1:
        raise ValueError("locality n must be at least 1")
    if k < 2:
        raise ValueError("k must be at least 2")
    pair_count = alg.size ** (2 * n)
    if pair_count > budget:
        raise BudgetExceededError(
            f"{pair_count} tuple pairs exceed the budget of {budget}"
        )

    def identities(pair, result):
        rbar, sbar = pair

        def fmt(i):
            return _call("t", (_call("", sbar if i == j else rbar) for j in range(k)))

        chain = " = ".join(fmt(i) for i in range(k))
        return (f"{chain} = {_call('', result)} in every block",)

    tuples_n = list(itertools.product(range(alg.size), repeat=n))
    return _run_pair_sweep(
        alg,
        problem="nlocal-qwnu",
        parameters=(("n", n), ("k", k)),
        pairs=itertools.product(tuples_n, repeat=2),
        args_of=lambda pair: _nlocal_args(*pair, k),
        block=n,
        identities_of=identities,
        budget=budget,
    )


def has_quasi_taylor(
    alg: FiniteAlgebra, budget: int = DEFAULT_TUPLE_BUDGET
) -> DecisionReport:
    """Decide whether the algebra has a quasi Taylor term.

    For every pair (a, b), both sides of the two quasi Siggers instances at
    the pair are stacked into four coordinates (left values first); the
    subpower generated by the four variable columns must contain a tuple of
    shape (u, v, u, v), meaning some term satisfies both instances.  Such a
    term flips a against b in every argument position, which makes it a
    local quasi Taylor term at (a, b), and having one for every pair is
    equivalent to having a global quasi Taylor term.
    """

    def identities(pair, result):
        (i1l, i1r), (i2l, i2r) = _siggers_instances(*pair)
        u, v = result
        return (
            f"{_call('s', i1l)} = {_call('s', i1r)} = {u}",
            f"{_call('s', i2l)} = {_call('s', i2r)} = {v}",
        )

    return _run_pair_sweep(
        alg,
        problem="qtaylor",
        parameters=(),
        pairs=itertools.product(range(alg.size), repeat=2),
        args_of=lambda pair: _qtaylor_args(*pair),
        block=2,
        identities_of=identities,
        budget=budget,
    )


def check_qwnu_identities(alg: FiniteAlgebra, t: Term, k: int) -> bool:
    """Global check: do all k displaced evaluations coincide for ALL x, y."""
    if k < 1:
        raise ValueError("k must be at least 1")
    args = [
        a
        for x, y in itertools.product(range(alg.size), repeat=2)
        for a in _qwnu_args(x, y, k)
    ]
    values = evaluate_columns(alg, t, np.array(args, dtype=np.int64).T)
    return bool(_is_repeat(values.reshape(-1, k), 1).all())


def check_quasi_siggers_identity(alg: FiniteAlgebra, s: Term) -> bool:
    """Global check of s(r,a,r,e) = s(a,r,e,a) over the whole universe."""
    r, a, e = np.indices((alg.size,) * 3).reshape(3, -1)
    left = evaluate_columns(alg, s, np.stack([r, a, r, e]))
    right = evaluate_columns(alg, s, np.stack([a, r, e, a]))
    return bool((left == right).all())


def verify_qwnu_witness(alg, k, r, s, term) -> Optional[int]:
    """The common value of the k displaced evaluations at (r, s), or None."""
    got = _local_result(alg, term, _qwnu_args(r, s, k), 1)
    return None if got is None else got[0]


def verify_nlocal_witness(alg, n, k, rbar, sbar, term) -> Optional[tuple[int, ...]]:
    """The repeated block produced by the witness at (rbar, sbar), or None."""
    return _local_result(alg, term, _nlocal_args(rbar, sbar, k), n)


def verify_qtaylor_witness(alg, a, b, term) -> Optional[tuple[int, int]]:
    """The (u, v) instance values realized by the witness at (a, b), or None."""
    return _local_result(alg, term, _qtaylor_args(a, b), 2)
