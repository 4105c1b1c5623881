"""Decision procedures for quasi weak near-unanimity and quasi Taylor terms.

Each condition is a ``Problem`` record, data only: a pattern of term
applications, a point shape, a block and a symbol.  A pair of points
(elements, or element tuples) fills each application, one of its two points
per argument, and a k-ary term is a local witness at the pair when its
values on the applications, coordinate by coordinate, repeat their first
block:

  qwnu(k)          the k displacements: the second point in argument i of
                   application i, the first elsewhere; block 1, a constant
  nlocal(n, k)     the same displacements of n-tuples; block n
  qtaylor()        both sides of two quasi Siggers instances at the pair,
                   left sides first; block 2

``decide(alg, problem, budget)`` sweeps the pairs, and
``verify_local(alg, problem, pair, term)`` checks one witness the same way.

Read the other way, the k argument positions are the generator columns of a
subpower, and a witness exists iff that subpower holds a block repeat.

The sweep is term first.  Pairs are taken in lexicographic order, in blocks
of _PAIR_BLOCK.  Each term found so far is evaluated, in discovery order, on
every pair of the block that no earlier term covers, one batched
evaluation per term.  The first pair left uncovered is saturated until its
first block repeat.  The term walked from that hit's row, with no lookup,
is replayed on the pair's generators and compared with the row by key,
then evaluated on the uncovered pairs after it, and so on.  So every
pair gets the earliest-discovered term that works for it, and the first
pair whose saturation holds no block repeat refutes.  That closure proves
the refutation, with no second saturation: it holds the pair's generators,
``is_closed`` finds the keys it committed closed under every operation, and
the standalone pattern finder finds no block repeat in it.  The closedness
check shares no enumerator with the closure, and reads the problem's
coordinate group, ``Problem.group``: it proves the closure invariant under
the group before it ranges one argument over orbit representatives, so a
wrong group raises ``ConsistencyError`` and never refutes.  Before a
report is built, every witness is evaluated again on its pair, one call
per distinct term, and checked against the equalities it claims.

Checks.  Every term, the extracted witnesses included, is evaluated by the
algebra's one evaluator core, ``_evaluate``, which checks it node by node: a
known symbol, its arity's number of children, a variable below k.
Arguments are checked where they enter, by ``verify_local``'s pair check;
the sweep's are the problem's points, so no evaluation here scans their
range.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .algebra import (  # noqa: F401  term_table stays importable from here
    FiniteAlgebra,
    Term,
    _evaluate,
    idempotence_violation,
    term_table,
)
from .errors import BudgetExceededError, ConsistencyError
from .subpower import (  # noqa: F401  generate_subpower stays importable from here
    DEFAULT_TUPLE_BUDGET,
    BlockRepeat,
    _is_repeat,
    extract_witness,
    find_block_repeat,
    generate_subpower,
    generate_until,
    is_closed,
)

# pairs per sweep block; the block's argument array is k x _PAIR_BLOCK x W
_PAIR_BLOCK = 1 << 12


@dataclass(frozen=True)
class Problem:
    """One condition, decided pair by pair, as data.

    Pairs are of elements when ``point`` is None, else of ``point``-tuples.
    ``pattern`` has one row per term application the condition displays;
    entry j of a row is 0 or 1: argument j is the pair's first or second
    point.  Application i fills output coordinates i*p to i*p + p - 1, p
    the point's length (1 for an element), so a pair fixes W = p *
    len(pattern) argument tuples.  A witness's W values repeat ``result``,
    their first ``block`` values, and its identities call the term
    ``symbol``.  Reports name the pair's two fields ``pair_names``.
    """

    name: str
    parameters: tuple[tuple[str, int], ...]
    point: Optional[int]
    pattern: tuple[tuple[int, ...], ...]
    block: int
    symbol: str
    pair_names: tuple[str, str]

    def points(self, alg: FiniteAlgebra) -> Sequence:
        """The elements, or the ``point``-tuples in lexicographic order."""
        if self.point is None:
            return range(alg.size)
        return list(itertools.product(range(alg.size), repeat=self.point))

    def pairs(self, alg: FiniteAlgebra) -> Iterable[tuple]:
        """The pairs the sweep visits on the algebra, in its order."""
        return itertools.product(self.points(alg), repeat=2)

    def identities(self, pair: tuple, result: tuple) -> tuple[str, ...]:
        """The equality chains of a witness whose values at the pair repeat
        ``result``: with elements, chain j holds the applications j, j +
        block, ... and ends in result[j]; with tuples, one chain holds all
        applications, each of which is ``result`` in every coordinate."""
        first, second = pair
        return tuple([t.format(first, second, result) for t in self._templates])

    @cached_property
    def group(self) -> tuple[tuple[range, ...], ...]:
        """Sets of applications, each given by its output coordinates, whose
        blocks every pair's subpower is invariant under permuting: a
        transposition of two applications that maps the pattern's columns,
        the generators, onto themselves maps the subpower onto itself, and
        such transpositions generate the symmetric group of each set they
        connect."""
        columns = set(zip(*self.pattern))
        sets = [{a} for a in range(len(self.pattern))]
        for a, b in itertools.combinations(range(len(self.pattern)), 2):
            rows = list(self.pattern)
            rows[a], rows[b] = rows[b], rows[a]
            first = next(s for s in sets if a in s)
            second = next(s for s in sets if b in s)
            if first is not second and set(zip(*rows)) == columns:
                first |= second
                sets.remove(second)
        p = self.point or 1
        return tuple(
            tuple(range(a * p, a * p + p) for a in sorted(s)) for s in sets if len(s) > 1
        )

    @cached_property
    def _templates(self) -> tuple[str, ...]:
        """``identities`` as ``str.format`` templates over (first point,
        second point, result), compiled once; braces in ``symbol`` are
        escaped."""
        symbol = self.symbol.replace("{", "{{").replace("}", "}}")
        if self.point is None:
            points = ["{0}", "{1}"]
        else:
            points = [_call("", (f"{{{b}[{c}]}}" for c in range(self.point))) for b in (0, 1)]
        calls = [f"{symbol}({','.join([points[b] for b in row])})" for row in self.pattern]
        if self.point is not None:
            result = _call("", (f"{{2[{c}]}}" for c in range(self.block)))
            return (f"{' = '.join(calls)} = {result} in every block",)
        return tuple(
            f"{' = '.join(calls[j::self.block])} = {{2[{j}]}}" for j in range(self.block)
        )


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
    pair_names: tuple[str, str]
    answer: bool
    witnesses: tuple[PairWitness, ...]
    refutation: Optional[tuple]
    stats: ReportStats


def _columns(problem: Problem, pairs) -> np.ndarray:
    """cols[j, p, c]: argument j of pair p at output coordinate c, which is
    coordinate c % p' of application c // p' (p' the point's length)."""
    points = np.array(pairs, dtype=np.int64).reshape(len(pairs), 2, -1)
    # (P, k, applications, p'): the point that each argument selects
    args = points[:, np.array(problem.pattern).T]
    return args.transpose(1, 0, 2, 3).reshape(args.shape[1], len(pairs), -1)


def _values(alg, term, cols, idx) -> np.ndarray:
    """The term's values on pairs ``idx`` of a (k, P, W) argument array, as a
    (len(idx), W) array.  The arguments are points of the problem, in the
    universe by construction, so only the term is checked, node by node."""
    k, _, width = cols.shape
    values = _evaluate(alg, term, cols[:, idx].reshape(k, -1))
    return values.reshape(len(idx), width)


def _results(alg, problem, term, cols, idx) -> list[Optional[tuple]]:
    """Per pair of ``idx``: the first block of the term's values if they repeat it, else None."""
    values = _values(alg, term, cols, idx)
    ok = _is_repeat(values, problem.block).tolist()
    rows = values[:, :problem.block].tolist()
    return [tuple(row) if good else None for row, good in zip(rows, ok)]


def _claimed_witnesses(alg, problem, chunk, cols, term_of):
    """The witnesses of one block, each term evaluated again on its pairs."""
    members: dict[int, list[int]] = {}
    for p, term in enumerate(term_of):
        members.setdefault(id(term), []).append(p)
    witnesses: list = [None] * len(chunk)
    for group in members.values():
        term = term_of[group[0]]
        for p, result in zip(group, _results(alg, problem, term, cols, group)):
            if result is None:
                raise ConsistencyError(
                    f"witness violates its claimed equalities at pair {chunk[p]}"
                )
            identities = problem.identities(chunk[p], result)
            witnesses[p] = PairWitness(chunk[p], term, result, identities)
    return witnesses


def _unproved(alg, problem, rel, gens) -> Optional[str]:
    """Why a saturated closure with no block repeat found does not refute,
    or None.  A closed set that holds the generators holds every term's
    values at the pair, so with no block repeat it refutes; its closedness
    is checked with the problem's group, and a relation that is not
    invariant under it is named."""
    if not all(g in rel for g in gens):
        return "a generator is missing from its closure"
    try:
        if not is_closed(alg, rel.keys, rel.width, problem.group):
            return "its closure is not closed"
    except ConsistencyError as exc:
        return str(exc)
    if find_block_repeat(rel, problem.block, rel.width // problem.block) is not None:
        return "its closure holds a block repeat"
    return None


def decide(
    alg: FiniteAlgebra, problem: Problem, budget: int = DEFAULT_TUPLE_BUDGET
) -> DecisionReport:
    """Sweep the problem's pairs: a verified witness for every pair, or the
    first pair whose subpower holds no block repeat."""
    if problem.point is not None:
        pair_count = alg.size ** (2 * problem.point)
        if pair_count > budget:
            raise BudgetExceededError(
                f"{pair_count} tuple pairs exceed the budget of {budget}"
            )
    start = time.perf_counter()
    block = problem.block
    stop = BlockRepeat(block)
    known_terms: list[Term] = []
    witnesses: list[PairWitness] = []
    tuples_generated = 0
    rounds_max = 0
    pairs_checked = 0
    # the sweep's closures share one key space and pass its table on
    tables: dict = {}

    def report(refutation):
        stats = ReportStats(
            pairs_checked=pairs_checked,
            tuples_generated=tuples_generated,
            rounds_max=rounds_max,
            elapsed_seconds=time.perf_counter() - start,
        )
        return DecisionReport(
            problem=problem.name,
            algebra=alg.name,
            parameters=problem.parameters,
            pair_names=problem.pair_names,
            answer=refutation is None,
            witnesses=tuple(witnesses) if refutation is None else (),
            refutation=refutation,
            stats=stats,
        )

    pairs = iter(problem.pairs(alg))
    while chunk := list(itertools.islice(pairs, _PAIR_BLOCK)):
        cols = _columns(problem, chunk)
        term_of: list[Optional[Term]] = [None] * len(chunk)
        uncovered = np.ones(len(chunk), dtype=bool)

        def cover(term, lo):
            idx = lo + uncovered[lo:].nonzero()[0]
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
            rel, hit = generate_until(alg, gens, stop, budget, tables)
            tuples_generated += len(rel)
            rounds_max = max(rounds_max, rel.rounds)
            if hit is None:
                failed = _unproved(alg, problem, rel, gens)
                if failed is None:
                    return report(pair)
                raise ConsistencyError(f"refutation at pair {pair} is not proved: {failed}")
            term = extract_witness(rel, row=hit).term
            # free the closure's keys and positions before the term is
            # evaluated on the block, which would otherwise hold both at the
            # sweep's peak
            del rel
            known_terms.append(term)
            term_of[p] = term
            uncovered[p] = False
            cover(term, p + 1)
        witnesses.extend(_claimed_witnesses(alg, problem, chunk, cols, term_of))
    return report(None)


def verify_local(
    alg: FiniteAlgebra, problem: Problem, pair: tuple, term: Term
) -> Optional[tuple]:
    """The first block of the term's values at the pair when the values
    repeat it, which is the ``result`` a witness reports there, else None.

    A pair that the problem's sweep never visits on this algebra is a
    ValueError naming the expected shape.
    """
    points = problem.points(alg)
    if not (isinstance(pair, tuple) and len(pair) == 2 and all(x in points for x in pair)):
        shape = "elements" if problem.point is None else f"{problem.point}-tuples"
        raise ValueError(
            f"{problem.name} pairs are ({', '.join(problem.pair_names)}) of "
            f"{shape} over 0..{alg.size - 1}, got {pair!r}"
        )
    return _results(alg, problem, term, _columns(problem, [pair]), [0])[0]


def _call(name, args):
    return name + "(" + ",".join(map(str, args)) + ")"


def _displacements(k):
    """The k displaced applications: the second point in argument i of
    application i, the first elsewhere."""
    return tuple(tuple(int(i == j) for j in range(k)) for i in range(k))


def qwnu(k: int) -> Problem:
    """k-ary quasi weak near-unanimity: at every pair (r, s) the k tuples
    with s in one coordinate and r elsewhere generate a subpower holding a
    constant tuple.  k = 1 is rejected: the unary case is vacuous and
    almost always a misuse.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    return Problem("qwnu", (("k", k),), None, _displacements(k), 1, "t", ("r", "s"))


def nlocal(n: int, k: int) -> Problem:
    """n-local k-ary quasi weak near-unanimity: for every pair of n-tuples
    (rbar, sbar), the subpower of width k*n generated by the k block columns
    (sbar in block i of column i, rbar in the other blocks) must contain a
    k-fold block repeat (ubar, ..., ubar).
    """
    if n < 1:
        raise ValueError("locality n must be at least 1")
    if k < 2:
        raise ValueError("k must be at least 2")
    return Problem(
        "nlocal-qwnu", (("n", n), ("k", k)), n, _displacements(k), n, "t", ("r", "s")
    )


def qtaylor() -> Problem:
    """Quasi Taylor: at every pair (a, b), one term satisfies two instances
    of s(r,x,r,e) = s(x,r,e,x) over {a, b}, the first flipping a/b in
    argument positions 1 and 2, the second in positions 3 and 4.  Such a
    term flips a against b in every position, so it is a local quasi Taylor
    term at (a, b); one for every pair is equivalent to a global one.
    """
    # left sides, then right sides, with (r, x, e) = (a, b, b), then (b, b, a)
    pattern = ((0, 1, 0, 1), (1, 1, 1, 0), (1, 0, 1, 1), (1, 1, 0, 1))
    return Problem("qtaylor", (), None, pattern, 2, "s", ("a", "b"))


def has_k_qwnu(
    alg: FiniteAlgebra, k: int, budget: int = DEFAULT_TUPLE_BUDGET
) -> DecisionReport:
    """Decide whether the algebra has a k-ary quasi weak near-unanimity term."""
    return decide(alg, qwnu(k), budget)


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
        diag = ",".join([str(element)] * alg.operation(symbol).arity)
        raise ValueError(
            f"algebra is not idempotent: {symbol}({diag}) = {value}, "
            f"expected {element}"
        )
    report = decide(alg, qwnu(k), budget)
    diagonal = np.tile(np.arange(alg.size, dtype=np.int64), (k, 1))
    terms = {id(w.term): w.term for w in report.witnesses}
    for term in terms.values():
        if (_evaluate(alg, term, diagonal) != diagonal[0]).any():
            raise ConsistencyError(
                "witness of an idempotent algebra is not idempotent"
            )
    return replace(report, problem="wnu-idemp")


def has_n_local_k_qwnu(
    alg: FiniteAlgebra, n: int, k: int, budget: int = DEFAULT_TUPLE_BUDGET
) -> DecisionReport:
    """Decide whether the algebra has n-local k-ary quasi weak near-unanimity terms."""
    return decide(alg, nlocal(n, k), budget)


def has_quasi_taylor(
    alg: FiniteAlgebra, budget: int = DEFAULT_TUPLE_BUDGET
) -> DecisionReport:
    """Decide whether the algebra has a quasi Taylor term."""
    return decide(alg, qtaylor(), budget)
