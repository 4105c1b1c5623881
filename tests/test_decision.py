from __future__ import annotations

import collections
import itertools
import random
import re
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    ALL_BINARY2,
    CLIP3,
    MIN2,
    NOT2,
    ONE1,
    PROJ2,
    Z2_MINORITY,
    Z3_MALTSEV,
    make_algebra,
    patch_chunk,
    record_admissibility_paths,
    record_closure_paths,
    reference_identities,
    relabel,
    scalar_is_admissible,
)
from maltsev_lab import (
    Apply,
    Variable,
    WitnessTerm,
    decide,
    enumerate_clone_slice,
    find_block_repeat,
    format_algebra,
    generate_subpower,
    has_k_qwnu,
    has_k_wnu_idemp,
    has_n_local_k_qwnu,
    has_quasi_taylor,
    induced_image_algebra,
    nlocal,
    oracle_find_quasi_siggers,
    oracle_find_qwnu,
    qtaylor,
    quasi_siggers_table_check,
    qwnu,
    qwnu_table_check,
    random_algebra,
    term_table,
    verify_local,
)
from maltsev_lab.cli import run_cli
from maltsev_lab.decision import _columns
from maltsev_lab.errors import BudgetExceededError, ConsistencyError, TermError

MIN_CHAIN3 = Apply("meet", (Variable(0), Apply("meet", (Variable(1), Variable(2)))))


def test_qwnu_named_verdicts():
    assert has_k_qwnu(MIN2, 3).answer
    report = has_k_qwnu(PROJ2, 2)
    assert not report.answer and report.refutation == (0, 1)
    assert has_k_qwnu(Z3_MALTSEV, 2).answer
    report = has_k_qwnu(Z3_MALTSEV, 3)
    assert not report.answer


def test_qwnu_rejects_k_one():
    with pytest.raises(ValueError):
        has_k_qwnu(MIN2, 1)


def test_qwnu_witnesses_are_locally_valid():
    report = has_k_qwnu(MIN2, 3)
    for w in report.witnesses:
        assert verify_local(MIN2, qwnu(3), w.pair, w.term) == w.result


def test_wnu_idemp_named_verdicts():
    assert has_k_wnu_idemp(MIN2, 4).answer
    assert has_k_wnu_idemp(Z2_MINORITY, 3).answer
    with pytest.raises(ValueError, match="g\\(2\\) = 1"):
        has_k_wnu_idemp(CLIP3, 2)


def test_wnu_idemp_agrees_with_qwnu_on_idempotent_corpus():
    for seed in range(30):
        alg = random_algebra(seed, (seed % 3) + 1, [2], idempotent=True)
        for k in (2, 3):
            assert has_k_wnu_idemp(alg, k).answer == has_k_qwnu(alg, k).answer


def test_nlocal_named_verdicts():
    assert has_n_local_k_qwnu(MIN2, 2, 2).answer
    report = has_n_local_k_qwnu(PROJ2, 1, 2)
    assert not report.answer and report.refutation == ((0,), (1,))


def test_nlocal_one_matches_qwnu():
    # 1-local qWNU is qWNU read on 1-tuples: the same sweep, pair by pair,
    # with the same refutation, pair count, terms and results
    signatures = [[2], [1, 2], [3], [0, 2], [1], [2, 2]]
    corpus = [MIN2, PROJ2, NOT2, Z3_MALTSEV] + ALL_BINARY2[:8]
    rng = random.Random(11)
    for seed in range(200):
        size = seed % 4 + 1
        if seed % 2:
            # a permutation refutes at distinct elements; a unary map beside
            # it may not
            ops = [("p", 1, tuple(rng.sample(range(size), size)))]
            ops += [("u", 1, tuple(rng.randrange(size) for _ in range(size)))] * rng.randint(0, 1)
            corpus.append(make_algebra(f"unary{seed}", size, *ops))
        else:
            signature = signatures[seed // 2 % len(signatures)]
            corpus.append(random_algebra(seed, size, signature))
    counts = {True: 0, False: 0}
    for alg in corpus:
        for k in (2, 3):
            local, plain = has_n_local_k_qwnu(alg, 1, k), has_k_qwnu(alg, k)
            label = (alg.name, k)
            assert local.answer == plain.answer, label
            counts[plain.answer] += 1
            assert local.stats.pairs_checked == plain.stats.pairs_checked, label
            if not plain.answer:
                r, s = plain.refutation
                assert local.refutation == ((r,), (s,)), label
                continue
            assert len(local.witnesses) == len(plain.witnesses) == alg.size**2, label
            for lw, pw in zip(local.witnesses, plain.witnesses):
                assert lw.pair == tuple((x,) for x in pw.pair), label
                assert (lw.term, lw.result) == (pw.term, pw.result), label
    assert counts[True] >= 100 and counts[False] >= 100, counts


def _paper_arguments(problem, pair):
    """The argument tuples at a pair, output coordinate by coordinate, from
    the condition's identities: the displaced tuples of (n-local) qWNU, and
    the left sides, then the right sides, of s(r,x,r,e) = s(x,r,e,x) at
    (r, x, e) = (a, b, b) and (b, b, a) for quasi Taylor."""
    if problem.name == "qtaylor":
        a, b = pair
        instances = [(a, b, b), (b, b, a)]
        left = [(r, x, r, e) for r, x, e in instances]
        right = [(x, r, e, x) for r, x, e in instances]
        return left + right
    k = dict(problem.parameters)["k"]
    rbar, sbar = pair if problem.point else ((pair[0],), (pair[1],))
    return [
        tuple(s if j == i else r for j in range(k))
        for i in range(k)
        for r, s in zip(rbar, sbar)
    ]


def test_arguments_and_identities_follow_the_paper():
    # every pair over 3 elements: the argument columns are the paper's
    # tuples, and each identity line chains the calls on them
    problems = [qwnu(2), qwnu(3), nlocal(1, 2), nlocal(2, 2), nlocal(2, 3), nlocal(3, 2), qtaylor()]
    for problem in problems:
        points = (
            list(range(3)) if problem.point is None
            else list(itertools.product(range(3), repeat=problem.point))
        )
        pairs = list(itertools.product(points, repeat=2))
        cols = _columns(problem, pairs)
        result = tuple(range(5, 5 + problem.block))
        for p, pair in enumerate(pairs):
            args = _paper_arguments(problem, pair)
            assert cols[:, p].T.tolist() == [list(a) for a in args], (problem.name, pair)
            lines = problem.identities(pair, result)
            if problem.point is None:
                # chain j: the applications whose values are result[j]
                symbol = "s" if problem.name == "qtaylor" else "t"
                calls = [f"{symbol}({','.join(map(str, a))})" for a in args]
                want = [
                    " = ".join(calls[j::problem.block] + [str(result[j])])
                    for j in range(problem.block)
                ]
            else:
                # application i: the points in block i of the coordinates
                n = problem.point
                calls = [
                    "t(" + ",".join(
                        "(" + ",".join(str(args[i * n + c][j]) for c in range(n)) + ")"
                        for j in range(len(args[0]))
                    ) + ")"
                    for i in range(len(args) // n)
                ]
                want = [" = ".join(calls) + f" = ({','.join(map(str, result))}) in every block"]
            assert list(lines) == want, (problem.name, pair)


def test_identity_templates_match_the_reference_renderer():
    # the identities compiled into templates are the ones written call by
    # call, on points and results of two digits, and with braces in the
    # term's symbol
    rng = random.Random(15)
    problems = [qwnu(k) for k in range(2, 7)]
    problems += [nlocal(n, k) for n in range(1, 4) for k in (2, 3)]
    problems += [qtaylor(), replace(qwnu(3), symbol="{t}"), replace(nlocal(2, 2), symbol="}{0}{")]
    for problem in problems:
        points = (
            [10, 11, 12] if problem.point is None
            else list(itertools.product([10, 11, 12], repeat=problem.point))
        )
        for pair in itertools.product(points, repeat=2):
            result = tuple(rng.randrange(10, 100) for _ in range(problem.block))
            want = reference_identities(problem, pair, result)
            assert problem.identities(pair, result) == want, (problem, pair)


def test_verify_local_checks_the_term_node_by_node():
    # the sweep's evaluations skip the range scan of their columns, but a
    # term is still checked node by node, with the evaluator's messages
    x = Variable
    cases = [
        (Apply("join", (x(0), x(1))), "unknown operation symbol 'join'"),
        (Apply("meet", (x(0),)), "operation meet expects 2 children, got 1"),
        (Apply("meet", (x(0), Apply("meet", (x(1), x(2), x(0))))), "expects 2 children, got 3"),
        (Apply("meet", (x(0), x(5))), "term references x5 but only 3 arguments given"),
    ]
    for problem in (qwnu(3), nlocal(2, 3)):
        pair = (0, 1) if problem.point is None else ((0, 1), (1, 0))
        assert verify_local(MIN2, problem, pair, MIN_CHAIN3) is not None
        for term, message in cases:
            with pytest.raises(TermError, match=re.escape(message)):
                verify_local(MIN2, problem, pair, term)


def test_problems_are_data():
    assert qwnu(3) == qwnu(3) and hash(nlocal(2, 3)) == hash(nlocal(2, 3))
    assert qwnu(3) != nlocal(1, 3) and qtaylor() == qtaylor()


def test_nlocal_validation():
    with pytest.raises(ValueError):
        has_n_local_k_qwnu(MIN2, 0, 2)
    with pytest.raises(ValueError):
        has_n_local_k_qwnu(MIN2, 1, 1)
    with pytest.raises(BudgetExceededError):
        has_n_local_k_qwnu(MIN2, 4, 2, budget=100)


def test_decide_refuses_more_tuple_pairs_than_the_budget():
    # the n-local pair guard holds on the record entry point too
    with pytest.raises(BudgetExceededError, match="256 tuple pairs exceed the budget of 100"):
        decide(MIN2, nlocal(4, 2), budget=100)


def test_nlocal_witnesses_are_locally_valid():
    report = has_n_local_k_qwnu(MIN2, 2, 2)
    assert report.answer
    for w in report.witnesses:
        assert verify_local(MIN2, nlocal(2, 2), w.pair, w.term) == w.result


def test_verify_local_rejects_pairs_the_sweep_never_visits():
    meet = Apply("meet", (Variable(0), Variable(1)))
    # 3-tuples and a ragged pair are not pairs of 2-tuples
    for pair in [((0, 0, 0), (0, 0, 0)), ((0, 1), (1,))]:
        with pytest.raises(ValueError, match=r"pairs are \(r, s\) of 2-tuples over 0\.\.1"):
            verify_local(MIN2, nlocal(2, 2), pair, meet)
    for problem, pair in [(qwnu(2), (0, 2)), (qwnu(2), (0, 1, 1)), (qtaylor(), ((0,), (1,)))]:
        with pytest.raises(ValueError, match="of elements over 0..1"):
            verify_local(MIN2, problem, pair, meet)


def test_qtaylor_named_verdicts():
    assert has_quasi_taylor(MIN2).answer
    report = has_quasi_taylor(NOT2)
    assert not report.answer and report.refutation == (0, 1)
    assert not has_quasi_taylor(PROJ2).answer
    assert has_quasi_taylor(ONE1).answer


def test_qtaylor_witnesses_are_locally_valid():
    report = has_quasi_taylor(MIN2)
    for w in report.witnesses:
        assert verify_local(MIN2, qtaylor(), w.pair, w.term) == w.result


def test_qtaylor_minority_regression():
    # x+y+z over Z2 has a quasi Siggers term (x1+x3+x4) even though no term
    # can equalize the first two and last two slots of the one-sided
    # diagonal-matrix application; the pairwise instance test must say yes
    found, _ = oracle_find_quasi_siggers(Z2_MINORITY)
    assert found is not None
    report = has_quasi_taylor(Z2_MINORITY)
    assert report.answer
    for w in report.witnesses:
        assert verify_local(Z2_MINORITY, qtaylor(), w.pair, w.term) == w.result


def test_check_qwnu_identities():
    # global qWNU identities of a term, through its table
    def check(alg, t, k):
        return qwnu_table_check(term_table(alg, t, k), alg.size, k)

    assert check(MIN2, MIN_CHAIN3, 3)
    assert not check(MIN2, Variable(0), 2)
    minority = Apply("m", (Variable(0), Variable(1), Variable(2)))
    assert check(Z2_MINORITY, minority, 3)


def test_check_quasi_siggers_identity():
    # the global quasi Siggers identity of a term, through its table
    def check(alg, s):
        return quasi_siggers_table_check(term_table(alg, s, 4), alg.size)

    meet4 = Apply(
        "meet",
        (
            Apply("meet", (Variable(0), Variable(1))),
            Apply("meet", (Variable(2), Variable(3))),
        ),
    )
    assert check(MIN2, meet4)
    assert not check(MIN2, Variable(0))
    assert check(ONE1, Variable(0))


def test_oracle_completeness_exhaustive_two_element():
    # every algebra on {0,1} with a single operation of arity <= 2
    algs = list(ALL_BINARY2)
    for i in range(4):
        algs.append(make_algebra(f"u{i}", 2, ("f", 1, ((i >> 1) & 1, i & 1))))
    for c in range(2):
        algs.append(make_algebra(f"c{c}", 2, ("f", 0, (c,))))
    for alg in algs:
        for k in (2, 3):
            table, complete = oracle_find_qwnu(alg, k)
            decided = has_k_qwnu(alg, k).answer
            if table is not None:
                assert decided
            else:
                assert complete and not decided


def test_oracle_completeness_sampled_three_element():
    for seed in range(25):
        alg = random_algebra(seed, 3, [[1], [2]][seed % 2])
        for k in (2, 3):
            table, complete = oracle_find_qwnu(alg, k, budget=30000)
            decided = has_k_qwnu(alg, k).answer
            if table is not None:
                assert decided
            elif complete:
                assert not decided


def test_local_monotonicity_small():
    for seed in range(15):
        alg = random_algebra(seed, (seed % 3) + 1, [2])
        if has_n_local_k_qwnu(alg, 1, 3).answer:
            assert has_n_local_k_qwnu(alg, 2, 3).answer


def test_qwnu_implies_qtaylor():
    for seed in range(40):
        alg = random_algebra(seed, (seed % 3) + 1, [[2], [1, 2], [3]][seed % 3])
        if any(has_k_qwnu(alg, k).answer for k in (2, 3)):
            assert has_quasi_taylor(alg).answer


def test_image_transfer_sound_direction():
    # a quasi Taylor term of the induced image algebra lifts to the original
    for seed in range(60):
        alg = random_algebra(seed, (seed % 3) + 1, [2])
        induced, _, _ = induced_image_algebra(alg)
        if has_quasi_taylor(induced).answer:
            assert has_quasi_taylor(alg).answer


def test_image_transfer_reduct_can_lose_terms():
    # the induced algebra keeps only corrected basic operations, so it can
    # be a strict reduct of the clone the full image construction would have;
    # this pinned example has a quasi Taylor term upstairs but its corrected
    # basic operation is a projection, oracle-confirmed on both sides
    alg = random_algebra(20, 3, [2])
    induced, _, b = induced_image_algebra(alg)
    assert b == (0, 1)
    found, _ = oracle_find_quasi_siggers(alg)
    assert found is not None
    assert has_quasi_taylor(alg).answer
    found, complete = oracle_find_quasi_siggers(induced)
    assert found is None and complete
    assert not has_quasi_taylor(induced).answer


def test_refutation_is_first_failing_pair():
    report = has_quasi_taylor(NOT2)
    assert report.refutation == (0, 1)
    assert report.stats.pairs_checked == 2  # (0,0) succeeded, (0,1) refuted


def test_a_claimed_witness_that_breaks_its_identities_is_refused(monkeypatch):
    # every witness is evaluated again on its pair before the report is
    # built, so a wrong term read off a saturation is caught there
    from maltsev_lab import decision

    monkeypatch.setattr(decision, "extract_witness", lambda rel, row: WitnessTerm(Variable(0), ()))
    with pytest.raises(
        ConsistencyError, match=re.escape("witness violates its claimed equalities at pair (0, 1)")
    ):
        has_k_qwnu(MIN2, 3)


def test_a_refutation_that_is_not_proved_is_refused(monkeypatch, tmp_path, capsys):
    # a "no" is proved by the closure that found it: the closure must hold
    # the pair's generators, be closed, and hold no block repeat.  The
    # command line reports a failed check as an internal error, exit 4
    from maltsev_lab import decision

    generate = decision.generate_until

    def one_row_short(*args):
        rel, hit = generate(*args)
        return (rel if hit is not None else replace(rel, keys=rel.keys[:-1])), hit

    assert has_k_qwnu(PROJ2, 2).refutation == (0, 1)
    path = tmp_path / "proj2.alg"
    path.write_text(format_algebra(PROJ2))
    for name, fake, failed in (
        ("generate_until", one_row_short, "a generator is missing from its closure"),
        ("is_closed", lambda *args: False, "its closure is not closed"),
        ("find_block_repeat", lambda *args: (0,), "its closure holds a block repeat"),
    ):
        message = f"refutation at pair (0, 1) is not proved: {failed}"
        with monkeypatch.context() as m:
            m.setattr(decision, name, fake)
            with pytest.raises(ConsistencyError, match=re.escape(message)):
                has_k_qwnu(PROJ2, 2)
            assert run_cli(["check", "qwnu", "--k", "2", str(path)]) == 4
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"internal consistency error: {message}" in captured.err


# the messages of a proof that finds a closure not closed, or not invariant
# under the pattern's group
_UNPROVED_BY_THE_CHECK = (
    r"is not proved: (its closure is not closed|the relation is not invariant"
    r" under the (transposition|cycle) of coordinate blocks)"
)


def test_a_closure_that_misses_tuples_refutes_nothing(monkeypatch):
    # an engine that skips the last rectangle of every round after the first
    # misses tuples, so a closure may hold no block repeat where the full one
    # does.  Saturating the pair again would reproduce that wrong "no"; the
    # proof finds the closure not closed, or not invariant under the
    # pattern's group.  The corpus runs at the default chunk, where every
    # proof gathers, and at 256 combinations, where the larger ones walk
    # their combinations in blocks
    from maltsev_lab import decision, subpower

    problems = (qwnu(2), qwnu(3), qtaylor())
    algebras = [random_algebra(seed, 3, [2]) for seed in range(60)]
    truth = [[decide(alg, problem).answer for problem in problems] for alg in algebras]
    rectangles = subpower._rectangles

    def last_one_dropped(m, lo, k):
        out = list(rectangles(m, lo, k))
        return out[:-1] if lo else out

    monkeypatch.setattr(subpower, "_rectangles", last_one_dropped)
    paths = record_admissibility_paths(monkeypatch, decision)
    for chunk in (None, 256):
        if chunk:
            patch_chunk(monkeypatch, chunk)
        refused = 0
        for seed, (alg, answers) in enumerate(zip(algebras, truth)):
            for problem, answer in zip(problems, answers):
                try:
                    report = decide(alg, problem)
                except ConsistencyError as exc:
                    assert re.search(_UNPROVED_BY_THE_CHECK, str(exc)), str(exc)
                    refused += answer
                    continue
                assert report.answer or not answer, (seed, problem.name, chunk)
        assert refused >= 20, (chunk, refused)
    assert paths["gather"] and paths["blocked"], paths


@pytest.mark.parametrize("k, path", [(61, "keyed"), (62, "tuple"), (64, "tuple")])
def test_refutation_proofs_over_wide_keys(monkeypatch, k, path):
    # qWNU of the first projection fails at (0, 1); its closure in 2^k keys
    # commits Python ints from 2^62 on, and the proof walks its keys in
    # blocks, which searches them sorted.
    # is_closed on the closure, and on the closure without its last row,
    # gives the scalar answer, for the projection and for the meet
    from maltsev_lab import decision, subpower

    closures = []
    generate = decision.generate_until

    def recorded(*args):
        closures.append(generate(*args))
        return closures[-1]

    monkeypatch.setattr(decision, "generate_until", recorded)
    paths = record_closure_paths(monkeypatch)
    assert has_k_qwnu(PROJ2, k).refutation == (0, 1)
    # pair (0, 0)'s closure and pair (0, 1)'s; the proof runs none
    rel, hit = closures[-1]
    assert hit is None and rel.width == k and paths == {path: 2}, paths
    answers = set()
    for alg in (PROJ2, MIN2):
        for keys in (rel.keys, rel.keys[:-1]):
            want = scalar_is_admissible(alg, rel.tuples[:len(keys)])
            assert subpower.is_closed(alg, keys, rel.width) == want, (alg.name, len(keys))
            answers.add(want)
    assert answers == {True, False}
    # and with the pattern's group, S_k, under which the closure is invariant
    assert subpower.is_closed(PROJ2, rel.keys, k, qwnu(k).group)


def _symmetric_ternary(seed, n):
    """A seeded random ternary operation symmetric in arguments 0 and 2."""
    rng = random.Random(seed)
    table = {}
    for x, y, z in itertools.product(range(n), repeat=3):
        table[x, y, z] = table.get((z, y, x), rng.randrange(n))
    return make_algebra(f"sym{seed}", n, ("m", 3, [table[args] for args in sorted(table)]))


def test_problem_groups_permute_the_generators():
    assert qwnu(3).group == ((range(0, 1), range(1, 2), range(2, 3)),)
    assert nlocal(2, 2).group == ((range(0, 2), range(2, 4)),)
    assert qtaylor().group == ((range(1, 2), range(2, 3)),)
    # each transposition of two applications in a set maps the generator
    # columns of every pair onto themselves
    for problem in (qwnu(2), qwnu(4), nlocal(2, 3), qtaylor()):
        cols = _columns(problem, list(problem.pairs(Z3_MALTSEV)))
        for blocks in problem.group:
            for a, b in itertools.combinations(blocks, 2):
                moved = np.arange(cols.shape[2])
                moved[list(a) + list(b)] = list(b) + list(a)
                for p in range(cols.shape[1]):
                    assert sorted(cols[:, p].tolist()) == sorted(cols[:, p, moved].tolist())


def test_a_closure_that_misses_diagonal_combinations_is_refused(monkeypatch):
    # a round enumerator that trims a symmetric operation's range one index
    # past the swap drops the combinations whose indices i and j are equal,
    # in round 1 as well.  On these ternary operations, symmetric in
    # arguments 0 and 2 on four elements, that closure holds no constant
    # where the full one does.  A proof that saturated with the same
    # enumerator let each wrong "no" through; this one is too large for one
    # gather, and the blocked check finds the closure not closed, or not
    # invariant
    from maltsev_lab import decision, subpower

    def diagonal_dropped(blocks, p, swaps):
        for prefix, ranges in blocks:
            ranges = list(ranges)
            for i, j in swaps:
                if j < p:
                    if prefix[i] > prefix[j]:
                        break
                else:
                    r = ranges[j - p]
                    if r.start <= prefix[i]:
                        if r.stop <= prefix[i] + 1:
                            break
                        ranges[j - p] = range(prefix[i] + 1, r.stop)
            else:
                yield prefix, tuple(ranges)

    algebras = [_symmetric_ternary(seed, 4) for seed in (15, 38, 42, 53)]
    assert all(has_k_qwnu(alg, 3).answer for alg in algebras)
    monkeypatch.setattr(subpower, "_unswapped", diagonal_dropped)
    paths = record_admissibility_paths(monkeypatch, decision)
    for alg in algebras:
        with pytest.raises(ConsistencyError) as info:
            has_k_qwnu(alg, 3)
        assert re.search(_UNPROVED_BY_THE_CHECK, str(info.value)), str(info.value)
    assert paths["blocked"] == len(algebras) and not paths["gather"], paths


def test_group_reduced_checks_match_the_check_without_the_group(monkeypatch):
    # closures of the patterns' generators are invariant under the
    # patterns' groups: the check with the group and the check without it
    # agree on them, and so does the scalar check where it is quick.
    # Without a row, the check with the group refuses the relation, by its
    # answer or by a failed invariance.  At a chunk of 64 most checks walk
    # blocks
    from maltsev_lab import subpower

    patch_chunk(monkeypatch, 64)
    paths = record_admissibility_paths(monkeypatch)
    rng = random.Random(5)
    answers = collections.Counter()
    for seed in range(40):
        size = 2 + seed % 2
        alg = random_algebra(seed, size, rng.choice([[2], [1, 2], [3], [0, 2]]))
        if seed % 4 == 0:
            alg = _symmetric_ternary(seed, size)
        for problem in (qwnu(2), qwnu(3), nlocal(2, 2), qtaylor()):
            pair = rng.choice(list(problem.pairs(alg)))
            gens = [tuple(g) for g in _columns(problem, [pair])[:, 0].tolist()]
            rel = generate_subpower(alg, gens)
            assert subpower.is_closed(alg, rel.keys, rel.width, problem.group)
            assert subpower.is_closed(alg, rel.keys, rel.width)
            answers["closed"] += 1
            for drop in rng.sample(range(len(rel)), min(2, len(rel) - 1)):
                keys = np.delete(rel.keys, drop)
                want = subpower.is_closed(alg, keys, rel.width)
                if len(keys) ** alg.max_arity <= 4096:
                    rows = [t for i, t in enumerate(rel.tuples) if i != drop]
                    assert scalar_is_admissible(alg, rows) == want
                try:
                    got = subpower.is_closed(alg, keys, rel.width, problem.group)
                except ConsistencyError as exc:
                    assert "is not invariant under" in str(exc)
                    answers["not invariant"] += 1
                    continue
                assert got == want, (seed, problem.name, drop)
                answers[got] += 1
    assert answers["closed"] == 160 and answers["not invariant"] >= 50, answers
    assert answers[True] and answers[False], answers
    assert paths["blocked"] >= 500, paths


def test_an_orbit_member_dropped_is_refused(monkeypatch):
    # the closure at the refuting pair of x - y + z mod 9 is invariant
    # under S_3; without one row whose orbit has more members it is not.
    # Its 81^3 combinations are more than one block, so the check reads
    # the group
    from maltsev_lab import subpower

    alg = make_algebra(
        "z9", 9, ("m", 3, [(x - y + z) % 9 for x, y, z in itertools.product(range(9), repeat=3)])
    )
    gens = [tuple(g) for g in _columns(qwnu(3), [(0, 1)])[:, 0].tolist()]
    rel = generate_subpower(alg, gens)
    group = qwnu(3).group
    assert len(rel) == 81 and subpower.is_closed(alg, rel.keys, 3, group)
    for row in (1, 40, 80):
        assert len(set(rel.tuples[row])) > 1
        keys = np.delete(rel.keys, row)
        with pytest.raises(ConsistencyError, match="is not invariant under the"):
            subpower.is_closed(alg, keys, 3, group)
    # a group that the relation does not have fails its check, and a
    # malformed one is refused; at a chunk of 64 the 27 rows of this
    # closure make more than one block
    patch_chunk(monkeypatch, 64)
    gens = [tuple(g) for g in _columns(qtaylor(), [(0, 1)])[:, 0].tolist()]
    rel = generate_subpower(Z3_MALTSEV, gens)
    assert subpower.is_closed(Z3_MALTSEV, rel.keys, 4, qtaylor().group)
    with pytest.raises(ConsistencyError, match=r"cycle of coordinate blocks \[\[0\], \[1\], \[2\], \[3\]\]"):
        subpower.is_closed(Z3_MALTSEV, rel.keys, 4, qwnu(4).group)
    with pytest.raises(ValueError, match="disjoint blocks of equal length"):
        subpower.is_closed(Z3_MALTSEV, rel.keys, 4, ((range(0, 2), range(1, 3)),))


def test_a_wrong_group_never_refutes(monkeypatch):
    # a group that a closure is not invariant under stops the sweep with a
    # failed invariance check, or its check passes; no verdict changes.
    # Here the group swaps the two coordinates of the first 2-local point,
    # or applications 0 and 3 of quasi Taylor.  A chunk of 4 sends most
    # proofs of these sizes to a blocked walk of more than one block, the
    # only check that reads the group
    from maltsev_lab import decision

    problems = (nlocal(2, 2), qtaylor())
    wrong = {"nlocal-qwnu": ((range(0, 1), range(1, 2)),), "qtaylor": ((range(0, 1), range(3, 4)),)}
    algebras = ALL_BINARY2 + [PROJ2, NOT2, CLIP3, Z3_MALTSEV]
    algebras += [random_algebra(seed, 3, [1, 1]) for seed in range(8)]
    truth = {(alg.name, p.name): decide(alg, p).answer for alg in algebras for p in problems}
    monkeypatch.setattr(decision.Problem, "group", property(lambda self: wrong[self.name]))
    patch_chunk(monkeypatch, 4)
    outcomes = collections.Counter()
    for alg in algebras:
        for problem in problems:
            try:
                answer = decide(alg, problem).answer
            except ConsistencyError as exc:
                assert "is not invariant under the transposition" in str(exc)
                outcomes["stopped"] += 1
                continue
            assert answer == truth[alg.name, problem.name], (alg.name, problem.name)
            outcomes[answer] += 1
    assert outcomes["stopped"] >= 5 and outcomes[False], outcomes


def test_a_swap_that_the_table_does_not_have_is_refused(monkeypatch):
    # the blocked check enumerates a swap's triangle only after checking the
    # swap on the operation's table
    from maltsev_lab import FiniteAlgebra, subpower

    alg = random_algebra(4, 3, [3])
    rel = generate_subpower(alg, [(0, 1, 2, 0, 1), (2, 2, 1, 0, 0)])
    assert alg.swaps("f0") == () and len(rel) ** 3 > subpower._CHUNK
    assert subpower.is_closed(alg, rel.keys, rel.width)
    monkeypatch.setattr(FiniteAlgebra, "swaps", lambda self, symbol: ((0, 2),))
    with pytest.raises(ConsistencyError, match=r"f0 is not symmetric in arguments \(0, 2\)"):
        subpower.is_closed(alg, rel.keys, rel.width)


def test_a_witness_that_is_not_idempotent_is_refused(monkeypatch):
    # every witness of has_k_wnu_idemp is checked on the diagonal; here the
    # precondition lets a constant operation through, whose witness is not
    # idempotent
    from maltsev_lab import decision

    const = make_algebra("const2", 2, ("c", 2, (0, 0, 0, 0)))
    monkeypatch.setattr(decision, "idempotence_violation", lambda alg: None)
    with pytest.raises(ConsistencyError, match="witness of an idempotent algebra is not idempotent"):
        has_k_wnu_idemp(const, 2)


def test_a_yes_sweep_decodes_no_row(monkeypatch):
    # a witness is read off from its hit's row and its replay compared by
    # key, so a "yes" sweep decodes no row of any closure
    from maltsev_lab import decision, subpower

    decoded, saturations = [], []
    decode, until = subpower._Layout.decode, decision.generate_until

    def counted_decode(layout, keys):
        decoded.append(len(keys))
        return decode(layout, keys)

    def counted_until(*args):
        saturations.append(args)
        return until(*args)

    monkeypatch.setattr(subpower._Layout, "decode", counted_decode)
    monkeypatch.setattr(decision, "generate_until", counted_until)
    report = has_quasi_taylor(random_algebra(7, 12, [2]))
    assert report.answer and len(saturations) == 30
    assert decoded == []


def test_a_yes_sweep_decodes_no_derivation_array(monkeypatch):
    # a witness walk decodes each row it visits from that row's record, so
    # a "yes" sweep builds no closure's op_ids, parents or derivations
    from maltsev_lab import decision

    rels, until = [], decision.generate_until

    def recorded(*args):
        rel, hit = until(*args)
        rels.append(rel)
        return rel, hit

    monkeypatch.setattr(decision, "generate_until", recorded)
    report = has_quasi_taylor(random_algebra(7, 12, [2]))
    assert report.answer and len(rels) == 30
    for rel in rels:
        assert not {"op_ids", "parents", "derivations"} & set(vars(rel))
    # asked for, they are built from the records
    assert rels[0].op_ids.dtype == np.intp and rels[0].parents.shape == (len(rels[0]), 2)
    assert "op_ids" in vars(rels[0]) and "parents" in vars(rels[0])


def test_a_yes_sweep_pays_no_per_witness_lookups(monkeypatch):
    # each witness is walked from its hit's row, so no tuple is looked up;
    # rendering formats each distinct witness term once, however many pairs
    # share it; and a closure's arrays start large enough to grow at most
    # once past their first allocation
    from maltsev_lab import io, subpower

    def no_lookup(rel, t):
        raise AssertionError("the sweep looked a tuple up")

    reserve, format_term = subpower._Closure._reserve, io.format_term
    closures, growths, formatted, depth = [], [], [], [0]

    def counted_reserve(state, end):
        if not len(state.keys):
            closures.append(state)
        elif end > len(state.keys):
            growths.append(state)
        reserve(state, end)

    def counted_format(term):
        # the formatter calls itself through the module on subterms
        if not depth[0]:
            formatted.append(term)
        depth[0] += 1
        try:
            return format_term(term)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(subpower.TupleRelation, "_position", no_lookup)
    monkeypatch.setattr(subpower._Closure, "_reserve", counted_reserve)
    monkeypatch.setattr(io, "format_term", counted_format)
    report = has_quasi_taylor(random_algebra(7, 8, [2]))
    assert report.answer and len(closures) >= 10
    assert all(growths.count(state) <= 1 for state in closures)
    distinct = {id(w.term) for w in report.witnesses}
    assert len(distinct) == len(closures) < len(report.witnesses)
    for render in (io.report_to_json, io.report_to_text):
        formatted.clear()
        render(report, include_witnesses=True)
        assert sorted(map(id, formatted)) == sorted(distinct), render


def test_witness_tables_live_in_complete_clone_slices():
    for alg in ALL_BINARY2:
        report = has_k_qwnu(alg, 2)
        if not report.answer:
            continue
        slice2 = enumerate_clone_slice(alg, 2)
        assert slice2.complete
        for w in report.witnesses:
            assert term_table(alg, w.term, 2) in set(slice2.tables)


def _refuted(alg, problem, pair):
    """No block repeat in the subpower generated by the pair's argument
    columns: no term is a local witness there."""
    gens = _columns(problem, [pair])[:, 0].tolist()
    rel = generate_subpower(alg, gens)
    return find_block_repeat(rel, problem.block, rel.width // problem.block) is None


def test_relabelling_and_reordering_operations_change_nothing():
    # an isomorphic copy, its operations reordered, has the same verdicts;
    # a refuted pair maps to a refuted pair both ways, and every witness,
    # its pair and result mapped, is a witness of the copy
    rng = random.Random(7)
    counts = {"yes": 0, "no": 0}
    for case in range(200):
        size = rng.randint(2, 4)
        if case % 2:
            # permutations refute at every pair; a unary map may not
            tables = [tuple(rng.sample(range(size), size)) for _ in range(rng.randint(1, 2))]
            tables += [tuple(rng.randrange(size) for _ in range(size))] * rng.randint(0, 1)
            signature = [1] * len(tables)
            ops = [(f"u{i}", 1, table) for i, table in enumerate(tables)]
            alg = make_algebra(f"unary{case}", size, *ops)
        else:
            signature = [rng.choice([0, 1, 2, 2, 3]) for _ in range(rng.randint(1, 3))]
            if size == 4 and 3 in signature:
                signature = [min(m, 2) for m in signature]
            alg = random_algebra(case, size, signature)
        perm = rng.sample(range(size), size)
        back = sorted(range(size), key=perm.__getitem__)
        order = rng.sample(range(len(alg.ops)), len(alg.ops))
        copy = relabel(alg, perm, order)
        label = (case, size, signature, perm, order)
        for problem in (qwnu(2), qwnu(3), qtaylor()):
            report, mirrored = decide(alg, problem), decide(copy, problem)
            assert report.answer == mirrored.answer, (label, problem.name)
            counts["yes" if report.answer else "no"] += 1
            if not report.answer:
                r, s = report.refutation
                assert _refuted(copy, problem, (perm[r], perm[s])), label
                r, s = mirrored.refutation
                assert _refuted(alg, problem, (back[r], back[s])), label
                continue
            assert len(report.witnesses) == len(mirrored.witnesses) == size**2
            for w in report.witnesses:
                pair = tuple(perm[x] for x in w.pair)
                result = tuple(perm[x] for x in w.result)
                assert verify_local(copy, problem, pair, w.term) == result, label
    assert counts["yes"] >= 100 and counts["no"] >= 100, counts
