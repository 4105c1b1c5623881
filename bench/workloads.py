"""Workload inputs, the operations run on them, and the checks on their outputs.

Every workload is a list of operations (ops).  An op is one call path a user
of the library takes: parse an algebra file, run one procedure, render or
summarise the result.  ``term-heavy`` holds the quasi Taylor sweeps
(all yes) and the WNU sweeps (yes, refuted late, and 2-local), where term
tables take most of the time.  ``term-free`` holds twelve width-5 closures, a
qWNU refutation on x-y+z mod 9, minimal unary images and digraph checks,
where saturation, the unary monoid and is_admissible take the time and no
term table is built.  ``build`` makes the ops from the workload seed;
``run_op`` is the timed part; ``check_op`` reduces an op's output to the
fields that are checked and returns the errors found.

Seeds.  Seed 0 gives the instances the workloads were chosen on.  Another
seed relabels the universe of every algebra by a seeded permutation and
shifts the digraph relation masks.  A relabelled algebra is isomorphic to
the original, so its answer and the work to reach it stay the same while
the tables the library reads change.  The permutation keeps the elements of
a refuting pair in place, and with them the pairs swept before it.  Drawing
fresh random algebras instead would change the work per seed: the
refutation pair, the monoid size and the closure size of a random algebra
all depend on the draw, by up to forty times per op.  Relabelling still
changes the cost of one decision op, through the order in which pairs are
swept, so the decision workloads run many small algebras rather than a few
large ones.
"""
from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field

WORKLOADS = ("term-heavy", "term-free")

# pair names used by the JSON report, per problem
_PAIR_KEYS = {"qtaylor": ("a", "b")}


@dataclass
class Op:
    """One operation of a workload; ``payload`` depends on ``kind``."""

    label: str
    kind: str  # decision | closure | image | digraph
    payload: dict = field(repr=False)


def permutation(ml, n, seed, keep=()):
    """Seeded permutation of 0..n-1 fixing ``keep``; the identity for seed 0."""
    moved = [a for a in range(n) if a not in keep]
    images = list(moved)
    if seed:
        rng = ml.SplitMix64(seed)
        for i in range(len(images) - 1, 0, -1):
            j = rng.below(i + 1)
            images[i], images[j] = images[j], images[i]
    perm = list(range(n))
    for a, b in zip(moved, images):
        perm[a] = b
    return perm


def relabel(ml, alg, perm):
    """The isomorphic copy of ``alg`` whose element a is called perm[a]."""
    n = alg.size
    ops = []
    for op in alg.ops:
        table = [0] * len(op.table)
        for i, args in enumerate(itertools.product(range(n), repeat=op.arity)):
            j = 0
            for a in args:
                j = j * n + perm[a]
            table[j] = perm[op.table[i]]
        ops.append(ml.Operation(op.symbol, op.arity, tuple(table)))
    return ml.FiniteAlgebra(alg.name, n, tuple(ops))


def affine(ml, n):
    """x - y + z mod n, the idempotent Mal'cev operation of Z_n."""
    table = tuple(
        (x - y + z) % n for x, y, z in itertools.product(range(n), repeat=3)
    )
    return ml.FiniteAlgebra(f"affine-mod{n}", n, (ml.Operation("m", 3, table),))


def commutative_idempotent(ml, seed, n, planted=False):
    """A random commutative idempotent binary algebra.

    With ``planted`` the top two elements form a two-element subalgebra on
    which the operation is the first projection, which has no WNU, so the
    3-ary WNU check fails at the pair (n-2, n-1) at the latest.  For the
    seeds used here every earlier pair passes, as ``expected.json`` pins.
    """
    rows = ml.random_algebra(seed, n, [2]).ops[0].table
    table = [rows[min(a, b) * n + max(a, b)] for a in range(n) for b in range(n)]
    for a in range(n):
        table[a * n + a] = a
    if planted:
        table[(n - 2) * n + n - 1] = n - 2
        table[(n - 1) * n + n - 2] = n - 1
    name = f"comm-s{seed}-n{n}" + ("-planted" if planted else "")
    return ml.FiniteAlgebra(name, n, (ml.Operation("f", 2, tuple(table)),))


def _decision(ml, alg, problem, *params):
    payload = {
        "text": ml.format_algebra(alg),
        "size": alg.size,
        "problem": problem,
        "params": params,
    }
    return Op(f"{problem}/{alg.name}", "decision", payload)


def _build_qtaylor(ml, seed, smoke):
    count, n, mod = (2, 3, 4) if smoke else (16, 8, 12)
    algebras = [ml.random_algebra(7 + i, n, [2]) for i in range(count)]
    algebras.append(affine(ml, mod))
    return [
        _decision(ml, relabel(ml, alg, permutation(ml, alg.size, seed)), "has_quasi_taylor")
        for alg in algebras
    ]


def _build_wnu(ml, seed, smoke):
    n, yes, no, local_n = (4, 1, 1, 3) if smoke else (10, 6, 12, 4)
    ops = []
    for i in range(yes + no):
        alg = commutative_idempotent(ml, i, n, planted=i >= yes)
        keep = (n - 2, n - 1) if i >= yes else ()
        ops.append(_decision(ml, relabel(ml, alg, permutation(ml, n, seed, keep)), "has_k_wnu_idemp", 3))
    alg = relabel(ml, ml.random_algebra(3, local_n, [2]), permutation(ml, local_n, seed))
    ops.append(_decision(ml, alg, "has_n_local_k_qwnu", 2, 3))
    return ops


def _build_saturate(ml, seed, smoke):
    # many width-5 closures rather than one width-6 closure (4096 tuples,
    # about 600 MB and 2 s): a best time over the run is only steady for ops
    # short enough to fit between the slow stretches of a shared CPU
    n, width, count, mod = (2, 3, 1, 3) if smoke else (4, 5, 12, 9)
    perm = permutation(ml, n, seed)
    alg = relabel(ml, ml.random_algebra(3, n, [2]), perm)
    ops = []
    for g in range(103, 103 + count):
        rng = ml.SplitMix64(g)
        gens = [tuple(perm[rng.below(n)] for _ in range(width)) for _ in range(3)]
        payload = {"text": ml.format_algebra(alg), "generators": gens}
        ops.append(Op(f"generate_subpower/{alg.name}-w{width}-g{g}", "closure", payload))
    alg = relabel(ml, affine(ml, mod), permutation(ml, mod, seed, keep=(0, 1)))
    return ops + [_decision(ml, alg, "has_k_qwnu", 3)]


def _build_image(ml, seed, smoke):
    image_seeds, n, batches, per_algebra = ((3,), 3, 2, 5) if smoke else ((2, 3, 5, 8), 4, 16, 50)
    ops = []
    for s in image_seeds:
        alg = relabel(ml, ml.random_algebra(s, n, [2]), permutation(ml, n, seed))
        payload = {"text": ml.format_algebra(alg)}
        ops.append(Op(f"minimal_unary_idempotent/{alg.name}", "image", payload))
    # relations on the square of each two-element binary algebra: width-4
    # tuples (a, b, c, d) read as edges (a, b) -> (c, d); each of the 16
    # tuples is in a relation with probability 1/2.  Every batch holds the
    # same number of relations of each algebra, so batches cost the same.
    algebras = []
    for code in range(16):
        table = tuple((code >> (3 - j)) & 1 for j in range(4))
        algebras.append(ml.FiniteAlgebra(f"b{code}", 2, (ml.Operation("f", 2, table),)))
    tuples = list(itertools.product(range(2), repeat=4))
    rng = ml.SplitMix64(seed)
    for b in range(batches):
        relations = []
        while len(relations) < per_algebra * len(algebras):
            mask = rng.next_u64() & 0xFFFF
            if mask:
                rel = [t for i, t in enumerate(tuples) if mask >> i & 1]
                relations.append((algebras[len(relations) % len(algebras)], rel))
        ops.append(Op(f"digraph/batch{b}", "digraph", {"relations": relations}))
    return ops


_GROUPS = {
    # decision sweeps whose time is mostly term tables
    "term-heavy": (_build_qtaylor, _build_wnu),
    # saturation, the unary monoid and is_admissible; no term tables
    "term-free": (_build_saturate, _build_image),
}


def build(ml, workload, seed, smoke=False):
    """The ops of one workload for one seed; ``smoke`` gives tiny sizes."""
    return [op for group in _GROUPS[workload] for op in group(ml, seed, smoke)]


def run_op(ml, op):
    """Run one op through the library and return its raw output."""
    p = op.payload
    if op.kind == "decision":
        alg = ml.io.parse_algebra(p["text"])
        report = getattr(ml.decision, p["problem"])(alg, *p["params"])
        return ml.io.report_to_json(report, include_witnesses=True)
    if op.kind == "closure":
        alg = ml.io.parse_algebra(p["text"])
        return ml.subpower.generate_subpower(alg, p["generators"])
    if op.kind == "image":
        alg = ml.io.parse_algebra(p["text"])
        return ml.algebra.minimal_unary_idempotent(alg)
    admissible = smooth = 0
    certificates = []
    for alg, rel in p["relations"]:
        if not ml.digraph.is_admissible(alg, rel):
            continue
        admissible += 1
        g = ml.digraph.Digraph.from_edges(((a, b), (c, d)) for a, b, c, d in rel)
        if not ml.digraph.is_smooth(g):
            continue
        smooth += 1
        found, cert = ml.digraph.has_algebraic_length_one(g)
        if found:
            certificates.append((g, cert))
    return admissible, smooth, certificates


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _as_tuple(v):
    return tuple(_as_tuple(x) for x in v) if isinstance(v, list) else v


def _pairs(problem, params, size):
    """The pairs a decision procedure sweeps, in its lexicographic order."""
    if problem == "has_n_local_k_qwnu":
        points = list(itertools.product(range(size), repeat=params[0]))
    else:
        points = list(range(size))
    return list(itertools.product(points, repeat=2))


def _check_decision(op, out):
    report = json.loads(out)
    report["stats"].pop("elapsed_seconds")
    problem = op.payload["problem"]
    keys = _PAIR_KEYS.get(report["problem"], ("r", "s"))
    refutation = report["refutation"]
    if refutation is not None:
        refutation = tuple(_as_tuple(refutation[k]) for k in keys)
    witness_pairs = [tuple(_as_tuple(w[k]) for k in keys) for w in report["witnesses"]]
    checked = report["stats"]["pairs_checked"]
    summary = {
        "answer": report["answer"],
        "refutation": refutation,
        "pairs_checked": checked,
        "witnesses": len(witness_pairs),
    }
    pairs = _pairs(problem, op.payload["params"], op.payload["size"])
    errors = []
    if (report["answer"] == "yes") != (refutation is None):
        errors.append("answer and refutation disagree")
    if report["answer"] == "yes":
        if witness_pairs != pairs:
            errors.append("a yes must carry one witness per pair, in sweep order")
    else:
        if witness_pairs:
            errors.append("a refutation carries witnesses")
        if not 1 <= checked <= len(pairs) or pairs[checked - 1] != refutation:
            errors.append("the refutation is not the last pair checked")
    digest = _digest(json.dumps(report, sort_keys=True))
    return summary, digest, errors


def _check_closure(op, rel):
    gens = [tuple(g) for g in op.payload["generators"]]
    summary = {"size": len(rel), "rounds": rel.rounds}
    errors = []
    if not rel.complete:
        errors.append("closure is not complete")
    if len(set(rel.tuples)) != len(rel.tuples):
        errors.append("closure repeats a tuple")
    if list(rel.tuples[: len(set(gens))]) != list(dict.fromkeys(gens)):
        errors.append("closure does not start with its generators")
    return summary, _digest((rel.tuples, rel.derivations)), errors


def _check_image(out):
    alpha, image = out
    summary = {"image": list(image)}
    errors = []
    if alpha.compose(alpha).images != alpha.images:
        errors.append("alpha is not idempotent")
    if tuple(sorted(set(alpha.images))) != tuple(image):
        errors.append("B is not the image of alpha")
    return summary, _digest(alpha.images), errors


def _check_digraph(ml, out):
    admissible, smooth, certificates = out
    summary = {"admissible": admissible, "smooth": smooth, "length_one": len(certificates)}
    errors = []
    if not len(certificates) <= smooth <= admissible:
        errors.append("counts are not nested")
    for g, (start, steps) in certificates:
        try:
            end, net = ml.digraph.replay_walk(g, start, steps)
        except ValueError as exc:
            errors.append(f"certificate does not replay: {exc}")
            continue
        if end != start or net != 1:
            errors.append("certificate is not a closed walk of net length one")
    return summary, _digest([c for _, c in certificates]), errors


def check_op(ml, op, out, expected=None):
    """(summary, digest, errors) of one op's output.

    ``summary`` holds the pinned fields, ``digest`` fingerprints the whole
    output (witness terms, tuple order) so passes can be compared, and
    ``errors`` lists every broken invariant and every field that differs
    from ``expected``.
    """
    if op.kind == "decision":
        summary, digest, errors = _check_decision(op, out)
    elif op.kind == "closure":
        summary, digest, errors = _check_closure(op, out)
    elif op.kind == "image":
        summary, digest, errors = _check_image(out)
    else:
        summary, digest, errors = _check_digraph(ml, out)
    if expected is not None:
        got = json.loads(json.dumps(summary))
        for key, want in expected.items():
            if got.get(key) != want:
                errors.append(f"{key} is {got.get(key)!r}, pinned {want!r}")
    return summary, digest, errors
