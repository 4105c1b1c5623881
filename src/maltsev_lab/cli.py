"""Command line interface.

Exit codes: 0 for yes/success, 1 for no, 2 for usage, parse, or precondition
errors, 3 when a resource budget was exceeded or memory ran out, 4 when an
internal consistency check failed.  Each command's default budget (tuples
per closure for check, clone tables for oracle, unary maps for image) can be
overridden with --budget or the MALTSEV_LAB_BUDGET environment variable.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import decision, digraph, oracle
from .algebra import DEFAULT_MONOID_BUDGET, minimal_unary_idempotent
from .errors import AlgebraFormatError, BudgetExceededError, ConsistencyError, TermError
from .io import (
    format_algebra,
    parse_algebra,
    report_to_json,
    report_to_text,
)
from .subpower import DEFAULT_TUPLE_BUDGET

BUDGET_ENV = "MALTSEV_LAB_BUDGET"

# check subcommands: name -> (help, integer parameters, procedure name); the
# procedure is looked up in ``decision`` at run time, so a wrapped one runs
_CHECKS = {
    "qwnu": ("k-ary quasi weak near-unanimity", ("k",), "has_k_qwnu"),
    "wnu-idemp": ("k-ary weak near-unanimity of an idempotent algebra", ("k",), "has_k_wnu_idemp"),
    "qtaylor": ("quasi Taylor term", (), "has_quasi_taylor"),
    "nlocal": ("n-local k-ary quasi weak near-unanimity", ("n", "k"), "has_n_local_k_qwnu"),
}


def _add_common(parser):
    parser.add_argument("--witness", action="store_true", help="include witness terms in the output")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--budget", type=int, default=None, help="resource budget override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maltsev-lab",
        description="Decide quasi weak near-unanimity and quasi Taylor terms of finite algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run a decision procedure")
    checksub = check.add_subparsers(dest="problem", required=True)
    for name, (text, params, _) in _CHECKS.items():
        p = checksub.add_parser(name, help=text)
        for param in params:
            p.add_argument(f"--{param}", type=int, required=True)
        p.add_argument("file")
        _add_common(p)

    orc = sub.add_parser("oracle", help="brute-force clone search")
    orcsub = orc.add_subparsers(dest="problem", required=True)
    p = orcsub.add_parser("qwnu", help="search the k-ary clone slice for a qWNU table")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("file")
    _add_common(p)
    p = orcsub.add_parser("qsiggers", help="search the 4-ary clone slice for a quasi Siggers table")
    p.add_argument("file")
    _add_common(p)

    p = sub.add_parser("image", help="minimal idempotent unary image")
    p.add_argument("file")
    _add_common(p)

    p = sub.add_parser("gen", help="emit a reproducible random algebra file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--arity", required=True, help="comma-separated arities, e.g. 2 or 1,2")
    p.add_argument("--idempotent", action="store_true")
    _add_common(p)

    dg = sub.add_parser("digraph", help="digraph predicates")
    dgsub = dg.add_subparsers(dest="predicate", required=True)
    for name, text in [
        ("length-one", "closed walk of net length one"),
        ("loop", "vertex with a self-edge"),
        ("smooth", "every vertex has in- and out-degree at least one"),
    ]:
        p = dgsub.add_parser(name, help=text)
        p.add_argument("file")
        _add_common(p)

    return parser


def _budget(args, default: int) -> int:
    """The --budget value, else MALTSEV_LAB_BUDGET, else the default; a
    value that is not a positive integer is a usage error."""
    if args.budget is not None:
        value, source = args.budget, "--budget"
    else:
        env = os.environ.get(BUDGET_ENV)
        if not env:
            return default
        source = BUDGET_ENV
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"{source} must be a positive integer, got {env!r}") from None
    if value < 1:
        raise ValueError(f"{source} must be a positive integer, got {value}")
    return value


def _load_algebra(path):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_algebra(handle.read())


def _emit_report(report, args) -> int:
    render = report_to_json if args.json else report_to_text
    sys.stdout.write(render(report, include_witnesses=args.witness))
    return 0 if report.answer else 1


def _run_check(args) -> int:
    alg = _load_algebra(args.file)
    budget = _budget(args, DEFAULT_TUPLE_BUDGET)
    _, params, procedure = _CHECKS[args.problem]
    values = [getattr(args, param) for param in params]
    report = getattr(decision, procedure)(alg, *values, budget=budget)
    return _emit_report(report, args)


def _run_oracle(args) -> int:
    alg = _load_algebra(args.file)
    budget = _budget(args, oracle.DEFAULT_TABLE_BUDGET)
    if args.problem == "qwnu":
        table, complete = oracle.oracle_find_qwnu(alg, args.k, budget=budget)
        label = f"qwnu k={args.k}"
    else:
        table, complete = oracle.oracle_find_quasi_siggers(alg, budget=budget)
        label = "qsiggers"
    if args.json:
        out = {
            "problem": label,
            "algebra": alg.name,
            "found": list(table) if table is not None else None,
            "complete": complete,
        }
        sys.stdout.write(json.dumps(out, indent=2) + "\n")
    else:
        if table is not None:
            sys.stdout.write(f"oracle {label}: found\n")
            if args.witness:
                sys.stdout.write("table: " + " ".join(map(str, table)) + "\n")
        elif complete:
            sys.stdout.write(f"oracle {label}: no (slice complete)\n")
        else:
            sys.stdout.write(f"oracle {label}: inconclusive (budget exhausted)\n")
    if table is not None:
        return 0
    return 1 if complete else 3


def _run_image(args) -> int:
    alg = _load_algebra(args.file)
    alpha, b = minimal_unary_idempotent(alg, _budget(args, DEFAULT_MONOID_BUDGET))
    if args.json:
        out = {"algebra": alg.name, "alpha": list(alpha.images), "image": list(b)}
        sys.stdout.write(json.dumps(out, indent=2) + "\n")
    else:
        sys.stdout.write("alpha: " + " ".join(map(str, alpha.images)) + "\n")
        sys.stdout.write("image: " + " ".join(map(str, b)) + "\n")
    return 0


def _run_gen(args) -> int:
    try:
        signature = [int(x) for x in args.arity.split(",") if x != ""]
    except ValueError:
        raise ValueError(f"bad arity list {args.arity!r}") from None
    alg = oracle.random_algebra(args.seed, args.size, signature, idempotent=args.idempotent)
    sys.stdout.write(format_algebra(alg))
    return 0


def _run_digraph(args) -> int:
    with open(args.file, "r", encoding="utf-8") as handle:
        g = digraph.parse_digraph(handle.read())
    if args.predicate == "smooth":
        answer = digraph.is_smooth(g)
        payload = {"predicate": "smooth", "answer": answer}
        text = f"smooth: {'yes' if answer else 'no'}\n"
    elif args.predicate == "loop":
        vertex = digraph.has_loop(g)
        answer = vertex is not None
        payload = {"predicate": "loop", "answer": answer, "vertex": vertex}
        text = f"loop: {'at ' + str(vertex) if answer else 'none'}\n"
    else:
        answer, certificate = digraph.has_algebraic_length_one(g)
        payload = {"predicate": "length-one", "answer": answer}
        text = f"algebraic length one: {'yes' if answer else 'no'}\n"
        if answer and args.witness:
            start, steps = certificate
            payload["walk"] = {
                "start": start,
                "steps": [[list(edge), d] for edge, d in steps],
            }
            rendered = " ".join(
                f"{u}->{v}" if d == 1 else f"{u}<-{v}" for (u, v), d in steps
            )
            text += f"walk from {start}: {rendered}\n"
    if args.json:
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        sys.stdout.write(text)
    return 0 if answer else 1


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    try:
        if args.command == "check":
            return _run_check(args)
        if args.command == "oracle":
            return _run_oracle(args)
        if args.command == "image":
            return _run_image(args)
        if args.command == "gen":
            return _run_gen(args)
        return _run_digraph(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: resource exhausted: out of memory", file=sys.stderr)
        return 3
    except (AlgebraFormatError, TermError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
