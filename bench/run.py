"""Benchmark of maltsev-lab: time to verdict, peak memory, per-layer split.

Run one workload (this is what ``BENCHMARK.json`` names):

    python3 bench/run.py --workload term-heavy --seed 0 --seconds 60 --trace 0

or every workload, each in its own process, with a summary table:

    python3 bench/run.py --workload all

The load is a closed loop: one caller in one thread runs the workload's ops
back to back, pass after pass, until the next pass would end after
``--seconds``.  Every op's output is checked in every pass (see
``workloads.check_op``); with seed 0 it is also compared with the values
pinned in ``expected.json``.  An op fails when it raises or a check fails.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  Each op's time is
taken as its best (lowest) time over the run's untraced passes:

    wall_s        seconds of one pass, the sum of the ops' best times
    op_p50_s      median over the ops of their best times
    slowest_op_s  best time of the slowest op
    peak_rss_mb   ru_maxrss of this process in MiB
    setup_s       median seconds of one set-up: import the library afresh,
                  make the inputs and format the algebras to text

Best times, not medians of passes, because a CPU shared with other virtual
machines is not steady: it ran the same code up to about 1.5 times slower
for stretches of a second to minutes, so a pass's time says more about the
neighbours than about the library.  Interference only ever adds time, and an
op short enough to fit between slow stretches, run many times across the
run, nearly always meets a quiet moment once.  Slowdowns that last the
whole run still show.  The printed lines also give the quartiles of the
samples behind each value: pass times for ``wall_s``, the ops' best times
for ``op_p50_s`` and the slowest op's times for ``slowest_op_s``.

``ops_failed_ratio`` is printed above the JSON; the JSON carries it as
``failed`` over ``attempted``.  ``ru_maxrss`` is the high-water mark of this
process's own resident memory: it does not include child processes, and it
cannot measure memory across the container or cgroup.  Because each
workload runs in its own process, the figure belongs to that workload.
Set-up is done SETUP_REPEATS times before the first pass and once more
after every pass, so its median samples the whole run, and numpy's one-time
import, paid by the first set-up only, is left out.

With ``--trace 1`` untraced and traced passes alternate.  Traced passes wrap
the library functions named in ``tracing.TARGETS`` and report the per-layer
metrics of one pass, as the median over the traced passes;
``trace.overhead_ratio`` is the traced ``wall_s`` over the untraced one,
minus one.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
SETUP_REPEATS = 5

# one thread: numpy's BLAS would otherwise start a worker thread per CPU
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "op_p50_s": "s",
    "slowest_op_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

PER_LAYER = {
    "algebra.term_table_s": "s",
    "algebra.term_table_calls": "count",
    "algebra.table_entries": "count",
    "subpower.until_s": "s",
    "subpower.until_calls": "count",
    "subpower.until_hit_ratio": "ratio",
    "subpower.tuples": "count",
    "subpower.tuples_per_s": "tuples/s",
    "subpower.extract_s": "s",
    "subpower.replay_s": "s",
    "subpower.closure_s": "s",
    "algebra.monoid_s": "s",
    "algebra.monoid_maps": "count",
    "digraph.admissible_s": "s",
    "digraph.admissible_calls": "count",
    "digraph.admissible_ratio": "ratio",
    "digraph.length_one_s": "s",
    "decision.self_s": "s",
    "decision.pairs": "count",
    "decision.pairs_saturated": "count",
    "decision.reuse_ratio": "ratio",
    "io.parse_s": "s",
    "io.render_s": "s",
    "io.report_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


def load_library():
    """Import maltsev_lab afresh from the checkout's ``src``."""
    for name in [m for m in sys.modules if m.split(".")[0] == "maltsev_lab"]:
        del sys.modules[name]
    return importlib.import_module("maltsev_lab")


def set_up_once(workload, seed, smoke):
    """(library, ops, seconds) of one set-up."""
    start = time.perf_counter()
    ml = load_library()
    ops = workloads.build(ml, workload, seed, smoke)
    return ml, ops, time.perf_counter() - start


def set_up(workload, seed, smoke):
    """(library, ops, seconds of each set-up) over SETUP_REPEATS set-ups."""
    times = []
    for _ in range(SETUP_REPEATS):
        ml, ops, seconds = set_up_once(workload, seed, smoke)
        times.append(seconds)
    return ml, ops, times


def run_pass(ml, ops, tracer=None):
    """Run every op once; returns (pass seconds, op seconds, outputs).

    An output is (value, None) or (None, error text) when the op raised.
    """
    gc.collect()
    if tracer is not None:
        tracer.spans = []
        tracer.install()
    op_times, outputs = [], []
    try:
        start = time.perf_counter()
        for op in ops:
            span = tracer.begin("op") if tracer is not None else None
            t0 = time.perf_counter()
            try:
                outputs.append((workloads.run_op(ml, op), None))
            except Exception as exc:  # an op that raises is a failed op
                outputs.append((None, f"{type(exc).__name__}: {exc}"))
            op_times.append(time.perf_counter() - t0)
            if span is not None:
                tracer.end(span)
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, op_times, outputs


def check_pass(ml, ops, outputs, expected, digests):
    """Errors of one pass, plus its summaries; ``digests`` holds the first
    pass's output fingerprints, so every later pass must reproduce them."""
    errors, summaries = [], []
    for op, (out, raised) in zip(ops, outputs):
        if raised is not None:
            errors.append((op.label, [raised]))
            summaries.append(None)
            continue
        try:
            summary, digest, problems = workloads.check_op(ml, op, out, expected.get(op.label))
        except Exception as exc:  # output the checks cannot read is a failed op
            errors.append((op.label, [f"unreadable output: {type(exc).__name__}: {exc}"]))
            summaries.append(None)
            continue
        if digests.setdefault(op.label, digest) != digest:
            problems.append("output differs from the run's first pass")
        if problems:
            errors.append((op.label, problems))
        summaries.append(summary)
    return errors, summaries


def layer_metrics(tracer, summaries) -> dict:
    """The per-layer metrics of one traced pass."""
    layers = tracer.layers()
    empty = {"self_s": 0.0, "calls": 0, "work": 0, "hits": 0}

    def get(name):
        return layers.get(name, empty)

    def ratio(a, b):
        return a / b if b else 0.0

    until, replay, closure = get("until"), get("replay"), get("closure")
    tuples = until["work"] + replay["work"] + closure["work"]
    saturate_s = until["self_s"] + replay["self_s"] + closure["self_s"]
    pairs = sum(s["pairs_checked"] for s in summaries if s and "pairs_checked" in s)
    admissible = get("admissible")
    return {
        "algebra.term_table_s": get("term_table")["self_s"],
        "algebra.term_table_calls": get("term_table")["calls"],
        "algebra.table_entries": get("term_table")["work"],
        "subpower.until_s": until["self_s"],
        "subpower.until_calls": until["calls"],
        "subpower.until_hit_ratio": ratio(until["hits"], until["calls"]),
        "subpower.tuples": tuples,
        "subpower.tuples_per_s": ratio(tuples, saturate_s),
        "subpower.extract_s": get("extract")["self_s"],
        "subpower.replay_s": replay["self_s"],
        "subpower.closure_s": closure["self_s"],
        "algebra.monoid_s": get("monoid")["self_s"],
        "algebra.monoid_maps": get("monoid")["work"],
        "digraph.admissible_s": admissible["self_s"],
        "digraph.admissible_calls": admissible["calls"],
        "digraph.admissible_ratio": ratio(admissible["hits"], admissible["calls"]),
        "digraph.length_one_s": get("length_one")["self_s"],
        "decision.self_s": get("decision")["self_s"],
        "decision.pairs": pairs,
        "decision.pairs_saturated": until["calls"],
        "decision.reuse_ratio": ratio(pairs - until["calls"], pairs),
        "io.parse_s": get("parse")["self_s"],
        "io.render_s": get("render")["self_s"],
        "io.report_bytes": get("render")["work"],
    }


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _best(passes):
    """Each op's lowest time over ``passes``, a list of per-op time lists."""
    return [min(times) for times in zip(*passes)]


def run_workload(workload, seed, seconds, trace, smoke=False, expected=None, spans_path=None):
    """Measure one workload in this process; returns the result object."""
    ml, ops, setup_times = set_up(workload, seed, smoke)
    tracer = tracing.Tracer(ml) if trace else None
    if expected is None:
        expected = load_expected(workload, smoke) if seed == 0 else {}
    plain, traced, failures, layer_runs, all_spans = [], [], [], [], []
    digests: dict = {}
    attempted = 0
    start = time.perf_counter()
    while True:
        use_tracer = tracer if trace and len(plain) > len(traced) else None
        wall, op_times, outputs = run_pass(ml, ops, use_tracer)
        attempted += len(ops)
        errors, summaries = check_pass(ml, ops, outputs, expected, digests)
        failures.extend(errors)
        if use_tracer is None:
            plain.append((wall, op_times))
        else:
            traced.append((wall, op_times))
            layer_runs.append(layer_metrics(tracer, summaries))
            if spans_path is not None:
                all_spans.append(tracer.spans)
        # timed only: the passes keep the first set-up's library and ops
        setup_times.append(set_up_once(workload, seed, smoke)[2])
        elapsed = time.perf_counter() - start
        typical = statistics.median(w for w, _ in plain + traced)
        if elapsed + typical > seconds and (not trace or traced):
            break
    failed = len(failures)
    walls = [w for w, _ in plain]
    best = _best(ts for _, ts in plain)
    slowest = max(range(len(ops)), key=best.__getitem__)
    e2e = {
        "wall_s": sum(best),
        "op_p50_s": statistics.median(best),
        "slowest_op_s": best[slowest],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
    }
    samples = {
        "wall_s": (walls, "pass times"),
        "op_p50_s": (best, "best times of the ops"),
        "slowest_op_s": ([ts[slowest] for _, ts in plain], f"times of {ops[slowest].label}"),
        "peak_rss_mb": ([e2e["peak_rss_mb"]], "process high-water mark"),
        "setup_s": (setup_times, "set-ups"),
    }
    print(f"workload {workload} seed {seed} trace {int(trace)}: "
          f"{len(plain)} untraced + {len(traced)} traced passes of {len(ops)} ops")
    for name, unit in END_TO_END.items():
        values, what = samples[name]
        q1, q3 = _quartiles(values)
        print(f"  {name:<16} {e2e[name]:12.6f} {unit:<6} {what}: "
              f"median {statistics.median(values):.6f} q1 {q1:.6f} q3 {q3:.6f} n={len(values)}")
    print(f"  {'ops_failed_ratio':<16} {failed / attempted:12.6f} {'ratio':<6} "
          f"{failed} of {attempted} ops")
    for label, problems in failures[:10]:
        print(f"  FAILED {label}: {'; '.join(problems)}")
    if trace:
        # median_low keeps each value one that a traced pass measured
        layers = {
            name: statistics.median_low(run[name] for run in layer_runs) for name in layer_runs[0]
        }
        layers["trace.overhead_ratio"] = sum(_best(ts for _, ts in traced)) / e2e["wall_s"] - 1
        for name, unit in PER_LAYER.items():
            print(f"  {name:<28} {layers[name]:14.6f} {unit}")
        if tracer.absent:
            print(f"  absent layers: {', '.join(tracer.absent)}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
        if spans_path is not None:
            write_spans(spans_path, all_spans)
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def write_spans(path, passes):
    """One JSON line per span: pass, index, layer, start, end, parent, work."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, spans in enumerate(passes):
            for j, (name, start, end, parent, work) in enumerate(spans):
                fh.write(json.dumps({"pass": i, "span": j, "name": name, "start": start,
                                     "end": end, "parent": parent, "work": work}) + "\n")


def load_expected(workload, smoke):
    if not EXPECTED.exists():
        return {}
    table = json.loads(EXPECTED.read_text(encoding="utf-8"))
    return table["smoke" if smoke else "full"].get(workload, {})


def record_expected(workload, smoke, path=EXPECTED):
    """Pin the seed-0 outputs of one workload into expected.json."""
    ml, ops, _ = set_up(workload, 0, smoke)
    _, _, outputs = run_pass(ml, ops)
    errors, summaries = check_pass(ml, ops, outputs, {}, {})
    if errors:
        raise SystemExit(f"not recording: {errors}")
    table = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    section = table.setdefault("smoke" if smoke else "full", {})
    section[workload] = {op.label: s for op, s in zip(ops, summaries)}
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def run_all(args):
    """Each workload in its own process, then a table of the results."""
    rows, status = [], 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append((name, result))
        status |= 0 if result["correct"] else 1
    print()
    for name, result in rows:
        values = "  ".join(f"{k}={m['value']:.4g}{m['unit']}" for k, m in result["metrics"].items()
                           if not args.trace or k.endswith("_s") or k.endswith("ratio"))
        print(f"{name:<14} ops_failed_ratio={result['failed'] / result['attempted']:.4g} "
              f"({result['failed']} of {result['attempted']})  {values}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    parser.add_argument("--spans", metavar="FILE", help="write the traced spans as JSON lines")
    parser.add_argument("--record-expected", action="store_true",
                        help="pin the seed-0 outputs of the workload into expected.json")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (ROOT / "src" / "maltsev_lab" / "__init__.py").is_file():
        print(f"error: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    if args.record_expected:
        record_expected(args.workload, args.smoke)
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          smoke=args.smoke, spans_path=args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
