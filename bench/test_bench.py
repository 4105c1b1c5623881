"""Self-test of the benchmark on tiny inputs: ``python3 -m pytest bench``."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(BENCH.parent / "src"))


def _bench(*args, cwd=BENCH.parent):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace, tmp_path):
    spans = tmp_path / "spans.jsonl"
    proc = _bench("--workload", workload, "--seed", "0", "--seconds", "0.2",
                  "--trace", str(trace), "--smoke", "--spans", str(spans))
    assert proc.returncode == 0, proc.stderr
    *text, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    printed = "\n".join(text)
    for m in wanted:
        assert f"{m['name']} " in printed and f" {m['unit']}" in printed
    assert "ops_failed_ratio" in printed
    if trace:
        lines = [json.loads(line) for line in spans.read_text().splitlines()]
        assert lines and all(-1 <= s["parent"] < s["span"] for s in lines)


def test_the_pinned_smoke_outputs_are_current(tmp_path):
    copy = tmp_path / "expected.json"
    shutil.copy(run.EXPECTED, copy)
    for workload in workloads.WORKLOADS:
        run.record_expected(workload, smoke=True, path=copy)
    assert json.loads(copy.read_text()) == json.loads(run.EXPECTED.read_text())


def test_all_workloads_run_each_in_its_own_process():
    proc = _bench("--workload", "all", "--seconds", "0.2", "--smoke")
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.strip().splitlines()[-len(workloads.WORKLOADS):]
    assert [row.split()[0] for row in rows] == list(workloads.WORKLOADS)
    assert all("ops_failed_ratio=0 " in row for row in rows)


def test_a_wrong_pinned_expectation_is_a_failed_op(capsys):
    expected = run.load_expected("term-heavy", smoke=True)
    label = sorted(expected)[0]
    wrong = {**expected, label: {**expected[label], "pairs_checked": -1}}
    result = run.run_workload("term-heavy", 0, 0.01, False, smoke=True, expected=wrong)
    ops = len(expected)
    assert result["failed"] == result["attempted"] // ops >= 1
    assert not result["correct"]
    assert f"FAILED {label}: pairs_checked" in capsys.readouterr().out


def test_an_unreadable_output_is_a_failed_op():
    ml, ops, _ = run.set_up("term-heavy", 0, smoke=True)
    _, _, outputs = run.run_pass(ml, ops)
    outputs[0] = ("{}", None)
    errors, _ = run.check_pass(ml, ops, outputs, {}, {})
    assert [label for label, _ in errors] == [ops[0].label]
    assert "unreadable output" in errors[0][1][0]


def test_traced_and_untraced_passes_give_the_same_outputs():
    for workload in workloads.WORKLOADS:
        ml, ops, _ = run.set_up(workload, 0, smoke=True)
        original = ml.decision.term_table
        digests: dict = {}
        _, _, plain = run.run_pass(ml, ops)
        tracer = tracing.Tracer(ml)
        _, _, traced = run.run_pass(ml, ops, tracer)
        assert ml.decision.term_table is original
        assert tracer.spans and not tracer.absent
        for outputs in (plain, traced):
            errors, _ = run.check_pass(ml, ops, outputs, {}, digests)
            assert errors == []


def test_a_deleted_function_is_an_absent_layer():
    package = types.SimpleNamespace(io=types.SimpleNamespace(parse_algebra=len))
    tracer = tracing.Tracer(package)
    tracer.install()
    assert package.io.parse_algebra("abc") == 3
    tracer.uninstall()
    assert package.io.parse_algebra is len
    assert "decision.term_table" in tracer.absent
    assert "io.parse_algebra" not in tracer.absent
    assert tracer.layers()["parse"]["calls"] == 1


def test_other_seeds_keep_every_check(capsys):
    for workload in workloads.WORKLOADS:
        result = run.run_workload(workload, 5, 0.01, False, smoke=True)
        assert result["correct"], capsys.readouterr().out


def test_without_the_library_it_fails_without_a_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "term-heavy", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
