from __future__ import annotations

import json
import re
import time
from pathlib import Path

import pytest

from helpers import MIN2, NOT2, PROJ2, Z2_MINORITY, make_algebra
from maltsev_lab import decision, digraph, format_algebra
from maltsev_lab.cli import run_cli
from maltsev_lab.errors import ConsistencyError


@pytest.fixture
def files(tmp_path):
    paths = {}
    for alg in (MIN2, PROJ2, NOT2, Z2_MINORITY):
        p = tmp_path / f"{alg.name}.alg"
        p.write_text(format_algebra(alg))
        paths[alg.name] = str(p)
    dg = tmp_path / "g.dg"
    dg.write_text("digraph 4\n0 1\n1 2\n2 0\n0 3\n3 0\n")
    paths["digraph"] = str(dg)
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra m\nsize 2\nop f 2\n0 0 0 2\n")
    paths["bad"] = str(bad)
    return paths


def test_check_qwnu_yes(files, capsys):
    assert run_cli(["check", "qwnu", "--k", "3", files["min2"], "--witness"]) == 0
    out = capsys.readouterr().out
    assert "answer: yes" in out and "witness" in out


def test_check_qwnu_no(files, capsys):
    assert run_cli(["check", "qwnu", "--k", "2", files["proj2"]]) == 1
    out = capsys.readouterr().out
    assert "refuted at: r=0 s=1" in out


def test_check_qwnu_k_one_usage_error(files):
    assert run_cli(["check", "qwnu", "--k", "1", files["min2"]]) == 2


def test_check_wnu_idemp_precondition(files):
    assert run_cli(["check", "wnu-idemp", "--k", "2", files["not2"]]) == 2


@pytest.mark.parametrize(
    "op,message",
    [
        (("f", 2, (1, 0, 0, 1)), "f(0,0) = 1, expected 0"),
        # a constant's diagonal has no arguments
        (("c", 0, (1,)), "c() = 1, expected 0"),
    ],
)
def test_wnu_idemp_precondition_names_the_diagonal(tmp_path, capsys, op, message):
    alg = make_algebra("nonidem", 2, op)
    want = f"algebra is not idempotent: {message}"
    with pytest.raises(ValueError) as info:
        decision.has_k_wnu_idemp(alg, 2)
    assert str(info.value) == want
    path = tmp_path / "nonidem.alg"
    path.write_text(format_algebra(alg))
    assert run_cli(["check", "wnu-idemp", "--k", "2", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {want}\n"


def test_parse_error_exit(files):
    assert run_cli(["check", "qwnu", "--k", "2", files["bad"]]) == 2


@pytest.mark.parametrize("arity", [10**8, 10**7, 3])
def test_huge_arity_is_a_prompt_parse_error(tmp_path, capsys, arity):
    # the table cannot fit in the one token left: refused at the arity,
    # before size^arity is taken, which for 3^(10^8) would run for minutes
    path = tmp_path / "huge.alg"
    path.write_text(f"algebra a\nsize 3\nop f {arity}\n0\n")
    start = time.perf_counter()
    assert run_cli(["check", "qtaylor", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: line 3, column 6: ") and f"3^{arity} " in err, err


def test_size_one_table_is_one_entry_at_any_arity(tmp_path, capsys):
    path = tmp_path / "one.alg"
    path.write_text("algebra a\nsize 1\nop f 100000000\n0\n")
    assert run_cli(["check", "qtaylor", str(path)]) == 0


def test_missing_file_exit():
    assert run_cli(["check", "qwnu", "--k", "2", "/nonexistent.alg"]) == 2


def test_budget_exit(files):
    assert run_cli(["check", "qwnu", "--k", "2", files["min2"], "--budget", "1"]) == 3


def test_budget_env_override(files, monkeypatch):
    monkeypatch.setenv("MALTSEV_LAB_BUDGET", "1")
    assert run_cli(["check", "qwnu", "--k", "2", files["min2"]]) == 3


def test_image_budget(files, monkeypatch):
    # the unary term monoid of NOT2 has two maps: the identity and negation
    assert run_cli(["image", files["not2"], "--budget", "1"]) == 3
    assert run_cli(["image", files["not2"], "--budget", "2"]) == 0
    monkeypatch.setenv("MALTSEV_LAB_BUDGET", "1")
    assert run_cli(["image", files["not2"]]) == 3


@pytest.mark.parametrize("command", [["check", "qwnu", "--k", "2"], ["image"], ["oracle", "qsiggers"]])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_budget_flag_must_be_positive(files, capsys, command, value):
    assert run_cli(command + [files["min2"], "--budget", value]) == 2
    assert f"--budget must be a positive integer, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["check", "qwnu", "--k", "2"], ["image"], ["oracle", "qsiggers"]])
@pytest.mark.parametrize("value", ["0", "-3", "abc", "2.5"])
def test_budget_env_must_be_a_positive_integer(files, capsys, monkeypatch, command, value):
    monkeypatch.setenv("MALTSEV_LAB_BUDGET", value)
    assert run_cli(command + [files["min2"]]) == 2
    assert "MALTSEV_LAB_BUDGET must be a positive integer" in capsys.readouterr().err


def test_budget_flag_must_be_an_integer(files, capsys):
    assert run_cli(["check", "qwnu", "--k", "2", files["min2"], "--budget", "abc"]) == 2
    assert "--budget" in capsys.readouterr().err


def _raiser(exc):
    def raise_it(*args, **kwargs):
        raise exc

    return raise_it


def test_consistency_error_has_its_own_exit(files, monkeypatch, capsys):
    monkeypatch.setattr(
        decision, "has_k_qwnu", _raiser(ConsistencyError("replay disagreed"))
    )
    assert run_cli(["check", "qwnu", "--k", "2", files["min2"]]) == 4
    assert "internal consistency error: replay disagreed" in capsys.readouterr().err


def test_memory_error_is_resource_exhaustion(files, monkeypatch, capsys):
    monkeypatch.setattr(decision, "has_quasi_taylor", _raiser(MemoryError()))
    assert run_cli(["check", "qtaylor", files["min2"]]) == 3
    assert "resource exhausted" in capsys.readouterr().err


def test_usage_error():
    assert run_cli(["check", "qwnu"]) == 2
    assert run_cli(["frobnicate"]) == 2


def test_json_and_text_decisions_agree(files, capsys):
    cases = [
        (["check", "qwnu", "--k", "3", files["min2"]], 0),
        (["check", "qwnu", "--k", "2", files["proj2"]], 1),
        (["check", "qtaylor", files["not2"]], 1),
        (["check", "nlocal", "--n", "2", "--k", "2", files["min2"]], 0),
    ]
    for argv, expected in cases:
        assert run_cli(argv) == expected
        text = capsys.readouterr().out
        assert run_cli(argv + ["--json"]) == expected
        data = json.loads(capsys.readouterr().out)
        assert (data["answer"] == "yes") == (expected == 0)
        assert ("answer: yes" in text) == (expected == 0)


@pytest.mark.parametrize(
    "golden,argv",
    [
        ("qwnu-k3-min2", ["qwnu", "--k", "3", "min2"]),
        ("wnu-k3-z2minority", ["wnu-idemp", "--k", "3", "z2minority"]),
        ("nlocal-n2k2-min2", ["nlocal", "--n", "2", "--k", "2", "min2"]),
        ("qtaylor-min2", ["qtaylor", "min2"]),
    ],
)
def test_check_json_output_matches_golden(files, capsys, golden, argv):
    *options, name = argv
    assert run_cli(["check", *options, files[name], "--json", "--witness"]) == 0
    # drop the stats' last field, elapsed_seconds, and the comma before it
    out = re.sub(r',\n *"elapsed_seconds": [^\n]*', "", capsys.readouterr().out)
    golden_file = Path(__file__).resolve().parent / "golden" / f"{golden}.json"
    assert out == golden_file.read_text(encoding="utf-8")


def test_oracle_commands(files, capsys):
    assert run_cli(["oracle", "qwnu", "--k", "3", files["min2"], "--witness"]) == 0
    assert "found" in capsys.readouterr().out
    assert run_cli(["oracle", "qwnu", "--k", "2", files["proj2"]]) == 1
    assert run_cli(["oracle", "qsiggers", files["not2"]]) == 1
    capsys.readouterr()
    assert run_cli(["oracle", "qsiggers", files["min2"], "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["found"] is not None


def test_oracle_out_of_budget_is_inconclusive(files, capsys):
    # the binary slice of negation has four tables, none a qWNU; a budget
    # of two stops after the projections
    assert run_cli(["oracle", "qwnu", "--k", "2", files["not2"], "--budget", "2"]) == 3
    assert capsys.readouterr().out == "oracle qwnu k=2: inconclusive (budget exhausted)\n"


def test_image_command(files, capsys):
    assert run_cli(["image", files["not2"], "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["alpha"] == [0, 1] and data["image"] == [0, 1]


def test_gen_roundtrip(capsys):
    assert run_cli(["gen", "--seed", "5", "--size", "3", "--arity", "2,1"]) == 0
    first = capsys.readouterr().out
    assert run_cli(["gen", "--seed", "5", "--size", "3", "--arity", "2,1"]) == 0
    assert capsys.readouterr().out == first
    from maltsev_lab import parse_algebra

    alg = parse_algebra(first)
    assert alg.size == 3 and [op.arity for op in alg.ops] == [2, 1]


def test_gen_refuses_a_bad_arity_list(capsys):
    assert run_cli(["gen", "--seed", "5", "--size", "3", "--arity", "2,x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad arity list '2,x'" in captured.err


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
def test_gen_refuses_seeds_outside_64_bits(seed, capsys):
    assert run_cli(["gen", "--seed", seed, "--size", "3", "--arity", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "seed must be in 0..2^64-1" in captured.err


def test_gen_accepts_the_largest_seed(capsys):
    top = str((1 << 64) - 1)
    assert run_cli(["gen", "--seed", top, "--size", "3", "--arity", "2"]) == 0
    assert f"rand-s{top}-n3-a2" in capsys.readouterr().out


def test_gen_idempotent(capsys):
    assert run_cli(["gen", "--seed", "5", "--size", "3", "--arity", "2", "--idempotent"]) == 0
    from maltsev_lab import is_idempotent, parse_algebra

    assert is_idempotent(parse_algebra(capsys.readouterr().out))


def test_digraph_commands(files, capsys):
    assert run_cli(["digraph", "smooth", files["digraph"]]) == 0
    assert run_cli(["digraph", "loop", files["digraph"]]) == 1
    assert run_cli(["digraph", "length-one", files["digraph"], "--witness"]) == 0
    out = capsys.readouterr().out
    assert "walk from" in out


def test_digraph_length_one_json_walk_replays(files, capsys):
    assert run_cli(["digraph", "length-one", files["digraph"], "--json", "--witness"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["predicate"] == "length-one" and data["answer"] is True
    start, steps = data["walk"]["start"], data["walk"]["steps"]
    g = digraph.parse_digraph(Path(files["digraph"]).read_text())
    assert digraph.replay_walk(g, start, [(tuple(edge), d) for edge, d in steps]) == (start, 1)
