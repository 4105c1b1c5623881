from __future__ import annotations

import itertools

import pytest

from helpers import ALL_BINARY2, MIN2, NOT2, ONE1, PROJ2, Z3_MALTSEV
from maltsev_lab import (
    SplitMix64,
    enumerate_clone_slice,
    is_idempotent,
    oracle_find_quasi_siggers,
    oracle_find_qwnu,
    quasi_siggers_table_check,
    qwnu_table_check,
    random_algebra,
)


def projection_tables(size, k):
    total = size ** k
    return [
        tuple((idx // size ** (k - 1 - i)) % size for idx in range(total))
        for i in range(k)
    ]


def test_splitmix64_reference_stream():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_clone_slice_projection_algebra():
    for k in (1, 2, 3):
        s = enumerate_clone_slice(PROJ2, k)
        assert s.complete
        assert set(s.tables) == set(projection_tables(2, k))


def test_clone_slice_min():
    s = enumerate_clone_slice(MIN2, 2)
    assert s.complete
    meet = tuple(min(a, b) for a, b in itertools.product(range(2), repeat=2))
    assert set(s.tables) == set(projection_tables(2, 2)) | {meet}


def test_clone_slice_affine_count():
    s = enumerate_clone_slice(Z3_MALTSEV, 3)
    assert s.complete
    assert len(s.tables) == 9
    # cross-check: exactly the maps a1*x + a2*y + a3*z with a1+a2+a3 = 1 mod 3
    expected = set()
    for a1, a2 in itertools.product(range(3), repeat=2):
        a3 = (1 - a1 - a2) % 3
        expected.add(
            tuple(
                (a1 * x + a2 * y + a3 * z) % 3
                for x, y, z in itertools.product(range(3), repeat=3)
            )
        )
    assert set(s.tables) == expected


def test_clone_slices_contain_projections():
    for seed in range(10):
        alg = random_algebra(seed, (seed % 3) + 1, [2])
        for k in (1, 2, 3):
            s = enumerate_clone_slice(alg, k, budget=5000)
            assert set(projection_tables(alg.size, k)) <= set(s.tables)


def test_clone_slice_budget_flag():
    nand = ALL_BINARY2[0b1110]  # f(0,0)=1 f(0,1)=1 f(1,0)=1 f(1,1)=0
    s = enumerate_clone_slice(nand, 3, budget=10)
    assert not s.complete
    assert len(s.tables) == 10


def test_clone_slice_validation():
    with pytest.raises(ValueError):
        enumerate_clone_slice(MIN2, 0)
    with pytest.raises(ValueError):
        enumerate_clone_slice(MIN2, 3, budget=2)


def test_oracle_find_qwnu_examples():
    table, complete = oracle_find_qwnu(MIN2, 3)
    meet3 = tuple(min(a, b, c) for a, b, c in itertools.product(range(2), repeat=3))
    assert table == meet3
    table, complete = oracle_find_qwnu(PROJ2, 2)
    assert table is None and complete
    table, complete = oracle_find_qwnu(Z3_MALTSEV, 3)
    assert table is None and complete


def test_oracle_find_quasi_siggers_examples():
    table, _ = oracle_find_quasi_siggers(MIN2)
    assert table is not None and quasi_siggers_table_check(table, 2)
    table, complete = oracle_find_quasi_siggers(NOT2)
    assert table is None and complete
    table, _ = oracle_find_quasi_siggers(ONE1)
    assert table == (0,)


def test_oracle_searches_agree_with_the_clone_slice():
    # a found table is in the slice and claims no completeness; with none
    # found, the search is as complete as the slice and no slice table
    # satisfies the identities, also under a budget that cuts the slice
    searches = [
        (k, lambda alg, b, k=k: oracle_find_qwnu(alg, k, b),
         lambda t, k=k: qwnu_table_check(t, 2, k))
        for k in (2, 3)
    ] + [(4, oracle_find_quasi_siggers, lambda t: quasi_siggers_table_check(t, 2))]
    found = cut = 0
    for alg in ALL_BINARY2:
        for k, search, check in searches:
            # the 4-ary slice of a Sheffer operation has 2^16 tables
            for budget in (k + 2, 300 if k == 4 else 100_000):
                table, complete = search(alg, budget)
                slice_ = enumerate_clone_slice(alg, k, budget)
                if table is not None:
                    assert not complete and check(table) and table in slice_.tables
                    found += 1
                else:
                    assert complete == slice_.complete
                    assert not any(map(check, slice_.tables))
                    cut += not complete
    assert found >= 20 and cut >= 5, (found, cut)


def test_table_checks():
    meet3 = tuple(min(a, b, c) for a, b, c in itertools.product(range(2), repeat=3))
    assert qwnu_table_check(meet3, 2, 3)
    assert not qwnu_table_check(projection_tables(2, 3)[0], 2, 3)


def test_random_algebra_deterministic():
    a = random_algebra(42, 3, [2, 1])
    b = random_algebra(42, 3, [2, 1])
    assert a == b
    c = random_algebra(43, 3, [2, 1])
    assert a != c
    assert a.ops[0].symbol == "f0" and a.ops[1].symbol == "f1"


@pytest.mark.parametrize("seed", [-1, 1 << 64, -(1 << 64)])
def test_random_algebra_refuses_seeds_outside_64_bits(seed):
    # splitmix64 keeps the low 64 bits: -1 would alias 2^64 - 1 by name
    with pytest.raises(ValueError, match=r"seed must be in 0\.\.2\^64-1"):
        random_algebra(seed, 2, [2])


def test_random_algebra_accepts_the_64_bit_range():
    top = random_algebra((1 << 64) - 1, 3, [2])
    assert top.name == "rand-s18446744073709551615-n3-a2"
    assert top != random_algebra(0, 3, [2])


def test_random_algebra_idempotent_flag():
    for seed in range(10):
        alg = random_algebra(seed, 3, [2, 3], idempotent=True)
        assert is_idempotent(alg)
    with pytest.raises(ValueError):
        random_algebra(0, 2, [0], idempotent=True)


def test_random_algebra_covers_binary_tables():
    seen = {random_algebra(seed, 2, [2]).ops[0].table for seed in range(200)}
    assert len(seen) == 16


def test_dump_corpus(tmp_path):
    from maltsev_lab import dump_corpus, parse_algebra

    paths = dump_corpus(tmp_path / "corpus", range(5), 2, [2, 1])
    assert len(paths) == 5
    for seed, path in enumerate(paths):
        assert f"s{seed}" in path.name and "a2x1" in path.name
        assert parse_algebra(path.read_text()) == random_algebra(seed, 2, [2, 1])
