import itertools
import json

import pytest

from percoperm import counting
from percoperm.counting import (
    FACTORIAL_IDENTITY_MAX_N,
    MAX_N,
    PARALLEL_MIN_N,
    CountReport,
    count_full,
    count_full_indecomposable,
    count_no_growth,
    count_report,
    enumerate_permutations,
    verify_factorial_identity,
    _is_no_growth,
)
from percoperm.percolation import is_full, matrix_of, mutable_cells
from percoperm.perm import is_indecomposable


class TestEnumerate:
    def test_lexicographic_s3(self):
        seen = []
        enumerate_permutations(3, seen.append)
        assert seen == [
            (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1),
        ]

    def test_n1(self):
        seen = []
        enumerate_permutations(1, seen.append)
        assert seen == [(1,)]

    def test_count_s4(self):
        count = 0

        def bump(_p):
            nonlocal count
            count += 1

        enumerate_permutations(4, bump)
        assert count == 24

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_permutations(0, lambda p: None)
        with pytest.raises(ValueError):
            enumerate_permutations(MAX_N + 1, lambda p: None)


class TestCounts:
    def test_full(self):
        assert [count_full(n) for n in range(1, 6)] == [1, 2, 6, 22, 90]

    def test_full_indecomposable(self):
        assert count_full_indecomposable(2) == 1
        assert count_full_indecomposable(4) == 11
        assert count_full_indecomposable(5) == 45

    def test_no_growth(self):
        assert [count_no_growth(n) for n in range(1, 6)] == [1, 0, 0, 2, 14]

    def test_full_matches_percolation(self):
        # spot-check the fast interval predicate against cell-level percolation
        for n in range(1, 6):
            brute = sum(
                1 for p in itertools.permutations(range(1, n + 1)) if is_full(p)
            )
            assert count_full(n) == brute

    def test_no_growth_matches_mutable_cells(self):
        for n in range(1, 7):
            for p in itertools.permutations(range(1, n + 1)):
                assert _is_no_growth(p) == (not mutable_cells(matrix_of(p)))

    @pytest.mark.parametrize("n", [7, 8])
    def test_parallel_agrees_with_serial(self, n):
        assert count_full(n, parallel=True) == count_full(n)
        assert count_no_growth(n, parallel=True) == count_no_growth(n)
        assert count_full_indecomposable(n, parallel=True) == count_full_indecomposable(n)
        serial = count_report(n, "all")
        parallel = count_report(n, "all", parallel=True)
        assert (parallel.p_n, parallel.q_n, parallel.a_n) == (serial.p_n, serial.q_n, serial.a_n)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_report_matches_cell_level_definitions(self, n):
        full = full_indec = no_growth = 0
        for p in itertools.permutations(range(1, n + 1)):
            if is_full(p):
                full += 1
                full_indec += is_indecomposable(p)
            no_growth += not mutable_cells(matrix_of(p))
        r = count_report(n, "all")
        assert (r.p_n, r.q_n, r.a_n) == (full, full_indec, no_growth)

    @pytest.fixture
    def pools(self, monkeypatch):
        """Worker counts asked of an inline executor standing in for the process pool."""
        recorded = []

        class InlineExecutor:
            """Runs the jobs in this process and records the worker count asked for."""

            def __init__(self, max_workers):
                recorded.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setenv("PERCOPERM_THREADS", "64")
        monkeypatch.setattr(counting, "ProcessPoolExecutor", InlineExecutor)
        return recorded

    def test_process_workers_capped_at_job_count(self, pools):
        r = count_report(PARALLEL_MIN_N, "all", parallel=True)
        assert pools == [PARALLEL_MIN_N]
        assert (r.p_n, r.q_n, r.a_n) == (8558, 4279, 5242)

    def test_no_pool_below_parallel_min_n(self, pools):
        r = count_report(PARALLEL_MIN_N - 1, "all", parallel=True)
        assert pools == []
        assert (r.p_n, r.q_n, r.a_n) == (1806, 903, 646)


def test_recursion_for_full_counts():
    # p_{n+2} = q_{n+2} + sum_{k=1}^{n+1} q_k p_{n+2-k}, all brute-forced
    p = {k: count_full(k) for k in range(1, 10)}
    q = {k: count_full_indecomposable(k) for k in range(1, 10)}
    for n in range(1, 8):
        rhs = q[n + 2] + sum(q[k] * p[n + 2 - k] for k in range(1, n + 2))
        assert p[n + 2] == rhs


class TestFactorialIdentity:
    def test_n4(self):
        assert verify_factorial_identity(4) == (24, 24)

    def test_n1(self):
        assert verify_factorial_identity(1) == (1, 1)

    def test_n5(self):
        assert verify_factorial_identity(5) == (120, 120)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            verify_factorial_identity(0)
        with pytest.raises(ValueError):
            verify_factorial_identity(FACTORIAL_IDENTITY_MAX_N + 1)


class TestCountReport:
    def test_csv_row(self):
        r = CountReport(4, 22, 11, 2, 3.14)
        assert CountReport.CSV_HEADER == "n,p_n,q_n,a_n,elapsed_ms"
        assert r.to_csv_row() == "4,22,11,2,3.1"

    def test_json(self):
        r = CountReport(4, 22, 11, 2, 3.14)
        assert json.loads(r.to_json()) == {
            "n": 4, "p_n": 22, "q_n": 11, "a_n": 2, "elapsed_ms": 3.1,
        }

    def test_count_report_families(self):
        r = count_report(4, "full")
        assert (r.p_n, r.q_n, r.a_n) == (22, None, None)
        r = count_report(4, "all")
        assert (r.p_n, r.q_n, r.a_n) == (22, 11, 2)
        with pytest.raises(ValueError):
            count_report(4, "bogus")
