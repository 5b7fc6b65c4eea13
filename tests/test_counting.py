import concurrent.futures
import itertools
import sys

import pytest

from percoperm import counting
from percoperm.counting import (
    MAX_N,
    PARALLEL_MIN_N,
    CountReport,
    count_full,
    count_full_indecomposable,
    count_no_growth,
    count_report,
    count_table,
    verify,
)
from percoperm.melds import merge_run
from percoperm.percolation import is_full, matrix_of, mutable_cells
from percoperm.perm import is_indecomposable


def _is_no_growth(p):
    # Kings in adjacent columns must sit >= 2 rows apart; diagonal adjacency
    # is the only possible attack between distinct rows and columns.
    return all(abs(a - b) != 1 for a, b in zip(p, p[1:]))


def full_walk(n, want):
    """(p, q, a) over all of S_n, one permutation at a time: the orbit walk's oracle.

    Families not in ``want`` read 0, except p, which is counted whenever q
    is.
    """
    want_p, want_q, want_a = want
    p = q = a = 0
    for w in itertools.permutations(range(1, n + 1)):
        if want_a and _is_no_growth(w):
            a += 1
        if (want_p or want_q) and merge_run(w).full:
            p += 1
            if want_q and is_indecomposable(w):
                q += 1
    return p, q, a


def pair_walk(n, pair, want):
    """The walk of ``counting._walk`` one permutation at a time, unpruned: its oracle."""
    first, last = pair
    rest = [v for v in range(1, n + 1) if v != first and v != last]
    want_p, want_q, want_a = want
    p = q = a = 0
    for mid in itertools.permutations(rest):
        w = (first, *mid, last)
        if want_a and _is_no_growth(w):
            a += 1
        if (want_p or want_q) and merge_run(w).full:
            p += 1
            if want_q:
                q += is_indecomposable(w) + is_indecomposable(w[::-1])
    weight = 4 if first + last < n + 1 else 2
    return weight * p, weight // 2 * q, weight * a


def visited_prefixes(n, pair, want):
    """The prefixes ``counting._walk`` places on a merge stack, read off its recursion.

    Each call of the nested ``extend`` places one value, ``prev``; the
    chain of ``extend`` frames above a call spells its prefix.  A call
    with one free value places it and the last value in place, so the
    prefixes reach length n - 2.
    """
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "extend":
            prefix = []
            while frame.f_code.co_name == "extend":
                prefix.append(frame.f_locals["prev"])
                frame = frame.f_back
            seen.add(tuple(reversed(prefix)))

    sys.setprofile(profile)
    try:
        counting._walk(n, pair, want)
    finally:
        sys.setprofile(None)
    return seen


def has_non_separable_pattern(w):
    """True when w contains 2413 or 3142, which no full permutation does."""
    for idx in itertools.combinations(range(len(w)), 4):
        a, b, c, d = (w[i] for i in idx)
        if c < a < d < b or b < d < a < c:
            return True
    return False


def reverse(w):
    return w[::-1]


def complement(w):
    return tuple(len(w) + 1 - v for v in w)


# (p_n, q_n, a_n) of count_table's last row at the sizes around PARALLEL_MIN_N
ROWS = {
    8: (8558, 4279, 5242),
    9: (41586, 20793, 47622),
    10: (206098, 103049, 479306),
    11: (1037718, 518859, 5296790),
}


class TestOrbitWalk:
    @pytest.mark.parametrize("family", sorted(counting._FAMILIES))
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_full_walk(self, n, family):
        want = counting._FAMILIES[family]
        assert counting._tally(n, want) == full_walk(n, want)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_predicates_constant_on_orbits(self, n):
        for w in itertools.permutations(range(1, n + 1)):
            for image in (reverse(w), complement(w)):
                assert merge_run(image).full == merge_run(w).full
                assert _is_no_growth(image) == _is_no_growth(w)
            assert is_indecomposable(reverse(complement(w))) == is_indecomposable(w)
            # the walk adds 1 to q for r(w) of every full representative w
            assert w[0] > w[-1] or is_indecomposable(reverse(w))

    @pytest.mark.parametrize("family", sorted(counting._FAMILIES))
    @pytest.mark.parametrize(
        "n, pair", [(9, (1, 2)), (9, (1, 9)), (9, (4, 5)), (10, (1, 2)), (10, (1, 10))]
    )
    def test_pruned_walk_matches_pair_walk(self, n, pair, family):
        want = counting._FAMILIES[family]
        assert counting._walk(n, pair, want) == pair_walk(n, pair, want)

    @pytest.mark.parametrize("pair", counting._pairs(9))
    def test_pruned_walk_matches_pair_walk_at_every_pair(self, pair):
        want = counting._FAMILIES["all"]
        assert counting._walk(9, pair, want) == pair_walk(9, pair, want)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_walk_keeps_every_prefix_of_a_full_permutation(self, n):
        for pair in counting._pairs(n):
            first, last = pair
            rest = [v for v in range(1, n + 1) if v not in pair]
            prefixes = set()
            for mid in itertools.permutations(rest):
                w = (first, *mid, last)
                if merge_run(w).full:
                    prefixes.update(w[:d] for d in range(1, n - 1))
            assert prefixes <= visited_prefixes(n, pair, counting._FAMILIES["full"]), pair

    @pytest.mark.parametrize("n", range(4, 8))
    def test_walk_cuts_the_non_separable_patterns(self, n):
        for pair in counting._pairs(n):
            visited = visited_prefixes(n, pair, counting._FAMILIES["full"])
            assert not any(map(has_non_separable_pattern, visited)), pair

    # 2413 and 3142 (as 5 3 6 4) lose their prefix at the third value of the pattern
    @pytest.mark.parametrize("n, pair, prefix", [(5, (2, 3), (2, 4, 1)), (6, (1, 2), (1, 5, 3, 6))])
    def test_walk_cuts_a_pattern_at_its_third_value(self, n, pair, prefix):
        visited = visited_prefixes(n, pair, counting._FAMILIES["full"])
        assert prefix[:-1] in visited and prefix not in visited

    def test_pairs(self):
        for n in range(1, MAX_N + 1):
            pairs = counting._pairs(n)
            assert len(set(pairs)) == len(pairs) == n * n // 4
            assert all(1 <= first < last and first + last <= n + 1 for first, last in pairs)


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

    @pytest.mark.parametrize("n", [PARALLEL_MIN_N - 1, PARALLEL_MIN_N])
    def test_parallel_agrees_with_serial(self, n, monkeypatch):
        monkeypatch.setenv("PERCOPERM_THREADS", "2")
        for family in counting._FAMILIES:
            table = count_table(n, family)
            assert [(r.n, r.p_n, r.q_n, r.a_n) for r in table] == [
                (r.n, r.p_n, r.q_n, r.a_n) for r in (count_report(k, family) for k in range(1, n + 1))
            ]

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
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
        return recorded

    def test_process_workers_capped_at_job_count(self, pools):
        # The jobs are the (first, last) pairs f < l with f + l <= n + 1.
        r = count_table(PARALLEL_MIN_N, "all")[-1]
        assert pools == [PARALLEL_MIN_N ** 2 // 4]
        assert (r.p_n, r.q_n, r.a_n) == ROWS[PARALLEL_MIN_N]

    def test_table_starts_one_pool(self, pools):
        reports = count_table(10, "no-growth")
        assert pools == [10 ** 2 // 4]
        assert [(r.n, r.a_n) for r in reports[-3:]] == [(8, 5242), (9, 47622), (10, 479306)]

    def test_one_thread_starts_no_pool(self, pools, monkeypatch):
        monkeypatch.setenv("PERCOPERM_THREADS", "1")
        r = count_table(PARALLEL_MIN_N, "all")[-1]
        assert pools == []
        assert (r.p_n, r.q_n, r.a_n) == ROWS[PARALLEL_MIN_N]

    def test_unknown_family_starts_no_pool(self, pools):
        with pytest.raises(ValueError):
            count_table(PARALLEL_MIN_N, "bogus")
        assert pools == []

    @pytest.mark.parametrize(
        "n, threads", [(9, "abc"), (3, "abc"), (0, "64"), (MAX_N + 1, "64"), (PARALLEL_MIN_N, "abc")]
    )
    def test_bad_input_starts_no_pool(self, pools, monkeypatch, n, threads):
        monkeypatch.setenv("PERCOPERM_THREADS", threads)
        with pytest.raises(ValueError):
            count_table(n, "all")
        assert pools == []

    def test_no_pool_below_parallel_min_n(self, pools):
        r = count_table(PARALLEL_MIN_N - 1, "all")[-1]
        assert pools == []
        assert (r.p_n, r.q_n, r.a_n) == ROWS[PARALLEL_MIN_N - 1]


def test_recursion_for_full_counts():
    # p_{n+2} = q_{n+2} + sum_{k=1}^{n+1} q_k p_{n+2-k}, all brute-forced
    p = {k: count_full(k) for k in range(1, 10)}
    q = {k: count_full_indecomposable(k) for k in range(1, 10)}
    for n in range(1, 8):
        rhs = q[n + 2] + sum(q[k] * p[n + 2 - k] for k in range(1, n + 2))
        assert p[n + 2] == rhs


def _rows(n):
    return {name: (start, failure) for name, start, failure in verify(n)}


class TestFactorialIdentity:
    def test_n4(self):
        assert _rows(4)["factorial-identity"] == (1, None)

    def test_n1(self):
        assert _rows(1)["factorial-identity"] == (1, None)

    def test_n5(self):
        assert _rows(5)["factorial-identity"] == (1, None)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            verify(0)
        with pytest.raises(ValueError):
            verify(MAX_N + 1)

    def test_wrong_identity_is_named_at_n1(self, monkeypatch):
        real = counting._factorial_identity

        def wrong(n, p, a):
            lhs, rhs = real(n, p, a)
            return lhs, rhs + 1

        monkeypatch.setattr(counting, "_factorial_identity", wrong)
        assert _rows(3)["factorial-identity"] == (1, (1, "n!=1 sum=2"))


class TestVerify:
    def test_n1_lists_four_checks(self):
        assert verify(1) == [
            ("factorial-identity", 1, None),
            ("half-lemma", 2, None),
            ("schroeder-agreement", 1, None),
            ("kings-four-way", 1, None),
        ]

    @pytest.mark.parametrize("field, failing", [
        ("p_n", {"factorial-identity", "half-lemma", "schroeder-agreement"}),
        ("q_n", {"half-lemma", "schroeder-agreement"}),
        ("a_n", {"factorial-identity", "kings-four-way"}),
    ])
    def test_count_one_too_large_is_named_at_its_size(self, monkeypatch, field, failing):
        real_table = counting.count_table

        def wrong_table(n, which):
            reports = real_table(n, which)
            reports[4] = reports[4]._replace(**{field: getattr(reports[4], field) + 1})
            return reports

        monkeypatch.setattr(counting, "count_table", wrong_table)
        for name, (_, failure) in _rows(7).items():
            if name in failing:
                assert failure[0] == 5 and failure[1], name
            else:
                assert failure is None, name


class TestCountReport:
    def test_csv_row(self):
        r = CountReport(4, 22, 11, 2, 3.14)
        assert CountReport.CSV_HEADER == "n,p_n,q_n,a_n,elapsed_ms"
        assert r.to_csv_row() == "4,22,11,2,3.1"

    def test_json(self):
        r = CountReport(4, 22, 11, 2, 3.14)
        assert r.to_json_obj() == {
            "n": 4, "p_n": 22, "q_n": 11, "a_n": 2, "elapsed_ms": 3.1,
        }

    def test_is_immutable(self):
        r = CountReport(4, 22)
        assert (r.q_n, r.a_n, r.elapsed_ms) == (None, None, 0.0)
        with pytest.raises(AttributeError):
            r.elapsed_ms = 1.0
        assert r._replace(a_n=2) == CountReport(4, 22, None, 2)

    def test_count_report_families(self):
        r = count_report(4, "full")
        assert (r.p_n, r.q_n, r.a_n) == (22, None, None)
        r = count_report(4, "all")
        assert (r.p_n, r.q_n, r.a_n) == (22, 11, 2)
        with pytest.raises(ValueError):
            count_report(4, "bogus")

    def test_rejects_out_of_range(self):
        for n in (0, MAX_N + 1):
            with pytest.raises(ValueError):
                count_report(n)
            with pytest.raises(ValueError):
                count_table(n)
