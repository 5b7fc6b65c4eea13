"""Brute-force counts over the symmetric group.

Counts of full, full-indecomposable, and no-growth permutations, plus the
factorial identity that cross-checks them.  The hot loops use O(n)
predicates (interval merging for fullness, adjacent-value differences for
no-growth); their agreement with the cell-level definitions is
property-tested elsewhere.
"""
from __future__ import annotations

import itertools
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

from .melds import quick_is_full
from .series import compositions

MAX_N = 12  # 12! still fits comfortably in machine integers

__all__ = [
    "MAX_N",
    "CountReport",
    "enumerate_permutations",
    "count_full",
    "count_full_indecomposable",
    "count_no_growth",
    "verify_factorial_identity",
    "max_workers",
]


@dataclass
class CountReport:
    """One row of counting output; unused families stay None."""

    n: int
    p_n: int | None = None
    q_n: int | None = None
    a_n: int | None = None
    elapsed_ms: float = 0.0

    CSV_HEADER = "n,p_n,q_n,a_n,elapsed_ms"

    def to_csv_row(self) -> str:
        cells = [self.n, self.p_n, self.q_n, self.a_n]
        text = ",".join("" if c is None else str(c) for c in cells)
        return f"{text},{self.elapsed_ms:.1f}"

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "p_n": self.p_n,
            "q_n": self.q_n,
            "a_n": self.a_n,
            "elapsed_ms": round(self.elapsed_ms, 1),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())


def max_workers() -> int:
    """Worker cap: PERCOPERM_THREADS if set, else the machine parallelism."""
    env = os.environ.get("PERCOPERM_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"PERCOPERM_THREADS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must be in 1..{MAX_N}, got {n}")


def _perms_with_first(n: int, first: int):
    rest = [v for v in range(1, n + 1) if v != first]
    for tail in itertools.permutations(rest):
        yield (first,) + tail


def enumerate_permutations(
    n: int,
    visitor: Callable[[tuple[int, ...]], None],
    *,
    parallel: bool = False,
) -> None:
    """Call ``visitor`` on every permutation of {1..n} exactly once.

    Serial mode visits in lexicographic order.  Parallel mode partitions
    by first value across threads and promises exactly-once visitation
    but no ordering; the visitor must be pure or internally synchronized.
    """
    _check_n(n)
    if not parallel:
        for p in itertools.permutations(range(1, n + 1)):
            visitor(p)
        return
    with ThreadPoolExecutor(max_workers=max_workers()) as pool:
        def visit_chunk(first: int) -> None:
            for p in _perms_with_first(n, first):
                visitor(p)
        list(pool.map(visit_chunk, range(1, n + 1)))


def _is_indecomposable_fast(p: Sequence[int]) -> bool:
    peak = 0
    for i, v in enumerate(p[:-1], 1):
        if v > peak:
            peak = v
        if peak == i:
            return False
    return True


def _is_no_growth(p: Sequence[int]) -> bool:
    # Kings in adjacent columns must sit >= 2 rows apart; diagonal adjacency
    # is the only possible attack between distinct rows and columns.
    return all(abs(p[j + 1] - p[j]) != 1 for j in range(len(p) - 1))


def _pred_full(p) -> bool:
    return quick_is_full(p)


def _pred_full_indec(p) -> bool:
    return _is_indecomposable_fast(p) and quick_is_full(p)


_PREDICATES = {
    "full": _pred_full,
    "full-indec": _pred_full_indec,
    "no-growth": _is_no_growth,
}


def _count_chunk(args: tuple[str, int, int]) -> int:
    name, n, first = args
    pred = _PREDICATES[name]
    return sum(1 for p in _perms_with_first(n, first) if pred(p))


def _count(name: str, n: int, parallel: bool) -> int:
    _check_n(n)
    if not parallel or n <= 6:
        pred = _PREDICATES[name]
        return sum(1 for p in itertools.permutations(range(1, n + 1)) if pred(p))
    jobs = [(name, n, first) for first in range(1, n + 1)]
    with ProcessPoolExecutor(max_workers=max_workers()) as pool:
        return sum(pool.map(_count_chunk, jobs))


def count_full(n: int, *, parallel: bool = False) -> int:
    """Number of permutations of {1..n} whose matrix fills up completely."""
    return _count("full", n, parallel)


def count_full_indecomposable(n: int, *, parallel: bool = False) -> int:
    """Number of permutations that are both full and indecomposable."""
    return _count("full-indec", n, parallel)


def count_no_growth(n: int, *, parallel: bool = False) -> int:
    """Number of permutations whose matrix has no mutable cell at all."""
    return _count("no-growth", n, parallel)


def verify_factorial_identity(n: int) -> tuple[int, int]:
    """Both sides of the composition identity counting all n! permutations.

    lhs = n!; rhs groups permutations by their final configuration:
    sum over m of (no-growth count a_m) times, for every composition of n
    into m tile sizes, the product of full counts of the sizes.  All
    inputs are brute-forced.
    """
    if not 1 <= n <= 10:
        raise ValueError(f"n must be in 1..10, got {n}")
    p = {k: count_full(k) for k in range(1, n + 1)}
    a = {m: count_no_growth(m) for m in range(1, n + 1)}
    rhs = 0
    for m in range(1, n + 1):
        if a[m] == 0:
            continue
        inner = 0
        for parts in compositions(n, m):
            prod = 1
            for s in parts:
                prod *= p[s]
            inner += prod
        rhs += a[m] * inner
    lhs = 1
    for k in range(2, n + 1):
        lhs *= k
    return lhs, rhs


def count_report(n: int, which: str = "all", *, parallel: bool = False) -> CountReport:
    """CountReport for one size; ``which`` selects the families computed."""
    start = time.perf_counter()
    report = CountReport(n)
    if which in ("full", "all"):
        report.p_n = count_full(n, parallel=parallel)
    if which in ("indec-full", "all"):
        report.q_n = count_full_indecomposable(n, parallel=parallel)
    if which in ("no-growth", "all"):
        report.a_n = count_no_growth(n, parallel=parallel)
    if report.p_n is None and report.q_n is None and report.a_n is None:
        raise ValueError(f"unknown family {which!r}")
    report.elapsed_ms = (time.perf_counter() - start) * 1e3
    return report
