"""Brute-force counts over the symmetric group.

Counts of full, full-indecomposable, and no-growth permutations, plus the
factorial identity that cross-checks them.  One pass over S_n tallies every
family asked for, with O(n) predicates (interval merging for fullness,
adjacent-value differences for no-growth); their agreement with the
cell-level definitions is property-tested elsewhere.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from operator import sub
from typing import Callable, Sequence

from .melds import quick_is_full
from .perm import is_indecomposable
from .series import compositions

# The cost is the n! permutations walked.  One serial pass over all three
# families takes about 4.5 us a permutation (count_report(10, "all"): 16.5 s,
# Python 3.11 on one core), so the 12! ~ 4.8e8 of n = 12 take about 40 min.
MAX_N = 12
# verify_factorial_identity(10) brute-forces sizes 1..10 in about 18 s
# (same machine); n = 11 would take about 11 times as long.
FACTORIAL_IDENTITY_MAX_N = 10
# Below this size a parallel pass does not repay starting the worker
# processes: count_report(n, "all") with PERCOPERM_THREADS=2 on 2 vCPUs
# (median of 5 runs) takes 27.3-27.5 ms serial against 31.4-34.1 ms
# parallel at n = 7, and 192-196 ms against 132-140 ms at n = 8.
PARALLEL_MIN_N = 8

__all__ = [
    "MAX_N",
    "FACTORIAL_IDENTITY_MAX_N",
    "PARALLEL_MIN_N",
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


def enumerate_permutations(n: int, visitor: Callable[[tuple[int, ...]], None]) -> None:
    """Call ``visitor`` on every permutation of {1..n} once, in lexicographic order."""
    _check_n(n)
    for p in itertools.permutations(range(1, n + 1)):
        visitor(p)


def _is_no_growth(p: Sequence[int]) -> bool:
    # Kings in adjacent columns must sit >= 2 rows apart; diagonal adjacency
    # is the only possible attack between distinct rows and columns.
    return 1 not in map(abs, map(sub, p[1:], p))


# Which of (p, q, a) each family name asks for.
_FAMILIES = {
    "full": (True, False, False),
    "indec-full": (False, True, False),
    "no-growth": (False, False, True),
    "all": (True, True, True),
}


def _walk(n: int, first: int | None, want: tuple[bool, bool, bool]) -> tuple[int, int, int]:
    """(p, q, a) over S_n, or over the permutations starting with ``first``.

    Families not in ``want`` read 0, except p, which is counted whenever q
    is: q is tested only on full permutations.
    """
    if first is None:
        perms = itertools.permutations(range(1, n + 1))
    else:
        rest = [v for v in range(1, n + 1) if v != first]
        perms = ((first,) + tail for tail in itertools.permutations(rest))
    want_p, want_q, want_a = want
    full = quick_is_full
    p = q = a = 0
    for w in perms:
        if want_a and _is_no_growth(w):
            a += 1
        if (want_p or want_q) and full(w):
            p += 1
            if want_q and is_indecomposable(w):
                q += 1
    return p, q, a


def _tally(n: int, want: tuple[bool, bool, bool], parallel: bool = False) -> tuple[int, int, int]:
    """One pass over S_n counting (p, q, a) as ``_walk`` does.

    Parallel mode maps ``_walk`` over the first values in worker processes,
    never more workers than jobs; sizes below ``PARALLEL_MIN_N`` stay serial.
    """
    _check_n(n)
    if not parallel or n < PARALLEL_MIN_N:
        return _walk(n, None, want)
    with ProcessPoolExecutor(max_workers=min(max_workers(), n)) as pool:
        parts = list(pool.map(_walk, [n] * n, range(1, n + 1), [want] * n))
    return tuple(sum(column) for column in zip(*parts))


def count_full(n: int, *, parallel: bool = False) -> int:
    """Number of permutations of {1..n} whose matrix fills up completely."""
    return _tally(n, _FAMILIES["full"], parallel)[0]


def count_full_indecomposable(n: int, *, parallel: bool = False) -> int:
    """Number of permutations that are both full and indecomposable."""
    return _tally(n, _FAMILIES["indec-full"], parallel)[1]


def count_no_growth(n: int, *, parallel: bool = False) -> int:
    """Number of permutations whose matrix has no mutable cell at all."""
    return _tally(n, _FAMILIES["no-growth"], parallel)[2]


def _factorial_identity(n: int, p, a) -> tuple[int, int]:
    """Both sides of the factorial identity from the counts p[k], a[k] for k <= n.

    lhs = n!, apart from the counts; rhs groups permutations by their final
    configuration: sum over m of (no-growth count a_m) times, for every
    composition of n into m tile sizes, the product of full counts of the
    sizes.
    """
    rhs = 0
    for m in range(1, n + 1):
        if a[m]:
            rhs += a[m] * sum(math.prod(p[s] for s in parts) for parts in compositions(n, m))
    return math.factorial(n), rhs


def verify_factorial_identity(n: int) -> tuple[int, int]:
    """Both sides of the composition identity counting all n! permutations.

    The full and no-growth counts of the sizes 1..n are brute-forced, one
    pass per size, and fed to ``_factorial_identity``.
    """
    if not 1 <= n <= FACTORIAL_IDENTITY_MAX_N:
        raise ValueError(f"n must be in 1..{FACTORIAL_IDENTITY_MAX_N}, got {n}")
    p, a = {}, {}
    for k in range(1, n + 1):
        p[k], _, a[k] = _tally(k, (True, False, True))
    return _factorial_identity(n, p, a)


def count_report(n: int, which: str = "all", *, parallel: bool = False) -> CountReport:
    """CountReport for one size; ``which`` selects the families computed."""
    if which not in _FAMILIES:
        raise ValueError(f"unknown family {which!r}")
    start = time.perf_counter()
    want = _FAMILIES[which]
    counts = _tally(n, want, parallel)
    report = CountReport(n, *(c if wanted else None for c, wanted in zip(counts, want)))
    report.elapsed_ms = (time.perf_counter() - start) * 1e3
    return report
