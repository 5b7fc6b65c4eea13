"""Brute-force counts over the symmetric group.

Counts of full, full-indecomposable, and no-growth permutations, plus
``verify``, the four checks that cross-validate them.  One depth-first
walk over the symmetry classes of S_n tallies every family asked for.
It fixes the first and last values of an orbit representative and adds
the middle values one at a time, carrying what each family needs of the
prefix (see ``_walk``).  A branch is cut once no family asked for can
still hold it.  Pruning skips only permutations that count in no family
asked for, so the walk stays brute force; its agreement with the
cell-level definitions is property-tested elsewhere.

``count_table``, behind both ``count`` and ``verify``, picks its own
process pool for the sizes from PARALLEL_MIN_N up, over which it spreads
each size's (first, last) pairs; ``count_report`` and the single-family
counts walk serially.

The representatives are one or two permutations per orbit of the group
{id, reverse r, complement c, reverse-complement rc}.  For n >= 2:

- r and c fix no permutation (w_1 = w_n, or every w_i = (n+1)/2), so an
  orbit has 4 elements, or 2 when rc fixes w.
- w with first value f and last value l maps to (l, f) under r,
  (n+1-f, n+1-l) under c and (n+1-l, n+1-f) under rc.  As f != l, just
  two images have first < last, w and rc(w) or r(w) and c(w), and their
  sums f + l add up to 2n + 2.  So each orbit has one image with f < l
  and f + l < n + 1, visited with weight 4, or two images with f < l and
  f + l = n + 1 (one when rc(w) = w), each visited with weight 2.
- The cell rule treats the four sides of the square alike, so fullness
  and no-growth are constant on an orbit.  Indecomposability is kept by
  rc, which maps the direct sum of a and b to that of rc(b) and rc(a),
  but not by r.  As c(w) = rc(r(w)), the orbit of w holds weight/2 *
  (indecomposable(w) + indecomposable(r(w))) indecomposables per visit.
  A direct sum starts below where it ends, so r(w), which starts at l > f
  and ends at f, is indecomposable.  w's indecomposability is read off
  its prefixes: q never assumes the half lemma.
"""
from __future__ import annotations

import math
import os
import time
from typing import NamedTuple

from . import series

# The cost is the n! permutations, walked as about n!/4 orbit representatives
# and pruned to the prefixes that can still be full or no-growth.  Serial
# count_report(n, which) at n = 8, 9, 10, 11 (Python 3.11, one core, minimum
# of 5 runs, of 2 at n = 11): full 0.005, 0.027, 0.14, 0.79 s; indec-full
# 0.005, 0.027, 0.14, 0.81 s; no-growth 0.001, 0.008, 0.08, 0.75 s; all
# 0.006, 0.036, 0.22, 1.6 s, 5-10 times more per size.  From a shell on a
# pool of 2 vCPUs, count 11 takes 1.1-1.9 s and count 12 7.8-8.4 s, or 16-19 s
# while other jobs load the machine.  verify(n) counts through count_table(n,
# "all"), so this gate is its gate too: verify 10 takes 0.3-0.5 s, verify 11
# 1.2-2.3 s (2.0 s with PERCOPERM_THREADS=1) and verify 12 8.2-17 s.
MAX_N = 12
# count_table starts a process pool from this size up: below it a fresh pool
# does not repay importing the pool and starting the workers.  On 2 vCPUs,
# each sample a fresh interpreter timing size n alone, serially against a
# pool of 2 with its import (interleaved, medians of 9): at n = 9 the pool
# loses in every family, full 61 ms against 90, indec-full 60 against 85,
# no-growth 19 against 62 and all 75 against 104; at n = 10 it wins in every
# family, full 291 against 199, indec-full 315 against 220, no-growth 178
# against 157 and all 498 against 311.  From a shell (medians of 9), count 9
# takes 0.25 s serially against 0.29 s with a pool from 9 up, and count 10
# 0.83 s serially against 0.69 s on the pool.
PARALLEL_MIN_N = 10

__all__ = [
    "MAX_N",
    "PARALLEL_MIN_N",
    "CountReport",
    "count_table",
    "count_full",
    "count_full_indecomposable",
    "count_no_growth",
    "verify",
    "max_workers",
]


class CountReport(NamedTuple):
    """One row of counting output; unused families stay None.  Immutable."""

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


# Which of (p, q, a) each family name asks for.
_FAMILIES = {
    "full": (True, False, False),
    "indec-full": (False, True, False),
    "no-growth": (False, False, True),
    "all": (True, True, True),
}


def _pairs(n: int) -> list[tuple[int, int]]:
    """The (first, last) values of the orbit representatives: f < l, f + l <= n + 1."""
    return [(first, last) for first in range(1, n + 1) for last in range(first + 1, n + 2 - first)]


def _walk(n: int, pair: tuple[int, int], want: tuple[bool, bool, bool]) -> tuple[int, int, int]:
    """Weighted (p, q, a) of the orbits whose representatives start and end with ``pair``.

    Families not in ``want`` read 0, except p, which is counted whenever q
    is: q is tested only on full permutations.

    ``extend`` places one value v in place, calling no helper: a call
    costs more than the few steps it would wrap.  The left-merge stack is
    linked from its top entry down, each entry (lo, hi, below, above,
    down) holding the one under it (None at the bottom).  v merges with
    the entries from the top down while the value intervals abut; w is
    full iff the stack ends as one interval.  A child that survives the
    cut gets one new entry, v's merged interval, over the highest entry v
    leaves in place, so no push copies a stack.

    The last free value v is not given a call of its own: it has one
    completion, w = prefix v last, decided in place.  v and then the last
    value are pushed onto the parent's stack without a copy and without
    the cut, which only prunes (the last value takes no part in it anyway,
    as merges happen before it arrives: 1 3 5 4 2 is full), so no count
    changes; p counts when the stack collapses.  w is no-growth iff its
    prefix is and neither new adjacent pair, (prev, v) and (v, last),
    differs by 1.  Likewise ``lean`` counts its last two free values x and
    y in one expression: the completions prev x y last and prev y x last
    share the pair {x, y}, so they add [|x-y| != 1] * ([|x-prev| != 1 and
    |last-y| != 1] + [|y-prev| != 1 and |last-x| != 1]).  Each permutation
    is still decided by its own adjacent differences and its own merges, so
    the walk stays brute force.

    The cut drops a stack with an interval I inside the hull of those
    above it.  It is sound: I only ever merges with the one meld T above
    it, by which time T holds every interval above I, and T's values are
    contiguous and disjoint from I.  On a stack that passes, each I lies
    below or above that hull and keeps its side as the hull grows, so a
    push puts I inside iff v lies beyond I on its side.  Each entry's
    ``below`` and ``above`` bound the open window that passes every
    interval under it: ``below`` is the lo of the nearest one under it
    that lies below (those further down lie lower still), ``above`` the hi
    of the nearest that lies above.  v survives iff it lies in the window
    of the highest entry it leaves in place, itself outside the merged
    interval; the bottom entry's window is 0..n+1.

    For q a prefix carries its max ``peak`` and a flag ``dec``, set once a
    proper prefix j has max j: it holds 1..j, so w is decomposable.  A full
    w adds ``(not dec) + 1``, as r(w) is indecomposable (see the module
    docstring); for the last free value v that is ``dec or max(peak, v) ==
    depth + 1``, the flag of the prefix that ends in v.  A child cut with
    its no-growth flag on goes on in ``lean``, which keeps only the free
    values and the last one placed; ``no-growth`` alone starts there.
    """
    first, last = pair
    want_p, want_q, want_a = want
    p = q = a = 0

    def lean(free, prev):
        nonlocal a
        if len(free) == 2:
            x, y = free
            if abs(x - y) != 1:
                a += ((abs(x - prev) != 1 and abs(last - y) != 1)
                      + (abs(y - prev) != 1 and abs(last - x) != 1))
        elif free:
            for i, v in enumerate(free):
                if abs(v - prev) != 1:
                    lean(free[:i] + free[i + 1 :], v)
        else:
            a += abs(prev - last) != 1

    def extend(depth, free, stack, prev, flat, peak, dec):
        nonlocal p, q, a
        if len(free) == 1:
            v = free[0]
            a += flat and abs(v - prev) != 1 and abs(v - last) != 1
            lo = hi = v
            node = stack
            while node:
                l2, h2, _, _, down = node
                if h2 + 1 == lo:
                    lo = l2
                elif hi + 1 == l2:
                    hi = h2
                else:
                    break
                node = down
            if hi + 1 == last:
                hi = last
            elif last + 1 == lo:
                lo = last
            else:
                return
            while node:
                l2, h2, _, _, node = node
                if h2 + 1 == lo:
                    lo = l2
                elif hi + 1 == l2:
                    hi = h2
                else:
                    return
            p += 1
            q += (not dec and (peak if peak > v else v) != depth + 1) + 1
            return
        d1 = depth + 1
        for i, v in enumerate(free):
            lo = hi = v
            node = stack
            while node:
                l2, h2, below, above, down = node
                if h2 + 1 == lo:
                    lo = l2
                elif hi + 1 == l2:
                    hi = h2
                else:
                    break
                node = down
            if below < v < above:
                pk = peak if peak > v else v
                entry = (lo, hi, l2 if h2 < lo else below, h2 if l2 > hi else above, node)
                extend(d1, free[:i] + free[i + 1 :], entry, v,
                       flat and abs(v - prev) != 1, pk, dec or pk == d1)
            elif flat and abs(v - prev) != 1:
                lean(free[:i] + free[i + 1 :], v)

    rest = tuple(v for v in range(1, n + 1) if v != first and v != last)
    if not rest:  # n = 2: 1 2 is full and decomposable; r(1 2) = 2 1 counts in q
        p = q = int(want_p or want_q)
    elif want_p or want_q:
        extend(1, rest, (first, first, 0, n + 1, None), first, want_a, first, first == 1)
    else:
        lean(rest, first)
    weight = 4 if first + last < n + 1 else 2
    return weight * p, weight // 2 * q if want_q else 0, weight * a


def _tally(n: int, want: tuple[bool, bool, bool], pool=None) -> tuple[int, int, int]:
    """(p, q, a) of S_n as ``_walk`` counts them, summed over the (first, last) pairs.

    ``pool``, an executor, maps the pairs over its workers; without one the
    pairs are walked in turn.
    """
    if n == 1:  # (1,) is its own orbit, has no pair f < l and is in every family
        want_p, want_q, want_a = want
        return int(want_p or want_q), int(want_q), int(want_a)
    pairs = _pairs(n)
    parts = (pool.map if pool else map)(_walk, [n] * len(pairs), pairs, [want] * len(pairs))
    return tuple(sum(column) for column in zip(*parts))


def count_full(n: int) -> int:
    """Number of permutations of {1..n} whose matrix fills up completely."""
    return count_report(n, "full").p_n


def count_full_indecomposable(n: int) -> int:
    """Number of permutations that are both full and indecomposable."""
    return count_report(n, "indec-full").q_n


def count_no_growth(n: int) -> int:
    """Number of permutations whose matrix has no mutable cell at all."""
    return count_report(n, "no-growth").a_n


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
            tilings = series.compositions(n, m)
            rhs += a[m] * sum(math.prod(p[s] for s in parts) for parts in tilings)
    return math.factorial(n), rhs


def _want(which: str) -> tuple[bool, bool, bool]:
    if which not in _FAMILIES:
        raise ValueError(f"unknown family {which!r}")
    return _FAMILIES[which]


def _report(n: int, want: tuple[bool, bool, bool], pool) -> CountReport:
    start = time.perf_counter()
    counts = _tally(n, want, pool)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    return CountReport(n, *(c if wanted else None for c, wanted in zip(counts, want)), elapsed_ms)


def count_report(n: int, which: str = "all") -> CountReport:
    """CountReport for one size, walked serially; ``which`` selects the families computed."""
    _check_n(n)
    return _report(n, _want(which), None)


def count_table(n: int, which: str = "all") -> list[CountReport]:
    """CountReports for the sizes 1..n; ``which`` selects the families computed.

    The inputs and ``max_workers()`` are checked before any work starts.
    When n >= PARALLEL_MIN_N and two or more workers are allowed, the sizes
    PARALLEL_MIN_N..n share one process pool, which never has more workers
    than size n has (first, last) pairs; otherwise every size is walked
    serially.  PERCOPERM_THREADS=1 forces the serial walk.
    """
    _check_n(n)
    want = _want(which)
    workers = min(max_workers(), len(_pairs(n)))
    if workers < 2 or n < PARALLEL_MIN_N:
        return [_report(k, want, None) for k in range(1, n + 1)]
    # Imported here: the process-pool stack (multiprocessing, pickle, socket,
    # subprocess) would otherwise load with every command.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [_report(k, want, pool if k >= PARALLEL_MIN_N else None) for k in range(1, n + 1)]


def verify(n: int) -> list[tuple[str, int, tuple[int, str] | None]]:
    """The paper's four cross-checks over the sizes 1..n: (name, first size, failure).

    ``failure`` is None when every size from the first to n passes (or the
    check starts above n), else ``(k, detail)`` for the first failing size
    k, with both sides of the comparison in ``detail``.  The sizes 1..n are
    counted once, by ``count_table(n, "all")``, whose range check applies.
    """
    p, q, a = {}, {}, {}
    for r in count_table(n, "all"):
        p[r.n], q[r.n], a[r.n] = r.p_n, r.q_n, r.a_n
    kings = series.a_via_series(n)

    def factorial_identity(k):
        lhs, rhs = _factorial_identity(k, p, a)
        return None if lhs == rhs else f"n!={lhs} sum={rhs}"

    def half_lemma(k):
        return None if 2 * q[k] == p[k] else f"2*q={2 * q[k]} p={p[k]}"

    def schroeder_agreement(k):
        large, little = series.schroeder_large(k - 1), series.schroeder_little(k - 1)
        if (p[k], q[k]) == (large, little):
            return None
        return f"p={p[k]} S_{k - 1}={large} q={q[k]} s_{k - 1}={little}"

    def kings_four_way(k):
        values = (a[k], series.a_formula(k), series.a_abramson_moser(k), kings[k])
        if len(set(values)) == 1:
            return None
        return "a={} formula={} abramson-moser={} series={}".format(*values)

    results = []
    for name, start, check in (
        ("factorial-identity", 1, factorial_identity),
        ("half-lemma", 2, half_lemma),
        ("schroeder-agreement", 1, schroeder_agreement),
        ("kings-four-way", 1, kings_four_way),
    ):
        found = ((k, detail) for k in range(start, n + 1) if (detail := check(k)) is not None)
        results.append((name, start, next(found, None)))
    return results
