import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import percoperm
from percoperm.cli import SEQUENCE_MAX
from percoperm.series import (
    Series,
    a_abramson_moser,
    a_formula,
    a_formula_terms,
    a_via_series,
    binomial,
    compositions,
    schroeder_large,
    schroeder_little,
    series_B,
    series_compose,
    series_compose_horner,
    series_epsilon,
    series_g,
    series_identity,
    taylor_g,
)


class TestCompositions:
    def test_5_2(self):
        assert list(compositions(5, 2)) == [(1, 4), (2, 3), (3, 2), (4, 1)]

    def test_unique(self):
        assert list(compositions(3, 3)) == [(1, 1, 1)]

    def test_sixteen_compositions_of_five(self):
        total = sum(len(list(compositions(5, m))) for m in range(1, 6))
        assert total == 16

    def test_counts_match_binomial(self):
        for n in range(1, 13):
            for m in range(1, n + 1):
                assert len(list(compositions(n, m))) == binomial(n - 1, m - 1)

    def test_lexicographic(self):
        for n in range(2, 9):
            for m in range(1, n + 1):
                items = list(compositions(n, m))
                assert items == sorted(items)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            list(compositions(3, 0))
        with pytest.raises(ValueError):
            list(compositions(3, 4))


class TestSchroeder:
    def test_large(self):
        assert [schroeder_large(k) for k in range(9)] == [
            1, 2, 6, 22, 90, 394, 1806, 8558, 41586,
        ]

    def test_little(self):
        assert [schroeder_little(k) for k in range(8)] == [
            1, 1, 3, 11, 45, 197, 903, 4279,
        ]

    def test_halving(self):
        for k in range(1, 20):
            assert 2 * schroeder_little(k) == schroeder_large(k)

    def test_three_term_recurrence(self):
        # (n+1) S_n = 3(2n-1) S_{n-1} - (n-2) S_{n-2}, independent of the
        # convolution recurrence that builds the table.
        S = [schroeder_large(k) for k in range(601)]
        for n in range(2, 601):
            assert (n + 1) * S[n] == 3 * (2 * n - 1) * S[n - 1] - (n - 2) * S[n - 2]

    def test_fresh_interpreter_needs_no_recursion(self):
        src = os.path.dirname(os.path.dirname(percoperm.__file__))
        code = ("import sys; from percoperm.series import schroeder_large; "
                "print(sys.getrecursionlimit(), schroeder_large(600))")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": src}, check=True)
        assert result.stdout.split() == ["1000", str(schroeder_large(600))]


class TestTaylorG:
    def test_case_split(self):
        assert taylor_g(0) == 0
        assert taylor_g(1) == 1
        assert taylor_g(2) == -2
        assert taylor_g(3) == 2
        assert taylor_g(4) == -2

    def test_series_g(self):
        assert series_g(4).coeffs == (0, 1, -2, 2, -2)


class TestSeriesB:
    def test_shifted_schroeder(self):
        assert series_B(5).coeffs == (0, 1, 2, 6, 22, 90)

    def test_high_coefficient(self):
        assert series_B(9)[9] == 41586


class TestCompose:
    def test_identity_on_the_right(self):
        a = Series((3, 1, 4, 1, 5))
        assert series_compose(a, series_identity(4)).coeffs == a.coeffs

    def test_identity_on_the_left(self):
        b = series_g(6)
        assert series_compose(series_identity(6), b).coeffs == b.coeffs

    def test_rejects_nonzero_constant_term(self):
        with pytest.raises(ValueError):
            series_compose(series_g(3), Series((1, 1, 1, 1)))
        with pytest.raises(ValueError):
            series_compose_horner(series_g(3), Series((1, 1, 1, 1)))

    def test_kings_series_of_B_gives_factorials(self):
        out = series_compose(a_via_series(9), series_B(9))
        assert out.coeffs == tuple(math.factorial(k) for k in range(10))

    def test_inverse_pair_order_30(self):
        B, g = series_B(30), series_g(30)
        ident = series_identity(30)
        assert series_compose(B, g).coeffs == ident.coeffs
        assert series_compose(g, B).coeffs == ident.coeffs

    def test_horner_matches_on_epsilon_g(self):
        a, b = series_epsilon(20), series_g(20)
        assert series_compose_horner(a, b).coeffs == series_compose(a, b).coeffs

    def test_horner_inverse_pair(self):
        assert (
            series_compose_horner(series_g(20), series_B(20)).coeffs
            == series_identity(20).coeffs
        )

    def test_matches_explicit_enumeration(self):
        # independent oracle: the raw sum over explicitly enumerated compositions
        a, b = series_epsilon(10), series_g(10)
        expected = [a[0]]
        for n in range(1, 11):
            coeff = 0
            for m in range(1, n + 1):
                inner = 0
                for parts in compositions(n, m):
                    prod = 1
                    for s in parts:
                        prod *= b[s]
                    inner += prod
                coeff += a[m] * inner
            expected.append(coeff)
        assert series_compose(a, b).coeffs == tuple(expected)


class TestKingsCounts:
    def test_a_via_series(self):
        assert a_via_series(8).coeffs == (1, 1, 0, 0, 2, 14, 90, 646, 5242)

    def test_worked_example_n5(self):
        terms = a_formula_terms(5)
        assert [inner for inner, _ in terms] == [
            Fraction(1), Fraction(3), Fraction(9, 4), Fraction(1, 2), Fraction(1, 32),
        ]
        assert [t for _, t in terms] == [2, -24, 108, -192, 120]
        assert a_formula(5) == 14

    def test_n1(self):
        assert a_formula(1) == 1
        assert a_abramson_moser(1) == 1

    def test_abramson_moser_small(self):
        assert a_abramson_moser(4) == 2
        assert a_abramson_moser(5) == 14

    def test_inner_sums_match_enumeration(self):
        for n in range(1, 11):
            for m in range(1, n + 1):
                brute = sum(
                    Fraction(1, 2 ** parts.count(1))
                    for parts in compositions(n, m)
                )
                assert a_formula_terms(n)[m - 1][0] == brute

    def test_denominators_are_powers_of_two(self):
        for n in range(1, 16):
            for inner, _ in a_formula_terms(n):
                d = inner.denominator
                assert d & (d - 1) == 0

    def test_three_way_agreement(self):
        kings = a_via_series(SEQUENCE_MAX)
        for n in range(1, SEQUENCE_MAX + 1):
            assert a_formula(n) == a_abramson_moser(n) == kings[n]

    def test_formula_sums_its_terms(self):
        for n in range(1, SEQUENCE_MAX + 1):
            terms = a_formula_terms(n)
            assert a_formula(n) == sum(t for _, t in terms)
            for inner, _ in terms:
                assert isinstance(inner, Fraction)
                d = inner.denominator
                assert d & (d - 1) == 0

    def test_binomial_guard(self):
        assert binomial(3, -1) == 0
        assert binomial(3, 4) == 0
        assert binomial(5, 2) == 10
