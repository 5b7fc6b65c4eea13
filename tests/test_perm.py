import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from percoperm.perm import (
    check_permutation,
    comps,
    format_permutation,
    is_indecomposable,
    parse_permutation,
    reduced,
    reverse,
)

words = st.lists(st.integers(1, 50), min_size=1, max_size=10, unique=True).map(tuple)
perms = st.integers(1, 8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)


class TestParse:
    def test_digit_string(self):
        assert parse_permutation("213") == (2, 1, 3)

    def test_separated(self):
        assert parse_permutation("3 1 2 6 4 5 7 9 8") == (3, 1, 2, 6, 4, 5, 7, 9, 8)

    def test_digit_string_and_separated_agree(self):
        assert parse_permutation("213") == parse_permutation("2 1 3")
        assert parse_permutation("2,1,3") == parse_permutation("2 1 3")

    def test_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_permutation("2 2 1")

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_permutation("1 2 4")

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            parse_permutation("   ")

    @pytest.mark.parametrize("values", [(True,), [2, True], [1.0], ["1"]])
    def test_rejects_non_integers(self, values):
        with pytest.raises(ValueError, match="not an integer"):
            check_permutation(values)

    def test_long_digit_string_rejected(self):
        with pytest.raises(ValueError, match="separators"):
            parse_permutation("12345678910")

    def test_format_roundtrip(self):
        p = (3, 1, 2, 6, 4, 5, 7, 9, 8)
        assert parse_permutation(format_permutation(p)) == p


class TestReduced:
    def test_paper_example(self):
        assert reduced((2, 7, 5, 4)) == (1, 4, 3, 2)

    def test_already_reduced(self):
        assert reduced((1, 2, 3)) == (1, 2, 3)

    def test_68745(self):
        assert reduced((6, 8, 7, 4, 5)) == (3, 5, 4, 1, 2)

    @given(words)
    def test_idempotent(self, w):
        assert reduced(reduced(w)) == reduced(w)


class TestReverse:
    def test_examples(self):
        assert reverse((3, 1, 2, 5, 4)) == (4, 5, 2, 1, 3)
        assert reverse((1,)) == (1,)
        assert reverse((1, 3, 2, 4)) == (4, 2, 3, 1)

    @given(perms)
    def test_involution(self, p):
        assert reverse(reverse(p)) == p


class TestIndecomposable:
    def test_examples(self):
        assert is_indecomposable((4, 1, 6, 7, 5, 2, 3))
        assert not is_indecomposable((4, 1, 3, 2, 6, 7, 5))
        assert not is_indecomposable((2, 7, 5, 4))

    def test_single(self):
        assert is_indecomposable((1,))

    @given(words)
    def test_matches_reduced_definition(self, w):
        assert is_indecomposable(w) == (len(comps(reduced(w))) == 1)

    def test_matches_comps_exhaustive(self):
        for n in range(1, 8):
            for p in itertools.permutations(range(1, n + 1)):
                assert is_indecomposable(p) == (len(comps(p)) == 1)


class TestComps:
    def test_examples(self):
        assert comps((2, 4, 1, 3, 5, 8, 6, 7)) == [(2, 4, 1, 3), (5,), (8, 6, 7)]
        assert comps((3, 1, 2, 6, 4, 5, 7, 9, 8)) == [(3, 1, 2), (6, 4, 5), (7,), (9, 8)]

    def test_indecomposable_is_single_factor(self):
        assert comps((2, 4, 1, 3)) == [(2, 4, 1, 3)]


def brute_longest_indecomposable_suffix(p):
    for start in range(len(p)):
        if is_indecomposable(p[start:]):
            return p[start:]
    raise AssertionError


@pytest.mark.parametrize("n", range(1, 9))
def test_comps_structure_exhaustive(n):
    for p in itertools.permutations(range(1, n + 1)):
        factors = comps(p)
        assert sum(factors, ()) == p
        assert all(is_indecomposable(f) for f in factors)
        # factor value ranges are consecutive ascending intervals
        base = 0
        for f in factors:
            assert set(f) == set(range(base + 1, base + len(f) + 1))
            base += len(f)
        assert factors[-1] == brute_longest_indecomposable_suffix(p)
