import enum
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


class Small(enum.IntEnum):
    ONE = 1
    TWO = 2


# (values, exact message).  With several faults, the first one in order is named.
CHECK_PERMUTATION_ERRORS = [
    ((), "empty permutation"),
    ((True,), "value True is not an integer"),
    ((1.0,), "value 1.0 is not an integer"),
    (("1",), "value '1' is not an integer"),
    ((1, 3), "value 3 out of range 1..2"),
    ((0, 1), "value 0 out of range 1..2"),
    ((2, 2), "duplicate value 2"),
    ((1, 1, 9), "duplicate value 1"),
    ((9, 1, 1), "value 9 out of range 1..3"),
    ((2, 2, "x"), "duplicate value 2"),
    (("x", 9, 9), "value 'x' is not an integer"),
    ((3, True, 3), "value True is not an integer"),
    ((1, 2, 1.0), "value 1.0 is not an integer"),
    ((Small.TWO, 5, Small.TWO), "value 5 out of range 1..3"),
]


@pytest.mark.parametrize("values, message", CHECK_PERMUTATION_ERRORS)
def test_check_permutation_names_the_first_fault(values, message):
    with pytest.raises(ValueError) as excinfo:
        check_permutation(values)
    assert str(excinfo.value) == message


def test_check_permutation_accepts_int_subclasses():
    p = check_permutation([Small.TWO, Small.ONE])
    assert p == (2, 1)
    assert [type(v) for v in p] == [Small, Small]


PARSE_PERMUTATION_ERRORS = [
    ("", "empty input"),
    (" , ", "empty input"),
    ("x", "not a number: 'x'"),
    ("1 x 2", "not a number: 'x'"),
    ("1 x y", "not a number: 'x'"),
    ("2 1.0 x", "not a number: '1.0'"),
    ("1 2 x 9", "not a number: 'x'"),
    ("1 2 2 x", "not a number: 'x'"),
    ("21x", "not a number: '21x'"),
    ("1_0", "not a number: '1_0'"),
    ("1\u00b2", "not a number: '1\u00b2'"),
    ("1 2 4", "value 4 out of range 1..3"),
    ("2 2 1", "duplicate value 2"),
    ("0 1", "value 0 out of range 1..2"),
]


@pytest.mark.parametrize("text, message", PARSE_PERMUTATION_ERRORS)
def test_parse_permutation_names_the_first_fault(text, message):
    with pytest.raises(ValueError) as excinfo:
        parse_permutation(text)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("text, expected", [
    ("1 2 3 4 5 6 7 8 9 1_0", tuple(range(1, 11))),
    ("+2 01", (2, 1)),
    ("\u0662 1", (2, 1)),
])
def test_parse_permutation_reads_tokens_as_int_does(text, expected):
    assert parse_permutation(text) == expected


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
