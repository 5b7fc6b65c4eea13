"""Permutations in one-line notation.

A permutation of size n is represented as a tuple holding each of 1..n
exactly once (1-based values throughout).  A "word" is any tuple of
distinct integers, e.g. a factor such as (8, 6, 7) cut out of a larger
permutation.

The canonical text form is 1-based decimal values separated by single
spaces, e.g. "3 1 2 6 4 5 7 9 8".
"""
from __future__ import annotations

from itertools import accumulate
from operator import eq
from typing import Sequence

Word = tuple[int, ...]

__all__ = [
    "Word",
    "check_permutation",
    "check_word",
    "parse_permutation",
    "format_permutation",
    "reduced",
    "reverse",
    "is_indecomposable",
    "comps",
]


def check_permutation(values: Sequence[int]) -> Word:
    """Validate that ``values`` is a permutation of {1..n} and return it as a tuple."""
    p = tuple(values)
    n = len(p)
    if n == 0:
        raise ValueError("empty permutation")
    # Accept through builtins that loop in C; the loop below only names
    # the first fault (and accepts int subclasses other than bool).
    if set(map(type, p)) == {int} and min(p) == 1 and max(p) == n and len(set(p)) == n:
        return p
    seen = set()
    for v in p:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ValueError(f"value {v!r} is not an integer")
        if not 1 <= v <= n:
            raise ValueError(f"value {v!r} out of range 1..{n}")
        if v in seen:
            raise ValueError(f"duplicate value {v}")
        seen.add(v)
    return p


def check_word(values: Sequence[int]) -> Word:
    """Validate that ``values`` holds distinct integers and return it as a tuple."""
    w = tuple(values)
    if len(w) == 0:
        raise ValueError("empty word")
    if len(set(w)) != len(w):
        raise ValueError("word values must be distinct")
    return w


def parse_permutation(text: str) -> Word:
    """Parse a permutation from text.

    Accepts whitespace- or comma-separated decimal values.  As a
    convenience, a single contiguous digit string ("213") is split into
    single-digit values; this form is only allowed up to nine values,
    since e.g. "98" would be ambiguous for larger sizes.

    >>> parse_permutation("213")
    (2, 1, 3)
    >>> parse_permutation("3 1 2 6 4 5 7 9 8")
    (3, 1, 2, 6, 4, 5, 7, 9, 8)
    """
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ValueError("empty input")
    if len(tokens) == 1 and len(tokens[0]) > 1:
        tok = tokens[0]
        if not tok.isdecimal():  # isdigit also passes '²', which int() rejects
            raise ValueError(f"not a number: {tok!r}")
        if len(tok) > 9:
            raise ValueError(
                "digit-string form is only allowed for up to 9 values; "
                "use spaces or commas as separators"
            )
        return check_permutation(tuple(int(ch) for ch in tok))
    try:
        values = tuple(map(int, tokens))
    except ValueError:  # name the first token int() rejects
        for tok in tokens:
            try:
                int(tok)
            except ValueError:
                raise ValueError(f"not a number: {tok!r}") from None
        raise
    return check_permutation(values)


def format_permutation(p: Sequence[int]) -> str:
    """Canonical text form: space-separated decimal values."""
    return " ".join(str(v) for v in p)


def reduced(w: Sequence[int]) -> Word:
    """Order-isomorphic relabeling of a word onto {1..n}.

    The i-th smallest value becomes i.

    >>> reduced((2, 7, 5, 4))
    (1, 4, 3, 2)
    """
    w = check_word(w)
    rank = {v: i for i, v in enumerate(sorted(w), 1)}
    return tuple(rank[v] for v in w)


def reverse(p: Sequence[int]) -> Word:
    """The reversal a_1..a_n -> a_n..a_1 (an involution)."""
    return tuple(reversed(tuple(p)))


def is_indecomposable(w: Sequence[int]) -> bool:
    """True iff no proper prefix of the reduced form is a permutation of {1..k}.

    >>> is_indecomposable((4, 1, 6, 7, 5, 2, 3))
    True
    >>> is_indecomposable((4, 1, 3, 2, 6, 7, 5))
    False
    """
    w = check_word(w)
    # The prefix of length k reduces to {1..k} iff it holds the k smallest
    # values, i.e. iff its running maximum is the k-th smallest value.
    return not any(map(eq, accumulate(w[:-1], max), sorted(w)))


def comps(p: Sequence[int]) -> list[Word]:
    """Greedy factorization into indecomposable components.

    The factors concatenate back to ``p`` and occupy consecutive ascending
    value ranges {1..s1}, {s1+1..s2}, ...  A prefix is a complete factor
    exactly when the running maximum equals the prefix length, so a single
    left-to-right scan suffices.

    >>> comps((2, 4, 1, 3, 5, 8, 6, 7))
    [(2, 4, 1, 3), (5,), (8, 6, 7)]
    """
    p = check_permutation(p)
    out: list[Word] = []
    start = 0
    peak = 0
    for i, a in enumerate(p, 1):
        if a > peak:
            peak = a
        if peak == i:
            out.append(p[start:i])
            start = i
    return out
