"""Exact sequences and formal power series.

Schroeder recurrences, integer compositions, truncated power-series
composition over exact integers, and the two closed-form counts for
non-attacking kings placements (equivalently, no-growth permutation
matrices).
"""
from __future__ import annotations

import itertools
import math
import threading
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "Series",
    "compositions",
    "binomial",
    "schroeder_large",
    "schroeder_little",
    "taylor_g",
    "series_compose",
    "series_compose_horner",
    "series_identity",
    "series_epsilon",
    "series_B",
    "series_g",
    "a_via_series",
    "a_formula",
    "a_formula_terms",
    "a_abramson_moser",
]


class Series(NamedTuple):
    """A formal power series truncated at order N; s[k] is coeffs[k], the t^k coefficient.

    Immutable.  ``s[k]`` indexes the coefficients, not the record's one field.
    """

    coeffs: tuple

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int):
        return self.coeffs[k]


def compositions(n: int, m: int) -> Iterator[tuple[int, ...]]:
    """All compositions of n into exactly m positive parts, lexicographically.

    >>> list(compositions(5, 2))
    [(1, 4), (2, 3), (3, 2), (4, 1)]
    """
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    # Place m-1 cut points among the n-1 gaps.
    for cuts in itertools.combinations(range(1, n), m - 1):
        bounds = (0,) + cuts + (n,)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(m))


def binomial(a: int, b: int) -> int:
    """C(a, b), zero when b < 0 or b > a."""
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


# S_0, S_1, ... as far as any call has needed them; the lock keeps two
# threads from appending the same term twice.
_SCHROEDER = [1]
_SCHROEDER_LOCK = threading.Lock()


def schroeder_large(k: int) -> int:
    """The k-th large Schroeder number S_k (S_0 = 1, S_1 = 2, ...).

    Computed by the recurrence c_{n+1} = c_n + sum_{j<=n} c_j c_{n-j},
    which extends one table in a loop, so no call recurses.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    table = _SCHROEDER
    with _SCHROEDER_LOCK:
        for n in range(len(table) - 1, k):
            table.append(table[n] + sum(table[j] * table[n - j] for j in range(n + 1)))
    return table[k]


def schroeder_little(k: int) -> int:
    """The k-th little Schroeder number: s_0 = 1 and s_k = S_k / 2 for k >= 1."""
    if k == 0:
        return 1
    big = schroeder_large(k)
    assert big % 2 == 0
    return big // 2


def taylor_g(i: int) -> int:
    """Taylor coefficient of g(t) = t(1 - t)/(1 + t) at order i."""
    if i < 0:
        raise ValueError("i must be >= 0")
    if i == 0:
        return 0
    if i == 1:
        return 1
    return 2 if i % 2 else -2


def _inner_weight_table(b: Sequence, n: int) -> list[list]:
    """f[k][s] = sum over compositions of s into k parts of prod b_part.

    Memoized evaluation of the composition sums in the coefficient
    formula for a composite series; explicit enumeration gives the same
    values but is exponential in n.
    """
    f = [[0] * (n + 1) for _ in range(n + 1)]
    f[0][0] = 1
    for k in range(1, n + 1):
        row, prev = f[k], f[k - 1]
        for s in range(k, n + 1):
            row[s] = sum(b[i] * prev[s - i] for i in range(1, s - k + 2))
    return f


def series_compose(a: Series, b: Series) -> Series:
    """Composition a(b(t)) truncated at the common order.

    Coefficient n is sum_{m=1}^{n} a_m * sum over compositions of n into
    m parts of the product of b over the parts; coefficient 0 is a_0.
    Requires b to have zero constant term.
    """
    if b.coeffs[0] != 0:
        raise ValueError("inner series must have zero constant term")
    n = min(a.order, b.order)
    f = _inner_weight_table(b.coeffs, n)
    out = [a.coeffs[0]]
    for k in range(1, n + 1):
        out.append(sum(a.coeffs[m] * f[m][k] for m in range(1, k + 1)))
    return Series(tuple(out))


def series_compose_horner(a: Series, b: Series) -> Series:
    """Independent re-implementation of series_compose via Horner evaluation."""
    if b.coeffs[0] != 0:
        raise ValueError("inner series must have zero constant term")
    n = min(a.order, b.order)

    def mul(u: list, v: Sequence) -> list:
        out = [0] * (n + 1)
        for i, ui in enumerate(u):
            if ui == 0:
                continue
            for j in range(min(len(v), n + 1 - i)):
                out[i + j] += ui * v[j]
        return out

    result = [a.coeffs[n]] + [0] * n
    for k in range(n - 1, -1, -1):
        result = mul(result, b.coeffs[: n + 1])
        result[0] += a.coeffs[k]
    return Series(tuple(result))


def series_identity(n: int) -> Series:
    """The identity series t, truncated at order n."""
    return Series(tuple(1 if k == 1 else 0 for k in range(n + 1)))


def series_epsilon(n: int) -> Series:
    """Generating series of the factorials: coefficient k is k!."""
    return Series(tuple(math.factorial(k) for k in range(n + 1)))


def series_B(n: int) -> Series:
    """Generating series of the full-permutation counts: coefficient k is S_{k-1}."""
    if n < 0:
        raise ValueError("order must be >= 0")
    return Series((0,) + tuple(schroeder_large(k - 1) for k in range(1, n + 1)))


def series_g(n: int) -> Series:
    """Truncation of g(t) = t(1 - t)/(1 + t)."""
    if n < 0:
        raise ValueError("order must be >= 0")
    return Series(tuple(taylor_g(k) for k in range(n + 1)))


def a_via_series(n: int) -> Series:
    """Kings-count series: composition of the factorial series with g."""
    return series_compose(series_epsilon(n), series_g(n))


def _kings_terms(n: int) -> Iterator[tuple[int, int, int]]:
    """(m, 2^m * inner, term) for m = 1..n, the terms of the explicit kings formula.

    inner = sum over compositions of n into m parts of 2^(-#parts equal to
    1).  Grouped by the number j of parts equal to 1 (choose their
    positions, then compose the remaining n - j into m - j parts >= 2, in
    C(n - m - 1, m - j - 1) ways, or 1 way when j = m = n), 2^m * inner =
    sum_j C(m, j) * count_j * 2^(m - j), an integer.  So is the term
    (-1)^n * m! * (-2)^m * inner = (-1)^(n + m) * m! * 2^m * inner.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    factorial = 1
    for m in range(1, n + 1):
        factorial *= m
        scaled = sum(math.comb(m, j) * math.comb(n - m - 1, m - j - 1) << (m - j)
                     for j in range(max(0, 2 * m - n), m))
        if m == n:
            scaled += 1
        yield m, scaled, (-1) ** (n + m) * factorial * scaled


def a_formula_terms(n: int) -> list[tuple[Fraction, int]]:
    """Per-m breakdown of the explicit kings formula.

    Returns, for m = 1..n, the inner sum over compositions of n into m
    parts of 2^(-pi_1) together with the signed term
    (-1)^n * m! * (-2)^m * inner; the terms sum to the kings count.
    """
    # Imported here, its one use: fractions loads decimal, which no command needs.
    from fractions import Fraction

    return [(Fraction(scaled, 2**m), term) for m, scaled, term in _kings_terms(n)]


def a_formula(n: int) -> int:
    """Number of non-attacking kings placements (one per row and column).

    Explicit alternating formula over compositions:
    a_n = (-1)^n sum_{m=1}^{n} m! (-2)^m sum_{C(n,m)} 2^(-pi_1).
    """
    return sum(term for _, _, term in _kings_terms(n))


def a_abramson_moser(n: int) -> int:
    """The Abramson-Moser closed form for the same kings count."""
    if n < 1:
        raise ValueError("n must be >= 1")
    total = 0
    for k in range(n + 1):
        inner = sum(
            binomial(n - k, i) * binomial(n - i - 1, k - i) for i in range(k + 1)
        )
        total += math.factorial(n - k) * (-1) ** k * inner
    return total
