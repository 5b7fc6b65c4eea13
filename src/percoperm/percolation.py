"""Cell-level bootstrap percolation on permutation matrices.

A 0-cell mutates to 1 once at least two of its four orthogonal neighbors
hold a 1; 1s never revert.  Grids are stored top-origin: row 1 is the top
row, matching the usual display of c_{i,j}.  Each row is a bitmask with
bit (col - 1) set when the cell holds a 1.
"""
from __future__ import annotations

import random
from bisect import insort
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple, Sequence

from .perm import Word, check_permutation

Cell = tuple[int, int]  # (row, col), both 1-based, row 1 at the top

# mutation_layers searches every reachable grid state, and their number
# grows exponentially with n: on the identity the search takes 0.02 s at
# n = 5, 0.2 s at n = 6 and 2.7 s at n = 7 (Python 3.11), about 12x per size.
MUTATION_LAYERS_MAX_N = 5

__all__ = [
    "MUTATION_LAYERS_MAX_N",
    "Cell",
    "Grid",
    "PercolationTrace",
    "MutationLayers",
    "Tile",
    "FinalConfiguration",
    "matrix_of",
    "mutable_cells",
    "mutate",
    "percolate",
    "mutation_layers",
    "final_configuration",
    "is_full",
    "render_trace",
    "trace_frames",
]


class Grid(NamedTuple):
    """An n x n 0/1 matrix; immutable."""

    n: int
    rows: tuple[int, ...]

    def ones(self) -> set[Cell]:
        return set(_cells_of_rows(self.rows))


def _render_row(bits: int, n: int) -> str:
    """Row bitmask as 0/1 characters, column 1 first."""
    return format(bits, f"0{n}b")[::-1]


class PercolationTrace(NamedTuple):
    initial: Grid
    steps: tuple[Cell, ...]
    final: Grid


class MutationLayers(NamedTuple):
    """Minimum step counts L(c) and the layer sets U_0..U_{n^2-n}.

    L maps every initially-zero cell to the minimum number of steps any
    mutation sequence needs before that cell can have mutated; cells that
    no sequence ever mutates carry the sentinel n^2.  U[0] holds the
    initial 1-cells and U[i] holds the cells with L(c) = i.
    """

    L: dict[Cell, int]
    U: tuple[frozenset[Cell], ...]


class Tile(NamedTuple):
    row: int  # top-left corner, top-origin
    col: int
    size: int


class FinalConfiguration(NamedTuple):
    tiles: tuple[Tile, ...]
    condensed: Word

    @classmethod
    def from_grid(cls, g: Grid) -> "FinalConfiguration":
        """Configuration of a final grid, read from its row bitmasks.

        Each tile is a block of identical rows whose mask is one run of
        1s exactly as wide as the block is tall; tiles use disjoint
        columns.  Anything else raises AssertionError.

        Tiles are listed left to right.  The condensed permutation
        collapses each tile to one cell: the highest tile (smallest top
        row) gets the largest value, so with m tiles the k-th tile found
        from the top gets m - k + 1.
        """
        rows, n = g.rows, g.n
        tiles: list[Tile] = []
        used = 0
        top = 0
        while top < n:
            mask = rows[top]
            col = (mask & -mask).bit_length()  # leftmost 1, 1-based
            size = mask.bit_length() - col + 1
            if not mask or mask != ((1 << size) - 1) << (col - 1):
                raise AssertionError(f"row {top + 1} run is broken: {_render_row(mask, n)}")
            if mask & used or rows[top:top + size].count(mask) != size:
                raise AssertionError("final tile is not square")
            used |= mask
            tiles.append(Tile(top + 1, col, size))
            top += size
        m = len(tiles)
        order = sorted(range(m), key=lambda k: tiles[k].col)
        return cls(tuple(tiles[k] for k in order), tuple(m - k for k in order))

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(t.size for t in self.tiles)


def matrix_of(p: Sequence[int]) -> Grid:
    """Permutation matrix of p, drawn as its graph.

    The 1 for column j sits at row p(j) counted from the bottom, i.e.
    top-origin row n - p(j) + 1.
    """
    p = check_permutation(p)
    n = len(p)
    rows = [0] * n
    for j, v in enumerate(p, 1):
        rows[n - v] |= 1 << (j - 1)
    return Grid(n, tuple(rows))


def _mutable_rows(g: Grid) -> list[int]:
    """Per-row bitmask of mutable cells (0-cells with >= 2 one-neighbors).

    Of the four neighbour masks, at least two hold a 1 where both
    vertical ones do, both horizontal ones do, or one of each does.
    """
    rows = g.rows
    out = []
    for up, row, down in zip((0, *rows), rows, (*rows[1:], 0)):
        west, east = row << 1, row >> 1
        out.append(((up & down) | (west & east) | ((up | down) & (west | east))) & ~row)
    return out


def _cells_of_rows(masks: Iterable[int]) -> Iterator[Cell]:
    for i, bits in enumerate(masks, 1):
        while bits:
            low = bits & -bits
            yield (i, low.bit_length())
            bits ^= low


def mutable_cells(g: Grid) -> set[Cell]:
    """The set of cells currently eligible to mutate."""
    return set(_cells_of_rows(_mutable_rows(g)))


# A board is first written as digits: "1" for a 1-cell, "0" for a 0-cell inside
# the grid and "2" for padding; these tables read its 1-cells and its 0-cells.
_ONES = bytes.maketrans(b"012", b"\0\1\0")
_ZEROS = bytes.maketrans(b"012", b"\1\0\0")
_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _board_digits(n: int, rows: Sequence[int]) -> bytearray:
    """The padded (n+2) x (n+2) board of ``rows`` as digits; byte r*(n+2) + c is cell (r, c).

    Rows and columns 0 and n+1 are padding.  One format() writes every
    row, MSB (column n) first, from the bottom row up, with two padding
    digits before each: the text is the board backwards.
    """
    w = n + 2
    text = ("2" * (w - 1) + ("22{:0%db}" % n) * n + "2" * (w + 1)).format(*reversed(rows))
    return bytearray(text[::-1], "ascii")


def _rows_of_board(one: bytearray, n: int) -> tuple[int, ...]:
    """Row bitmasks of a board: one int() of all its cells, then a shift per row."""
    w = n + 2
    bits = int(one.translate(_TO_DIGITS)[::-1], 2) >> (w + 1)
    full = (1 << n) - 1
    rows = []
    for _ in range(n):
        rows.append(bits & full)
        bits >>= w
    return tuple(rows)


def mutate(g: Grid, cell: Cell) -> Grid:
    """Return g with ``cell`` flipped to 1; rejects out-of-range and non-mutable cells."""
    n, rows = g.n, list(g.rows)
    row, col = cell
    if not (1 <= row <= n and 1 <= col <= n):
        raise ValueError(f"cell {cell} out of range for n={n}")
    r, c = row - 1, col - 1
    here = rows[r]
    ones = ((here >> (c + 1)) & 1) + (c > 0 and (here >> (c - 1)) & 1)
    ones += (r > 0 and (rows[r - 1] >> c) & 1) + (r + 1 < n and (rows[r + 1] >> c) & 1)
    if (here >> c) & 1 or ones < 2:
        raise ValueError(f"cell {cell} is not mutable")
    rows[r] = here | 1 << c
    return Grid(n, tuple(rows))


def percolate(
    g: Grid,
    policy: str = "first-scan",
    *,
    seed: int = 0,
    script: Sequence[Cell] | None = None,
) -> PercolationTrace:
    """Run percolation to completion and record every step.

    Policies:
      - "first-scan": mutate the first mutable cell in row-major order
        (deterministic; the default).
      - "random": mutate a uniformly chosen mutable cell, driven by ``seed``.
      - "scripted": apply ``script`` verbatim; it must be a valid complete
        sequence (every step mutable when applied, no mutable cell left).

    By order-invariance the final grid does not depend on the policy.

    The run works on a padded (n+2) x (n+2) byte board of ``w = n + 2``
    bytes a row (see ``_board_digits``).  Cell (r, c) has key
    ``r*w + c``, so ``divmod(key, w)`` is the cell itself and keys sort
    in row-major order; its neighbours are key -+ 1 and key -+ w, and the
    padding makes every one of them a valid index.  ``one`` holds the
    1-cells, ``free`` the 0-cells inside the grid that are not yet queued.

    A step makes only the four neighbours of the mutated cell newly
    mutable, and a mutable cell stays mutable until it mutates.  So the
    mutable cells live in one worklist of keys, kept sorted with
    ``insort``: it equals the row-major candidate list of a full rescan,
    "first-scan" takes its head and "random" takes
    ``rng.randrange(len(work))``, the index ``rng.choice`` would draw.
    One sorted list serves both policies; a heap would serve only
    first-scan and measured no faster.  The mutated cell is already one
    1-neighbour of each neighbour m, so m becomes mutable when it is
    free and one of its other three neighbours holds a 1; clearing
    ``free[m]`` as m is queued keeps it from being queued twice.

    A grid that cannot grow, or an empty script, returns at once with no
    board.  A script replays on the same board and raises ValueError at
    its first out-of-range or non-mutable step.
    """
    n, rows = g.n, g.rows
    w = n + 2
    if policy == "scripted":
        if script is None:
            raise ValueError("scripted policy requires a script")
        steps = tuple(script)
        final = g
        if steps:
            one = _board_digits(n, rows).translate(_ONES)
            for cell in steps:
                r, c = cell
                if not (1 <= r <= n and 1 <= c <= n):
                    raise ValueError(f"cell {cell} out of range for n={n}")
                k = r * w + c
                if one[k] or one[k - w] + one[k - 1] + one[k + 1] + one[k + w] < 2:
                    raise ValueError(f"cell {cell} is not mutable")
                one[k] = 1
            final = Grid(n, _rows_of_board(one, n))
        if any(_mutable_rows(final)):
            raise ValueError("scripted sequence is incomplete")
        return PercolationTrace(g, steps, final)

    first = policy == "first-scan"
    if policy == "random":
        randrange = random.Random(seed).randrange
    elif not first:
        raise ValueError(f"unknown policy {policy!r}")

    mutable = _mutable_rows(g)
    if not any(mutable):
        return PercolationTrace(g, (), g)
    digits = _board_digits(n, rows)
    one, free = digits.translate(_ONES), digits.translate(_ZEROS)
    work = [r * w + c for r, c in _cells_of_rows(mutable)]
    for k in work:
        free[k] = 0
    keys: list[int] = []
    record, pop = keys.append, work.pop
    while work:
        k = pop(0 if first else randrange(len(work)))
        one[k] = 1
        record(k)
        m = k - w
        if free[m] and (one[m - w] or one[m - 1] or one[m + 1]):
            free[m] = 0
            insort(work, m)
        m = k - 1
        if free[m] and (one[m - w] or one[m - 1] or one[m + w]):
            free[m] = 0
            insort(work, m)
        m = k + 1
        if free[m] and (one[m - w] or one[m + 1] or one[m + w]):
            free[m] = 0
            insort(work, m)
        m = k + w
        if free[m] and (one[m - 1] or one[m + 1] or one[m + w]):
            free[m] = 0
            insort(work, m)
    steps = tuple(map(divmod, keys, repeat(w)))
    return PercolationTrace(g, steps, Grid(n, _rows_of_board(one, n)))


def _successors(n: int, rows: tuple[int, ...]) -> Iterator[tuple[Cell, tuple[int, ...]]]:
    for cell in _cells_of_rows(_mutable_rows(Grid(n, rows))):
        nxt = list(rows)
        nxt[cell[0] - 1] |= 1 << (cell[1] - 1)
        yield cell, tuple(nxt)


def mutation_layers(g: Grid) -> MutationLayers:
    """Exact L(c) and U_i by breadth-first search over reachable grid states.

    The search is exponential in the worst case and is deliberately gated
    to n <= MUTATION_LAYERS_MAX_N; it exists as a provably correct oracle,
    not a fast method.
    """
    n = g.n
    if n > MUTATION_LAYERS_MAX_N:
        raise ValueError(f"mutation_layers oracle is limited to n <= {MUTATION_LAYERS_MAX_N}")
    sentinel = n * n
    initial_ones = g.ones()
    L: dict[Cell, int] = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if (i, j) not in initial_ones:
                L[(i, j)] = sentinel

    seen = {g.rows}
    frontier = [g.rows]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for rows in frontier:
            for cell, new_rows in _successors(n, rows):
                if L[cell] == sentinel:
                    L[cell] = depth
                if new_rows not in seen:
                    seen.add(new_rows)
                    nxt.append(new_rows)
        frontier = nxt

    layers = [frozenset(initial_ones)]
    for i in range(1, n * n - n + 1):
        layers.append(frozenset(c for c, d in L.items() if d == i))
    return MutationLayers(L, tuple(layers))


def final_configuration(p: Sequence[int]) -> FinalConfiguration:
    """Percolate matrix_of(p) and extract the final square unitary tiles.

    Tiles are reported left to right; the condensed permutation collapses
    each tile to a single cell and is itself no-growth.
    """
    return FinalConfiguration.from_grid(percolate(matrix_of(p)).final)


def is_full(p: Sequence[int]) -> bool:
    """True iff the matrix of p percolates to a single tile of size n."""
    return len(final_configuration(p).tiles) == 1


def trace_frames(trace: PercolationTrace) -> Iterator[str]:
    """The 0/1 grid before the first step and after each step, one frame at a time."""
    n = trace.initial.n
    lines = [_render_row(bits, n) for bits in trace.initial.rows]
    yield "\n".join(lines)
    for row, col in trace.steps:
        line = lines[row - 1]
        lines[row - 1] = line[:col - 1] + "1" + line[col:]
        yield "\n".join(lines)


def render_trace(trace: PercolationTrace) -> str:
    """Frame-by-frame rendering: 0/1 grids separated by blank lines."""
    return "\n\n".join(trace_frames(trace))
