"""Cell-level bootstrap percolation on permutation matrices.

A 0-cell mutates to 1 once at least two of its four orthogonal neighbors
hold a 1; 1s never revert.  Grids are stored top-origin: row 1 is the top
row, matching the usual display of c_{i,j}.  Each row is a bitmask with
bit (col - 1) set when the cell holds a 1.
"""
from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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
]


@dataclass(frozen=True)
class Grid:
    """An n x n 0/1 matrix; immutable."""

    n: int
    rows: tuple[int, ...]

    def get(self, row: int, col: int) -> int:
        return (self.rows[row - 1] >> (col - 1)) & 1

    def ones(self) -> set[Cell]:
        return set(_cells_of_rows(self.rows))

    def count_ones(self) -> int:
        return sum(bits.bit_count() for bits in self.rows)


def _render_row(bits: int, n: int) -> str:
    """Row bitmask as 0/1 characters, column 1 first."""
    return format(bits, f"0{n}b")[::-1]


@dataclass(frozen=True)
class PercolationTrace:
    initial: Grid
    steps: tuple[Cell, ...]
    final: Grid


@dataclass(frozen=True)
class MutationLayers:
    """Minimum step counts L(c) and the layer sets U_0..U_{n^2-n}.

    L maps every initially-zero cell to the minimum number of steps any
    mutation sequence needs before that cell can have mutated; cells that
    no sequence ever mutates carry the sentinel n^2.  U[0] holds the
    initial 1-cells and U[i] holds the cells with L(c) = i.
    """

    L: dict[Cell, int]
    U: tuple[frozenset[Cell], ...]


@dataclass(frozen=True)
class Tile:
    row: int  # top-left corner, top-origin
    col: int
    size: int


@dataclass(frozen=True)
class FinalConfiguration:
    tiles: tuple[Tile, ...]
    condensed: Word

    @classmethod
    def from_tiles(cls, tiles: Iterable[Tile]) -> "FinalConfiguration":
        """Configuration of tiles listed left to right.

        The condensed permutation collapses each tile to one cell: the
        highest tile (smallest top row) gets the largest value.
        """
        tiles = tuple(tiles)
        m = len(tiles)
        rank = {row: k for k, row in enumerate(sorted(t.row for t in tiles), 1)}
        return cls(tiles, tuple(m - rank[t.row] + 1 for t in tiles))

    @classmethod
    def from_grid(cls, g: Grid) -> "FinalConfiguration":
        """Configuration of a final grid, read from its row bitmasks.

        Each tile is a block of identical rows whose mask is one run of
        1s exactly as wide as the block is tall; tiles use disjoint
        columns.  Anything else raises AssertionError.
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
        tiles.sort(key=lambda t: t.col)
        return cls.from_tiles(tiles)

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
    """Per-row bitmask of mutable cells (0-cells with >= 2 one-neighbors)."""
    n, rows = g.n, g.rows
    full = (1 << n) - 1
    out = []
    for i, row in enumerate(rows):
        up = rows[i - 1] if i > 0 else 0
        down = rows[i + 1] if i + 1 < n else 0
        west = (row << 1) & full
        east = row >> 1
        at_least_two = (
            (up & down)
            | (up & west)
            | (up & east)
            | (down & west)
            | (down & east)
            | (west & east)
        )
        out.append(at_least_two & ~row & full)
    return out


def _cells_of_rows(masks: Iterable[int]) -> Iterator[Cell]:
    for i, bits in enumerate(masks, 1):
        while bits:
            low = bits & -bits
            yield (i, low.bit_length())
            bits ^= low


def _is_mutable(rows: Sequence[int], n: int, r: int, c: int) -> bool:
    """True iff the 0-cell at 0-based (r, c) has at least two 1-neighbors."""
    row = rows[r]
    if (row >> c) & 1:
        return False
    ones = ((row >> (c + 1)) & 1) + (c > 0 and (row >> (c - 1)) & 1)
    if r > 0:
        ones += (rows[r - 1] >> c) & 1
    if r + 1 < n:
        ones += (rows[r + 1] >> c) & 1
    return ones >= 2


def mutable_cells(g: Grid) -> set[Cell]:
    """The set of cells currently eligible to mutate."""
    return set(_cells_of_rows(_mutable_rows(g)))


def _apply(rows: list[int], n: int, cell: Cell) -> None:
    """Set ``cell`` to 1 in ``rows``; rejects out-of-range and non-mutable cells."""
    row, col = cell
    if not (1 <= row <= n and 1 <= col <= n):
        raise ValueError(f"cell {cell} out of range for n={n}")
    if not _is_mutable(rows, n, row - 1, col - 1):
        raise ValueError(f"cell {cell} is not mutable")
    rows[row - 1] |= 1 << (col - 1)


def mutate(g: Grid, cell: Cell) -> Grid:
    """Return g with ``cell`` flipped to 1; rejects non-mutable cells."""
    rows = list(g.rows)
    _apply(rows, g.n, cell)
    return Grid(g.n, tuple(rows))


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

    A step makes only the four neighbors of the mutated cell newly
    mutable, and a mutable cell stays mutable until it mutates.  So the
    mutable cells live in one worklist of row-major keys ``r*n + c``,
    kept sorted: it equals the row-major candidate list of a full
    rescan, "first-scan" takes its head and "random" takes
    ``rng.randrange(len(work))``, the index ``rng.choice`` would draw.
    """
    n = g.n
    rows = list(g.rows)
    steps: list[Cell] = []
    if policy == "scripted":
        if script is None:
            raise ValueError("scripted policy requires a script")
        for cell in script:
            _apply(rows, n, cell)  # raises on a non-mutable step
            steps.append(cell)
        final = Grid(n, tuple(rows))
        if any(_mutable_rows(final)):
            raise ValueError("scripted sequence is incomplete")
        return PercolationTrace(g, tuple(steps), final)

    if policy == "random":
        rng = random.Random(seed)
    elif policy != "first-scan":
        raise ValueError(f"unknown policy {policy!r}")

    work = [(r - 1) * n + c - 1 for r, c in _cells_of_rows(_mutable_rows(g))]
    while work:
        key = work.pop(0 if policy == "first-scan" else rng.randrange(len(work)))
        r, c = divmod(key, n)
        rows[r] |= 1 << c
        steps.append((r + 1, c + 1))
        for rr, cc in ((r - 1, c), (r, c - 1), (r, c + 1), (r + 1, c)):
            if 0 <= rr < n and 0 <= cc < n and _is_mutable(rows, n, rr, cc):
                k = rr * n + cc
                i = bisect_left(work, k)
                if i == len(work) or work[i] != k:
                    work.insert(i, k)
    return PercolationTrace(g, tuple(steps), Grid(n, tuple(rows)))


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


def render_trace(trace: PercolationTrace) -> str:
    """Frame-by-frame rendering: 0/1 grids separated by blank lines."""
    n = trace.initial.n
    lines = [_render_row(bits, n) for bits in trace.initial.rows]
    frames = ["\n".join(lines)]
    for row, col in trace.steps:
        line = lines[row - 1]
        lines[row - 1] = line[:col - 1] + "1" + line[col:]
        frames.append("\n".join(lines))
    return "\n\n".join(frames)
