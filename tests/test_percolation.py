import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percoperm.percolation import (
    MUTATION_LAYERS_MAX_N,
    FinalConfiguration,
    Grid,
    Tile,
    final_configuration,
    is_full,
    matrix_of,
    mutable_cells,
    mutate,
    mutation_layers,
    percolate,
    render_trace,
)
from percoperm.melds import merge_run
from percoperm.perm import reduced, reverse
from test_melds import separable_perms


def set_closure(p):
    """Independent oracle: saturate the neighbor rule on plain sets of cells."""
    n = len(p)
    ones = {(n - v + 1, j) for j, v in enumerate(p, 1)}
    changed = True
    while changed:
        changed = False
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if (i, j) in ones:
                    continue
                neighbors = [(i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)]
                if sum(c in ones for c in neighbors) >= 2:
                    ones.add((i, j))
                    changed = True
    return ones


def rescan_percolate(g, policy, seed=0):
    """Oracle: recompute every row's mutable mask at each step.

    "first-scan" takes the first row-major candidate, "random" takes
    rng.choice over the row-major candidate list.
    """
    rng = random.Random(seed)
    rows = list(g.rows)
    steps = []
    while True:
        candidates = sorted(mutable_cells(Grid(g.n, tuple(rows))))
        if not candidates:
            return tuple(steps), Grid(g.n, tuple(rows))
        cell = candidates[0] if policy == "first-scan" else rng.choice(candidates)
        rows[cell[0] - 1] |= 1 << (cell[1] - 1)
        steps.append(cell)


def column_tiles(g):
    """Oracle: tiles read column by column from the set of 1-cells.

    The condensed permutation ranks the tiles by top row: the lowest tile
    gets 1 and the highest gets the number of tiles.
    """
    ones = g.ones()
    tiles, col = [], 1
    while col <= g.n:
        run = sorted(i for i, j in ones if j == col)
        size = len(run)
        assert run == list(range(run[0], run[0] + size))
        for c in range(col + 1, col + size):
            assert sorted(i for i, j in ones if j == c) == run
        tiles.append(Tile(run[0], col, size))
        col += size
    tops = sorted((t.row for t in tiles), reverse=True)
    return FinalConfiguration(tuple(tiles), tuple(tops.index(t.row) + 1 for t in tiles))


def cell_render(n, rows):
    return "\n".join("".join(str((bits >> j) & 1) for j in range(n)) for bits in rows)


def rebuild_render(trace):
    """Oracle: re-render every cell of every frame."""
    rows = list(trace.initial.rows)
    frames = [cell_render(trace.initial.n, rows)]
    for row, col in trace.steps:
        rows[row - 1] |= 1 << (col - 1)
        frames.append(cell_render(trace.initial.n, rows))
    return "\n\n".join(frames)


class TestMatrixOf:
    def test_34152(self):
        g = matrix_of((3, 4, 1, 5, 2))
        assert g.ones() == {(1, 4), (2, 2), (3, 1), (4, 5), (5, 3)}

    def test_213(self):
        assert matrix_of((2, 1, 3)).ones() == {(1, 3), (2, 1), (3, 2)}

    def test_2413(self):
        assert matrix_of((2, 4, 1, 3)).ones() == {(1, 2), (2, 4), (3, 1), (4, 3)}


class TestMutableCells:
    def test_no_growth_matrix(self):
        assert mutable_cells(matrix_of((2, 4, 1, 3))) == set()

    def test_213(self):
        assert mutable_cells(matrix_of((2, 1, 3))) == {(2, 2), (3, 1)}

    def test_all_ones(self):
        g = Grid(3, (7, 7, 7))
        assert mutable_cells(g) == set()


class TestMutate:
    def test_single_step(self):
        g = mutate(matrix_of((2, 1, 3)), (2, 2))
        assert g.ones() == {(1, 3), (2, 1), (2, 2), (3, 2)}

    def test_rejects_non_mutable(self):
        with pytest.raises(ValueError, match="not mutable"):
            mutate(matrix_of((2, 1, 3)), (1, 1))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_accepts_exactly_the_mutable_cells(self, n):
        # Every grid reachable from every permutation of size n.
        seen = {matrix_of(p) for p in itertools.permutations(range(1, n + 1))}
        frontier = list(seen)
        while frontier:
            g = frontier.pop()
            mutable = mutable_cells(g)
            for cell in itertools.product(range(1, n + 1), repeat=2):
                if cell in mutable:
                    nxt = mutate(g, cell)
                    assert nxt.ones() == g.ones() | {cell}
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
                else:
                    with pytest.raises(ValueError, match="not mutable"):
                        mutate(g, cell)
            for cell in [(0, 1), (1, 0), (n + 1, 1), (1, n + 1)]:
                with pytest.raises(ValueError, match="out of range"):
                    mutate(g, cell)

    def test_rejects_on_no_growth(self):
        g = matrix_of((2, 4, 1, 3))
        ones = g.ones()
        for i in range(1, 5):
            for j in range(1, 5):
                if (i, j) not in ones:
                    with pytest.raises(ValueError):
                        mutate(g, (i, j))


class TestPercolate:
    def test_213_fills_up(self):
        for policy, kwargs in [("first-scan", {}), ("random", {"seed": 7})]:
            tr = percolate(matrix_of((2, 1, 3)), policy, **kwargs)
            assert len(tr.final.ones()) == 9
            assert len(tr.steps) == 6

    def test_no_growth_is_a_fixpoint(self):
        g = matrix_of((2, 4, 1, 3))
        tr = percolate(g)
        assert tr.steps == ()
        assert tr.final == g

    def test_34152_final_set(self):
        # Frozen from two independent routes: bitset first-scan and set_closure.
        expected = {(1, 4), (2, 1), (2, 2), (3, 1), (3, 2), (4, 5), (5, 3)}
        assert percolate(matrix_of((3, 4, 1, 5, 2))).final.ones() == expected
        assert set_closure((3, 4, 1, 5, 2)) == expected

    def test_scripted_complete(self):
        tr0 = percolate(matrix_of((2, 1, 3)))
        tr = percolate(matrix_of((2, 1, 3)), "scripted", script=tr0.steps)
        assert tr.final == tr0.final

    def test_scripted_invalid_step(self):
        with pytest.raises(ValueError, match="not mutable"):
            percolate(matrix_of((2, 1, 3)), "scripted", script=[(1, 1)])

    def test_scripted_incomplete(self):
        tr0 = percolate(matrix_of((2, 1, 3)))
        with pytest.raises(ValueError, match="incomplete"):
            percolate(matrix_of((2, 1, 3)), "scripted", script=tr0.steps[:2])

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown policy"):
            percolate(matrix_of((2, 1, 3)), "last-scan")

    def test_scripted_requires_a_script(self):
        with pytest.raises(ValueError, match="requires a script"):
            percolate(matrix_of((2, 1, 3)), "scripted")

    def test_scripted_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            percolate(matrix_of((2, 1, 3)), "scripted", script=[(4, 1)])

    def test_identity_300_is_one_tile(self):
        n = 300
        tr = percolate(matrix_of(range(1, n + 1)))
        assert len(tr.steps) == n * n - n
        assert FinalConfiguration.from_grid(tr.final).sizes == (n,)

    def test_replaying_steps_reproduces_final(self):
        tr = percolate(matrix_of((3, 4, 1, 5, 2)))
        g = tr.initial
        for cell in tr.steps:
            g = mutate(g, cell)
        assert g == tr.final


class TestMutationLayers:
    def test_213_layers(self):
        ml = mutation_layers(matrix_of((2, 1, 3)))
        assert ml.U[0] == {(1, 3), (2, 1), (3, 2)}
        assert ml.U[1] == {(2, 2), (3, 1)}
        assert ml.U[2] == {(1, 2), (2, 3)}
        assert ml.U[3] == {(1, 1), (3, 3)}
        assert all(not ml.U[i] for i in range(4, 7))

    def test_no_growth_all_sentinel(self):
        ml = mutation_layers(matrix_of((2, 4, 1, 3)))
        assert all(v == 16 for v in ml.L.values())
        assert all(not u for u in ml.U[1:])

    def test_1324_layers(self):
        # Frozen from the breadth-first state-space search.
        ml = mutation_layers(matrix_of((1, 3, 2, 4)))
        assert ml.U[1] == {(2, 3), (3, 2)}
        assert ml.U[2] == {(1, 3), (2, 4), (3, 1), (4, 2)}
        assert ml.U[3] == {(1, 2), (2, 1), (3, 4), (4, 3)}
        assert ml.U[7] == {(1, 1), (4, 4)}
        assert not ml.U[4] and not ml.U[5] and not ml.U[6]

    def test_rejects_large_n(self):
        n = MUTATION_LAYERS_MAX_N
        assert n == 5
        assert len(mutation_layers(matrix_of(range(1, n + 1))).U) == n * n - n + 1
        with pytest.raises(ValueError, match="n <= 5"):
            mutation_layers(matrix_of(range(1, n + 2)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_layer_soundness_exhaustive(self, n):
        for p in itertools.permutations(range(1, n + 1)):
            ml = mutation_layers(matrix_of(p))
            union = set().union(*ml.U)
            assert union == percolate(matrix_of(p)).final.ones()
            if n > 1:
                assert ml.U[1] <= mutable_cells(matrix_of(p))


class TestFinalConfiguration:
    def test_213(self):
        fc = final_configuration((2, 1, 3))
        assert fc.sizes == (3,)
        assert fc.condensed == (1,)

    def test_2413(self):
        fc = final_configuration((2, 4, 1, 3))
        assert fc.sizes == (1, 1, 1, 1)
        assert fc.condensed == (2, 4, 1, 3)

    def test_34152(self):
        fc = final_configuration((3, 4, 1, 5, 2))
        assert [(t.row, t.col, t.size) for t in fc.tiles] == [
            (2, 1, 2), (5, 3, 1), (1, 4, 1), (4, 5, 1),
        ]
        assert sum(fc.sizes) == 5
        assert mutable_cells(matrix_of(fc.condensed)) == set()

    def test_from_grid_rejects_a_broken_run(self):
        with pytest.raises(AssertionError, match="broken"):
            FinalConfiguration.from_grid(Grid(3, (0b101, 0b101, 0b101)))
        with pytest.raises(AssertionError, match="broken"):
            FinalConfiguration.from_grid(Grid(2, (0b01, 0b00)))

    def test_from_grid_rejects_a_non_square_tile(self):
        for rows in [(0b11, 0b01), (0b01, 0b01), (0b011, 0b011, 0b011)]:
            with pytest.raises(AssertionError, match="not square"):
                FinalConfiguration.from_grid(Grid(len(rows), rows))

    def test_is_full(self):
        assert is_full((2, 1, 3))
        assert is_full((1, 3, 2, 4))
        assert not is_full((2, 4, 1, 3))


def rows_and_cols_have_single_runs(g):
    ones = g.ones()
    for i in range(1, g.n + 1):
        row = sorted(j for r, j in ones if r == i)
        col = sorted(r for r, j in ones if j == i)
        for run in (row, col):
            if not run or run != list(range(run[0], run[-1] + 1)):
                return False
    return True


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_run_structure_exhaustive(n):
    for p in itertools.permutations(range(1, n + 1)):
        tr = percolate(matrix_of(p))
        g = tr.initial
        assert rows_and_cols_have_single_runs(g)
        for cell in tr.steps:
            g = mutate(g, cell)
            assert rows_and_cols_have_single_runs(g)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_run_structure_sampled(n):
    rng = random.Random(n)
    for _ in range(20):
        p = tuple(rng.sample(range(1, n + 1), n))
        tr = percolate(matrix_of(p), "random", seed=rng.randrange(2**32))
        g = tr.initial
        for cell in tr.steps:
            g = mutate(g, cell)
            assert rows_and_cols_have_single_runs(g)


@pytest.mark.parametrize("n", range(1, 8))
def test_final_configuration_shape(n):
    for p in itertools.permutations(range(1, n + 1)):
        fc = final_configuration(p)
        assert sum(fc.sizes) == n
        rows_met, cols_met = set(), set()
        for t in fc.tiles:
            trows = set(range(t.row, t.row + t.size))
            tcols = set(range(t.col, t.col + t.size))
            assert not trows & rows_met and not tcols & cols_met
            rows_met |= trows
            cols_met |= tcols
        assert rows_met == cols_met == set(range(1, n + 1))
        assert mutable_cells(matrix_of(fc.condensed)) == set()
        assert is_full(p) == is_full(reverse(p))


@pytest.mark.parametrize("n", range(1, 8))
def test_worklist_matches_rescan_oracle_exhaustive(n):
    for p in itertools.permutations(range(1, n + 1)):
        g = matrix_of(p)
        for policy, seed in [("first-scan", 0), ("random", 1), ("random", 7)]:
            tr = percolate(g, policy, seed=seed)
            assert (tr.steps, tr.final) == rescan_percolate(g, policy, seed)
        assert final_configuration(p) == column_tiles(tr.final)


@settings(deadline=None, max_examples=30)  # the oracle rescans every row per step
@given(st.one_of(st.integers(8, 60).flatmap(lambda n: st.permutations(range(1, n + 1))),
                 separable_perms(max_n=60)),
       st.integers(0, 2**32 - 1))
def test_worklist_matches_rescan_oracle(p, seed):
    final = oracle_agrees_on(matrix_of(p), seed)
    assert FinalConfiguration.from_grid(final) == final_configuration(p)


def oracle_agrees_on(g, seed):
    """Every policy, and a scripted replay of the random run, equal rescan_percolate.

    Returns the final grid.
    """
    first = percolate(g)
    assert (first.steps, first.final) == rescan_percolate(g, "first-scan")
    tr = percolate(g, "random", seed=seed)
    assert (tr.steps, tr.final) == rescan_percolate(g, "random", seed)
    replay = percolate(g, "scripted", script=tr.steps)
    assert (replay.steps, replay.final) == (tr.steps, tr.final)
    return tr.final


@pytest.mark.parametrize("n", [1, 2, 3])
def test_worklist_matches_rescan_oracle_on_every_grid(n):
    # Every 0/1 grid, not only permutation matrices: rows with no 1, several or all.
    for rows in itertools.product(range(1 << n), repeat=n):
        oracle_agrees_on(Grid(n, rows), seed=sum(rows))


def grid_rows(n):
    """Row masks of every density: random, empty, full and single 1s."""
    return st.lists(st.one_of(st.integers(0, (1 << n) - 1), st.sampled_from([0, (1 << n) - 1]),
                              st.integers(0, n - 1).map(lambda c: 1 << c)),
                    min_size=n, max_size=n)


@settings(deadline=None, max_examples=150)  # the oracle rescans every row per step
@given(st.integers(1, 16).flatmap(lambda n: grid_rows(n).map(lambda rows: Grid(n, tuple(rows)))),
       st.integers(0, 2**32 - 1))
def test_worklist_matches_rescan_oracle_on_any_grid(g, seed):
    oracle_agrees_on(g, seed)


def random_no_growth(m, rng):
    """Uniform no-growth permutation of size m (m = 1 or m >= 4), by rejection."""
    while True:
        sigma = rng.sample(range(1, m + 1), m)
        if all(abs(a - b) != 1 for a, b in zip(sigma, sigma[1:])):
            return tuple(sigma)


def inflate(sigma, blocks):
    """sigma with its i-th point replaced by blocks[i], the blocks' values ranked as sigma."""
    base, offset = 0, {}
    for i in sorted(range(len(sigma)), key=sigma.__getitem__):
        offset[i] = base
        base += len(blocks[i])
    return tuple(offset[i] + v for i, block in enumerate(blocks) for v in block)


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_inflating_a_no_growth_permutation_is_inverted(data):
    """The decomposition p -> (condensed sigma, one full block per tile), run backwards.

    Separable permutations are full, and a no-growth sigma keeps any two
    blocks from merging, so the final tiles and melds are the blocks.
    """
    m = data.draw(st.sampled_from([1, *range(4, 41)]))
    sigma = random_no_growth(m, data.draw(st.randoms(use_true_random=False)))
    blocks = data.draw(st.lists(separable_perms(max_n=8), min_size=m, max_size=m))
    p = inflate(sigma, blocks)
    starts = list(itertools.accumulate((len(b) for b in blocks[:-1]), initial=1))
    for direction in ("left", "right"):
        outcome = merge_run(p, direction)
        assert outcome.full == (m == 1)
        assert [(t.start, t.end) for t in outcome.melds] == [
            (s, s + len(b) - 1) for s, b in zip(starts, blocks)]
        assert [reduced(t.word()) for t in outcome.melds] == blocks
    if len(p) <= 60:  # the cell-level run takes about n^2 steps
        fc = final_configuration(p)
        assert fc.sizes == tuple(map(len, blocks))
        assert [t.col for t in fc.tiles] == starts
        assert fc.condensed == sigma


@pytest.mark.parametrize("n", range(1, 8))
def test_decomposition_round_trip_exhaustive(n):
    for p in itertools.permutations(range(1, n + 1)):
        fc = final_configuration(p)
        blocks = [reduced(p[t.col - 1:t.col - 1 + t.size]) for t in fc.tiles]
        assert inflate(fc.condensed, blocks) == p
        assert all(is_full(b) for b in blocks)


@pytest.mark.parametrize("n", range(1, 6))
def test_render_trace_matches_cell_rendering(n):
    for p in itertools.permutations(range(1, n + 1)):
        for tr in (percolate(matrix_of(p)), percolate(matrix_of(p), "random", seed=n)):
            assert render_trace(tr) == rebuild_render(tr)


def test_render_trace_identity_48_is_fast():
    tr = percolate(matrix_of(range(1, 49)))
    start = time.perf_counter()
    text = render_trace(tr)
    assert time.perf_counter() - start < 1.0
    assert len(text) == (len(tr.steps) + 1) * (48 * 49 + 1) - 2


def test_render_trace_frames():
    tr = percolate(matrix_of((2, 1, 3)))
    frames = render_trace(tr).split("\n\n")
    assert len(frames) == 7
    assert frames[0] == "001\n100\n010"
    assert frames[-1] == "111\n111\n111"
