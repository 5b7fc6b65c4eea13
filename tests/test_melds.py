import itertools

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from percoperm.cli import main
from percoperm.melds import (
    Kind,
    Meld,
    components_via_bracketing,
    final_value_intervals,
    merge_eager,
    merge_run,
    parse_meld,
    quick_is_full,
    serialize_meld,
    top_level_kind,
)
from percoperm import percolation
from percoperm.percolation import final_configuration
from percoperm.perm import comps, is_indecomposable, reverse


def restart_scan_merge(p, direction):
    """Reference left/right merging: the literal restart-scan loop.

    Each pass scans the meld list (index 1 upward for "left", from the
    last pair downward for "right"), merges the first mergeable adjacent
    pair found, and restarts the scan; termination is a pass with no
    merge.  Quadratic, so only for cross-checking merge_run.
    """
    melds = [Meld.leaf(v, i) for i, v in enumerate(p, 1)]
    while True:
        pairs = range(len(melds) - 1)
        if direction == "right":
            pairs = reversed(pairs)
        for i in pairs:
            a, b = melds[i], melds[i + 1]
            if a.hi + 1 == b.lo or b.hi + 1 == a.lo:
                melds[i : i + 2] = [Meld.merge(a, b)]
                break
        else:
            return melds


def assert_matches_restart_scan(p, direction):
    expected = restart_scan_merge(p, direction)
    out = merge_run(p, direction)
    assert list(out.melds) == expected
    assert [serialize_meld(m) for m in out.melds] == [serialize_meld(m) for m in expected]
    assert out.full == (len(expected) == 1)


class TestGoldenBracketings:
    def test_left_1324(self):
        out = merge_run((1, 3, 2, 4), "left")
        assert out.full
        assert serialize_meld(out.melds[0]) == "((1 [3 2]) 4)"

    def test_right_1324(self):
        out = merge_run((1, 3, 2, 4), "right")
        assert serialize_meld(out.melds[0]) == "(1 ([3 2] 4))"

    def test_left_4231(self):
        out = merge_run((4, 2, 3, 1), "left")
        assert serialize_meld(out.melds[0]) == "[[4 (2 3)] 1]"

    def test_left_312645798(self):
        out = merge_run((3, 1, 2, 6, 4, 5, 7, 9, 8), "left")
        assert serialize_meld(out.melds[0]) == "((([3 (1 2)] [6 (4 5)]) 7) [9 8])"

    def test_leaf(self):
        out = merge_run((1,), "left")
        assert serialize_meld(out.melds[0]) == "1"

    def test_no_growth_stays_apart(self):
        out = merge_run((2, 4, 1, 3), "left")
        assert not out.full
        assert [serialize_meld(m) for m in out.melds] == ["2", "4", "1", "3"]


class TestEager:
    def test_4231_reproduces_the_ambiguity(self):
        assert serialize_meld(merge_eager((4, 2, 3, 1)).melds[0]) == "[4 [(2 3) 1]]"

    def test_1324(self):
        assert serialize_meld(merge_eager((1, 3, 2, 4)).melds[0]) == "(1 ([3 2] 4))"

    def test_21(self):
        assert serialize_meld(merge_eager((2, 1)).melds[0]) == "[2 1]"
        assert serialize_meld(merge_run((2, 1), "left").melds[0]) == "[2 1]"


def test_merging_builds_no_grid_tiles(monkeypatch):
    def refuse(cls, tiles):
        raise AssertionError("merging must not build a FinalConfiguration")

    monkeypatch.setattr(percolation.FinalConfiguration, "from_tiles", classmethod(refuse))
    p = (6, 4, 5, 3, 9, 10, 2, 1, 8, 7)  # four tiles on the no-growth skeleton 2413
    for direction in ("left", "right"):
        out = merge_run(p, direction)
        assert list(out.melds) == restart_scan_merge(p, direction)
        assert not out.full
    eager = merge_eager(p)
    assert [serialize_meld(m) for m in eager.melds] == ["[6 [(4 5) 3]]", "(9 10)", "[2 1]", "[8 7]"]
    assert not eager.full


class TestParseMeld:
    @pytest.mark.parametrize("text", [
        "((1 [3 2]) 4)",
        "(1 ([3 2] 4))",
        "[[4 (2 3)] 1]",
        "((([3 (1 2)] [6 (4 5)]) 7) [9 8])",
        "7",
    ])
    def test_roundtrip(self, text):
        assert serialize_meld(parse_meld(text)) == text

    def test_rejects_wrong_kind(self):
        with pytest.raises(ValueError):
            parse_meld("(2 1)")  # 2 before 1 forces square brackets

    def test_rejects_non_consecutive(self):
        with pytest.raises(ValueError):
            parse_meld("(1 3)")


class TestTopLevelKind:
    def test_examples(self):
        assert top_level_kind((1, 3, 2, 4)) is Kind.ROUND
        assert top_level_kind((2, 1)) is Kind.SQUARE
        assert top_level_kind((4, 2, 3, 1)) is Kind.SQUARE

    def test_rejects_non_full(self):
        with pytest.raises(ValueError, match="not full"):
            top_level_kind((2, 4, 1, 3))

    def test_rejects_singleton(self):
        with pytest.raises(ValueError, match="n >= 2"):
            top_level_kind((1,))


class TestComponentsViaBracketing:
    def test_example(self):
        assert components_via_bracketing((3, 1, 2, 6, 4, 5, 7, 9, 8)) == [
            (3, 1, 2), (6, 4, 5), (7,), (9, 8),
        ]

    def test_213(self):
        assert components_via_bracketing((2, 1, 3)) == [(2, 1), (3,)]

    def test_indecomposable(self):
        assert components_via_bracketing((4, 2, 3, 1)) == [(4, 2, 3, 1)]

    def test_rejects_non_full(self):
        with pytest.raises(ValueError, match="not full"):
            components_via_bracketing((2, 4, 1, 3))


def right_child_property_holds(meld, parent_of_right=True):
    """Left-merging right-child lemma: a non-leaf right child differs in kind."""
    if meld.is_leaf:
        return True
    ok = True
    if not meld.right.is_leaf:
        ok = meld.right.kind is not meld.kind
    return (
        ok
        and right_child_property_holds(meld.left)
        and right_child_property_holds(meld.right)
    )


def left_child_property_holds(meld):
    if meld.is_leaf:
        return True
    ok = True
    if not meld.left.is_leaf:
        ok = meld.left.kind is not meld.kind
    return (
        ok
        and left_child_property_holds(meld.left)
        and left_child_property_holds(meld.right)
    )


def test_eager_violates_right_child_property():
    eager_root = merge_eager((4, 2, 3, 1)).melds[0]
    assert not right_child_property_holds(eager_root)
    left_root = merge_run((4, 2, 3, 1), "left").melds[0]
    assert right_child_property_holds(left_root)


def mirrored(meld):
    """Swap children at every node and toggle the kind."""
    if meld.is_leaf:
        return (meld.lo,)
    kind = Kind.SQUARE if meld.kind is Kind.ROUND else Kind.ROUND
    return (kind, mirrored(meld.right), mirrored(meld.left))


def shape(meld):
    if meld.is_leaf:
        return (meld.lo,)
    return (meld.kind, shape(meld.left), shape(meld.right))


@pytest.mark.parametrize("n", range(1, 8))
def test_structural_suite(n):
    for p in itertools.permutations(range(1, n + 1)):
        left = merge_run(p, "left")
        right = merge_run(p, "right")
        assert left.full == right.full == quick_is_full(p)
        for m in left.melds + right.melds:
            assert tuple(sorted(m.word())) == tuple(range(m.lo, m.hi + 1))
        assert all(right_child_property_holds(m) for m in left.melds)
        assert all(left_child_property_holds(m) for m in right.melds)
        # each final meld is a final tile of cell-level percolation, in order
        tiles = [(t.row, t.col, t.size) for t in final_configuration(p).tiles]
        for out in (left, right):
            assert [(n - m.hi + 1, m.start, m.hi - m.lo + 1) for m in out.melds] == tiles
        if left.full and n >= 2:
            kind = left.melds[0].kind
            assert (kind is Kind.SQUARE) == is_indecomposable(p)
            assert top_level_kind(reverse(p)) is not kind
            assert components_via_bracketing(p) == comps(p)
            # mirror relation between left merging of reverse(p) and right merging of p
            rev_left = merge_run(reverse(p), "left")
            assert shape(rev_left.melds[0]) == mirrored(right.melds[0])
        assert left.full == all(quick_is_full(f) for f in comps(p))


@pytest.mark.parametrize("n", range(1, 8))
def test_final_intervals_match_merge_run(n):
    for p in itertools.permutations(range(1, n + 1)):
        intervals = final_value_intervals(p)
        assert intervals == [(m.lo, m.hi) for m in merge_run(p, "left").melds]


@pytest.mark.parametrize("n", range(1, 9))
def test_merge_run_matches_restart_scan(n):
    for p in itertools.permutations(range(1, n + 1)):
        assert_matches_restart_scan(p, "left")
        assert_matches_restart_scan(p, "right")


@st.composite
def separable_perms(draw, max_n=200):
    """Full permutations: adjacent blocks joined by direct or skew sums."""
    n = draw(st.integers(1, max_n))
    blocks = [(1,)] * n
    while len(blocks) > 1:
        i = draw(st.integers(0, len(blocks) - 2))
        a, b = blocks[i], blocks[i + 1]
        if draw(st.booleans()):
            joined = a + tuple(v + len(a) for v in b)
        else:
            joined = tuple(v + len(b) for v in a) + b
        blocks[i : i + 2] = [joined]
    return blocks[0]


any_perms = st.integers(1, 200).flatmap(lambda n: st.permutations(range(1, n + 1)).map(tuple))


@settings(deadline=None)  # the oracle is quadratic
@given(st.one_of(any_perms, separable_perms()), st.sampled_from(["left", "right"]))
def test_merge_run_matches_restart_scan_up_to_200(p, direction):
    assert_matches_restart_scan(p, direction)


def reduce_after_dropping(p, i):
    x = p[i]
    return tuple(v - (v > x) for v in p[:i] + p[i + 1:])


def test_full_iff_avoids_2413_and_3142():
    """Separable permutations avoid exactly these two patterns.

    Containment is checked without any merging: for n > 4, p contains a
    pattern of length 4 iff deleting some one value leaves a permutation
    that contains it.
    """
    avoiders = set()
    for n in range(1, 9):
        for p in itertools.permutations(range(1, n + 1)):
            if n < 4:
                avoids = True
            elif n == 4:
                avoids = p not in {(2, 4, 1, 3), (3, 1, 4, 2)}
            else:
                avoids = all(reduce_after_dropping(p, i) in avoiders for i in range(n))
            if avoids:
                avoiders.add(p)
            assert quick_is_full(p) == avoids, p


DEEP_N = 10**5
DEEP_PERMS = {
    "identity": tuple(range(1, DEEP_N + 1)),
    "reversal": tuple(range(DEEP_N, 0, -1)),
    "odd-up-even-down": tuple(range(1, DEEP_N + 1, 2)) + tuple(range(DEEP_N, 0, -2)),
}


@pytest.mark.parametrize("name", DEEP_PERMS)
def test_deep_trees_need_no_recursion(name):
    p = DEEP_PERMS[name]
    left = merge_run(p, "left").melds
    right = merge_run(p, "right").melds
    assert len(left) == len(right) == 1
    assert right[0].word() == p
    text = serialize_meld(left[0])
    parsed = parse_meld(text)
    assert parsed.word() == p
    assert serialize_meld(parsed) == text
    assert components_via_bracketing(p) == comps(p)


def test_bracket_cli_on_deep_tree():
    p = tuple(range(1500, 0, -1))
    result = CliRunner().invoke(main, ["bracket", " ".join(map(str, p))])
    assert result.exit_code == 0
    assert result.output == serialize_meld(merge_run(p).melds[0]) + "\n"


def test_meld_fields_are_read_only():
    m = Meld.merge(Meld.leaf(1, 1), Meld.leaf(2, 2))
    for field in Meld._fields:
        with pytest.raises(AttributeError):
            setattr(m, field, None)
