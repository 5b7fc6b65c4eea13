import itertools
import re

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from percoperm.cli import main
from percoperm.melds import (
    EAGER_MAX_N,
    Kind,
    Meld,
    bracket_strings,
    components_via_bracketing,
    merge_eager,
    merge_run,
    parse_meld,
    serialize_meld,
    top_level_kind,
)
from percoperm import melds, percolation
from percoperm.percolation import final_configuration
from percoperm.perm import comps, is_indecomposable, reduced, reverse


def field_leaf(value, pos):
    return Meld(lo=value, hi=value, start=pos, end=pos)


def field_merge(a, b):
    """The merge of position-adjacent melds a, b, built field by field.

    The oracles below build their trees with this and ``field_leaf``,
    through the NamedTuple constructor, so they share no constructor
    with the code they check.
    """
    assert a.end + 1 == b.start
    if a.hi + 1 == b.lo:
        return Meld(lo=a.lo, hi=b.hi, start=a.start, end=b.end, kind=Kind.ROUND, left=a, right=b)
    if b.hi + 1 == a.lo:
        return Meld(lo=b.lo, hi=a.hi, start=a.start, end=b.end, kind=Kind.SQUARE, left=a, right=b)
    raise ValueError("meld values do not form a consecutive interval")


def restart_scan_merge(p, direction):
    """Reference left/right merging: the literal restart-scan loop.

    Each pass scans the meld list (index 1 upward for "left", from the
    last pair downward for "right"), merges the first mergeable adjacent
    pair found, and restarts the scan; termination is a pass with no
    merge.  Quadratic, so only for cross-checking merge_run.
    """
    melds = [field_leaf(v, i) for i, v in enumerate(p, 1)]
    while True:
        pairs = range(len(melds) - 1)
        if direction == "right":
            pairs = reversed(pairs)
        for i in pairs:
            a, b = melds[i], melds[i + 1]
            if a.hi + 1 == b.lo or b.hi + 1 == a.lo:
                melds[i : i + 2] = [field_merge(a, b)]
                break
        else:
            return melds


_CLOSER = {"(": ")", "[": "]"}
_KIND_OF_CLOSER = {")": Kind.ROUND, "]": Kind.SQUARE}


def char_walk_parse(text):
    """Reference parser: one left-to-right walk over the characters.

    Each open bracket pushes a frame [closing bracket, left child]; a
    finished meld either becomes the left child of the innermost frame
    (a space must follow) or, as its right child, completes it (its
    closing bracket must follow).  A value is any run of digits, so this
    reads leaves such as "01" and "0" that parse_meld rejects.
    """
    text = text.strip()
    n = len(text)
    i = 0
    pos = 1
    frames = []
    while True:
        while i < n and text[i] in _CLOSER:
            frames.append([_CLOSER[text[i]], None])
            i += 1
        j = i
        while j < n and text[j].isdigit():
            j += 1
        if j == i:
            raise ValueError("expected a value" if i < n else "empty meld text")
        node = field_leaf(int(text[i:j]), pos)
        pos += 1
        i = j
        while frames and frames[-1][1] is not None:
            close, left = frames.pop()
            if text[i : i + 1] != close:
                raise ValueError(f"expected {close!r}")
            i += 1
            node = field_merge(left, node)
            if node.kind is not _KIND_OF_CLOSER[close]:
                raise ValueError("bracket kind does not match the value intervals")
        if not frames:
            break
        if text[i : i + 1] != " ":
            raise ValueError("expected space between siblings")
        frames[-1][1] = node
        i += 1
    if i < n:
        raise ValueError(f"trailing input: {text[i:]!r}")
    return node


# A digit run that starts with 0: a leaf outside parse_meld's grammar.
_ZERO_LEAF = re.compile(r"(?<![0-9])0")


def assert_parses_like_char_walk(text):
    """parse_meld gives the oracle's tree, or raises where the oracle does.

    Where a leaf starts with 0 parse_meld must raise, whatever the oracle does.
    """
    try:
        expected = char_walk_parse(text)
    except ValueError:
        expected = None
    if expected is None or _ZERO_LEAF.search(text):
        with pytest.raises(ValueError):
            parse_meld(text)
    else:
        assert parse_meld(text) == expected, text


def assert_matches_restart_scan(p, direction):
    expected = restart_scan_merge(p, direction)
    out = merge_run(p, direction)
    assert list(out.melds) == expected
    strings = [serialize_meld(m) for m in out.melds]
    assert strings == [serialize_meld(m) for m in expected]
    assert out.full == (len(expected) == 1)
    assert bracket_strings(p, direction) == (strings, out.full)


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


@pytest.mark.parametrize("func", [merge_run, bracket_strings])
def test_rejects_bad_permutation_then_bad_direction(func):
    with pytest.raises(ValueError, match="^duplicate value 1$"):
        func((1, 1), "up")
    with pytest.raises(ValueError, match="^unknown direction 'up'$"):
        func((1,), "up")


class TestEager:
    def test_4231_reproduces_the_ambiguity(self):
        assert serialize_meld(merge_eager((4, 2, 3, 1)).melds[0]) == "[4 [(2 3) 1]]"

    def test_1324(self):
        assert serialize_meld(merge_eager((1, 3, 2, 4)).melds[0]) == "(1 ([3 2] 4))"

    def test_21(self):
        assert serialize_meld(merge_eager((2, 1)).melds[0]) == "[2 1]"
        assert serialize_meld(merge_run((2, 1), "left").melds[0]) == "[2 1]"

    def test_size_gate(self):
        assert merge_eager(range(EAGER_MAX_N, 0, -1)).full
        with pytest.raises(ValueError, match=f"n <= {EAGER_MAX_N}"):
            merge_eager(range(EAGER_MAX_N + 1, 0, -1))


def test_merging_builds_no_grid_tiles(monkeypatch):
    def refuse(*args):
        raise AssertionError("merging must not build a grid Tile")

    monkeypatch.setattr(percolation, "Tile", refuse)
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

    @pytest.mark.parametrize("text", ["(01 2)", "(0 1)", "0", "[2 01]", "(1 \u0662)"])
    def test_rejects_values_serialize_never_prints(self, text):
        with pytest.raises(ValueError):
            parse_meld(text)

    # Longer than the exhaustive test below reaches, or off its alphabet.
    @pytest.mark.parametrize("text", [
        "(1\t2)", "((1 2) 3", "(1 2) 3", "(1 [2 3)]", "(1 2 3)", "((1 2) [4 3]", "(1 2)x",
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_meld(text)
        with pytest.raises(ValueError):
            char_walk_parse(text)

    def test_strips_outer_whitespace(self):
        assert serialize_meld(parse_meld(" \n(1 2)\t")) == "(1 2)"


def test_parse_meld_matches_char_walk_up_to_six_characters():
    for length in range(7):
        for chars in itertools.product("()[] 123", repeat=length):
            assert_parses_like_char_walk("".join(chars))


@st.composite
def edited_bracketings(draw):
    """The serialized left or right merge of a permutation up to n = 200,
    with one character inserted, deleted or replaced."""
    p = draw(st.one_of(any_perms, separable_perms()))
    melds = merge_run(p, draw(st.sampled_from(["left", "right"]))).melds
    text = serialize_meld(draw(st.sampled_from(melds)))
    i = draw(st.integers(0, len(text)))
    char = draw(st.sampled_from("()[] 0123456789"))
    edit = draw(st.sampled_from(["insert", "delete", "replace"]))
    if edit == "insert":
        return text[:i] + char + text[i:]
    if edit == "delete":
        return text[:i] + text[i + 1:]
    return text[:i] + char + text[i + 1:]


@settings(deadline=None)
@given(edited_bracketings())
def test_parse_meld_matches_char_walk_on_edited_strings(text):
    assert_parses_like_char_walk(text)


@pytest.mark.parametrize("direction", ["left", "right"])
def test_parse_inverts_serialize_exhaustive(direction):
    for n in range(1, 8):
        for p in itertools.permutations(range(1, n + 1)):
            m = merge_run(p, direction).melds[0]
            assert parse_meld(serialize_meld(m)) == m


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


# (input, message) in the order the checks run: empty, out of range, duplicate, not full.
BAD_INPUTS = [
    ((), "empty permutation"),
    ((1, 3), "value 3 out of range 1..2"),
    ((5, 1, 1), "value 5 out of range 1..3"),
    ((1, 1, 5), "duplicate value 1"),
    ((2, 4, 1, 3), "permutation is not full"),
]


@pytest.mark.parametrize("func", [top_level_kind, components_via_bracketing])
def test_input_errors_keep_their_messages_and_order(func, monkeypatch):
    cases = BAD_INPUTS
    if func is top_level_kind:  # n = 1 is refused after the range check, before fullness
        cases = cases + [((5,), "value 5 out of range 1..1"),
                         ((1,), "top-level kind requires n >= 2")]
    else:
        assert func([1]) == [(1,)]
    for p, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            func(p)
    checks = []
    check = melds.check_permutation
    monkeypatch.setattr(melds, "check_permutation", lambda p: checks.append(p) or check(p))
    func([2, 1, 3])
    assert len(checks) == 1  # validated once, by merge_run


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
        assert left.full == right.full
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
        assert left.full == all(merge_run(reduced(f)).full for f in comps(p))


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
            assert merge_run(p).full == avoids, p


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
    assert bracket_strings(p, "left") == ([text], True)
    assert bracket_strings(p, "right") == ([serialize_meld(right[0])], True)
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
