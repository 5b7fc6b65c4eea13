"""Tile merging as bracketing of the permutation string.

A meld is a binary tree over a consecutive run of positions whose leaf
values form a consecutive integer interval.  Two adjacent melds merge
when their value intervals abut: the merged node is Round "( , )" when
the left meld's values precede the right's, Square "[ , ]" when they
follow.  Running merges to exhaustion reproduces the final configuration
of cell-level percolation, one macro step per merge.
"""
from __future__ import annotations

import enum
import re
from typing import Iterator, NamedTuple, Sequence

from .perm import Word, check_permutation

# merge_eager restarts its scan after every pass, and a pass can merge as few
# as one pair: the spiral 1 n 2 n-1 3 ..., the slowest input known, takes
# 0.5 s at n = 2,000 and 0.8-1.3 s at n = 2,500 (Python 3.11, one core),
# growing as n^2.  Odd values up then even values down take about half as
# long: 0.24 s at n = 2,000 and 1.1-1.5 s at n = 4,000.
EAGER_MAX_N = 2_500

__all__ = [
    "EAGER_MAX_N",
    "Kind",
    "Meld",
    "MergeOutcome",
    "merge_run",
    "merge_eager",
    "serialize_meld",
    "parse_meld",
    "top_level_kind",
    "components_via_bracketing",
]


class Kind(enum.Enum):
    ROUND = "round"
    SQUARE = "square"


_ROUND, _SQUARE = Kind.ROUND, Kind.SQUARE
_new = tuple.__new__


class Meld(NamedTuple):
    """Leaf (value at a position) or a Round/Square merge of two melds.

    ``lo..hi`` is the value interval, ``start..end`` the 1-based position
    span; both are contiguous by construction.  A meld is immutable.
    Trees can be as deep as the permutation is long, so nothing here
    walks them recursively.

    A tree has one node per leaf and one per merge, so the hot loops
    (``merge_run``, ``parse_meld``, ``serialize_meld``) build nodes with
    ``tuple.__new__(Meld, fields)`` and read fields by index: the
    NamedTuple constructor is a Python-level ``__new__`` and costs a
    Python call per node.  Field order is ``_fields``.

    Equality, hashing and ``repr`` are tuple's, which recurse in C:
    comparing two distinct trees of n = 10^5 values raises RecursionError.
    Nothing in the package compares trees; compare ``serialize_meld``
    strings or ``word()`` instead.
    """

    lo: int
    hi: int
    start: int
    end: int
    kind: Kind | None = None
    left: "Meld | None" = None
    right: "Meld | None" = None

    @classmethod
    def leaf(cls, value: int, pos: int) -> "Meld":
        return _new(cls, (value, value, pos, pos, None, None, None))

    @classmethod
    def merge(cls, left: "Meld", right: "Meld") -> "Meld":
        if left.end + 1 != right.start:
            raise ValueError("melds are not position-adjacent")
        if left.hi + 1 == right.lo:
            return _new(cls, (left.lo, right.hi, left.start, right.end, _ROUND, left, right))
        if right.hi + 1 == left.lo:
            return _new(cls, (right.lo, left.hi, left.start, right.end, _SQUARE, left, right))
        raise ValueError("meld values do not form a consecutive interval")

    @property
    def is_leaf(self) -> bool:
        return self.kind is None

    def leaves(self) -> Iterator[int]:
        """Leaf values in position order."""
        todo = [self]
        while todo:
            m = todo.pop()
            if m.kind is None:
                yield m.lo
            else:
                todo.append(m.right)
                todo.append(m.left)

    def word(self) -> Word:
        return tuple(self.leaves())


class MergeOutcome(NamedTuple):
    """Final melds, left to right; each one's ``lo..hi`` and ``start..end`` are its tile."""

    melds: tuple[Meld, ...]
    full: bool


def _mergeable(a: Meld, b: Meld) -> bool:
    return a.hi + 1 == b.lo or b.hi + 1 == a.lo


def merge_run(p: Sequence[int], direction: str = "left") -> MergeOutcome:
    """Run the left- or right-merging algorithm to exhaustion.

    Left merging always merges the leftmost mergeable adjacent pair,
    right merging the rightmost.  Both are one O(n) pass over a stack of
    melds, from the left or the right end: push each leaf and merge it
    with the top while their value intervals abut.  Adjacent melds below
    the top are never mergeable, so each merge is the one a scan from
    that end would find first.

    The loop runs once per node, so it keeps the new meld's interval in
    locals, reads the top's fields by index and builds nodes with
    ``tuple.__new__`` (see ``Meld``).  Which side abuts gives the kind.
    """
    p = check_permutation(p)
    if direction not in ("left", "right"):
        raise ValueError(f"unknown direction {direction!r}")
    left = direction == "left"
    # From the right end the new meld is the left child, and the stack
    # holds the melds right to left.  The kind when the top's values lie
    # below the new meld's, and when they lie above:
    below, above = (_ROUND, _SQUARE) if left else (_SQUARE, _ROUND)
    positions = range(1, len(p) + 1) if left else range(len(p), 0, -1)
    stack: list[Meld] = []
    for pos, value in zip(positions, p if left else reversed(p)):
        node = _new(Meld, (value, value, pos, pos, None, None, None))
        lo = hi = value
        while stack:
            top = stack[-1]
            if top[1] + 1 == lo:
                lo, kind = top[0], below
            elif hi + 1 == top[0]:
                hi, kind = top[1], above
            else:
                break
            stack.pop()
            if left:
                node = _new(Meld, (lo, hi, top[2], pos, kind, top, node))
            else:
                node = _new(Meld, (lo, hi, pos, top[3], kind, node, top))
        stack.append(node)
    if not left:
        stack.reverse()
    return MergeOutcome(tuple(stack), len(stack) == 1)


def merge_eager(p: Sequence[int]) -> MergeOutcome:
    """The "eager" reading of left-to-right merging.

    A single traversal merges pairs as it finds them, and a freshly
    created meld is immediately re-merged with its right neighbor while
    possible; the traversal only restarts once the list is exhausted.
    This variant can violate the right-child property that merge_run's
    left direction guarantees (4231 is the witness), so nothing else in
    the package depends on it.  Each pass is O(n) and there can be n of
    them, so inputs longer than EAGER_MAX_N raise ValueError.
    """
    p = check_permutation(p)
    if len(p) > EAGER_MAX_N:
        raise ValueError(f"eager merging is limited to n <= {EAGER_MAX_N}, got n = {len(p)}")
    melds = [Meld.leaf(v, i) for i, v in enumerate(p, 1)]
    while True:
        merged_any = False
        i = 0
        while i < len(melds) - 1:
            if _mergeable(melds[i], melds[i + 1]):
                merged_any = True
                while i < len(melds) - 1 and _mergeable(melds[i], melds[i + 1]):
                    melds[i : i + 2] = [Meld.merge(melds[i], melds[i + 1])]
            i += 1
        if not merged_any:
            break
    return MergeOutcome(tuple(melds), len(melds) == 1)


def serialize_meld(m: Meld) -> str:
    """Bracketing string: "(l r)" for Round, "[l r]" for Square, value for a leaf."""
    out: list[str] = []
    todo: list[Meld | str] = [m]  # melds still to write, and closing text
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
        elif item[4] is None:
            out.append(str(item[0]))
        elif item[4] is _ROUND:
            out.append("(")
            todo += (")", item[6], " ", item[5])
        else:
            out.append("[")
            todo += ("]", item[6], " ", item[5])
    return "".join(out)


# One leaf of a bracketing string: its open brackets, value and close brackets.
_LEAF = re.compile(r"([(\[]*)([1-9][0-9]*)([)\]]*)")
_CLOSER = {"(": ")", "[": "]"}


def parse_meld(text: str) -> Meld:
    """Inverse of serialize_meld: the meld a bracketing string writes.

    The grammar, after stripping whitespace at both ends of ``text``::

        meld  := value | "(" meld " " meld ")" | "[" meld " " meld "]"
        value := [1-9][0-9]*

    Leaves take positions 1, 2, ... from the left.  "(l r)" needs the
    values of l just below those of r, "[l r]" just above; any other
    input raises ValueError.

    Siblings are separated by exactly one space, so the text splits on
    spaces into one chunk per leaf: open brackets, value, close brackets.
    Each open bracket pushes a frame [closing bracket, left child]; each
    close bracket completes the innermost frame, with the meld just
    finished as its right child.  A meld that ends its chunk inside a
    frame becomes that frame's left child.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty meld text")
    frames: list[list] = []
    pos = 0
    for chunk in text.split(" "):
        if pos and not frames:
            raise ValueError(f"trailing input: {chunk!r}")
        leaf = _LEAF.fullmatch(chunk)
        if leaf is None:
            raise ValueError(f"expected brackets around a value, got {chunk!r}")
        opens, digits, closes = leaf.groups()
        pos += 1
        lo = hi = int(digits)
        node = _new(Meld, (lo, hi, pos, pos, None, None, None))
        for c in opens:
            frames.append([_CLOSER[c], None])
        for c in closes:
            if not frames or frames[-1][1] is None:
                raise ValueError(f"unexpected {c!r} in {chunk!r}")
            close, left = frames.pop()
            if c != close:
                raise ValueError(f"expected {close!r}, got {c!r}")
            if c == ")" and left[1] + 1 == lo:
                lo, kind = left[0], _ROUND
            elif c == "]" and hi + 1 == left[0]:
                hi, kind = left[1], _SQUARE
            else:
                raise ValueError(
                    f"{c!r} cannot join values {left[0]}..{left[1]} and {lo}..{hi}"
                )
            node = _new(Meld, (lo, hi, left[2], pos, kind, left, node))
        if frames:
            if frames[-1][1] is not None:
                raise ValueError(f"expected {frames[-1][0]!r} after {chunk!r}")
            frames[-1][1] = node
    if frames:
        raise ValueError("unclosed bracket")
    return node


def top_level_kind(p: Sequence[int]) -> Kind:
    """Kind of the root bracket of a full permutation (n >= 2).

    The kind is algorithm-independent: Square iff p is indecomposable.
    """
    outcome = merge_run(p, "left")  # validates p
    if outcome.melds[-1].end < 2:
        raise ValueError("top-level kind requires n >= 2")
    if not outcome.full:
        raise ValueError("permutation is not full")
    return outcome.melds[0].kind


def components_via_bracketing(p: Sequence[int]) -> list[Word]:
    """Indecomposable components read off the left bracketing of a full permutation.

    While the root is Round its right child is the rightmost remaining
    component; peeling iteratively yields comps(p).
    """
    p = tuple(p)  # the tuple merge_run validates, so the slices below are words
    outcome = merge_run(p, "left")
    if not outcome.full:
        raise ValueError("permutation is not full")
    node = outcome.melds[0]
    rear: list[Word] = []
    while node[4] is _ROUND:  # kind, read by index as merge_run does (see Meld)
        right = node[6]
        rear.append(p[right[2] - 1 : right[3]])
        node = node[5]
    rear.append(p[node.start - 1 : node.end])
    return rear[::-1]
