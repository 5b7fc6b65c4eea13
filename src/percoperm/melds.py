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
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from .perm import Word, check_permutation

__all__ = [
    "Kind",
    "Meld",
    "MergeOutcome",
    "merge_run",
    "merge_eager",
    "serialize_meld",
    "parse_meld",
    "top_level_kind",
    "components_via_bracketing",
    "final_value_intervals",
    "quick_is_full",
]


class Kind(enum.Enum):
    ROUND = "round"
    SQUARE = "square"


class Meld(NamedTuple):
    """Leaf (value at a position) or a Round/Square merge of two melds.

    ``lo..hi`` is the value interval, ``start..end`` the 1-based position
    span; both are contiguous by construction.  A meld is immutable.
    Trees can be as deep as the permutation is long, so nothing here
    walks them recursively.
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
        return cls(value, value, pos, pos)

    @classmethod
    def merge(cls, left: "Meld", right: "Meld") -> "Meld":
        if left.end + 1 != right.start:
            raise ValueError("melds are not position-adjacent")
        if left.hi + 1 == right.lo:
            return cls(left.lo, right.hi, left.start, right.end, Kind.ROUND, left, right)
        if right.hi + 1 == left.lo:
            return cls(right.lo, left.hi, left.start, right.end, Kind.SQUARE, left, right)
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


@dataclass(frozen=True)
class MergeOutcome:
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
    """
    p = check_permutation(p)
    if direction not in ("left", "right"):
        raise ValueError(f"unknown direction {direction!r}")
    leaf, merge = Meld.leaf, Meld.merge
    left = direction == "left"
    # From the right end the new meld is the left child, and the stack
    # holds the melds right to left.
    positions = range(1, len(p) + 1) if left else range(len(p), 0, -1)
    stack: list[Meld] = []
    for pos in positions:
        node = leaf(p[pos - 1], pos)
        while stack and _mergeable(stack[-1], node):
            node = merge(stack.pop(), node) if left else merge(node, stack.pop())
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
    the package depends on it.
    """
    p = check_permutation(p)
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
        if isinstance(item, str):
            out.append(item)
        elif item.kind is None:
            out.append(str(item.lo))
        elif item.kind is Kind.ROUND:
            out.append("(")
            todo += (")", item.right, " ", item.left)
        else:
            out.append("[")
            todo += ("]", item.right, " ", item.left)
    return "".join(out)


_CLOSER = {"(": ")", "[": "]"}
_KIND_OF_CLOSER = {")": Kind.ROUND, "]": Kind.SQUARE}


def parse_meld(text: str) -> Meld:
    """Inverse of serialize_meld (used for round-tripping).

    One left-to-right walk over the string.  Each open bracket pushes a
    frame [closing bracket, left child]; a finished meld either becomes
    the left child of the innermost frame (a space must follow) or, as
    its right child, completes it (its closing bracket must follow).
    """
    text = text.strip()
    n = len(text)
    i = 0
    pos = 1
    frames: list[list] = []
    while True:
        while i < n and text[i] in _CLOSER:
            frames.append([_CLOSER[text[i]], None])
            i += 1
        j = i
        while j < n and text[j].isdigit():
            j += 1
        if j == i:
            raise ValueError("expected a value" if i < n else "empty meld text")
        node = Meld.leaf(int(text[i:j]), pos)
        pos += 1
        i = j
        while frames and frames[-1][1] is not None:
            close, left = frames.pop()
            if text[i : i + 1] != close:
                raise ValueError(f"expected {close!r}")
            i += 1
            node = Meld.merge(left, node)
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


def top_level_kind(p: Sequence[int]) -> Kind:
    """Kind of the root bracket of a full permutation (n >= 2).

    The kind is algorithm-independent: Square iff p is indecomposable.
    """
    p = check_permutation(p)
    if len(p) < 2:
        raise ValueError("top-level kind requires n >= 2")
    outcome = merge_run(p, "left")
    if not outcome.full:
        raise ValueError("permutation is not full")
    return outcome.melds[0].kind


def components_via_bracketing(p: Sequence[int]) -> list[Word]:
    """Indecomposable components read off the left bracketing of a full permutation.

    While the root is Round its right child is the rightmost remaining
    component; peeling iteratively yields comps(p).
    """
    p = check_permutation(p)
    outcome = merge_run(p, "left")
    if not outcome.full:
        raise ValueError("permutation is not full")
    node = outcome.melds[0]
    rear: list[Word] = []
    while node.kind is Kind.ROUND:
        rear.append(p[node.right.start - 1 : node.right.end])
        node = node.left
    rear.append(p[node.start - 1 : node.end])
    return rear[::-1]


def final_value_intervals(p: Sequence[int]) -> list[tuple[int, int]]:
    """Value interval (lo, hi) of each final tile, left to right.

    One O(n) stack pass: push each value as a unit interval and merge
    with the top while the intervals abut.  Pairs below the top are never
    mergeable, so the result is a complete merge; by order-invariance it
    equals the final configuration of any merging order.
    """
    stack: list[tuple[int, int]] = []
    for a in p:
        lo = hi = a
        while stack:
            l2, h2 = stack[-1]
            if h2 + 1 == lo:
                lo = l2
            elif hi + 1 == l2:
                hi = h2
            else:
                break
            stack.pop()
        stack.append((lo, hi))
    return stack


def quick_is_full(p: Sequence[int]) -> bool:
    """Fast fullness test used by the counting loops; input is not validated."""
    return len(final_value_intervals(p)) == 1
