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
    "bracket_strings",
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

    Trees are built only by ``merge_run``, ``merge_eager`` and
    ``parse_meld``.  A tree has one node per leaf and one per merge, each
    an instance of a tuple subclass that the cyclic garbage collector
    tracks, so ``bracket_strings``, ``top_level_kind`` and
    ``components_via_bracketing`` read merge records and build none.
    ``merge_run`` and ``parse_meld`` build nodes with
    ``tuple.__new__(Meld, fields)``, and they and ``serialize_meld`` read
    fields by index: the NamedTuple constructor is a Python-level
    ``__new__`` and costs a Python call per node.  Field order is
    ``_fields``.

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


# A merge record's kind: the index into these, 0 for Round and 1 for Square.
_KINDS = (_ROUND, _SQUARE)
_OPENERS, _CLOSERS = "([", ")]"


def _merges(p: Word, direction: str) -> tuple[list[tuple[int, int, int, int]], list[tuple[int, int]]]:
    """Left or right merging of the valid permutation p, as integer records.

    Returns the merges in the order they happen, each as ``(open, close,
    split, kind)``: the meld spans positions open..close, its left child
    ends at split and its right child starts at split + 1, and kind
    indexes ``_KINDS``.  Also returns the final melds' position spans
    ``(start, end)``, left to right.  A later merge that opens or closes
    at a position encloses every earlier one there.

    Both directions are one O(n) pass over a stack of melds, from the
    left or the right end: push each leaf and merge it with the top while
    their value intervals abut.  Adjacent melds below the top are never
    mergeable, so each merge is the one a scan from that end would find
    first.  A stack entry is ``(lo, hi, edge)``: its value interval and
    its position at the far end from the scan's start.  The loop builds
    no ``Meld``, so it makes nothing the cyclic garbage collector keeps
    tracking.
    """
    if direction not in ("left", "right"):
        raise ValueError(f"unknown direction {direction!r}")
    left = direction == "left"
    n = len(p)
    # From the right end the new meld is the left child, and the stack
    # holds the melds right to left.  The kind when the top's values lie
    # below the new meld's, and when they lie above:
    below, above = (0, 1) if left else (1, 0)
    positions = range(1, n + 1) if left else range(n, 0, -1)
    records: list[tuple[int, int, int, int]] = []
    record = records.append
    stack: list[tuple[int, int, int]] = []
    for pos, value in zip(positions, p if left else reversed(p)):
        lo = hi = value
        edge = pos
        while stack:
            top_lo, top_hi, top_edge = stack[-1]
            if top_hi + 1 == lo:
                lo, kind = top_lo, below
            elif hi + 1 == top_lo:
                hi, kind = top_hi, above
            else:
                break
            stack.pop()
            if left:
                record((top_edge, pos, edge - 1, kind))
            else:
                record((pos, top_edge, edge, kind))
            edge = top_edge
        stack.append((lo, hi, edge))
    edges = [entry[2] for entry in stack]
    if left:
        spans = list(zip(edges, [start - 1 for start in edges[1:]] + [n]))
    else:
        edges.reverse()
        spans = list(zip([1] + [end + 1 for end in edges[:-1]], edges))
    return records, spans


def merge_run(p: Sequence[int], direction: str = "left") -> MergeOutcome:
    """Run the left- or right-merging algorithm to exhaustion.

    Left merging always merges the leftmost mergeable adjacent pair,
    right merging the rightmost.  The merges are ``_merges``'s records,
    built into ``Meld`` trees: a record's children are the largest melds
    so far that start at its open and just past its split.
    """
    p = check_permutation(p)
    records, spans = _merges(p, direction)
    nodes = [None] + [_new(Meld, (v, v, i, i, None, None, None)) for i, v in enumerate(p, 1)]
    for start, end, split, kind in records:
        a = nodes[start]
        b = nodes[split + 1]
        if kind:
            nodes[start] = _new(Meld, (b[0], a[1], start, end, _SQUARE, a, b))
        else:
            nodes[start] = _new(Meld, (a[0], b[1], start, end, _ROUND, a, b))
    return MergeOutcome(tuple(nodes[start] for start, _ in spans), len(spans) == 1)


def bracket_strings(p: Sequence[int], direction: str = "left") -> tuple[list[str], bool]:
    """The final melds of left or right merging as bracketing strings, and fullness.

    The same strings as ``serialize_meld`` over ``merge_run(p,
    direction).melds``, written from the merge records with no tree: each
    position holds its open brackets outermost (last made) first, its
    value and its close brackets innermost (first made) first, and
    positions are joined by one space.  Each position's brackets are
    joined once, so 10^5 brackets at one position stay linear.
    """
    p = check_permutation(p)
    records, spans = _merges(p, direction)
    opens: dict[int, list[str]] = {}
    closes: dict[int, list[str]] = {}
    for start, _, _, kind in reversed(records):
        opens.setdefault(start, []).append(_OPENERS[kind])
    for _, end, _, kind in records:
        closes.setdefault(end, []).append(_CLOSERS[kind])
    text = list(map(str, p))
    for pos, brackets in opens.items():
        text[pos - 1] = "".join(brackets) + text[pos - 1]
    for pos, brackets in closes.items():
        text[pos - 1] += "".join(brackets)
    return [" ".join(text[start - 1 : end]) for start, end in spans], len(spans) == 1


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
    The root is the last merge of left merging.
    """
    p = check_permutation(p)
    if len(p) < 2:
        raise ValueError("top-level kind requires n >= 2")
    records, spans = _merges(p, "left")
    if len(spans) > 1:
        raise ValueError("permutation is not full")
    return _KINDS[records[-1][3]]


def components_via_bracketing(p: Sequence[int]) -> list[Word]:
    """Indecomposable components read off the left bracketing of a full permutation.

    While the root is Round its right child is the rightmost remaining
    component; peeling iteratively yields comps(p).  The spine peeled is
    the merges that open at position 1, outermost (last made) first:
    each one's left child is the next one, or the leaf at position 1,
    and its right child starts just past its split.
    """
    p = check_permutation(p)
    records, spans = _merges(p, "left")
    if len(spans) > 1:
        raise ValueError("permutation is not full")
    rear: list[Word] = []
    end = len(p)
    for start, _, split, kind in reversed(records):
        if start != 1:
            continue
        if kind:  # Square: positions 1..end form one component
            break
        rear.append(p[split:end])
        end = split
    rear.append(p[:end])
    return rear[::-1]
