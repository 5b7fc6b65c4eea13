"""Reference checks for the benchmark's outputs.

Nothing here imports percoperm.  Every check recomputes what the output
must be with the benchmark's own code, or compares it with a hard-coded
OEIS table, so a defect in the program cannot hide behind the program's
own cross-checks.  A check raises ``Rejected`` with a one-line reason.
"""
from __future__ import annotations

import heapq
import re
from typing import Sequence


class Rejected(Exception):
    """An output that the reference check does not accept."""


def expect(ok: bool, reason: str) -> None:
    if not ok:
        raise Rejected(reason)


# Large Schroeder numbers S_0..S_50; the full-permutation count is p_n = S_{n-1}.
A006318 = (
    1, 2, 6,
    22, 90, 394,
    1806, 8558, 41586,
    206098, 1037718, 5293446,
    27297738, 142078746, 745387038,
    3937603038, 20927156706, 111818026018,
    600318853926, 3236724317174, 17518619320890,
    95149655201962, 518431875418926, 2832923350929742,
    15521467648875090, 85249942588971314, 469286147871837366,
    2588758890960637798, 14308406109097843626, 79228031819993134650,
    439442782615614361662, 2441263009246175852478, 13582285614213903189954,
    75672545337796460900418, 422158527806921249683014, 2358045034996817096518614,
    13186762229969911326195738, 73825509266803210054176714, 413744003711584755242223438,
    2321083025362608992223726894, 13033522069997514889215092274, 73252943452863199223393858898,
    412061442720070604908289934294, 2319824936637513933714881477958, 13070393952625514917631908633482,
    73696580719034769214303906556250, 415831259625127007215514095957086, 2347928652146955633301765770354078,
    13265947508553602309369175431365026, 75000761566763827145224941186411618, 424283543233691838260433080620759398,
)

# Little Schroeder numbers s_0..s_50; the full-indecomposable count is q_n = s_{n-1}.
A001003 = (
    1, 1, 3,
    11, 45, 197,
    903, 4279, 20793,
    103049, 518859, 2646723,
    13648869, 71039373, 372693519,
    1968801519, 10463578353, 55909013009,
    300159426963, 1618362158587, 8759309660445,
    47574827600981, 259215937709463, 1416461675464871,
    7760733824437545, 42624971294485657, 234643073935918683,
    1294379445480318899, 7154203054548921813, 39614015909996567325,
    219721391307807180831, 1220631504623087926239, 6791142807106951594977,
    37836272668898230450209, 211079263903460624841507, 1179022517498408548259307,
    6593381114984955663097869, 36912754633401605027088357, 206872001855792377621111719,
    1160541512681304496111863447, 6516761034998757444607546137, 36626471726431599611696929449,
    206030721360035302454144967147, 1159912468318756966857440738979, 6535196976312757458815954316741,
    36848290359517384607151953278125, 207915629812563503607757047978543, 1173964326073477816650882885177039,
    6632973754276801154684587715682513, 37500380783381913572612470593205809, 212141771616845919130216540310379699,
)

# Hertzsprung's problem a_0..a_50: non-attacking kings, i.e. no-growth permutations.
A002464 = (
    1, 1, 0,
    0, 2, 14,
    90, 646, 5242,
    47622, 479306, 5296790,
    63779034, 831283558, 11661506218,
    175203184374, 2806878055610, 47767457130566,
    860568917787402, 16362838542699862, 327460573946510746,
    6880329406055690790, 151436547414562736234, 3484423186862152966838,
    83655126041771262574458, 2092014180086865279171334, 54406969991009281966468810,
    1469338018629653986976409366, 41150196372502770671331103322, 1193582389760980498221633250022,
    35813584121884333767012044281386, 1110392038956066804370138783529590, 35537496393064930638101703032280634,
    1172885751272849638829453912565746118, 39882710261949712055631675791418498698, 1396041747291640242139965142726500859094,
    50262345779975911553194577588882829962010, 1859871309871038116648435156189821851897766, 70680863154089897845305294557145995464484842,
    2756760625444750821552128104613932547871395382, 110278077054327740340160424064903831534968959226, 4521691735925647675372206464577895512495362528390,
    189922377973151294153016999180870366965453703631434, 8167114973142658723942423487920320642171239131483798, 359371609340005415400996773516085996617262319952971738,
    16172501101729097608752572324463659513713610092263831654, 743968515918661345831693981583044257572830625963334647210, 34967991959984473257064456963531052567629088109171951115766,
    1678529808482026716734417152305057826476233200125542749867962, 82251004122332324032912236221104203234137519143667913202735942, 4112693186313860119061958213019447094984716896795545060274080266,
)


# --- census -----------------------------------------------------------------

def check_verify(stdout: str) -> None:
    """``verify N``: every cross-check line reads PASS."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    expect(len(lines) >= 4, f"expected at least 4 check lines, got {len(lines)}")
    for line in lines:
        expect(line.startswith("PASS"), f"check did not pass: {line!r}")


_FIELD = re.compile(r"([a-z-]+)=(\d+)")


def check_count(stdout: str, n: int) -> None:
    """``count N --which all`` (plain): p_k, q_k and a_k for k = 1..N."""
    rows = [dict(_FIELD.findall(line)) for line in stdout.splitlines() if line.startswith("n=")]
    expect([int(r["n"]) for r in rows] == list(range(1, n + 1)), "rows are not n=1..N")
    for r in rows:
        k = int(r["n"])
        expect(int(r["full"]) == A006318[k - 1], f"full count wrong at n={k}: {r['full']}")
        expect(int(r["indec-full"]) == A001003[k - 1], f"indec-full count wrong at n={k}: {r['indec-full']}")
        expect(int(r["no-growth"]) == A002464[k], f"no-growth count wrong at n={k}: {r['no-growth']}")


SEQUENCES = {"kings": A002464, "schroeder": A006318, "little-schroeder": A001003}


def check_sequence(stdout: str, name: str, n: int) -> None:
    """``sequence NAME N`` (plain): terms 0..N after a ``#`` header."""
    values = [int(line) for line in stdout.splitlines() if line.strip() and not line.startswith("#")]
    expected = list(SEQUENCES[name][: n + 1])
    expect(len(values) == len(expected), f"expected {len(expected)} terms, got {len(values)}")
    for k, (got, want) in enumerate(zip(values, expected)):
        expect(got == want, f"{name} term {k} is {got}, expected {want}")


# --- tiles and percolation ----------------------------------------------------

def final_tiles(p: Sequence[int]) -> list[tuple[int, int, int]]:
    """Final tiles (top row, left column, size), left to right.

    One pass over an interval stack: push each value and merge with the
    top while the value intervals abut.  Rows count from the top, so the
    tile holding values lo..hi starts at row n - hi + 1.
    """
    n = len(p)
    stack: list[list[int]] = []  # [lo, hi, first column]
    for col, v in enumerate(p, 1):
        lo, hi, start = v, v, col
        while stack and (stack[-1][1] + 1 == lo or hi + 1 == stack[-1][0]):
            lo, hi, start = min(lo, stack[-1][0]), max(hi, stack[-1][1]), stack[-1][2]
            stack.pop()
        stack.append([lo, hi, start])
    return [(n - hi + 1, start, hi - lo + 1) for lo, hi, start in stack]


def check_percolation(p: Sequence[int], payload: dict, policy: str,
                      script: list[tuple[int, int]] | None = None) -> int:
    """Replay a ``percolate --format json`` trace; return its step count.

    Every step must be mutable when applied, no mutable cell may be left,
    first-scan must always take the row-major-first mutable cell, a
    scripted run must repeat its script, and the tiles must equal
    ``final_tiles``.
    """
    n = len(p)
    grid = bytearray(n * n)  # row-major, 0-based, row 0 at the top
    for col, v in enumerate(p):
        grid[(n - v) * n + col] = 1

    def mutable(r: int, c: int) -> bool:
        i = r * n + c
        if grid[i]:
            return False
        ones = ((r > 0 and grid[i - n]) + (r < n - 1 and grid[i + n])
                + (c > 0 and grid[i - 1]) + (c < n - 1 and grid[i + 1]))
        return ones >= 2

    first_scan = policy == "first-scan"
    # Mutability is monotone, so a heap of every cell that became mutable,
    # with already-filled cells dropped lazily, yields the row-major-first one.
    heap = [(r, c) for r in range(n) for c in range(n) if mutable(r, c)] if first_scan else []
    steps = [(s["row"], s["col"]) for s in payload["steps"]]
    if script is not None:
        expect(steps == script, "scripted trace differs from its script")
    for k, (row, col) in enumerate(steps):
        r, c = row - 1, col - 1
        expect(0 <= r < n and 0 <= c < n, f"step {k} ({row},{col}) is off the grid")
        expect(mutable(r, c), f"step {k} ({row},{col}) is not mutable")
        if first_scan:
            while grid[heap[0][0] * n + heap[0][1]]:
                heapq.heappop(heap)
            expect(heap[0] == (r, c), f"step {k} ({row},{col}) is not the first mutable cell")
        grid[r * n + c] = 1
        if first_scan:
            for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if 0 <= rr < n and 0 <= cc < n and mutable(rr, cc):
                    heapq.heappush(heap, (rr, cc))
    expect(not any(mutable(r, c) for r in range(n) for c in range(n)),
           "a mutable cell is left at the end")
    tiles = final_tiles(p)
    got = [(t["row"], t["col"], t["size"]) for t in payload["tiles"]]
    expect(got == tiles, f"tiles {got[:3]}... differ from {tiles[:3]}...")
    expect(payload["full"] is (len(tiles) == 1), "full flag is wrong")
    expect(len(steps) == sum(s * s for _, _, s in tiles) - n, "step count is not sum(size^2) - n")
    return len(steps)


# --- bracketing -----------------------------------------------------------------

_TOKEN = re.compile(r"\d+|\S")


def parse_bracketing(text: str, start: int = 1) -> tuple[list[int], tuple[int, int, int, int]]:
    """Validate one bracketing string; return its leaves and (lo, hi, start, end).

    Iterative, so tree depth is unlimited.  "(l r)" must join value
    intervals that ascend, "[l r]" intervals that descend.
    """
    leaves: list[int] = []
    frames: list[tuple[str, list]] = []  # open bracket and its finished children
    top: list[tuple[int, int, int, int]] = []
    pos = start
    for tok in _TOKEN.findall(text):
        if tok in "([":
            frames.append((tok, []))
            continue
        if tok.isdigit():
            v = int(tok)
            leaves.append(v)
            node = (v, v, pos, pos)
            pos += 1
        elif tok in ")]":
            expect(bool(frames), "unbalanced closing bracket")
            opener, kids = frames.pop()
            expect(opener == ("(" if tok == ")" else "["), "mismatched bracket pair")
            expect(len(kids) == 2, f"a bracket holds {len(kids)} melds, not 2")
            (llo, lhi, lstart, _), (rlo, rhi, _, rend) = kids
            if lhi + 1 == rlo:
                kind = "("
            elif rhi + 1 == llo:
                kind = "["
            else:
                raise Rejected("bracketed melds do not form a consecutive interval")
            expect(kind == opener, f"bracket {opener!r} does not match its value intervals")
            node = (min(llo, rlo), max(lhi, rhi), lstart, rend)
        else:
            raise Rejected(f"unexpected token {tok!r}")
        (frames[-1][1] if frames else top).append(node)
    expect(not frames, "unclosed bracket")
    expect(len(top) == 1, f"string holds {len(top)} melds, not 1")
    return leaves, top[0]


def check_bracket(p: Sequence[int], payload: dict, expected: list[str]) -> None:
    """``bracket --format json``: leaves equal p, bracket kinds match, one meld per
    tile, and the melds are ``expected``, the reference bracketing of the direction."""
    n = len(p)
    melds = payload["melds"]
    tiles = final_tiles(p)
    expect(len(melds) == len(tiles), f"{len(melds)} melds for {len(tiles)} tiles")
    leaves: list[int] = []
    pos = 1
    for text, tile in zip(melds, tiles):
        got, (lo, hi, start, end) = parse_bracketing(text, pos)
        expect((n - hi + 1, start, hi - lo + 1) == tile, f"meld {text[:20]!r} is not tile {tile}")
        leaves.extend(got)
        pos = end + 1
    expect(leaves == list(p), "leaves differ from the input")
    expect(payload["full"] is (len(tiles) == 1), "full flag is wrong")
    expect(melds == expected, "melds are not the bracketing of the requested merging direction")


def bracketing(p: Sequence[int], direction: str) -> list[str]:
    """Left- or right-merged bracketing strings of p, one per final tile, left to right.

    The interval stack of ``final_tiles``, run from the left for "left" and
    from the right for "right": each new meld merges with the top of the
    stack while their value intervals abut.
    """
    from_right = direction == "right"
    stack: list[tuple[int, int, str]] = []  # (lo, hi, text)
    for v in (reversed(p) if from_right else p):
        node = (v, v, str(v))
        while stack:
            left, right = (node, stack[-1]) if from_right else (stack[-1], node)
            if left[1] + 1 == right[0]:
                opener, closer = "(", ")"
            elif right[1] + 1 == left[0]:
                opener, closer = "[", "]"
            else:
                break
            stack.pop()
            node = (min(left[0], right[0]), max(left[1], right[1]), f"{opener}{left[2]} {right[2]}{closer}")
        stack.append(node)
    texts = [text for _, _, text in stack]
    return texts[::-1] if from_right else texts


def serialize_tree(root) -> str:
    """Bracketing string of a returned meld tree, walked without recursion.

    Reads only the public fields ``lo``, ``kind``, ``left`` and ``right``.
    """
    out: list[str] = []
    todo: list = [root]
    while todo:
        node = todo.pop()
        if isinstance(node, str):
            out.append(node)
        elif node.left is None:
            out.append(str(node.lo))
        else:
            opener, closer = ("(", ")") if node.kind.value == "round" else ("[", "]")
            todo.extend((closer, node.right, " ", node.left, opener))
    return "".join(out)


def check_round_trip(text: str, meld) -> None:
    """``parse_meld(text)`` must serialize back to ``text``."""
    expect(serialize_tree(meld) == text, "parsed meld does not serialize back to its input")


# --- components ---------------------------------------------------------------------

def check_components(p: Sequence[int], factors: Sequence[Sequence[int]]) -> None:
    """Factors concatenate to p, fill consecutive value blocks and are indecomposable."""
    expect([v for f in factors for v in f] == list(p), "factors do not concatenate to the input")
    base = 0
    for f in factors:
        expect(len(f) > 0, "empty factor")
        expect(sorted(f) == list(range(base + 1, base + len(f) + 1)),
               f"factor at value {base + 1} is not the next consecutive block")
        peak = 0
        for i, v in enumerate(f[:-1], 1):
            peak = max(peak, v - base)
            expect(peak != i, f"factor at value {base + 1} is decomposable")
        base += len(f)
