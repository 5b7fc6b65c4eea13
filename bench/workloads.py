"""Operation lists of the three workloads, generated from a seed.

An operation is one ``percoperm`` CLI command or one public library call,
together with the reference check its output must pass.  The same seed
always gives the same list.  A family with k inputs takes k sizes spaced
evenly on a log scale from the low to the high end of its range, and the
seed draws the permutations of those sizes, their order and the random
policy's seeds.  Fixed sizes keep the work of a pass, and the number of
deep-tree inputs (n >= 1000 in the bracketing workload), the same from
seed to seed; random sizes made a pass's time vary by a third between
seeds.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

import reference as ref


@dataclass
class Op:
    """One operation.  ``target`` is "cli" or "<module>.<function>".

    ``args`` is the CLI argument list or the library call's arguments; a
    callable builds them just before the call (a scripted replay needs the
    trace an earlier operation printed).  ``check`` takes the output and
    returns the work it proves was done, as {"steps": k} or {}.
    """

    label: str
    family: str
    n: int
    target: str
    args: tuple | Callable[[], tuple]
    check: Callable[[object], dict | None]
    deep: bool = False


class DependencyFailed(Exception):
    """The operation replays the output of an earlier one that failed."""


def fmt(p) -> str:
    return " ".join(map(str, p))


def log_uniform_sizes(k: int, lo: int, hi: int) -> list[int]:
    """k sizes from lo to hi, evenly spaced on a log scale."""
    return [round(lo * (hi / lo) ** (i / (k - 1))) for i in range(k)]


# --- permutation families -------------------------------------------------------

def random_separable(n: int, rng: random.Random) -> list[int]:
    """Random separable permutation: split at a uniform point, join by direct or skew sum."""
    p = [0] * n
    todo = [(0, 1, n)]  # (first position, lowest value, size)
    while todo:
        pos, low, m = todo.pop()
        if m == 1:
            p[pos] = low
            continue
        k = rng.randint(1, m - 1)
        if rng.random() < 0.5:  # direct sum: left block takes the low values
            todo += [(pos, low, k), (pos + k, low + k, m - k)]
        else:  # skew sum: left block takes the high values
            todo += [(pos, low + m - k, k), (pos + k, low, m - k)]
    return p


def uniform(n: int, rng: random.Random) -> list[int]:
    p = list(range(1, n + 1))
    rng.shuffle(p)
    return p


def no_growth(n: int, rng: random.Random) -> list[int]:
    """Uniform no-growth permutation (no adjacent values in adjacent columns), n >= 4.

    Rejection sampling: about e^-2 of all permutations qualify.
    """
    while True:
        p = uniform(n, rng)
        if all(abs(a - b) != 1 for a, b in zip(p, p[1:])):
            return p


def _inflate(skeleton: list[int], blocks: list[list[int]]) -> list[int]:
    """Replace each point of ``skeleton`` by a block, keeping the blocks' relative order."""
    offset = {}
    base = 0
    for v in sorted(range(len(skeleton)), key=skeleton.__getitem__):
        offset[v] = base
        base += len(blocks[v])
    return [offset[i] + x for i, block in enumerate(blocks) for x in block]


def _block_sizes(n: int, largest: int, rng: random.Random) -> list[int]:
    sizes = []
    while n:
        sizes.append(min(n, rng.randint(1, largest)))
        n -= sizes[-1]
    return sizes


def tiled(n: int, rng: random.Random) -> list[int]:
    """Small separable blocks on a no-growth skeleton: each block ends as its own tile.

    (A plain direct sum of separable blocks is separable, hence full.)
    Blocks hold at most n/4 values, so the skeleton has at least 4 points.
    """
    sizes = _block_sizes(n, min(6, n // 4), rng)
    return _inflate(no_growth(len(sizes), rng), [random_separable(s, rng) for s in sizes])


def block_sum(n: int, rng: random.Random) -> list[int]:
    """Direct sum of random separable blocks of up to 64 values (full)."""
    sizes = _block_sizes(n, 64, rng)
    return _inflate(list(range(1, len(sizes) + 1)), [random_separable(s, rng) for s in sizes])


def layered(n: int, rng: random.Random) -> list[int]:
    """Direct sum of decreasing runs of up to 32 values (full)."""
    sizes = _block_sizes(n, 32, rng)
    return _inflate(list(range(1, len(sizes) + 1)), [list(range(s, 0, -1)) for s in sizes])


def adversarial(n: int) -> list[int]:
    """Odd values up, then even values down: the only merge sits at the peak (full)."""
    return list(range(1, n + 1, 2)) + list(range(n - n % 2, 0, -2))


# --- workloads ----------------------------------------------------------------------

def _json_check(check: Callable[[dict], dict | None]) -> Callable[[str], dict | None]:
    return lambda stdout: check(json.loads(stdout))


# verify 9 takes about 5 s: a 40 s run held 3 or 4 of them, too few for a
# steady time.  verify 8 (about 0.4 s) calls the same functions.  The
# counts stay at 9, where --parallel pays.
VERIFY_N = 8


def census(rng: random.Random) -> list[Op]:
    """The commands that reproduce the paper's count tables; no random inputs.

    The short sequence commands run right after ``verify``: for a second or
    so after ``count --parallel`` the machine runs ``sequence kings`` up to
    half again slower, so the long ``verify`` of the next pass follows it.
    """
    ops = [Op("verify", "census", VERIFY_N, "cli", ("verify", str(VERIFY_N)), ref.check_verify)]
    for name in ("kings", "schroeder", "little-schroeder"):
        ops.append(Op(f"sequence {name}", "census", 50, "cli", ("sequence", name, "50"),
                      lambda out, name=name: ref.check_sequence(out, name, 50)))
    ops += [
        Op("count", "census", 9, "cli", ("count", "9", "--which", "all"),
           lambda out: ref.check_count(out, 9)),
        Op("count --parallel", "census", 9, "cli",
           ("count", "9", "--which", "all", "--parallel"), lambda out: ref.check_count(out, 9)),
    ]
    return ops


DYNAMICS_FAMILIES = {"separable": random_separable, "tiled": tiled,
                     "uniform": uniform, "no-growth": no_growth}
DYNAMICS_PER_FAMILY = {"separable": 13, "tiled": 13, "uniform": 12, "no-growth": 12}
# Up to 80 the pass took 4-6 s, so a run held 5 passes, and the spread of
# the 90th percentile between runs was up to a quarter on a loaded machine.
DYNAMICS_SIZES = (8, 48)


def _percolate_ops(family: str, p: list[int], seed: int) -> list[Op]:
    """first-scan, random, then scripted replaying the random run's printed trace."""
    n, text = len(p), fmt(p)
    replay: dict = {}

    def check(policy: str):
        def run(payload):
            script = replay["steps"] if policy == "scripted" else None
            steps = ref.check_percolation(p, payload, policy, script)
            if policy == "random":
                replay["steps"] = [(s["row"], s["col"]) for s in payload["steps"]]
            return {"steps": steps}
        return _json_check(run)

    def scripted_args():
        if "steps" not in replay:
            raise DependencyFailed("the random run it replays failed")
        script = " ".join(f"{r},{c}" for r, c in replay["steps"])
        return ("percolate", text, "--policy", "scripted", "--script", script, "--format", "json")

    def start_random():
        replay.clear()  # a failed random run must not leave an older trace behind
        return ("percolate", text, "--policy", "random", "--seed", str(seed), "--format", "json")

    return [
        Op("percolate first-scan", family, n, "cli",
           ("percolate", text, "--policy", "first-scan", "--format", "json"), check("first-scan")),
        Op("percolate random", family, n, "cli", start_random, check("random")),
        Op("percolate scripted", family, n, "cli", scripted_args, check("scripted")),
    ]


def dynamics(rng: random.Random) -> list[Op]:
    inputs = [(family, DYNAMICS_FAMILIES[family](n, rng))
              for family, k in DYNAMICS_PER_FAMILY.items()
              for n in log_uniform_sizes(k, *DYNAMICS_SIZES)]
    rng.shuffle(inputs)
    return [op for family, p in inputs for op in _percolate_ops(family, p, rng.randrange(2**31))]


BRACKETING_FAMILIES = {
    "separable": random_separable,
    "uniform": uniform,
    "adversarial": lambda n, rng: adversarial(n),
    "monotone": None,  # identity and reversal, alternately
    "layered": layered,
    "block-sum": block_sum,
}
BRACKETING_PER_FAMILY = 7
DEEP_FAMILIES = ("adversarial", "monotone")
DEEP_N = 1000  # left/right meld trees of these families are about n deep


def _bracketing_ops(family: str, p: list[int], deep: bool) -> list[Op]:
    """bracket --left and --right, comps, a parse_meld round trip of the longest
    string each bracket command printed and, for full inputs, components_via_bracketing."""
    n, text = len(p), fmt(p)
    expected = {direction: ref.bracketing(p, direction) for direction in ("left", "right")}
    printed: dict[str, str] = {}  # direction -> longest string of its checked output

    def bracket(direction: str) -> Op:
        def check(payload):
            ref.check_bracket(p, payload, expected[direction])
            printed[direction] = max(payload["melds"], key=len)

        return Op(f"bracket --{direction}", family, n, "cli",
                  ("bracket", text, f"--{direction}", "--format", "json"), _json_check(check), deep)

    def round_trip(direction: str) -> Op:
        longest = max(expected[direction], key=len)

        def args():
            if direction not in printed:
                raise DependencyFailed(f"the bracket --{direction} run it parses failed")
            return (printed.pop(direction),)  # each pass parses its own output

        return Op(f"parse_meld {direction}", family, n, "melds.parse_meld", args,
                  lambda meld: ref.check_round_trip(longest, meld), deep)

    ops = [bracket("left"), bracket("right"),
           Op("comps", family, n, "cli", ("comps", text, "--format", "json"),
              _json_check(lambda payload: ref.check_components(p, payload["components"])), deep),
           round_trip("left"), round_trip("right")]
    if len(ref.final_tiles(p)) == 1:
        ops.append(Op("components_via_bracketing", family, n, "melds.components_via_bracketing",
                      (tuple(p),), lambda factors: ref.check_components(p, factors), deep))
    return ops


def bracketing(rng: random.Random) -> list[Op]:
    inputs = []
    for family, make in BRACKETING_FAMILIES.items():
        for i, n in enumerate(log_uniform_sizes(BRACKETING_PER_FAMILY, 64, 4096)):
            if make is None:
                p = list(range(1, n + 1)) if i % 2 == 0 else list(range(n, 0, -1))
            else:
                p = make(n, rng)
            inputs.append((family, p))
    rng.shuffle(inputs)
    return [op for family, p in inputs
            for op in _bracketing_ops(family, p, family in DEEP_FAMILIES and len(p) >= DEEP_N)]


WORKLOADS = {"census": census, "dynamics": dynamics, "bracketing": bracketing}


def build(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](random.Random(seed))
