"""Tests of the benchmark itself: its reference checks, inputs and tracer.

    python3 -m pytest bench/test_bench.py -q

Real program outputs serve as the accepted samples; each check must then
reject a corrupted copy.
"""
from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from click.testing import CliRunner  # noqa: E402

from percoperm import counting, melds, percolation  # noqa: E402
from percoperm.cli import main  # noqa: E402

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, load_spans  # noqa: E402


def cli(*args: str) -> str:
    result = CliRunner().invoke(main, list(args))
    assert result.exit_code == 0, result.output
    return result.stdout


def rejects(check, *args) -> bool:
    try:
        check(*args)
    except ref.Rejected:
        return True
    return False


# --- census ---------------------------------------------------------------------

def test_count_check_rejects_off_by_one():
    out = cli("count", "6", "--which", "all")
    ref.check_count(out, 6)
    for field in ("full=90", "indec-full=45", "no-growth=90"):
        assert field in out
        key, value = field.split("=")
        assert rejects(ref.check_count, out.replace(field, f"{key}={int(value) + 1}"), 6)


def test_sequence_check_rejects_off_by_one():
    for name in ref.SEQUENCES:
        out = cli("sequence", name, "50")
        ref.check_sequence(out, name, 50)
        lines = out.splitlines()
        lines[-1] = str(int(lines[-1]) + 1)
        assert rejects(ref.check_sequence, "\n".join(lines), name, 50)


def test_verify_check_rejects_a_failed_line():
    out = cli("verify", "5")
    ref.check_verify(out)
    assert rejects(ref.check_verify, out.replace("PASS", "FAIL", 1))


# --- percolation ----------------------------------------------------------------

PERM = (3, 1, 2, 6, 4, 5, 7, 9, 8)


def percolate_json(p, *policy) -> dict:
    return json.loads(cli("percolate", workloads.fmt(p), *policy, "--format", "json"))


def test_percolation_check_accepts_every_policy():
    rng = random.Random(3)
    for p in (PERM, workloads.random_separable(20, rng), workloads.tiled(20, rng), workloads.no_growth(12, rng)):
        first = percolate_json(p)
        assert ref.check_percolation(p, first, "first-scan") == len(first["steps"])
        rand = percolate_json(p, "--policy", "random", "--seed", "5")
        ref.check_percolation(p, rand, "random")
        steps = [(s["row"], s["col"]) for s in rand["steps"]]
        script = " ".join(f"{r},{c}" for r, c in steps)
        scripted = percolate_json(p, "--policy", "scripted", "--script", script)
        ref.check_percolation(p, scripted, "scripted", steps)


def test_percolation_check_rejects_a_swapped_step():
    payload = percolate_json(PERM)
    steps = payload["steps"]
    k = next(i for i in range(len(steps) - 1) if steps[i] != steps[i + 1])
    steps[k], steps[k + 1] = steps[k + 1], steps[k]
    assert rejects(ref.check_percolation, PERM, payload, "first-scan")
    # Under the random policy the order is free, but a cell must be mutable when applied.
    payload = percolate_json(PERM)
    payload["steps"].insert(0, payload["steps"].pop())
    assert rejects(ref.check_percolation, PERM, payload, "random")


def test_percolation_check_rejects_missing_steps_and_wrong_tiles():
    payload = percolate_json(PERM)
    payload["steps"].pop()
    assert rejects(ref.check_percolation, PERM, payload, "first-scan")
    payload = percolate_json(PERM)
    payload["tiles"][0]["size"] += 1
    assert rejects(ref.check_percolation, PERM, payload, "first-scan")
    payload = percolate_json(PERM)
    script = [(s["row"], s["col"]) for s in payload["steps"]]
    script[0], script[1] = script[1], script[0]
    assert rejects(ref.check_percolation, PERM, payload, "scripted", script)


def test_final_tiles_match_the_cell_level_dynamics():
    for n in range(1, 7):
        for p in itertools.permutations(range(1, n + 1)):
            tiles = [(t.row, t.col, t.size) for t in percolation.final_configuration(p).tiles]
            assert ref.final_tiles(p) == tiles


# --- bracketing and components ------------------------------------------------------

def bracket_json(p, direction) -> dict:
    return json.loads(cli("bracket", workloads.fmt(p), direction, "--format", "json"))


def test_bracket_check_rejects_a_wrong_bracket_kind():
    p = (1, 3, 2, 4)  # ((1 [3 2]) 4)
    payload = bracket_json(p, "--left")
    ref.check_bracket(p, payload, ref.bracketing(p, "left"))
    text = payload["melds"][0]
    assert text == "((1 [3 2]) 4)"
    # The validator alone rejects them, even when the reference agrees.
    for wrong in ("([1 [3 2]] 4)", "((1 (3 2)) 4)", "((1 [2 3]) 4)", "((1 [3 2] 4))"):
        assert rejects(ref.check_bracket, p, {"melds": [wrong], "full": True}, [wrong])
    assert rejects(ref.check_bracket, p, {"melds": [text], "full": False}, [text])


def test_bracket_check_needs_one_meld_per_tile():
    p = (2, 4, 1, 3, 5)  # no-growth: five one-cell tiles
    payload = bracket_json(p, "--right")
    ref.check_bracket(p, payload, ref.bracketing(p, "right"))
    assert rejects(ref.check_bracket, p, {"melds": payload["melds"][1:], "full": False},
                   payload["melds"][1:])


def test_bracket_check_rejects_the_other_direction():
    p = (1, 2, 3, 4)
    left, right = bracket_json(p, "--left"), bracket_json(p, "--right")
    assert left["melds"] == ["(((1 2) 3) 4)"] and right["melds"] == ["(1 (2 (3 4)))"]
    ref.check_bracket(p, left, ref.bracketing(p, "left"))
    ref.check_bracket(p, right, ref.bracketing(p, "right"))
    assert rejects(ref.check_bracket, p, left, ref.bracketing(p, "right"))
    assert rejects(ref.check_bracket, p, right, ref.bracketing(p, "left"))


@pytest.mark.parametrize("direction", ["left", "right"])
def test_bracketing_matches_the_program(direction):
    for n in range(1, 8):
        for p in itertools.permutations(range(1, n + 1)):
            got = [melds.serialize_meld(m) for m in melds.merge_run(p, direction).melds]
            assert ref.bracketing(p, direction) == got


def test_round_trip_check():
    text = ref.bracketing(workloads.random_separable(40, random.Random(1)), "right")[0]
    ref.check_round_trip(text, melds.parse_meld(text))
    assert rejects(ref.check_round_trip, text, melds.parse_meld("(1 2)"))


def test_parse_meld_parses_the_checked_bracket_output():
    p = workloads.random_separable(30, random.Random(4))
    ops = workloads._bracketing_ops("separable", p, False)
    by_label = {op.label: op for op in ops}
    with pytest.raises(workloads.DependencyFailed):
        by_label["parse_meld right"].args()  # its bracket --right has not run
    payload = bracket_json(p, "--right")
    by_label["bracket --right"].check(json.dumps(payload))
    (text,) = by_label["parse_meld right"].args()
    assert text == payload["melds"][0]
    by_label["parse_meld right"].check(melds.parse_meld(text))
    with pytest.raises(workloads.DependencyFailed):
        by_label["parse_meld right"].args()  # consumed: the next pass parses its own output


def test_components_check():
    p = (2, 4, 1, 3, 5, 8, 6, 7)
    factors = json.loads(cli("comps", workloads.fmt(p), "--format", "json"))["components"]
    ref.check_components(p, factors)
    assert rejects(ref.check_components, p, [factors[0] + factors[1]] + factors[2:])  # decomposable
    assert rejects(ref.check_components, p, factors[:-1])  # does not cover p
    assert rejects(ref.check_components, p, [factors[1], factors[0], factors[2]])  # out of order


# --- inputs -------------------------------------------------------------------------

def summary(ops):
    return [(op.label, op.family, op.n, op.target, op.deep, None if callable(op.args) else op.args)
            for op in ops]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(workload):
    assert summary(workloads.build(workload, 7)) == summary(workloads.build(workload, 7))
    if workload != "census":  # census has no random inputs
        assert summary(workloads.build(workload, 7)) != summary(workloads.build(workload, 8))


def test_families_have_the_promised_shape():
    rng = random.Random(2)
    for n in (8, 33, 80):
        assert len(ref.final_tiles(workloads.random_separable(n, rng))) == 1
        assert len(ref.final_tiles(workloads.block_sum(n, rng))) == 1
        assert len(ref.final_tiles(workloads.layered(n, rng))) == 1
        assert len(ref.final_tiles(workloads.adversarial(n))) == 1
        assert len(ref.final_tiles(workloads.tiled(n, rng))) >= 4
        p = workloads.no_growth(n, rng)
        assert sorted(p) == list(range(1, n + 1))
        assert len(ref.final_tiles(p)) == n


def test_bracketing_keeps_its_deep_tree_inputs():
    ops = workloads.build("bracketing", 1)
    deep = {(op.family, op.n) for op in ops if op.deep}
    assert {n for _, n in deep} == {1024, 2048, 4096}
    assert {family for family, _ in deep} == set(workloads.DEEP_FAMILIES)


# --- tracer -------------------------------------------------------------------------

def test_tracer_wraps_importers_and_restores():
    original = melds.quick_is_full
    tracer = Tracer()
    with tracer.installed():
        assert counting.quick_is_full is melds.quick_is_full is not original
        with tracer.span("lib", 0):
            counting.count_full(6)
    assert counting.quick_is_full is melds.quick_is_full is original
    totals = tracer.totals()
    assert totals["melds.quick_is_full"][1] == 720
    assert totals["counting.count_full"][1] == 1
    # Self times of all spans add up to the root span's duration.
    spans = tracer.spans
    root = spans["end_ns"][0] - spans["start_ns"][0]
    assert sum(self_s for self_s, _ in totals.values()) == pytest.approx(root / 1e9)


def test_spans_file_round_trip(tmp_path):
    tracer = Tracer()
    with tracer.installed():
        with tracer.span("lib", 3):
            melds.components_via_bracketing((2, 1, 3))
    tracer.write(tmp_path / "t.spans")
    names, fields = load_spans(tmp_path / "t.spans")
    assert names == tracer.names
    assert {field: list(a) for field, a in fields.items()} == {f: list(a) for f, a in tracer.spans.items()}
    assert set(fields["op"]) == {3}
    assert fields["parent"][0] == -1 and all(p >= 0 for p in fields["parent"][1:])


def first_failing_n() -> int:
    def fails(n: int) -> bool:
        tree = melds.merge_run(range(1, n + 1)).melds[0]
        try:
            melds.serialize_meld(tree)
        except RecursionError:
            return True
        return False

    lo, hi = 2, 5000  # fails(hi), not fails(lo)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fails(mid) else (mid, hi)
    return hi


def test_tracing_keeps_the_recursion_limit():
    # Each traced level is two frames.  Without the tracer's compensation a
    # traced recursion would fail at half the depth; with it, the limit
    # moves by a few frames (CPython counts the frames that change the
    # limit slightly differently).
    untraced = first_failing_n()
    with Tracer().installed():
        traced = first_failing_n()
    assert abs(traced - untraced) <= 8


def test_typical_time_is_the_median_over_passes():
    import run

    op = workloads.Op("sequence kings", "census", 5, "cli", ("sequence", "kings", "5"), lambda out: None)
    passes = [[run.Record(op, t)] for t in (0.3, 0.1, 0.2, 9.0)]
    assert run.typical_pass(passes) == [(passes[0][0], 0.25)]
