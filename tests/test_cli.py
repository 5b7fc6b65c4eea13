import itertools
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import percoperm
from percoperm import counting, percolation, series
from percoperm.cli import PERCOLATE_MAX_N, PLAIN_TRACE_MAX_N, SEQUENCE_MAX, _parse_script, main
from percoperm.melds import EAGER_MAX_N, merge_run, serialize_meld
from test_melds import DEEP_PERMS
from test_percolation import inflate


def run(*args, env=None, input=None):
    return CliRunner().invoke(main, list(args), env=env, input=input)


class TestPercolate:
    def test_213_plain(self):
        result = run("percolate", "213")
        assert result.exit_code == 0
        frames = result.output.rstrip("\n").split("\n\n")
        assert len(frames) == 7
        assert frames[0] == "001\n100\n010"
        assert frames[-1] == "111\n111\n111"

    def test_no_growth_note(self):
        result = run("percolate", "2 4 1 3")
        assert result.exit_code == 0
        assert result.output.count("\n\n") == 0
        assert "no-growth" in result.output

    def test_json(self):
        result = run("percolate", "213", "--format", "json")
        payload = json.loads(result.output)
        assert payload["full"] is True
        assert len(payload["steps"]) == 6
        assert payload["tiles"] == [{"row": 1, "col": 1, "size": 3}]

    def test_json_roundtrip(self):
        result = run("percolate", "213", "--format", "json")
        assert json.dumps(json.loads(result.output)) == result.output.rstrip("\n")

    @pytest.mark.parametrize("n", [*range(1, 6), 48, PERCOLATE_MAX_N])
    def test_json_is_json_dumps_of_the_payload(self, monkeypatch, n):
        # Steps and tiles are formatted as text; the output must be json.dumps
        # of one dict per step and per tile.
        traces = []
        engine = percolation.percolate

        def recorded(*args, **kwargs):
            traces.append(engine(*args, **kwargs))
            return traces[-1]

        def payload(trace):
            tiles = percolation.FinalConfiguration.from_grid(trace.final).tiles
            return {
                "steps": [{"row": r, "col": c} for r, c in trace.steps],
                "tiles": [{"row": t.row, "col": t.col, "size": t.size} for t in tiles],
                "full": len(tiles) == 1,
            }

        monkeypatch.setattr(percolation, "percolate", recorded)
        if n <= 5:
            cases = [(w, policy) for w in itertools.permutations(range(1, n + 1))
                     for policy in ["first-scan", "random"]]
        elif n == 48:  # many tiles: no growth at all, and 16 blocks of 3 that stay apart
            apart = (*range(2, n + 1, 2), *range(1, n, 2))
            threes = list(itertools.permutations((1, 2, 3)))
            skeleton = (*range(2, 17, 2), *range(1, 16, 2))
            tiled = inflate(skeleton, [threes[i % 6] for i in range(16)])
            cases = [(w, policy) for w in (apart, tiled) for policy in ["first-scan", "random"]]
        else:  # the identity is full: about n^2 steps
            cases = [(range(1, n + 1), "first-scan")]
        for w, policy in cases:
            result = run("percolate", "-", "--policy", policy, "--seed", "3", "--format", "json",
                         input=" ".join(map(str, w)))
            assert result.exit_code == 0
            assert result.stdout_bytes == (json.dumps(payload(traces[-1])) + "\n").encode(), w

    def test_parse_error_exit_2(self):
        assert run("percolate", "2 2 1").exit_code == 2

    def test_scripted(self):
        steps = json.loads(run("percolate", "213", "--format", "json").output)["steps"]
        script = " ".join(f"{s['row']},{s['col']}" for s in steps)
        result = run("percolate", "213", "--policy", "scripted", "--script", script)
        assert result.exit_code == 0
        result = run("percolate", "213", "--policy", "scripted", "--script", "1,1")
        assert result.exit_code == 2

    def test_bad_script_token(self):
        for script in ["1,2,3", "1", "a,b", "2,2 1,x", ",", "1,", ",2"]:
            result = run("percolate", "213", "--policy", "scripted", "--script", script)
            assert result.exit_code == 2
            assert isinstance(result.exception, SystemExit)
            assert "Traceback" not in result.output
            bad = script.split()[-1]
            assert result.output.splitlines()[-1] == (
                f"Error: bad script token {bad!r}: expected row,col")

    def test_script_sides_are_read_by_int(self):
        # Forms int() accepts: a sign, underscores, non-ASCII digits, any whitespace between tokens.
        assert _parse_script("+1,2\t3,-4\n\u0663,1_0  0,+0") == [(1, 2), (3, -4), (3, 10), (0, 0)]
        assert _parse_script(" ") == []
        steps = json.loads(run("percolate", "213", "--format", "json").output)["steps"]
        script = " ".join(f"{s['row']},{s['col']}" for s in steps)
        signed = "\t".join(f"+{s['row']},0{s['col']}" for s in steps)
        assert run("percolate", "213", "--policy", "scripted", "--script", signed).output == (
            run("percolate", "213", "--policy", "scripted", "--script", script).output)

    def test_script_needs_scripted_policy(self):
        for policy in ["first-scan", "random"]:
            result = run("percolate", "213", "--policy", policy, "--script", "2,2")
            assert result.exit_code == 2
            assert isinstance(result.exception, SystemExit)
            assert result.output.splitlines()[-1] == "Error: --script needs --policy scripted"

    def test_percolates_once(self, monkeypatch):
        calls = []
        engine = percolation.percolate

        def counted(*args, **kwargs):
            calls.append(args)
            return engine(*args, **kwargs)

        monkeypatch.setattr(percolation, "percolate", counted)
        for fmt in ["plain", "json"]:
            calls.clear()
            assert run("percolate", "1324", "--format", fmt).exit_code == 0
            assert len(calls) == 1

    def test_plain_output_is_render_trace(self):
        # The frames are echoed one at a time; together they must read as render_trace's text.
        perms = [w for n in range(1, 6) for w in itertools.permutations(range(1, n + 1))]
        perms.append(tuple(range(1, PLAIN_TRACE_MAX_N + 1)))
        for w in perms:
            trace = percolation.percolate(percolation.matrix_of(w), "first-scan")
            expected = percolation.render_trace(trace) + "\n" + ("" if trace.steps else "no-growth\n")
            result = run("percolate", " ".join(map(str, w)))
            assert result.exit_code == 0
            assert result.stdout_bytes == expected.encode(), w

    @pytest.mark.parametrize("fmt, gate", [("plain", PLAIN_TRACE_MAX_N), ("json", PERCOLATE_MAX_N)])
    def test_size_gates(self, monkeypatch, fmt, gate):
        def no_growth(n):  # even values up, then odd values up
            return " ".join(map(str, [*range(2, n + 1, 2), *range(1, n + 1, 2)]))

        result = run("percolate", "-", "--format", fmt, input=no_growth(gate))
        assert result.exit_code == 0
        assert result.output.endswith("no-growth\n" if fmt == "plain" else '"full": false}\n')
        monkeypatch.setattr(percolation, "matrix_of", None)  # rejected before any grid is built
        result = run("percolate", "-", "--format", fmt, input=no_growth(gate + 1))
        assert result.exit_code == 2
        assert result.output.startswith("Error: ")
        assert f"limited to n <= {gate}, got n = {gate + 1}" in result.output


class TestBracket:
    def test_left(self):
        result = run("bracket", "1324", "--left")
        assert result.output == "((1 [3 2]) 4)\n"

    def test_right(self):
        result = run("bracket", "1324", "--right")
        assert result.output == "(1 ([3 2] 4))\n"

    def test_eager(self):
        result = run("bracket", "4231", "--eager")
        assert result.output == "[4 [(2 3) 1]]\n"

    def test_eager_size_gate(self):
        n = EAGER_MAX_N
        result = run("bracket", "-", "--eager", input=" ".join(map(str, range(n, 0, -1))))
        assert result.exit_code == 0 and result.output.count("\n") == 1
        result = run("bracket", "-", "--eager", input=" ".join(map(str, range(n + 1, 0, -1))))
        assert result.exit_code == 2
        assert result.output == f"Error: eager merging is limited to n <= {n}, got n = {n + 1}\n"

    def test_non_full_lists_melds(self):
        result = run("bracket", "2413")
        assert result.output == "2\n4\n1\n3\n"

    def test_parse_error_exit_2(self):
        assert run("bracket", "").exit_code == 2


README = Path(__file__).resolve().parents[1] / "README.md"
# README's CLI lines whose comment, up to a ";", is their whole stdout.
README_OUTPUTS = {
    "percoperm bracket 1324 --left": "((1 [3 2]) 4)",
    "percoperm bracket 4231 --eager": "[4 [(2 3) 1]]",
    'percoperm comps "2 4 1 3 5 8 6 7"': "(2413)(5)(867)",
}


def test_readme_cli_lines_print_their_comment():
    comments = {}
    for line in README.read_text().splitlines():
        command, sep, comment = line.partition("#")
        if line.startswith("percoperm ") and sep:
            comments[command.strip()] = comment.split(";")[0].strip()
    for command, output in README_OUTPUTS.items():
        assert comments[command] == output, command
        result = run(*shlex.split(command)[1:])
        assert result.exit_code == 0
        assert result.stdout == output + "\n", command


class TestStdin:
    """``-`` reads PERM from stdin, for inputs longer than one argv string may be."""

    p = DEEP_PERMS["odd-up-even-down"]
    text = " ".join(map(str, p)) + "\n"

    def test_bracket_deep_input(self):
        result = run("bracket", "-", input=self.text)
        assert result.exit_code == 0
        assert result.output == serialize_meld(merge_run(self.p).melds[0]) + "\n"

    def test_comps_through_a_pipe(self):
        src = os.path.dirname(os.path.dirname(percoperm.__file__))
        result = subprocess.run(
            [sys.executable, "-m", "percoperm.cli", "comps", "-"], input=self.text,
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=True,
        )
        assert result.stdout == "(1)(" + " ".join(map(str, self.p[1:])) + ")\n"

    @pytest.mark.parametrize("command", ["percolate", "bracket", "comps"])
    def test_empty_stdin(self, command):
        result = run(command, "-", input="")
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "Error: empty input\n"


class TestComps:
    def test_example(self):
        assert run("comps", "2 4 1 3 5 8 6 7").output == "(2413)(5)(867)\n"

    def test_single(self):
        assert run("comps", "1").output == "(1)\n"

    def test_nine(self):
        assert run("comps", "3 1 2 6 4 5 7 9 8").output == "(312)(645)(7)(98)\n"

    def test_json(self):
        payload = json.loads(run("comps", "213", "--format", "json").output)
        assert payload == {"components": [[2, 1], [3]]}

    def test_beyond_nine_values_separates_every_value(self):
        # (2 1) must not print as the value 21, which is also a factor here.
        p = [2, 1] + list(range(3, 31))
        expected = "(2 1)" + "".join(f"({v})" for v in range(3, 31)) + "\n"
        assert run("comps", " ".join(map(str, p))).output == expected


class TestCount:
    def test_full_plain(self):
        result = run("count", "5", "--which", "full")
        values = [line.split("full=")[1].split()[0] for line in result.output.splitlines()]
        assert values == ["1", "2", "6", "22", "90"]

    def test_no_growth(self):
        result = run("count", "5", "--which", "no-growth")
        values = [
            line.split("no-growth=")[1].split()[0]
            for line in result.output.splitlines()
        ]
        assert values == ["1", "0", "0", "2", "14"]

    def test_indec_full(self):
        result = run("count", "4", "--which", "indec-full")
        values = [
            line.split("indec-full=")[1].split()[0]
            for line in result.output.splitlines()
        ]
        assert values == ["1", "1", "3", "11"]

    def test_csv_header_once(self):
        result = run("count", "3", "--format", "csv")
        lines = result.output.splitlines()
        assert lines[0] == "n,p_n,q_n,a_n,elapsed_ms"
        assert sum(1 for line in lines if line.startswith("n,")) == 1
        assert lines[2].startswith("2,2,1,0,")

    def test_json(self):
        rows = json.loads(run("count", "3", "--format", "json").output)
        assert [r["p_n"] for r in rows] == [1, 2, 6]

    def test_invalid_n_exit_2(self):
        assert run("count", "0").exit_code == 2
        assert run("count", str(counting.MAX_N + 1)).exit_code == 2

    def test_parallel_flag_changes_nothing(self):
        def counts(*flags):
            result = run("count", "9", *flags)
            assert result.exit_code == 0
            return re.sub(r" \([0-9.]+ ms\)", "", result.output)

        assert counts() == counts("--parallel")
        assert counts().splitlines()[-1] == "n=9 full=41586 indec-full=20793 no-growth=47622"

    def test_parallel_flag_is_hidden(self):
        assert "--parallel" not in run("count", "--help").output

    def test_non_integer_threads_exit_2(self):
        result = run("count", "7", "--parallel", env={"PERCOPERM_THREADS": "abc"})
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "Error: PERCOPERM_THREADS must be an integer, got 'abc'\n"


class TestVerify:
    def test_small_all_pass(self):
        result = run("verify", "4")
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines and all(line.startswith("PASS") for line in lines)

    def test_n1(self):
        result = run("verify", "1")
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "PASS factorial-identity n=1..1",
            "SKIP half-lemma: needs n >= 2",
            "PASS schroeder-agreement n=1..1",
            "PASS kings-four-way n=1..1",
        ]

    def test_invalid_n_exit_2(self):
        assert run("verify", "0").exit_code == 2
        assert run("verify", str(counting.MAX_N + 1)).exit_code == 2

    @pytest.mark.parametrize("module, name, wrong_at, failures", [
        (series, "schroeder_little", 6, {
            2: "FAIL schroeder-agreement n=7: p=1806 S_6=1806 q=903 s_6=904"}),
        (series, "a_formula", 5, {
            3: "FAIL kings-four-way n=5: a=14 formula=15 abramson-moser=14 series=14"}),
        (counting, "q_n", 6, {
            1: "FAIL half-lemma n=6: 2*q=396 p=394",
            2: "FAIL schroeder-agreement n=6: p=394 S_5=394 q=198 s_5=197"}),
        (counting, "a_n", 4, {
            0: "FAIL factorial-identity n=4: n!=24 sum=25",
            3: "FAIL kings-four-way n=4: a=3 formula=2 abramson-moser=2 series=2"}),
    ], ids=["schroeder_little", "a_formula", "q_n", "a_n"])
    def test_failure_names_first_failing_n(self, monkeypatch, module, name, wrong_at, failures):
        # One value is made one too large at one size; each check that reads it
        # must name that size and print both sides.
        if module is series:
            real = getattr(series, name)
            monkeypatch.setattr(series, name, lambda k: real(k) + (k == wrong_at))
        else:
            real_table = counting.count_table

            def wrong_table(n, *args, **kwargs):
                reports = real_table(n, *args, **kwargs)
                r = reports[wrong_at - 1]
                reports[wrong_at - 1] = r._replace(**{name: getattr(r, name) + 1})
                return reports

            monkeypatch.setattr(counting, "count_table", wrong_table)
        result = run("verify", "7")
        assert result.exit_code == 1
        passing = [
            "PASS factorial-identity n=1..7",
            "PASS half-lemma n=2..7",
            "PASS schroeder-agreement n=1..7",
            "PASS kings-four-way n=1..7",
        ]
        assert result.output.splitlines() == [failures.get(i, line) for i, line in enumerate(passing)]

    def test_enumerates_each_size_once(self, monkeypatch):
        sizes = []
        tally = counting._tally

        def counted(n, *args):
            sizes.append(n)
            return tally(n, *args)

        monkeypatch.setattr(counting, "_tally", counted)
        assert run("verify", "5").exit_code == 0
        assert sorted(sizes) == [1, 2, 3, 4, 5]


class TestSequence:
    def test_schroeder(self):
        result = run("sequence", "schroeder", "8")
        lines = result.output.splitlines()
        assert lines[0].startswith("#")
        assert lines[1:] == ["1", "2", "6", "22", "90", "394", "1806", "8558", "41586"]

    def test_kings(self):
        result = run("sequence", "kings", "8")
        assert result.output.splitlines()[1:] == [
            "1", "1", "0", "0", "2", "14", "90", "646", "5242",
        ]

    def test_little_schroeder(self):
        result = run("sequence", "little-schroeder", "5")
        assert result.output.splitlines()[1:] == ["1", "1", "3", "11", "45", "197"]

    def test_full(self):
        result = run("sequence", "full", "5")
        assert result.output.splitlines()[1:] == ["1", "2", "6", "22", "90"]

    def test_json(self):
        result = run("sequence", "schroeder", "4", "--format", "json")
        assert json.loads(result.output) == [1, 2, 6, 22, 90]

    def test_unknown_name_exit_2(self):
        assert run("sequence", "fibonacci", "5").exit_code == 2


ERROR_CASES = [
    (("percolate", "2 2 1"), None),
    (("percolate", " ".join(map(str, range(1, PLAIN_TRACE_MAX_N + 2)))), None),
    (("percolate", " ".join(map(str, range(1, PERCOLATE_MAX_N + 2))), "--format", "json"), None),
    (("bracket", ""), None),
    (("comps", "1 3"), None),
    (("percolate", "213", "--policy", "scripted", "--script", "1,2,3"), None),
    (("percolate", "213", "--script", "2,2"), None),
    (("percolate", "213", "--policy", "scripted", "--script", "1,1"), None),
    (("percolate", "213", "--policy", "scripted"), None),
    (("count", "0"), None),
    (("count", str(counting.MAX_N + 1)), None),
    (("count", "7", "--parallel"), {"PERCOPERM_THREADS": "abc"}),
    (("count", "7"), {"PERCOPERM_THREADS": "abc"}),
    (("verify", "7"), {"PERCOPERM_THREADS": "abc"}),
    (("verify", "0"), None),
    (("verify", str(counting.MAX_N + 1)), None),
    (("sequence", "kings", str(SEQUENCE_MAX + 1)), None),
]


def _case_id(args):
    """The command line, with each long permutation as 1..n."""
    return " ".join(a if len(a) < 40 else f"1..{len(a.split())}" for a in args)


@pytest.mark.parametrize("args, env", ERROR_CASES, ids=[_case_id(args) for args, _ in ERROR_CASES])
def test_error_is_one_stderr_line(args, env):
    result = run(*args, env=env)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: ")
    assert "Traceback" not in result.output


def test_sequence_accepts_its_max():
    result = run("sequence", "kings", str(SEQUENCE_MAX), "--format", "json")
    assert result.exit_code == 0
    assert len(json.loads(result.output)) == SEQUENCE_MAX + 1
