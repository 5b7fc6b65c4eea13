"""Command-line interface.

Single binary with subcommands; results go to stdout, diagnostics to
stderr.  Exit codes: 0 success, 1 verification failure, 2 usage or parse
error.  An error in the input prints one ``Error: ...`` line on stderr
(click's own option and argument errors keep click's format).
"""
from __future__ import annotations

import json
import sys
from itertools import chain, repeat
from typing import NoReturn

import click

from . import counting, melds, percolation, series
from .perm import comps as perm_comps
from .perm import parse_permutation

# `sequence kings N` sums the integer terms of a_formula(k) for every k <= N,
# about N^3 big-integer steps in all: 6 ms at N = 50, 41 ms at N = 100 and
# 0.45 s at N = 200 (Python 3.11, one core).  From a shell on a busy 2-vCPU
# machine every sequence at N = 50 takes 0.12-0.18 s, nearly all of it start-up:
# the interpreter alone takes about 0.08 s and import percoperm.cli about 0.08 s.
SEQUENCE_MAX = 50
# A full percolation takes about n^2 steps, each a few byte tests on a padded
# board and a worklist insert, and the trace keeps every step.  percolate
# --format json on full inputs (identity, reverse, odd values up then even
# down) at n = 400 takes 0.25-0.3 s and at n = 500 0.36-0.55 s with 69 MB peak
# RSS (Python 3.11, one core, output to /dev/null); n = 800 takes about 1.0-1.1 s
# and 156 MB.
PERCOLATE_MAX_N = 500
# The plain trace prints one n x n frame per step, n^4 characters in all, a
# frame at a time: on the same inputs 17 MB at n = 64 and 41 MB in 0.17-0.2 s
# at n = 80, at 17 MB peak RSS for either; n = 100 would print 100 MB in
# 0.23 s and n = 128 268 MB in 0.36 s, still at 18 MB.
PLAIN_TRACE_MAX_N = 80


def _fail(message: str) -> NoReturn:
    """Report an error in the input as one ``Error:`` line on stderr; exit 2."""
    click.echo(f"Error: {message}", err=True)
    sys.exit(2)


def _parse_perm_arg(text: str):
    """Parse PERM; ``-`` reads it from stdin, past the kernel's argv size cap."""
    if text == "-":
        text = click.get_text_stream("stdin").read()
    try:
        return parse_permutation(text)
    except ValueError as exc:
        _fail(str(exc))


def _parse_script(text: str) -> list[tuple[int, int]]:
    """Cells of ``--script``: whitespace-separated ``row,col`` tokens, each side read by int().

    A script repeats few distinct values, so int() runs once per distinct
    side and builtins do the rest; the loop only names the first bad token.
    """
    parts = list(chain.from_iterable(map(str.partition, text.split(), repeat(","))))
    rows, cols = parts[::3], parts[2::3]
    sides = {*rows, *cols}
    try:
        value = dict(zip(sides, map(int, sides)))
    except ValueError:
        for tok in text.split():
            row, _, col = tok.partition(",")
            try:
                int(row), int(col)
            except ValueError:
                _fail(f"bad script token {tok!r}: expected row,col")
        raise
    return list(zip(map(value.__getitem__, rows), map(value.__getitem__, cols)))


@click.group()
def main() -> None:
    """Bootstrap percolation on permutation matrices."""


@main.command("percolate")
@click.argument("perm")
@click.option(
    "--policy",
    type=click.Choice(["first-scan", "random", "scripted"]),
    default="first-scan",
    show_default=True,
)
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for the random policy.")
@click.option("--script", default=None,
              help='Scripted steps as "row,col row,col ...".')
@click.option("--format", "fmt", type=click.Choice(["plain", "json"]),
              default="plain", show_default=True)
def cmd_percolate(perm: str, policy: str, seed: int, script: str | None, fmt: str) -> None:
    """Percolate PERM to completion and print the trace."""
    p = _parse_perm_arg(perm)
    if len(p) > PERCOLATE_MAX_N:
        _fail(f"percolate is limited to n <= {PERCOLATE_MAX_N}, got n = {len(p)}")
    if fmt == "plain" and len(p) > PLAIN_TRACE_MAX_N:
        _fail(f"the plain trace is limited to n <= {PLAIN_TRACE_MAX_N}, got n = {len(p)}; "
              "use --format json")
    cells = None
    if script is not None:
        if policy != "scripted":
            _fail("--script needs --policy scripted")
        cells = _parse_script(script)
    try:
        trace = percolation.percolate(
            percolation.matrix_of(p), policy, seed=seed, script=cells
        )
    except ValueError as exc:
        _fail(str(exc))
    if fmt == "json":
        # The text json.dumps gives, with no dict per step or tile: the steps,
        # about n^2 of them, fill one %-format from the trace's flattened
        # tuples, and each tile fills its own.
        steps = ", ".join(['{"row": %d, "col": %d}'] * len(trace.steps))
        steps %= tuple(chain.from_iterable(trace.steps))
        tiles = percolation.FinalConfiguration.from_grid(trace.final).tiles
        tiles_json = ", ".join(map('{"row": %d, "col": %d, "size": %d}'.__mod__, tiles))
        full = "true" if len(tiles) == 1 else "false"
        click.echo(f'{{"steps": [{steps}], "tiles": [{tiles_json}], "full": {full}}}')
        return
    # One frame at a time, as render_trace would join them: the text is n^4 characters.
    sep = ""
    for frame in percolation.trace_frames(trace):
        click.echo(sep + frame)
        sep = "\n"
    if not trace.steps:
        click.echo("no-growth")


@main.command("bracket")
@click.argument("perm")
@click.option("--left", "direction", flag_value="left", default=True,
              help="Left merging (default).")
@click.option("--right", "direction", flag_value="right", help="Right merging.")
@click.option("--eager", "direction", flag_value="eager",
              help="Eager left-to-right variant (demonstration only).")
@click.option("--format", "fmt", type=click.Choice(["plain", "json"]),
              default="plain", show_default=True)
def cmd_bracket(perm: str, direction: str, fmt: str) -> None:
    """Print the final bracketing(s) of PERM, one meld per line."""
    p = _parse_perm_arg(perm)
    if direction == "eager":
        try:
            outcome = melds.merge_eager(p)
        except ValueError as exc:
            _fail(str(exc))
        strings, full = [melds.serialize_meld(m) for m in outcome.melds], outcome.full
    else:
        strings, full = melds.bracket_strings(p, direction)
    if fmt == "json":
        click.echo(json.dumps({"melds": strings, "full": full}))
        return
    for s in strings:
        click.echo(s)


@main.command("comps")
@click.argument("perm")
@click.option("--format", "fmt", type=click.Choice(["plain", "json"]),
              default="plain", show_default=True)
def cmd_comps(perm: str, fmt: str) -> None:
    """Print the indecomposable components of PERM."""
    p = _parse_perm_arg(perm)
    factors = perm_comps(p)
    if fmt == "json":
        click.echo(json.dumps({"components": [list(f) for f in factors]}))
        return
    # Digit strings only where parse_permutation reads them, so every value is one digit.
    sep = "" if len(p) <= 9 else " "
    click.echo("".join(f"({sep.join(map(str, f))})" for f in factors))


@main.command("count")
@click.argument("n", type=int)
@click.option("--which", type=click.Choice(["full", "indec-full", "no-growth", "all"]),
              default="all", show_default=True)
# count picks its process pool itself; --parallel is still accepted, for old scripts.
@click.option("--parallel", is_flag=True, hidden=True, expose_value=False)
@click.option("--format", "fmt", type=click.Choice(["plain", "json", "csv"]),
              default="plain", show_default=True)
def cmd_count(n: int, which: str, fmt: str) -> None:
    """Count full / full-indecomposable / no-growth permutations for sizes 1..N.

    Sizes from counting.PARALLEL_MIN_N up share one pool of worker
    processes; PERCOPERM_THREADS caps its size, and 1 walks serially.
    """
    try:
        reports = counting.count_table(n, which)
    except ValueError as exc:
        _fail(str(exc))
    if fmt == "csv":
        click.echo(counting.CountReport.CSV_HEADER)
        for r in reports:
            click.echo(r.to_csv_row())
    elif fmt == "json":
        click.echo(json.dumps([r.to_json_obj() for r in reports]))
    else:
        for r in reports:
            parts = [f"n={r.n}"]
            if r.p_n is not None:
                parts.append(f"full={r.p_n}")
            if r.q_n is not None:
                parts.append(f"indec-full={r.q_n}")
            if r.a_n is not None:
                parts.append(f"no-growth={r.a_n}")
            parts.append(f"({r.elapsed_ms:.1f} ms)")
            click.echo(" ".join(parts))


@main.command("verify")
@click.argument("n", type=int)
def cmd_verify(n: int) -> None:
    """Run the cross-validation suites up to size N and report PASS/FAIL.

    A failing check names its first failing size and both sides there; a
    check that starts above N reports SKIP.
    """
    try:
        results = counting.verify(n)
    except ValueError as exc:
        _fail(str(exc))
    for name, start, failure in results:
        if start > n:
            click.echo(f"SKIP {name}: needs n >= {start}")
        elif failure is None:
            click.echo(f"PASS {name} n={start}..{n}")
        else:
            click.echo(f"FAIL {name} n={failure[0]}: {failure[1]}")
    if any(failure for _, _, failure in results):
        sys.exit(1)


@main.command("sequence")
@click.argument("name", type=click.Choice(["schroeder", "little-schroeder", "kings", "full"]))
@click.argument("n", type=int)
@click.option("--format", "fmt", type=click.Choice(["plain", "json"]),
              default="plain", show_default=True)
def cmd_sequence(name: str, n: int, fmt: str) -> None:
    """Print terms of a named sequence up to index N."""
    if not 0 <= n <= SEQUENCE_MAX:
        _fail(f"N must be in 0..{SEQUENCE_MAX}")
    if name == "schroeder":
        header = f"# large Schroeder numbers S_0..S_{n}"
        values = [series.schroeder_large(k) for k in range(n + 1)]
    elif name == "little-schroeder":
        header = f"# little Schroeder numbers s_0..s_{n}"
        values = [series.schroeder_little(k) for k in range(n + 1)]
    elif name == "kings":
        header = f"# non-attacking kings counts a_0..a_{n}"
        values = [1] + [series.a_formula(k) for k in range(1, n + 1)]
    else:
        header = f"# full-permutation counts p_1..p_{max(n, 1)}"
        values = [series.schroeder_large(k - 1) for k in range(1, max(n, 1) + 1)]
    if fmt == "json":
        click.echo(json.dumps(values))
        return
    click.echo(header)
    for v in values:
        click.echo(str(v))


if __name__ == "__main__":
    main()
