"""Command-line interface.

Single binary with subcommands; results go to stdout, diagnostics to
stderr.  Exit codes: 0 success, 1 verification failure, 2 usage or parse
error.
"""
from __future__ import annotations

import json
import sys

import click

from . import counting, melds, percolation, series
from .perm import comps as perm_comps
from .perm import format_permutation, parse_permutation

SEQUENCE_MAX = 50


def _parse_perm_arg(text: str):
    try:
        return parse_permutation(text)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _parse_script(text: str) -> list[tuple[int, int]]:
    cells = []
    for tok in text.split():
        row, _, col = tok.partition(",")
        try:
            cells.append((int(row), int(col)))
        except ValueError:
            raise click.UsageError(f"bad script token {tok!r}: expected row,col")
    return cells


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
    cells = None
    if script is not None:
        if policy != "scripted":
            raise click.UsageError("--script needs --policy scripted")
        cells = _parse_script(script)
    try:
        trace = percolation.percolate(
            percolation.matrix_of(p), policy, seed=seed, script=cells
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if fmt == "json":
        config = percolation.FinalConfiguration.from_grid(trace.final)
        payload = {
            "steps": [{"row": r, "col": c} for r, c in trace.steps],
            "tiles": [
                {"row": t.row, "col": t.col, "size": t.size} for t in config.tiles
            ],
            "full": len(config.tiles) == 1,
        }
        click.echo(json.dumps(payload))
        return
    click.echo(percolation.render_trace(trace))
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
        outcome = melds.merge_eager(p)
    else:
        outcome = melds.merge_run(p, direction)
    strings = [melds.serialize_meld(m) for m in outcome.melds]
    if fmt == "json":
        click.echo(json.dumps({"melds": strings, "full": outcome.full}))
        return
    for s in strings:
        click.echo(s)


def _format_factor(word) -> str:
    if max(word) <= 9:
        return "".join(str(v) for v in word)
    return " ".join(str(v) for v in word)


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
    click.echo("".join(f"({_format_factor(f)})" for f in factors))


@main.command("count")
@click.argument("n", type=int)
@click.option("--which", type=click.Choice(["full", "indec-full", "no-growth", "all"]),
              default="all", show_default=True)
@click.option("--parallel", is_flag=True, help="Partitioned enumeration.")
@click.option("--format", "fmt", type=click.Choice(["plain", "json", "csv"]),
              default="plain", show_default=True)
def cmd_count(n: int, which: str, parallel: bool, fmt: str) -> None:
    """Count full / full-indecomposable / no-growth permutations for sizes 1..N."""
    if not 1 <= n <= counting.MAX_N:
        raise click.UsageError(f"n must be in 1..{counting.MAX_N}")
    if parallel:
        try:
            counting.max_workers()
        except ValueError as exc:
            click.echo(f"Error: {exc}", err=True)
            sys.exit(2)
    reports = [counting.count_report(k, which, parallel=parallel) for k in range(1, n + 1)]
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


def _verify_checks(n: int):
    p = {k: counting.count_full(k) for k in range(1, n + 1)}
    q = {k: counting.count_full_indecomposable(k) for k in range(1, n + 1)}
    a = {k: counting.count_no_growth(k) for k in range(1, n + 1)}
    kings = series.a_via_series(n)

    yield (
        f"factorial-identity n=1..{n}",
        all(lhs == rhs for lhs, rhs in map(counting.verify_factorial_identity, range(1, n + 1))),
    )
    yield (
        f"half-lemma n=2..{n}",
        all(2 * q[k] == p[k] for k in range(2, n + 1)),
    )
    yield (
        f"schroeder-agreement n=1..{n}",
        all(p[k] == series.schroeder_large(k - 1)
            and q[k] == series.schroeder_little(k - 1) for k in range(1, n + 1)),
    )
    yield (
        f"kings-four-way n=1..{n}",
        all(a[k] == series.a_formula(k) == series.a_abramson_moser(k) == kings[k]
            for k in range(1, n + 1)),
    )


@main.command("verify")
@click.argument("n", type=int)
def cmd_verify(n: int) -> None:
    """Run the cross-validation suites up to size N and report PASS/FAIL."""
    if not 1 <= n <= 9:
        raise click.UsageError("n must be in 1..9")
    failed = False
    for label, ok in _verify_checks(n):
        click.echo(f"{'PASS' if ok else 'FAIL'} {label}")
        if not ok:
            failed = True
    if failed:
        sys.exit(1)


@main.command("sequence")
@click.argument("name", type=click.Choice(["schroeder", "little-schroeder", "kings", "full"]))
@click.argument("n", type=int)
@click.option("--format", "fmt", type=click.Choice(["plain", "json"]),
              default="plain", show_default=True)
def cmd_sequence(name: str, n: int, fmt: str) -> None:
    """Print terms of a named sequence up to index N."""
    if not 0 <= n <= SEQUENCE_MAX:
        raise click.UsageError(f"N must be in 0..{SEQUENCE_MAX}")
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
