"""Command-line front end.

Subcommands: validate, realize, trace, enumerate, compare.  Sequences are
given as a comma- or whitespace-separated literal argument (one that starts
with a minus sign, such as ``-1,1,3``, is a literal if it parses as one, and
an unknown option otherwise), or one per line via --file for batch runs
(UTF-8 text; a leading byte-order mark is skipped).  Every sequence
command declares that input once, with ``_sequence_input``, and reads it
with ``_inputs``; every command but ``realize`` takes the one
``--format text|json`` option, ``_text_or_json``.
Results go to stdout, diagnostics to stderr.  Exit codes: 0 success, 1
domain failure (invalid sequence, a cap exceeded: ``enumerate`` above its
order limit, ``realize`` on more than ``REALIZE_CAP`` scores or more than
``REALIZE_JUMP_CAP`` jumps, a realized tournament that fails its O(n)
score check before output, or a ``trace`` of more than ``TRACE_CAP``
scores, steps x n), 2 usage or parse error (including a --file
that is not UTF-8 text).  No subcommand imports numpy: tournaments are
rendered from their bit rows.  Every output of ``realize`` (five formats)
and ``trace`` (two) is a head, rows with a separator between them, and a
tail, made by one writer, ``_pieces``, and handed to stdout one row or
step at a time as it is made, so stdout's own buffer bounds the text held
at once.  Every one-record result (a ``validate`` or ``compare`` line,
``enumerate --stats``) goes through one writer, ``_echo``: the record as
a JSON line, or its text.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from itertools import compress
from typing import Iterable, Iterator, NoReturn, Optional, Sequence, Tuple

import click

from . import oracle
from .sequences import (
    JumpAlgorithm,
    LandauSequence,
    _replayed,
    _seq_str,
    _trace,
    c_value,
    distance,
    first_equality_index,
    regular_sequence,
    transitive_sequence,
    validate_landau,
)
from .tournaments import Tournament, _flags, realize as realize_tournament

#: Longest sequence ``landau realize`` accepts: the realized tournament is n
#: bit rows, n^2/8 bytes (12.5 MB at the cap), and the output goes to stdout
#: row by row.  Longer input exits 1 before anything is built.
REALIZE_CAP = 10_000

#: Most jumps ``landau realize`` makes: the replay reverses d(R,S)/2 paths,
#: up to n^2/8, so the length cap alone bounds memory but not time.  Random
#: scores at n=10,000 take about 197,000 jumps; Tr_1414, 249,571.  A
#: sequence over the cap exits 1 after one O(n) distance, before any walk.
REALIZE_JUMP_CAP = 250_000

#: Most scores ``landau trace`` writes, steps x n: each step is a line of n
#: scores, and the steps grow as n^2/8 (down, gr-down) or n^3/24 (gr-up), so
#: a 2 KB literal (R_1001 under gr-up: 41.8M steps) would otherwise run for
#: hours.  A trace over the cap exits 1 after O(n) work, before any walk.
TRACE_CAP = 100_000_000


def _walk_lengths(s: LandauSequence) -> dict:
    """Each walk's steps from ``s`` by the identities the tests certify,
    with the distances and c(S) they come from; O(n)."""
    d_regular = distance(s, regular_sequence(s.n))
    d_transitive = distance(s, transitive_sequence(s.n))
    c = c_value(s)
    walks = dict(down=d_regular // 2, gr_down=d_transitive // 2, gr_up=c)
    return dict(walks, d_regular=d_regular, d_transitive=d_transitive, c=c)


def _literal(text: str) -> Optional[Tuple[int, ...]]:
    """The integers of a sequence literal, or None if a part is not one."""
    try:
        return tuple(int(p) for p in text.replace(",", " ").split())
    except ValueError:
        return None


def _fail(message: str, code: int = 1) -> NoReturn:
    """Write ``message`` to stderr and exit with ``code``."""
    click.echo(message, err=True)
    sys.exit(code)


def _echo(fmt: str, record: dict, text: str) -> None:
    """Write one result: ``record`` as a JSON line, or ``text``."""
    click.echo(json.dumps(record) if fmt == "json" else text)


#: The ``--format`` of every command but ``realize``.
_text_or_json = click.option(
    "--format", "fmt", type=click.Choice(["text", "json"]), default="text"
)


def _sequence_input(command):
    """Declare the input that ``_inputs`` reads: a literal or ``--file``."""
    command = click.option(
        "--file", "file_", type=click.Path(exists=True, dir_okay=False)
    )(command)
    return click.argument("sequence", required=False)(command)


def _inputs(sequence, file_) -> Iterator[Tuple[int, ...]]:
    """The scores of the literal, or of each non-blank line of the file.

    The file is read, and its errors reported, before the first literal is
    parsed; a literal that does not parse exits 2 when it is reached.
    """
    if (sequence is None) == (file_ is None):
        _fail("error: give a sequence literal or --file, not both", 2)
    literals = [sequence]
    if file_ is not None:
        try:
            with open(file_, encoding="utf-8") as fh:
                # a byte-order mark is not part of the first literal; the
                # utf-8-sig codec would also take a cut mark (b"\xef") as text
                text = fh.read().removeprefix("\ufeff")
        except UnicodeDecodeError as exc:
            _fail(f"error: {file_} is not UTF-8 text: {exc}", 2)
        literals = [line.strip() for line in text.split("\n") if line.strip()]
        if not literals:
            _fail(f"error: no sequences in {file_}", 2)
    for literal in literals:
        scores = _literal(literal)
        if not scores:
            what = "empty" if scores == () else "cannot parse"
            _fail(f"error: {what} sequence literal {literal!r}", 2)
        yield scores


def _require_valid(raw: Tuple[int, ...]) -> LandauSequence:
    result = validate_landau(raw)
    if not isinstance(result, LandauSequence):
        _fail(f"invalid sequence: {result.message}")
    return result


def _json_ints(scores: Sequence[int]) -> str:
    return json.dumps(list(scores))


class _LiteralCommand(click.Command):
    """A subcommand whose literal may start with a minus sign, as ``-1,1,3``:
    an argument that names no option is the literal if it parses as one, and
    "No such option" otherwise.  Option values and all after ``--`` are not
    options (``--file -x`` names the path ``-x``)."""

    def parse_args(self, ctx, args):
        options = [p for p in self.get_params(ctx) if isinstance(p, click.Option)]
        names = {name for p in options for name in p.opts + p.secondary_opts}
        takes_value = {name for p in options if not p.is_flag for name in p.opts}
        rest = iter(args)
        for arg in rest:
            if arg == "--":
                break
            name = arg.split("=", 1)[0]
            if arg in takes_value:
                next(rest, None)
            elif arg.startswith("-") and arg != "-" and name not in names:
                if not _literal(arg):
                    raise click.NoSuchOption(name, ctx=ctx)
        ctx.ignore_unknown_options = True  # the parser passes the literal on
        return super().parse_args(ctx, args)


@click.group()
def main():
    """Validate, realize, and trace tournament score sequences."""


main.command_class = _LiteralCommand


@main.command()
@_sequence_input
@click.option("--strong", is_flag=True, help="Also require strict prefix sums.")
@_text_or_json
def validate(sequence, file_, strong, fmt):
    """Check Landau's conditions (and strongness with --strong)."""
    failed = False
    for raw in _inputs(sequence, file_):
        result = validate_landau(raw)
        message = None
        if not isinstance(result, LandauSequence):
            message = result.message
        elif strong and (k := first_equality_index(result)) is not None:
            message = f"equality at k={k}"
        valid = message is None
        failed = failed or not valid
        verdict = "valid" if valid else f"invalid ({message})"
        record = {"sequence": list(raw), "valid": valid, "reason": message}
        _echo(fmt, record, f"{_seq_str(raw)}: {verdict}")
    sys.exit(1 if failed else 0)


def _pieces(head: str, items: Iterable[str], sep: str, tail: str) -> Iterator[str]:
    """``head``, then each item with ``sep`` before all but the first, then
    ``tail``: every output's shape, written one piece at a time."""
    yield head
    items = iter(items)
    yield next(items, "")
    for item in items:
        yield sep + item
    yield tail


def _arc_rows(
    t: Tournament, lead: str, mid: str, end: str, sep: str = ""
) -> Iterator[str]:
    """One row for each vertex i that beats someone: ``lead i mid j end`` for
    each j it beats, ascending, with ``sep`` between those arcs."""
    labels = [str(i) for i in range(t.n)]
    for i, row in zip(labels, t._rows):
        if row:
            head = lead + i + mid
            yield head + (end + sep + head).join(compress(labels, _flags(row))) + end


# each format as the pieces of its bytes; json's are those json.dumps gives
# for {"n", "scores", "arcs"}, and matrix's row digit j is "1" iff i beats j
_RENDERERS = {
    "text": lambda t: _pieces(
        f"n={t.n}\nscores: {_seq_str(t._popcounts())}\n", _arc_rows(t, "", " ", "\n"), "", ""
    ),
    "json": lambda t: _pieces(
        f'{{"n": {t.n}, "scores": {_json_ints(t._popcounts())}, "arcs": [',
        _arc_rows(t, "[", ", ", "]", ", "), ", ", "]}\n",
    ),
    "dot": lambda t: _pieces("digraph {\n", _arc_rows(t, "  ", " -> ", ";\n"), "", "}\n"),
    "matrix": lambda t: (format(row, f"0{t.n}b")[::-1] + "\n" for row in t._rows),
    "arclist": lambda t: _arc_rows(t, "", " ", "\n"),
}
TOURNAMENT_FORMATS = tuple(_RENDERERS)


@main.command()
@_sequence_input
@click.option("--format", "fmt", type=click.Choice(TOURNAMENT_FORMATS), default="text")
def realize(sequence, file_, fmt):
    """Construct a tournament realizing the given score sequence."""
    for raw in _inputs(sequence, file_):
        if len(raw) > REALIZE_CAP:
            _fail(
                f"error: sequence of length {len(raw)} exceeds the realize cap "
                f"of {REALIZE_CAP}"
            )
        s = _require_valid(raw)
        jumps = _walk_lengths(s)["down"]
        if jumps > REALIZE_JUMP_CAP:
            _fail(
                f"error: sequence needs {jumps} jumps, over the realize jump cap "
                f"of {REALIZE_JUMP_CAP}"
            )
        t = realize_tournament(s)
        # O(n) check before any output: vertex i must carry score s_i
        if t._popcounts() != list(s.scores):
            _fail("error: realized tournament does not have the given scores")
        sys.stdout.writelines(_RENDERERS[fmt](t))
        sys.stdout.flush()  # ahead of a later literal's error on stderr


@main.command()
@_sequence_input
@click.option(
    "--algorithm",
    type=click.Choice([a.value for a in JumpAlgorithm]),
    default="down",
    help="down: jump to the regular sequence; gr-down: from the transitive "
    "sequence to the input; gr-up: jump to the transitive sequence.",
)
@_text_or_json
def trace(sequence, file_, algorithm, fmt):
    """Print the jump trace of one of the three algorithms."""
    for s in map(_require_valid, _inputs(sequence, file_)):
        steps = _walk_lengths(s)[algorithm.replace("-", "_")]
        if steps * s.n > TRACE_CAP:
            _fail(
                f"error: trace needs {steps} steps of {s.n} scores, over the "
                f"trace cap of {TRACE_CAP} scores"
            )
        jump = JumpAlgorithm(algorithm)
        # the walk's pairs are held, 8 bytes a step (at most 3.6 MB under the
        # cap: the gr-up walk of R_221, 449,735 steps), and each step is
        # written as it is replayed on a list of its own
        walk = _trace(jump, s)
        scores = list(walk.start.scores)
        if fmt == "json":  # the bytes json.dumps gives for {"start", "end", "steps"}
            show, line, sep = _json_ints, '{{"seq": {seq}, "low": {lo}, "high": {hi}}}', ", "
            head = f'{{"start": {show(walk.start)}, "end": {show(walk.end)}, "steps": ['
            tail = "]}\n"
        else:
            show, line, sep = _seq_str, "step {i}: low={lo} high={hi} -> {seq}\n", ""
            head, tail = f"start: {walk.start}\n", f"end: {walk.end}\n"
        pairs = enumerate(_replayed(scores, jump, walk._pairs), start=1)
        lines = (line.format(i=i, lo=lo, hi=hi, seq=show(scores)) for i, (lo, hi) in pairs)
        sys.stdout.writelines(_pieces(head, lines, sep, tail))
        sys.stdout.flush()


@main.command("enumerate")
@click.argument("n", type=int)
@click.option("--stats", "show_stats", is_flag=True)
@_text_or_json
def enumerate_sequences(n, show_stats, fmt):
    """List all valid score sequences of order N, in total-order order."""
    try:
        if show_stats:
            fields = asdict(oracle.stats(n))
            shown = [f"{k}={v}" for k, v in fields.items() if v is not None]
            _echo(fmt, fields, "\n".join(shown))
        else:
            seqs = oracle.enumerate_landau_sequences(n)
            if fmt == "json":
                click.echo(json.dumps([list(s.scores) for s in seqs]))
            else:
                sys.stdout.writelines(f"{s}\n" for s in seqs)
                sys.stdout.flush()
    except (oracle.CapExceededError, ValueError) as exc:
        _fail(f"error: {exc}")


@main.command()
@_sequence_input
@_text_or_json
def compare(sequence, file_, fmt):
    """Jump counts of all three algorithms, with distances and 3-cycle count."""
    for s in map(_require_valid, _inputs(sequence, file_)):
        w = _walk_lengths(s)
        _echo(
            fmt,
            dict(sequence=list(s.scores), **w),
            f"sequence: {s}\ndown {w['down']}\ngr-down {w['gr_down']}\n"
            f"gr-up {w['gr_up']}\nd(R,S)={w['d_regular']}\n"
            f"d(Tr,S)={w['d_transitive']}\nc(S)={w['c']}",
        )


if __name__ == "__main__":
    main()
