"""Command-line front end.

Subcommands: simplify, search, sweep, bruteforce, generate, analyze.
Exit codes: 0 success; 1 malformed command line; 2 bad input or argument
value (unreadable or unparsable file, unknown scheme atom, a --scheme
whose text after ";" is not a direction, a number out of range such as
--n-updates 0, --jobs 0 or --max-vars 0, a sweep --out that cannot be
opened, which fails before any run, a malformed sweep CSV: a row with
the wrong field count, a cell of the wrong type, a cp that is not
positive and finite, an unknown criterion or direction, a negative
sample, seed or operation count, n_updates below 1, ops_total other
than ops_mul + ops_add, or a sample number that an earlier row has), or
input too large for the memory available, reported in the one line
"opmin: error: out of memory"; 3 the self-check failed: the DAG that
simplify reports, or the DAG of the best scheme of search or bruteforce,
does not evaluate like the input at 3 seeded points modulo 2^61-1, and
nothing is printed to standard output; 141, silently, when standard
output is closed early (``| head``).
The contents of an existing --out file of sweep or generate are replaced
only when the command succeeds; a failed command leaves the file as it
was, or removes it if it did not exist.
search makes one MCTS run and prints its record, a JSON object with the
keys of a sweep row (below): sample (0), cp, criterion ("uct" or
"sa-uct"), n_updates, direction ("forward" or "backward"), seed,
ops_total, ops_mul, ops_add, scheme (the order as "a,b"); for a cp above 0
it is row 0 of sweep --cp-min C --cp-max C --samples 1 --seed S --format
json. bruteforce --format json prints the keys ops_total, ops_mul,
ops_add, scheme, direction, schemes_evaluated, histogram, where histogram
lists [total, orders] pairs in increasing total: how many orders score
each total, so the orders sum to schemes_evaluated. The counts are those
of the file's own atom numbering, first-seen order: the same expression
with its atoms met in another order may count differently away from the
minimum (res(3,2) as generate writes it has 940 orders at 39; numbered
a0..a3, b0..b2, 954).
In a --scheme of simplify, "," separates atoms and ";" the direction only
outside parentheses: a "," or ";" inside them belongs to a function atom,
as in "f(x,y),z;backward".
sweep runs sample k at point k mod G of a grid of G cp values, spaced
evenly in log cp from --cp-min to --cp-max, and with seed --seed plus k;
G = min(--samples, 1 + ceil(10 log10(cp_max / cp_min))), a spacing of
0.1 decade or finer when --samples allows, and one point when --cp-min
equals --cp-max: the best of R runs at cp C is sweep --cp-min C --cp-max C
--samples R. It writes one CSV row per run, in sample order, with the
columns sample, cp, criterion, n_updates, direction, seed, ops_total,
ops_mul, ops_add, scheme; with --format json it writes a list of rows
whose keys are the same names. analyze counts a cp value as good when
one of its rows has ops_total at most 1 + --epsilon times the least; any
finite --epsilon >= 0 is accepted, and 0 counts the least alone. It
reports the keys samples, cp_min, cp_max, global_min_ops, epsilon, points,
roi_log_width, roi_cp_interval (the [low, high] C_p band, [cp, cp] when
all cp values are equal), where points is the number of distinct cp
values; with --format csv it writes a key,value header, then one row per
key whose value is the JSON text of the value.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import random
import sys
from collections import Counter
from dataclasses import asdict

from . import benchgen
from .cse import dag_listing, eval_dag_mod_p, simplify
from .expr import ParseError, eval_mod_p, naive_op_count, parse, to_string
from .horner import (
    Direction,
    Scheme,
    occurrence_order,
    order_to_string,
    scheme_from_string,
    scheme_to_string,
)
from .mcts import Criterion, SearchParams, brute_force_search
from .sweep import (
    DEFAULT_EPSILON,
    SweepConfig,
    analyze_rows,
    read_csv,
    run_row,
    run_sweep,
    write_csv,
)


_CHECK_PRIME = 2**61 - 1
_CHECK_POINTS = 3


class _SelfCheckError(Exception):
    """A result DAG does not evaluate like its input."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _load_expression(path: str):
    # utf-8-sig drops a leading byte-order mark, which some editors write.
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse(fh.read())


def _self_check(e, dag) -> None:
    """Raise _SelfCheckError unless *dag* has *e*'s residues at seeded points."""
    rng = random.Random(0)
    for _ in range(_CHECK_POINTS):
        point = {a: rng.randrange(_CHECK_PRIME) for a in range(len(e.atoms))}
        if eval_dag_mod_p(dag, point, _CHECK_PRIME) != eval_mod_p(e, point, _CHECK_PRIME):
            raise _SelfCheckError("self-check failed: the result does not evaluate like the input")


# simplify, bruteforce and the search commands declare --direction alike.
_DIRECTION_FLAG = {"choices": [d.value for d in Direction], "default": Direction.FORWARD.value}


def _add_search_flags(p):
    p.add_argument("--n-updates", type=int, default=1000, help="tree updates per run")
    p.add_argument(
        "--criterion",
        choices=[c.value for c in Criterion],
        default=Criterion.SA_UCT.value,
        help="uct keeps C_p at every iteration; sa-uct uses C_p*(N-i)/N at iteration i of N",
    )
    p.add_argument("--direction", **_DIRECTION_FLAG)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="opmin", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simplify", help="apply a scheme and report operation counts")
    p.add_argument("exprfile")
    scheme_help = '"x,y" or "x,y;backward" order (its direction overrides --direction), or "occurrence"'
    p.add_argument("--scheme", default="occurrence", help=scheme_help)
    p.add_argument("--direction", **_DIRECTION_FLAG)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_simplify)

    p = sub.add_parser("search", help="MCTS search for a low-operation scheme")
    p.add_argument("exprfile")
    p.add_argument("--cp", type=float, default=1.0, help="exploration constant / initial temperature")
    _add_search_flags(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("sweep", help="many runs over a log-spaced cp grid; CSV out")
    p.add_argument("exprfile")
    p.add_argument("--cp-min", type=float, default=0.01)
    p.add_argument("--cp-max", type=float, default=10.0)
    p.add_argument("--samples", type=int, default=4000)
    _add_search_flags(p)
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes, at most --samples; they share one score cache",
    )
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default="-", help="output path (default stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bruteforce", help="exhaustive minimum over all full schemes")
    p.add_argument("exprfile")
    p.add_argument("--direction", **_DIRECTION_FLAG)
    p.add_argument("--max-vars", type=int, default=8)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_bruteforce)

    p = sub.add_parser("generate", help="write a benchmark expression file")
    p.set_defaults(func=cmd_generate)
    gsub = p.add_subparsers(dest="generator", required=True)
    g = gsub.add_parser("resultant", help="res(m,n) Sylvester determinant")
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--out", default="-")
    g = gsub.add_parser("random", help="seeded random sparse polynomial")
    g.add_argument("--vars", type=int, required=True)
    g.add_argument("--terms", type=int, required=True)
    g.add_argument("--max-exponent", type=int, default=4)
    g.add_argument("--coeff-range", type=int, default=9)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", default="-")
    g = gsub.add_parser("preset", help="pinned named benchmark")
    g.add_argument("--name", required=True, choices=sorted(benchgen.PRESETS))
    g.add_argument("--out", default="-")

    p = sub.add_parser("analyze", help="region-of-interest report for a sweep CSV")
    p.add_argument("csvfile")
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_analyze)

    return parser


@contextlib.contextmanager
def _output(path: str):
    """Standard output when *path* is "-", else a buffer for the file *path*.

    The file is opened, without truncation, at once, so a path that cannot be
    written fails before any work. It gets the buffer only when the block
    succeeds: a regular file is then truncated and written, and anything
    else, such as a FIFO or /dev/null, is written. If the block raises, an
    existing file keeps its contents, and a file that did not exist is
    removed again. The file is never replaced, so a symlink's target is
    written and an existing file keeps its mode.
    """
    if path == "-":
        yield sys.stdout
        return
    existed = os.path.exists(path)  # False for a dangling symlink
    with open(path, "a", encoding="utf-8", newline="") as fh:
        buf = io.StringIO()
        try:
            yield buf
        except BaseException:
            if not existed:
                os.unlink(os.path.realpath(path))  # a symlink stays, its new target goes
            raise
        if os.path.isfile(path):
            fh.truncate(0)
        fh.write(buf.getvalue())


def _ops_json(c) -> dict:
    return {"mul": c.mul, "add": c.add, "total": c.total}


def cmd_simplify(args) -> int:
    e = _load_expression(args.exprfile)
    direction = Direction(args.direction)
    if args.scheme == "occurrence":
        scheme = Scheme(occurrence_order(e).order, direction)
    else:
        scheme = scheme_from_string(args.scheme, e.atoms, default=direction)
    naive = naive_op_count(e)
    result = simplify(e, scheme)
    _self_check(e, result.dag)
    listing = dag_listing(result.dag, e.atoms)
    if args.format == "json":
        doc = {
            "naive": _ops_json(naive),
            "horner": _ops_json(result.horner_ops),
            "cse": _ops_json(result.ops),
            "scheme": scheme_to_string(scheme, e.atoms),
            "dag": listing.split("\n"),
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"naive:  {naive}")
        print(f"horner: {result.horner_ops}")
        print(f"cse:    {result.ops}")
        print(f"scheme: {scheme_to_string(scheme, e.atoms)}")
        print("dag:")
        print(listing)
    return 0


def cmd_search(args) -> int:
    e = _load_expression(args.exprfile)
    params = SearchParams(
        cp=args.cp,
        n_updates=args.n_updates,
        criterion=Criterion(args.criterion),
        direction=Direction(args.direction),
        seed=args.seed,
    )
    row = run_row(e, params)
    # Check the scheme as it reads back from the printed text.
    _self_check(e, simplify(e, scheme_from_string(row.scheme, e.atoms, default=params.direction)).dag)
    print(json.dumps(asdict(row), indent=2))
    return 0


def cmd_sweep(args) -> int:
    e = _load_expression(args.exprfile)
    config = SweepConfig(
        cp_min=args.cp_min,
        cp_max=args.cp_max,
        samples=args.samples,
        n_updates=args.n_updates,
        direction=Direction(args.direction),
        criterion=Criterion(args.criterion),
        base_seed=args.seed,
    )
    # Open the output first: a path that cannot be written fails at once,
    # not after the sweep; a failed sweep leaves an existing file as it was.
    with _output(args.out) as out:
        rows = run_sweep(e, config, jobs=args.jobs)
        if args.format == "json":
            json.dump([asdict(row) for row in rows], out, indent=2)
            out.write("\n")
        else:
            write_csv(rows, out)
    return 0


def cmd_bruteforce(args) -> int:
    e = _load_expression(args.exprfile)
    direction = Direction(args.direction)
    result = brute_force_search(e, direction, max_vars=args.max_vars)
    _self_check(e, simplify(e, result.best_scheme).dag)
    if args.format == "json":
        best, scheme = result.best_delta, result.best_scheme
        record = {
            "ops_total": best.total,
            "ops_mul": best.mul,
            "ops_add": best.add,
            "scheme": order_to_string(scheme.order, e.atoms),
            "direction": scheme.direction.value,
            "schemes_evaluated": result.iterations_run,
            "histogram": sorted(map(list, Counter(result.deltas_per_iteration).items())),
        }
        print(json.dumps(record, indent=2))
    else:
        print(f"minimum: {result.best_delta}")
        print(f"scheme:  {scheme_to_string(result.best_scheme, e.atoms)}")
        print(f"schemes evaluated: {result.iterations_run}")
    return 0


def cmd_generate(args) -> int:
    if args.generator == "resultant":
        e = benchgen.resultant_expr(args.m, args.n)
    elif args.generator == "random":
        e = benchgen.random_expr(
            benchgen.RandomExprParams(args.vars, args.terms, args.max_exponent, args.coeff_range, args.seed)
        )
    else:
        e = benchgen.preset_expr(args.name)
    with _output(args.out) as out:
        out.write(to_string(e) + "\n")
    return 0


def cmd_analyze(args) -> int:
    with open(args.csvfile, "r", encoding="utf-8-sig", newline="") as fh:
        rows = read_csv(fh)
    report = analyze_rows(rows, epsilon=args.epsilon)
    if args.format == "csv":
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(["key", "value"])
        w.writerows((k, json.dumps(v)) for k, v in report.items())
    else:
        print(json.dumps(report, indent=2))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Keep the interpreter's final flush from failing a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except _SelfCheckError as exc:
        print(f"opmin: error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ParseError, ValueError) as exc:
        message = str(exc)
    except MemoryError:
        # Report after the handler: until it ends, the traceback keeps alive
        # whatever filled memory, and printing may need more.
        message = "out of memory"
    print(f"opmin: error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
