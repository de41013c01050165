"""Command-line front end.

Subcommands: simplify, search, sweep, bruteforce, generate, analyze.
Exit codes: 0 success; 1 malformed command line; 2 bad input or argument
value (unreadable or unparsable file, unknown scheme atom or schedule, a
number out of range such as --n-updates 0, input nested too deeply); 141,
silently, when standard output is closed early (``| head``).
``--criterion uct`` means SA-UCT with the constant schedule.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import benchgen
from .cse import dag_listing, simplify
from .expr import ParseError, naive_op_count, parse, to_string
from .horner import (
    Direction,
    Scheme,
    apply_scheme,
    occurrence_order,
    scheme_from_string,
    scheme_to_string,
    tree_op_count,
)
from .mcts import (
    Schedule,
    SearchParams,
    brute_force_search,
    repeat_search,
    result_to_json_dict,
)
from .sweep import (
    DEFAULT_EPSILON,
    SweepConfig,
    analyze_rows,
    read_csv,
    run_sweep,
    write_csv,
)


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _load_expression(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def _add_search_flags(p):
    p.add_argument("--n-updates", type=int, default=1000, help="tree updates per run")
    p.add_argument("--criterion", choices=["uct", "sa-uct"], default="sa-uct")
    p.add_argument("--schedule", default="linear", help="linear, const, or exp:<halflife>")
    p.add_argument("--direction", choices=["forward", "backward"], default="forward")
    p.add_argument("--seed", type=int, default=0)


def _schedule(args) -> Schedule:
    schedule = Schedule.from_string(args.schedule)
    return Schedule.constant() if args.criterion == "uct" else schedule


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="opmin", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simplify", help="apply a scheme and report operation counts")
    p.add_argument("exprfile")
    p.add_argument("--scheme", default="occurrence", help='"x,y" order, or "occurrence"')
    p.add_argument("--direction", choices=["forward", "backward"], default="forward")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_simplify)

    p = sub.add_parser("search", help="MCTS search for a low-operation scheme")
    p.add_argument("exprfile")
    p.add_argument("--cp", type=float, default=1.0, help="exploration constant / initial temperature")
    _add_search_flags(p)
    p.add_argument("--repeats", type=int, default=1, help="independent runs, best kept")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("sweep", help="many runs over log-uniform cp values; CSV out")
    p.add_argument("exprfile")
    p.add_argument("--cp-min", type=float, default=0.01)
    p.add_argument("--cp-max", type=float, default=10.0)
    p.add_argument("--samples", type=int, default=4000)
    _add_search_flags(p)
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default="-", help="output path (default stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bruteforce", help="exhaustive minimum over all full schemes")
    p.add_argument("exprfile")
    p.add_argument("--direction", choices=["forward", "backward"], default="forward")
    p.add_argument("--max-vars", type=int, default=8)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_bruteforce)

    p = sub.add_parser("generate", help="write a benchmark expression file")
    gsub = p.add_subparsers(dest="generator", required=True)
    g = gsub.add_parser("resultant", help="res(m,n) Sylvester determinant")
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--out", default="-")
    g.set_defaults(func=cmd_generate_resultant)
    g = gsub.add_parser("random", help="seeded random sparse polynomial")
    g.add_argument("--vars", type=int, required=True)
    g.add_argument("--terms", type=int, required=True)
    g.add_argument("--max-exponent", type=int, default=4)
    g.add_argument("--coeff-range", type=int, default=9)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", default="-")
    g.set_defaults(func=cmd_generate_random)
    g = gsub.add_parser("preset", help="pinned named benchmark")
    g.add_argument("--name", required=True, choices=sorted(benchgen.PRESETS))
    g.add_argument("--out", default="-")
    g.set_defaults(func=cmd_generate_preset)

    p = sub.add_parser("analyze", help="region-of-interest report for a sweep CSV")
    p.add_argument("csvfile")
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_analyze)

    return parser


def _ops_json(c) -> dict:
    return {"mul": c.mul, "add": c.add, "total": c.total}


def cmd_simplify(args) -> int:
    e = _load_expression(args.exprfile)
    direction = Direction(args.direction)
    if args.scheme == "occurrence":
        scheme = Scheme(occurrence_order(e).order, direction)
    else:
        scheme = scheme_from_string(args.scheme, e.atoms)
        if ";" not in args.scheme:
            scheme = Scheme(scheme.order, direction)
    naive = naive_op_count(e)
    horner_count = tree_op_count(apply_scheme(e, scheme))
    result = simplify(e, scheme)
    listing = dag_listing(result.dag, e.atoms)
    if args.format == "json":
        doc = {
            "naive": _ops_json(naive),
            "horner": _ops_json(horner_count),
            "cse": _ops_json(result.ops),
            "scheme": scheme_to_string(scheme, e.atoms),
            "dag": listing.split("\n"),
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"naive:  {naive}")
        print(f"horner: {horner_count}")
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
        repeats=args.repeats,
        schedule=_schedule(args),
        direction=Direction(args.direction),
        seed=args.seed,
    )
    result = repeat_search(e, params)
    print(json.dumps(result_to_json_dict(result, params, e.atoms), indent=2))
    return 0


def cmd_sweep(args) -> int:
    e = _load_expression(args.exprfile)
    config = SweepConfig(
        cp_min=args.cp_min,
        cp_max=args.cp_max,
        samples=args.samples,
        n_updates=args.n_updates,
        direction=Direction(args.direction),
        schedule=_schedule(args),
        base_seed=args.seed,
    )
    rows = run_sweep(e, config, jobs=args.jobs)
    out = sys.stdout if args.out == "-" else open(args.out, "w", encoding="utf-8", newline="")
    try:
        if args.format == "json":
            json.dump([row.__dict__ for row in rows], out, indent=2)
            out.write("\n")
        else:
            write_csv(rows, out)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_bruteforce(args) -> int:
    e = _load_expression(args.exprfile)
    direction = Direction(args.direction)
    result = brute_force_search(e, direction, max_vars=args.max_vars)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "best_total": result.best_delta.total,
                    "best_mul": result.best_delta.mul,
                    "best_add": result.best_delta.add,
                    "scheme": scheme_to_string(result.best_scheme, e.atoms),
                    "schemes_evaluated": result.iterations_run,
                },
                indent=2,
            )
        )
    else:
        print(f"minimum: {result.best_delta}")
        print(f"scheme:  {scheme_to_string(result.best_scheme, e.atoms)}")
        print(f"schemes evaluated: {result.iterations_run}")
    return 0


def _write_expression(e, out_path: str) -> int:
    text = to_string(e) + "\n"
    if out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def cmd_generate_resultant(args) -> int:
    return _write_expression(benchgen.resultant_expr(args.m, args.n), args.out)


def cmd_generate_random(args) -> int:
    params = benchgen.RandomExprParams(
        n_vars=args.vars,
        n_terms=args.terms,
        max_exponent=args.max_exponent,
        coeff_range=args.coeff_range,
        seed=args.seed,
    )
    return _write_expression(benchgen.random_expr(params), args.out)


def cmd_generate_preset(args) -> int:
    return _write_expression(benchgen.preset_expr(args.name), args.out)


def cmd_analyze(args) -> int:
    with open(args.csvfile, "r", encoding="utf-8", newline="") as fh:
        rows = read_csv(fh)
    report = analyze_rows(rows, epsilon=args.epsilon)
    if args.format == "csv":
        print("key,value")
        for k, v in report.items():
            print(f"{k},{v}")
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
    except RecursionError:
        print("opmin: error: input nested too deeply for the Horner build", file=sys.stderr)
        return 2
    except (OSError, ParseError, ValueError, KeyError) as exc:
        print(f"opmin: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
