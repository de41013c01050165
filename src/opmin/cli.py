"""Command-line front end.

Subcommands: simplify, search, sweep, bruteforce, generate, analyze.
Exit codes: 0 success; 1 malformed command line; 2 bad input or argument
value (unreadable or unparsable file, unknown scheme atom or schedule, a
number out of range such as --n-updates 0 or --jobs 0, a malformed sweep
CSV); 3 the self-check failed: the DAG that simplify reports, or the DAG
of the best scheme of search or bruteforce, does not evaluate like the
input at 3 seeded points modulo 2^61-1, and nothing is printed to
standard output; 141, silently, when standard output is closed early
(``| head``).
``--criterion uct`` means SA-UCT with the constant schedule.
search, and bruteforce with --format json, print one JSON result record:
best_total, best_mul, best_add, scheme (the order as "a,b"), direction
("forward" or "backward"), then criterion, cp, n_updates, repeats, seed
(search) or schemes_evaluated (bruteforce).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

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
from .mcts import Schedule, SearchParams, brute_force_search, search
from .sweep import (
    DEFAULT_EPSILON,
    SweepConfig,
    analyze_rows,
    read_csv,
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
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def _self_check(e, dag) -> None:
    """Raise _SelfCheckError unless *dag* has *e*'s residues at seeded points."""
    rng = random.Random(0)
    for _ in range(_CHECK_POINTS):
        point = {a: rng.randrange(_CHECK_PRIME) for a in range(len(e.atoms))}
        if eval_dag_mod_p(dag, point, _CHECK_PRIME) != eval_mod_p(e, point, _CHECK_PRIME):
            raise _SelfCheckError("self-check failed: the result does not evaluate like the input")


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


def _result_json(result, atoms, **extra) -> str:
    """The result record of search and bruteforce; *extra* keys come last."""
    best, scheme = result.best_delta, result.best_scheme
    record = {
        "best_total": best.total,
        "best_mul": best.mul,
        "best_add": best.add,
        "scheme": order_to_string(scheme.order, atoms),
        "direction": scheme.direction.value,
        **extra,
    }
    return json.dumps(record, indent=2)


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
        repeats=args.repeats,
        schedule=_schedule(args),
        direction=Direction(args.direction),
        seed=args.seed,
    )
    result = search(e, params)
    _self_check(e, simplify(e, result.best_scheme).dag)
    print(
        _result_json(
            result,
            e.atoms,
            criterion=params.schedule.criterion,
            cp=params.cp,
            n_updates=params.n_updates,
            repeats=params.repeats,
            seed=params.seed,
        )
    )
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
    _self_check(e, simplify(e, result.best_scheme).dag)
    if args.format == "json":
        print(_result_json(result, e.atoms, schemes_evaluated=result.iterations_run))
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
    except _SelfCheckError as exc:
        print(f"opmin: error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ParseError, ValueError) as exc:
        print(f"opmin: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
