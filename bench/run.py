"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload hep22-search --seed 1022 --seconds 30 --trace 0

Run it from the root of a checkout. It makes the workload's input text from
the seed with ``opmin.benchgen``, hands only that text to a fresh
``bench/program.py`` process, and prints every metric by name and unit, a
line with the run context, and last the result object
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json and ``--trace 1`` its per-layer ones.
The full record, and the spans of a traced run, are written to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"
SRC = ROOT / "src"

# Every run must end within 180 s; the program gets what is left of that.
DEADLINE_S = 175.0
POINTS = 3  # random points at which the input and every result DAG are evaluated

DEFAULT_SEEDS = {"hep22-search": 1022, "res75-score": 0, "res32-sweep": 0}


def make_input(workload: str, seed: int):
    """The workload's input expression for this seed.

    hep22: the hep-like-22 random polynomial drawn with this seed (1022 is
    the preset). res: the fixed resultant with its terms in a seeded order,
    so the text, and with it the parser's atom numbering, varies by seed.
    """
    from opmin import PRESETS, Expression, random_expr, resultant_expr

    if workload == "hep22-search":
        return random_expr(replace(PRESETS["hep-like-22"], seed=seed))
    m, n = (7, 5) if workload == "res75-score" else (3, 2)
    e = resultant_expr(m, n)
    order = random.Random(seed).sample(range(len(e.terms)), len(e.terms))
    # Deliberately not canonical: only printed and evaluated, never searched.
    return Expression(e.atoms, tuple(e.terms[i] for i in order))


def run_context() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str | None:
    """HEAD of the checkout's git metadata, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the package sources, naming the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted((SRC / "opmin").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def run_program(request: dict, timeout: float) -> dict:
    """Run bench/program.py on the request; its whole process group is stopped."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "program.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(json.dumps(request), timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"program did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"program exited with code {proc.returncode}")
    return json.loads(out)


def main(argv=None) -> int:
    started = time.monotonic()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, help="input seed (default: the workload's pinned input)")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "opmin" / "__init__.py").is_file():
        print(f"bench: no opmin sources under {SRC}", file=sys.stderr)
        return 2
    # Imported only now that the sources are known to exist.
    sys.path.insert(0, str(SRC))
    from opmin import to_string
    from program import PRIME, residues

    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    expr = make_input(args.workload, seed)
    rng = random.Random(seed)
    names = [expr.atoms.text(i) for i in range(len(expr.atoms))]
    points = [{n: rng.randrange(1, PRIME) for n in names} for _ in range(POINTS)]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    request = {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "text": to_string(expr),
        "points": points,
        "expected": residues(expr, points),
        "spans_path": str(OUT / f"{stem}-spans.jsonl"),
    }
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    context = run_context()
    try:
        got = run_program(request, DEADLINE_S - (time.monotonic() - started))
        if set(got["metrics"]) != set(units):
            raise RuntimeError(
                f"metrics differ from BENCHMARK.json: {sorted(set(got['metrics']) ^ set(units))}"
            )
    except (RuntimeError, ValueError) as exc:
        print(f"bench: {args.workload}: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    metrics = {n: {"value": got["metrics"][n], "unit": units[n]} for n in units}
    for n, m in metrics.items():
        print(f"{n} = {m['value']!r} {m['unit']}")
    print(f"fail_rate = {got['failed'] / got['attempted']!r} ratio")
    for raw in ("iters_per_s_raw", "setup_s_raw"):
        if raw in got["record"]:
            print(f"{raw} = {got['record'][raw]!r} {units[raw[:-4]]}")
    if "sweep" in got["record"]:
        print(f"roi_log_width = {got['record']['sweep']['roi_log_width']!r} log_cp")
    record = {"workload": args.workload, "seed": seed, "seconds": args.seconds,
              "trace": args.trace, "context": context, **got}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"context": context, "best_scheme": got["record"].get("best_scheme")}))
    print(
        json.dumps(
            {
                "correct": got["failed"] == 0,
                "attempted": got["attempted"],
                "failed": got["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
