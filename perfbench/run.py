#!/usr/bin/env python3
"""Run one matcrypt benchmark workload and print its metrics.

    python3 perfbench/run.py --workload trapdoor --seed 0 --seconds 15 --trace 0

The program is imported from ``src/`` of the checkout this script sits in,
never from an installed copy; without those sources the script exits with
code 2 and prints no result.

``--trace 0`` prints the end-to-end metrics; ``setup_s`` is the median of
three set-ups, two of them in child interpreters that only set up.
``--trace 1`` runs a fixed number of operations (``TRACE_OPS``, or fewer if
``--seconds`` runs out first), so that its counts repeat exactly at a seed:
first untraced in a child interpreter, then traced in this one.  It prints
the per-layer metrics, set-up included, and the tracing overhead (the share
of untraced throughput lost to tracing); the spans go to
``.perfbench/spans-<workload>-<seed>.jsonl``.

Every run needs a fresh interpreter: ``instance`` and ``trapdoor`` keep
process-global caches that nothing public clears, so a second pass in the same
process would mostly measure cache hits.

The line before the last is a JSON object with per-kind latencies and
counts; the last line is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_RUNS = 3   # set-ups per run, each in a fresh interpreter; setup_s is their median
# operations of a traced run, so that its counts repeat exactly at a seed
TRACE_OPS = {
    "full": {"trapdoor": 3000, "protocol": 150, "homcrypt": 300, "cli": 90},
    "tiny": {"trapdoor": 20, "protocol": 3, "homcrypt": 3, "cli": 9},
}


def percentile(sorted_xs: list, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_xs[max(0, math.ceil(p / 100 * len(sorted_xs)) - 1)]


def end_to_end(m, setup_runs: list) -> dict:
    lat = sorted(x for xs in m.latencies.values() for x in xs)
    return {
        "setup_s": (median(setup_runs), "s"),
        "p50_ms": (percentile(lat, 50) * 1e3, "ms"),
        "p90_ms": (percentile(lat, 90) * 1e3, "ms"),
    }


def detail(m, workload) -> dict:
    """Per-kind latencies (a percentile only with ten samples beyond it),
    misses, failure share and the run's bookkeeping."""
    out = {"ops_per_s": m.ops_per_s,
           "failed_share": (m.failed + m.missed) / max(1, m.attempted),
           "missed": m.missed, "wrong": m.wrong, "over_limit": m.over_limit,
           "window_s": m.window_s, "cut_at_deadline": m.cut_at_deadline,
           **workload.detail()}
    kinds = {**m.latencies, **workload.part_latencies()}
    for kind, xs in sorted(kinds.items()):
        xs = sorted(xs)
        out[f"{kind}_n"] = len(xs)
        if kind in m.latencies:
            out[f"{kind}_missed"] = m.missed_by_kind.get(kind, 0)
        for p in (50, 90, 99):
            if len(xs) * (100 - p) / 100 >= 10:
                out[f"{kind}_p{p}_ms"] = percentile(xs, p) * 1e3
    return out


def result_line(m, metrics: dict) -> str:
    return json.dumps({
        "correct": m.wrong == 0 and m.attempted > 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def child(args, *extra) -> dict:
    """The detail line of this script run on the same workload and seed,
    untraced, in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--size", args.size,
           *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170, check=True)
    lines = proc.stdout.strip().splitlines()
    return next(json.loads(line)["detail"] for line in reversed(lines)
                if line.startswith('{"workload"'))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("trapdoor", "protocol", "homcrypt", "cli"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="corpus size; tiny is for the self-test")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and stop")
    ap.add_argument("--ops", type=int, default=None,
                    help="stop after this many operations")
    args = ap.parse_args(argv)

    if not (SRC / "matcrypt" / "__init__.py").is_file():
        print(f"perfbench: no matcrypt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import matcrypt
    if Path(matcrypt.__file__).resolve().parent != SRC / "matcrypt":
        print(f"perfbench: imported matcrypt from {matcrypt.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import bench_workloads as bw
    from bench_trace import Tracer

    if args.setup_only:
        args.ops = 0
    traced_ops = TRACE_OPS[args.size][args.workload] if args.trace else args.ops
    setup_runs = []
    if args.trace:
        base = child(args, "--ops", str(traced_ops))
    elif not args.setup_only and args.ops is None:
        setup_runs = [child(args, "--setup-only")["setup_s"]
                      for _ in range(SETUP_RUNS - 1)]
    OUT.mkdir(exist_ok=True)
    size = bw.SIZES[args.size]
    cls = bw.WORKLOADS[args.workload]
    workload = cls(args.seed, size, OUT) if cls is bw.Cli else cls(args.seed, size)
    tracer = Tracer() if args.trace else None
    try:
        if tracer is not None:
            tracer.install()
        m = bw.measure(workload, args.seconds, tracer, traced_ops)
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.close()

    if args.setup_only:
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "detail": {"setup_s": m.setup_s}}))
        return 0
    info = detail(m, workload)
    if tracer is None:
        setup_runs.append(m.setup_s)
        info["setup_runs_s"] = setup_runs
        metrics = end_to_end(m, setup_runs)
    else:
        metrics = tracer.per_layer()
        metrics["trace.overhead_share"] = (1 - m.ops_per_s / base["ops_per_s"],
                                           "share")
        info.update(untraced_ops_per_s=base["ops_per_s"],
                    traced_ops_per_s=m.ops_per_s, spans_kept=len(tracer.spans),
                    spans_dropped=tracer.spans_dropped)
        tracer.write_spans(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "detail": info}))
    print(result_line(m, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
