"""Benchmark of nama: four workloads, verified outputs, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload grid-solve --seed 1 --seconds 12 \
        --trace 0

An untraced run starts three fresh processes one after another (see
``worker.py``).  Each imports the package, generates the inputs, warms up,
and runs the same rounds of operations; the first runs whole rounds for a
third of ``--seconds``, the others run as many rounds.  An operation's time
is the fastest of its three runs, and it counts as verified only when all
three outputs pass their checks.  The reported ``setup_s`` is the median of
the three set-ups and ``peak_rss_mb`` the largest peak of the three.  The
BLAS thread pools are pinned to one thread, so all load comes from a single
process at a time.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run and the spans
are written to ``perfbench/_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
WORKLOADS = ("grid-solve", "measure-audit", "exact-cycles", "mc-pushforward")
PROCESSES = 3           # fresh processes per run, set-up samples per run
DEADLINE_S = 170.0      # the whole run, all processes included
BLAS_THREADS = "1"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def child(args, role, deadline, extra=(), seconds=None):
    """Run one worker process to completion; returns its JSON result."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds or args.seconds),
           "--trace", str(args.trace),
           "--workdir", workdir, *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True,
                              timeout=max(1.0, deadline - time.time()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{role} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def merge(procs):
    """Per operation: the fastest run, verified only if every run was."""
    merged = []
    for runs in zip(*(p["records"] for p in procs)):
        bad = next((r for r in runs if r["status"] != "ok"), None)
        merged.append(dict(runs[0], s=min(r["s"] for r in runs),
                           status=bad["status"] if bad else "ok",
                           error=bad["error"] if bad else None))
    return merged


def notes(args, env, records, setups, procs):
    times = sorted(r["s"] for r in records)
    n = len(times)
    # highest percentile with at least ten samples above it
    tail = "n/a (fewer than 11 samples)"
    if n >= 11:
        k = n - 11
        tail = f"p{100 * (k + 1) // n}={times[k]:.4f}s"
    failed = [r for r in records if r["status"] != "ok"]
    errors = {}
    for r in failed:
        errors[r["error"]] = errors.get(r["error"], 0) + 1
    selfcheck = procs[0]["selfcheck"]
    lines = [
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}",
        f"env: python {env['python']}, numpy {env['numpy']}, scipy "
        f"{env['scipy']}, OPENBLAS_NUM_THREADS={env['blas_threads']}, "
        f"nproc={env['nproc']}",
        f"setup_s samples: {', '.join(f'{s:.3f}' for s in setups)}",
        f"processes={len(procs)} rounds={procs[0]['rounds']} "
        f"attempted={n} verified={n - len(failed)} failed={len(failed)} "
        f"failed_ratio={len(failed) / n:.4f}",
        f"failures by type: "
        + (", ".join(f"{k}={v}" for k, v in sorted(errors.items()))
           or "none"),
        f"op time: samples={n} p50={statistics.median(times):.4f}s "
        f"tail {tail}",
        f"self-check: {selfcheck[0]}/{selfcheck[1]} corrupted outputs "
        f"rejected",
    ]
    for p in procs:
        lines += [f"SELF-CHECK HOLE {kind}: a corrupted output passed"
                  for kind in p["holes"]]
    if args.trace:
        layers = procs[0]["layers"]
        ratio = layers["trace.overhead_ratio"]
        lines.append(f"tracing overhead: {layers['trace.overhead_s']:.3f}s "
                     f"per round ({100 * ratio:.1f}%)")
    return lines


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    deadline = time.time() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "nama", "__init__.py")):
        print("perfbench: src/nama not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    e2e_units, layer_units = load_spec()
    os.makedirs(OUT, exist_ok=True)
    try:
        if args.trace:
            trace_file = os.path.join(
                OUT, f"trace-{args.workload}-seed{args.seed}.json")
            setups = [child(args, "setup", deadline)["setup"]
                      for _ in range(PROCESSES - 1)]
            procs = [child(args, "measure", deadline,
                           ["--selfcheck", "1", "--trace-file", trace_file])]
            setups.append(procs[0]["setup"])
        else:
            procs = [child(args, "measure", deadline, ["--selfcheck", "1"],
                           seconds=args.seconds / PROCESSES)]
            procs += [child(args, "measure", deadline,
                            ["--rounds", str(procs[0]["rounds"])])
                      for _ in range(PROCESSES - 1)]
            setups = [p["setup"] for p in procs]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    records = merge(procs)
    setup_s = [s["setup_s"] for s in setups]
    for line in notes(args, procs[0]["env"], records, setup_s, procs):
        print(line)

    times = [r["s"] for r in records]
    verified = sum(r["status"] == "ok" for r in records)
    if args.trace:
        values = dict(procs[0]["layers"])
        values["setup.import_s"] = statistics.median(
            s["import_s"] for s in setups)
        values["setup.warmup_s"] = statistics.median(
            s["warmup_s"] for s in setups)
        units = layer_units
    else:
        values = {"ops_per_s": verified / sum(times),
                  "op_p50_s": statistics.median(times),
                  "setup_s": statistics.median(setup_s),
                  "peak_rss_mb": max(p["peak_rss_mb"] for p in procs),
                  "verified_ratio": verified / len(records)}
        units = e2e_units
    selfcheck = procs[0]["selfcheck"]
    correct = (all(r["status"] != "wrong" for r in records)
               and not any(p["holes"] for p in procs)
               and 0 < selfcheck[0] == selfcheck[1])
    print(json.dumps({
        "correct": correct, "attempted": len(records),
        "failed": len(records) - verified,
        "metrics": {name: {"value": values.get(name, 0), "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
