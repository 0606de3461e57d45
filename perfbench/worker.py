"""One fresh process of the benchmark: set up a workload, then measure it.

``--role setup`` imports the package, generates the first round's inputs,
runs the warm-up operations, prints its set-up timings as JSON and exits.
``--role measure`` does the same set-up, then runs rounds (see
:func:`measure`), checks every output and prints one record per operation.

Run through ``perfbench/run.py``, which sets the environment and combines
the processes' records.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import time

T_START = time.perf_counter()

HARD_STOP_S = 120.0        # start no new round after this long
WARMUP_STREAM = 999_999    # rng stream of the warm-up inputs


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--role", choices=("setup", "measure"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--rounds", type=int, default=0,
                   help="run exactly this many rounds (0: until --seconds)")
    p.add_argument("--selfcheck", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--trace-file", default=None)
    return p.parse_args()


def round_rng(seed, index):
    import numpy as np
    return np.random.default_rng([abs(seed), index])


class Runner:
    """Runs operations, times the program calls, checks every output."""

    def __init__(self, workloads, tracer=None):
        self.w = workloads
        self.tracer = tracer
        self.selfcheck = [0, 0]      # corrupted outputs rejected, tried
        self.holes = []              # op kinds whose check took a bad output

    def run_op(self, op, traced=False, selfcheck=False):
        if traced:
            self.tracer.install()
        error = None
        t0 = time.perf_counter()
        try:
            raw = op.run()
        except Exception as exc:       # the op failed; record why, go on
            error = type(exc).__name__
        finally:
            elapsed = time.perf_counter() - t0
            if traced:
                self.tracer.uninstall()
        rec = {"s": elapsed, "status": "failed", "error": error,
               "updates": 0}
        if error is not None:
            return rec
        try:
            out = op.collect(raw)
            del raw
            op.verify(out)
            rec["status"] = "ok"
            rec["updates"] = op.updates(out)
        except Exception as exc:       # a wrong or unreadable output
            rec["status"] = "wrong"
            rec["error"] = f"{type(exc).__name__}: {exc}"
            return rec
        if selfcheck:
            self.selfcheck[1] += 1
            try:
                op.verify(op.corrupt(out))
                self.holes.append(op.kind)
            except self.w.Mismatch:
                self.selfcheck[0] += 1
        return rec


def setup(args):
    """Import, generate round 0, warm up; returns (workloads, ops, timings)."""
    import nama.cli  # noqa: F401  (imports every nama module)
    t_import = time.perf_counter()
    import workloads
    build, warm = workloads.WORKLOADS[args.workload]
    os.makedirs(args.workdir, exist_ok=True)
    first = build(round_rng(args.seed, 0), os.path.join(args.workdir, "r0"))
    t_gen = time.perf_counter()
    runner = Runner(workloads)
    for op in warm(round_rng(args.seed, WARMUP_STREAM),
                   os.path.join(args.workdir, "warm")):
        runner.run_op(op)
    shutil.rmtree(os.path.join(args.workdir, "warm"), ignore_errors=True)
    t_ready = time.perf_counter()
    timings = {"import_s": t_import - T_START, "gen_s": t_gen - t_import,
               "warmup_s": t_ready - t_gen, "setup_s": t_ready - T_START}
    return workloads, first, timings


def environment():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0))}


def combine(op, plain, traced):
    """One record per operation; ok only when its traced run was too."""
    bad = next((p for p in [plain] + traced if p["status"] != "ok"), None)
    return {"kind": op.kind, "s": plain["s"],
            "status": bad["status"] if bad else "ok",
            "error": bad["error"] if bad else None,
            "traced_s": sum(p["s"] for p in traced),
            "updates": plain["updates"]}


def measure(args, workloads, first):
    """Run whole rounds: ``--rounds`` of them, or until ``--seconds``.

    Traced, every operation runs once untraced and once traced, taking
    turns at which goes first so neither side always finds the caches warm.
    """
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
    runner = Runner(workloads, tracer)
    build, _ = workloads.WORKLOADS[args.workload]
    ops, rounds, records = first, 0, []
    t_loop = time.perf_counter()
    while True:
        for k, op in enumerate(ops):
            traced = []
            if tracer is not None and k % 2:
                traced.append(runner.run_op(op, traced=True))
            plain = runner.run_op(op, selfcheck=args.selfcheck and not rounds)
            if tracer is not None and not k % 2:
                traced.append(runner.run_op(op, traced=True))
            records.append(combine(op, plain, traced))
        shutil.rmtree(os.path.join(args.workdir, f"r{rounds}"),
                      ignore_errors=True)
        rounds += 1
        elapsed = time.perf_counter() - t_loop
        if args.rounds:
            if rounds >= args.rounds:
                break
        elif elapsed >= args.seconds or elapsed >= HARD_STOP_S:
            break
        ops = build(round_rng(args.seed, rounds),
                    os.path.join(args.workdir, f"r{rounds}"))
    result = {"rounds": rounds, "records": records,
              "selfcheck": runner.selfcheck, "holes": runner.holes,
              "peak_rss_mb":
              resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, records, rounds)
    return tracer, result


def layer_metrics(tracer, records, rounds):
    """Per-layer totals of the traced runs, per round."""
    layers = {k: v / rounds for k, v in tracer.layer_totals().items()}
    layers["realma.solve.updates"] = sum(r["updates"]
                                         for r in records) / rounds
    plain_s = sum(r["s"] for r in records)
    traced_s = sum(r["traced_s"] for r in records)
    layers["trace.overhead_s"] = (traced_s - plain_s) / rounds
    layers["trace.overhead_ratio"] = traced_s / plain_s - 1
    layers["trace.spans"] = len(tracer.spans) / rounds
    return layers


def main():
    args = parse_args()
    workloads, first, timings = setup(args)
    result = {"setup": timings, "env": environment()}
    if args.role == "measure":
        tracer, measured = measure(args, workloads, first)
        result.update(measured)
        if tracer is not None and args.trace_file:
            tracer.dump(args.trace_file, {
                "workload": args.workload, "seed": args.seed,
                "env": result["env"], "setup": timings,
                "rounds": measured["rounds"], "layers": measured["layers"]})
    shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
