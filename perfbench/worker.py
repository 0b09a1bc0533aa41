"""One workload in one fresh interpreter: set up, run whole rounds, check, report.

    python3 perfbench/worker.py --root ROOT --workload W --seed N --seconds S [--trace] [--probe]

run.py starts this script; it is not meant to be called by hand.  With
--probe it only measures set-up and exits.  Otherwise it runs one
untimed warm-up round and then timed rounds, a closed loop with one client
on one thread, until --seconds have passed and at least MIN_TIMED_JOBS
jobs were timed.  With --trace, untraced and traced rounds alternate and
the per-layer numbers come from the traced ones.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time

from calib import REF_KERNEL_S, normalise, time_kernel
from jobs import WORKLOADS, build, import_program, make_jobs, run_cli, run_diag

MIN_TIMED_JOBS = 100


def kernel_median() -> float:
    return statistics.median(time_kernel() for _ in range(3))


def set_up(root: str, workload: str, seed: int):
    """Import the program and build the workload; set-up time is normalised."""
    jobs = make_jobs(workload, seed)
    k_before = kernel_median()
    t0 = time.perf_counter()
    mm = import_program(workload)
    t1 = time.perf_counter()
    ctx = build(workload, jobs, mm)
    t2 = time.perf_counter()
    k_after = kernel_median()
    src = os.path.join(os.path.realpath(root), "src", "mulmetric")
    if os.path.dirname(os.path.realpath(mm.spaces.__file__)) != src:
        sys.exit(f"perfbench: imported mulmetric from {mm.spaces.__file__}, not from {src}")
    kernel_s = 0.5 * (k_before + k_after)
    setup = {"import_s": normalise(t1 - t0, kernel_s), "build_s": normalise(t2 - t1, kernel_s),
             "raw_import_s": t1 - t0, "raw_build_s": t2 - t1}
    return jobs, mm, ctx, setup


def quantiles(values: list[float]) -> tuple[float, float]:
    """Median and 90th percentile."""
    return statistics.median(values), statistics.quantiles(values, n=10)[8]


class Runner:
    def __init__(self, root, workload, jobs, mm, ctx, tracer=None):
        import checks  # numpy is loaded by now, so this adds nothing to set-up

        self.check = checks.check
        self.jobs, self.mm, self.ctx = jobs, mm, ctx
        ctx.mc = mm.metric_core
        self.tracer = tracer
        out_dir = os.path.join(root, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        self.out_path = os.path.join(out_dir, f"{workload}-{os.getpid()}.json")
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.faults: set[str] = set()
        self.layer_totals: dict[str, float] = {}

    def execute(self, job, space):
        if job.kind == "diag":
            return run_diag(job, self.mm.sequence_analysis, space)
        return run_cli(job, self.mm.cli, self.out_path)

    def round(self, traced: bool = False):
        """One pass over the job list: (normalised latencies, raw latencies)."""
        tr = self.tracer
        space = getattr(self.ctx, "space", None)
        if traced:
            tr.install()
            if space is not None:
                space = tr.traced_space(space)
            before = tr.snapshot()
        norm, raw, kernels = [], [], []
        for job in self.jobs:
            k_before = time_kernel()
            if traced:
                tr.active = True
            outcome = self.execute(job, space)
            if traced:
                tr.active = False
                tr.extra["cli.out_bytes"] += len(outcome.out) + len(outcome.stdout.encode())
            k_after = time_kernel()
            kernels += [k_before, k_after]
            raw.append(outcome.wall_s)
            try:
                failed, problems = self.check(job, outcome, self.ctx)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                failed, problems = False, [f"{job.name}: malformed output ({exc!r})"]
            self.attempted += 1
            if failed and job.fault is not None:
                self.failed += 1
                self.faults.add(job.fault)
            elif failed:
                self.failed += 1
                self.problems.append(f"{job.name}: unexpected failure")
            self.problems += problems
        # Each job's speed reference is the median of the six kernel runs
        # nearest to it (the two around it and the two on each side), which
        # follows the host's drift while damping the noise of single runs.
        for i, wall in enumerate(raw):
            near = sorted(kernels[max(0, 2 * i - 2):2 * i + 4])
            ref = near[len(near) // 2]
            norm.append(normalise(wall, ref))
        if traced:
            tr.remove()
            factor = REF_KERNEL_S / statistics.fmean(kernels)
            for key, value in tr.snapshot().items():
                delta = value - before.get(key, 0)
                if key.startswith(("incl|", "self|")):
                    delta *= factor
                self.layer_totals[key] = self.layer_totals.get(key, 0) + delta
        return norm, raw


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--probe", action="store_true")
    args = p.parse_args(argv)

    jobs, mm, ctx, setup = set_up(args.root, args.workload, args.seed)
    if args.probe:
        print(json.dumps(setup))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer, layer_metrics
        tracer = Tracer(mm)
    runner = Runner(args.root, args.workload, jobs, mm, ctx, tracer)
    runner.round()                                   # warm-up, checked, not timed
    norm, raw, traced_norm, untraced_norm = [], [], [], []
    traced_rounds = 0
    t_start = time.perf_counter()
    while True:
        n, r = runner.round()
        if tracer is None:
            norm += n
            raw += r
        else:
            untraced_norm += n
            traced_norm += runner.round(traced=True)[0]
            traced_rounds += 1
        elapsed = time.perf_counter() - t_start
        if elapsed >= args.seconds and (tracer is not None or len(norm) >= MIN_TIMED_JOBS):
            break
    with contextlib.suppress(FileNotFoundError):
        os.remove(runner.out_path)

    for line in runner.problems[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    for fault in sorted(runner.faults):
        print(f"perfbench: counted failure (program fault): {fault}", file=sys.stderr)
    result = {"correct": not runner.problems, "attempted": runner.attempted,
              "failed": runner.failed}
    if tracer is None:
        p50, p90 = quantiles(norm)
        raw50, raw90 = quantiles(raw)
        result["metrics"] = {
            "jobs_per_s": len(norm) / sum(norm), "job_ms_p50": p50 * 1e3,
            "job_ms_p90": p90 * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        result["raw"] = {"jobs_per_s": len(raw) / sum(raw), "job_ms_p50": raw50 * 1e3,
                         "job_ms_p90": raw90 * 1e3}
    else:
        result["metrics"] = layer_metrics(runner.layer_totals, traced_rounds)
        result["metrics"]["trace.overhead"] = sum(traced_norm) / sum(untraced_norm)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
