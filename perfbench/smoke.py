"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

1. Runs one round of every workload in this process and requires every
   check to pass (the counted-failure jobs of refute may only fail with
   their named fault).
2. Feeds each kind of check a deliberately corrupted output and requires
   the check to reject it.
3. Runs run.py end to end once on the cheapest workload, traced and
   untraced, and checks the shape of the result line.
4. Runs run.py from a directory that holds only BENCHMARK.json and the
   benchmark, and requires it to fail without printing a result.

Exits 0 when all of that holds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
from jobs import WORKLOADS, build, import_program, make_jobs, run_cli, run_diag  # noqa: E402

OUT = os.path.join(ROOT, ".perfbench_out")
failures: list[str] = []


def expect(cond: bool, what: str):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def one_round(workload: str):
    jobs = make_jobs(workload, 7)
    mm = import_program(workload)
    ctx = build(workload, jobs, mm)
    ctx.mc = mm.metric_core
    os.makedirs(OUT, exist_ok=True)
    out_path = os.path.join(OUT, f"smoke-{workload}.json")
    results = []
    for job in jobs:
        if job.kind == "diag":
            outcome = run_diag(job, mm.sequence_analysis, ctx.space)
        else:
            outcome = run_cli(job, mm.cli, out_path)
        failed, problems = checks.check(job, outcome, ctx)
        expect(not problems and (not failed or job.fault is not None),
               f"{workload}/{job.name} passes its checks {problems[:2]}")
        results.append((job, outcome))
    os.remove(out_path) if os.path.exists(out_path) else None
    return ctx, results


def rejects(job, outcome, ctx, what: str):
    failed, problems = checks.check(job, outcome, ctx)
    expect(bool(problems) or (failed and job.fault is None), f"rejects {what} ({job.name})")


def with_json(outcome, edit):
    data = json.loads(outcome.out)
    edit(data)
    return dataclasses.replace(outcome, out=json.dumps(data).encode())


def corruptions(workload, ctx, results):
    by_name = {job.name: (job, out) for job, out in results}

    def first(prefix):
        return next(v for k, v in by_name.items() if prefix in k)

    if workload == "certify":
        job, out = first("verify-space-d-star")
        rejects(job, with_json(out, lambda d: d.update(m3_ok=False)), ctx, "a flipped axiom flag")
        bad = dict(ctx.spaces)
        space = bad[job.name]
        bad[job.name] = dataclasses.replace(
            space, dist=lambda p, q: ctx.mc.MulDistance(space.dist(p, q).log_value * (1 + 1e-6)))
        rejects(job, out, type(ctx)(**{**vars(ctx), "spaces": bad}), "a distance off by 1e-6")
        job, out = first("verify-problem")
        rejects(job, with_json(out, lambda d: d.update(condition_ok=False)), ctx,
                "a refuted valid contraction")
        job, out = first("estimate-quarter-kannan")
        rejects(job, dataclasses.replace(out, stdout="0.3\n"), ctx, "a wrong estimate")
    elif workload == "refute":
        job, out = first("expr-dist")
        rejects(job, with_json(out, lambda d: d["witnesses"][0].update(
                    points=[1.0] * len(d["witnesses"][0]["points"]))),
                ctx, "a witness that does not replay")
        rejects(job, with_json(out, lambda d: d.update(witnesses=[])), ctx, "missing witnesses")
        job, out = first("contraction")
        rejects(job, with_json(out, lambda d: d["witnesses"][0].update(points=[1.0, 1.0])),
                ctx, "a contraction witness that does not replay")
        job, out = first("breach")
        rejects(job, dataclasses.replace(out, rc=0), ctx, "a missed invariant breach")
        job, out = first("fault-overflow")
        failed, _ = checks.check(job, dataclasses.replace(out, rc=2, exc=None), ctx)
        expect(not failed, "counts the overflow job as passed once it exits 2")
    elif workload == "solve":
        for prefix in ("solve-paper-scalar", "solve-power", "solve-linear-kannan"):
            job, out = first(prefix)

            def shift(d):
                d["steps"][-1]["point"] = [v * 1.001 + 1e-3 for v in d["steps"][-1]["point"]]
                d["footer"]["fixed_point"] = d["steps"][-1]["point"]

            rejects(job, with_json(out, shift), ctx, "a wrong fixed point")

            def shrink(d):
                for s in d["steps"]:
                    s["apriori_log"] *= 1e-6
                    s["aposteriori_log"] *= 1e-6

            rejects(job, with_json(out, shrink), ctx, "error bounds scaled by 1e-6")
    else:
        job, out = first("late-jump")
        res = list(out.result)
        conv, bound = res[0], res[2]
        res[0] = dataclasses.replace(conv, verdict=True, witness_index=None, witness_value=None)
        rejects(job, dataclasses.replace(out, result=tuple(res)), ctx, "a flipped verdict")
        res = list(out.result)
        res[2] = dataclasses.replace(bound, center_index=bound.center_index + 1)
        rejects(job, dataclasses.replace(out, result=tuple(res)), ctx, "a wrong centre index")
        res = list(out.result)
        res[2] = dataclasses.replace(bound, M=bound.M * 1.01)
        rejects(job, dataclasses.replace(out, result=tuple(res)), ctx, "a wrong bound M")
        res = list(out.result)
        res[3] = res[3][::-1]
        rejects(job, dataclasses.replace(out, result=tuple(res)), ctx, "reversed indices")
        verdicts = {key: {checks.expected_diagnostics(j.spec)[key] for j, _ in results}
                    for key in ("sup", "inf")}
        expect(verdicts == {"sup": {True, False}, "inf": {True, False}},
               f"both sup and both inf verdicts occur in a round {verdicts}")
        for job, out in results:
            res = list(out.result)
            for k in (5, 6):
                flipped = not res[k].verdict
                res[k] = dataclasses.replace(res[k], verdict=flipped,
                                             witness_index=None if flipped else 0,
                                             witness_value=None)
                rejects(job, dataclasses.replace(out, result=tuple(res)), ctx,
                        f"a flipped {'sup' if k == 5 else 'inf'} verdict")
                res[k] = out.result[k]


def run_py(cwd: str, *args: str):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def main() -> int:
    for workload in WORKLOADS:
        ctx, results = one_round(workload)
        corruptions(workload, ctx, results)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_py(ROOT, "--workload", "solve", "--seed", "3", "--seconds", "1",
                      "--trace", str(trace))
        ok = proc.returncode == 0
        if ok:
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = (set(res) == {"correct", "attempted", "failed", "metrics"} and res["correct"]
                  and set(res["metrics"]) == {m["name"] for m in bench[section]})
        expect(ok, f"run.py --trace {trace} prints every {section} metric")

    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run_py(bare, "--workload", "solve", "--seed", "1", "--seconds", "1", "--trace", "0")
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "run.py fails without a result when the program is absent")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
