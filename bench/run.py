"""Benchmark of the bihomlie command line, run from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Writes the seeded inputs of one workload under bench/work/, then runs
passes until S seconds are used (at least MIN_PASSES). A pass is a fresh
interpreter (bench/worker.py) that calls bihomlie.cli.main once per
operation on freshly read files. Every output of every pass is checked
(checks.py). Each time is scaled to one machine speed by a reference
computation timed beside it, and an operation's time is the median of its
scaled times over the passes; README.md says why. The last line of stdout is the result as JSON: the
end-to-end metrics with --trace 0, the per-layer metrics of
tracing.summarize with --trace 1.
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

import checks
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PASSES = 3
TRACED_MIN_PASSES = 4   # two untraced and two traced, alternating
REF_NOMINAL_S = 0.004   # one reference sample (worker.py) when the machine is quiet
PASS_TIMEOUT_S = 150


def run_pass(ops_path, out_path, traced, env):
    spawn = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "worker.py"), ops_path, out_path,
         "1" if traced else "0"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=PASS_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"pass process exited {proc.returncode}: {proc.stderr[-2000:]}")
    with open(out_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    os.remove(out_path)
    doc["setup_s"] = doc["ready"] - spawn
    doc["traced"] = traced
    doc["duration_s"] = time.perf_counter() - spawn
    return doc


def scaled(seconds, ref):
    """A time scaled to the speed at which a reference sample takes REF_NOMINAL_S."""
    return seconds * REF_NOMINAL_S / ref


def op_times(passes):
    return [statistics.median(scaled(p["results"][i]["s"], p["results"][i]["ref"])
                              for p in passes)
            for i in range(len(passes[0]["results"]))]


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "bihomlie", "cli.py")):
        print("error: no src/bihomlie beside the benchmark; run it from a checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    workdir = os.path.join("bench", "work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    ops = workloads.WORKLOADS[args.workload](args.seed, workdir)
    ops_path = os.path.join(workdir, "ops.json")
    with open(ops_path, "w", encoding="utf-8") as fh:
        json.dump([argv for argv, _spec in ops], fh)
    out_path = os.path.join(workdir, "pass.json")

    min_passes = TRACED_MIN_PASSES if args.trace else MIN_PASSES
    deadline = time.perf_counter() + args.seconds
    passes, failed, wrong = [], 0, []
    while len(passes) < min_passes or (
            time.perf_counter() + statistics.mean(p["duration_s"] for p in passes) <= deadline):
        traced = bool(args.trace) and len(passes) % 2 == 1
        p = run_pass(ops_path, out_path, traced, env)
        for result, (argv, spec) in zip(p["results"], ops):
            status, message = checks.verdict(result, spec)
            if status != "ok":
                failed += 1
                spec["failed"] = True
            if status == "wrong":
                wrong.append(f"{' '.join(argv)}: {message}")
        passes.append(p)
        raw = sum(r["s"] for r in p["results"])
        print(f"pass {len(passes)}{' traced' if traced else ''}: {raw:.3f} s in operations "
              f"({scaled(raw, p['ref']):.3f} s scaled), {p['duration_s']:.3f} s in all",
              file=sys.stderr)
    for line in wrong[:20]:
        print("WRONG " + line, file=sys.stderr)

    plain = [p for p in passes if not p["traced"]]
    times = op_times(plain)
    done = [t for t, (_argv, spec) in zip(times, ops) if not spec.get("failed")]
    if args.trace:
        traced_passes = [p for p in passes if p["traced"]]
        best = min(traced_passes, key=lambda p: sum(scaled(r["s"], r["ref"])
                                                     for r in p["results"]))
        metrics = tracing.summarize(best["spans"], [r["s"] for r in best["results"]],
                                    [scaled(1.0, r["ref"]) for r in best["results"]])
        traced_wall = sum(op_times(traced_passes))
        metrics["trace.wall_s"] = metric(traced_wall, "s")
        metrics["trace.untraced_wall_s"] = metric(sum(times), "s")
        metrics["trace.overhead_s"] = metric(traced_wall - sum(times), "s")
    else:
        metrics = {
            "setup_s": metric(statistics.median(scaled(p["setup_s"], p["ref"])
                                                for p in passes), "s"),
            "wall_s": metric(sum(times), "s"),
            "op_p50_s": metric(statistics.median(done) if done else 0.0, "s"),
            "op_max_s": metric(max(done) if done else 0.0, "s"),
            "peak_rss_mb": metric(max(p["peak_rss_kb"] for p in passes) / 1024, "MB"),
        }
    print(json.dumps({"correct": not wrong, "attempted": len(passes) * len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
