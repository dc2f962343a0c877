"""One pass: run every operation of a workload once through the CLI entry
point, in this fresh process, and write the times and outputs as JSON.

    python3 bench/worker.py OPS_JSON OUT_JSON TRACE(0|1)

bihomlie.cli is imported first, so the clock reading READY marks the end of
interpreter start-up plus that import; run.py subtracts its spawn time.
A fixed reference computation is timed before the first operation, after
each one and, in untraced passes, every SAMPLE_EVERY_S during it (the
interval timer interrupts the operation, and the samples taken inside are
subtracted from its time). Each result's "ref" is the mean time of one
sample around and inside its operation; run.py scales by it.
"""

import time

import bihomlie.cli as cli

READY = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

REF_MATRIX = [[Fraction(i * 7 + j * 3 - 11, (i + j) % 5 + 1) for j in range(8)]
              for i in range(8)]
REF_SHARE = 0.05     # reference time after an operation, as a share of it
REF_MIN_S = 0.008
SAMPLE_EVERY_S = 0.1


def reference_sample():
    """Fixed exact work of the program's kind: three 8x8 rational products."""
    acc = REF_MATRIX
    cols = list(zip(*REF_MATRIX))
    for _ in range(3):
        acc = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in acc]
    return acc


def reference(seconds):
    """[time, count] of reference samples run for at least `seconds`."""
    count, start = 0, time.perf_counter()
    while True:
        reference_sample()
        count += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return [elapsed, count]


def install_sampler(samples):
    def handler(_signum, _frame):
        start = time.perf_counter()
        reference_sample()
        samples.append(time.perf_counter() - start)
    signal.signal(signal.SIGALRM, handler)


def main():
    ops_path, out_path, trace = sys.argv[1:4]
    with open(ops_path, encoding="utf-8") as fh:
        ops = json.load(fh)
    tracer = None
    if trace == "1":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    results = []
    inside = []
    interval = 0.0 if tracer is not None else SAMPLE_EVERY_S
    install_sampler(inside)
    before = total = reference(REF_MIN_S)
    for i, argv in enumerate(ops):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op = i
        inside.clear()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, interval, interval)
            try:
                rc = cli.main(argv)
            except Exception:  # a traceback is itself a wrong output
                rc = None
                traceback.print_exc()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start - sum(inside)
        after = reference(max(REF_MIN_S, REF_SHARE * elapsed))
        ref = [before[0] + sum(inside) + after[0], before[1] + len(inside) + after[1]]
        total = [total[0] + sum(inside) + after[0], total[1] + len(inside) + after[1]]
        before = after
        results.append({"s": elapsed, "rc": rc, "ref": ref[0] / ref[1],
                        "stdout": out.getvalue(), "stderr": err.getvalue()})
    doc = {"ready": READY, "ref": total[0] / total[1],
           "results": results,
           "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "spans": tracer.spans if tracer is not None else None}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    main()
