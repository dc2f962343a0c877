"""Self-test of the output checks: each check must accept the program's real
output and reject deliberately wrong variants of it.

    python3 bench/selftest.py        # from the root of a checkout

Exits 0 when every check accepts every real output and rejects every
wrong one; prints one line per case.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import bihomlie.cli as cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def expect(label, result, spec, statuses):
    status, message = checks.verdict(result, spec)
    ok = status in statuses
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {status}" + (f" ({message})" if message else ""))
    if not ok:
        FAILURES.append(label)


def mutate(result, edit):
    """A copy of a JSON result with edit(doc) applied to its document."""
    doc = json.loads(result["stdout"])
    edit(doc)
    return dict(result, stdout=json.dumps(doc))


def bump(rows, i=0, j=0):
    rows[i][j] = str(checks.Q(rows[i][j]) + 1)


def analyze_cases(workdir):
    for argv, spec in workloads.analyze_ladder(7, workdir):
        if spec["k"] != 2:
            continue
        kind = "simple" if spec["simple"] else "sum"
        real = run(argv)
        expect(f"analyze {kind}: real output accepted", real, spec, {"ok"})
        dec = lambda d: d["induced"]["decomposition"]  # noqa: E731
        wrong = {
            "swapped ideal": lambda d: dec(d)["ideal_bases"].__setitem__(0, dec(d)["ideal_bases"][1]),
            "ideal vector off its block": lambda d: bump(dec(d)["ideal_bases"][0], 0, 5),
            "sigma_alpha": lambda d: dec(d).__setitem__("sigma_alpha", dec(d)["sigma_alpha"][::-1]),
            "enveloping_dim": lambda d: d.__setitem__("enveloping_dim", d["enveloping_dim"] - 1),
            "simple": lambda d: d.__setitem__("simple", not d["simple"]),
            "killing_det 0": lambda d: d["induced"].__setitem__("killing_det", "0"),
        }
        for name, edit in wrong.items():
            expect(f"analyze {kind}: {name} rejected", mutate(real, edit), spec, {"wrong"})


def wrong_label(d):
    if d["params"]:
        d["params"] = ["7"] * len(d["params"])     # never drawn: heights are at most 5
    else:
        d["family"] = "L3"


def classify_cases(workdir):
    ops = workloads.classify_batch(7, workdir)
    first = 0
    for path, count in workloads.PATH_COUNTS:     # the first input of every path
        argv, spec = ops[first]
        first += count
        real = run(argv)
        label = f"classify3 {path}"
        expect(f"{label}: real output accepted", real, spec, {"ok"})
        expect(f"{label}: perturbed change of basis rejected",
               mutate(real, lambda d: bump(d["change_of_basis"], 1, 2)), spec, {"wrong"})
        expect(f"{label}: wrong label rejected", mutate(real, wrong_label), spec, {"wrong"})
    for argv, spec in (op for op in ops if op[1].get("may_fail")):
        real = run(argv)
        if real["rc"] == 1:
            expect("classify3 wide sl2: NotSplit counted as failed", real, spec, {"failed"})
            other = dict(real, stderr="Unmatched: " + real["stderr"])
            expect("classify3 wide sl2: another error rejected", other, spec, {"wrong"})
            break
    iso = [op for op in ops if op[1]["kind"] == "iso3"]
    for argv, spec in (next(op for op in iso if op[1]["iso"]),
                       next(op for op in iso if not op[1]["iso"])):
        real = run(argv)
        label = f"iso3 {'isomorphic' if spec['iso'] else 'not isomorphic'}"
        expect(f"{label}: real output accepted", real, spec, {"ok"})
        expect(f"{label}: flipped verdict rejected",
               mutate(real, lambda d: d.__setitem__("isomorphic", not d["isomorphic"])),
               spec, {"wrong"})
        if spec["iso"]:
            expect(f"{label}: perturbed matrix rejected",
                   mutate(real, lambda d: bump(d["matrix"], 2, 0)), spec, {"wrong"})


def roundtrip_cases(workdir):
    ops = workloads.check_roundtrip(7, workdir)
    check, induce, twist = ops[:3]
    real = run(check[0])
    expect("check valid: real output accepted", real, check[1], {"ok"})
    expect("check valid: failing report rejected",
           mutate(real, lambda d: d["jacobi"].__setitem__("ok", False)), check[1], {"wrong"})
    run(induce[0])
    real = run(twist[0])
    expect("twist: byte-identical round trip accepted", real, twist[1], {"ok"})
    with open(twist[1]["out"], "rb") as fh:
        data = bytearray(fh.read())
    data[len(data) // 2] ^= 1
    with open(twist[1]["out"], "wb") as fh:
        fh.write(data)
    expect("twist: one-byte change rejected", real, twist[1], {"wrong"})
    for argv, spec in (op for op in ops if op[1]["kind"] == "check" and op[1]["fails"]):
        real = run(argv)
        expect(f"check corrupted ({spec['fails']}): real output accepted", real, spec, {"ok"})
        doc = json.loads(real["stdout"])
        name = next(a for a in checks.AXIOMS if doc[a]["witness"])

        def shift_lhs(d, name=name):
            bump([d[name]["witness"]["lhs"]])

        def all_pass(d):
            for a in checks.AXIOMS:
                d[a].update(ok=True, witness=None)
            d["all_pass"] = True
        expect(f"check corrupted: perturbed {name} witness rejected",
               mutate(real, shift_lhs), spec, {"wrong"})
        expect("check corrupted: exit 0 rejected", dict(real, rc=0), spec, {"wrong"})
        expect("check corrupted: all_pass report rejected", mutate(real, all_pass),
               spec, {"wrong"})


def main():
    os.chdir(ROOT)
    base = os.path.join("bench", "work", "selftest")
    shutil.rmtree(base, ignore_errors=True)
    analyze_cases(os.path.join(base, "analyze"))
    classify_cases(os.path.join(base, "classify"))
    roundtrip_cases(os.path.join(base, "roundtrip"))
    print(f"{len(FAILURES)} self-test failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
