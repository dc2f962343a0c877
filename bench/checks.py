"""Checks of each CLI output against facts known from how its input was
built, with the benchmark's own rational arithmetic (exact.py).

verdict(result, spec) returns (status, message). status is "ok", "failed"
for an operation that raised the one fault the workload expects (the
NotSplit sl2 inputs), or "wrong" with a message saying what is wrong.
"""

from __future__ import annotations

import json
from fractions import Fraction as Q

import exact as E


class Wrong(Exception):
    pass


def need(condition, message):
    if not condition:
        raise Wrong(message)


def _json(result, rc=0):
    need(result["rc"] == rc, f"exit code {result['rc']} != {rc}: {result['stderr'].strip()[:200]}")
    try:
        return json.loads(result["stdout"])
    except json.JSONDecodeError as exc:
        raise Wrong(f"stdout is not JSON: {exc}") from None


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return E.Algebra.loads(fh.read())


def _matrix(rows):
    return [[Q(x) for x in row] for row in rows]


def check_analyze(result, spec):
    doc = _json(result)
    k, n = spec["k"], 3 * spec["k"]
    need(doc["dim"] == n and doc["regular"] and not doc["abelian"], "dim/regular/abelian")
    need(doc["simple"] == spec["simple"], f"simple is {doc['simple']}")
    want = n * n if spec["simple"] else 9 * k
    need(doc["enveloping_dim"] == want, f"enveloping_dim {doc['enveloping_dim']} != {want}")
    need({"series": "A", "rank": 1, "m": k} in doc["type_candidates"], "(A1, m=k) missing")
    ind = doc["induced"]
    need(ind is not None and ind["semisimple"], "induced algebra not semisimple")
    need(Q(ind["killing_det"]) != 0, "killing_det is 0")
    dec = ind["decomposition"]
    need(dec is not None and "error" not in dec, f"no decomposition: {dec}")
    need(dec["m"] == k and dec["ideal_dims"] == [3] * k, "m or ideal dims")
    need(dec["m_warning"] == (k == 2), "m_warning")
    # ideal i must be the image of coordinate block blk[i] of the base algebra
    inv = spec["inverse"]
    blocks = [[E.column(inv, 3 * j + t) for t in range(3)] for j in range(k)]
    blk = []
    for basis in dec["ideal_bases"]:
        rows = _matrix(basis)
        hit = [j for j in range(k) if E.same_span(rows, blocks[j])]
        need(len(hit) == 1, "an ideal is not the image of one coordinate block")
        blk.append(hit[0])
    need(sorted(blk) == list(range(k)), "ideals do not cover every block once")
    shift = 1 if spec["simple"] else 0
    for i in range(k):
        need(blk[dec["sigma_alpha"][i]] == (blk[i] + shift) % k, "sigma_alpha")
        need(blk[dec["sigma_beta"][i]] == blk[i], "sigma_beta")


def intertwines(f, a1, a2):
    """f is invertible and maps (c1, alpha1, beta1) onto (c2, alpha2, beta2)."""
    n = a1.n
    if len(f) != n or any(len(r) != n for r in f) or E.det(f) == 0:
        return False
    if E.matmul(f, a1.alpha) != E.matmul(a2.alpha, f):
        return False
    if E.matmul(f, a1.beta) != E.matmul(a2.beta, f):
        return False
    cols = [E.column(f, j) for j in range(n)]
    return all(E.apply(f, a1.c[i][j]) == E.bracket(a2.c, cols[i], cols[j])
               for i in range(n) for j in range(n))


def check_classify3(result, spec):
    if (spec.get("may_fail") and result["rc"] == 1
            and result["stderr"].startswith(spec["may_fail"] + ":")):
        return "failed"
    doc = _json(result)
    need(doc["family"] == spec["family"], f"family {doc['family']} != {spec['family']}")
    params = tuple(Q(p) for p in doc["params"])
    need(params == tuple(spec["params"]), f"params {doc['params']}")
    target = E.catalog(spec["family"], params)
    # the columns of the change of basis are the catalog basis in input coordinates
    need(intertwines(_matrix(doc["change_of_basis"]), target, _load(spec["file"])),
         "change of basis does not carry the catalog algebra onto the input")
    return "ok"


def check_iso3(result, spec):
    doc = _json(result)
    need(doc["isomorphic"] == spec["iso"], f"isomorphic is {doc['isomorphic']}")
    if spec["iso"]:
        a1, a2 = (_load(f) for f in spec["files"])
        need(intertwines(_matrix(doc["matrix"]), a1, a2), "matrix is not an isomorphism")
    else:
        need(doc["matrix"] is None, "matrix given for non-isomorphic pair")


AXIOMS = ("commuting", "multiplicative_alpha", "multiplicative_beta", "skew", "jacobi")


def check_check(result, spec):
    doc = _json(result, 0 if spec["fails"] is None else 1)
    need(sorted(doc) == sorted(AXIOMS + ("all_pass",)), "report keys")
    if spec["fails"] is None:
        need(doc["all_pass"] and all(doc[a]["ok"] and doc[a]["witness"] is None
                                     for a in AXIOMS), "valid input reported failing")
        return
    need(not doc["all_pass"] and not doc[spec["fails"]]["ok"],
         f"{spec['fails']} not reported failing")
    alg = _load(spec["file"])
    for name in AXIOMS:
        w = doc[name]["witness"]
        need((w is None) == doc[name]["ok"], f"{name}: witness and verdict disagree")
        if w is None:
            continue
        lhs, rhs = E.axiom_sides(alg, name, tuple(i - 1 for i in w["indices"]))
        need(lhs != rhs, f"{name}: recomputed sides are equal")
        need([Q(x) for x in w["lhs"]] == lhs and [Q(x) for x in w["rhs"]] == rhs,
             f"{name}: witness sides differ from the recomputed ones")


def check_silent(result, spec):
    need(result["rc"] == 0 and result["stdout"] == "", f"exit code {result['rc']}")


def check_twist(result, spec):
    check_silent(result, spec)
    with open(spec["out"], "rb") as fh, open(spec["orig"], "rb") as gh:
        need(fh.read() == gh.read(), "round trip is not byte-identical to the input")


CHECKS = {"analyze": check_analyze, "classify3": check_classify3, "iso3": check_iso3,
          "check": check_check, "silent": check_silent, "twist": check_twist}


def verdict(result, spec):
    if result["rc"] is None:
        return "wrong", "uncaught exception: " + result["stderr"].strip()[-300:]
    try:
        status = CHECKS[spec["kind"]](result, spec)
    except Wrong as exc:
        return "wrong", str(exc)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return "wrong", f"malformed output: {type(exc).__name__}: {exc}"
    return status or "ok", None
