"""Self-test of the benchmark itself (not of kpmod); run from the repository
root with ``python3 bench/selftest.py``.  Exits nonzero on the first failure.

It shows that operation generation depends on the seed and only on it, that
the correctness gate rejects deliberately corrupted results, that a cap
refusal is counted and not raised, and that BENCHMARK.json names exactly the
metrics run.py prints.
"""

import dataclasses
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

for key in [k for k in os.environ if k.startswith("KP_")]:
    del os.environ[key]

from kpmod import LaurentPoly, perm_of  # noqa: E402
import run  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    CAP_REQUESTS, GOLDEN, KINDS, WORKLOADS, WrongAnswer, build_ops, run_pass,
)


def expect(ok, what: str) -> None:
    if not ok:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def rejects(kind: str, args, corrupt) -> bool:
    """The check passes on the true result and raises on the corrupted one."""
    compute, check = KINDS[kind]
    tr = NullTracer()
    result = compute(tr, *args)
    check(tr, args, result)
    try:
        check(tr, args, corrupt(result))
    except WrongAnswer:
        return True
    return False


def bump(poly: LaurentPoly) -> LaurentPoly:
    """poly with one coefficient off by one."""
    exp = max(poly.terms)
    return poly + LaurentPoly.monomial(poly.n, exp)


def seeds() -> None:
    for w in WORKLOADS:
        a, b, c, d = (build_ops(w, s, k, NullTracer()) for s, k in ((1, 0), (1, 0), (2, 0), (1, 1)))
        expect(a == b, f"{w}: the same seed gives the same operations")
        expect(a != c, f"{w}: another seed gives other operations")
        expect(len(a) == len(c), f"{w}: every seed gives {len(a)} operations")
        expect(a != d and sorted(map(repr, a)) == sorted(map(repr, d)), f"{w}: another pass reorders them")


def gate() -> None:
    lam = (1, 0, 2, 0, 0, 0)
    expect(
        rejects("kp_annihilator_s6", (perm_of(lam), lam), lambda r: (bump(r[0]),) + r[1:]),
        "a KP character with one coefficient off is rejected",
    )
    w = perm_of((2, 0, 3, 1, 0, 0, 0))
    expect(
        rejects("transition_s7", (w, (2, 0, 3, 1, 0, 0, 0)), bump),
        "a Schubert polynomial with one coefficient off is rejected",
    )

    def off_by_one(expansion: dict) -> dict:
        nu = min(expansion)
        return {**expansion, nu: expansion[nu] + 1}

    expect(
        rejects("expand_s5", ((0, 1, 0, 1, 0), (1, 0, 1, 0, 0)), lambda r: (r[0], off_by_one(r[1]))),
        "an expansion coefficient off by one is rejected",
    )

    def hom_off(r):
        ch, ext, crit = r
        mults = dict(crit.hom_multiplicities)
        return ch, ext, dataclasses.replace(
            crit, hom_multiplicities=tuple(off_by_one(mults).items())
        )

    expect(
        rejects("tensor_s4", ((0, 1, 0, 0), (1, 0, 1, 0)), hom_off),
        "a hom multiplicity off by one is rejected",
    )
    expect(
        rejects("cauchy_s4", ((0, 1, 0, 1), (1, 1, 0, 0)), lambda r: dataclasses.replace(r, lhs=r.lhs + 1)),
        "a Cauchy window sum off by one is rejected",
    )
    recorded = json.loads(GOLDEN.read_text())
    key = next(k for k in sorted(recorded) if k.startswith("kp-char ") and recorded[k])
    expect(
        rejects("cli", (tuple(key.split()), recorded[key]), lambda r: (r[0], r[1].replace("1", "2", 1))),
        "CLI output differing from the recorded digest is rejected",
    )
    compute, check = KINDS["kp_annihilator_s6"]

    def corrupted(tr, *args):
        ch, dim, rep = compute(tr, *args)
        return bump(ch), dim, rep

    KINDS["kp_annihilator_s6"] = (corrupted, check)
    try:
        run_pass([("kp_annihilator_s6", (perm_of(lam), lam))], NullTracer())
        raised = False
    except WrongAnswer:
        raised = True
    finally:
        KINDS["kp_annihilator_s6"] = (compute, check)
    expect(raised, "a wrong answer ends the pass")


def refusal() -> None:
    lam = (5, 4, 3, 0, 0, 0)
    cli_args = (CAP_REQUESTS[0], None)
    ops = [("kp_annihilator_s6", (perm_of(lam), lam)), ("cli", cli_args)]
    for tr in (NullTracer(), Tracer()):
        res = run_pass(ops, tr)
        expect(
            res["refused"] == {"kp_annihilator_s6": 1, "cli": 1},
            f"cap refusals are counted, not raised ({type(tr).__name__})",
        )
    expect(tr.summary()["modules.kp_module"]["refused"] == 1, "the refused span is marked")


def benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(
        [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_metrics(),
        "BENCHMARK.json per_layer matches run.py",
    )
    expect(
        [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
        "BENCHMARK.json end_to_end matches run.py",
    )
    expect(
        [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(run.WORKLOADS),
        "BENCHMARK.json lists the workloads",
    )


if __name__ == "__main__":
    seeds()
    gate()
    refusal()
    benchmark_json()
