"""Seeded workloads of the kpmod benchmark: inputs, operations and checks.

An operation is a ``(kind, args)`` pair.  ``KINDS[kind]`` is a pair of
functions: ``compute(tr, *args)`` makes the calls into ``src/kpmod`` that the
operation measures and returns their result; ``check(tr, args, result)``
compares that result with an independent route and raises ``WrongAnswer``
when they disagree.  Every call into a layer goes through
``tr.call(span_name, fn, *args)``, so a traced pass times each layer from
outside the program.  An operation that the program refuses with
``ModuleTooLargeError`` (the ``KP_MAX_DIM`` cap) is counted, not retried.

Each workload exercises one ROADMAP mechanism and bypasses the others:

- ``kp_sweep``: eager ambients and cyclic closure; every module is built
  once, so caches get no reuse, and the character criterion never runs.
- ``filtration_mix``: the quotient tower and the hom-nullspace criterion on
  tensor products and Schur-functor images; ``kp_module`` is reused heavily.
- ``schubert_calc``: Schubert, Laurent and permutation layers only; it never
  builds a module.
- ``cli_requests``: the verify suites and one-shot CLI requests in one
  long-lived process, with every stdout compared byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import operator
import random
from collections import Counter
from pathlib import Path
from time import perf_counter

from kpmod import (
    ModuleTooLargeError,
    Permutation,
    annihilator_check,
    cauchy_window_check,
    char_criterion,
    code,
    contains_2143,
    demazure_module,
    divided_difference,
    dual_pairing,
    expand_in_schubert,
    kostant_dim,
    kp_filtration_extract,
    kp_module,
    plethysm_eval,
    schubert_poly,
    sl3_presentation_check,
    tensor_many,
    young_symmetrizer_image,
)
from kpmod import cli
from kpmod.permutations import all_permutations
from kpmod.verify import run_suite

WORKLOADS = ("kp_sweep", "filtration_mix", "schubert_calc", "cli_requests")

GOLDEN = Path(__file__).with_name("cli_golden.json")

#: The eight verify suites, named here so that a suite added later does not
#: change the workload.
SUITES = (
    "transition-all", "duality", "cauchy", "u3",
    "kp-char", "annihilators", "filtrations", "orders",
)

#: Tensor pair that ROADMAP reports refused by the criterion at the default cap.
ROADMAP_PAIR = ((0, 0, 2, 1, 0), (0, 1, 1, 0, 0))

#: CLI requests that ROADMAP reports refused at the default cap.
CAP_REQUESTS = (
    ("kp-dim", "--code", "5,4,3,0,0,0"),
    ("tensor-exp", "--pair", "0,0,2,1,0:0,1,1,0,0"),
)

SIGMAS = ((2,), (1, 1), (2, 1))

# The S_5 tensor pairs, the S_5 products and the CLI requests are fixed sets,
# drawn once; the run seed only orders them.  Their costs are heavy-tailed
# (an S_5 pair takes from milliseconds to 0.4 s), so a fresh sample per seed
# moved the cost of a pass by up to 15 %.  The cheap S_4 pairs are sampled
# per seed.
S4_PAIRS = 300         # of all 576 pairs of S_4 codes
S5_PAIRS = 30
S5_PRODUCTS = 150
CLI_PER_COMMAND = 12

CAL_ITERS = 20000
CAL_EVERY_S = 0.2
#: Typical duration of ``calibrate`` on the machine the baseline was recorded
#: on (2 vCPUs, x86-64, Python 3.11), so that scaled seconds stay close to
#: seconds there.
CAL_REF_S = 0.006


class WrongAnswer(Exception):
    """A result disagrees with the independent route that checks it."""


def require(ok, what: str) -> None:
    if not ok:
        raise WrongAnswer(what)


# ---------------------------------------------------------------------------
# Traced calls into the layers


def _perm_codes(m: int) -> list:
    return [(w, code(w, m)) for w in all_permutations(m)]


def perm_codes(tr, m: int) -> list:
    return tr.call("permutations.inputs", _perm_codes, m)


def kp(tr, lam):
    if tr.on:
        tr.add("modules.kp_module.repeats", lam in tr.kp_args)
        tr.kp_args.add(lam)
    M = tr.call("modules.kp_module", kp_module, lam)
    if tr.on:
        tr.add("modules.kp_module.dim_total", M.dim)
    return M


def spoly(tr, lam):
    P = tr.call("schubert.schubert_poly", schubert_poly, lam)
    if tr.on:
        tr.add("schubert.schubert_poly.terms", len(P.terms))
    return P


def mul(tr, f, g):
    if tr.on:
        tr.add("laurent.mul.term_pairs", len(f.terms) * len(g.terms))
    return tr.call("laurent.mul", operator.mul, f, g)


def eq(tr, f, g) -> bool:
    return tr.call("laurent.eq", operator.eq, f, g)


def expand(tr, f) -> dict:
    return tr.call("schubert.expand_in_schubert", expand_in_schubert, f)


def _module_size(tr, span, M) -> None:
    if tr.on:
        tr.add(f"{span}.levels", len(set(M.weights)))
        tr.add(f"{span}.dim_total", M.dim)


def extract(tr, M):
    _module_size(tr, "filtration.kp_filtration_extract", M)
    return tr.call("filtration.kp_filtration_extract", kp_filtration_extract, M)


def criterion(tr, M):
    if tr.on:
        tr.add("filtration.char_criterion.weights", len(set(M.weights)))
    return tr.call("filtration.char_criterion", char_criterion, M)


# ---------------------------------------------------------------------------
# Operations: compute, then check against an independent route


def kp_annihilator_compute(tr, w, lam):
    M = kp(tr, lam)
    rep = tr.call("modules.annihilator_check", annihilator_check, w, len(lam))
    return M.character(), M.dim, rep


def kp_annihilator_check(tr, args, result):
    w, lam = args
    ch, dim, rep = result
    S = spoly(tr, lam)
    require(eq(tr, ch, S), f"character of kp{lam} is not its Schubert polynomial")
    require(dim == rep.dim == S.eval_ones(), f"dimension of kp{lam} is not S(1)")
    require(
        rep.annihilated and rep.pruned_ok and rep.all_sharp,
        f"annihilator presentation fails for {w!r}",
    )


def demazure_compute(tr, w, lam):
    D = tr.call("modules.demazure_module", demazure_module, lam)
    return D.character(), kp(tr, lam).character()


def demazure_check(tr, args, result):
    w, lam = args
    avoids = not tr.call("permutations.inputs", contains_2143, w)
    require(
        eq(tr, *result) == avoids,
        f"Demazure and KP characters of {lam} break the 2143 rule",
    )


def sl3_compute(tr, a, b):
    return tr.call("modules.sl3_presentation_check", sl3_presentation_check, a, b)


def sl3_check(tr, args, rep):
    require(rep.ok, f"rank-3 presentation fails at (a, b) = {args}")


def _check_filtration(ext, crit, expansion, must_filter: bool, what: str) -> None:
    require(ext.ok == crit.equal, f"extractor and criterion disagree on {what}")
    require(ext.ok or not must_filter, f"{what} has no KP filtration")
    if ext.ok:
        require(dict(ext.factors) == expansion, f"layers of {what} are not its Schubert expansion")
        require(
            dict(crit.hom_multiplicities) == expansion,
            f"hom multiplicities of {what} are not its Schubert expansion",
        )
    else:
        require(crit.leq and ext.witness is not None, f"failure on {what} has no witness")


def tensor_compute(tr, lam, mu):
    M = tr.call("modules.tensor_many", tensor_many, [kp(tr, lam), kp(tr, mu)])
    return M.character(), extract(tr, M), criterion(tr, M)


def tensor_check(tr, args, result):
    lam, mu = args
    ch, ext, crit = result
    what = f"kp{lam} (x) kp{mu}"
    product = mul(tr, spoly(tr, lam), spoly(tr, mu))
    require(eq(tr, ch, product), f"character of {what} is not the Schubert product")
    expansion = expand(tr, product)
    require(all(c > 0 for c in expansion.values()), f"Schubert expansion of {what} is not positive")
    _check_filtration(ext, crit, expansion, True, what)


def schur_compute(tr, sigma, lam):
    img = tr.call(
        "filtration.young_symmetrizer_image", young_symmetrizer_image, kp(tr, lam), sigma
    )
    _module_size(tr, "filtration.young_symmetrizer_image", img)
    return img.character(), extract(tr, img), criterion(tr, img)


def schur_check(tr, args, result):
    sigma, lam = args
    ch, ext, crit = result
    what = f"S_{sigma} kp{lam}"
    target = tr.call("schubert.plethysm_eval", plethysm_eval, sigma, spoly(tr, lam))
    require(eq(tr, ch, target), f"character of {what} is not the plethysm")
    _check_filtration(ext, crit, expand(tr, target), False, what)


def transition_compute(tr, w, lam):
    return spoly(tr, lam)


def _lower(w: Permutation, i: int) -> tuple:
    """Code of w s_i (positions i and i+1 exchanged)."""
    win = list(w.one_line(7))
    win[i - 1], win[i] = win[i], win[i - 1]
    return code(Permutation(win), 7)


def transition_check(tr, args, P):
    """The divided differences characterize Schubert polynomials:
    d_i S_w = S_{w s_i} at a descent i of w and 0 elsewhere."""
    w, lam = args
    require(P.coeff(lam) == 1 and P.total_degrees() == {w.length()}, f"S{lam} has a wrong leading term")
    for i in range(1, 7):
        d = tr.call("schubert.divided_difference", divided_difference, i, P)
        if w(i) > w(i + 1):
            lower = spoly(tr, tr.call("permutations.inputs", _lower, w, i))
            require(eq(tr, d, lower), f"d_{i} S{lam} is not the Schubert polynomial below it")
        else:
            require(not d, f"d_{i} S{lam} is not zero")


def expand_compute(tr, lam, mu):
    product = mul(tr, spoly(tr, lam), spoly(tr, mu))
    return product, expand(tr, product)


def expand_check(tr, args, result):
    product, expansion = result
    total = None
    for nu, c in expansion.items():
        require(c > 0, f"structure constant for {args} at {nu} is not positive")
        pairing = tr.call("schubert.dual_pairing", dual_pairing, product, nu)
        require(pairing == c, f"dual pairing disagrees with the expansion of {args} at {nu}")
        term = spoly(tr, nu) * c
        total = term if total is None else total + term
    require(total is not None and eq(tr, total, product), f"expansion of {args} does not sum back")


def cauchy_compute(tr, mu, nu):
    return tr.call("schubert.cauchy_window_check", cauchy_window_check, mu, nu)


def cauchy_check(tr, args, rep):
    mu, nu = args
    delta = tuple(b - a for a, b in zip(mu, nu))
    count = tr.call("schubert.kostant_dim", kostant_dim, delta)
    require(rep.lhs == count, f"Cauchy window sum for {args} is not the Kostant count")


def suite_compute(tr, name):
    return tr.call("verify.run_suite", run_suite, name)


def suite_check(tr, args, rows):
    require(rows and all(r.ok for r in rows), f"verify suite {args[0]} fails")


def cli_request(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    if rc not in (0, 1) and "KP_MAX_DIM" in err.getvalue():
        raise ModuleTooLargeError(err.getvalue().strip())
    return rc, out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def cli_compute(tr, argv, recorded):
    rc, out = tr.call("cli.main", cli_request, argv)
    if tr.on:
        tr.add("cli.main.stdout_bytes", len(out.encode()))
        tr.add("cli.main.exit_nonzero", rc != 0)
    return rc, out


def cli_check(tr, args, result):
    argv, recorded = args
    rc, out = result
    what = "kp " + " ".join(argv)
    if recorded is not None:
        require([rc, digest(out)] == recorded, f"output of '{what}' differs from the recorded output")
        return
    # refused when the outputs were recorded: accepted on its own cross-check
    require(rc == 0, f"'{what}' exits {rc}")
    try:
        data = json.loads(out)
    except ValueError:
        raise WrongAnswer(f"'{what}' does not print JSON") from None
    for key in ("consistent", "factors_match", "char_matches"):
        require(data.get(key, True) is True, f"'{what}' reports {key} false")
    if argv[0] == "tensor-exp":
        require(data["ok"] is True, f"'{what}' finds no KP filtration")
    if argv[0] in ("kp-dim", "kp-char"):
        S = spoly(tr, tuple(int(x) for x in argv[argv.index("--code") + 1].split(",")))
        want = {"dim": S.eval_ones()} if argv[0] == "kp-dim" else S.to_json()
        require(data == want, f"'{what}' disagrees with the Schubert polynomial")


KINDS = {
    "kp_annihilator_s6": (kp_annihilator_compute, kp_annihilator_check),
    "demazure_s4": (demazure_compute, demazure_check),
    "sl3_presentation": (sl3_compute, sl3_check),
    "tensor_s4": (tensor_compute, tensor_check),
    "tensor_s5": (tensor_compute, tensor_check),
    "schur_s4": (schur_compute, schur_check),
    "transition_s7": (transition_compute, transition_check),
    "expand_s5": (expand_compute, expand_check),
    "cauchy_s4": (cauchy_compute, cauchy_check),
    "verify_suite": (suite_compute, suite_check),
    "cli": (cli_compute, cli_check),
}


# ---------------------------------------------------------------------------
# Inputs


def _codes(tr, m: int) -> list:
    return [lam for _, lam in perm_codes(tr, m)]


def _fixed_sample(population: list, size: int, name: str) -> list:
    return random.Random(name).sample(population, size)


def kp_sweep_ops(rng, tr) -> list:
    ops = [("kp_annihilator_s6", wl) for wl in perm_codes(tr, 6)]
    ops += [("demazure_s4", wl) for wl in perm_codes(tr, 4)]
    ops += [("sl3_presentation", (a, b)) for a in range(5) for b in range(5)]
    return ops


def filtration_mix_ops(rng, tr) -> list:
    c4, c5 = _codes(tr, 4), _codes(tr, 5)
    pairs4 = rng.sample([(a, b) for a in c4 for b in c4], S4_PAIRS)
    pairs5 = _fixed_sample([(a, b) for a in c5 for b in c5], S5_PAIRS, "s5-pairs")
    if ROADMAP_PAIR not in pairs5:
        pairs5.append(ROADMAP_PAIR)
    ops = [("tensor_s4", p) for p in pairs4] + [("tensor_s5", p) for p in pairs5]
    ops += [("schur_s4", (sigma, lam)) for sigma in SIGMAS for lam in c4]
    return ops


def schubert_calc_ops(rng, tr) -> list:
    ops = [("transition_s7", wl) for wl in perm_codes(tr, 7)]
    c5 = _codes(tr, 5)
    products = _fixed_sample([(a, b) for a in c5 for b in c5], S5_PRODUCTS, "s5-products")
    ops += [("expand_s5", p) for p in products]
    box = list(itertools.product(range(3), repeat=4))
    ops += [("cauchy_s4", (mu, nu)) for mu in box for nu in box if sum(mu) == sum(nu)]
    return ops


def _fmt(v) -> str:
    return ",".join(map(str, v))


def cli_pool(tr) -> dict:
    """The CLI requests per subcommand, each list thinned evenly to
    CLI_PER_COMMAND entries."""
    p3, p4, p5 = (perm_codes(tr, m) for m in (3, 4, 5))
    c3, c4, c5 = ([lam for _, lam in p] for p in (p3, p4, p5))
    perms = [(_fmt(w.one_line(len(lam))), str(len(lam)), w) for w, lam in p4 + p5]
    box3 = list(itertools.product(range(3), repeat=3))
    full = {
        "schubert": [("schubert", "--code", _fmt(c)) for c in c4 + c5]
        + [("schubert", "--code", _fmt(c), "--format", "text") for c in c4]
        + [("schubert", "--code", _fmt(c), "--method", "staircase") for c in c4]
        + [("schubert", "--perm", p, "-n", n) for p, n, _ in perms],
        "code": [("code", "--perm", p, "-n", n) for p, n, _ in perms],
        "perm": [("perm", "--code", _fmt(c)) for c in c4 + c5],
        "transition": [("transition", "--perm", p) for p, _, w in perms if not w.is_identity()],
        "mtable": [("mtable", "--perm", p, "-n", n) for p, n, _ in perms],
        "kp-char": [("kp-char", "--code", _fmt(c)) for c in c4 + c5]
        + [("kp-char", "--code", _fmt(c), "--format", "text") for c in c4],
        "kp-dim": [("kp-dim", "--code", _fmt(c)) for c in c4 + c5],
        "annihilator": [("annihilator", "--perm", p, "-n", n) for p, n, _ in perms],
        "expand": [("expand", "--product", f"{_fmt(a)}:{_fmt(b)}") for a in c4 for b in c4],
        "pairing": [
            ("pairing", "--schubert", _fmt(a), "--mu", _fmt(b))
            for a in c4 for b in c4 if sum(a) == sum(b)
        ],
        "cauchy": [
            ("cauchy", "--mu", _fmt(a), "--nu", _fmt(b))
            for a in box3 for b in box3 if sum(a) == sum(b)
        ],
        "u3": [
            ("u3", "--check", "presentation", "--a", str(a), "--b", str(b))
            for a in range(4) for b in range(4)
        ]
        + [
            ("u3", "--check", "identity", "--case", str(c), "--N", str(N), "--M", str(M))
            for c in (3, 4, 5, 6) for N in range(3) for M in range(3)
        ],
        "filtration": [("filtration", "--tensor", f"{_fmt(a)}:{_fmt(b)}") for a in c3 for b in c3]
        + [("filtration", "--kp", _fmt(c)) for c in c4]
        + [("filtration", "--one-dim", "0,1"), ("filtration", "--one-dim", "0,1", "--expect-ok")],
        "tensor-exp": [
            ("tensor-exp", "--pair", f"{_fmt(a)}:{_fmt(b)}")
            for codes in (c3, c4) for a in codes for b in codes
        ],
        "plethysm-exp": [
            ("plethysm-exp", "--sigma", _fmt(s), "--code", _fmt(c)) for s in SIGMAS for c in c4
        ]
        + [("plethysm-exp", "--sigma", s, "--code", _fmt(c)) for s in ("3", "1,1,1") for c in c3],
        "demazure-compare": [("demazure-compare", "--code", _fmt(c)) for c in c4],
    }
    return {
        cmd: [reqs[t * len(reqs) // CLI_PER_COMMAND] for t in range(min(CLI_PER_COMMAND, len(reqs)))]
        for cmd, reqs in full.items()
    }


def cli_requests_ops(rng, tr) -> list:
    recorded = json.loads(GOLDEN.read_text())
    requests = [argv for reqs in cli_pool(tr).values() for argv in reqs] + list(CAP_REQUESTS)
    ops = [("verify_suite", (name,)) for name in SUITES]
    ops += [("cli", (argv, recorded[" ".join(argv)])) for argv in requests]
    return ops


BUILDERS = {
    "kp_sweep": kp_sweep_ops,
    "filtration_mix": filtration_mix_ops,
    "schubert_calc": schubert_calc_ops,
    "cli_requests": cli_requests_ops,
}


def build_ops(workload: str, seed: int, order: int, tr) -> list:
    """The operations of one pass.  The seed picks the inputs; the seed and
    the pass's order number pick their order, so the passes of one run
    average over several orders (a refused operation's transient memory
    stacks on whatever the caches hold when it runs)."""
    ops = BUILDERS[workload](random.Random(f"{workload}/{seed}"), tr)
    random.Random(f"{workload}/{seed}/{order}").shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# A pass


def _run_op(tr, kind, args):
    compute, check = KINDS[kind]
    check(tr, args, compute(tr, *args))


def calibrate() -> float:
    """Duration of a fixed loop of tuple, dict and integer work, the kind of
    interpreter work kpmod does: a probe of the CPU speed available now."""
    start = perf_counter()
    d: dict = {}
    for i in range(CAL_ITERS):
        k = (i & 63, (i >> 6) & 7)
        d[k] = d.get(k, 0) + i
    return perf_counter() - start


def run_pass(ops, tr) -> dict:
    """Run every operation once; a refusal is counted, a wrong answer raises.

    Every CAL_EVERY_S the pass stops the clock and runs ``calibrate``.  The
    time of each segment between probes is also reported scaled by
    CAL_REF_S over the mean of its two probes, i.e. in seconds of a CPU on
    which the probe takes CAL_REF_S.  On a shared machine whose speed drifts
    by tens of percent, the scaled time is several times steadier.
    """
    attempted: Counter = Counter()
    refused: Counter = Counter()
    probe = calibrate()
    timed = scaled = 0.0
    start = perf_counter()
    for t, (kind, args) in enumerate(ops):
        tr.op = t
        attempted[kind] += 1
        try:
            tr.call("op", _run_op, tr, kind, args)
        except ModuleTooLargeError:
            refused[kind] += 1
        now = perf_counter()
        if now - start >= CAL_EVERY_S or t == len(ops) - 1:
            after = calibrate()
            timed += now - start
            scaled += (now - start) * 2 * CAL_REF_S / (probe + after)
            probe = after
            start = perf_counter()
    return {
        "timed_s": timed,
        "scaled_s": scaled,
        "attempted": dict(attempted),
        "refused": dict(refused),
    }
