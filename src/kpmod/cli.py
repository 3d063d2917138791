"""Command-line front end (installed as ``kp``).

Every subcommand prints deterministic output (JSON with sorted keys, or
plain text) and exits 0 on success, 1 on a mathematical failure (a failing
verification, or a filtration that was required to succeed via --expect-ok),
2 on a usage error, and 3 when the KP_MAX_DIM cap stops it: a construction
outgrew the cap, or the variable is not a positive integer.  A closed
stdout ends ``kp`` quietly (``entry``).

Weight vectors are comma-separated integers, permutations comma-separated
one-line images, and ``:`` separates the members of a pair.
"""

from __future__ import annotations

import argparse
import functools
import json
import signal
import sys

from .filtration import (
    _codes_of_one_length,
    kp_filtration_extract,
    schur_functor_experiment,
    tensor_experiment,
)
from .laurent import LaurentPoly
from .modules import (
    ModuleTooLargeError,
    _annihilator_check,
    demazure_module,
    kp_module,
    max_dim,
    one_dim,
    sl3_identity_check,
    sl3_presentation_check,
    tensor_many,
)
from .permutations import (
    Permutation,
    _codes,
    _m_table,
    code,
    contains_2143,
    perm_of,
    transition,
)
from .schubert import (
    cauchy_window_check,
    dual_pairing,
    expand_in_schubert,
    schubert_poly,
)
from .verify import run_suites


def _weight(s: str) -> tuple:
    try:
        return tuple(int(t) for t in s.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {s!r}") from None


def _pair(s: str) -> tuple:
    parts = s.split(":")
    if len(parts) != 2:
        raise ValueError(f"expected two weights separated by ':', got {s!r}")
    return _weight(parts[0]), _weight(parts[1])


def _perm(s: str) -> Permutation:
    return Permutation(_weight(s))


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _input_code(args) -> tuple:
    """The weight named by --code as given, or by --perm as its length-n code."""
    if getattr(args, "code", None) is not None:
        lam = args.code
        if args.n is not None and args.n != len(lam):
            raise ValueError(f"-n {args.n} contradicts a length-{len(lam)} code")
        return lam
    if getattr(args, "perm", None) is None:
        raise ValueError("need --code or --perm")
    if args.n is None:
        raise ValueError("--perm needs -n")
    return code(args.perm, args.n)


# ---------------------------------------------------------------------------
# Handlers

def _cmd_schubert(args) -> int:
    poly = schubert_poly(_input_code(args), args.method)
    _emit(args, poly.to_json(), poly.text())
    return 0


def _cmd_code(args) -> int:
    lam = code(args.perm, args.n)
    _emit(args, {"code": list(lam)}, ",".join(map(str, lam)))
    return 0


def _cmd_perm(args) -> int:
    w = perm_of(args.code)
    _emit(args, {"perm": w.to_json()}, ",".join(map(str, w.window)))
    return 0


def _cmd_transition(args) -> int:
    td = transition(args.perm)
    payload = {
        "j": td.j,
        "k": td.k,
        "v": td.v.to_json(),
        "branches": [{"i": i, "perm": wa.to_json()} for i, wa in td.branches],
    }
    text = (
        f"j={td.j} k={td.k} v={list(td.v.window)} branches="
        + " ".join(f"(i={i}, {list(wa.window)})" for i, wa in td.branches)
    )
    _emit(args, payload, text)
    return 0


def _cmd_mtable(args) -> int:
    t = _m_table(_input_code(args))
    payload = {
        "n": t.n,
        "entries": {f"{i},{j}": m for (i, j), m in sorted(t.entries.items())},
        "pruned": [list(p) for p in t.pruned],
    }
    text = "\n".join(
        [f"m[{i},{j}] = {m}" for (i, j), m in sorted(t.entries.items())]
        + ["pruned: " + " ".join(f"({i},{j})" for i, j in t.pruned)]
    )
    _emit(args, payload, text)
    return 0


def _cmd_kp_char(args) -> int:
    ch = kp_module(args.code).character()
    _emit(args, ch.to_json(), ch.text())
    return 0


def _cmd_kp_dim(args) -> int:
    d = kp_module(args.code).dim
    _emit(args, {"dim": d}, str(d))
    return 0


def _cmd_annihilator(args) -> int:
    rep = _annihilator_check(_input_code(args))  # _m_table refuses a negative code
    _emit(
        args,
        rep.to_json(),
        f"ok={rep.ok} annihilated={rep.annihilated} pruned_ok={rep.pruned_ok} "
        f"sharp={rep.all_sharp} dim={rep.dim} schubert(1)={rep.schubert_value}",
    )
    return 0 if rep.ok else 1


def _cmd_expand(args) -> int:
    if args.product is not None:
        lam, mu = _codes_of_one_length(args.product, "--product")
        poly = schubert_poly(lam) * schubert_poly(mu)
    elif args.poly is not None:
        poly = LaurentPoly.from_json(json.loads(args.poly))
    else:
        raise ValueError("need --poly or --product")
    coeffs = expand_in_schubert(poly)
    items = sorted(coeffs.items(), reverse=True)
    payload = {"terms": [{"nu": list(nu), "coeff": c} for nu, c in items]}
    text = " + ".join(f"{c}*S{list(nu)}" for nu, c in items) or "0"
    _emit(args, payload, text)
    return 0


def _cmd_pairing(args) -> int:
    if args.schubert is not None:
        poly = schubert_poly(args.schubert)
    elif args.poly is not None:
        poly = LaurentPoly.from_json(json.loads(args.poly))
    else:
        raise ValueError("need --schubert or --poly")
    val = dual_pairing(poly, args.mu)
    _emit(args, {"value": val}, str(val))
    return 0


def _cmd_cauchy(args) -> int:
    rep = cauchy_window_check(args.mu, args.nu)
    _emit(args, rep.to_json(), f"lhs={rep.lhs} rhs={rep.rhs} ok={rep.ok}")
    return 0 if rep.ok else 1


def _cmd_u3(args) -> int:
    if args.check == "presentation":
        rep = sl3_presentation_check(args.a, args.b)
    elif args.case is None:
        raise ValueError("--check identity needs --case")
    else:
        rep = sl3_identity_check(args.case, args.N, args.M, args.N2, args.M2)
    text = "\n".join(f"[{'PASS' if ok else 'FAIL'}] {name}" for name, ok in rep.checks)
    _emit(args, rep.to_json(), text)
    return 0 if rep.ok else 1


def _cmd_filtration(args) -> int:
    if args.tensor is not None:
        lam, mu = _codes_of_one_length(args.tensor, "--tensor")
        rep = kp_filtration_extract(tensor_many([kp_module(lam), kp_module(mu)]))
    elif args.kp is not None:
        rep = kp_filtration_extract(kp_module(args.kp))
    else:
        rep = kp_filtration_extract(one_dim(args.one_dim))
    text = f"ok={rep.ok} factors=" + " ".join(
        f"{list(nu)}x{d}" for nu, d in rep.factors
    )
    _emit(args, rep.to_json(), text)
    return 0 if rep.ok or not args.expect_ok else 1


def _cmd_tensor_exp(args) -> int:
    lam, mu = _codes_of_one_length(args.pair, "--pair")
    rep = tensor_experiment(lam, mu)
    text = (
        f"ok={rep.ok} extract={rep.extract.ok} criterion_equal={rep.criterion.equal} "
        f"factors_match={rep.factors_match}"
    )
    _emit(args, rep.to_json(), text)
    return 0 if rep.ok or not args.expect_ok else 1


def _cmd_plethysm_exp(args) -> int:
    rep = schur_functor_experiment(args.sigma, args.code)
    text = (
        f"ok={rep.ok} extract={rep.extract.ok} criterion_equal={rep.criterion.equal} "
        f"char_matches={rep.char_matches}"
    )
    _emit(args, rep.to_json(), text)
    return 0 if rep.ok or not args.expect_ok else 1


def _cmd_demazure_compare(args) -> int:
    if args.code is not None:
        codes = [args.code]
    else:
        m = args.upto
        if m < 1:
            raise ValueError(f"--upto must be at least 1, got {m}")
        codes = _codes(m)
    rows = []
    violations = 0
    for lam in codes:
        w = perm_of(lam)  # the row prints it and reads its 2143 pattern
        S = kp_module(lam)
        D = demazure_module(lam)
        equal = S.character() == D.character()
        avoids = not contains_2143(w)
        if equal != avoids:
            violations += 1
        rows.append(
            {
                "perm": w.to_json(),
                "code": list(lam),
                "kp_dim": S.dim,
                "demazure_dim": D.dim,
                "characters_equal": equal,
                "avoids_2143": avoids,
            }
        )
    payload = {"rows": rows, "violations": violations, "ok": violations == 0}
    text = "\n".join(
        f"{r['perm']}: kp_dim={r['kp_dim']} demazure_dim={r['demazure_dim']} "
        f"equal={r['characters_equal']} avoids_2143={r['avoids_2143']}"
        for r in rows
    ) + f"\nviolations: {violations}"
    _emit(args, payload, text)
    return 0 if violations == 0 else 1


def _cmd_verify(args) -> int:
    rows = run_suites(args.suite, args.upto, args.seed)
    ok = all(r.ok for r in rows)
    if args.format == "json":
        print(
            json.dumps(
                {"suite": args.suite, "results": [r.to_json() for r in rows], "ok": ok},
                sort_keys=True,
            )
        )
    else:
        width = max(len(r.name) for r in rows)
        for r in rows:
            mark = "PASS" if r.ok else "FAIL"
            line = f"[{mark}] {r.name.ljust(width)}"
            if r.detail:
                line += f"  {r.detail}"
            print(line)
        print(f"{'all checks passed' if ok else 'FAILURES PRESENT'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Parser

@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The ``kp`` parser, built on the first :func:`main` call and reused by
    every later one: building it costs far more than a parse.  Reuse is safe
    because each parse makes a fresh namespace and no default is mutable."""
    parser = argparse.ArgumentParser(
        prog="kp",
        description="Exact Schubert polynomial and Kraskiewicz-Pragacz module workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        p.add_argument("--format", choices=("json", "text"), default="json")
        return p

    p = add("schubert", _cmd_schubert, "Schubert polynomial of a code or permutation")
    p.add_argument("--code", type=_weight)
    p.add_argument("--perm", type=_perm)
    p.add_argument("-n", type=int)
    p.add_argument("--method", choices=("transition", "staircase"), default="transition")

    p = add("code", _cmd_code, "Lehmer code of a permutation")
    p.add_argument("--perm", type=_perm, required=True)
    p.add_argument("-n", type=int, required=True)

    p = add("perm", _cmd_perm, "permutation with a given nonnegative code")
    p.add_argument("--code", type=_weight, required=True)

    p = add("transition", _cmd_transition, "maximal-descent transition data")
    p.add_argument("--perm", type=_perm, required=True)

    p = add("mtable", _cmd_mtable, "annihilator exponents m_ij and the pruned pairs")
    p.add_argument("--perm", type=_perm)
    p.add_argument("--code", type=_weight)
    p.add_argument("-n", type=int)

    p = add("kp-char", _cmd_kp_char, "character of the KP module of a weight")
    p.add_argument("--code", type=_weight, required=True)

    p = add("kp-dim", _cmd_kp_dim, "dimension of the KP module of a weight")
    p.add_argument("--code", type=_weight, required=True)

    p = add("annihilator", _cmd_annihilator, "annihilator verification for a permutation")
    p.add_argument("--perm", type=_perm)
    p.add_argument("--code", type=_weight)
    p.add_argument("-n", type=int)

    p = add("expand", _cmd_expand, "expand a polynomial in the Schubert basis")
    p.add_argument("--poly", help="LaurentPoly JSON")
    p.add_argument("--product", type=_pair, help="lam:mu for S_lam * S_mu")

    p = add("pairing", _cmd_pairing, "dual coefficient pairing against a weight")
    p.add_argument("--schubert", type=_weight, help="pair the Schubert polynomial of this weight")
    p.add_argument("--poly", help="LaurentPoly JSON")
    p.add_argument("--mu", type=_weight, required=True)

    p = add("cauchy", _cmd_cauchy, "finite Cauchy-window identity check")
    p.add_argument("--mu", type=_weight, required=True)
    p.add_argument("--nu", type=_weight, required=True)

    p = add("u3", _cmd_u3, "rank-3 presentation and operator-identity checks")
    p.add_argument("--check", choices=("presentation", "identity"), required=True)
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--b", type=int, default=0)
    p.add_argument("--case", type=int, choices=range(1, 7))
    p.add_argument("--N", type=int, default=0)
    p.add_argument("--M", type=int, default=0)
    p.add_argument("--N2", type=int)
    p.add_argument("--M2", type=int)

    p = add("filtration", _cmd_filtration, "extract a KP filtration of a module")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--tensor", type=_pair, help="lam:mu for KP(lam) (x) KP(mu)")
    which.add_argument("--kp", type=_weight)
    which.add_argument("--one-dim", dest="one_dim", type=_weight)
    p.add_argument("--expect-ok", action="store_true")

    p = add("tensor-exp", _cmd_tensor_exp, "tensor-product filtration experiment")
    p.add_argument("--pair", type=_pair, required=True)
    p.add_argument("--expect-ok", action="store_true")

    p = add("plethysm-exp", _cmd_plethysm_exp, "Schur-functor filtration experiment")
    p.add_argument("--sigma", type=_weight, required=True)
    p.add_argument("--code", type=_weight, required=True)
    p.add_argument("--expect-ok", action="store_true")

    p = add("demazure-compare", _cmd_demazure_compare, "KP vs Demazure characters")
    p.add_argument("--code", type=_weight)
    p.add_argument("--upto", type=int, default=4)

    p = add("verify", _cmd_verify, "run a named verification suite")
    p.add_argument("--suite", default="all")
    p.add_argument("--upto", type=int)
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed a usage message
        return exc.code if isinstance(exc.code, int) else 2
    try:
        max_dim()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        return args.func(args)
    except ModuleTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"run 'kp {args.command} --help' for usage", file=sys.stderr)
        return 2


def entry() -> None:
    """``main`` on sys.argv.  A closed stdout ends it quietly, as it ends a
    Unix filter: SIGPIPE's default action, where the platform has the signal."""
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
