"""kpmod benchmark: run one workload (or all) and print its metrics.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each pass runs every operation of the workload once in a fresh interpreter
(``worker.py``), so the program's process-wide caches start cold, and with
every ``KP_*`` variable removed from its environment, so ``KP_MAX_DIM`` has
its default.  Passes repeat until ``--seconds`` have gone by, and at least
MIN_PASSES times, each in its own seeded operation order; metrics are
medians over passes.  SETUP_PASSES more passes stop after set-up, to give
``setup_s`` more samples.  ``ops_per_s`` and ``setup_s`` are in scaled
seconds (see ``workloads.run_pass``).

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics,
taken from passes that record a span around every call the benchmark makes
into a layer, and from alloc passes that add tracemalloc around kp_module
and char_criterion.  A traced run also makes untraced passes, to report the
tracing overhead.  Any wrong answer ends the run with a nonzero exit code
and no result line.  Run metadata is printed on the line before the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("kp_sweep", "filtration_mix", "schubert_calc", "cli_requests")
MIN_PASSES = 3
SETUP_PASSES = 8  # extra passes that stop after set-up, for a steadier setup_s
PASS_TIMEOUT_S = 170

SPANS = (
    "op",
    "modules.kp_module",
    "modules.annihilator_check",
    "modules.demazure_module",
    "modules.sl3_presentation_check",
    "modules.tensor_many",
    "filtration.char_criterion",
    "filtration.kp_filtration_extract",
    "filtration.young_symmetrizer_image",
    "schubert.schubert_poly",
    "schubert.expand_in_schubert",
    "schubert.dual_pairing",
    "schubert.cauchy_window_check",
    "schubert.plethysm_eval",
    "schubert.divided_difference",
    "schubert.kostant_dim",
    "laurent.mul",
    "laurent.eq",
    "permutations.inputs",
    "verify.run_suite",
    "cli.main",
)
SPAN_STATS = (("calls", "count"), ("self_s", "s"), ("p50_ms", "ms"), ("p90_ms", "ms"))
COUNTERS = {
    "modules.kp_module.dim_total": "count",
    "filtration.char_criterion.weights": "count",
    "filtration.kp_filtration_extract.levels": "count",
    "filtration.kp_filtration_extract.dim_total": "count",
    "filtration.young_symmetrizer_image.levels": "count",
    "filtration.young_symmetrizer_image.dim_total": "count",
    "schubert.schubert_poly.terms": "count",
    "laurent.mul.term_pairs": "count",
    "cli.main.stdout_bytes": "B",
    "cli.main.exit_nonzero": "count",
}
PEAKS = ("modules.kp_module.alloc_peak_kib", "filtration.char_criterion.alloc_peak_kib")


def refusable(span: str) -> bool:
    return span.startswith(("modules.", "filtration.")) or span == "cli.main"


def per_layer_metrics() -> list:
    """(name, unit, better) of every per-layer metric, in output order."""
    out = []
    for span in SPANS:
        out += [(f"{span}.{stat}", unit, "lower") for stat, unit in SPAN_STATS]
        if refusable(span):
            out.append((f"{span}.refused", "count", "lower"))
    out.append(("modules.kp_module.repeat_frac", "frac", "higher"))
    out += [(name, unit, "lower") for name, unit in COUNTERS.items()]
    out += [(name, "KiB", "lower") for name in PEAKS]
    out += [
        ("trace.ops_per_s", "1/s", "higher"),
        ("trace.untraced_ops_per_s", "1/s", "higher"),
        ("trace.overhead_frac", "frac", "lower"),
    ]
    return out


END_TO_END = (
    ("ops_per_s", "1/s"),
    ("completed_frac", "frac"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def run_pass(workload: str, seed: int, order: int, mode: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("KP_")}
    env["PYTHONHASHSEED"] = "0"
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(order), mode]
    proc = subprocess.run(
        argv + [repr(time.monotonic())],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} {mode} pass (seed {seed}) exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Passes by mode.  A traced run cycles plain, spans and alloc passes,
    and the passes of one cycle share an operation order."""
    modes = ("plain", "spans", "alloc") if trace else ("plain",)
    passes: dict = {m: [] for m in modes}
    passes["setup"] = [run_pass(workload, seed, k, "setup") for k in range(SETUP_PASSES)]
    start = time.monotonic()
    k = 0
    while k < MIN_PASSES or time.monotonic() - start < seconds:
        cycle, mode = divmod(k, len(modes))
        passes[modes[mode]].append(run_pass(workload, seed, cycle, modes[mode]))
        k += 1
    return passes


def _ops_per_s(p: dict, clock: str = "scaled_s") -> float:
    done = sum(p["attempted"].values()) - sum(p["refused"].values())
    return done / p[clock]


def end_to_end(passes: dict) -> dict:
    plain = passes["plain"]
    attempted = sum(sum(p["attempted"].values()) for p in plain)
    refused = sum(sum(p["refused"].values()) for p in plain)
    values = {
        "ops_per_s": statistics.median(_ops_per_s(p) for p in plain),
        "completed_frac": (attempted - refused) / attempted,
        "peak_rss_mb": statistics.median(p["rss_kib"] / 1024 for p in plain),
        "setup_s": statistics.median(p["setup_s"] for p in plain + passes["setup"]),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(passes: dict) -> dict:
    spans, alloc = passes["spans"], passes["alloc"]

    def med(values):
        return statistics.median(list(values))

    values = {}
    for span in SPANS:
        stats = [p["spans"].get(span) for p in spans]
        for stat, _ in SPAN_STATS:
            values[f"{span}.{stat}"] = med(s[stat] if s else 0 for s in stats)
        if refusable(span):
            values[f"{span}.refused"] = med(s["refused"] if s else 0 for s in stats)
    calls = values["modules.kp_module.calls"]
    repeats = med(p["counts"].get("modules.kp_module.repeats", 0) for p in spans)
    values["modules.kp_module.repeat_frac"] = repeats / calls if calls else 0
    for name in COUNTERS:
        values[name] = med(p["counts"].get(name, 0) for p in spans)
    for name in PEAKS:
        values[name] = med(p["peaks"].get(name, 0) for p in alloc)
    traced = med(_ops_per_s(p) for p in spans)
    untraced = med(_ops_per_s(p) for p in passes["plain"])
    values["trace.ops_per_s"] = traced
    values["trace.untraced_ops_per_s"] = untraced
    values["trace.overhead_frac"] = 1 - traced / untraced
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_metrics()}


def commit():
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(workload: str, seed: int, passes: dict) -> dict:
    first = passes["plain"][0]
    return {
        "workload": workload,
        "seed": seed,
        "passes": {mode: len(ps) for mode, ps in passes.items()},
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": commit(),
        "kp_max_dim": first["kp_max_dim"],
        "wall_ops_per_s": [_ops_per_s(p, "timed_s") for p in passes["plain"]],
        "cpu_speed": [p["timed_s"] / p["scaled_s"] for p in passes["plain"]],
        "attempted_per_kind": first["attempted"],
        "refused_per_kind": first["refused"],
        "src_lines": sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py")),
    }


def summary_line(workload: str, metrics: dict, meta: dict) -> str:
    attempted = sum(meta["attempted_per_kind"].values())
    refused = sum(meta["refused_per_kind"].values())
    parts = [f"{name}={m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    return (
        f"{workload}: " + "  ".join(parts)
        + f"  fail_frac={refused / attempted:.4f} ({refused}/{attempted} refused)"
        + f"  passes={meta['passes']}"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "kpmod" / "__init__.py").is_file():
        print(f"no kpmod sources under {ROOT / 'src'}; run from a kpmod checkout", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = refused = 0
    metrics: dict = {}
    for workload in workloads:
        passes = measure(workload, args.seed, args.seconds, bool(args.trace))
        meta = metadata(workload, args.seed, passes)
        print(summary_line(workload, end_to_end(passes), meta))
        print(json.dumps({"meta": meta}, sort_keys=True))
        found = per_layer(passes) if args.trace else end_to_end(passes)
        for p in (q for mode, ps in passes.items() if mode != "setup" for q in ps):
            attempted += sum(p["attempted"].values())
            refused += sum(p["refused"].values())
        prefix = "" if len(workloads) == 1 else f"{workload}."
        metrics.update({prefix + name: m for name, m in found.items()})
    print(json.dumps({"correct": True, "attempted": attempted, "failed": refused, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
