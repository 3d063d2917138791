"""One pass of one workload in a fresh interpreter; started by run.py.

    python3 bench/worker.py <workload> <seed> <order> <setup|plain|spans|alloc> <spawn time>

``spawn time`` is the parent's ``time.monotonic()`` just before it started
this process, so set-up time covers interpreter start, ``import kpmod`` and
input generation; it is scaled by the median of three ``calibrate`` probes
taken right after.  A ``setup`` pass stops there.  Prints one JSON object;
exits 3 on a wrong answer.
"""

import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    workload, seed, order, mode = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
    spawned = float(sys.argv[5])
    sys.path.insert(0, str(ROOT / "src"))
    import kpmod
    from kpmod.modules import max_dim

    if not Path(kpmod.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"imported kpmod from {kpmod.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    from tracing import NullTracer, Tracer
    from workloads import CAL_REF_S, WrongAnswer, build_ops, calibrate, run_pass

    tr = Tracer(alloc=mode == "alloc") if mode in ("spans", "alloc") else NullTracer()
    ops = build_ops(workload, seed, order, tr)
    setup_wall_s = time.monotonic() - spawned
    probe = statistics.median(calibrate() for _ in range(3))
    setup = {"setup_s": setup_wall_s * CAL_REF_S / probe, "setup_wall_s": setup_wall_s}
    if mode == "setup":
        print(json.dumps(setup))
        return 0
    try:
        result = run_pass(ops, tr)
    except WrongAnswer as exc:
        print(f"wrong answer in {workload} (seed {seed}): {exc}", file=sys.stderr)
        return 3
    result.update(
        setup,
        rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        kp_max_dim=max_dim(),
    )
    if tr.on:
        result.update(spans=tr.summary(), counts=dict(tr.counts), peaks=tr.peaks)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
