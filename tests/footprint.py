"""Memory a sweep of KP modules leaves held, measured with tracemalloc.

Builds ``kp_module`` on every code of S_6 (720 of them), takes its
``character()`` and runs ``annihilator_check`` on its permutation, then
prints the bytes still allocated: the memos, the modules they keep and the
Schubert polynomials.  Exits nonzero when that is above the bound, 4.0 MB.

    PYTHONPATH=src python tests/footprint.py
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

from kpmod import annihilator_check, clear_caches, code, kp_module
from kpmod.permutations import all_permutations

N = 6
BOUND = 4_000_000


def held_after_sweep(n: int = N) -> int:
    """Bytes still allocated after the S_n sweep, from empty memos."""
    clear_caches()
    gc.collect()
    tracemalloc.start()
    try:
        for w in all_permutations(n):
            lam = code(w, n)
            kp_module(lam).character()
            annihilator_check(w, n)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def main() -> int:
    held = held_after_sweep()
    verdict = "within" if held <= BOUND else "above"
    print(f"S_{N} KP sweep holds {held:,} bytes ({held / 1e6:.2f} MB), {verdict} the {BOUND / 1e6:.1f} MB bound")
    return 0 if held <= BOUND else 1


if __name__ == "__main__":
    sys.exit(main())
