"""Record the reference output of every CLI request of the ``cli_requests``
workload, as ``cli_golden.json``: argv -> [exit code, stdout digest], or
null for a request refused at the KP_MAX_DIM cap.

Run it from the repository root only at a commit whose CLI output is the
reference (``python3 bench/golden.py``); the benchmark then fails any later
commit whose output differs.
"""

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

for key in [k for k in os.environ if k.startswith("KP_")]:
    del os.environ[key]

from kpmod import ModuleTooLargeError  # noqa: E402
from tracing import NullTracer  # noqa: E402
from workloads import CAP_REQUESTS, GOLDEN, cli_request, cli_pool, digest  # noqa: E402


def main() -> None:
    requests = [argv for reqs in cli_pool(NullTracer()).values() for argv in reqs]
    recorded = {}
    for argv in requests + list(CAP_REQUESTS):
        try:
            rc, out = cli_request(argv)
            recorded[" ".join(argv)] = [rc, digest(out)]
        except ModuleTooLargeError:
            recorded[" ".join(argv)] = None
    lines = [f"{json.dumps(k)}: {json.dumps(recorded[k])}" for k in sorted(recorded)]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    refused = sum(v is None for v in recorded.values())
    print(f"recorded {len(recorded)} requests ({refused} refused at the cap) in {GOLDEN.name}")


if __name__ == "__main__":
    main()
