"""Pass stdin through to stdout, then exit 1 unless the SHA-256 of what
passed begins with the given hex digits: a recorded stdout digest as a
gate on a sweep whose output must stay byte-identical.

    python -m kpmod.cli verify --suite orders --upto 7 | python tests/digest.py 62dc6f79fca9344a

Run the pipeline with pipefail, so that the sweep's own exit code counts too.
"""

import hashlib
import sys


def main(argv) -> int:
    if len(argv) != 1 or len(argv[0]) < 16:
        print("usage: python tests/digest.py HEX_PREFIX (16 or more digits) < stdout", file=sys.stderr)
        return 2
    want = argv[0].lower()
    data = sys.stdin.buffer.read()
    sys.stdout.buffer.write(data)
    sys.stdout.flush()
    got = hashlib.sha256(data).hexdigest()
    if not got.startswith(want):
        print(f"stdout SHA-256 {got[:len(want)]}, recorded {want}", file=sys.stderr)
        return 1
    print(f"stdout SHA-256 begins {want}, as recorded", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
