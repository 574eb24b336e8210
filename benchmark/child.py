"""Fresh-process measurements for run.py.

  python3 benchmark/child.py setup
      prints the seconds it takes to import flatjava and its CLI.
  python3 benchmark/child.py rss SRC_DIR OUT_DIR
      runs flatten, compare and metrics once on SRC_DIR and prints the
      process's peak resident memory in MB.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    if argv[:1] == ["setup"]:
        start = time.perf_counter()
        import flatjava.cli  # noqa: F401

        print(time.perf_counter() - start)
        return 0
    if argv[:1] == ["rss"] and len(argv) == 3:
        import resource

        from commands import Commands

        commands = Commands()
        src, out = argv[1], argv[2]
        for args in Commands.round_args(src, out):
            commands.run(args)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
