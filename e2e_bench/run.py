#!/usr/bin/env python3
"""Run the end-to-end benchmark: see README.md beside this file.

    python3 e2e_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Needs the program's source at ``src/repro`` next to this directory and imports
it from there, never from an installed copy.
"""

from __future__ import annotations

import sys
from pathlib import Path


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {root / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(root)]
    from e2e_bench.runner import main as runner_main

    return runner_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
