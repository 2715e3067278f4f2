#!/usr/bin/env python
"""The code surface of a checkout: the counts a simplification is judged by.

Prints one JSON record per line, each a ``keyfields`` -> ``resultfields``
pair as a ``BENCH_<pr>.json`` file holds them:

* ``src_repro_lines`` -- lines of every ``.py`` file under ``src/repro``;
* ``repro_all_names`` / ``repro_engine_all_names`` -- the sizes of
  ``repro.__all__`` and ``repro.engine.__all__``;
* ``cli_add_argument_calls`` -- lines of ``src/repro/cli.py`` that call
  ``add_argument(``;
* ``repro_metric_names`` -- distinct quoted ``"repro_*"`` metric names in
  ``src/repro``;
* ``params_<callable>`` -- the parameters of ``IntervalStore.open``,
  ``IntervalStore.__init__``, ``ShardedIndex`` and ``QueryServer``, ``**opts``
  included and ``self``/``cls`` not.

Every count is lower-is-better.  The names are read by importing the
checkout's own ``src`` in a child interpreter, so any checkout can be
measured, e.g. a parent commit unpacked beside this one::

    python scripts/surface.py                  # the checkout this script is in
    python scripts/surface.py /path/to/parent  # another checkout
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

#: the introspected rows, computed in a child interpreter over ``ROOT/src``
_PROBE = """
import inspect, json
import repro, repro.engine
from repro.engine import IntervalStore, ShardedIndex
from repro.serve import QueryServer

def params(fn):
    return len(inspect.signature(fn).parameters)

print(json.dumps({
    "repro_all_names": len(repro.__all__),
    "repro_engine_all_names": len(repro.engine.__all__),
    "params_IntervalStore.open": params(IntervalStore.open),
    "params_IntervalStore.__init__": params(IntervalStore),
    "params_ShardedIndex": params(ShardedIndex),
    "params_QueryServer": params(QueryServer),
}))
"""

_HOW = {
    "src_repro_lines": "cat $(find src/repro -name '*.py') | wc -l",
    "repro_all_names": "len(repro.__all__)",
    "repro_engine_all_names": "len(repro.engine.__all__)",
    "cli_add_argument_calls": "grep -c 'add_argument(' src/repro/cli.py",
    "repro_metric_names": "grep -rhoE '\"repro_[a-z0-9_]+\"' src/repro | sort -u | wc -l",
}


def measure(root: Path) -> Dict[str, int]:
    """Every surface count of the checkout at ``root``."""
    package = root / "src" / "repro"
    sources = sorted(package.rglob("*.py"))
    texts = [path.read_text() for path in sources]
    counts = {
        "src_repro_lines": sum(text.count("\n") for text in texts),
        "cli_add_argument_calls": sum(
            "add_argument(" in line
            for line in (package / "cli.py").read_text().splitlines()
        ),
        "repro_metric_names": len(
            {name for text in texts for name in re.findall(r'"repro_[a-z0-9_]+"', text)}
        ),
    }
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    probe = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, check=True
    )
    counts.update(json.loads(probe.stdout))
    return counts


def _commit(root: Path) -> str:
    """The checkout's commit (``+dirty`` with uncommitted changes), or
    ``"unknown"`` outside a git work tree."""

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", str(root), *args], capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        return git("rev-parse", "HEAD") + ("+dirty" if git("status", "--porcelain") else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def records(root: Path) -> List[dict]:
    """The surface of ``root`` as keyfields -> resultfields records."""
    commit = _commit(root)
    return [
        {
            "keyfields": {"workload": "surface", "metric": metric, "commit": commit},
            "resultfields": {
                "unit": "count",
                "better": "lower",
                "how": _HOW.get(metric, "len(inspect.signature(...).parameters)"),
                "value": value,
            },
        }
        for metric, value in measure(root).items()
    ]


def main(argv: List[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    for record in records(root.resolve()):
        print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
