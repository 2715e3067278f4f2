"""The update soak (``scripts/soak_ingest.py``) at a small scale.

The soak is the CI job that exercises the rebuild rule under a long
interleaved update stream; here it runs a few rounds in-process, once with
enough churn for unforced passes to rebuild shards and once with too little,
where the soak itself must fail.
"""

import importlib.util
import re
from pathlib import Path

import pytest

_SOAK_PATH = Path(__file__).resolve().parents[1] / "scripts" / "soak_ingest.py"
_spec = importlib.util.spec_from_file_location("soak_ingest", _SOAK_PATH)
soak = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(soak)


def _soak(rounds, ops_per_round):
    return soak.main([
        "--rounds", str(rounds), "--cardinality", "2000", "--shards", "2",
        "--ops-per-round", str(ops_per_round), "--checks-per-round", "3",
        "--kill-rounds", "0",
    ])


def test_soak_passes_when_unforced_passes_rebuild(capsys):
    assert _soak(rounds=5, ops_per_round=200) == 0
    summary = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("soak ok: ")]
    assert len(summary) == 1
    rebuilds = re.search(r"(\d+) shard rebuilds by unforced passes", summary[0])
    assert rebuilds and int(rebuilds.group(1)) > 0, summary[0]


def test_soak_fails_when_the_rule_never_fires():
    # 10 inserts a round over 2 shards never reach the rule's floor
    with pytest.raises(SystemExit, match="no unforced maintenance pass rebuilt"):
        _soak(rounds=2, ops_per_round=20)
