"""The benchmark's traced functions exist under the names it patches."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_target_is_an_attribute_of_its_owner(monkeypatch):
    """A rename in ``src/`` would otherwise break only a traced benchmark run."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    targets = workloads.trace_targets()
    assert targets
    missing = [name for name, owner, attr in targets if not hasattr(owner, attr)]
    assert missing == []
