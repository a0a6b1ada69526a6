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


def test_main_calls_the_commands_the_benchmark_rebinds(monkeypatch, tmp_path):
    """``cli.main`` must look each ``cmd_*`` up when it runs: the traced run
    wraps them by rebinding module attributes, which a table filled at import
    would bypass."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    from rapkit import cli
    calls = {}
    for name in cli.COMMANDS:
        def command(cfg, name=name, **paths):
            calls[name] = paths
            return 0
        monkeypatch.setattr(cli, f"cmd_{name}", command)
    recorder = spans.Recorder()
    targets = [(f"cli.{name}", cli, f"cmd_{name}") for name in cli.COMMANDS]
    with spans.patched(recorder, targets, "rapkit"):
        for name in cli.COMMANDS:
            args = ["--scores", "s.json", "--plan", "p.json"] if name == "prune" else []
            assert cli.main([name, "--out", str(tmp_path / name)] + args) == 0
    assert [span[spans.NAME] for span in recorder.spans] == [t[0] for t in targets]
    assert calls == {name: {} for name in cli.COMMANDS} | {
        "prune": {"scores": "s.json", "plan": "p.json"}}
