"""artifact_diff.py: two trees' CLI artifacts compared file by file."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from rapkit.toymodel import default_spec, spec_from_json

SCRIPT = Path(__file__).resolve().parent.parent / "artifact_diff.py"


def load_script():
    spec = importlib.util.spec_from_file_location("artifact_diff", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_files(root: Path, files: dict[str, bytes]):
    for name, data in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(data)


def test_each_file_is_identical_different_or_missing(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_files(parent, {"rap-seed7/scores.json": b"{}", "rap-seed7/verify.json": b"1",
                         "svd-seed7/budget.json": b"plan"})
    write_files(change, {"rap-seed7/scores.json": b"{}", "rap-seed7/verify.json": b"2",
                         "palu-seed7/budget.json": b"plan"})
    assert load_script().compare(parent, change) == {
        "palu-seed7/budget.json": "missing in parent",
        "rap-seed7/scores.json": "identical",
        "rap-seed7/verify.json": "different",
        "svd-seed7/budget.json": "missing in change",
    }


def test_exit_one_unless_every_file_is_identical(tmp_path, monkeypatch, capsys):
    script = load_script()
    trees = {tmp_path / "a": b"x", tmp_path / "b": b"x", tmp_path / "c": b"y"}

    def fake_run(tree, workdir):
        write_files(workdir, {"rap-seed7/scores.json": trees[tree]})

    monkeypatch.setattr(script, "run_pipelines", fake_run)
    args = ["--parent", str(tmp_path / "a"), "--change"]
    assert script.main(args + [str(tmp_path / "b")]) == 0
    assert "1 of 1 files identical" in capsys.readouterr().out
    assert script.main(args + [str(tmp_path / "c")]) == 1
    assert "different         rap-seed7/scores.json" in capsys.readouterr().out


def test_half_split_pipelines_run_on_a_half_split_config(tmp_path, monkeypatch):
    """The half_split pipelines hand every command a config, one per seed,
    whose spec is the default desk spec with half-split pairs at that seed."""
    script = load_script()
    calls = []

    def fake_run(argv, cwd, **kwargs):
        if "rapkit" in argv:   # not the medium logit digests
            calls.append(argv[argv.index("rapkit") + 1:])
        return subprocess.CompletedProcess(argv, 0)

    monkeypatch.setattr(script.subprocess, "run", fake_run)
    script.run_pipelines(tmp_path, tmp_path)
    for seed in script.SEEDS:
        config = json.loads((tmp_path / f"half_split-seed{seed}.json").read_text())
        spec = spec_from_json(config["model"]["spec"])
        assert spec == default_spec(seed=seed, pairing="half_split")
        for name, commands in (("half_split-rap", ["score", "prune", "distill", "report",
                                                   "sweep", "verify"]),
                               ("half_split-svd", ["prune", "distill"])):
            runs = [argv for argv in calls if argv[argv.index("--out") + 1]
                    == f"{name}-seed{seed}"]
            assert [argv[0] for argv in runs] == commands
            for argv in runs:
                assert argv[argv.index("--config") + 1] == f"half_split-seed{seed}.json"
                assert argv[argv.index("--seed") + 1] == str(seed)
                assert ("--method" in argv) == (name == "half_split-svd")


def test_the_medium_logit_digests_are_written_last_and_compared(tmp_path, monkeypatch, capsys):
    """After the pipelines, a child on the tree's ``src`` with BLAS pinned to
    one thread writes the digest file into the work directory, where it is
    compared with the artifacts."""
    script = load_script()
    calls = []

    def fake_run(argv, cwd, env, **kwargs):
        calls.append((argv, cwd, env))
        return subprocess.CompletedProcess(argv, 0)

    monkeypatch.setattr(script.subprocess, "run", fake_run)
    script.run_pipelines(tmp_path / "tree", tmp_path)
    argv, cwd, env = calls[-1]
    assert argv == [sys.executable, "-c", script.DIGEST_CHILD, "medium_logits.json"]
    assert cwd == tmp_path and env["PYTHONPATH"] == str((tmp_path / "tree").resolve() / "src")
    assert all(env[name] == "1" for name in script.BLAS_THREADS)
    assert sum("rapkit" not in argv for argv, _, _ in calls) == 1
    monkeypatch.undo()

    trees = {tmp_path / "a": b"{1}", tmp_path / "b": b"{2}"}
    monkeypatch.setattr(script, "run_pipelines", lambda tree, workdir: write_files(
        workdir, {"rap-seed7/scores.json": b"{}", script.DIGEST: trees[tree]}))
    assert script.main(["--parent", str(tmp_path / "a"), "--change", str(tmp_path / "b")]) == 1
    assert "different         medium_logits.json" in capsys.readouterr().out


def test_the_digest_child_writes_both_digests_of_every_method(tmp_path):
    """The child run on this tree's ``src``: each medium method's prefill
    and decode logits as SHA-256 digests, 64 hex digits each."""
    script = load_script()
    env = {"PYTHONPATH": str(SCRIPT.parent / "src"), **dict.fromkeys(script.BLAS_THREADS, "1")}
    subprocess.run([sys.executable, "-c", script.DIGEST_CHILD, script.DIGEST], cwd=tmp_path,
                   env=env, check=True)
    digests = json.loads((tmp_path / script.DIGEST).read_text())
    assert list(digests) == ["baseline", "svd", "palu", "rap"]
    for method in digests.values():
        assert list(method) == ["prefill", "decode"]
        assert all(len(d) == 64 and int(d, 16) >= 0 for d in method.values())
    assert len({d for method in digests.values() for d in method.values()}) == 8
