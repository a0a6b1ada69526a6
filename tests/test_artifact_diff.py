"""artifact_diff.py: two trees' CLI artifacts compared file by file."""

import importlib.util
from pathlib import Path

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
