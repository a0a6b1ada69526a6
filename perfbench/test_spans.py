"""Tests of the benchmark's span recorder (run: python3 -m pytest perfbench)."""

import sys
import types

from spans import END, NAME, PARENT, START, Recorder, patched, self_times


def span(name, start, end, parent):
    return [name, start, end, parent, None]


def test_self_times_of_a_synthetic_tree_add_up_to_the_root():
    tree = [
        span("root", 0, 100, -1),
        span("a", 10, 40, 0),
        span("a.1", 15, 25, 1),
        span("b", 50, 90, 0),
        span("b.1", 55, 60, 3),
        span("b.2", 70, 80, 3),
        span("b.2.x", 72, 75, 5),
    ]
    own = self_times(tree)
    assert own == [30, 20, 10, 25, 5, 7, 3]
    assert sum(own) == tree[0][END] - tree[0][START]


def test_children_that_overlap_are_covered_once():
    tree = [span("root", 0, 100, -1), span("a", 10, 40, 0), span("b", 30, 60, 0)]
    assert self_times(tree)[0] == 50


def _fake_package():
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def leaf(x):
        return x + 1

    def outer(x):
        return core.leaf(x) + user.leaf(x)

    class Thing:
        def method(self, x):
            return core.outer(x)

    core.leaf, core.outer, core.Thing = leaf, outer, Thing
    user.leaf = leaf            # imported by name into a second module
    return core, user


def test_patched_wraps_every_binding_and_restores_them(monkeypatch):
    core, user = _fake_package()
    monkeypatch.setitem(sys.modules, "fakepkg.core", core)
    monkeypatch.setitem(sys.modules, "fakepkg.user", user)
    originals = (core.leaf, core.outer, core.Thing.method)
    rec = Recorder()
    targets = [("leaf", core, "leaf"), ("outer", core, "outer"),
               ("method", core.Thing, "method")]
    with patched(rec, targets, package="fakepkg"):
        assert user.leaf is not originals[0]
        with rec.span("request", request=7):
            assert core.Thing().method(1) == 4
        with rec.pause():
            core.outer(1)
    assert (core.leaf, core.outer, core.Thing.method) == originals
    assert user.leaf is originals[0]

    names = [s[NAME] for s in rec.spans]
    assert names == ["request", "method", "outer", "leaf", "leaf"]
    assert [s[PARENT] for s in rec.spans] == [-1, 0, 1, 2, 2]
    assert all(s[4] == 7 for s in rec.spans)
    root = rec.spans[0]
    assert sum(self_times(rec.spans)) == root[END] - root[START]
