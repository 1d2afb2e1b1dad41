"""The same-bytes tool: its sweep and its report, without running it."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import samebytes  # noqa: E402


def test_sweep_covers_every_command_and_the_error_exits():
    cases = samebytes.sweep()
    names = [samebytes.name(c) for c in cases]
    assert len(set(names)) == len(names)
    firsts = {c[0][0] for c in cases}
    assert firsts == {"count", "welschinger", "phi-check", "degenerate",
                      "trees", "disks", "scatter", "potential", "render"}
    assert any("--rescale" in c[0] for c in cases)
    # every document the renderer draws is rendered, from the case's own
    # --out file
    for c in cases:
        if "--out" in c[0]:
            assert c[0][0] in ("count", "degenerate", "scatter", "potential")
            assert c[1] == ["render", "doc.json", "doc.svg"]
    for bad in ("count --degree 0", "count --fan nosuchfan --degree 1",
                "potential --k 2 --q 1/2", "render missing.json out.svg"):
        assert bad in names
    for fan in ("p2", "p1xp1"):
        assert "count --fan %s --degree anticanonical --seed 1" % fan in names
    assert "count --fan p1xp1 --degree 2 --seed 77" in names
    for cmd in ("trees", "disks"):
        assert "%s --fan p2 --k 5 --seed 1" % cmd in names


def test_differences_name_each_stream_and_file():
    case = [["count", "--out", "doc.json"], ["render", "doc.json", "a.svg"]]
    old = ([(0, b"", b"n = 1\n"), (0, b"", b"ok\n")],
           {"doc.json": b"{}", "a.svg": b"<svg/>"})
    assert samebytes.differences(case, old, old) == []
    new = ([(3, b"", b"n = 1\n"), (0, b"", b"ok\n")],
           {"doc.json": b"{}", "b.svg": b"<svg/>"})
    assert samebytes.differences(case, old, new) == [
        "exit code of `count --out doc.json`: 0 -> 3",
        "file a.svg differs", "file b.svg differs"]
