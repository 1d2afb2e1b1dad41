"""The scaling tool: its case list and its records, run on a stub."""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import scale  # noqa: E402


def test_cases_are_the_large_ones():
    assert [" ".join(c) for c in scale.CASES] == [
        "count --degree 4 --seed 1",
        "count --degree 4 --seed 2",
        "count --fan p1xp1 --degree 3 --seed 1",
        "scatter --k 7 --seed 3",
        "potential --k 7 --seed 3",
        "degenerate --degree 4 --seed 1"]


def test_records_one_line_per_case(tmp_path, capsys):
    ran = []

    def stub(argv):
        ran.append(argv)
        return 1.23456, 204800, len(ran) - 1, b"out %d" % len(ran)

    assert scale.main(["--label", "t"], runner=stub, root=tmp_path) == 0
    assert ran == scale.CASES
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert doc["label"] == "t" and doc["cpus"] >= 1 and doc["python"]
    assert [r["case"] for r in doc["cases"]] == [" ".join(c) for c in ran]
    for i, r in enumerate(doc["cases"]):
        assert r == {"case": " ".join(ran[i]), "wall_s": 1.235,
                     "peak_rss_mb": 200.0, "exit": i,
                     "stdout_sha256": hashlib.sha256(
                         b"out %d" % (i + 1)).hexdigest()}
    assert len(capsys.readouterr().err.splitlines()) == len(ran)
