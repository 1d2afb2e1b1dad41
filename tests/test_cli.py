"""End-to-end runs of the command line driver.

Every test shells out to ``python3 -m tropenum`` so the argument parsing,
exit codes, and byte-level output determinism are exercised exactly the
way a shell user sees them.
"""

import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

from fractions import Fraction

from tropenum import jsonio
from tropenum.enumeration import sample_generic_points


def run_cli(*args, env=None):
    e = dict(os.environ)
    e.pop("TROPENUM_SEED", None)
    if env:
        e.update(env)
    return subprocess.run([sys.executable, "-m", "tropenum"] + list(args),
                          capture_output=True, env=e)


def doc_of(proc):
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout.decode())


def test_count_cubic():
    p = run_cli("count", "--degree", "3", "--seed", "7")
    doc = doc_of(p)
    assert doc["n_trop"] == 12
    assert "n_trop = 12" in p.stderr.decode()
    assert sum(doc["multiplicities"]) == 12
    again = run_cli("count", "--degree", "3", "--seed", "7")
    assert again.stdout == p.stdout


def test_count_line_and_conic():
    for d, seed in (("1", 2), ("2", 4)):
        doc = doc_of(run_cli("count", "--degree", d, "--seed", str(seed)))
        assert doc["n_trop"] == 1
        assert doc["multiplicities"] == [1]


def test_welschinger_dp6():
    p = run_cli("welschinger", "--fan", "dp6", "--degree", "anticanonical",
                "--seed", "3")
    doc = doc_of(p)
    assert doc["w_trop"] == 8
    assert doc["n_trop"] == 12
    assert set(doc["multiplicities"]) <= {1, 3, 4}
    assert doc["multiplicities"] == sorted(doc["multiplicities"])
    assert "w_trop = 8" in p.stderr.decode()


def test_jobs_do_not_change_output():
    one = run_cli("count", "--fan", "dp6", "--degree", "anticanonical",
                  "--seed", "3", "--jobs", "1")
    two = run_cli("count", "--fan", "dp6", "--degree", "anticanonical",
                  "--seed", "3", "--jobs", "2")
    assert one.returncode == 0 and two.returncode == 0
    assert one.stdout == two.stdout


def test_seed_env_default():
    flagged = run_cli("potential", "--k", "1", "--seed", "3")
    defaulted = run_cli("potential", "--k", "1",
                        env={"TROPENUM_SEED": "3"})
    assert flagged.returncode == 0
    assert flagged.stdout == defaulted.stdout


def test_bad_seed_env_is_a_usage_error(tmp_path):
    bad = {"TROPENUM_SEED": "x3"}
    p = run_cli("potential", "--k", "1", env=bad)
    assert p.returncode == 1
    err = p.stderr.decode()
    assert "Traceback" not in err
    assert [ln for ln in err.splitlines() if "error" in ln] == [
        "error: argument --seed: invalid int value: 'x3'"]
    # an explicit --seed, --help and render never read it
    flagged = run_cli("potential", "--k", "1", "--seed", "3", env=bad)
    assert flagged.returncode == 0
    assert flagged.stdout == run_cli("potential", "--k", "1",
                                     "--seed", "3").stdout
    assert run_cli("--help", env=bad).returncode == 0
    assert run_cli("count", "--help", env=bad).returncode == 0
    missing = str(tmp_path / "missing.json")
    p = run_cli("render", missing, str(tmp_path / "out.svg"), env=bad)
    assert p.returncode == 1
    assert p.stderr.decode().startswith("cannot render %s: " % missing)


def test_every_document_round_trips(tmp_path):
    emitted = [
        ("count", "count", "--degree", "1", "--seed", "2"),
        ("trees", "trees", "--k", "2", "--seed", "5"),
        ("disks", "disks", "--k", "2", "--seed", "5"),
        ("diagram", "scatter", "--k", "2", "--seed", "5"),
        ("potential", "potential", "--k", "2", "--seed", "5"),
        ("phicheck", "phi-check", "--degree", "1", "--seed", "2"),
        ("decomposition", "degenerate", "--fan", "dp6",
         "--degree", "anticanonical", "--seed", "3"),
    ]
    for kind, *args in emitted:
        out = tmp_path / ("%s.json" % kind)
        p = run_cli(*args, "--out", str(out))
        assert p.returncode == 0, (kind, p.stderr.decode())
        text = out.read_text()
        doc = jsonio.load_any(text)
        assert doc["schema"] == jsonio.schema_id(kind)
        # serialization is canonical, so load + dump reproduces the file
        assert jsonio.dumps(doc) == text


def test_usage_errors_exit_one():
    assert run_cli("count", "--degree", "0").returncode == 1
    assert run_cli("count", "--degree", "1,0,0").returncode == 1
    assert run_cli("count", "--fan", "nope", "--degree", "1").returncode == 1
    assert run_cli("count").returncode == 1
    assert run_cli("frobnicate").returncode == 1


def test_degree_zero_names_the_degree():
    p = run_cli("count", "--degree", "0")
    assert p.returncode == 1
    assert p.stderr.decode() == "error: degree too small: no marked points\n"


def test_too_many_points_names_the_limit():
    p = run_cli("trees", "--k", "531")
    err = p.stderr.decode()
    assert p.returncode == 1
    assert "Traceback" not in err
    assert "at most 530 points can be sampled" in err


def test_bad_endpoint_exits_one():
    for q in ("1/0,2", "1", "1,2,3", "x,1"):
        p = run_cli("potential", "--k", "1", "--q", q)
        err = p.stderr.decode()
        assert p.returncode == 1, q
        assert "Traceback" not in err, q
        assert err == "error: --q needs two rationals x,y\n", q


def test_endpoint_on_support_exits_two():
    pt = sample_generic_points(1, 3).points[0]
    qx, qy = Fraction(pt[0], pt[2]), Fraction(pt[1], pt[2])
    p = run_cli("potential", "--k", "1", "--seed", "3",
                "--q", "%s,%s" % (qx, qy))
    assert p.returncode == 2
    assert "resample the endpoint" in p.stderr.decode()


def test_render_svg(tmp_path):
    cases = [
        ("count", "--degree", "1", "--seed", "2"),
        ("scatter", "--k", "2", "--seed", "5"),
        ("potential", "--k", "2", "--seed", "5"),
        ("degenerate", "--fan", "dp6", "--degree", "anticanonical",
         "--seed", "3"),
    ]
    for i, args in enumerate(cases):
        doc = tmp_path / ("doc%d.json" % i)
        svg = tmp_path / ("doc%d.svg" % i)
        assert run_cli(*args, "--out", str(doc)).returncode == 0
        p = run_cli("render", str(doc), str(svg))
        assert p.returncode == 0, p.stderr.decode()
        text = svg.read_text()
        ET.fromstring(text)
        # every coordinate is printed with exactly six decimals
        for m in re.finditer(r"\d+\.\d+", text):
            frac = m.group(0).split(".")[1]
            assert len(frac) == 6, m.group(0)
        assert not re.search(r"\d[eE][-+]?\d", text)


def test_render_rejects_unrenderable_kind(tmp_path):
    doc = tmp_path / "trees.json"
    svg = tmp_path / "trees.svg"
    assert run_cli("trees", "--k", "1", "--seed", "3",
                   "--out", str(doc)).returncode == 0
    p = run_cli("render", str(doc), str(svg))
    assert p.returncode == 1
    assert "cannot render" in p.stderr.decode()
    assert not svg.exists()


def test_render_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"schema\": \"tropenum/count/999\"}")
    p = run_cli("render", str(bad), str(tmp_path / "bad.svg"))
    assert p.returncode == 1
    missing = run_cli("render", str(tmp_path / "absent.json"),
                      str(tmp_path / "absent.svg"))
    assert missing.returncode == 1


# a count document whose first point has the x coordinate %s
COUNT_AT = '{"schema": "tropenum/count/1", "points": [["%s", "0"]]}'


def test_render_rejects_malformed_document(tmp_path):
    bad = tmp_path / "bad.json"
    for text, why in (("{\"schema\": \"tropenum/potential/1\"}",
                       "tropenum/potential/1"),
                      ("{\"schema\": []}", "missing schema id"),
                      (COUNT_AT % "1/0", "'1/0' needs a nonzero denominator"),
                      (COUNT_AT % "1/", "'1/' needs a nonzero denominator"),
                      # docs/schemas.md: "p" or "p/q" in lowest terms
                      *((COUNT_AT % q, "%r is not \"p\" or \"p/q\"" % q)
                        for q in ("2/4", "1/-2", "3/1", "+3", " 3",
                                  "1_000", "a", "1/x"))):
        bad.write_text(text)
        p = run_cli("render", str(bad), str(tmp_path / "bad.svg"))
        err = p.stderr.decode()
        assert p.returncode == 1
        assert "cannot render" in err and why in err
        assert "Traceback" not in err
        assert not (tmp_path / "bad.svg").exists()


def test_render_checks_potential_value_against_its_lines(tmp_path):
    doc = tmp_path / "pot.json"
    assert run_cli("potential", "--k", "1", "--seed", "3",
                   "--out", str(doc)).returncode == 0
    pot = json.loads(doc.read_text())
    pot["value"]["terms"] = []
    doc.write_text(json.dumps(pot))
    p = run_cli("render", str(doc), str(tmp_path / "pot.svg"))
    err = p.stderr.decode()
    assert p.returncode == 1
    assert "potential value disagrees with its lines" in err
    assert "Traceback" not in err
    assert not (tmp_path / "pot.svg").exists()


def test_render_rejects_document_missing_a_rendered_field(tmp_path):
    # the diagram loader accepts this wall, but the renderer reads its "dir"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "schema": "tropenum/diagram/1",
        "walls": [{"base": ["0", "0"], "function": {"terms": []}}]}))
    p = run_cli("render", str(bad), str(tmp_path / "bad.svg"))
    err = p.stderr.decode()
    assert p.returncode == 1
    assert "cannot render" in err and "dir" in err
    assert "Traceback" not in err
    assert not (tmp_path / "bad.svg").exists()


def test_potential_without_marks():
    p = run_cli("potential", "--k", "0", "--seed", "1", "--q", "10,7")
    assert p.returncode == 0
    assert p.stderr.decode().strip() == "W = y0 + x2 + x1 + x0"
    doc = json.loads(p.stdout.decode())
    assert len(doc["lines"]) == 3
    assert doc["walls"] == []


def test_phi_check_line():
    p = run_cli("phi-check", "--degree", "1", "--seed", "2")
    assert p.returncode == 0
    doc = json.loads(p.stdout.decode())
    assert doc["all_match"] is True
    assert "1/1 solutions" in p.stderr.decode()
    # one line through one point, two opposite rays: Phi is the matrix [1]
    for fan, deg, seed in (("p1xp1", "1,0,1,0", "1"),
                           ("p1xp1", "0,1,0,1", "2"),
                           ("dp6", "1,0,0,1,0,0", "1"),
                           ("dp6", "0,1,0,0,1,0", "3")):
        p = run_cli("phi-check", "--fan", fan, "--degree", deg,
                    "--seed", seed)
        assert p.returncode == 0, p.stderr.decode()
        doc = json.loads(p.stdout.decode())
        assert doc["all_match"] is True
        assert doc["solutions"] == [{
            "index": 0, "shape": [1, 1], "cokernel_order": 1,
            "log_count": 1, "product": 1, "mult": 1, "match": True}]


def test_scatter_consistent():
    p = run_cli("scatter", "--k", "2", "--seed", "5")
    assert p.returncode == 0
    doc = json.loads(p.stdout.decode())
    assert doc["consistency"]["ok"] is True
    assert "consistent" in p.stderr.decode()


def test_degenerate_rescale():
    p = run_cli("degenerate", "--fan", "dp6", "--degree", "anticanonical",
                "--seed", "3", "--rescale")
    assert p.returncode == 0, p.stderr.decode()
    doc = json.loads(p.stdout.decode())
    assert all(doc["properties"].values())
    # rescaled vertices are lattice points
    for cone in doc["fan3d"]:
        for x, y, h in cone["generators"]:
            assert isinstance(x, int) and isinstance(y, int)


def test_custom_fan_file(tmp_path):
    fan = tmp_path / "fan.json"
    fan.write_text(json.dumps(
        {"name": "p2copy", "rays": [[1, 0], [0, 1], [-1, -1]]}))
    doc = doc_of(run_cli("count", "--fan", str(fan),
                         "--degree", "1", "--seed", "2"))
    assert doc["n_trop"] == 1
    assert doc["fan"] == "p2copy"


def test_malformed_fan_file_exits_one(tmp_path):
    fan = tmp_path / "fan.json"
    for doc, why in (({"name": "x"}, "needs an object with a \"rays\" list"),
                     ([1, 2], "needs an object with a \"rays\" list"),
                     ({"rays": [[1, 0], "ab", [0, -1]]},
                      "ray \"ab\" is not an integer pair"),
                     ({"name": 5, "rays": [[1, 0], [0, 1], [-1, -1]]},
                      "name 5 is not a string")):
        fan.write_text(json.dumps(doc))
        p = run_cli("count", "--fan", str(fan), "--degree", "1")
        err = p.stderr.decode()
        assert p.returncode == 1, doc
        assert "Traceback" not in err, doc
        assert err == "error: fan file %s: %s\n" % (fan, why), doc
