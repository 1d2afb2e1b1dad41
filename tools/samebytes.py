"""Do the CLI's outputs keep their bytes against another revision?

    python tools/samebytes.py --against REV [--allow CASE ...]

Extracts REV with `git archive` into a temporary directory and runs one
fixed sweep of CLI commands on that tree and on this working tree, each
with PYTHONPATH=<tree>/src and each case in an empty directory of its own.
A case is one command, or a command that writes a document with --out and
the `render` of that document.  For every case it compares stdout, stderr
and the exit code of each step, and the bytes of every file the case left
behind.  Each difference is printed with its case; the exit code is 1
unless every case that differs is named, exactly as printed, by --allow.
"""

import argparse
import os
import subprocess
import sys
import tempfile

from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]

COUNTS = [("p2", "3"), ("p1xp1", "2"), ("dp6", "anticanonical")]
# degrees whose one solution is a line through one point
LINES = [("p1xp1", "1,0,1,0", 1), ("p1xp1", "0,1,0,1", 2),
         ("dp6", "1,0,0,1,0,0", 1), ("dp6", "0,1,0,0,1,0", 3)]


def sweep():
    """The cases, each a list of argument lists for `python -m tropenum`."""
    cases = []
    for fan, deg in COUNTS:
        for seed in range(1, 6):
            base = ["--fan", fan, "--degree", deg, "--seed", str(seed)]
            for cmd in ("welschinger", "phi-check"):
                cases.append([[cmd] + base])
            for cmd, extra in (("count", []), ("degenerate", []),
                               ("degenerate", ["--rescale"])):
                cases.append([[cmd] + base + extra + ["--out", "doc.json"],
                              ["render", "doc.json", "doc.svg"]])
    # one line through one point: the skeleton check walks rays alone
    for fan, deg, seed in LINES:
        for cmd in ("phi-check", "degenerate"):
            cases.append([[cmd, "--fan", fan, "--degree", deg,
                           "--seed", str(seed)]])
    # -K on P2 and P1xP1 is the cubic and the bidegree (2,2)
    for fan in ("p2", "p1xp1"):
        cases.append([["count", "--fan", fan, "--degree", "anticanonical",
                       "--seed", "1"]])
    # a solution whose tree on the level below the last only a pivot disk
    # bending at it first, then at a leaf, uses
    cases.append([["count", "--fan", "p1xp1", "--degree", "2", "--seed",
                   "77"]])
    # 57 solutions, many of them pairings at a last-level glue tree
    cases.append([["count", "--fan", "p1xp1", "--degree", "2,3,2,3",
                   "--seed", "1"]])
    for fan in ("p2", "p1xp1", "dp6"):
        for k in (3, 4):
            base = ["--fan", fan, "--k", str(k), "--seed", "1"]
            for cmd in ("trees", "disks"):
                cases.append([[cmd] + base])
            for cmd in ("scatter", "potential"):
                cases.append([[cmd] + base + ["--out", "doc.json"],
                              ["render", "doc.json", "doc.svg"]])
    # walls that hold several pass trees each
    for cmd in ("trees", "disks"):
        cases.append([[cmd, "--fan", "p2", "--k", "5", "--seed", "1"]])
    cases += [[["count", "--degree", "0"]],
              [["count", "--fan", "nosuchfan", "--degree", "1"]],
              [["potential", "--k", "2", "--q", "1/2"]],
              [["render", "missing.json", "out.svg"]]]
    return cases


def name(case):
    return " ; ".join(" ".join(argv) for argv in case)


def run(tree, case, workdir):
    """Run the steps of one case in workdir: (step outputs, files left)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.pop("TROPENUM_SEED", None)
    steps = []
    for argv in case:
        p = subprocess.run([sys.executable, "-m", "tropenum"] + argv,
                           cwd=workdir, env=env, capture_output=True)
        steps.append((p.returncode, p.stdout, p.stderr))
    files = {f.name: f.read_bytes() for f in sorted(workdir.iterdir())}
    return steps, files


def show(x):
    """An exit code as is, output as its length and its first bytes."""
    if isinstance(x, int):
        return str(x)
    return "%d bytes %r%s" % (len(x), x[:60], "..." if len(x) > 60 else "")


def differences(case, old, new):
    """What differs between two runs of a case, one line per difference."""
    out = []
    for argv, a, b in zip(case, old[0], new[0]):
        for what, x, y in zip(("exit code", "stdout", "stderr"), a, b):
            if x != y:
                out.append("%s of `%s`: %s -> %s"
                           % (what, " ".join(argv), show(x), show(y)))
    for f in sorted(set(old[1]) | set(new[1])):
        if old[1].get(f) != new[1].get(f):
            out.append("file %s differs" % f)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", required=True, help="git revision")
    ap.add_argument("--allow", action="append", default=[],
                    help="a case expected to differ, as printed")
    args = ap.parse_args(argv)
    cases = sweep()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        old_tree = tmp / "old"
        old_tree.mkdir()
        archive = subprocess.run(["git", "archive", args.against],
                                 cwd=HERE, capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", str(old_tree)],
                       input=archive.stdout, check=True)
        jobs = []
        for i, case in enumerate(cases):
            for side, tree in (("old", old_tree), ("new", HERE)):
                workdir = tmp / side / str(i)
                workdir.mkdir(parents=True)
                jobs.append((tree, case, workdir))
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(lambda job: run(*job), jobs))
    unexpected = 0
    for i, case in enumerate(cases):
        diffs = differences(case, results[2 * i], results[2 * i + 1])
        if not diffs:
            continue
        allowed = name(case) in args.allow
        unexpected += not allowed
        print("%s: %s" % ("ALLOWED" if allowed else "DIFFERS", name(case)))
        for d in diffs:
            print("    " + d)
    print("%d cases, %d steps per tree; %d differ unexpectedly"
          % (len(cases), sum(map(len, cases)), unexpected))
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
