"""How long do the large cases take, and how much memory?

    python tools/scale.py --label L

Runs a fixed list of CLI cases one at a time, each in a fresh
`python -m tropenum` process with PYTHONPATH=src, and records for each
case its wall time, the child's own peak RSS (from `os.wait4`), its exit
code and the sha256 of its stdout.  Writes BENCH_L.json at the root of
the repository, with the Python version and the CPU count of the host.
The whole list takes minutes, and P1xP1 (3,3) peaks near 400 MB.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

from pathlib import Path

HERE = Path(__file__).resolve().parents[1]

CASES = [["count", "--degree", "4", "--seed", "1"],
         ["count", "--degree", "4", "--seed", "2"],
         ["count", "--fan", "p1xp1", "--degree", "3", "--seed", "1"],
         ["scatter", "--k", "7", "--seed", "3"],
         ["potential", "--k", "7", "--seed", "3"],
         ["degenerate", "--degree", "4", "--seed", "1"]]


def run_case(argv):
    """Run one case in a fresh process: (wall s, peak RSS KB, exit code,
    stdout bytes)."""
    env = dict(os.environ, PYTHONPATH=str(HERE / "src"))
    env.pop("TROPENUM_SEED", None)
    start = time.perf_counter()
    p = subprocess.Popen([sys.executable, "-m", "tropenum"] + argv, cwd=HERE,
                         env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL)
    with p.stdout:
        out = p.stdout.read()
    _, status, usage = os.wait4(p.pid, 0)
    wall = time.perf_counter() - start
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, p.returncode, out


def record(argv, runner):
    wall, rss_kb, code, out = runner(argv)
    return {"case": " ".join(argv), "wall_s": round(wall, 3),
            "peak_rss_mb": round(rss_kb / 1024, 1), "exit": code,
            "stdout_sha256": hashlib.sha256(out).hexdigest()}


def main(argv=None, runner=run_case, root=HERE):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="names BENCH_<label>.json")
    args = ap.parse_args(argv)
    cases = []
    for case in CASES:
        cases.append(record(case, runner))
        print("%(case)s: %(wall_s).1f s, %(peak_rss_mb).1f MB, exit %(exit)d"
              % cases[-1], file=sys.stderr)
    doc = {"label": args.label, "python": platform.python_version(),
           "cpus": os.cpu_count(), "cases": cases}
    path = Path(root) / ("BENCH_%s.json" % args.label)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
