#!/usr/bin/env python3
"""Record perfbench/reference.json: the output digests (and, for `count`,
the multiplicity multisets) of the first program seeds of the default
workload seed, run at --jobs 1.

    python3 perfbench/record_reference.py

Every task is checked against the invariants before it is recorded.  Run it
only when the seed sequence or the task definitions change; a change to the
program must reproduce these bytes, not re-record them.
"""

import itertools
import json
import shutil
import sys

import run
import workloads

# Enough seeds for a run of the benchmark's length on a much faster program.
SEEDS = {"count": 16, "potential": 64, "degenerate": 64}


def main():
    sys.path.insert(0, str(run.SRC))
    import tropenum.gw as gw
    run.WORK.mkdir(exist_ok=True)
    workdir = run.WORK / "record"
    workdir.mkdir(exist_ok=True)
    doc = {"default_seed": workloads.DEFAULT_SEED, "digests": {},
           "multisets": {"count": {}}}
    try:
        with run.Runner(workdir, 3600.0) as runner:
            record(runner, doc, gw.kontsevich_number(3), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def record(runner, doc, n_p2_cubic, workdir):
    empty = {"digests": {}}
    for fam, n in SEEDS.items():
        checker = workloads.Checker(fam, n_p2_cubic, empty)
        seeds = itertools.islice(
            workloads.program_seeds(workloads.DEFAULT_SEED), n)
        doc["digests"][fam] = {}
        for s in seeds:
            res = runner.task(s, workloads.task_commands(fam, s, workdir))
            faults = checker.check(s, res.returncodes, res.outputs)
            if faults:
                raise SystemExit("%s seed %d fails: %s" % (fam, s, faults))
            doc["digests"][fam][str(s)] = [workloads.digest(o)
                                           for o in res.outputs]
            if fam == "count":
                doc["multisets"]["count"][str(s)] = [
                    json.loads(o)["multiplicities"] for o in res.outputs]
            print("%s %d %.2f s" % (fam, s, res.wall), flush=True)


if __name__ == "__main__":
    main()
