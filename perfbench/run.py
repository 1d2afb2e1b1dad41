#!/usr/bin/env python3
"""tropenum benchmark: runs one workload's CLI tasks and checks them.

    python3 perfbench/run.py --workload count --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; nothing needs to be installed,
the CLI runs from src/ through PYTHONPATH.

--trace 0: a closed loop with one client.  Each task's commands run as
`python -m tropenum ...` subprocesses, one at a time, and the next task
starts when the previous one has exited, until --seconds have passed.
Prints the end-to-end metrics, with times scaled by the host's slowdown
measured during the run (HostProbe).

--trace 1: the same tasks replayed in this process through
tropenum.cli.main, each one untraced and then with the wrappers of
tracing.py installed.  Prints the per-layer metrics; the difference of the
two replays is the tracing overhead.

Every task's outputs are checked (workloads.Checker).  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  A report
with every task's digests and the run's environment goes to
.perfbench/report-<workload>-seed<seed>-trace<t>.json, and the traced
run's spans to .perfbench/trace-<workload>-seed<seed>.jsonl.
"""

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import workloads
from tracing import PER_LAYER, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

END_TO_END = (("task_s", "s"), ("task_cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))
# Printed and kept in the report, but not in the result line: in a closed
# loop with one client tasks_per_s is the inverse of the mean task time, and
# fail_ratio is 0 whenever the run is correct (the result line's failed and
# attempted carry it).
EXTRA = (("tasks_per_s", "1/s"), ("fail_ratio", "ratio"),
         ("task_s.raw", "s"), ("task_cpu_s.raw", "s"), ("setup_s.raw", "s"),
         ("host_slowdown", "ratio"))

# Set-up spawns are spread over the run, one after each SETUP_EVERY_S
# seconds of task time, so that setup_s samples the host's speed over the
# whole run and not over its first second; a run makes at least SETUP_MIN.
SETUP_EVERY_S = 1.0
SETUP_MIN = 9
IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import tropenum.cli; "
                  "print(time.perf_counter() - t)")


# Host speed.  The host's CPUs are shared with other machines: in stretches
# of seconds to minutes every process, this one and its children alike, runs
# up to 1.8 times slower, in wall and CPU time.  A 20 s run mostly falls
# inside or outside such a stretch, so no statistic over its raw task times
# is steady from run to run.  While the tasks run, a HostProbe therefore
# times a fixed piece of the benchmark's own code, and the run reports its
# times divided by host_slowdown = the probe's median / PROBE_REF_S, that is
# in seconds at the host speed PROBE_REF_S stands for.  The raw times are
# printed and kept in the report.
PROBE_EVERY_S = 0.1
PROBE_ITERATIONS = 4000
# About the probe's median in the fastest stretches seen on a 2-CPU host
# with Python 3.11.7.
PROBE_REF_S = 0.004


def probe_work(n):
    """A fixed piece of pure-Python work: small-integer arithmetic, tuples,
    dict look-ups and a sort.  It does not touch tropenum, so no change to
    the program can move its time."""
    counts = {}
    acc = 0
    for i in range(n):
        a, b = i % 97, i % 89
        g = math.gcd(a * 7 + 3, b * 5 + 1)
        key = (a // g, b // g)
        counts[key] = counts.get(key, 0) + 1
        acc += a * b - g
    return acc + len(sorted(counts.items(), key=lambda kv: (kv[1], kv[0])))


class HostProbe(threading.Thread):
    """Times probe_work, in CPU time of its own thread, once every
    PROBE_EVERY_S until stopped.  The thread runs at SCHED_IDLE, so it takes
    only a CPU that no task process wants: it measures the host next to the
    task, and in count-jobs2 it waits while the pool holds both CPUs instead
    of measuring the pool's load."""

    def __init__(self):
        super().__init__(daemon=True)
        self.samples = []
        self.done = threading.Event()

    def run(self):
        os.sched_setscheduler(threading.get_native_id(), os.SCHED_IDLE,
                              os.sched_param(0))
        while True:
            t0 = time.thread_time()
            probe_work(PROBE_ITERATIONS)
            self.samples.append(time.thread_time() - t0)
            if self.done.wait(PROBE_EVERY_S):
                return

    def stop(self):
        self.done.set()
        self.join()


def time_limit(seconds):
    """Seconds after its start by which a run must be done: the timed loop,
    its set-up spawns, the last task's overrun and, in count-jobs2, the
    --jobs 1 replay of every task, with room to spare.  A process still
    running then is killed and the run ends with an error (at --seconds 20
    the limit is 160 s)."""
    return 2.0 * seconds + 120.0


class BenchmarkTimeout(Exception):
    """The run went past its time limit."""


class ProcResult:
    def __init__(self, returncode, wall, cpu, maxrss_kb, stdout):
        self.returncode = returncode
        self.wall = wall
        self.cpu = cpu
        self.maxrss_kb = maxrss_kb
        self.stdout = stdout


class TaskResult:
    def __init__(self, seed, returncodes, outputs, wall, cpu=0.0,
                 maxrss_kb=0, traced_wall=None):
        self.seed = seed
        self.returncodes = returncodes
        self.outputs = outputs
        self.wall = wall
        self.cpu = cpu
        self.maxrss_kb = maxrss_kb
        self.traced_wall = traced_wall
        self.faults = []


class Runner:
    """Starts the benchmark's processes, through spawner.py, and holds what
    they share.  Use it as a context manager: leaving it stops the
    spawner."""

    def __init__(self, workdir, limit_s):
        self.workdir = workdir
        self.deadline = time.perf_counter() + limit_s
        env = dict(os.environ)
        env.pop("TROPENUM_SEED", None)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        self.spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")], env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.spawner.stdin.close()
        self.spawner.wait()

    def process(self, args, out_path):
        """Run `python <args>` with stdout to out_path; wait for it and
        return its exit code, wall time and rusage."""
        err_path = self.workdir / "stderr.txt"
        self.spawner.stdin.write(json.dumps(
            {"args": args, "out": str(out_path), "err": str(err_path)}) + "\n")
        self.spawner.stdin.flush()
        pid = json.loads(self.spawner.stdout.readline())["pid"]
        done = threading.Event()
        killed = threading.Event()

        def kill():
            if not done.is_set():
                killed.set()
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(pid, signal.SIGKILL)

        left = self.deadline - time.perf_counter()
        timer = threading.Timer(max(left, 1.0), kill)
        timer.start()
        try:
            res = json.loads(self.spawner.stdout.readline())
        except BaseException:
            kill()
            raise
        finally:
            done.set()
            timer.cancel()
            timer.join()
        if killed.is_set():
            raise BenchmarkTimeout("killed %s: the run reached its time limit"
                                   % " ".join(args))
        rc = os.waitstatus_to_exitcode(res["status"])
        if rc != 0:
            sys.stderr.write("exit %d from %s:\n%s\n" % (
                rc, " ".join(args), err_path.read_text(errors="replace")[-2000:]))
        return ProcResult(rc, res["wall"], res["cpu"], res["maxrss_kb"],
                          Path(out_path).read_bytes())

    def task(self, seed, commands):
        """Run the commands one after another as CLI processes."""
        _clear_outputs(commands)
        rcs, procs = [], []
        t0 = time.perf_counter()
        for i, cmd in enumerate(commands):
            p = self.process(["-m", "tropenum"] + cmd.argv,
                             self.workdir / ("stdout%d" % i))
            procs.append(p)
            rcs.append(p.returncode)
            if p.returncode != 0:
                break
        wall = time.perf_counter() - t0
        outputs = [_output(cmd, p.stdout) for cmd, p in zip(commands, procs)]
        return TaskResult(seed, rcs, outputs, wall, sum(p.cpu for p in procs),
                          max(p.maxrss_kb for p in procs))

    def setup(self):
        """Spawn an interpreter that imports tropenum.cli.  Returns (spawn
        wall, in-process import time)."""
        p = self.process(["-c", IMPORT_SNIPPET], self.workdir / "setup.txt")
        if p.returncode != 0:
            raise RuntimeError("cannot import tropenum.cli from %s" % SRC)
        return p.wall, float(p.stdout)


def _clear_outputs(commands):
    # a file left by the previous task must not pass for this task's output
    for cmd in commands:
        if cmd.out_file:
            Path(cmd.out_file).unlink(missing_ok=True)


def _output(cmd, stdout):
    """The command's output document: its stdout, or the file it wrote."""
    if cmd.out_file is None:
        return stdout
    path = Path(cmd.out_file)
    return path.read_bytes() if path.exists() else b""


def _inprocess(cli, seed, commands):
    """Run the commands through cli.main in this process, capturing what
    they write to stdout and stderr."""
    _clear_outputs(commands)
    rcs, outputs = [], []
    t0 = time.perf_counter()
    for cmd in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(cmd.argv)
            except Exception:
                traceback.print_exc()
                rc = 1
        if rc != 0:
            sys.stderr.write("exit %d from %s:\n%s\n"
                             % (rc, " ".join(cmd.argv), err.getvalue()[-2000:]))
        rcs.append(rc)
        outputs.append(out.getvalue().encode())
        if rc != 0:
            break
    wall = time.perf_counter() - t0
    outputs = [_output(cmd, o) for cmd, o in zip(commands, outputs)]
    return TaskResult(seed, rcs, outputs, wall)


def median_or_none(ok_values, nfailed):
    """Median with every failed task counted as infinitely slow; None when
    the median lands on a failure."""
    values = sorted(ok_values) + [math.inf] * nfailed
    if not values:
        return None
    m = statistics.median(values)
    return None if math.isinf(m) else m


def environment():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
    }


def run_workload(workload, seed, seconds, trace, kontsevich=None):
    """Run one workload and return (result line dict, report dict)."""
    if workload not in workloads.WORKLOADS:
        raise ValueError("unknown workload %r" % (workload,))
    env = environment()
    WORK.mkdir(exist_ok=True)
    workdir = WORK / ("run-%s-%d-%d" % (workload, seed, os.getpid()))
    workdir.mkdir()
    try:
        with Runner(workdir, time_limit(seconds)) as runner:
            return _run(runner, workload, seed, seconds, trace, kontsevich,
                        env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(runner, workload, seed, seconds, trace, kontsevich, env, workdir):
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tropenum.cli as cli
    import tropenum.gw as gw
    # the oracle runs before the loop, outside every timed span
    n3 = (kontsevich or gw.kontsevich_number)(3)
    checker = workloads.Checker(workload, n3, workloads.load_reference())

    setup_walls, import_times = [], []

    def setup_until(n):
        while len(setup_walls) < n:
            wall, imp = runner.setup()
            setup_walls.append(wall)
            import_times.append(imp)

    runner.setup()  # warm-up, not counted
    # the probe's thread would take the GIL from the traced replays
    probe = None if trace else HostProbe()
    if probe:
        probe.start()
    seeds = workloads.program_seeds(seed)
    tracer = Tracer() if trace else None
    results = []
    task_time = 0.0  # loop time minus the set-up spawns in it
    while True:
        t_task = time.perf_counter()
        s = next(seeds)
        commands = workloads.task_commands(workload, s, workdir)
        if trace:
            res = _inprocess(cli, s, commands)
            faults = checker.check(s, res.returncodes, res.outputs)
            tracer.task = len(results)
            tracer.install(_modules())
            try:
                traced = _inprocess(cli, s, commands)
            finally:
                tracer.uninstall()
            res.traced_wall = traced.wall
            res.faults = faults + ["traced: " + f for f in checker.check(
                s, traced.returncodes, traced.outputs)]
        else:
            res = runner.task(s, commands)
        results.append(res)
        task_time += time.perf_counter() - t_task
        setup_until(int(task_time / SETUP_EVERY_S))
        if task_time >= seconds:
            break
    setup_until(SETUP_MIN)
    if probe:
        probe.stop()

    for res in results:
        if not trace:
            res.faults = checker.check(res.seed, res.returncodes,
                                       res.outputs)
        if workload == "count-jobs2":
            ref = runner.task(res.seed, workloads.task_commands(
                workload, res.seed, workdir, jobs=1))
            if ref.outputs != res.outputs:
                res.faults.append("output differs from the --jobs 1 output")

    ok = [r for r in results if not r.faults]
    nfail = len(results) - len(ok)
    extra = {"fail_ratio": nfail / len(results)}
    if trace:
        metrics = _trace_metrics(tracer, ok, nfail, import_times,
                                 len(workloads.task_commands(workload, 0,
                                                             workdir)))
        units = dict(PER_LAYER)
        tracer.write(WORK / ("trace-%s-seed%d.jsonl" % (workload, seed)), {
            "workload": workload, "seed": seed,
            "tasks": [r.seed for r in results],
            "note": "spans inside --jobs pool workers are not recorded"})
    else:
        raw = {
            "task_s": median_or_none([r.wall for r in ok], nfail),
            "task_cpu_s": median_or_none([r.cpu for r in ok], nfail),
            "setup_s": statistics.median(setup_walls),
        }
        slowdown = statistics.median(probe.samples) / PROBE_REF_S
        metrics = {k: None if v is None else v / slowdown
                   for k, v in raw.items()}
        metrics["peak_rss_mb"] = max(r.maxrss_kb for r in results) / 1024.0
        metrics = {k: metrics[k] for k, _ in END_TO_END}
        units = dict(END_TO_END)
        extra.update({k + ".raw": v for k, v in raw.items()})
        extra["host_slowdown"] = slowdown
        extra["tasks_per_s"] = len(ok) / task_time
    line = {
        "correct": nfail == 0,
        "attempted": len(results),
        "failed": nfail,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    report = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(bool(trace)), "environment": env,
        "extra": extra,
        "task_time_s": task_time,
        "setup_spawn_s": setup_walls, "import_s": import_times,
        "probe_s": probe.samples if probe else None,
        "tasks": [{
            "seed": r.seed, "wall_s": r.wall, "cpu_s": r.cpu,
            "maxrss_kb": r.maxrss_kb, "traced_wall_s": r.traced_wall,
            "returncodes": r.returncodes,
            "digests": [workloads.digest(o) for o in r.outputs],
            "referenced": checker.referenced(r.seed),
            "faults": r.faults} for r in results],
        "result": line,
    }
    if trace:
        report["rejects"] = dict(tracer.rejects())
    if trace and workload == "count-jobs2":
        report["note"] = ("spans and counts inside the --jobs "
                          "pool workers are not visible to the tracer; "
                          "their work shows only as the parent's wait in "
                          "enumeration.assemble.s")
    with open(WORK / ("report-%s-seed%d-trace%d.json"
                      % (workload, seed, int(bool(trace)))), "w") as fh:
        json.dump(report, fh, indent=1)
    return line, report


def _modules():
    return {n: importlib.import_module("tropenum." + n) for n in (
        "arrangement", "broken", "cli", "correspondence", "enumeration",
        "fan", "jsonio", "lattice", "scattering", "svgout", "tropcurve")}


def _trace_metrics(tracer, ok, nfail, import_times, procs_per_task):
    ntasks = len(ok) + nfail
    out = tracer.metrics(ntasks)
    # a task pays one import per CLI process
    out["cli.import.s"] = statistics.median(import_times) * procs_per_task
    untraced = median_or_none([r.wall for r in ok], nfail)
    traced = median_or_none([r.traced_wall for r in ok], nfail)
    out["trace.task_s"] = untraced
    out["trace.traced_task_s"] = traced
    out["trace.overhead_s"] = (traced - untraced
                               if None not in (traced, untraced) else None)
    out["trace.tasks"] = ntasks
    return {name: out[name] for name, _ in PER_LAYER}


def _summary(line, report):
    """Human-readable lines for stdout, before the result line."""
    rows = ["workload %s  seed %d  trace %d  tasks %d  failed %d"
            % (report["workload"], report["seed"], report["trace"],
               line["attempted"], line["failed"])]
    values = [(k, m["value"], m["unit"]) for k, m in line["metrics"].items()]
    values += [(k, report["extra"][k], u) for k, u in EXTRA
               if k in report["extra"]]
    for name, v, unit in values:
        rows.append("  %-40s %14s %s"
                    % (name, "n/a" if v is None else "%.6g" % v, unit))
    unref = sum(1 for t in report["tasks"] if not t["referenced"])
    rows.append("  tasks without a recorded digest: %d of %d"
                % (unref, len(report["tasks"])))
    for t in report["tasks"]:
        for f in t["faults"]:
            rows.append("  FAIL seed %d: %s" % (t["seed"], f))
    if "note" in report:
        rows.append("  note: " + report["note"])
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still kills and reaps the process it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "tropenum" / "__init__.py").is_file():
        print("error: no tropenum sources under %s" % SRC, file=sys.stderr)
        return 2
    try:
        line, report = run_workload(args.workload, args.seed, args.seconds,
                                    args.trace)
    except BenchmarkTimeout as e:
        print("error: %s" % e, file=sys.stderr)
        return 3
    for row in _summary(line, report):
        print(row)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
