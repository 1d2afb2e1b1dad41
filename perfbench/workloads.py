"""The benchmark's workloads: which CLI commands make up one task, which
program seeds a workload seed stands for, and how a task's outputs are
checked.

A task is a short list of `python -m tropenum ...` commands that run one
after another.  Each command leaves one output document, on stdout or in
the file it was told to write; the checker sees those documents as bytes.
"""

import hashlib
import json
import random
from pathlib import Path

WORKLOADS = ("count", "count-jobs2", "potential", "degenerate")

# The workload seed whose program seeds have recorded output digests in
# reference.json (written by record_reference.py).
DEFAULT_SEED = 1

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Invariants that no configuration may change.  W_3(P2) = 8 is the
# Welschinger invariant of plane cubics; N = 12 and W = 8 are the
# Gromov-Witten and Welschinger invariants of bidegree (2,2) in P1xP1.
# N_3(P2) is not listed: it comes from gw.kontsevich_number at run time.
P2_CUBIC_W = 8
P1XP1_22_N = 12
P1XP1_22_W = 8

# potential runs at k = 4: at k = 5 a single task takes 4.5-6.8 s
# depending on the configuration, so a run of a few tasks cannot give a
# steady median; k = 4 keeps the same layers (diagram, loop check,
# broken lines) at about 0.7 s per task.
POTENTIAL_K = 4


def program_seeds(workload_seed):
    """The endless sequence of `--seed` values a workload seed stands for.
    Every workload draws from the same sequence, so `count` and
    `count-jobs2` see the same configurations."""
    rng = random.Random(workload_seed)
    while True:
        yield rng.randrange(1, 2 ** 31)


def family(workload):
    """Workloads whose outputs must be byte-identical share a family."""
    return "count" if workload == "count-jobs2" else workload


class Command:
    """One CLI invocation: argv after `python -m tropenum`, and the file
    its output document goes to (None: stdout)."""

    def __init__(self, argv, out_file=None):
        self.argv = argv
        self.out_file = out_file


def task_commands(workload, seed, workdir, jobs=None):
    """The commands of one task.  `jobs` overrides the workload's --jobs
    (the jobs-1 replay of count-jobs2 uses it)."""
    s = str(seed)
    if workload in ("count", "count-jobs2"):
        if jobs is None:
            jobs = 2 if workload == "count-jobs2" else 1
        j = ["--jobs", str(jobs)]
        return [
            Command(["count", "--fan", "p2", "--degree", "3", "--seed", s]
                    + j),
            Command(["welschinger", "--fan", "p1xp1", "--degree", "2",
                     "--seed", s] + j),
        ]
    if workload == "potential":
        return [Command(["potential", "--k", str(POTENTIAL_K), "--seed", s])]
    if workload == "degenerate":
        doc = str(Path(workdir) / "degeneration.json")
        svg = str(Path(workdir) / "degeneration.svg")
        dp6 = ["--fan", "dp6", "--degree", "anticanonical"]
        return [
            Command(["degenerate"] + dp6 + ["--rescale", "--out", doc,
                                            "--seed", s], out_file=doc),
            Command(["render", doc, svg], out_file=svg),
            Command(["phi-check"] + dp6 + ["--seed", s]),
        ]
    raise ValueError("unknown workload %r" % (workload,))


def digest(data):
    return hashlib.sha256(data).hexdigest()


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


class Checker:
    """Checks one task's outputs.  `n_p2_cubic` is the oracle value of
    N_3(P2), computed by the caller outside any timed span."""

    def __init__(self, workload, n_p2_cubic, reference):
        self.workload = workload
        self.fam = family(workload)
        self.n_p2_cubic = n_p2_cubic
        self.digests = reference["digests"].get(self.fam, {})
        self.multisets = reference.get("multisets", {}).get(self.fam, {})

    def referenced(self, seed):
        return str(seed) in self.digests

    def check(self, seed, returncodes, outputs):
        """A list of failure reasons; empty when the task is correct."""
        bad = ["exit code %d from command %d" % (rc, i)
               for i, rc in enumerate(returncodes) if rc != 0]
        if bad:
            return bad
        try:
            if self.fam == "count":
                bad = self._count(seed, outputs)
            elif self.fam == "potential":
                bad = self._potential(outputs)
            else:
                bad = self._degenerate(outputs)
        except (ValueError, KeyError, TypeError) as e:
            return ["unreadable output: %s: %s" % (type(e).__name__, e)]
        want = self.digests.get(str(seed))
        if want is not None and [digest(o) for o in outputs] != want:
            bad.append("output digest differs from the recorded reference")
        return bad

    def _count(self, seed, outputs):
        docs = [json.loads(o) for o in outputs]
        bad = []
        for doc, fan, n_want, w_want in (
                (docs[0], "p2", self.n_p2_cubic, P2_CUBIC_W),
                (docs[1], "p1xp1", P1XP1_22_N, P1XP1_22_W)):
            if doc["schema"] != "tropenum/count/1" or doc["fan"] != fan:
                bad.append("%s: wrong document kind" % fan)
                continue
            if doc["n_trop"] != n_want:
                bad.append("%s: n_trop %d, oracle %d"
                           % (fan, doc["n_trop"], n_want))
            if doc["w_trop"] != w_want:
                bad.append("%s: w_trop %d, reference %d"
                           % (fan, doc["w_trop"], w_want))
            bad.extend("%s: %s" % (fan, r) for r in _multiset_faults(doc))
        want = self.multisets.get(str(seed))
        if want is not None and [d["multiplicities"] for d in docs] != want:
            bad.append("multiplicity multisets differ from the reference")
        return bad

    def _potential(self, outputs):
        doc = json.loads(outputs[0])
        bad = []
        if doc["schema"] != "tropenum/potential/1":
            bad.append("wrong document kind")
        cons = doc["consistency"]
        if not cons["ok"] or not all(r["identity"] or r["marked"]
                                     for r in cons["rows"]):
            bad.append("scattering diagram is not consistent")
        if not doc["walls"] or not doc["lines"]:
            bad.append("diagram without walls or broken lines")
        return bad

    def _degenerate(self, outputs):
        deg, svg, phi = outputs
        bad = []
        props = json.loads(deg)["properties"]
        if not props or not all(props.values()):
            bad.append("degeneration properties fail: %s"
                       % sorted(k for k, v in props.items() if not v))
        if not svg.startswith(b"<svg") or not svg.rstrip().endswith(b"</svg>"):
            bad.append("render did not produce an SVG document")
        doc = json.loads(phi)
        if not doc["all_match"] or not all(s["match"]
                                           for s in doc["solutions"]):
            bad.append("phi-check: index * log count != multiplicity")
        return bad


def _multiset_faults(doc):
    mults, wel = doc["multiplicities"], doc["welschinger"]
    out = []
    if mults != sorted(mults) or sum(mults) != doc["n_trop"]:
        out.append("multiplicities do not sum to n_trop")
    if sum(wel) != doc["w_trop"]:
        out.append("Welschinger signs do not sum to w_trop")
    if len(doc["solutions"]) != len(mults) or len(wel) != len(mults):
        out.append("solution count differs from the multiset size")
    if sorted(s["mult"] for s in doc["solutions"]) != mults:
        out.append("solution multiplicities differ from the multiset")
    for s in doc["solutions"]:
        w, m = s["welschinger"], s["mult"]
        if abs(w) > 1 or (w != 0) != (m % 2 == 1):
            out.append("Welschinger sign %d for multiplicity %d" % (w, m))
    return out
