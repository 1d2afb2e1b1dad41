"""Spans and counters installed around tropenum's public functions from
outside the program, for the benchmark's traced run.

Wrappers go on every module attribute that holds the wrapped function, so
`from .lattice import ray_intersect` in tropenum.enumeration is wrapped
as well as tropenum.lattice.ray_intersect; methods are wrapped on their
class.  Spans are kept in memory and written out when the run ends.

Spans inside `--jobs` pool workers are not recorded: the workers are
forked copies of the traced process and their spans die with them.
"""

import collections
import json
import sys
import time

# Per-layer metrics, in the order BENCHMARK.json lists them: (name, unit).
LEVELS = 7  # P2 cubics build forest levels 1..7 (8 points, one pivot)
PER_LAYER = (
    [("lattice.ray_intersect.calls", "count"),
     ("lattice.on_ray.calls", "count"),
     ("lattice.on_segment.calls", "count"),
     ("lattice.primitive.calls", "count"),
     ("fan.r_vector.calls", "count"),
     ("enumeration.sample.s", "s"),
     ("enumeration.attempts", "count"),
     ("enumeration.rejects", "count"),
     ("enumeration.forest.s", "s"),
     ("enumeration.trees", "count")]
    + [("enumeration.trees.l%d" % n, "count") for n in range(1, LEVELS + 1)]
    + [("enumeration.trees.leaf", "count"),
       ("enumeration.trees.glue", "count"),
       ("enumeration.trees.pass", "count"),
       ("enumeration.pass_disks.s", "s"),
       ("enumeration.pivot_disks.s", "s"),
       ("enumeration.pivot_disks", "count"),
       ("enumeration.assemble.s", "s"),
       ("enumeration.solutions", "count"),
       ("enumeration.ray_intersect.calls", "count"),
       ("enumeration.ray_intersect_per_tree", "ratio"),
       ("tropcurve.validate_curve.s", "s"),
       ("tropcurve.canonical_type.s", "s"),
       ("tropcurve.geometric_signature.s", "s"),
       ("tropcurve.multiplicity.s", "s"),
       ("scattering.build_diagram.s", "s"),
       ("scattering.walls", "count"),
       ("scattering.sing_points.s", "s"),
       ("scattering.singular_points", "count"),
       ("scattering.wall_pairs", "count"),
       ("scattering.crossing_ratio", "ratio"),
       ("scattering.check_consistency.s", "s"),
       ("scattering.loop_automorphism.s", "s"),
       ("scattering.loop_automorphism.calls", "count"),
       ("scattering.ring.mul.calls", "count"),
       ("scattering.ring.pow.calls", "count"),
       ("scattering.compose.calls", "count"),
       ("broken.potential.s", "s"),
       ("broken.lines", "count"),
       ("correspondence.build_phi.s", "s"),
       ("correspondence.index_d.s", "s"),
       ("correspondence.log_count_w.s", "s"),
       ("correspondence.build_decomposition.s", "s"),
       ("correspondence.properties_report.s", "s"),
       ("correspondence.rescale_lattice.s", "s"),
       ("correspondence.fan_over.s", "s"),
       ("correspondence.cells", "count"),
       ("arrangement.overlay_build.s", "s"),
       ("arrangement.vertices", "count"),
       ("arrangement.edges", "count"),
       ("jsonio.dumps.s", "s"),
       ("jsonio.load_any.s", "s"),
       ("jsonio.bytes", "bytes"),
       ("svgout.render_doc.s", "s"),
       ("svgout.bytes", "bytes"),
       ("cli.import.s", "s"),
       ("cli.main.s", "s"),
       ("trace.task_s", "s"),
       ("trace.traced_task_s", "s"),
       ("trace.overhead_s", "s"),
       ("trace.tasks", "count")])


class Tracer:
    """In-memory spans and counters.  A span is [name, start, end,
    parent index, task id, exception or None]."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.stack = []
        self.task = None
        self._undo = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, post=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            label = name(self) if callable(name) else name
            idx = len(spans)
            span = [label, clock(), None, stack[-1] if stack else None,
                    self.task, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span[5] = [type(e).__name__, str(e), id(e)]
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if post is not None:
                post(self, label, args, result)
            return result
        return wrapper

    def _count(self, keys, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for k in keys:
                counts[k] += 1
            return fn(*args, **kwargs)
        return wrapper

    def parent_name(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    # -- installation --------------------------------------------------------

    def install(self, modules):
        """Wrap the functions below in the loaded tropenum modules.
        `modules` maps a short name (e.g. "lattice") to the module."""
        tropenum_mods = [m for n, m in sorted(sys.modules.items())
                         if n == "tropenum" or n.startswith("tropenum.")]

        def everywhere(mod, attr, make):
            """Replace every module binding of mod.attr."""
            orig = getattr(modules[mod], attr)
            for m in tropenum_mods:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        self._undo.append((m, k, v))
                        setattr(m, k, make(orig, m.__name__))

        def method(mod, cls, attr, make):
            klass = getattr(modules[mod], cls)
            orig = klass.__dict__[attr]
            self._undo.append((klass, attr, orig))
            setattr(klass, attr, make(orig, klass.__module__))

        def span(name, post=None):
            return lambda fn, _where: self._span(name, fn, post)

        def count(name):
            # the per-binding key tells which module made the call
            return lambda fn, where: self._count(
                (name, name + "@" + where.rpartition(".")[2]), fn)

        for fn in ("ray_intersect", "on_ray", "on_segment", "primitive"):
            everywhere("lattice", fn, count("lattice.%s.calls" % fn))
        everywhere("fan", "r_vector", count("fan.r_vector.calls"))

        everywhere("enumeration", "sample_generic_points",
                   span("enumeration.sample"))
        everywhere("broken", "sample_endpoint", span("broken.sample_endpoint"))
        method("enumeration", "Forest", "build",
               span("enumeration.forest", _post_forest))
        method("enumeration", "Forest", "disks",
               span(_disks_name, _post_disks))
        everywhere("enumeration", "enumerate_rational_curves",
                   span("enumeration.assemble", _post_solutions))

        for fn in ("validate_curve", "canonical_type", "geometric_signature"):
            everywhere("tropcurve", fn, span("tropcurve." + fn))
        for fn in ("mikhalkin_multiplicity", "welschinger_multiplicity"):
            everywhere("tropcurve", fn, span("tropcurve.multiplicity"))

        everywhere("scattering", "build_diagram",
                   span("scattering.build_diagram", _post_walls))
        method("scattering", "ScatteringDiagram", "sing_points",
               span("scattering.sing_points", _post_sing_points))
        everywhere("scattering", "check_consistency",
                   span("scattering.check_consistency"))
        everywhere("scattering", "loop_automorphism",
                   span("scattering.loop_automorphism"))
        method("scattering", "RingElement", "mul",
               count("scattering.ring.mul.calls"))
        method("scattering", "RingElement", "pow",
               count("scattering.ring.pow.calls"))
        method("scattering", "RingAutomorphism", "compose",
               count("scattering.compose.calls"))

        everywhere("broken", "potential",
                   span("broken.potential", _post_lines))

        for fn in ("build_phi", "index_d", "log_count_w", "properties_report",
                   "rescale_lattice", "fan_over"):
            everywhere("correspondence", fn, span("correspondence." + fn))
        everywhere("correspondence", "build_decomposition",
                   span("correspondence.build_decomposition", _post_cells))
        method("arrangement", "Overlay", "build",
               span("arrangement.overlay_build", _post_overlay))

        everywhere("jsonio", "dumps", span("jsonio.dumps", _post_bytes))
        everywhere("jsonio", "load_any", span("jsonio.load_any"))
        everywhere("svgout", "render_doc", span("svgout.render_doc",
                                                _post_bytes))
        everywhere("cli", "main", span("cli.main"))

    def uninstall(self):
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    # -- results -------------------------------------------------------------

    def self_times(self):
        """Total self time per span name: each span's duration minus the
        durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = collections.Counter()
        for i, (name, t0, t1, _, _, _) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[i]
        return out

    def rejects(self):
        """GenericityError reasons, counted once each at the outermost
        span the exception left."""
        reasons = collections.Counter()
        for name, _, _, parent, _, exc in self.spans:
            if exc is None or exc[0] != "GenericityError":
                continue
            pexc = self.spans[parent][5] if parent is not None else None
            if pexc is None or pexc[2] != exc[2]:
                reasons[exc[1]] += 1
        return reasons

    def metrics(self, ntasks):
        """Per-layer metrics per task (ratios as ratios of totals), except
        cli.import.s and trace.*, which the runner adds."""
        st = self.self_times()
        c = self.counts
        attempts = sum(1 for s in self.spans
                       if s[0] == "enumeration.sample"
                       and (s[3] is None
                            or self.spans[s[3]][0] != "broken.sample_endpoint"))
        c["enumeration.attempts"] = attempts
        c["enumeration.rejects"] = sum(self.rejects().values())
        c["scattering.loop_automorphism.calls"] = sum(
            1 for s in self.spans if s[0] == "scattering.loop_automorphism")
        c["enumeration.ray_intersect.calls"] = c[
            "lattice.ray_intersect.calls@enumeration"]
        out = {}
        for name, unit in PER_LAYER:
            if name.startswith(("trace.", "cli.import")):
                continue
            if name.endswith(".s"):
                value = st[name[:-2]] / ntasks
            elif name == "enumeration.ray_intersect_per_tree":
                value = _ratio(c["enumeration.ray_intersect.calls"],
                               c["enumeration.trees"])
            elif name == "scattering.crossing_ratio":
                value = _ratio(c["scattering.singular_points"],
                               c["scattering.wall_pairs"])
            else:
                value = c[name] / ntasks
            out[name] = value
        return out

    def write(self, path, header):
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(header,
                                     rejects=dict(self.rejects()))) + "\n")
            for name, t0, t1, parent, task, exc in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": t0, "end": t1, "parent": parent,
                    "task": task,
                    "exc": exc[:2] if exc is not None else None}) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


def _disks_name(tracer):
    # disks traced while the forest grows become "pass" trees; the others
    # are the pivot disks the curves are assembled from
    if tracer.parent_name() == "enumeration.forest":
        return "enumeration.pass_disks"
    return "enumeration.pivot_disks"


def _post_forest(tracer, _label, args, trees):
    forest = args[0]
    c = tracer.counts
    c["enumeration.trees"] += len(trees)
    for level, ts in forest.levels.items():
        c["enumeration.trees.l%d" % level] += len(ts)
    for t in trees:
        c["enumeration.trees." + t.kind] += 1


def _post_disks(tracer, label, _args, disks):
    if label == "enumeration.pivot_disks":
        tracer.counts["enumeration.pivot_disks"] += len(disks)


def _post_solutions(tracer, _label, _args, report):
    tracer.counts["enumeration.solutions"] += len(report.curves)


def _post_walls(tracer, _label, _args, diagram):
    tracer.counts["scattering.walls"] += len(diagram.walls)


def _post_sing_points(tracer, _label, args, points):
    w = len(args[0].walls)
    tracer.counts["scattering.singular_points"] += len(points)
    tracer.counts["scattering.wall_pairs"] += w * (w - 1) // 2


def _post_lines(tracer, _label, _args, pot):
    tracer.counts["broken.lines"] += len(pot.lines)


def _post_cells(tracer, _label, _args, pd):
    tracer.counts["correspondence.cells"] += len(pd.faces)


def _post_overlay(tracer, _label, _args, cx):
    tracer.counts["arrangement.vertices"] += len(cx.vertices)
    tracer.counts["arrangement.edges"] += len(cx.edges)


def _post_bytes(tracer, label, _args, text):
    tracer.counts[label.partition(".")[0] + ".bytes"] += len(text.encode())
