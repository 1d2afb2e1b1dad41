"""Command line driver.

Commands: count, welschinger, trees, disks, scatter, potential,
phi-check, degenerate, render.  Seeds default to $TROPENUM_SEED, then 0.
Exit codes: 0 ok, 1 usage or IO error, 2 genericity exhaustion,
3 invariant violation (a failed consistency or correspondence check).
"""

import argparse
import json
import os
import sys

from fractions import Fraction

# Start-up is a large share of a command's wall time, so each cmd_* imports
# the modules it runs when it runs, and a process loads only the engine
# modules of its own command.  The docstring above is the --help text.
from . import jsonio
from .lattice import GenericityError, InvariantError, as_hpoint

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_GENERIC = 2
EXIT_INVARIANT = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract reserves 2 for
    # genericity failures
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit2(message)


class SystemExit2(Exception):
    def __init__(self, message):
        self.message = message


def load_fan(spec):
    """A builtin fan name, or a path to JSON {"name": ..., "rays": [[x,y]]}."""
    from .fan import builtin_fan, make_fan
    if os.path.exists(spec) and spec not in ("p2", "p1xp1", "dp6"):
        with open(spec) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or not isinstance(doc.get("rays"), list):
            raise ValueError("fan file %s: needs an object with a \"rays\" "
                             "list" % spec)
        for r in doc["rays"]:
            if not (isinstance(r, list) and len(r) == 2
                    and all(type(x) is int for x in r)):
                raise ValueError("fan file %s: ray %s is not an integer pair"
                                 % (spec, json.dumps(r)))
        return make_fan([tuple(r) for r in doc["rays"]],
                        name=doc.get("name", "custom"))
    return builtin_fan(spec)


def parse_degree(fan, text):
    from .fan import make_degree
    if text == "anticanonical":
        return make_degree(fan, (1,) * fan.nrays())
    if "," in text:
        return make_degree(fan, tuple(int(c) for c in text.split(",")))
    d = int(text)
    return make_degree(fan, (d,) * fan.nrays())


def parse_qpoint(text):
    """The endpoint "x,y" (two rationals) as a homogeneous triple."""
    try:
        x, y = text.split(",")
        return as_hpoint((Fraction(x), Fraction(y)))
    except (ValueError, ZeroDivisionError):
        raise ValueError("--q needs two rationals x,y") from None


def write_out(args, text):
    if args.out and args.out != "-":
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_count(args, report_key):
    from .enumeration import run_count
    fan = load_fan(args.fan)
    deg = parse_degree(fan, args.degree)
    report = run_count(fan, deg, args.seed)
    doc = jsonio.count_doc(report)
    write_out(args, jsonio.dumps(doc))
    print("%s = %d  (fan %s, degree %s, seed %d)"
          % (report_key, doc[report_key], fan.name,
             "+".join(str(d) for d in deg), args.seed), file=sys.stderr)
    return EXIT_OK


def cmd_trees(args):
    from .enumeration import build_forest, resample
    fan = load_fan(args.fan)
    config, forest = resample(args.k, args.seed,
                              lambda c: build_forest(fan, c))
    write_out(args, jsonio.dumps(jsonio.trees_doc(fan, config, forest.trees)))
    return EXIT_OK


def cmd_disks(args):
    from .enumeration import (build_forest, enumerate_maslov2_disks, resample,
                              sample_endpoint)
    fan = load_fan(args.fan)
    config, forest = resample(args.k, args.seed,
                              lambda c: build_forest(fan, c))
    Q = parse_qpoint(args.q) if args.q else sample_endpoint(args.seed + 1)
    records = enumerate_maslov2_disks(fan, config, Q, forest=forest)
    write_out(args, jsonio.dumps(jsonio.disks_doc(fan, config, Q, records)))
    return EXIT_OK


def cmd_scatter(args):
    from .enumeration import resample
    from .scattering import build_diagram, check_consistency
    fan = load_fan(args.fan)
    config, diagram = resample(args.k, args.seed,
                               lambda c: build_diagram(fan, c))
    report = check_consistency(diagram)
    doc = jsonio.diagram_doc(fan, config, diagram, report)
    write_out(args, jsonio.dumps(doc))
    bad = len(report.failures())
    print("scattering diagram: %d walls, %d singular points, %s"
          % (len(diagram.walls), len(report.rows),
             "consistent" if report.ok else "%d failures" % bad),
          file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_INVARIANT


def cmd_potential(args):
    from .broken import potential as eval_potential
    from .enumeration import resample, sample_endpoint
    from .scattering import build_diagram, check_consistency
    fan = load_fan(args.fan)
    config, diagram = resample(args.k, args.seed,
                               lambda c: build_diagram(fan, c))
    Q = parse_qpoint(args.q) if args.q else sample_endpoint(args.seed + 1)
    report = check_consistency(diagram)
    W = eval_potential(diagram, fan, Q)
    doc = jsonio.potential_doc(fan, config, diagram, report, W)
    write_out(args, jsonio.dumps(doc))
    print("W = %s" % doc["pretty"], file=sys.stderr)
    return EXIT_OK


def cmd_phi_check(args):
    from .correspondence import build_phi, index_d, log_count_w
    from .enumeration import run_count
    fan = load_fan(args.fan)
    deg = parse_degree(fan, args.degree)
    report = run_count(fan, deg, args.seed)
    rows = []
    for c, m in zip(report.curves, report.mults):
        sysm = build_phi(c)
        r, cols = sysm.shape()
        rows.append((r, cols, index_d(sysm), log_count_w(c), m))
    doc = jsonio.phicheck_doc(report, rows)
    write_out(args, jsonio.dumps(doc))
    n = len(rows)
    good = sum(1 for s in doc["solutions"] if s["match"])
    print("index * log count == multiplicity on %d/%d solutions"
          % (good, n), file=sys.stderr)
    return EXIT_OK if doc["all_match"] else EXIT_INVARIANT


def cmd_degenerate(args):
    from .correspondence import (build_decomposition, fan_over,
                                 properties_report, rescale_lattice)
    from .enumeration import run_count
    fan = load_fan(args.fan)
    deg = parse_degree(fan, args.degree)
    report = run_count(fan, deg, args.seed)
    pd = build_decomposition(report.curves, fan, report.config.points)
    props = properties_report(pd, report.curves, fan)
    if args.rescale:
        pd, _ = rescale_lattice(pd)
    fan3 = fan_over(pd, fan)
    doc = jsonio.decomposition_doc(fan, report, pd, props, fan3)
    write_out(args, jsonio.dumps(doc))
    ok = all(doc["properties"].values())
    print("decomposition: %d cells, properties %s"
          % (doc["faces"], "all hold" if ok else "FAILED"), file=sys.stderr)
    return EXIT_OK if ok else EXIT_INVARIANT


def cmd_render(args):
    from . import svgout
    try:
        with open(args.input) as fh:
            doc = jsonio.load_any(fh.read())
        svg = svgout.render_doc(doc)
    except (OSError, ValueError, InvariantError) as e:
        why = str(e)
    except (KeyError, IndexError, TypeError) as e:
        # a field the renderer reads is missing or malformed
        why = "malformed document: %s %s" % (type(e).__name__, e)
    else:
        with open(args.output, "w") as fh:
            fh.write(svg)
        print("wrote %s" % args.output, file=sys.stderr)
        return EXIT_OK
    print("cannot render %s: %s" % (args.input, why), file=sys.stderr)
    return EXIT_USAGE


def build_parser():
    top = _Parser(prog="tropenum", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, run, summary, q=False, degree=False, k=False):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("--fan", default="p2",
                       help="builtin fan name (p2, p1xp1, dp6) or JSON path")
        # argparse converts a string default only when --seed is absent,
        # so a malformed $TROPENUM_SEED is a usage error of that run alone
        p.add_argument("--seed", type=int,
                       default=os.environ.get("TROPENUM_SEED") or "0")
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility; has no effect")
        p.add_argument("--out", default="-", help="output path, - = stdout")
        if degree:
            p.add_argument("--degree", required=True,
                           help="d, d0,d1,..., or 'anticanonical'")
        if k:
            p.add_argument("--k", type=int, default=1,
                           help="number of marked points")
        if q:
            p.add_argument("--q", default=None,
                           help="endpoint as x,y rationals "
                                "(default: sampled from seed+1)")
        return p

    command("count", lambda a: cmd_count(a, "n_trop"),
            "count rational curves", degree=True)
    command("welschinger", lambda a: cmd_count(a, "w_trop"),
            "count with Welschinger signs", degree=True)
    command("trees", cmd_trees, "Maslov index 0 trees", k=True)
    command("disks", cmd_disks, "Maslov index 2 disks", q=True, k=True)
    command("scatter", cmd_scatter, "scattering diagram + consistency",
            k=True)
    command("potential", cmd_potential, "superpotential at Q", q=True,
            k=True)
    command("phi-check", cmd_phi_check,
            "lattice index times log count vs multiplicity", degree=True)
    deg = command("degenerate", cmd_degenerate,
                  "polyhedral decomposition and its cone", degree=True)
    deg.add_argument("--rescale", action="store_true",
                     help="clear denominators before building the cone")
    ren = sub.add_parser("render", help="JSON document to SVG")
    ren.set_defaults(run=cmd_render)
    ren.add_argument("input")
    ren.add_argument("output")
    return top


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit2 as e:
        print("error: %s" % e.message, file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.run(args)
    except GenericityError as e:
        print("genericity failure: %s" % e, file=sys.stderr)
        return EXIT_GENERIC
    except InvariantError as e:
        print("invariant violated: %s" % e, file=sys.stderr)
        return EXIT_INVARIANT
    except (OSError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
