"""Canonical JSON for every CLI artifact.

All rationals are "p" or "p/q" strings, never floats.  Dumps are
byte-stable: sorted keys, fixed separators, one trailing newline.  Each
document carries a versioned schema id "tropenum/<kind>/1"; loaders
validate the id and the field shapes and hand back the document as read,
rationals still "p" or "p/q" strings.  u-indices appear 1-based in
documents, matching the u1, u2, ... display names.

At load time this module imports only `lattice`, whose `mask_labels`
writes out a mark mask; `potential_doc` imports `format_element` when
called, so reading or rendering a document loads no engine module.
"""

import json

from fractions import Fraction
from math import gcd

from .lattice import InvariantError, mask_labels

SCHEMAS = ("count", "trees", "disks", "diagram", "potential", "phicheck",
           "decomposition")


def schema_id(kind):
    if kind not in SCHEMAS:
        raise InvariantError("unknown document kind %r" % (kind,))
    return "tropenum/%s/1" % kind


def parse_q(s):
    if not isinstance(s, str):
        raise InvariantError("rational must be a string, got %r" % (s,))
    num, slash, den = s.partition("/")
    if slash and not (den and int(den)):
        raise InvariantError("rational %r needs a nonzero denominator" % s)
    value = Fraction(int(num), int(den) if slash else 1)
    if _fmt_ratio(value.numerator, value.denominator) != s:
        raise InvariantError("rational %r is not \"p\" or \"p/q\" in lowest "
                             "terms" % s)
    return value


def _fmt_ratio(num, den):
    """num/den as "p" or "p/q" in lowest terms, den > 0."""
    g = gcd(num, den)
    if g == den:
        return "%d" % (num // g)
    return "%d/%d" % (num // g, den // g)


def fmt_point(p):
    """["x", "y"] for a normalized homogeneous triple."""
    X, Y, W = p
    return [_fmt_ratio(X, W), _fmt_ratio(Y, W)]


def parse_point(doc):
    return (parse_q(doc[0]), parse_q(doc[1]))


def dumps(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def loads(text):
    doc = json.loads(text)
    if not isinstance(doc, dict) or not isinstance(doc.get("schema"), str):
        raise InvariantError("not a tropenum document: missing schema id")
    return doc


def _header(kind, fan, config):
    """The common header fields of docs/schemas.md."""
    return {
        "schema": schema_id(kind),
        "fan": fan.name,
        "rays": [[r[0], r[1]] for r in fan.rays],
        "seed": config.seed,
        "attempt": config.attempt,
        "points": [fmt_point(p) for p in config.points],
    }


def _expect(doc, kind):
    want = schema_id(kind)
    if doc.get("schema") != want:
        raise InvariantError("expected %s, got %r"
                             % (want, doc.get("schema")))


# -- curves ------------------------------------------------------------------


def curve_doc(c):
    return {
        "vertices": [fmt_point(v) for v in c.vertices],
        "bounded_edges": [[i, j, w, [d[0], d[1]]]
                          for i, j, w, d in c.bedges],
        "rays": [[i, [d[0], d[1]], w] for i, d, w in c.uedges],
        "marks": [[l + 1, v] for l, v in c.marks],
    }


def count_doc(report):
    return {
        **_header("count", report.fan, report.config),
        "degree": list(report.deg),
        "n_trop": report.n_trop,
        "w_trop": report.w_trop,
        "multiplicities": sorted(report.mults),
        "welschinger": sorted(report.wmults),
        "solutions": [
            dict(curve_doc(c), mult=m, welschinger=wm)
            for c, m, wm in zip(report.curves, report.mults, report.wmults)
        ],
    }


def load_count(doc):
    _expect(doc, "count")
    for p in doc["points"]:
        parse_point(p)
    if sum(doc["multiplicities"]) != doc["n_trop"]:
        raise InvariantError("count document: multiplicities do not sum "
                             "to n_trop")
    if sum(doc["welschinger"]) != doc["w_trop"]:
        raise InvariantError("count document: welschinger terms do not sum "
                             "to w_trop")
    for sol in doc["solutions"]:
        for v in sol["vertices"]:
            parse_point(v)
    return doc


# -- tree and disk records ---------------------------------------------------


def trees_doc(fan, config, records):
    return {
        **_header("trees", fan, config),
        "k": len(config.points),
        "trees": [{
            "marks": [i + 1 for i in mask_labels(t.marks)],
            "degree": list(t.deg),
            "base": fmt_point(t.base),
            "out": [t.out[0], t.out[1]],
            "weight": t.w,
            "mult": t.mult,
            "kind": t.kind,
        } for t in records],
    }


def load_trees(doc):
    _expect(doc, "trees")
    for t in doc["trees"]:
        parse_point(t["base"])
        if len(t["marks"]) != len(set(t["marks"])):
            raise InvariantError("tree record with repeated marks")
    return doc


def disks_doc(fan, config, Q, records):
    names = ["x%d" % i for i in range(fan.nrays())]
    out = []
    for d in records:
        marks = [i + 1 for i in mask_labels(d.marks)]
        out.append({
            "marks": marks,
            "degree": list(d.deg),
            "init_ray": d.init_ray,
            "weight": d.w,
            "mult": d.mult,
            "bends": len(d.bends),
            "monomial": "%d*%s%s" % (
                d.mult,
                "".join("u%d*" % i for i in marks),
                "*".join(n for n, e in zip(names, d.deg) for _ in range(e))),
        })
    return {
        **_header("disks", fan, config),
        "k": len(config.points),
        "endpoint": fmt_point(Q),
        "disks": out,
    }


def load_disks(doc):
    _expect(doc, "disks")
    parse_point(doc["endpoint"])
    for d in doc["disks"]:
        if sum(d["degree"]) != len(d["marks"]) + 1:
            raise InvariantError("disk record degree/mark mismatch")
    return doc


# -- ring elements, diagrams, potentials --------------------------------------


def element_doc(elem):
    terms = []
    for (m, mask), c in sorted(elem.terms.items(), key=lambda kv: (
            kv[0][0], mask_labels(kv[0][1]))):
        terms.append({"coeff": "%d" % c, "z": list(m),
                      "u": [i + 1 for i in mask_labels(mask)]})
    return {"y0": "%d" % elem.y0, "terms": terms}


def diagram_doc(fan, config, diagram, report):
    rows = [{"point": fmt_point(p), "marked": marked, "identity": ident}
            for p, marked, ident, _ in report.rows]
    return {
        **_header("diagram", fan, config),
        "k": len(config.points),
        "walls": [{
            "base": fmt_point(w.base),
            "dir": [w.dirvec[0], w.dirvec[1]],
            "exponent": list(w.m0),
            "carrier": "ray",
            "function": element_doc(w.f),
        } for w in diagram.walls],
        "consistency": {"ok": report.ok, "rows": rows},
    }


def load_diagram(doc):
    _expect(doc, "diagram")
    for w in doc["walls"]:
        parse_point(w["base"])
        for t in w["function"]["terms"]:
            if t["u"] == [] and t["z"] != [0] * len(t["z"]):
                raise InvariantError("wall function term without u part")
    return doc


def potential_doc(fan, config, diagram, report, W):
    from .scattering import format_element
    lines = []
    for bl in W.lines:
        segs = []
        for a, b, (c, mask, m) in bl.segs:
            segs.append({
                "start": None if a is None else fmt_point(a),
                "end": fmt_point(b),
                "coeff": "%d" % c,
                "u": [i + 1 for i in mask_labels(mask)],
                "z": list(m),
            })
        lines.append({"init_ray": bl.init_ray, "segments": segs})
    return {
        **diagram_doc(fan, config, diagram, report),
        "schema": schema_id("potential"),
        "endpoint": fmt_point(W.endpoint),
        "value": element_doc(W.value),
        "pretty": format_element(
            W.value, ["x%d" % i for i in range(fan.nrays())]),
        "lines": lines,
    }


def load_potential(doc):
    _expect(doc, "potential")
    parse_point(doc["endpoint"])
    if parse_q(doc["value"]["y0"]) != 1:
        raise InvariantError("potential must carry y0 with coefficient 1")
    # the value must be y0 plus the sum of the line finals, term by term
    acc = {}
    for line in doc["lines"]:
        if line["segments"][0]["start"] is not None:
            raise InvariantError("first broken line segment must be "
                                 "unbounded")
        last = line["segments"][-1]
        key = (tuple(last["z"]), frozenset(last["u"]))
        acc[key] = acc.get(key, 0) + parse_q(last["coeff"])
    want = {(tuple(t["z"]), frozenset(t["u"])): parse_q(t["coeff"])
            for t in doc["value"]["terms"]}
    if ({k: v for k, v in acc.items() if v}
            != {k: v for k, v in want.items() if v}):
        raise InvariantError("potential value disagrees with its lines")
    return doc


# -- correspondence ------------------------------------------------------------


def phicheck_doc(report, rows):
    return {
        "schema": schema_id("phicheck"),
        "fan": report.fan.name,
        "degree": list(report.deg),
        "seed": report.config.seed,
        "attempt": report.config.attempt,
        "solutions": [{
            "index": i,
            "shape": [r, c],
            "cokernel_order": o,
            "log_count": w,
            "product": o * w,
            "mult": m,
            "match": o * w == m,
        } for i, (r, c, o, w, m) in enumerate(rows)],
        "all_match": all(o * w == m for _, _, o, w, m in rows),
    }


def load_phicheck(doc):
    _expect(doc, "phicheck")
    for sol in doc["solutions"]:
        if (sol["cokernel_order"] * sol["log_count"] == sol["mult"]) \
                != sol["match"]:
            raise InvariantError("phicheck row match flag is wrong")
    return doc


# -- decomposition -------------------------------------------------------------


def decomposition_doc(fan, report, pd, props, fan3):
    edges = []
    for e in pd.edges:
        if e[0] == "seg":
            edges.append({"kind": "seg", "a": e[1], "b": e[2],
                          "dir": [e[3][0], e[3][1]],
                          "tags": sorted(str(t) for t in e[4])})
        else:
            edges.append({"kind": "ray", "a": e[1],
                          "dir": [e[2][0], e[2][1]],
                          "tags": sorted(str(t) for t in e[3])})
    doc = _header("decomposition", fan, report.config)
    del doc["points"]       # not part of the decomposition schema
    return {
        **doc,
        "degree": list(report.deg),
        "scale": pd.scale,
        "vertices": [fmt_point(v) for v in pd.vertices],
        "edges": edges,
        "faces": len(pd.faces),
        "properties": {k: bool(v) for k, v in props.items()},
        "fan3d": [{"name": name, "generators": [list(g) for g in gens]}
                  for name, gens in fan3.cones],
    }


def load_decomposition(doc):
    _expect(doc, "decomposition")
    for v in doc["vertices"]:
        parse_point(v)
    if len(doc["vertices"]) - len(doc["edges"]) + doc["faces"] != 1:
        raise InvariantError("decomposition Euler characteristic is off")
    return doc


LOADERS = {
    schema_id("count"): load_count,
    schema_id("trees"): load_trees,
    schema_id("disks"): load_disks,
    schema_id("diagram"): load_diagram,
    schema_id("potential"): load_potential,
    schema_id("phicheck"): load_phicheck,
    schema_id("decomposition"): load_decomposition,
}


def load_any(text):
    doc = loads(text)
    loader = LOADERS.get(doc["schema"])
    if loader is None:
        raise InvariantError("no loader for schema %r" % (doc["schema"],))
    try:
        return loader(doc)
    except (KeyError, IndexError, TypeError) as e:
        raise InvariantError("malformed %s document: %s %s"
                             % (doc["schema"], type(e).__name__, e)) from e
