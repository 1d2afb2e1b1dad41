"""SVG rendering of count, diagram, potential and decomposition documents.

The only place in the package where rationals become decimals; every
coordinate is printed with 6 fixed digits, so output is byte-stable.
"""

from .jsonio import parse_point, schema_id
from .lattice import InvariantError

SIZE = 640.0
MARGIN = 60.0


def _f(v):
    return "%.6f" % v


class _Board:
    def __init__(self, points):
        xs = [float(x) for x, _ in points] or [0.0]
        ys = [float(y) for _, y in points] or [0.0]
        self.minx, self.maxx = min(xs), max(xs)
        self.miny, self.maxy = min(ys), max(ys)
        span = max(self.maxx - self.minx, self.maxy - self.miny, 1.0)
        self.scale = (SIZE - 2 * MARGIN) / span
        self.body = []

    def xy(self, p):
        x = MARGIN + (float(p[0]) - self.minx) * self.scale
        y = SIZE - MARGIN - (float(p[1]) - self.miny) * self.scale
        return x, y

    def clip_ray(self, base, d):
        # longest segment from base in direction d staying inside the
        # world window, extended a little past the margin
        bx, by = float(base[0]), float(base[1])
        dx, dy = float(d[0]), float(d[1])
        pad = (SIZE - MARGIN) / self.scale
        lox, hix = self.minx - pad, self.maxx + pad
        loy, hiy = self.miny - pad, self.maxy + pad
        t = None
        for num, den in (((hix - bx), dx), ((lox - bx), dx),
                         ((hiy - by), dy), ((loy - by), dy)):
            if den == 0.0:
                continue
            cand = num / den
            if cand > 0.0 and (t is None or cand < t):
                t = cand
        if t is None:
            t = 1.0
        return (bx + t * dx, by + t * dy)

    def line(self, a, b, color, width, dash=None, title=None):
        x1, y1 = self.xy(a)
        x2, y2 = self.xy(b)
        extra = ' stroke-dasharray="6,4"' if dash else ""
        tag = ('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="%s" '
               'stroke-width="%s"%s' % (_f(x1), _f(y1), _f(x2), _f(y2),
                                        color, _f(width), extra))
        if title:
            self.body.append(tag + "><title>%s</title></line>" % title)
        else:
            self.body.append(tag + "/>")

    def dot(self, p, color, r, title=None):
        x, y = self.xy(p)
        tag = ('<circle cx="%s" cy="%s" r="%s" fill="%s"'
               % (_f(x), _f(y), _f(r), color))
        if title:
            self.body.append(tag + "><title>%s</title></circle>" % title)
        else:
            self.body.append(tag + "/>")

    def text(self, p, s, color="#333333"):
        x, y = self.xy(p)
        self.body.append('<text x="%s" y="%s" font-size="11" fill="%s">'
                         '%s</text>' % (_f(x + 5), _f(y - 5), color, s))

    def emit(self):
        head = ('<svg xmlns="http://www.w3.org/2000/svg" width="%d" '
                'height="%d" viewBox="0 0 %d %d">'
                % (int(SIZE), int(SIZE), int(SIZE), int(SIZE)))
        bg = ('<rect x="0" y="0" width="%d" height="%d" fill="white"/>'
              % (int(SIZE), int(SIZE)))
        return "\n".join([head, bg] + self.body + ["</svg>"]) + "\n"


def _pts(doc, key):
    return [parse_point(p) for p in doc.get(key, [])]


def _render_count(doc):
    anchors = _pts(doc, "points")
    for sol in doc["solutions"]:
        anchors.extend(parse_point(v) for v in sol["vertices"])
    board = _Board(anchors)
    for sol in doc["solutions"]:
        verts = [parse_point(v) for v in sol["vertices"]]
        for i, j, w, _ in sol["bounded_edges"]:
            board.line(verts[i], verts[j], "#333333", 0.8 + 0.6 * w)
        for i, d, w in sol["rays"]:
            end = board.clip_ray(verts[i], d)
            board.line(verts[i], end, "#333333", 0.8 + 0.6 * w)
    for idx, p in enumerate(_pts(doc, "points")):
        board.dot(p, "#c02020", 4.0, title="P%d" % (idx + 1))
    return board.emit()


def _wall_color(w):
    nu = max((len(t["u"]) for t in w["function"]["terms"]), default=0)
    return "#d07000" if nu >= 2 else "#808080"


def _render_diagram(doc, extra=None):
    anchors = _pts(doc, "points")
    anchors.extend(parse_point(w["base"]) for w in doc["walls"])
    lines = doc.get("lines", []) if extra else []
    if extra:
        anchors.append(parse_point(doc["endpoint"]))
        for line in lines:
            for seg in line["segments"]:
                anchors.append(parse_point(seg["end"]))
    board = _Board(anchors)
    for w in doc["walls"]:
        base = parse_point(w["base"])
        end = board.clip_ray(base, w["dir"])
        title = " + ".join(
            t["coeff"] + "".join("*u%d" % i for i in t["u"]) +
            "*z^%s" % (t["z"],) for t in w["function"]["terms"])
        board.line(base, end, _wall_color(w), 1.2, title=title)
    rays = doc.get("rays", [])
    for line in lines:
        segs = line["segments"]
        first = segs[0]
        b0 = parse_point(first["end"])
        # the unbounded tail leaves b0 against the travel direction,
        # that is along +r(m) of the first segment's exponent
        r = [sum(m * v[i] for m, v in zip(first["z"], rays))
             for i in (0, 1)]
        back = board.clip_ray(b0, r)
        board.line(back, b0, "#2060c0", 1.4, dash=True)
        for seg in segs[1:]:
            a = parse_point(seg["start"])
            b = parse_point(seg["end"])
            board.line(a, b, "#2060c0", 1.4, dash=True)
    for idx, p in enumerate(_pts(doc, "points")):
        board.dot(p, "#c02020", 4.0, title="P%d" % (idx + 1))
        board.text(p, "P%d" % (idx + 1), "#c02020")
    if extra:
        q = parse_point(doc["endpoint"])
        board.dot(q, "#000000", 4.5, title="Q")
        board.text(q, "Q")
    return board.emit()


def _render_decomposition(doc):
    verts = [parse_point(v) for v in doc["vertices"]]
    board = _Board(verts + _pts(doc, "points"))
    for e in doc["edges"]:
        if e["kind"] == "seg":
            board.line(verts[e["a"]], verts[e["b"]], "#606060", 1.0)
        else:
            end = board.clip_ray(verts[e["a"]], e["dir"])
            board.line(verts[e["a"]], end, "#606060", 1.0)
    for v in verts:
        board.dot(v, "#303030", 2.0)
    for idx, p in enumerate(_pts(doc, "points")):
        board.dot(p, "#c02020", 4.0, title="P%d" % (idx + 1))
    return board.emit()


_RENDER = {
    schema_id("count"): _render_count,
    schema_id("diagram"): _render_diagram,
    schema_id("potential"): lambda doc: _render_diagram(doc, extra=True),
    schema_id("decomposition"): _render_decomposition,
}


def render_doc(doc):
    kind = doc.get("schema", "")
    if kind not in _RENDER:
        raise InvariantError("schema %r has no SVG renderer" % (kind,))
    return _RENDER[kind](doc)
