"""Deterministic SVG rendering of topograph patches.

Patches are BFS balls of the (3,inf) superbase tree or the (4,inf)/(6,inf)
pinwheel geometries, embedded in the unit disk by angular subdivision.
Coordinates are decorative; the combinatorics, face values and river/well
markers are exact.  Output bytes are stable: fixed element order, 4-decimal
coordinates.  The walks that mark a well load only for a definite form."""

from __future__ import annotations

import math

from .bqf import BQF, POSITIVE_DEFINITE, classify
from .classical import red_blue_forms
from .dilinear import BLUE, BQD, RED, _across, _pinwheel_reading, pinwheel_faces, pinwheel_key
from .errors import BudgetError, PreconditionError
from .lax import STANDARD_SUPERBASE, lax

GEOMETRIES = ("3inf", "4inf", "6inf")
# largest real-vertex count layout builds; 6inf depth 7 has 23,437
VERTEX_BUDGET = 25_000
_COUNTED_DEPTH = 64


class LayoutPatch:
    def __init__(self, geometry: str, depth: int, form: tuple | None):
        self.geometry, self.depth, self.form = geometry, depth, form
        self.vertices = []  # (x, y, well); a vertex's index is its id
        self.edges = []  # (v1, v2 or None for a stub, end, faces, river)
        self.faces = []  # {x, y, label}

    def counts(self) -> dict:
        return {"vertices": len(self.vertices), "edges": len(self.edges),
                "faces": len(self.faces)}


class _Superbases:
    """(3,inf) adapter: a vertex is a signed superbase triple in
    ``normalize_superbase``'s canonical order, its key the sorted lax faces."""

    degree = 3
    root = STANDARD_SUPERBASE
    face_name = "{},{}"

    def __init__(self, form):
        self.q = self.value = BQF(*form) if form else None  # valued at faces

    def step(self, vs, i):
        """The superbase across the edge opposite vs[i], and the position in
        it of the edge back.  As in ``neighbors``, p - q replaces vs[i]."""
        p, q = vs[i - 2], vs[i - 1]
        new = (q[0] - p[0], q[1] - p[1])
        t = sorted((p, (-q[0], -q[1]), new), key=lax)
        if t[0] != lax(t[0]):
            t = [(-x, -y) for x, y in t]
            new = (-new[0], -new[1])
        return tuple(t), t.index(new)

    key = staticmethod(lambda vs: tuple(map(lax, vs)))
    read = staticmethod(lambda vs: (tuple(map(lax, vs)), -1, 1))  # in slot order

    def well_key(self):
        if self.q is None or classify(self.q) != POSITIVE_DEFINITE:
            return None
        from .reduction import find_well
        return tuple(sorted(lax(v) for v in find_well(self.q).vectors))


class _Pinwheels:
    """(4,inf)/(6,inf) adapter: a vertex is the signed cycle of a pinwheel's
    (color, u, v) faces, keyed and seamed by one ``_pinwheel_reading``."""

    key, read = staticmethod(pinwheel_key), staticmethod(_pinwheel_reading)
    face_name = "{}:{},{}"

    def __init__(self, geometry, form):
        self.sigma = 2 if geometry == "4inf" else 3
        self.degree = 2 * self.sigma
        self.q = BQD(self.sigma, *form) if form else None
        if self.q is not None:
            # a diform restricts to one binary form on each colour
            red, blue = red_blue_forms(*self.q)
            self.forms = {RED: BQF(*red), BLUE: BQF(*blue)}
        self.root = pinwheel_faces((RED, 1, 0), (BLUE, 0, 1), self.sigma)

    def step(self, faces, i):
        """The pinwheel across the edge (faces[i], faces[i + 1]), by
        ``_across``; its first edge leads back.  Every edge of a pinwheel is
        a dibasis."""
        return _across(faces, i, self.sigma), 0

    def value(self, f):
        return self.forms[f[0]]((f[1], f[2]))

    def well_key(self):
        if self.q is None or self.q.a <= 0 or self.q.discriminant() >= 0:
            return None
        from .diform import diform_well
        return diform_well(self.q)["source"].key()


def _patch(geometry: str, depth: int, form: tuple | None) -> LayoutPatch:
    """The depth-``depth`` patch of the geometry in the unit disk: the real
    vertices are those at BFS distance < depth, the distance-depth shell holds
    the stubs' far ends.  A child sits mid-way in its share of its parent's
    angular interval, at radius proportional to its BFS level.  The geometry
    is a tree, so each real vertex is built and read once, from its parent;
    no shell vertex is built, and each face is valued once."""
    geo = _Superbases(form) if geometry == "3inf" else _Pinwheels(geometry, form)
    degree = geo.degree
    keys = []  # real vertex k's is keys[k], read as k leaves the frontier
    pos = [(0.0, 0.0)]
    shared = [None]  # the lax faces a vertex shares with its parent, sorted
    nbrs = []  # real vertex k's neighbour across slot i is nbrs[k*degree + i]
    # (id, vertex, position of the edge to the parent, parent id, interval)
    frontier = [(0, geo.root, None, None, 0.0, 2.0 * math.pi)]
    for d in range(1, depth + 1):
        r = d / (depth + 0.0)
        nxt = []
        for k, vertex, back, parent, lo, hi in frontier:
            n = degree - (back is not None)
            key, base, sign = geo.read(vertex)  # slot i's faces: key[s - 1], key[s]
            keys.append(key)
            j, b = 0, lo
            for i in range(degree):
                if i == back:
                    nbrs.append(parent)
                    continue
                j += 1
                a, b = b, lo + (hi - lo) * j / n
                mid = (a + b) / 2.0
                nbrs.append(len(pos))
                if d < depth:
                    t, t_back = geo.step(vertex, i)
                    nxt.append((len(pos), t, t_back, k, a, b))
                s = base + sign * i
                f, g = key[s - 1], key[s]
                shared.append((f, g) if f < g else (g, f))
                pos.append((r * math.cos(mid), r * math.sin(mid)))
        frontier = nxt
    real = len(nbrs) // degree  # ids index flat lists, the real ones first
    order = sorted(range(real), key=keys.__getitem__)
    rank = [0] * real  # the output id of each real vertex
    # each face's record sums its points in output order, as sum() would,
    # and their count n; the sums become the mean once all are placed
    recs = {}
    for i, k in enumerate(order):
        rank[k] = i
        x, y = pos[k]
        for f in keys[k]:
            rec = recs.get(f)
            if rec is None:
                recs[f] = {"x": 0.0 + x, "y": 0.0 + y, "n": 1}
            else:
                rec["x"], rec["y"], rec["n"] = rec["x"] + x, rec["y"] + y, rec["n"] + 1
    faces = sorted(recs)
    value = dict(zip(faces, map(geo.value, faces))) if geo.q is not None else None

    patch = LayoutPatch(geometry, depth, form)
    well_key = geo.well_key()
    patch.vertices.extend((*pos[k], keys[k] == well_key) for k in order)

    # sorted vertices, then their real neighbours by rank, which sorts as
    # the key, and stubs by their shared faces; a child has the higher id
    edges, stubs = patch.edges, []
    for k in order:
        rk, (x, y) = rank[k], pos[k]
        ts = nbrs[k * degree:(k + 1) * degree]
        for rt in sorted([rank[t] for t in ts if t < real]):
            if rt > rk:
                t = order[rt]
                f, g = pair = shared[max(k, t)]
                edges.append((rk, rt, pos[t], pair,
                              value is not None and value[f] * value[g] < 0))
        for t in sorted([t for t in ts if t >= real], key=shared.__getitem__):
            f, g = pair = shared[t]
            stubs.append((rk, None, ((x + pos[t][0]) / 2.0, (y + pos[t][1]) / 2.0), pair,
                          value is not None and value[f] * value[g] < 0))
    edges += stubs

    for f in faces:
        rec = recs[f]
        n = rec.pop("n")
        rec["x"], rec["y"] = rec["x"] / n, rec["y"] / n
        try:
            rec["label"] = geo.face_name.format(*f) if value is None else str(value[f])
        except ValueError:  # past sys.get_int_max_str_digits(), 4,300 by default
            rec["label"] = _sci(value[f])
        patch.faces.append(rec)
    return patch


def patch_vertices(geometry: str, depth: int) -> int:
    """The real-vertex count of a depth-``depth`` patch: 1 + n ((n-1)^(d-1)
    - 1) / (n - 2) in the tree of vertex degree n."""
    n = {"3inf": 3, "4inf": 4, "6inf": 6}[geometry]
    return 1 + n * ((n - 1) ** (depth - 1) - 1) // (n - 2) if depth else 0


def layout(geometry: str, depth: int, form: tuple | None = None) -> LayoutPatch:
    if geometry not in GEOMETRIES:
        raise PreconditionError(f"unknown geometry {geometry!r}")
    if depth < 0:
        raise PreconditionError("depth must be nonnegative")
    # the count at least doubles per level: past _COUNTED_DEPTH, a bound
    count = patch_vertices(geometry, min(depth, _COUNTED_DEPTH))
    if count > VERTEX_BUDGET:
        over = "more than " if depth > _COUNTED_DEPTH else ""
        raise BudgetError(f"a depth-{depth} {geometry} patch has {over}{count} "
                          f"vertices, over the budget of {VERTEX_BUDGET}")
    return _patch(geometry, depth, form)


def _fmt(x: float) -> str:
    s = f"{x:.4f}"
    return "0.0000" if s == "-0.0000" else s


def _sci(n: int) -> str:
    """``f"{n:.4e}"``, exactly: five digits rounded half to even, exponent."""
    m = abs(n)
    # floor(log10(m)), or one less
    e = (m.bit_length() - 1) * 30102999566 // 10**11
    e += 10 ** (e + 1) <= m
    unit = 10 ** (e - 4)
    q, r = divmod(m, unit)
    d = str(q + (2 * r > unit or 2 * r == unit and q & 1))
    return f"{'-' * (n < 0)}{d[0]}.{d[1:5]}e+{e + len(d) - 5:02d}"


def _elide(label: str) -> str:
    """Labels longer than 12 digits collapse to scientific style."""
    digits = label.lstrip("-")
    return _sci(int(label)) if digits.isdigit() and len(digits) > 12 else label


_STYLE = (
    ".edge{stroke:#555;stroke-width:0.006;}.river{stroke:#06c;stroke-width:0.012;}"
    ".vertex{fill:#222;}.well{fill:#c30;}"
    ".face-label{font-size:0.05px;font-family:monospace;text-anchor:middle;}")


def emit_svg(patch: LayoutPatch) -> bytes:
    """Byte-deterministic SVG 1.1 document for a layout patch.  Only here
    do the well and river flags become CSS classes."""
    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             'viewBox="-1.1 -1.1 2.2 2.2">']
    if patch.vertices or patch.edges or patch.faces:
        lines.append(f"<style>{_STYLE}</style>")
        # each vertex's point is formatted once; a real edge ends at its v2's
        pts = [(_fmt(x), _fmt(y)) for x, y, _ in patch.vertices]
        for v1, v2, end, _, river in patch.edges:
            (x1, y1), (x2, y2) = pts[v1], pts[v2] if v2 is not None else map(_fmt, end)
            lines.append(f'<line class="{"edge river" if river else "edge"}" '
                         f'x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}"/>')
        for (x, y), (_, _, well) in zip(pts, patch.vertices):
            cls = "vertex well" if well else "vertex"
            lines.append(f'<circle class="{cls}" cx="{x}" cy="{y}" r="0.015"/>')
        for f in patch.faces:
            lines.append(f'<text class="face-label" x="{_fmt(f["x"])}" '
                         f'y="{_fmt(f["y"])}">{_elide(f["label"])}</text>')
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode("utf-8")
