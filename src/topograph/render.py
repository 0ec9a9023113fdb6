"""Deterministic SVG rendering of topograph patches.

Patches are BFS balls of the (3,inf) superbase tree or the (4,inf)/(6,inf)
pinwheel geometries, embedded in the unit disk by recursive angular
subdivision.  Coordinates are decorative; the combinatorics, the face
values, and river/well markers are exact.  Output bytes are stable: fixed
element ordering, fixed 4-decimal coordinate precision.  The walks that
mark a well are imported only for a definite form, which has one.
"""

from __future__ import annotations

import math

from .bqf import BQF, POSITIVE_DEFINITE, classify
from .classical import red_blue_forms
from .dilinear import BLUE, BQD, RED, _faces, pinwheel_faces, pinwheel_key
from .errors import BudgetError, PreconditionError
from .lax import STANDARD_SUPERBASE, lax

GEOMETRIES = ("3inf", "4inf", "6inf")
# largest real-vertex count layout builds; 6inf depth 7 has 23,437
VERTEX_BUDGET = 25_000
_COUNTED_DEPTH = 64


class LayoutPatch:
    def __init__(self, geometry: str, depth: int, form: tuple | None):
        self.geometry = geometry
        self.depth = depth
        self.form = form
        self.vertices = []  # (x, y, well); a vertex's index is its id
        self.edges = []  # (v1, v2 or None for a stub, end, faces, river)
        self.faces = []  # {x, y, label}

    def counts(self) -> dict:
        return {
            "vertices": len(self.vertices),
            "edges": len(self.edges),
            "faces": len(self.faces),
        }


class _Superbases:
    """(3,inf) adapter: a vertex is a signed superbase triple in
    ``normalize_superbase``'s canonical order, its key the sorted lax faces."""

    degree = 3
    root = STANDARD_SUPERBASE
    face_name = "{},{}"

    def __init__(self, form):
        # the face value is the form's value at the face
        self.q = self.value = BQF(*form) if form else None

    def step(self, vs, i):
        """The superbase across the edge opposite vs[i], and the position in
        it of the edge back, opposite the new vector.  As in ``neighbors``,
        the pair p, q stays and p - q replaces the third vector."""
        p, q = vs[i - 2], vs[i - 1]
        new = (q[0] - p[0], q[1] - p[1])
        t = sorted((p, (-q[0], -q[1]), new), key=lax)
        if t[0] != lax(t[0]):
            t = [(-x, -y) for x, y in t]
            new = (-new[0], -new[1])
        return tuple(t), t.index(new)

    @staticmethod
    def key(vs):
        return tuple(lax(v) for v in vs)

    def well_key(self):
        if self.q is None or classify(self.q) != POSITIVE_DEFINITE:
            return None
        from .reduction import find_well

        return tuple(sorted(lax(v) for v in find_well(self.q).vectors))


class _Pinwheels:
    """(4,inf)/(6,inf) adapter: a vertex is the signed cycle of a pinwheel's
    (color, u, v) faces; its key is ``pinwheel_key``."""

    key = staticmethod(pinwheel_key)
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
        """The pinwheel across the edge (faces[i], faces[i + 1]), generated
        by (p, -s), or by (p, s) across the wrap edge, as in
        ``_other_vertex``; its first edge leads back.  Only the root is
        checked: every edge of a pinwheel is a dibasis."""
        if i + 1 < len(faces):
            color, u, v = faces[i + 1]
            return _faces(faces[i], (color, -u, -v), self.sigma), 0
        return _faces(faces[i], faces[0], self.sigma), 0

    def value(self, f):
        return self.forms[f[0]]((f[1], f[2]))

    def well_key(self):
        if self.q is None or self.q.a <= 0 or self.q.discriminant() >= 0:
            return None
        from .diform import diform_well

        return diform_well(self.q)["source"].key()


def _patch(geometry: str, depth: int, form: tuple | None) -> LayoutPatch:
    """The depth-``depth`` patch of the geometry, embedded in the unit disk
    by angular subdivision.

    The patch places the vertices at BFS distance < depth ("real") and uses
    the distance-depth shell as phantom endpoints for boundary edge stubs.
    Children split their parent's angular interval; a vertex sits at the
    midpoint of its interval, at radius proportional to its BFS level.

    Each vertex is built once, from its parent, across one edge; the edge
    back is not crossed again.  The geometry is a tree, so every vertex the
    BFS builds is new, and its id is its index in ``keys`` and ``pos``.
    The BFS numbers one level after the other, so the real vertices are the
    ids below ``len(adjacent)``.  Keys serve only to order the output and to
    name the faces an edge shares; the form is valued once per face.
    """
    geo = _Superbases(form) if geometry == "3inf" else _Pinwheels(geometry, form)
    keys = [geo.key(geo.root)]
    pos = [(0.0, 0.0)]
    adjacent = []  # the neighbour ids of each real vertex
    # (id, vertex, position of the edge to the parent, parent id, interval)
    frontier = [(0, geo.root, None, None, 0.0, 2.0 * math.pi)]
    for d in range(1, depth + 1):
        r = d / (depth + 0.0)
        nxt = []
        for k, vertex, back, parent, lo, hi in frontier:
            out = []
            n = geo.degree - (back is not None)
            j = 0
            for i in range(geo.degree):
                if i == back:
                    out.append(parent)
                    continue
                t, t_back = geo.step(vertex, i)
                a = lo + (hi - lo) * j / n
                b = lo + (hi - lo) * (j + 1) / n
                mid = (a + b) / 2.0
                j += 1
                out.append(len(keys))
                if d < depth:
                    nxt.append((len(keys), t, t_back, k, a, b))
                keys.append(geo.key(t))
                pos.append((r * math.cos(mid), r * math.sin(mid)))
            adjacent.append(out)
        frontier = nxt
    real = len(adjacent)
    order = sorted(range(real), key=keys.__getitem__)
    rank = [0] * real  # the output id of each real vertex
    for i, k in enumerate(order):
        rank[k] = i

    incidence: dict = {}
    for k in order:
        for f in keys[k]:
            incidence.setdefault(f, []).append(pos[k])
    faces = sorted(incidence)
    value = dict(zip(faces, map(geo.value, faces))) if geo.q is not None else None

    patch = LayoutPatch(geometry, depth, form)
    well_key = geo.well_key()
    patch.vertices.extend((*pos[k], keys[k] == well_key) for k in order)

    def edge(k, t, v2, end):
        # a key lists its vertex's lax faces; an edge's are the shared ones
        f, g = shared = tuple(sorted(set(keys[k]).intersection(keys[t])))
        river = value is not None and value[f] * value[g] < 0
        return rank[k], v2, end, shared, river

    # walking the sorted real vertices and their sorted neighbours lists
    # the edges and the stubs in sorted order
    stubs = []
    for k in order:
        for t in sorted(adjacent[k], key=keys.__getitem__):
            if t >= real:
                stubs.append((k, t))
            elif rank[k] < rank[t]:
                patch.edges.append(edge(k, t, rank[t], pos[t]))
    for k, t in stubs:
        (x1, y1), (x2, y2) = pos[k], pos[t]
        patch.edges.append(edge(k, t, None, ((x1 + x2) / 2.0, (y1 + y2) / 2.0)))

    for f in faces:
        pts = incidence[f]
        x = sum(p[0] for p in pts) / len(pts)
        y = sum(p[1] for p in pts) / len(pts)
        label = str(value[f]) if value is not None else geo.face_name.format(*f)
        patch.faces.append({"x": x, "y": y, "label": label})
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
    # the count at least doubles per level, so past _COUNTED_DEPTH it is
    # named by a lower bound
    count = patch_vertices(geometry, min(depth, _COUNTED_DEPTH))
    if count > VERTEX_BUDGET:
        over = "more than " if depth > _COUNTED_DEPTH else ""
        raise BudgetError(
            f"a depth-{depth} {geometry} patch has {over}{count} vertices, "
            f"over the budget of {VERTEX_BUDGET}")
    return _patch(geometry, depth, form)


def _fmt(x: float) -> str:
    s = f"{x:.4f}"
    return "0.0000" if s == "-0.0000" else s


def _elide(label: str) -> str:
    """Labels longer than 12 digits collapse to scientific style."""
    digits = label.lstrip("-")
    if digits.isdigit() and len(digits) > 12:
        return f"{float(label):.4e}"
    return label


_STYLE = (
    ".edge{stroke:#555;stroke-width:0.006;}"
    ".river{stroke:#06c;stroke-width:0.012;}"
    ".vertex{fill:#222;}"
    ".well{fill:#c30;}"
    ".face-label{font-size:0.05px;font-family:monospace;text-anchor:middle;}"
)


def emit_svg(patch: LayoutPatch) -> bytes:
    """Byte-deterministic SVG 1.1 document for a layout patch.  Only here
    do the well and river flags become CSS classes."""
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'viewBox="-1.1 -1.1 2.2 2.2">',
    ]
    if patch.vertices or patch.edges or patch.faces:
        lines.append(f"<style>{_STYLE}</style>")
        for v1, _, (x2, y2), _, river in patch.edges:
            x1, y1, _ = patch.vertices[v1]
            cls = "edge river" if river else "edge"
            lines.append(
                f'<line class="{cls}" x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
                f'x2="{_fmt(x2)}" y2="{_fmt(y2)}"/>'
            )
        for x, y, well in patch.vertices:
            cls = "vertex well" if well else "vertex"
            lines.append(
                f'<circle class="{cls}" cx="{_fmt(x)}" cy="{_fmt(y)}" r="0.015"/>'
            )
        for f in patch.faces:
            lines.append(
                f'<text class="face-label" x="{_fmt(f["x"])}" y="{_fmt(f["y"])}">'
                f'{_elide(f["label"])}</text>'
            )
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode("utf-8")
