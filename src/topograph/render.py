"""Deterministic SVG rendering of topograph patches.

Patches are BFS balls of the (3,inf) superbase tree or the (4,inf)/(6,inf)
pinwheel geometries, embedded in the unit disk by recursive angular
subdivision.  Coordinates are decorative; the combinatorics, the face
values, and river/well markers are exact.  Output bytes are stable: fixed
element ordering, fixed 4-decimal coordinate precision.
"""

from __future__ import annotations

import math

from .bqf import BQF, POSITIVE_DEFINITE, classify
from .classical import red_blue_forms
from .diform import BLUE, BQD, RED, diform_well, pinwheel_faces, pinwheel_key
from .errors import BudgetError, PreconditionError
from .lax import STANDARD_SUPERBASE, lax
from .reduction import find_well

GEOMETRIES = ("3inf", "4inf", "6inf")
# largest real-vertex count layout builds; 6inf depth 7 has 23,437
VERTEX_BUDGET = 25_000
_COUNTED_DEPTH = 64


class LayoutPatch:
    def __init__(self, geometry: str, depth: int, form: tuple | None):
        self.geometry = geometry
        self.depth = depth
        self.form = form
        self.vertices = []  # {id, x, y, classes}
        self.edges = []  # {v1, v2, end, faces, classes}
        self.faces = []  # {id, x, y, label, classes}

    def counts(self) -> dict:
        return {
            "vertices": len(self.vertices),
            "edges": len(self.edges),
            "faces": len(self.faces),
        }


def _tree_layout(root_key, neighbor_keys, depth: int):
    """Angular-subdivision positions for a BFS tree in the unit disk.

    A depth-``d`` patch places the vertices at BFS distance < d ("real") and
    uses the distance-d shell as phantom endpoints for boundary edge stubs.
    Children split their parent's angular interval; a vertex sits at the
    midpoint of its interval, at radius proportional to its BFS level.
    """
    pos = {root_key: (0.0, 0.0)}
    intervals = {root_key: (0.0, 2.0 * math.pi)}
    level = {root_key: 0}
    # the BFS expands exactly the real vertices; the edge pass reuses them
    adjacent = {}
    frontier = [root_key]
    for d in range(1, depth + 1):
        nxt = []
        for k in frontier:
            adjacent[k] = neighbor_keys(k)
            kids = [t for t in adjacent[k] if t not in pos]
            lo, hi = intervals[k]
            n = max(len(kids), 1)
            for i, t in enumerate(kids):
                a = lo + (hi - lo) * i / n
                b = lo + (hi - lo) * (i + 1) / n
                mid = (a + b) / 2.0
                r = d / (depth + 0.0)
                pos[t] = (r * math.cos(mid), r * math.sin(mid))
                if d < depth:
                    intervals[t] = (a, b)
                level[t] = d
                nxt.append(t)
        frontier = nxt
    real = sorted(k for k, lv in level.items() if lv < depth)
    # walking the sorted real vertices and their sorted neighbours lists
    # the edges and the stubs in sorted order
    edges = []
    stubs = []
    for k in real:
        for t in sorted(adjacent[k]):
            if level[t] == depth:
                stubs.append((k, t))
            elif k < t:
                edges.append((k, t))
    return pos, real, edges, stubs


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
        ``_other_vertex``; its first edge leads back."""
        if i + 1 < len(faces):
            color, u, v = faces[i + 1]
            return pinwheel_faces(faces[i], (color, -u, -v), self.sigma), 0
        return pinwheel_faces(faces[i], faces[0], self.sigma), 0

    def value(self, f):
        return self.forms[f[0]]((f[1], f[2]))

    def well_key(self):
        if self.q is None or self.q.a <= 0 or self.q.discriminant() >= 0:
            return None
        return diform_well(self.q)["source"].key()


def _patch(geometry: str, depth: int, form: tuple | None) -> LayoutPatch:
    """The depth-``depth`` patch of the geometry, each vertex built once:
    from its parent, across one edge.  The edge back is not crossed again,
    since the parent's key is known."""
    geo = _Superbases(form) if geometry == "3inf" else _Pinwheels(geometry, form)
    root_key = geo.key(geo.root)
    # key -> (vertex, position of the edge to the parent, parent key, level);
    # the shell, at level depth, is never expanded and keeps only its key
    built = {root_key: (geo.root, None, None, 0)}

    def neighbor_keys(k):
        vertex, back, parent, level = built[k]
        out = []
        for i in range(geo.degree):
            if i == back:
                out.append(parent)
                continue
            t, t_back = geo.step(vertex, i)
            tk = geo.key(t)
            if level + 1 < depth:
                built[tk] = (t, t_back, k, level + 1)
            out.append(tk)
        return out

    pos, real, edge_keys, stub_keys = _tree_layout(root_key, neighbor_keys, depth)
    patch = LayoutPatch(geometry, depth, form)
    ids = {k: i for i, k in enumerate(real)}

    well_key = geo.well_key()
    for k in real:
        classes = ["vertex"]
        if k == well_key:
            classes.append("well")
        x, y = pos[k]
        patch.vertices.append({"id": ids[k], "x": x, "y": y, "classes": classes})

    def edge(k1, k2, v2, end):
        # a key lists its vertex's lax faces; an edge's are the shared ones
        shared = sorted(set(k1).intersection(k2))
        classes = ["edge"]
        if geo.q is not None and len(shared) == 2:
            if geo.value(shared[0]) * geo.value(shared[1]) < 0:
                classes.append("river")
        return {"v1": ids[k1], "v2": v2, "end": end, "faces": shared,
                "classes": classes}

    for k1, k2 in edge_keys:
        patch.edges.append(edge(k1, k2, ids[k2], pos[k2]))
    for k1, k2 in stub_keys:
        (x1, y1), (x2, y2) = pos[k1], pos[k2]
        patch.edges.append(edge(k1, k2, None, ((x1 + x2) / 2.0, (y1 + y2) / 2.0)))

    face_incidence: dict = {}
    for k in real:
        for f in k:
            face_incidence.setdefault(f, []).append(pos[k])
    for i, f in enumerate(sorted(face_incidence)):
        pts = face_incidence[f]
        x = sum(p[0] for p in pts) / len(pts)
        y = sum(p[1] for p in pts) / len(pts)
        label = str(geo.value(f)) if geo.q is not None else geo.face_name.format(*f)
        patch.faces.append(
            {"id": i, "x": x, "y": y, "label": label, "classes": ["face-label"]}
        )
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


def emit_svg(patch: LayoutPatch | None) -> bytes:
    """Byte-deterministic SVG 1.1 document for a layout patch."""
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'viewBox="-1.1 -1.1 2.2 2.2">',
    ]
    if patch is not None and (patch.vertices or patch.edges or patch.faces):
        lines.append(f"<style>{_STYLE}</style>")
        vpos = {v["id"]: (v["x"], v["y"]) for v in patch.vertices}
        for e in patch.edges:
            (x1, y1), (x2, y2) = vpos[e["v1"]], e["end"]
            cls = " ".join(e["classes"])
            lines.append(
                f'<line class="{cls}" x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
                f'x2="{_fmt(x2)}" y2="{_fmt(y2)}"/>'
            )
        for v in patch.vertices:
            cls = " ".join(v["classes"])
            lines.append(
                f'<circle class="{cls}" cx="{_fmt(v["x"])}" cy="{_fmt(v["y"])}" '
                'r="0.015"/>'
            )
        for f in patch.faces:
            cls = " ".join(f["classes"])
            lines.append(
                f'<text class="{cls}" x="{_fmt(f["x"])}" y="{_fmt(f["y"])}">'
                f'{_elide(f["label"])}</text>'
            )
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode("utf-8")
