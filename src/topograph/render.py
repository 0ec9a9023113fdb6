"""Deterministic SVG rendering of topograph patches.

Patches are BFS balls of the (3,inf) superbase tree or the (4,inf)/(6,inf)
pinwheel geometries, embedded in the unit disk by recursive angular
subdivision.  Coordinates are decorative; the combinatorics, the face
values, and river/well markers are exact.  Output bytes are stable: fixed
element ordering, fixed 4-decimal coordinate precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .bqf import BQF, INDEFINITE, POSITIVE_DEFINITE, classify
from .diform import (
    BQD,
    STANDARD_DIBASIS,
    _other_vertex,
    diform_well,
    pinwheel_complete,
)
from .errors import BudgetError, PreconditionError
from .lax import STANDARD_SUPERBASE, lax, neighbors
from .reduction import find_well

GEOMETRIES = ("3inf", "4inf", "6inf")
MAX_DEPTH = 9


@dataclass
class LayoutPatch:
    geometry: str
    depth: int
    form: tuple | None
    vertices: list = field(default_factory=list)  # {id, x, y, classes}
    edges: list = field(default_factory=list)  # {v1, v2, faces, classes}
    faces: list = field(default_factory=list)  # {id, x, y, label, classes}

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
                intervals[t] = (a, b)
                level[t] = d
                nxt.append(t)
        frontier = nxt
    real = {k for k, lv in level.items() if lv < depth}
    edges = set()
    stubs = set()
    for k in real:
        for t in adjacent[k]:
            if t in real:
                edges.add(tuple(sorted((k, t))))
            elif t in pos:
                stubs.add((k, t))
    return pos, real, sorted(edges), sorted(stubs)


def _conway_patch(depth: int, form: tuple | None) -> LayoutPatch:
    q = BQF(*form) if form else None
    start = STANDARD_SUPERBASE
    index = {start.key(): start}

    def neighbor_keys(k):
        s = index[k]
        out = []
        for t in neighbors(s):
            tk = t.key()
            index.setdefault(tk, t)
            out.append(tk)
        return out

    pos, real, edge_keys, stub_keys = _tree_layout(start.key(), neighbor_keys, depth)
    patch = LayoutPatch("3inf", depth, form)
    ids = {k: i for i, k in enumerate(sorted(real))}

    well_key = None
    if q is not None and classify(q) == POSITIVE_DEFINITE:
        w = find_well(q)
        well_key = tuple(sorted(lax(v) for v in w.vectors))
    for k in sorted(real):
        classes = ["vertex"]
        if k == well_key:
            classes.append("well")
        x, y = pos[k]
        patch.vertices.append({"id": ids[k], "x": x, "y": y, "classes": classes})

    def face_pair(k1, k2):
        return sorted(set(k1) & set(k2))

    def edge_classes(shared):
        classes = ["edge"]
        if q is not None and len(shared) == 2 and q(shared[0]) * q(shared[1]) < 0:
            classes.append("river")
        return classes

    for k1, k2 in edge_keys:
        shared = face_pair(k1, k2)
        patch.edges.append(
            {
                "v1": ids[k1],
                "v2": ids[k2],
                "end": pos[k2],
                "faces": shared,
                "classes": edge_classes(shared),
            }
        )
    for k1, k2 in stub_keys:
        shared = face_pair(k1, k2)
        x1, y1 = pos[k1]
        x2, y2 = pos[k2]
        patch.edges.append(
            {
                "v1": ids[k1],
                "v2": None,
                "end": ((x1 + x2) / 2.0, (y1 + y2) / 2.0),
                "faces": shared,
                "classes": edge_classes(shared),
            }
        )

    face_incidence: dict = {}
    for k in real:
        for f in k:
            face_incidence.setdefault(f, []).append(pos[k])
    for i, f in enumerate(sorted(face_incidence)):
        pts = face_incidence[f]
        x = sum(p[0] for p in pts) / len(pts)
        y = sum(p[1] for p in pts) / len(pts)
        label = str(q(f)) if q is not None else f"{f[0]},{f[1]}"
        patch.faces.append(
            {"id": i, "x": x, "y": y, "label": label, "classes": ["face-label"]}
        )
    return patch


def _dilinear_patch(geometry: str, depth: int, form: tuple | None) -> LayoutPatch:
    sigma = 2 if geometry == "4inf" else 3
    q = BQD(sigma, *form) if form else None
    start = pinwheel_complete(*STANDARD_DIBASIS, sigma)
    index = {start.key(): start}

    def neighbor_keys(k):
        pw = index[k]
        out = []
        for p, s in pw.edges():
            t = _other_vertex(p, s, pw, sigma)
            tk = t.key()
            index.setdefault(tk, t)
            out.append(tk)
        return out

    pos, real, edge_keys, stub_keys = _tree_layout(start.key(), neighbor_keys, depth)
    patch = LayoutPatch(geometry, depth, form)
    ids = {k: i for i, k in enumerate(sorted(real))}

    well_key = None
    if q is not None and q.a > 0 and q.discriminant() < 0:
        well_key = diform_well(q)["source"].key()
    for k in sorted(real):
        classes = ["vertex"]
        if k == well_key:
            classes.append("well")
        x, y = pos[k]
        patch.vertices.append({"id": ids[k], "x": x, "y": y, "classes": classes})

    face_incidence: dict = {}
    face_vec: dict = {}
    for k in real:
        pw = index[k]
        for fv in pw.faces:
            f = fv.lax()
            fk = (f.color, f.u, f.v)
            face_incidence.setdefault(fk, []).append(pos[k])
            face_vec[fk] = f
    for fv in (f for k in pos for f in index[k].faces):
        f = fv.lax()
        face_vec.setdefault((f.color, f.u, f.v), f)

    def edge_classes(shared):
        classes = ["edge"]
        if q is not None and len(shared) == 2:
            if q(face_vec[shared[0]]) * q(face_vec[shared[1]]) < 0:
                classes.append("river")
        return classes

    for k1, k2 in edge_keys:
        shared = sorted(set(k1) & set(k2))
        patch.edges.append(
            {
                "v1": ids[k1],
                "v2": ids[k2],
                "end": pos[k2],
                "faces": shared,
                "classes": edge_classes(shared),
            }
        )
    for k1, k2 in stub_keys:
        shared = sorted(set(k1) & set(k2))
        x1, y1 = pos[k1]
        x2, y2 = pos[k2]
        patch.edges.append(
            {
                "v1": ids[k1],
                "v2": None,
                "end": ((x1 + x2) / 2.0, (y1 + y2) / 2.0),
                "faces": shared,
                "classes": edge_classes(shared),
            }
        )
    for i, fk in enumerate(sorted(face_incidence)):
        pts = face_incidence[fk]
        x = sum(p[0] for p in pts) / len(pts)
        y = sum(p[1] for p in pts) / len(pts)
        if q is not None:
            label = str(q(face_vec[fk]))
        else:
            label = f"{fk[0]}:{fk[1]},{fk[2]}"
        patch.faces.append(
            {"id": i, "x": x, "y": y, "label": label, "classes": ["face-label"]}
        )
    return patch


def layout(geometry: str, depth: int, form: tuple | None = None) -> LayoutPatch:
    if geometry not in GEOMETRIES:
        raise PreconditionError(f"unknown geometry {geometry!r}")
    if depth > MAX_DEPTH:
        raise BudgetError(f"depth {depth} exceeds the rendering budget {MAX_DEPTH}")
    if depth < 0:
        raise PreconditionError("depth must be nonnegative")
    if geometry == "3inf":
        return _conway_patch(depth, form)
    return _dilinear_patch(geometry, depth, form)


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
