"""The dilinear world over Z[sqrt(sigma)], sigma in {2, 3}.

Faces of the (2*sigma, inf) topograph are red divectors (u, v*sqrt(sigma))
and blue divectors (u*sqrt(sigma), v); edges are dibases (opposite-colour
pairs forming a dilinear matrix of determinant +-1); points are pinwheels of
2*sigma faces generated by x_{k+1} = sqrt(sigma) * x_k - x_{k-1}.

A binary quadratic diform a x^2 + b sqrt(sigma) x y + c y^2 takes integer
values on divectors; its rivers and wells are navigated here.

Every walk moves a whole run at a time.  Around a fixed face F the faces on
the other side are D - j sqrt(sigma) F, so the faces of the j-th vertex
along F, and of its neighbours, are linear in j, and their values and the
vertex weights are quadratic in j with leading coefficient a positive
multiple of Q(F).  One exact ``isqrt`` therefore gives where a run ends:
where the walker stops descending or turns away from F, where a face of the
other sign appears, or where the river leaves F.  The walks jump to that
point and take the turn itself one step at a time, so they return the
same pinwheels, in the same face order, as a walk of single steps.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .classical import is_square, red_blue_forms, reduce_definite
from .errors import (
    ClassificationError,
    DibasisError,
    PreconditionError,
    SquareDiscriminantError,
    brief,
)
from .lax import mat_mul

RED = "red"
BLUE = "blue"


class Divector(NamedTuple):
    """Coordinates (u, v) meaning (u, v*sqrt(sigma)) if red, else
    (u*sqrt(sigma), v)."""

    color: str
    u: int
    v: int

    def lax(self) -> "Divector":
        if self.u < 0 or (self.u == 0 and self.v < 0):
            return Divector(self.color, -self.u, -self.v)
        return self

    def __neg__(self) -> "Divector":
        return Divector(self.color, -self.u, -self.v)

    def sub(self, other: "Divector") -> "Divector":
        _same_color(self, other)
        return Divector(self.color, self.u - other.u, self.v - other.v)

    def add(self, other: "Divector") -> "Divector":
        _same_color(self, other)
        return Divector(self.color, self.u + other.u, self.v + other.v)

    def times_sqrt(self, sigma: int) -> "Divector":
        """Multiplication by sqrt(sigma) swaps the colour."""
        if self.color == RED:
            return Divector(BLUE, self.u, sigma * self.v)
        return Divector(RED, sigma * self.u, self.v)

    def is_primitive(self, sigma: int) -> bool:
        if self.color == RED:
            return math.gcd(self.u, sigma * self.v) == 1
        return math.gcd(sigma * self.u, self.v) == 1


def _shown(face) -> str:
    """A (color, u, v) face, a Divector or a plain tuple, for an error
    message, at any size."""
    color, u, v = face
    return f"{color} {brief((u, v))}"


def _same_color(d1: Divector, d2: Divector) -> None:
    if d1.color != d2.color:
        raise DibasisError(f"{_shown(d1)} and {_shown(d2)} differ in colour")


def dibasis_det(r: Divector, b: Divector, sigma: int) -> int:
    """Determinant of the dilinear matrix with rows r (red) and b (blue)."""
    if r.color != RED or b.color != BLUE:
        raise DibasisError(
            f"{_shown(r)}, {_shown(b)} are not a red and a blue divector")
    return r.u * b.v - sigma * r.v * b.u


def is_dibasis(d1: Divector, d2: Divector, sigma: int) -> bool:
    return _face_det(d1, d2, sigma) in (1, -1)


def _face_det(f: tuple, g: tuple, sigma: int) -> int:
    """Determinant of the dilinear matrix of two (color, u, v) faces, red row
    first; 0 when they share a colour."""
    (cf, uf, vf), (cg, ug, vg) = f, g
    if cf == cg:
        return 0
    if cf == RED:
        return uf * vg - sigma * vf * ug
    return ug * vf - sigma * vg * uf


def pinwheel_faces(d1: tuple, d2: tuple, sigma: int) -> tuple:
    """The faces, as signed (color, u, v) tuples, of the pinwheel generated
    by the ordered dibasis (d1, d2): x_{k+1} = sqrt(sigma) x_k - x_{k-1}."""
    if _face_det(d1, d2, sigma) not in (1, -1):
        raise DibasisError(f"{_shown(d1)}, {_shown(d2)} do not form a dibasis")
    faces = [d1, d2]
    for _ in range(2 * sigma - 1):
        (_, u0, v0), (c1, u1, v1) = faces[-2], faces[-1]
        if c1 == RED:
            faces.append((BLUE, u1 - u0, sigma * v1 - v0))
        else:
            faces.append((RED, sigma * u1 - u0, v1 - v0))
    color, u, v = faces.pop()
    if (color, -u, -v) != d1:
        raise DibasisError(f"pinwheel of {_shown(d1)}, {_shown(d2)} failed to close")
    for i in range(2 * sigma):
        if _face_det(faces[i - 1], faces[i], sigma) not in (1, -1):
            raise DibasisError(
                f"pinwheel of {_shown(d1)}, {_shown(d2)} has a non-dibasis edge")
    return tuple(faces)


def pinwheel_key(faces: tuple) -> tuple:
    """Canonical label of a pinwheel's faces: the lax faces up to rotation
    and reflection.  They are distinct, so the least sequence starts at the
    least face, read forward or backward."""
    laxed = [(c, -u, -v) if u < 0 or (u == 0 and v < 0) else (c, u, v)
             for c, u, v in faces]
    m = laxed.index(min(laxed))
    return min(tuple(laxed[m:] + laxed[:m]), tuple(laxed[m::-1] + laxed[:m:-1]))


class Pinwheel(NamedTuple):
    """Cyclically ordered faces around a point, colours alternating."""

    sigma: int
    faces: tuple  # 2*sigma signed divectors; adjacent pairs are dibases

    def key(self):
        """Canonical label: lax faces up to rotation and reflection."""
        return pinwheel_key(self.faces)

    def edges(self):
        n = len(self.faces)
        return [(self.faces[i], self.faces[(i + 1) % n]) for i in range(n)]


def pinwheel_complete(d1: Divector, d2: Divector, sigma: int) -> Pinwheel:
    """The pinwheel generated by the ordered dibasis (d1, d2)."""
    return Pinwheel(sigma, tuple(map(Divector._make, pinwheel_faces(d1, d2, sigma))))


class BQD(NamedTuple):
    """Binary quadratic diform Q(x, y) = a x^2 + b sqrt(sigma) x y + c y^2."""

    sigma: int
    a: int
    b: int
    c: int

    def discriminant(self) -> int:
        s, a, b, c = self
        return s * (b * b * s - 4 * a * c)

    def __call__(self, d: Divector) -> int:
        s, a, b, c = self
        color, u, v = d
        if color == RED:
            return a * u * u + b * s * u * v + c * s * v * v
        return a * s * u * u + b * s * u * v + c * v * v

    def is_primitive(self) -> bool:
        return math.gcd(self.a, self.b, self.c) == 1


class DiCellValues(NamedTuple):
    u: int
    v: int
    e: int
    f: int
    e2: int
    f2: int
    m: int | None
    n: int | None
    m2: int | None
    n2: int | None
    step: int


def dicell_values(q: BQD, r: Divector, b: Divector) -> DiCellValues:
    """Flanking values of the edge {r, b}; e/e' (and m/m' for sigma = 3) sit
    around the pinwheel generated by (r, b), f/f' (n/n') around the other."""
    sigma = q.sigma
    if r.color != RED:
        r, b = b, r
    if not is_dibasis(r, b, sigma):
        raise DibasisError("cell values need a dibasis")
    sr = r.times_sqrt(sigma)
    sb = b.times_sqrt(sigma)
    u, v = q(r), q(b)
    e, f = q(sr.sub(b)), q(sr.add(b))
    e2, f2 = q(r.sub(sb)), q(r.add(sb))
    m = n = m2 = n2 = None
    if sigma == 3:
        r2 = Divector(RED, 2 * r.u, 2 * r.v)
        b2 = Divector(BLUE, 2 * b.u, 2 * b.v)
        m, n = q(r2.sub(sb)), q(r2.add(sb))
        m2, n2 = q(sr.sub(b2)), q(sr.add(b2))
    step = (f - e) // 2
    return DiCellValues(u, v, e, f, e2, f2, m, n, m2, n2, step)


STANDARD_DIBASIS = (Divector(RED, 1, 0), Divector(BLUE, 0, 1))


def _other_vertex(p: Divector, s: Divector, vertex: Pinwheel, sigma: int) -> Pinwheel:
    """The second pinwheel containing the edge {p, s} of ``vertex``.

    In the signed cycle of ``vertex`` (its faces, then their negatives) the
    recurrence runs from p through a neighbour; the pinwheel across the edge
    runs the other way, so it is generated by (p, -s) when s is a neighbour
    of p there, and by (p, s) when -s is.
    """
    cycle = vertex.faces + tuple(-f for f in vertex.faces)
    try:
        i = cycle.index(p)
    except ValueError:
        first, second = vertex.faces[:2]
        raise DibasisError(f"{_shown(p)} is not a face of the pinwheel of "
                           f"{_shown(first)}, {_shown(second)}") from None
    if s in (cycle[i - 1], cycle[(i + 1) % len(cycle)]):
        return pinwheel_complete(p, -s, sigma)
    return pinwheel_complete(p, s, sigma)


def _named(q: BQD) -> str:
    return f"the sigma = {q.sigma} diform {brief((q.a, q.b, q.c))}"


def _vertex_weight(q: BQD, vertex: Pinwheel) -> int:
    return sum(q(f) for f in vertex.faces)


def _along(d: Divector, f: Divector, j: int, sigma: int) -> Divector:
    """d - j sqrt(sigma) f: the face j steps along the face f from d."""
    g = f.times_sqrt(sigma)
    return Divector(d.color, d.u - j * g.u, d.v - j * g.v)


def _ceil_div(x: int, y: int) -> int:
    return -(-x // y)


def _first_nonpositive(y0: int, y1: int, y2: int) -> int | None:
    """The least j >= 0 at which the integer quadratic through (0, y0),
    (1, y1), (2, y2) is <= 0, or None if there is none."""
    # 2 y(j) = a j^2 + b j + c, and 4 a y(j) = (2 a j + b)^2 - disc
    a, b, c = y2 - 2 * y1 + y0, 4 * y1 - 3 * y0 - y2, 2 * y0
    if c <= 0:
        return 0
    if a == 0:
        return None if b >= 0 else _ceil_div(c, -b)
    disc = b * b - 4 * a * c
    if a > 0:
        # y(j) <= 0 where |2 a j + b| <= isqrt(disc)
        if disc < 0:
            return None
        s = math.isqrt(disc)
        lo, hi = max(_ceil_div(-s - b, 2 * a), 0), (s - b) // (2 * a)
        return lo if lo <= hi else None
    # a < 0 and y(0) > 0: y(j) <= 0 once 2 a j + b <= -sqrt(disc)
    s = math.isqrt(disc)
    if s * s < disc:
        s += 1
    return _ceil_div(s + b, -2 * a)


def _first_root(a: int, b: int, c: int) -> int | None:
    """The least integer j >= 1 with a j^2 + b j + c == 0 (a != 0), or None."""
    disc = b * b - 4 * a * c
    if disc < 0 or math.isqrt(disc) ** 2 != disc:
        return None
    s = math.isqrt(disc)
    roots = sorted(x // (2 * a) for x in (-b - s, -b + s) if x % (2 * a) == 0)
    return next((j for j in roots if j >= 1), None)


def _best_step(q: BQD, vertex: Pinwheel, sign: int, weight: int, by_key: bool):
    """The walker's next step from ``vertex``: (edge index, pinwheel, weight)
    of the neighbour with the least sign * weight below ``weight``.  Ties go
    to the least key when ``by_key``, else to the first edge.  None at a
    local minimum."""
    best = None
    for i, (p, s) in enumerate(vertex.edges()):
        nb = _other_vertex(p, s, vertex, q.sigma)
        w = sign * _vertex_weight(q, nb)
        if w < weight and (best is None or w < best[2] or (
                by_key and w == best[2] and nb.key() < best[1].key())):
            best = (i, nb, w)
    return best


def _descent_run(q: BQD, vertex: Pinwheel, i: int, sign: int, mixed_stops: bool):
    """Where the walker, having chosen edge i of ``vertex``, must next decide
    for itself, if that step keeps a face; else None.

    Every pinwheel of the walk is generated by its first two faces, so the
    step keeps the first face when it crosses the last edge and the second
    when it crosses edge 1.  With F the face kept and D the other of the two,
    the walk along F visits u_j = pinwheel(F, D - j sqrt(sigma) F) up to
    orientation, and leaves u_j over its last edge.  The walker surely takes
    that edge while it is strictly lower than u_j and than every other
    neighbour of u_j, and, when ``mixed_stops``, while u_j has no face of
    the other sign: each margin is quadratic in j, so the first j where one
    fails is read off its values at j = 0, 1, 2.  The walker alternates F
    between the first and second place, which fixes the returned orientation.
    """
    sigma = q.sigma
    if i == 2 * sigma - 1:
        f, d, f_first = vertex.faces[0], vertex.faces[1], True
    elif i == 1:
        f, d, f_first = vertex.faces[1], vertex.faces[0], False
    else:
        return None
    margins = []
    for j in range(3):
        g = pinwheel_complete(f, _along(d, f, j, sigma), sigma)
        ahead = [sign * _vertex_weight(q, _other_vertex(a, b, g, sigma))
                 for a, b in g.edges()]
        nxt = ahead.pop()
        row = [sign * _vertex_weight(q, g) - nxt] + [w - nxt for w in ahead]
        if mixed_stops:
            row += [sign * q(x) for x in g.faces]
        margins.append(row)
    # the first margin is linear in j with negative slope, so it ends the run
    ends = (_first_nonpositive(*ys) for ys in zip(*margins))
    j = max(min(e for e in ends if e is not None), 1)
    d = _along(d, f, j, sigma)
    if (j % 2 == 0) == f_first:
        return pinwheel_complete(f, d, sigma)
    return pinwheel_complete(d, f, sigma)


def diform_well(q: BQD, start=None) -> dict:
    """Descend the climbing flow of a positive-definite diform to its source.

    Returns the source pinwheel (faces and values), the flat edges at the
    source, and the classically reduced pair for Q_red, Q_blue.
    """
    if not (q.a > 0 and q.discriminant() < 0):
        raise ClassificationError("well descent needs a positive-definite diform")
    sigma = q.sigma
    r, b = start or STANDARD_DIBASIS
    vertex = pinwheel_complete(r, b, sigma)
    weight = _vertex_weight(q, vertex)
    # the weight is a positive integer and falls at every pass
    limit = weight + 1
    for _ in range(limit):
        step = _best_step(q, vertex, 1, weight, True)
        if step is None:
            break
        vertex = _descent_run(q, vertex, step[0], 1, False) or step[1]
        weight = _vertex_weight(q, vertex)
    else:
        raise ClassificationError(
            f"well descent of {_named(q)} not finished after {brief(limit)} runs")
    flats = []
    for p, s in vertex.edges():
        nb = _other_vertex(p, s, vertex, sigma)
        if _vertex_weight(q, nb) == weight:
            flats.append(tuple(sorted([vertex.key(), nb.key()])))
    red, blue = red_blue_forms(*q)
    return {
        "source": vertex,
        "source_values": tuple(q(f) for f in vertex.faces),
        "flat_edges": tuple(sorted(set(flats))),
        "reduced_red": reduce_definite(red),
        "reduced_blue": reduce_definite(blue),
    }


def _find_river_edge(q: BQD):
    """A dibasis whose faces carry opposite signs, positive face first."""
    sigma = q.sigma
    vertex = pinwheel_complete(*STANDARD_DIBASIS, sigma)
    # while no face changes sign, the weight times that sign is a positive
    # integer and falls at every pass
    limit = sum(abs(q(f)) for f in vertex.faces) + 1
    for _ in range(limit):
        vals = [q(f) for f in vertex.faces]
        if 0 in vals:
            raise SquareDiscriminantError("diform represents zero")
        n = len(vals)
        for i in range(n):
            a, b = vals[i], vals[(i + 1) % n]
            if a > 0 > b:
                return vertex.faces[i], vertex.faces[(i + 1) % n], vertex
            if b > 0 > a:
                return vertex.faces[(i + 1) % n], vertex.faces[i], vertex
        sign = 1 if vals[0] > 0 else -1
        step = _best_step(q, vertex, sign, sign * sum(vals), False)
        if step is None:
            raise ClassificationError("no descent toward the river")
        vertex = _descent_run(q, vertex, step[0], sign, True) or step[1]
    raise ClassificationError(
        f"river search for {_named(q)} not finished after {brief(limit)} runs")


class DiRiverStep(NamedTuple):
    pos: Divector
    neg: Divector
    bend: bool


class DiRiverPeriod(NamedTuple):
    """One river period, stored as runs.

    ``steps`` holds the start edge and each edge the walk reached by a single
    step or at the end of a run; the edges passed over inside runs keep one
    face of the river and never bend.  ``edge_count`` counts the single
    river edges of the period and ``bend_count`` the bends among them.
    """

    steps: tuple
    edge_count: int
    bend_count: int
    automorph: tuple  # 2x2 matrix over Z[sqrt(sigma)], entries (x, y) pairs
    mu: int | None
    witness: Divector | None
    exceptional: bool
    form: BQD


def _edge_is_bend(q: BQD, p: Divector, s: Divector) -> bool:
    cv = dicell_values(q, p, s)
    if cv.e * cv.f < 0 or cv.e2 * cv.f2 < 0:
        return True
    if q.sigma == 3 and (cv.m * cv.n < 0 or cv.m2 * cv.n2 < 0):
        return True
    return False


def _raw_coords(d: Divector):
    """(x, y) with each component as (integer part, sqrt(sigma) part)."""
    if d.color == RED:
        return ((d.u, 0), (0, d.v))
    return ((0, d.u), (d.v, 0))


def _qre_mul(a, b, sigma):
    return (a[0] * b[0] + sigma * a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _qre_sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _qre_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _qre_det(t, sigma):
    return _qre_sub(_qre_mul(t[0][0], t[1][1], sigma),
                    _qre_mul(t[0][1], t[1][0], sigma))


def _mat_mul(m, n, sigma):
    """The product of 2x2 matrices over Z[sqrt(sigma)], entries (x, y) pairs."""
    return tuple(
        tuple(_qre_add(_qre_mul(m[i][0], n[0][j], sigma),
                       _qre_mul(m[i][1], n[1][j], sigma)) for j in range(2))
        for i in range(2))


def _columns(p: Divector, q: Divector):
    """The matrix with columns p and q."""
    return tuple(zip(_raw_coords(p), _raw_coords(q)))


def _change_of_dibasis(e0, e1, sigma):
    """T over Z[sqrt(sigma)] with T e0 = e1 (columnwise), when det e0 = +-1."""
    (a, b), (c, d) = m0 = _columns(*e0)
    det = _qre_det(m0, sigma)
    if det not in ((1, 0), (-1, 0)):
        return None
    s = det[0]

    def scl(v, k):
        return (k * v[0], k * v[1])

    # the inverse of m0 is its adjugate over det = s
    inv = ((scl(d, s), scl(b, -s)), (scl(c, -s), scl(a, s)))
    return _mat_mul(_columns(*e1), inv, sigma)


def _preserves_form(t, q: BQD) -> bool:
    """Exact Gram check: T^t G T == G with G = [[2a, b*sqrt(s)], [b*sqrt(s), 2c]]."""
    g = (((2 * q.a, 0), (0, q.b)), ((0, q.b), (2 * q.c, 0)))
    t_transposed = ((t[0][0], t[1][0]), (t[0][1], t[1][1]))
    return _mat_mul(_mat_mul(t_transposed, g, q.sigma), t, q.sigma) == g


def is_dilinear(t, sigma: int) -> bool:
    """Does the matrix (entries as (x, y) pairs) have a dilinear pattern?"""
    (a, b), (c, d) = t
    plus = a[1] == 0 and d[1] == 0 and b[0] == 0 and c[0] == 0
    minus = a[0] == 0 and d[0] == 0 and b[1] == 0 and c[1] == 0
    return plus or minus


def _river_run(q: BQD, vertex: Pinwheel, i: int, p: Divector, neg: Divector,
               start: tuple):
    """Where the river walk at the edge (p, neg) of ``vertex``, leaving over
    edge i, must next record an edge, if it leaves along p or neg: the
    number of edges passed over, and the walker's (p, neg, vertex) there.
    Else None.

    Every vertex after the first is pinwheel(p, +-neg).  Leaving over its
    last edge keeps p and reaches (p, s_j) with s_j = s - j sqrt(sigma) p,
    s its second face; leaving over edge 1 keeps s and reaches
    ((-1)^j (p - j sqrt(sigma) s), (-1)^(j+1) s).  While the faces D_j beside
    the kept face F have the other sign, every other face of the vertices
    between has that sign too and a larger |Q| than the D_j there, so those
    edges do not bend and those vertices hold no smallest face: |Q(D_j)| is
    strictly concave in j.  The run is cut before the first D_j of F's sign,
    or at an edge with the values of the start edge, which may close the
    period.  The vertex before the returned edge is passed over, so the
    caller notes the edge's faces.
    """
    sigma = q.sigma
    a, b = vertex.faces[0], vertex.faces[1]
    if a != p or b.lax() != neg.lax() or i not in (1, 2 * sigma - 1):
        return None
    f, d = (a, b) if i == 2 * sigma - 1 else (b, a)
    qf = q(f)
    sf = 1 if qf > 0 else -1
    ys = [q(_along(d, f, j, sigma)) for j in range(3)]
    j = _first_nonpositive(*(-sf * y for y in ys)) - 1
    p0, n0 = start
    if qf == q(p0 if sf > 0 else n0):
        # Q(D_j) = sigma Q(F) j^2 + lin j + Q(D_0)
        lin = ys[1] - ys[0] - sigma * qf
        target = q(n0 if sf > 0 else p0)
        root = _first_root(sigma * qf, lin, ys[0] - target)
        if root is not None and root < j:
            j = root
    d = _along(d, f, j, sigma)
    if i == 2 * sigma - 1:
        return j - 1, p, d, pinwheel_complete(p, d, sigma)
    if j % 2:
        d, b = -d, -b
    return j - 1, d, -b, pinwheel_complete(d, b, sigma)


def diform_river(q: BQD) -> DiRiverPeriod:
    """Trace one river period, a run at a time; classify bends and report
    the minimum.

    A fully straight period marks the exceptional forms excluded by the
    minimum theorems.
    """
    if not q.is_primitive():
        raise PreconditionError("river analysis expects a primitive diform")
    d = q.discriminant()
    if d <= 0 or is_square_diform_disc(q):
        raise SquareDiscriminantError("need a nondegenerate indefinite diform")
    sigma = q.sigma
    p, neg, vertex = _find_river_edge(q)
    p0, n0 = p, neg
    steps = []
    edges = bends = 0
    face_values = {}

    def note(face):
        face_values.setdefault(face.lax(), q(face))

    # Read as a dibasis of determinant 1, each river edge gives Q the
    # coefficients (a', b', c') with a'c' < 0 and d = sigma^2 b'^2 + 4 sigma
    # |a'c'|.  Edges of one period give distinct ones, since equal ones differ
    # by an automorph of determinant 1, a whole number of periods.  So a
    # period has at most 4 #{x y <= m} <= 4 m (1 + ln m) edges, m = d / 4 sigma.
    m = d // (4 * sigma)
    limit = 4 * m * (m.bit_length() + 1) + 1
    for _ in range(limit):
        bend = _edge_is_bend(q, p, neg)
        steps.append(DiRiverStep(p, neg, bend))
        edges += 1
        bends += bend
        for f in vertex.faces:
            note(f)
        # continuation: the unique other sign-separating adjacent pair
        vals = [q(f) for f in vertex.faces]
        n = len(vals)
        here = {p.lax(), neg.lax()}
        crossings = []
        for i in range(n):
            x, y = vertex.faces[i], vertex.faces[(i + 1) % n]
            if {x.lax(), y.lax()} == here:
                continue
            if vals[i] * vals[(i + 1) % n] < 0:
                crossings.append(i)
        if len(crossings) != 1:
            raise ClassificationError(
                f"river is not a single line at a vertex ({len(crossings)} exits)"
            )
        i = crossings[0]
        run = _river_run(q, vertex, i, p, neg, (p0, n0))
        if run is None:
            x, y = vertex.faces[i], vertex.faces[(i + 1) % n]
            p, neg = (x, y) if q(x) > 0 else (y, x)
            vertex = _other_vertex(p, neg, vertex, sigma)
        else:
            skipped, p, neg, vertex = run
            edges += skipped
            # the vertex before this edge, passed over, also holds its faces
            note(p)
            note(neg)
        if (q(p), q(neg)) == (q(p0), q(n0)) and (p, neg) != (p0, n0):
            t = _translation_automorph((p0, n0), (p, neg), q)
            if t is not None:
                exceptional = bends == 0
                mu = wit = None
                if not exceptional:
                    wit = min(face_values, key=lambda k: (abs(face_values[k]), k))
                    mu = abs(face_values[wit])
                return DiRiverPeriod(tuple(steps), edges, bends, t, mu, wit,
                                     exceptional, q)
    raise ClassificationError(
        f"river period of {_named(q)} not closed after {brief(limit)} runs "
        f"({edges} edges)")


def _translation_automorph(e0, e1, q: BQD):
    """An orientation-preserving dilinear map carrying the lax edge e0 to e1
    and fixing Q, or None.  Sign flips of e0 reach the same lax edge; maps of
    determinant -1 are reflections of the river, not translations."""
    sigma = q.sigma
    p0, n0 = e0
    for flip in (n0, -n0):
        t = _change_of_dibasis((p0, flip), e1, sigma)
        if (
            t is not None
            and _qre_det(t, sigma) == (1, 0)
            and is_dilinear(t, sigma)
            and _preserves_form(t, q)
        ):
            return t
    return None


def is_square_diform_disc(q: BQD) -> bool:
    return is_square(q.discriminant())


# --- dilinear / congruence conjugation checks ------------------------------

def _dl_plus_samples(sigma: int, count: int, seed: int = 7):
    """Random-ish DL2+ elements built from generators of the + pattern."""
    import random

    rng = random.Random(seed)

    # matrices as ((x, y) pairs); the + pattern has integer diagonal and
    # sqrt(sigma)-multiple off-diagonal entries
    def m(a, b, c, d):
        return ((a, b), (c, d))

    t_up = m((1, 0), (0, 1), (0, 0), (1, 0))
    t_lo = m((1, 0), (0, 0), (0, 1), (1, 0))
    flip = m((-1, 0), (0, 0), (0, 0), (1, 0))
    gens = [t_up, t_lo, flip]
    out = []
    for _ in range(count):
        acc = m((1, 0), (0, 0), (0, 0), (1, 0))
        for _ in range(rng.randint(1, 8)):
            acc = _mat_mul(acc, rng.choice(gens), sigma)
        out.append(acc)
    return out


def verify_gamma0_conjugation(sigma: int, count: int = 100) -> dict:
    """Conjugation by diag(1, sqrt(sigma)) carries DL2+ into Gamma_0(sigma)
    and back; verified on generated samples in both directions."""
    import random

    samples = _dl_plus_samples(sigma, count)
    into = 0
    for mat in samples:
        (a, b), (c, d) = mat
        if not (a[1] == 0 and d[1] == 0 and b[0] == 0 and c[0] == 0):
            raise PreconditionError(f"sample {mat} is not in DL2+")
        # g M g^-1 = [[a, b/sqrt(s)], [c*sqrt(s), d]]
        a2, b2, c2, d2 = a[0], b[1], c[1] * sigma, d[0]
        if a2 * d2 - b2 * c2 in (1, -1) and c2 % sigma == 0:
            into += 1
    rng = random.Random(11)
    gens = (((1, 1), (0, 1)), ((1, 0), (sigma, 1)), ((-1, 0), (0, 1)))
    back = 0
    for _ in range(count):
        acc = ((1, 0), (0, 1))
        for _ in range(rng.randint(1, 8)):
            acc = mat_mul(acc, rng.choice(gens))
        (a2, b2), (c2, d2) = acc
        # g^-1 M g = [[a, b*sqrt(s)], [c/sqrt(s), d]]
        if c2 % sigma == 0:
            back += 1
    return {
        "sigma": sigma,
        "dl_plus_into_gamma0": into,
        "dl_plus_samples": len(samples),
        "gamma0_back_into_dl_plus": back,
        "gamma0_samples": count,
        "ok": into == len(samples) and back == count,
    }
