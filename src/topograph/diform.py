"""The dilinear world over Z[sqrt(sigma)], sigma in {2, 3}.

Faces of the (2*sigma, inf) topograph are red divectors (u, v*sqrt(sigma))
and blue divectors (u*sqrt(sigma), v); edges are dibases (opposite-colour
pairs forming a dilinear matrix of determinant +-1); points are pinwheels of
2*sigma faces generated by x_{k+1} = sqrt(sigma) * x_k - x_{k-1}.

A binary quadratic diform a x^2 + b sqrt(sigma) x y + c y^2 takes integer
values on divectors; its rivers and wells are navigated here.

The walks carry values, not divectors.  A vertex is its generating dibasis
(F0, F1) with the local form (A, beta, C) of Q there, Q(x F0 + y F1) =
A x^2 + beta sqrt(sigma) x y + C y^2.  Turning to (F1, sqrt(sigma) F1 - F0)
maps it to (C, 2C - beta, A - sigma beta + sigma C), which gives every face
value, and crossing an edge to the next pinwheel negates beta.  Every walk
moves a whole run at a time: along a kept face F the faces on the other side
are D - j sqrt(sigma) F, with local form (A, beta - 2jA, C + sigma j (jA -
beta)), so the values, vertex weights and margins along F are quadratic in
j, and one exact ``isqrt`` gives where a run ends.  The walks jump there and
take the turn itself one step at a time, so they return the same pinwheels,
in the same face order, as a walk of single steps, and evaluate Q three
times, on the start dibasis, whatever their length.
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
    if r.color != RED:
        r, b = b, r
    u, beta, v = _local_form(q, r, b)
    (e, f), (e2, f2), *mn = _cell_pairs(u, beta, v, q.sigma)
    (m, n), (m2, n2) = mn or ((None, None), (None, None))
    return DiCellValues(u, v, e, f, e2, f2, m, n, m2, n2, (f - e) // 2)


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


def _neg(face: tuple) -> tuple:
    color, u, v = face
    return color, -u, -v


def _local_form(q: BQD, d0: tuple, d1: tuple) -> tuple:
    """(A, beta, C) with Q(x d0 + y d1) = A x^2 + beta sqrt(sigma) x y + C y^2
    for the dibasis (d0, d1): the third face of its pinwheel,
    sqrt(sigma) d1 - d0, has the value A - sigma beta + sigma C."""
    sigma = q.sigma
    a, c = q(d0), q(d1)
    return a, (a + sigma * c - q(pinwheel_faces(d0, d1, sigma)[2])) // sigma, c


def _cells(t: tuple, sigma: int) -> list:
    """The local forms at the dibases (f_i, f_i+1), i < 2 sigma, of the
    pinwheel with first local form t, by turning: cells[i][0] = Q(f_i)."""
    cells = [t]
    for _ in range(2 * sigma - 1):
        a, beta, c = cells[-1]
        cells.append((c, 2 * c - beta, a - sigma * (beta - c)))
    return cells


def _cross(d0: tuple, d1: tuple, cells: list, i: int, sigma: int):
    """The neighbour over edge i of the pinwheel of (d0, d1), as its dibasis
    (f_i, -f_i+1) and local form: crossing negates beta_i."""
    faces = pinwheel_faces(d0, d1, sigma)
    a, beta, c = cells[i]
    after = faces[0] if i == 2 * sigma - 1 else _neg(faces[i + 1])
    return faces[i], after, (a, -beta, c)


def _run(f: tuple, d: tuple, t: tuple, j: int, sigma: int):
    """j steps along the face f from the dibasis (f, d) of local form t: the
    face d - j sqrt(sigma) f, and the local form at (f, d - j sqrt(sigma) f)."""
    a, beta, c = t
    color, u, v = d
    _, fu, fv = f
    du, dv = (sigma * fu, fv) if color == RED else (fu, sigma * fv)
    return ((color, u - j * du, v - j * dv),
            (a, beta - 2 * j * a, c + sigma * j * (j * a - beta)))


def _cell_pairs(r: int, beta: int, b: int, sigma: int) -> list:
    """dicell_values' (e, f), (e', f') and, for sigma = 3, (m, n), (m', n') of
    an edge from its red value r, blue value b and local beta."""
    s = sigma * beta
    x, y = sigma * r + b, r + sigma * b
    pairs = [(x - s, x + s), (y - s, y + s)]
    if sigma == 3:
        x, y = 4 * r + 3 * b, 3 * r + 4 * b
        pairs += [(x - 2 * s, x + 2 * s), (y - 2 * s, y + 2 * s)]
    return pairs


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
    s = math.isqrt(max(disc, 0))
    if s * s != disc:
        return None
    roots = sorted(x // (2 * a) for x in (-b - s, -b + s) if x % (2 * a) == 0)
    return next((j for j in roots if j >= 1), None)


def _descend(d0: tuple, d1: tuple, cells: list, sign: int, river: bool,
             sigma: int):
    """The walker's next stop from the pinwheel of (d0, d1) with local forms
    ``cells``, as (d0, d1, cells), or None at a local minimum.  Crossing edge
    i moves the weight by 8 beta_i (sigma = 2) or 36 beta_i (sigma = 3), so
    the walker takes the edge of least sign * beta_i below 0; ties go to the
    first edge on the way to the river, else to the neighbour of least key."""
    def key(i):
        return pinwheel_key(pinwheel_faces(*_cross(d0, d1, cells, i, sigma)[:2], sigma))

    i = None
    for k, (_, beta, _) in enumerate(cells):
        w = sign * beta
        if w < 0 and (i is None or w < low or (
                not river and w == low and key(k) < key(i))):
            i, low = k, w
    if i is None:
        return None
    d0, d1, t = (_descent_run(d0, d1, cells[0], i, sign, river, sigma)
                 or _cross(d0, d1, cells, i, sigma))
    return d0, d1, _cells(t, sigma)


def _descent_run(d0: tuple, d1: tuple, t: tuple, i: int, sign: int,
                 mixed_stops: bool, sigma: int):
    """Where the walker, leaving the pinwheel of (d0, d1), of local form t,
    over edge i, must next decide for itself, as (d0, d1, t), if that step
    keeps a face: d0 over the last edge, d1 over edge 1.  Else None.
    With F the face kept and D the other, the walk along F visits
    u_j = pinwheel(F, D - j sqrt(sigma) F) up to orientation, and leaves u_j
    over its last edge while that is strictly lower than u_j and than every
    other neighbour of u_j, and, when ``mixed_stops``, while u_j has no face
    of the other sign.  Each margin is quadratic in j, so the first j where
    one fails is read off its values at j = 0, 1, 2.  The walker alternates
    F between the first and second place, which fixes the orientation.
    """
    if i not in (1, 2 * sigma - 1):
        return None
    f, d, t = (d0, d1, t) if i > 1 else (d1, d0, t[::-1])
    margins = []
    for j in range(3):
        cells = _cells(_run(f, d, t, j, sigma)[1], sigma)
        # beta_i - beta_last is the i-th neighbour's weight less the next
        # vertex's, up to the positive factor of the weight change
        nxt = cells[-1][1]
        row = [sign * (beta - nxt) for _, beta, _ in cells]
        row[-1] = -sign * nxt
        if mixed_stops:
            row += [sign * c[0] for c in cells]
        margins.append(row)
    # the last margin is linear in j with negative slope, so it ends the run
    ends = (_first_nonpositive(*ys) for ys in zip(*margins))
    j = max(min(e for e in ends if e is not None), 1)
    d, t = _run(f, d, t, j, sigma)
    if (j % 2 == 0) == (i > 1):
        return f, d, t
    return d, f, t[::-1]


def diform_well(q: BQD, start=None) -> dict:
    """Descend the climbing flow of a positive-definite diform to its source.

    Returns the source pinwheel (faces and values), the flat edges at the
    source, and the classically reduced pair for Q_red, Q_blue.
    """
    if not (q.a > 0 and q.discriminant() < 0):
        raise ClassificationError(
            f"well descent needs a positive-definite diform, not {_named(q)}")
    sigma = q.sigma
    d0, d1 = start or STANDARD_DIBASIS
    cells = _cells(_local_form(q, d0, d1), sigma)
    # the weight is a positive integer and falls at every pass
    limit = sum(c[0] for c in cells) + 1
    for _ in range(limit):
        step = _descend(d0, d1, cells, 1, False, sigma)
        if step is None:
            break
        d0, d1, cells = step
    else:
        raise ClassificationError(
            f"well descent of {_named(q)} not finished after {brief(limit)} runs")
    source = pinwheel_complete(d0, d1, sigma)
    # a neighbour of equal weight lies over an edge with beta = 0
    flats = {tuple(sorted([source.key(), _other_vertex(p, s, source, sigma).key()]))
             for (p, s), c in zip(source.edges(), cells) if c[1] == 0}
    red, blue = red_blue_forms(*q)
    return {
        "source": source,
        "source_values": tuple(c[0] for c in cells),
        "flat_edges": tuple(sorted(flats)),
        "reduced_red": reduce_definite(red),
        "reduced_blue": reduce_definite(blue),
    }


def _find_river_edge(q: BQD):
    """The first pinwheel of the walk with faces of both signs, as
    (i, d0, d1, cells): its dibasis (d0, d1), its local forms, and the first
    edge i whose faces i, i + 1 carry opposite signs."""
    sigma = q.sigma
    d0, d1 = STANDARD_DIBASIS
    cells = _cells(_local_form(q, d0, d1), sigma)
    # while no face changes sign, the weight times that sign is a positive
    # integer and falls at every pass
    limit = sum(abs(c[0]) for c in cells) + 1
    for _ in range(limit):
        if any(c[0] == 0 for c in cells):
            raise SquareDiscriminantError(f"{_named(q)} represents zero")
        for i, (a, _, c) in enumerate(cells):
            if a * c < 0:
                return i, d0, d1, cells
        step = _descend(d0, d1, cells, 1 if cells[0][0] > 0 else -1, True, sigma)
        if step is None:
            raise ClassificationError(f"no descent toward the river of {_named(q)}")
        d0, d1, cells = step
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


def _raw_coords(d: tuple):
    """(x, y) with each component as (integer part, sqrt(sigma) part)."""
    color, u, v = d
    if color == RED:
        return ((u, 0), (0, v))
    return ((0, u), (v, 0))


def _qre_mul(a, b, sigma):
    return (a[0] * b[0] + sigma * a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _qre_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _qre_det(t, sigma):
    x, y = _qre_mul(t[0][0], t[1][1], sigma), _qre_mul(t[0][1], t[1][0], sigma)
    return (x[0] - y[0], x[1] - y[1])


def _mat_mul(m, n, sigma):
    """The product of 2x2 matrices over Z[sqrt(sigma)], entries (x, y) pairs."""
    return tuple(
        tuple(_qre_add(_qre_mul(m[i][0], n[0][j], sigma),
                       _qre_mul(m[i][1], n[1][j], sigma)) for j in range(2))
        for i in range(2))


def _columns(p: tuple, q: tuple):
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


def _river_run(d0: tuple, d1: tuple, t: tuple, i: int, start: tuple, sigma: int):
    """Where the river walk at the edge (d0, +-d1) of the pinwheel of
    (d0, d1), d0 the positive face and t the local form, leaving over edge
    i, must next record an edge: the number of edges passed over, and the
    walker's positive and negative face and local form there.  None unless
    i is 1 or the last edge.  The last edge keeps d0 and reaches
    (d0, d1 - j sqrt(sigma) d0); edge 1 keeps d1 and reaches
    (-1)^j (d0 - j sqrt(sigma) d1, d1).  While the faces D_j beside the kept
    face F have the other sign, every other face of the vertices between has
    that sign too and a larger |Q| than the D_j there, so those edges do not
    bend and those vertices hold no smallest face: |Q(D_j)| is strictly
    concave in j.  The run is cut before the first D_j of F's sign, or at an
    edge with the values ``start`` of the start edge, which may close the
    period.
    """
    if i not in (1, 2 * sigma - 1):
        return None
    f, d, t = (d0, d1, t) if i > 1 else (d1, d0, t[::-1])
    a, beta, c = t
    sf = 1 if a > 0 else -1
    # Q(D_j) = sigma a j^2 - sigma beta j + c
    j = _first_nonpositive(*(-sf * (c + sigma * k * (k * a - beta))
                             for k in range(3))) - 1
    near, far = start if sf > 0 else start[::-1]
    if a == near:
        root = _first_root(sigma * a, -sigma * beta, c - far)
        if root is not None and root < j:
            j = root
    d, t = _run(f, d, t, j, sigma)
    if i > 1:
        return j - 1, f, d, t
    if j % 2:
        d, f = _neg(d), _neg(f)
    return j - 1, d, _neg(f), t[::-1]


def diform_river(q: BQD) -> DiRiverPeriod:
    """Trace one river period, a run at a time; classify bends and report
    the minimum.

    A fully straight period marks the exceptional forms excluded by the
    minimum theorems.
    """
    if not q.is_primitive():
        raise PreconditionError(
            f"river analysis expects a primitive diform, not {_named(q)}")
    d = q.discriminant()
    if d <= 0 or is_square_diform_disc(q):
        raise SquareDiscriminantError(
            f"need a nondegenerate indefinite diform, not {_named(q)}")
    sigma = q.sigma
    n = 2 * sigma
    here, d0, d1, cells = _find_river_edge(q)
    faces = pinwheel_faces(d0, d1, sigma)
    x, y = faces[here], faces[(here + 1) % n]
    p0, n0 = p, neg = (x, y) if cells[here][0] > 0 else (y, x)
    start = max(cells[here][::2]), min(cells[here][::2])
    steps = []
    edges = bends = 0
    # (|Q(f)|, f) for each face the walk passes, for mu and the witness
    seen = []

    # Read as a dibasis of determinant 1, each river edge gives Q the
    # coefficients (a', b', c') with a'c' < 0 and d = sigma^2 b'^2 + 4 sigma
    # |a'c'|.  Edges of one period give distinct ones, since equal ones differ
    # by an automorph of determinant 1, a whole number of periods.  So a
    # period has at most 4 #{x y <= m} <= 4 m (1 + ln m) edges, m = d / 4 sigma.
    m = d // (4 * sigma)
    limit = 4 * m * (m.bit_length() + 1) + 1
    for _ in range(limit):
        # the walker stands at the edge {p, neg} = {f_here, f_here+1}
        red = cells[here] if faces[here][0] == RED else cells[here][::-1]
        bend = any(e * f < 0 for e, f in _cell_pairs(*red, sigma))
        steps.append(DiRiverStep(Divector._make(p), Divector._make(neg), bend))
        edges += 1
        bends += bend
        seen += [(abs(c[0]), f) for f, c in zip(faces, cells)]
        # continuation: the unique other sign-separating adjacent pair
        crossings = [i for i, (a, _, c) in enumerate(cells) if i != here and a * c < 0]
        if len(crossings) != 1:
            raise ClassificationError(
                f"river is not a single line at a vertex of {_named(q)} "
                f"({len(crossings)} exits)")
        i = crossings[0]
        run = here == 0 and p == d0 and _river_run(d0, d1, cells[0], i, start, sigma)
        if run:
            skipped, p, neg, t = run
            edges += skipped
        else:
            x, y = faces[i], faces[(i + 1) % n]
            a, beta, c = cells[i]
            p, neg, t = (x, y, (a, -beta, c)) if a > 0 else (y, x, (c, -beta, a))
        # either way the next pinwheel is generated by (p, -neg), or by
        # (p, neg) when the walker left over the last edge
        d0, d1 = p, (neg if i == n - 1 else _neg(neg))
        cells, here = _cells(t, sigma), 0
        # the vertex before this edge, passed over by a run, holds its faces
        seen += [(abs(t[0]), p), (abs(t[2]), neg)]
        if (t[0], t[2]) == start and (p, neg) != (p0, n0):
            auto = _translation_automorph((p0, n0), (p, neg), q)
            if auto is not None:
                exceptional = bends == 0
                mu = wit = None
                if not exceptional:
                    mu = min(v for v, _ in seen)
                    wit = min(Divector._make(f).lax() for v, f in seen if v == mu)
                return DiRiverPeriod(tuple(steps), edges, bends, auto, mu, wit,
                                     exceptional, q)
        faces = pinwheel_faces(d0, d1, sigma)
    raise ClassificationError(
        f"river period of {_named(q)} not closed after {brief(limit)} runs "
        f"({edges} edges)")


def _translation_automorph(e0, e1, q: BQD):
    """An orientation-preserving dilinear map carrying the lax edge e0 to e1
    and fixing Q, or None.  Sign flips of e0 reach the same lax edge; maps of
    determinant -1 are reflections of the river, not translations."""
    sigma = q.sigma
    p0, n0 = e0
    for flip in (n0, _neg(n0)):
        t = _change_of_dibasis((p0, flip), e1, sigma)
        if (t is not None and _qre_det(t, sigma) == (1, 0)
                and is_dilinear(t, sigma) and _preserves_form(t, q)):
            return t
    return None


def is_square_diform_disc(q: BQD) -> bool:
    return is_square(q.discriminant())


# --- dilinear / congruence conjugation checks ------------------------------

def _dl_plus_samples(sigma: int, count: int, seed: int = 7):
    """Random-ish DL2+ elements built from generators of the + pattern."""
    import random

    rng = random.Random(seed)
    # rows of (x, y) entries: the + pattern has an integer diagonal and
    # sqrt(sigma)-multiple off-diagonal entries
    gens = [(((1, 0), (0, 1)), ((0, 0), (1, 0))),
            (((1, 0), (0, 0)), ((0, 1), (1, 0))),
            (((-1, 0), (0, 0)), ((0, 0), (1, 0)))]
    out = []
    for _ in range(count):
        acc = (((1, 0), (0, 0)), ((0, 0), (1, 0)))
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
        # g^-1 M g = [[a, b*sqrt(s)], [c/sqrt(s), d]]
        back += acc[1][0] % sigma == 0
    return {
        "sigma": sigma,
        "dl_plus_into_gamma0": into,
        "dl_plus_samples": len(samples),
        "gamma0_back_into_dl_plus": back,
        "gamma0_samples": count,
        "ok": into == len(samples) and back == count,
    }
