"""Topograph-driven reduction: wells for definite forms, rivers for
indefinite ones, Pell solutions and minima bounds.

The routines here navigate superbases directly and never call the classical
reduction route; the two are compared in tests.

Every walk moves a whole run at a time.  Along a path that keeps one face F
fixed, the arithmetic progression rule e + f = 2(u + v) makes the values of
the faces on the other side a quadratic sequence in the step number, with
second difference 2 Q(F).  So the length of each monotone run is one exact
floor division or ``isqrt``: well descent and the river search cost
O(log |coefficients|) runs, and a river period costs one run per partial
quotient of its continued fraction, not their sum.  The walks carry face
values by the same rule, so Q is evaluated only on the start superbase and
in the automorph certificate: never once per run.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .bqf import BQF, INDEFINITE, POSITIVE_DEFINITE, classify
from .classical import is_square
from .errors import (
    ClassificationError,
    IntegralityError,
    SquareDiscriminantError,
    brief,
)
from .lax import (
    STANDARD_SUPERBASE,
    Superbase,
    Vec,
    change_of_basis,
    det,
    lax,
    mat_apply,
    vadd,
    vneg,
    vsub,
)

TRIAD_WELL = "triad-well"
CELL_WELL = "cell-well"


class Well(NamedTuple):
    kind: str
    values: tuple[int, int, int]  # sorted u <= v <= w
    vectors: tuple[Vec, Vec, Vec]  # signed, matching values, summing to zero
    orientation: str  # positive / negative / ambiguous


class MinimumReport(NamedTuple):
    mu: int
    witness: Vec
    disc: int


class RiverPeriod(NamedTuple):
    """One river period, stored as runs.

    ``edges`` holds the start edge, every riverbend after it and the closing
    translate, as signed (pos_vec, neg_vec) pairs, Q-positive first.  Between
    two consecutive entries one side of the river stays fixed and the other
    advances by multiples of it.  ``cells`` holds the local form
    (u, b, v) = (Q(p), Q(p + n) - u - v, Q(n)) of each entry (p, n) of
    ``edges``.  ``steps`` counts the single river edges in the period.
    """

    edges: tuple
    cells: tuple
    steps: int
    automorph: tuple  # 2x2 integer matrix translating the river one period
    form: BQF


def _step(vs: list, j: int) -> list:
    """Cross the edge opposite vs[j]: {p, r} stays, vs[j] becomes p - r and p
    flips sign, which keeps the zero-sum convention."""
    p, r = vs[(j + 1) % 3], vs[(j + 2) % 3]
    out = list(vs)
    out[j], out[(j + 1) % 3] = vsub(p, r), vneg(p)
    return out


def _run(vs: list, j: int, fixed: int, k: int) -> list:
    """k steps around the face at position ``fixed``, the first replacing
    vs[j].  Two steps bring the fixed face back to its position with its sign
    flipped and move the other face 2F along, so k steps are closed form."""
    p, r = vs[(j + 1) % 3], vs[(j + 2) % 3]
    m, odd = divmod(k, 2)
    s = -1 if m % 2 else 1
    if fixed == (j + 2) % 3:
        p = (s * (p[0] - 2 * m * r[0]), s * (p[1] - 2 * m * r[1]))
        r = (s * r[0], s * r[1])
    else:
        r = (s * (r[0] - 2 * m * p[0]), s * (r[1] - 2 * m * p[1]))
        p = (s * p[0], s * p[1])
    out = [None, None, None]
    out[j], out[(j + 1) % 3], out[(j + 2) % 3] = vneg(vadd(p, r)), p, r
    return _step(out, j) if odd else out


def _drop(h: list):
    """Position of the face to replace: the first largest value, if it
    exceeds the sum of the other two."""
    j = max(range(3), key=h.__getitem__)
    return j if 2 * h[j] > sum(h) else None


def _named(q: BQF) -> str:
    return f"the form {brief(tuple(q))}"


def _mixed(vals: list) -> bool:
    return min(vals) < 0 < max(vals)


def _descend(q: BQF, start: Superbase):
    """Follow strictly decreasing |Q| from ``start`` until a well (no face
    exceeds the sum of the other two) or until a face of the other sign
    appears.  Returns the final signed vector triple and its values.

    Each pass takes one step, then jumps the rest of the run around the face
    that the next step keeps.  That face is less than half the one the
    previous run kept, so the passes are bounded by the bit length of the
    largest starting value.
    """
    vs = list(start)
    vals = [q(v) for v in vs]
    sign = 1 if vals[0] > 0 else -1
    disc = q.discriminant()
    root = math.isqrt(disc) if disc > 0 else None
    limit = max(abs(x) for x in vals).bit_length() + 2
    for _ in range(limit):
        if _mixed(vals):
            return vs, vals
        j = _drop([sign * x for x in vals])
        if j is None:
            return vs, vals
        vs = _step(vs, j)
        # the arithmetic progression rule across the crossed edge
        vals[j] = 2 * (vals[(j + 1) % 3] + vals[(j + 2) % 3]) - vals[j]
        h = [sign * x for x in vals]
        if _mixed(vals) or (j2 := _drop(h)) is None:
            return vs, vals
        fixed = 3 - j - j2
        phi, a, b = h[fixed], h[j2], h[j]
        # the moving faces from vs[j2] on have values H(x) = phi x^2 +
        # (b - a - phi) x + a; the run lasts while H(x-1) > phi + H(x)
        k = -((b - a + phi) // (2 * phi))
        if root is not None:
            # stop at the first face of the other sign: H's smaller root,
            # irrational because the discriminant of H is Q's
            x = (phi + a - b - root - 1) // (2 * phi) + 1
            if x >= 2 and phi * x * x + (b - a - phi) * x + a < 0:
                k = min(k, x - 1)
        vs = _run(vs, j2, fixed, k)
        # the moving faces now hold H(k) and H(k + 1); the steps of the run
        # replace vs[j2], vs[j], vs[j2], ... in turn
        hk = phi * k * k + (b - a - phi) * k + a
        new, old = (j2, j) if k % 2 else (j, j2)
        vals[new], vals[old] = sign * (hk + 2 * phi * k + b - a), sign * hk
    raise ClassificationError(
        f"descent of {_named(q)} not finished after {limit} runs")


def find_well(q: BQF) -> Well:
    if classify(q) != POSITIVE_DEFINITE:
        raise ClassificationError("well search needs a positive-definite form")
    vs, vals = _descend(q, STANDARD_SUPERBASE)
    order = sorted(range(3), key=lambda i: (vals[i], lax(vs[i])))
    u, v, w = (vals[i] for i in order)
    vecs = tuple(vs[i] for i in order)
    kind = CELL_WELL if u + v == w else TRIAD_WELL
    if u == v:
        orientation = "ambiguous"
    else:
        orientation = "positive" if det(vecs[0], vecs[1]) > 0 else "negative"
    return Well(kind, (u, v, w), vecs, orientation)


def _well_form(well: Well) -> BQF:
    u, v, w = well.values
    b = -det(well.vectors[0], well.vectors[1]) * (u + v - w)
    if b < 0 and (u == v or -b == u):
        b = -b
    return BQF(u, b, v)


def gauss_reduced(q: BQF) -> BQF:
    """Gauss-reduced form read off the well.

    In the basis (x_u, x_v) of the well the middle coefficient is
    w - u - v; flipping the second basis vector restores det +1 when needed,
    so b = -det(x_u, x_v) * (u + v - w) lands in the SL2 class of q.
    """
    return _well_form(find_well(q))


def _require_indefinite(q: BQF) -> None:
    if classify(q) != INDEFINITE:
        raise SquareDiscriminantError(
            "river operations need an indefinite nondegenerate form"
        )


def _river_cell(q: BQF):
    """``find_river_edge``'s (p, n) and the local form (u, b, v) of that
    edge, read off the descent's values: p + n is minus the third face."""
    _require_indefinite(q)
    vs, vals = _descend(q, STANDARD_SUPERBASE)
    if not _mixed(vals):
        raise ClassificationError(f"no river edge found for {_named(q)}")
    i = next(i for i in range(3) if vals[i] > 0)
    j = next(j for j in range(3) if vals[j] < 0)
    return vs[i], vs[j], (vals[i], vals[3 - i - j] - vals[i] - vals[j], vals[j])


def find_river_edge(q: BQF) -> tuple[Vec, Vec]:
    """A lax basis whose faces carry opposite signs; Q-positive vector first."""
    return _river_cell(q)[:2]


def trace_river(q: BQF) -> RiverPeriod:
    """Walk the river one full period, a run at a time; the period is
    certified by an exact Q-preserving change of basis (the automorph).

    The walk is the same at every translate, so the first bend that is a
    translate of the first bend reached (or of the start, if that is a bend)
    gives the automorph, and the closing edge is the automorph's image of
    the start.  The bends of one period read off distinct reduced forms
    (a, b, c), with 0 < b and 0 < |a| below sqrt(disc), which bounds the
    runs.
    """
    p0, n0, (u, b, v) = _river_cell(q)
    root = math.isqrt(q.discriminant())
    limit = 2 * root * root + 2
    edges, cells = [(p0, n0)], [(u, b, v)]
    # the river turns at an edge whose end faces p - n and p + n, of values
    # u + v - b and u + v + b, carry opposite signs: where |b| > |u + v|
    ref = (cells[0], (p0, n0)) if abs(b) > abs(u + v) else None
    ref_steps = steps = 0
    p, n = p0, n0
    for _ in range(limit):
        # While the face p + n is positive p advances by n, else n advances
        # by p; the run ends where Q(p + j n) or Q(n + j p) changes sign, at
        # the floor of a root of a quadratic with discriminant Q's.
        if u + b + v > 0:
            k = (b + root) // (-2 * v)
            p = (p[0] + k * n[0], p[1] + k * n[1])
            u, b = u + k * (b + k * v), b + 2 * k * v
        else:
            k = (root - b) // (2 * u)
            n = (n[0] + k * p[0], n[1] + k * p[1])
            v, b = v + k * (b + k * u), b + 2 * k * u
        steps += k
        cell = (u, b, v)
        if ref is None:
            ref, ref_steps = (cell, (p, n)), steps
        elif cell == ref[0]:
            t = change_of_basis(*ref[1], p, n)
            if t is not None and q.transform(t) == q:
                edges.append((mat_apply(t, p0), mat_apply(t, n0)))
                cells.append(cells[0])
                return RiverPeriod(tuple(edges), tuple(cells), steps - ref_steps, t, q)
        edges.append((p, n))
        cells.append(cell)
    raise ClassificationError(
        f"river period of {_named(q)} not closed after {brief(limit)} runs")


def _period_faces(period: RiverPeriod):
    """The faces at the run ends of the period, as {lax vector: Q}.

    Inside a run |Q| of the moving faces is strictly concave in the step
    number, so it is smallest only at the run's ends.  These faces therefore
    include every face of the period that attains its least |Q|, and every
    face with |Q| = 1.
    """
    faces = {}
    for (p, n), (u, _, v) in zip(period.edges, period.cells):
        faces.setdefault(lax(p), u)
        faces.setdefault(lax(n), v)
    return faces


def _bends(period: RiverPeriod) -> list[BQF]:
    out = []
    for (p, n), (u, b, v) in zip(period.edges[:-1], period.cells):
        if abs(b) > abs(u + v):  # a bend, as in trace_river
            b *= det(p, n)
            # the two det +1 readings of the cell; exactly one has b > 0
            for cand in (BQF(u, b, v), BQF(v, -b, u)):
                if cand.b > 0:
                    out.append(cand)
    return out


def riverbends(q: BQF) -> list[BQF]:
    """Reduced forms read off the riverbend cells of one period.

    Each bend cell is reported in both orientations; the multiset matches the
    classical reduced cycle.
    """
    return _bends(trace_river(q))


def _minimum(period: RiverPeriod) -> MinimumReport:
    faces = _period_faces(period)
    mu_vec = min(faces, key=lambda v: (abs(faces[v]), v))
    return MinimumReport(abs(faces[mu_vec]), mu_vec, period.form.discriminant())


def minimum_nonzero(q: BQF) -> MinimumReport:
    """Minimum |Q| over the faces adjacent to one river period; by the
    climbing principle this is the global nonzero minimum."""
    return _minimum(trace_river(q))


class PellSolution(NamedTuple):
    d: int
    x: int
    y: int
    automorph: tuple


def pell_solve(d: int) -> PellSolution:
    """Fundamental solution of x^2 - D y^2 = 1 from the river of x^2 - D y^2."""
    if d < 2 or is_square(d):
        raise SquareDiscriminantError("need a nonsquare D >= 2")
    period = trace_river(BQF(1, 0, -d))
    (tx, _), (ty, _) = period.automorph
    # the automorph preserves Q, so Q(tx, ty) = Q(1, 0) = 1
    ones = [v for v, val in _period_faces(period).items() if val == 1] + [(tx, ty)]
    x, y = min((abs(x), abs(y)) for x, y in ones if y != 0)
    if x * x - d * y * y != 1:
        raise IntegralityError(
            f"(x, y, D) = {brief((x, y, d))} does not solve x^2 - D y^2 = 1")
    return PellSolution(d, x, y, period.automorph)
