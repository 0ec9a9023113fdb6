"""Topograph-driven reduction: wells for definite forms, rivers for
indefinite ones, Pell solutions and minima bounds.

The routines here navigate the topograph directly and never call the
classical reduction route; the two are compared in tests.

Every walk carries one edge (p, n) and its local form
(u, b, v) = (Q(p), Q(p + n) - u - v, Q(n)), and moves a whole run at a time.
Along a path that keeps the face n fixed, the faces p + kn on the other side
have values u + k(b + kv), a quadratic sequence in the step number, so the
length of each monotone run is one exact floor division or ``isqrt``, and the
run itself is the one-step update p <- p + kn, u <- u + k(b + kv),
b <- b + 2kv (or its mirror, which keeps p).  Well descent and the river
search start from the edge ((1, 0), (0, 1)), whose local form is the
coefficients (a, b, c), and cost O(log |coefficients|) runs; a river period
costs one run per partial quotient of its continued fraction, not their sum.
So Q is evaluated only in the river's automorph certificate: never once per
run, and never in a well descent."""

from __future__ import annotations

import math
from typing import NamedTuple

from .bqf import BQF
from .classical import is_square, transform
from .errors import ClassificationError, IntegralityError, SquareDiscriminantError, brief
from .lax import Vec, det, lax, mat_apply, mat_mul
from .walk import CHUNK, charge

TRIAD_WELL = "triad-well"
# builds a NamedTuple record from a tuple without its Python-level __new__
_new = tuple.__new__
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
    """One river period as ``trace_river`` walks it, stored as runs.

    ``start`` is the start edge (p0, n0), a signed pair, Q-positive first.
    ``cells`` holds the local form (u, b, v) = (Q(p), Q(p + n) - u - v, Q(n))
    of the start edge and of the edge at every run end before the closing
    translate.  ``steps`` counts the single river edges in the period.
    ``ties`` holds (Q(f), f) for the run-end faces f of least |Q|, the
    closing translate's included.
    """

    start: tuple
    cells: tuple
    steps: int
    automorph: tuple  # 2x2 integer matrix translating the river one period
    ties: tuple
    form: BQF

    def bends(self) -> list[BQF]:
        # every run ends at a bend (see trace_river), so only the start cell
        # is tested.  A run keeps det(p, n), and so does the automorph, so
        # every edge has the start edge's, s; of a bend's two det +1 readings
        # (u, sb, v) and (v, -sb, u), the one with a positive middle term
        s, cells = det(*self.start), self.cells
        u, b, v = cells[0]
        return [_new(BQF, (u, s * b, v) if s * b > 0 else (v, -s * b, u))
                for u, b, v in cells[0 if abs(b) > abs(u + v) else 1:]]

    def minimum(self) -> MinimumReport:
        # a cell is Q in a basis of det +-1, so it has Q's discriminant
        u, b, v = self.cells[0]
        return _new(MinimumReport, (abs(self.ties[0][0]), min([lax(f) for _, f in self.ties]),
                                    b * b - 4 * u * v))

    def iter_edges(self):
        """The edge (p, n) of each cell, then the closing translate, rebuilt
        one at a time and kept nowhere.  A run is p <- p + kn where
        Q(p + n) > 0, else n <- n + kp, and moves b by 2kv or 2ku, so each
        run's side and k follow from two consecutive cells."""
        (p, n), cells = self.start, self.cells
        yield p, n
        for (u, b, v), (_, b1, _) in zip(cells, cells[1:]):
            if u + b + v > 0:
                k = (b1 - b) // (2 * v)
                p = (p[0] + k * n[0], p[1] + k * n[1])
            else:
                k = (b1 - b) // (2 * u)
                n = (n[0] + k * p[0], n[1] + k * p[1])
            yield p, n
        t, (p0, n0) = self.automorph, self.start
        yield mat_apply(t, p0), mat_apply(t, n0)


def _named(q: BQF) -> str:
    return f"the form {brief(tuple(q))}"


def _descend(q: BQF, root: int | None):
    """Follow strictly decreasing |Q| from the standard superbase
    ((0, 1), (1, 0), (-1, -1)) until a well (no face exceeds the sum of the
    other two) of a positive-definite form or, when ``root`` = isqrt(disc) is
    given, until a face of the other sign appears.  Returns the final signed
    faces and their values, each at the position the single-step walk leaves
    it in.

    The walker holds one edge (p, n) of the superbase {p, n, -(p + n)} and
    its local form (u, b, v) = (Q(p), Q(p + n) - u - v, Q(n)), for the form
    of sign s that makes the start faces positive.  The third face exceeds
    the other two iff b > 0, and only at the start: crossing the edge
    negates b.  After that the face p exceeds iff b < -2v, and each step then
    drops p for p + n: a run of k steps is p <- p + kn, u <- u + k(b + kv),
    b <- b + 2kv, and leaves b in [-2v, 0).  The face n exceeds iff
    b < -2u; the walker then swaps the roles of p and n and runs the same
    way.  Runs around n and around p alternate, like the steps of Gauss
    reduction; their number may reach the bit length of the largest
    starting value plus two.

    Positions and signs follow the single-step walk, which drops the face at
    position j, puts the face at j + 1 minus the face at j + 2 there, and
    negates the face at j + 1.  In edge terms, the step that drops p for
    p + n swaps the positions of p and of the third face, and negates p and n
    iff p, n and the third face sit at positions j, j + 1, j + 2 (mod 3).
    The swap reverses that cyclic order, so a run of k steps swaps once if k
    is odd and negates (k + 1) // 2 times, or k // 2 times if the first step
    does not negate.  Negating both p and n keeps (u, b, v).
    """
    a, b, c = q
    if root is None and (a <= 0 or b * b - 4 * a * c >= 0):
        raise ClassificationError(f"well search needs a positive-definite form, not "
                                  f"{_named(q)} of discriminant {brief(b * b - 4 * a * c)}")
    # p = (1, 0) at position 1, n = (0, 1) at position 0, local form (a, b, c)
    p, n, ip, jn = (1, 0), (0, 1), 1, 0
    s = -1 if a < 0 else 1
    u, b, v = s * a, s * b, s * c
    limit = max(u, abs(v), abs(u + b + v)).bit_length() + 2
    if b > 0 and v > 0:
        # cross the edge (p, n): the face p - n takes position 2, and the
        # single step negates the face at position 0
        n, b = (0, -1), -b
    for _ in range(limit):
        if v < 0 or u + b + v < 0:  # faces of both signs
            break
        if b + 2 * v >= 0:
            if b + 2 * u >= 0:
                break
            # the face n exceeds the other two: the mirror run, around p
            p, n, u, v, ip, jn = n, p, v, u, jn, ip
        # a run around n: the faces p + xn have values u + x(b + xv)
        k = -((b + 2 * v) // (2 * v))
        if root is not None:
            # stop at the first face of the other sign, just past the smaller
            # root, which is irrational because this quadratic's
            # discriminant is Q's
            x = (-b - root - 1) // (2 * v) + 1
            if 2 <= x <= k and u + x * (b + x * v) < 0:
                k = x - 1
        x0, x1 = p[0] + k * n[0], p[1] + k * n[1]
        if (k + ((jn - ip) % 3 == 1)) % 4 < 2:
            p = (x0, x1)
        else:
            p, n = (-x0, -x1), (-n[0], -n[1])
        u, b = u + k * (b + k * v), b + 2 * k * v
        if k & 1:
            ip = 3 - ip - jn
    else:
        raise ClassificationError(
            f"descent of {_named(q)} not finished after {limit} runs")
    it = 3 - ip - jn
    vs, vals = [None] * 3, [None] * 3
    vs[ip], vs[jn], vs[it] = p, n, (-p[0] - n[0], -p[1] - n[1])
    vals[ip], vals[jn], vals[it] = s * u, s * v, s * (u + b + v)
    return vs, vals


def find_well(q: BQF) -> Well:
    vs, vals = _descend(q, None)
    (u, _, x), (v, _, y), (w, _, z) = sorted(zip(vals, map(lax, vs), vs))
    kind = CELL_WELL if u + v == w else TRIAD_WELL
    if u == v:
        orientation = "ambiguous"
    else:
        orientation = "positive" if det(x, y) > 0 else "negative"
    return Well(kind, (u, v, w), (x, y, z), orientation)


def _well_form(vals, vs) -> BQF:
    """The Gauss-reduced form of the well whose faces ``vs``, in any order,
    have values ``vals``.  Sorted as u <= v <= w on faces x, y, z, Q in the
    basis (x, y), flipped to det +1, has b = -det(x, y) * (u + v - w); a tie
    u = v or -b = u allows either sign of b, and reduced means b >= 0."""
    (u, v, w), (x, y, z) = vals, vs
    if w < v:
        v, w, y, z = w, v, z, y
    if v < u:
        u, v, x, y = v, u, y, x
        if w < v:
            v, w, y = w, v, z
    b = -det(x, y) * (u + v - w)
    if b < 0 and (u == v or -b == u):
        b = -b
    return _new(BQF, (u, b, v))


def gauss_reduced(q: BQF) -> BQF:
    """Gauss-reduced form read off the three faces the well descent ends at."""
    vs, vals = _descend(q, None)
    return _well_form(vals, vs)


def _river_cell(q: BQF):
    """``find_river_edge``'s (p, n), the local form (u, b, v) of that edge,
    read off the descent's values (p + n is minus the third face), and
    isqrt(disc)."""
    a, b, c = q
    disc = b * b - 4 * a * c
    root = math.isqrt(disc) if disc > 0 else 0
    if disc <= 0 or root * root == disc:
        raise SquareDiscriminantError("river operations need an indefinite nondegenerate "
                                      f"form, not {_named(q)} of discriminant {brief(disc)}")
    vs, vals = _descend(q, root)
    # the first face of each sign
    i = 0 if vals[0] > 0 else 1 if vals[1] > 0 else 2
    j = 0 if vals[0] < 0 else 1 if vals[1] < 0 else 2
    if vals[i] < 0 or vals[j] > 0:
        raise ClassificationError(f"no river edge found for {_named(q)}")
    return vs[i], vs[j], (vals[i], vals[3 - i - j] - vals[i] - vals[j], vals[j]), root


def find_river_edge(q: BQF) -> tuple[Vec, Vec]:
    """A lax basis whose faces carry opposite signs; Q-positive vector first."""
    return _river_cell(q)[:2]


def _absolute(stack: list, face: Vec) -> Vec:
    """A face of the running edge, moved by the stack's product."""
    for m in reversed(stack):
        face = mat_apply(m, face)
    return face


def trace_river(q: BQF) -> RiverPeriod:
    """Walk the river one full period, a run at a time, keeping its cells,
    not its edges, which ``RiverPeriod.iter_edges`` rebuilds, and reading
    the least |Q| as it goes; the period is certified by an exact
    Q-preserving change of basis (the automorph).

    Every run ends at a bend.  The walk is the same at every translate, so
    the first run end that is a translate of the first bend (the start, if
    that is one) gives the automorph, and the closing edge is its image of
    the start.  The bends of one period read off distinct reduced forms
    (a, b, c), 0 < b, 0 < |a| < sqrt(disc), which bounds the runs.

    Inside a run |Q| of the moving faces is strictly concave in the step
    number, so the faces at the run ends, the closing translate's included,
    hold every face of the period of least |Q|.

    The edge (p, n) is held as a running edge, the start edge times the runs
    since: every ``CHUNK`` runs it is pushed onto a stack of products and
    reset to the identity, and the stack merges its top two entries like a
    binary counter, one product per set bit of the chunks pushed.  A face is
    built absolute, the stack's product applied to the running face, only
    for a face of least |Q| and at a candidate close.  A period under
    ``CHUNK`` runs never touches the stack.  The walk charges its cells and
    what it holds of the answer, the stack and the faces of least |Q|, to
    ``walk.charge`` every ``CHUNK`` runs.
    """
    p0, n0, cell, root = _river_cell(q)
    u, b, v = cell
    limit = 2 * root * root + 2
    (pa, pc), (nb, nd) = p0, n0  # the running edge's columns p and n
    stack, cells, mu, ties = [], [cell], u, [(u, p0)]
    if -v < mu:
        mu, ties = -v, [(v, n0)]
    elif -v == mu:
        ties.append((v, n0))
    # the river turns at an edge whose end faces p - n and p + n, of values
    # u + v - b and u + v + b, carry opposite signs: where |b| > |u + v|; a
    # start that is none is replaced by the first run end
    ref = cell if abs(b) > abs(u + v) else None
    ref_edge, ref_steps, steps, kept = (p0, n0), 0, 0, 0
    due = CHUNK if ref else 1
    for run in range(1, limit + 1):
        # While the face p + n is positive p advances by n, else n advances
        # by p; the run ends where Q(p + j n) or Q(n + j p) changes sign, at
        # the floor of a root of a quadratic with discriminant Q's: a bend.
        # The face that moved has |Q| = size; the other was read before.
        if u + b + v > 0:
            k = (b + root) // (-2 * v)
            pa, pc = pa + k * nb, pc + k * nd
            u, b = u + k * (b + k * v), b + 2 * k * v
            size = u
        else:
            k = (root - b) // (2 * u)
            nb, nd = nb + k * pa, nd + k * pc
            v, b = v + k * (b + k * u), b + 2 * k * u
            size = -v
        steps += k
        cell = (u, b, v)
        if cell == ref:
            p, n = (pa, pc), (nb, nd)
            if stack:
                p, n = _absolute(stack, p), _absolute(stack, n)
            # T = [p n] [p' n']^-1 for the bend's edge (p', n'), of det d = 1 / d
            (x, y), (z, w), ((ra, rc), (rb, rd)) = p, n, ref_edge
            d = ra * rd - rb * rc
            t = ((d * (x * rd - z * rc), d * (z * ra - x * rb)),
                 (d * (y * rd - w * rc), d * (w * ra - y * rb)))
            if transform(q, t) == q:
                u, _, v = cells[0]
                if u == mu:
                    ties.append((u, mat_apply(t, p0)))
                if -v == mu:
                    ties.append((v, mat_apply(t, n0)))
                return _new(RiverPeriod, ((p0, n0), tuple(cells), steps - ref_steps, t,
                                          tuple(ties), q))
        cells.append(cell)
        if size <= mu:
            # p moved iff the face p + n is now negative
            value, face = (u, (pa, pc)) if u + b + v < 0 else (v, (nb, nd))
            if stack:
                face = _absolute(stack, face)
            if size < mu:
                mu, ties = size, []
            ties.append((value, face))
        if run == due:
            if ref is None:  # the first run: the stack is empty
                ref, ref_edge, ref_steps, due = cell, ((pa, pc), (nb, nd)), steps, CHUNK
                continue
            stack.append(((pa, nb), (pc, nd)))
            chunks = run // CHUNK
            while not chunks & 1:
                stack[-2:] = [mat_mul(*stack[-2:])]
                chunks >>= 1
            pa, pc, nb, nd = 1, 0, 0, 1
            kept = charge(kept, run, _named(q), q.discriminant(), cells[-CHUNK:],
                          held=(stack, ties))
            due += CHUNK
    raise ClassificationError(
        f"river period of {_named(q)} not closed after {brief(limit)} runs")


def riverbends(q: BQF) -> list[BQF]:
    """The reduced forms read off the bend cells of one period, one per bend:
    the multiset of the classical reduced cycle."""
    return trace_river(q).bends()


def minimum_nonzero(q: BQF) -> MinimumReport:
    """Minimum |Q| over the faces adjacent to one river period, and the
    least lax vector attaining it; by the climbing principle this is the
    global nonzero minimum."""
    return trace_river(q).minimum()


class PellSolution(NamedTuple):
    d: int
    x: int
    y: int
    automorph: tuple


def pell_solve(d: int) -> PellSolution:
    """Fundamental solution of x^2 - D y^2 = 1 from the river of x^2 - D y^2."""
    if d < 2 or is_square(d):
        raise SquareDiscriminantError(f"need a nonsquare D >= 2, not D = {brief(d)}")
    river = trace_river(BQF(1, 0, -d))
    # |Q| >= 1 = Q(1, 0), so the faces of value 1 are ties of the least |Q|,
    # the automorph's image (tx, ty) of (1, 0) among them
    x, y = min((abs(x), abs(y)) for value, (x, y) in river.ties if value == 1 and y != 0)
    if x * x - d * y * y != 1:
        raise IntegralityError(
            f"(x, y, D) = {brief((x, y, d))} does not solve x^2 - D y^2 = 1")
    return PellSolution(d, x, y, river.automorph)
