"""Topograph-driven reduction: wells for definite forms, rivers for
indefinite ones, Pell solutions and minima bounds; tests compare them with
the classical route.

Every walk carries an edge (p, n) and its local form (u, b, v) =
(Q(p), Q(p + n) - u - v, Q(n)), and moves a run at a time: beside a kept
face n the faces p + kn have values u + k(b + kv), so a run is one floor
division or ``isqrt`` long and moves p <- p + kn, u <- u + k(b + kv),
b <- b + 2kv (or its mirror).  Descents start at ((1, 0), (0, 1)), of local
form (a, b, c), and cost O(log |coefficients|) runs; a river period one run
per partial quotient.  Q is evaluated only in the automorph certificate."""

from __future__ import annotations

import math
from typing import NamedTuple

from . import walk
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
        # every run ends at a bend, so only the start is tested.  Every edge
        # has the start edge's det s, as runs and the automorph keep it; of
        # a bend's readings (u, sb, v), (v, -sb, u), take the one with sb > 0
        ((pa, pc), (nb, nd)), cells = self.start, self.cells
        u, b, v = cells[0]
        cells = cells[0 if (u + v - b) * (u + v + b) < 0 else 1:]
        if pa * nd > pc * nb:
            return [_new(BQF, (u, b, v) if b > 0 else (v, -b, u)) for u, b, v in cells]
        return [_new(BQF, (v, b, u) if b > 0 else (u, -b, v)) for u, b, v in cells]

    def minimum(self) -> MinimumReport:
        # a cell is Q in a basis of det +-1, so it has Q's discriminant
        (u, b, v), ties = self.cells[0], self.ties
        least = lax(ties[0][1]) if len(ties) == 1 else min([lax(f) for _, f in ties])
        return _new(MinimumReport, (abs(ties[0][0]), least, b * b - 4 * u * v))

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
    ((0, 1), (1, 0), (-1, -1)) to a well (no face exceeds the sum of the
    other two) of a positive-definite form or, given ``root`` = isqrt(disc),
    to a face of the other sign.  Returns three signed faces and their
    values: a well's as (p, n, -(p + n)), the river search's as the first
    face of each sign by the position the single-step walk leaves it in,
    then the third.

    The walker holds an edge (p, n) of the superbase {p, n, -(p + n)} and
    its local form (u, b, v) for the sign s of Q that makes the start faces
    positive.  The third face exceeds the other two iff b > 0, only at the
    start: crossing the edge negates b.  Then p exceeds iff b < -2v, and a
    run of steps drops p for p + n until b is in [-2v, 0); n exceeds iff
    b < -2u, and the walker swaps p and n.  Runs alternate, like Gauss
    reduction, at most the bit length of the largest start value plus two.

    The single-step walk drops the face at position j, puts the face at
    j + 1 minus the face at j + 2 there, and negates the face at j + 1: the
    step that drops p for p + n swaps the positions of p and the third face,
    and negates p and n iff p, n, third sit at j, j + 1, j + 2 (mod 3).  The
    swap reverses that cyclic order, so a run of k steps swaps once if k is
    odd and negates (k + 1) // 2 times, or k // 2 if the first step does
    not.  Negating both p and n keeps (u, b, v).
    """
    a, b, c = q
    if root is None and (a <= 0 or b * b - 4 * a * c >= 0):
        raise ClassificationError(f"well search needs a positive-definite form, not "
                                  f"{_named(q)} of discriminant {brief(b * b - 4 * a * c)}")
    if root is not None and a * c < 0:
        # the start edge straddles the river: (0, 1) at position 0, (1, 0) at 1
        if a > 0:
            return ((1, 0), (0, 1), (-1, -1)), (a, c, a + b + c)
        return ((0, 1), (1, 0), (-1, -1)), (c, a, a + b + c)
    # p = (1, 0) at position 1, n = (0, 1) at position 0, local form (a, b, c)
    p, n, ip, jn = (1, 0), (0, 1), 1, 0
    s = -1 if a < 0 else 1
    u, b, v = s * a, s * b, s * c
    # the bit length of the largest |value|, as v > 0 when a * c > 0
    limit = (u | v | abs(u + b + v)).bit_length() + 2
    if b > 0:
        # cross the edge (p, n): the face p - n takes position 2, and the
        # single step negates the face at position 0
        n, b = (0, -1), -b
    for _ in range(limit):
        if u + b + v < 0:  # faces of both signs, as u, v > 0
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
    t, w = (-p[0] - n[0], -p[1] - n[1]), u + b + v
    if root is None:  # a well (s = 1), whose callers sort its faces
        return (p, n, t), (u, v, w)
    if ip > jn:  # u, v > 0 > w: p and n share a sign, and p comes first
        p, n, u, v = n, p, v, u
    return ((p, t, n), (u, w, v)) if s > 0 else ((t, p, n), (-w, -u, -v))


def find_well(q: BQF) -> Well:
    vs, vals = _descend(q, None)
    (u, _, x), (v, _, y), (w, _, z) = sorted(zip(vals, map(lax, vs), vs))
    kind = CELL_WELL if u + v == w else TRIAD_WELL
    orientation = "ambiguous" if u == v else "positive" if det(x, y) > 0 else "negative"
    return Well(kind, (u, v, w), (x, y, z), orientation)


def _well_form(vals, vs) -> BQF:
    """The Gauss-reduced form of the well whose faces ``vs`` have values
    ``vals``.  Any two of three faces summing to zero, in cyclic order, have
    one det s; with the largest value w last, Q in the basis of the other
    two, (u, b, v) with b = s(w - u - v), is reduced up to the order of u, v
    and a sign of b that a tie u = v or |b| = u leaves free."""
    (u, v, w), ((p, q), (r, t), _) = vals, vs
    if u > w and u >= v:
        u, v, w = v, w, u
    elif v > w:
        u, v, w = w, u, v
    b = (p * t - q * r) * (w - u - v)
    if v < u:
        u, v, b = v, u, -b
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
    (p, n, _), (x, y, z) = _descend(q, root)  # the first face of each sign
    if x < 0 or y > 0:
        raise ClassificationError(f"no river edge found for {_named(q)}")
    return p, n, (x, z - x - y, y), root


def find_river_edge(q: BQF) -> tuple[Vec, Vec]:
    """A lax basis whose faces carry opposite signs; Q-positive vector first."""
    return _river_cell(q)[:2]


def _absolute(stack: list, face: Vec) -> Vec:
    """A face of the running edge, moved by the stack's product."""
    for m in reversed(stack):
        face = mat_apply(m, face)
    return face


def trace_river(q: BQF) -> RiverPeriod:
    """Walk the river one period, a run at a time, keeping its cells (not
    its edges: ``RiverPeriod.iter_edges`` rebuilds them) and the least |Q|,
    and certify the period by an exact Q-preserving change of basis.

    Every run ends at a bend, and the walk is the same at every translate,
    so the first run end that translates the first bend (the start, if a
    bend) gives the automorph.  The bends of a period read off distinct
    reduced forms, which bounds the runs.  |Q| of the moving faces is
    strictly concave within a run, so the run ends, the closing translate's
    included, hold every least |Q|.

    The edge is held as the start edge times the runs since: every ``CHUNK``
    runs it is pushed onto a stack of products that merges like a binary
    counter, and reset.  A face is built absolute only where |Q| is least
    and at a close, so a period under ``CHUNK`` runs never touches the
    stack.  The walk charges its cells, stack and least faces every
    ``CHUNK`` runs.
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
    # u + v - b and u + v + b, carry opposite signs; a start that is none is
    # replaced by the first run end
    ref = cell if (u + v - b) * (u + v + b) < 0 else None
    ref_edge, ref_steps, steps, kept = (pa, pc, nb, nd), 0, 0, 0
    due, moves_p = CHUNK if ref else 1, u + b + v > 0
    for run in range(1, limit + 1):
        # While Q(p + n) > 0 p advances by n, else n by p, up to the floor of
        # a root of a quadratic of Q's discriminant, where the sign changes:
        # a bend, so the sides alternate.  The moved face has |Q| = size.
        if moves_p:
            k = (b + root) // (-2 * v)
            pa, pc = pa + k * nb, pc + k * nd
            u, b = u + k * (b + k * v), b + 2 * k * v
            size = u
        else:
            k = (root - b) // (2 * u)
            nb, nd = nb + k * pa, nd + k * pc
            v, b = v + k * (b + k * u), b + 2 * k * u
            size = -v
        moves_p = not moves_p
        steps += k
        cell = (u, b, v)
        if cell == ref:
            x, y, z, w = pa, pc, nb, nd
            if stack:
                (x, y), (z, w) = _absolute(stack, (x, y)), _absolute(stack, (z, w))
            # T = [p n] [p' n']^-1 for the bend's edge (p', n'), of det d = 1 / d
            ra, rc, rb, rd = ref_edge
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
            value, face = (v, (nb, nd)) if moves_p else (u, (pa, pc))
            if stack:
                face = _absolute(stack, face)
            if size < mu:
                mu, ties = size, []
            ties.append((value, face))
        if run == due:
            if ref is None:  # the first run: the stack is empty
                ref, ref_edge, ref_steps, due = cell, (pa, pc, nb, nd), steps, CHUNK
                continue
            stack.append(((pa, nb), (pc, nd)))
            chunks = run // CHUNK
            while not chunks & 1:
                stack[-2:] = [mat_mul(*stack[-2:])]
                chunks >>= 1
            pa, pc, nb, nd = 1, 0, 0, 1
            kept = charge(kept, run, _named(q), q.discriminant(), cells[-CHUNK:],
                          walk.WALK_BUDGET, (stack, ties))
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
