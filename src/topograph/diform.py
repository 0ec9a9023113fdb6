"""Wells and rivers of binary quadratic diforms over Z[sqrt(sigma)], sigma
in {2, 3}, walked on the pinwheels of ``dilinear``.

A vertex of a walk is its generating dibasis (F0, F1) with the local forms
(A, beta, C) of Q at its 2 sigma dibases, Q(x F0 + y F1) = A x^2 +
beta sqrt(sigma) x y + C y^2.  Turning to (F1, sqrt(sigma) F1 - F0) maps
one to the next, (C, 2C - beta, A - sigma beta + sigma C), and crossing an
edge negates beta.  As for BQFs in ``reduction``, one descent loop,
``_descend``, serves both the well and the river search, and one loop in
``diform_river`` walks the period.  The walker's edge is forced, and it
moves a whole run at a time along a kept face, to a stop that is a floor
division.  A pass builds faces only where it reads them: the two of the
edge it crosses, fixed integer combinations of F0 and F1
(``dilinear._face``), or the one a run reaches.  The walks start on
``STANDARD_DIBASIS``, checked once per process, whose local form is Q's
coefficients (a, b, c), so they never evaluate Q.  They build the records
of their answer, and a river its faces of least |Q|, once, at return, and
try the automorph only at an edge with the start edge's values.  They
return the same pinwheels, in the same face order, as single steps do.

A river period is certified over Z, as a BQF river is: blue (u, v) becomes
(u, v) and red (u, v) becomes (u, sigma v), conjugation by diag(1, sqrt(sigma))
up to a scalar, and the integer change of basis between two river edges must
lie in Gamma_0(sigma) and fix Q_blue.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .classical import red_blue_forms, reduce_definite, transform
from .dilinear import (BLUE, BQD, RED, STANDARD_DIBASIS, Divector, _across, _bends, _face,
                       _local_form, _new, pinwheel_complete, pinwheel_key)
from .errors import ClassificationError, PreconditionError, SquareDiscriminantError, brief
from .walk import CHUNK, charge


def _named(q: BQD) -> str:
    return f"the sigma = {q.sigma} diform {brief((q.a, q.b, q.c))}"


def _neg(face: tuple) -> tuple:
    color, u, v = face
    return color, -u, -v


def _cells(t: tuple, sigma: int) -> list:
    """The local forms at the dibases (f_i, f_i+1), i < 2 sigma, of the
    pinwheel with first local form t, by turning: cells[i][0] = Q(f_i)."""
    a, beta, c = t
    cells = [t]
    for _ in range(2 * sigma - 1):
        a, beta, c = c, 2 * c - beta, a - sigma * (beta - c)
        cells.append((a, beta, c))
    return cells


def _run(f: tuple, d: tuple, t: tuple, j: int, sigma: int):
    """j steps along the face f from the dibasis (f, d) of local form t: the
    face d - j sqrt(sigma) f, and the local form at (f, d - j sqrt(sigma) f)."""
    a, beta, c = t
    color, u, v = d
    _, fu, fv = f
    du, dv = (sigma * fu, fv) if color == RED else (fu, sigma * fv)
    return ((color, u - j * du, v - j * dv),
            (a, beta - 2 * j * a, c + sigma * j * (j * a - beta)))


def _first_root(a: int, b: int, c: int) -> int | None:
    """The least integer j >= 1 with a j^2 + b j + c == 0 (a != 0), or None."""
    disc = b * b - 4 * a * c
    s = math.isqrt(max(disc, 0))
    if s * s != disc:
        return None
    roots = sorted(x // (2 * a) for x in (-b - s, -b + s) if x % (2 * a) == 0)
    return next((j for j in roots if j >= 1), None)


def _descend(q: BQD, d0: tuple, d1: tuple, root: int | None):
    """The one descent loop of both walks, as ``reduction._descend`` is for
    BQFs: from the dibasis (d0, d1) to the well of a positive-definite Q,
    or, given ``root`` = isqrt(disc) of an indefinite Q of nonsquare
    discriminant, to the first pinwheel with faces of both signs.  Returns
    its dibasis and local forms as (i, d0, d1, cells), i None at the well,
    else the first edge whose faces i, i + 1 carry opposite signs.

    The edge is forced.  Crossing edge i moves the weight, the sum of the
    face values, by 8 beta_i (sigma = 2) or 36 beta_i (sigma = 3), and at
    most one edge has sign * beta_i < 0 for the faces' sign: with v_k =
    Q(f_k), indices mod 2 sigma, turning gives beta_k + beta_k+1 = 2 v_k+1
    and v_k+2 = v_k + sigma (v_k+1 - beta_k), so beta_k + beta_k+2 = v_k+1 +
    v_k+3 at sigma = 2, and beta_k + beta_k+3 = v_k + v_k+3 and
    3 (beta_k + beta_k+2) = 4 v_k+1 + 2 v_k+3 at sigma = 3: sign times a sum
    of two betas is positive.

    Over the last edge or edge 1 the walk runs along the face F = d0 or d1
    it keeps, else it takes one step.  With (A, beta, C) the local form at
    (F, D) and D_x = D - x sqrt(sigma) F, it visits u_j = pinwheel(F, D_j)
    up to orientation, whose faces after F have the sign of q(x) = Q(D_x) =
    sigma A x^2 - sigma beta x + C at an x in [j, j + 1] (they are D_j,
    sqrt(sigma) D_j+1/sigma, at sigma = 3 also 2 D_j+1/2 and sqrt(3) D_j+2/3,
    and D_j+1).  sign * q is convex, least at x* = beta / 2A, and the last
    edge of u_j has beta 2A (j + 1) - beta; while it descends, j + 1 < x*
    and every face of u_j has the sign of Q(D_j+1).  The run stops at
    j = ceil(x*) - 1, where that edge stops descending, or, in the river
    search, at j = floor(x-) if less, x- the smaller root of q, irrational
    as q has Q's discriminant.  Both stops are at least 1: edge i descends,
    and D_1 is a face of this pinwheel.  F alternates between the first and
    second place of the dibasis, which fixes the orientation.
    """
    sigma = q.sigma
    cells = _cells(_local_form(q, d0, d1), sigma)
    # while no face changes sign, the weight times that sign is a positive
    # integer and falls at every pass
    limit = sum([abs(c[0]) for c in cells]) + 1
    for _ in range(limit):
        if root is not None:
            # one pass makes the products Q(f_i) Q(f_i+1); each face is in two
            products = [a * c for a, _, c in cells]
            if min(products) <= 0:
                if 0 in products:
                    raise SquareDiscriminantError(f"{_named(q)} represents zero")
                return [x < 0 for x in products].index(True), d0, d1, cells
        sign = 1 if cells[0][0] > 0 else -1
        for i, (_, beta, _) in enumerate(cells):
            if sign * beta < 0:
                break
        else:
            if root is None:
                return None, d0, d1, cells
            raise ClassificationError(f"no descent toward the river of {_named(q)}")
        if i not in (1, 2 * sigma - 1):
            # the neighbour is generated by (f_i, -f_i+1), as in ``_across``,
            # and crossing negates beta_i
            a, beta, c = cells[i]
            d0, d1 = _face(d0, d1, i, sigma), _neg(_face(d0, d1, i + 1, sigma))
            cells = _cells((a, -beta, c), sigma)
            continue
        f, d, t = (d0, d1, cells[0]) if i > 1 else (d1, d0, cells[0][::-1])
        a, beta = sign * t[0], sign * t[1]
        j = (beta - 1) // (2 * a)
        if root is not None:
            j = min(j, (sigma * beta - root - 1) // (2 * sigma * a))
        d, t = _run(f, d, t, j, sigma)
        if (j % 2 == 0) == (i > 1):
            d0, d1, cells = f, d, _cells(t, sigma)
        else:
            d0, d1, cells = d, f, _cells(t[::-1], sigma)
    walk = "well descent of" if root is None else "river search for"
    raise ClassificationError(f"{walk} {_named(q)} not finished after {brief(limit)} runs")


def diform_well(q: BQD) -> dict:
    """Descend the climbing flow of a positive-definite diform to its source.

    Returns the source pinwheel (faces and values), the flat edges at the
    source, and the classically reduced pair for Q_red, Q_blue.
    """
    if not (q.a > 0 and q.discriminant() < 0):
        raise ClassificationError(
            f"well descent needs a positive-definite diform, not {_named(q)}")
    return _well(q, *STANDARD_DIBASIS)


def _well(q: BQD, d0: tuple, d1: tuple) -> dict:
    """``diform_well``'s report, descending from the dibasis (d0, d1)."""
    sigma = q.sigma
    _, d0, d1, cells = _descend(q, d0, d1, None)
    source = pinwheel_complete(d0, d1, sigma)
    # a neighbour of equal weight lies over an edge with beta = 0
    key = source.key()
    flats = {tuple(sorted([key, pinwheel_key(_across(source.faces, i, sigma))]))
             for i, c in enumerate(cells) if c[1] == 0}
    red, blue = red_blue_forms(*q)
    return {
        "source": source,
        "source_values": tuple([c[0] for c in cells]),
        "flat_edges": tuple(sorted(flats)),
        "reduced_red": reduce_definite(red),
        "reduced_blue": reduce_definite(blue),
    }


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


def diform_river(q: BQD) -> DiRiverPeriod:
    """Trace one river period, a run at a time; classify bends and report
    the minimum.

    A fully straight period marks the exceptional forms excluded by the
    minimum theorems.  A period has no cheap advance estimate, so one whose
    steps pass ``walk.RIVER_BUDGET`` bits raises BudgetError during the walk.
    """
    if not q.is_primitive():
        raise PreconditionError(
            f"river analysis expects a primitive diform, not {_named(q)}")
    d = q.discriminant()
    root = math.isqrt(max(d, 0))
    if d <= 0 or root * root == d:
        raise SquareDiscriminantError(
            f"need a nondegenerate indefinite diform, not {_named(q)}")
    sigma = q.sigma
    n = 2 * sigma
    here, d0, d1, cells = _descend(q, *STANDARD_DIBASIS, root)
    x, y = _face(d0, d1, here, sigma), _face(d0, d1, here + 1, sigma)
    a, _, c = cells[here]
    p0, n0, start = (x, y, (a, c)) if a > 0 else (y, x, (c, a))
    p, neg = p0, n0
    steps, edges, bends, kept = [], 0, 0, 0
    # the least |Q(f)| over the faces passed, and where its faces are, as
    # (dibasis, k): mu and the witness, the least lax one, are built at return
    least, ties = start[0], []

    # Read as a dibasis of determinant 1, each river edge gives Q the
    # coefficients (a', b', c') with a'c' < 0 and d = sigma^2 b'^2 + 4 sigma
    # |a'c'|.  Edges of one period give distinct ones, since equal ones differ
    # by an automorph of determinant 1, a whole number of periods.  So a
    # period has at most 4 #{x y <= m} <= 4 m (1 + ln m) edges, m = d / 4 sigma.
    m = d // (4 * sigma)
    limit = 4 * m * (m.bit_length() + 1) + 1
    for run in range(limit):
        # the walker stands at the edge {p, neg} = {f_here, f_here+1}
        bend = _bends(*cells[here], sigma)
        steps.append((p, neg, bend))
        edges += 1
        bends += bend
        # one pass over the values: the faces of least |Q|, and the
        # continuation, the unique other sign-separating adjacent pair
        crossings = []
        for k, (v, _, c) in enumerate(cells):
            if -least <= v <= least:
                if v != least and v != -least:
                    least, ties = abs(v), []
                ties.append((d0, d1, k))
            if v * c < 0 and k != here:
                crossings.append(k)
        if len(crossings) != 1:
            raise ClassificationError(
                f"river is not a single line at a vertex of {_named(q)} "
                f"({len(crossings)} exits)")
        i = crossings[0]
        if here == 0 and p == d0 and i in (1, n - 1):
            # The walker leaves the edge (d0, +-d1), d0 positive, over the
            # last edge, which keeps d0 and reaches (d0, d1 - j sqrt(sigma) d0),
            # or edge 1, (-1)^j (d0 - j sqrt(sigma) d1, d1).  While the faces
            # D_j beside the kept face F have the other sign, the other faces
            # of the vertices between have it too and a larger |Q|, as
            # |Q(D_j)| is strictly concave in j: those edges do not bend and
            # hold no least face.  The run is cut before the first D_j of F's
            # sign, below the root of F's side, which is irrational, or at an
            # edge with the start edge's values, which may close the period.
            f, e, t = (d0, d1, cells[0]) if i > 1 else (d1, d0, cells[0][::-1])
            a, beta, c = t
            sf = 1 if a > 0 else -1
            j = (sf * sigma * beta + root) // (2 * sigma * sf * a)
            near, far = start if sf > 0 else start[::-1]
            if a == near:
                cut = _first_root(sigma * a, -sigma * beta, c - far)
                if cut is not None and cut < j:
                    j = cut
            e, t = _run(f, e, t, j, sigma)
            edges += j - 1
            p, neg = f, e
            if i == 1:
                p, neg, t = (_neg(e), f, t[::-1]) if j % 2 else (e, _neg(f), t[::-1])
        else:
            x, y = _face(d0, d1, i, sigma), _face(d0, d1, i + 1, sigma)
            a, beta, c = cells[i]
            p, neg, t = (x, y, (a, -beta, c)) if a > 0 else (y, x, (c, -beta, a))
        # either way the next pinwheel is generated by (p, -neg), or by
        # (p, neg) when the walker left over the last edge
        d0, d1 = p, (neg if i == n - 1 else _neg(neg))
        if (t[0], t[2]) == start and (p, neg) != (p0, n0):
            auto = _translation_automorph((p0, n0), (p, neg), q)
            if auto is not None:
                exceptional = bends == 0
                mu = wit = None
                if not exceptional:
                    # and the closing edge, whose faces the next pass would add
                    mu, wit = min([(least, _new(Divector, _face(*tie, sigma)).lax())
                                   for tie in ties] + [(abs(t[0]), _new(Divector, p).lax()),
                                                       (abs(t[2]), _new(Divector, neg).lax())])
                steps = tuple([DiRiverStep(_new(Divector, x), _new(Divector, y), b)
                               for x, y, b in steps])
                return _new(DiRiverPeriod, (steps, edges, bends, auto, mu, wit, exceptional, q))
        cells, here = _cells(t, sigma), 0
        if (run + 1) % CHUNK == 0:
            kept = charge(kept, run + 1, _named(q), d, steps[-CHUNK:])
    raise ClassificationError(
        f"river period of {_named(q)} not closed after {brief(limit)} runs "
        f"({edges} edges)")


def _lattice(face: tuple, sigma: int) -> tuple:
    """The integer vector of a divector: g d for red d and g d / sqrt(sigma)
    for blue d, g = diag(1, sqrt(sigma)); the factor cancels in a change of
    basis between edges of the same colours."""
    color, u, v = face
    return (u, v) if color == BLUE else (u, sigma * v)


def _translation_automorph(e0, e1, q: BQD):
    """An orientation-preserving dilinear map carrying the lax edge e0 to e1
    and fixing Q, or None.  Sign flips of e0 reach the same lax edge; maps of
    determinant -1 are reflections of the river, not translations.

    The integer change of basis t between the ``_lattice`` images is
    g T g^-1, g = diag(1, sqrt(sigma)), and T = g^-1 t g has its entries in
    Z[sqrt(sigma)], so is dilinear, iff t[1][0] = 0 (mod sigma).  T fixes Q
    iff t fixes Q_blue, Q on blue divectors.  If e0 and e1 start on faces of
    different colours, T = T' W for W = [[0, 1], [1, 0]], (c, u, v) ->
    (c', v, u), where T' keeps colours, has determinant -1 and carries Q to
    Q o W, the diform (c, b, a).
    """
    sigma, a, b, c = q
    (p0, n0), (p1, n1) = e0, e1
    swap = p0[0] != p1[0]
    if swap:
        # W e0 takes e1's colours, both edges being dibases
        p0, n0 = (p1[0], p0[2], p0[1]), (n1[0], n0[2], n0[1])
    # Q_blue, and Q o W's blue form when the colours swap
    blue = sigma * a, sigma * b, c
    target = (sigma * c, sigma * b, a) if swap else blue
    (x0, y0), (z0, w0), (x1, y1), (z1, w1) = [_lattice(f, sigma) for f in (p0, n0, p1, n1)]
    s0, s1 = x0 * w0 - y0 * z0, x1 * w1 - y1 * z1
    if s0 not in (1, -1) or s1 not in (1, -1):
        return None
    # det t = s1 s0, so only one sign of n0 gives t the determinant wanted
    if s0 * s1 != (-1 if swap else 1):
        z0, w0, s0 = -z0, -w0, -s0
    # t = [l1 m1] [l0 m0]^-1, the inverse the adjugate times s0
    x, y = s0 * (x1 * w0 - z1 * y0), s0 * (z1 * x0 - x1 * z0)
    z, w = s0 * (y1 * w0 - w1 * y0), s0 * (w1 * x0 - y1 * z0)
    if z % sigma or transform(blue, ((x, y), (z, w))) != target:
        return None
    # g^-1 t g = [[x, y sqrt(sigma)], [(z / sigma) sqrt(sigma), w]], and
    # T = T' W has its columns swapped
    if swap:
        return ((0, y), (x, 0)), ((w, 0), (0, z // sigma))
    return ((x, 0), (0, y)), ((0, z // sigma), (w, 0))
