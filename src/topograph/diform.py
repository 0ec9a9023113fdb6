"""Wells and rivers of binary quadratic diforms over Z[sqrt(sigma)], sigma
in {2, 3}, walked on the pinwheels of ``dilinear``.

The walks carry values, not divectors.  A vertex is its generating dibasis
(F0, F1) with the local form (A, beta, C) of Q there, Q(x F0 + y F1) =
A x^2 + beta sqrt(sigma) x y + C y^2.  Turning to (F1, sqrt(sigma) F1 - F0)
maps it to (C, 2C - beta, A - sigma beta + sigma C), which gives every face
value, and crossing an edge to the next pinwheel negates beta.  The walker's
edge is forced, the one edge that descends, and it moves a whole run at a
time: along a kept face F the faces on the other side are D - j sqrt(sigma) F,
with local form (A, beta - 2jA, C + sigma j (jA - beta)), and a run stops
where its last edge stops descending or, in the river search, before the
first face of the other sign, both floor divisions (``_descend``).  So a
well descent takes no ``isqrt``, and a river period one, shared by its
search and its runs, plus ``_first_root``'s where the start edge's values
cut a run.
The walks jump to each stop and take each turn as one step, so they return
the same pinwheels, in the same face order, as a walk of single steps.  They
start on ``STANDARD_DIBASIS``, checked once per process, whose local form is
Q's coefficients (a, b, c), so they never evaluate Q.
They keep faces and river steps as (color, u, v) tuples and build the
Divector, DiRiverStep and Pinwheel records of their answer once, at return.

A river period is certified over Z, as a BQF river is: blue (u, v) becomes
(u, v) and red (u, v) becomes (u, sigma v), conjugation by diag(1, sqrt(sigma))
up to a scalar, and the integer change of basis between two river edges must
lie in Gamma_0(sigma) and fix Q_blue.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .classical import red_blue_forms, reduce_definite, transform
from .dilinear import (BLUE, BQD, RED, STANDARD_DIBASIS, Divector, _across, _faces,
                       _local_form, pinwheel_complete, pinwheel_key)
from .errors import ClassificationError, PreconditionError, SquareDiscriminantError, brief
from .lax import change_of_basis, det, lax, mat_det
from .walk import CHUNK, charge


def _named(q: BQD) -> str:
    return f"the sigma = {q.sigma} diform {brief((q.a, q.b, q.c))}"


def _neg(face: tuple) -> tuple:
    color, u, v = face
    return color, -u, -v


def _bends(r: int, beta: int, b: int, sigma: int) -> bool:
    """Does the edge of values r, b and local beta bend: does a pair
    (x - s, x + s) of ``dilinear._cell_pairs`` change sign, |x| < |s|?  The
    test is symmetric in r and b."""
    s = abs(sigma * beta)
    return (abs(sigma * r + b) < s or abs(r + sigma * b) < s or sigma == 3
            and (abs(4 * r + 3 * b) < 2 * s or abs(3 * r + 4 * b) < 2 * s))


def _cells(t: tuple, sigma: int) -> list:
    """The local forms at the dibases (f_i, f_i+1), i < 2 sigma, of the
    pinwheel with first local form t, by turning: cells[i][0] = Q(f_i)."""
    cells = [t]
    for _ in range(2 * sigma - 1):
        a, beta, c = cells[-1]
        cells.append((c, 2 * c - beta, a - sigma * (beta - c)))
    return cells


def _cross(d0: tuple, d1: tuple, cells: list, i: int, sigma: int):
    """The neighbour over edge i of the pinwheel of (d0, d1), as its
    generating dibasis (``_across``) and local form: crossing negates beta_i."""
    a, beta, c = cells[i]
    return (*_across(_faces(d0, d1, sigma), i, sigma)[:2], (a, -beta, c))


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


def _descend(d0: tuple, d1: tuple, cells: list, sign: int, root: int | None,
             sigma: int):
    """The walker's next stop from the pinwheel of (d0, d1), with local forms
    ``cells`` and faces of sign ``sign``, as (d0, d1, cells), or None at a
    local minimum of sign times the weight, the sum of the face values.

    The edge is forced.  Crossing edge i moves the weight by 8 beta_i
    (sigma = 2) or 36 beta_i (sigma = 3), and at most one edge has
    sign * beta_i < 0: with v_k = Q(f_k), indices mod 2 sigma, turning gives
    beta_k + beta_k+1 = 2 v_k+1 and v_k+2 = v_k + sigma (v_k+1 - beta_k), so
    beta_k + beta_k+2 = v_k+1 + v_k+3 at sigma = 2, and beta_k + beta_k+3 =
    v_k + v_k+3 and 3 (beta_k + beta_k+2) = 4 v_k+1 + 2 v_k+3 at sigma = 3:
    sign times a sum of two betas is positive.

    Over the last edge or edge 1 the walk runs along the face F = d0 or d1
    it keeps, else it takes one step.  With D the other face, (A, beta, C)
    the local form at (F, D) and D_x = D - x sqrt(sigma) F, it visits
    u_j = pinwheel(F, D_j) up to orientation.  The faces of u_j after F are
    D_j, sqrt(sigma) D_j+1/sigma, at sigma = 3 also 2 D_j+1/2 and
    sqrt(3) D_j+2/3, and D_j+1, so each has the sign of q(x) = Q(D_x) =
    sigma A x^2 - sigma beta x + C at an x in [j, j + 1].  sign * q is
    convex, least at x* = beta / 2A, and the last edge of u_j has beta
    2A (j + 1) - beta; while it descends, j + 1 < x*, sign * q falls on
    [j, j + 1], and every face of u_j has the sign of Q(D_j+1).  The run
    stops at j = ceil(x*) - 1, where the last edge stops descending, or, in
    the river search, given ``root`` = isqrt(disc), at j = floor(x-) if
    less, x- the smaller root of q, irrational as q has Q's discriminant.
    Both stops are at least 1: edge i descends, and D_1 is a face of this
    pinwheel.  F alternates between the first and second place of the
    dibasis, which fixes the orientation.
    """
    for i, (_, beta, _) in enumerate(cells):
        if sign * beta < 0:
            break
    else:
        return None
    if i not in (1, 2 * sigma - 1):
        d0, d1, t = _cross(d0, d1, cells, i, sigma)
        return d0, d1, _cells(t, sigma)
    f, d, t = (d0, d1, cells[0]) if i > 1 else (d1, d0, cells[0][::-1])
    a, beta = sign * t[0], sign * t[1]
    j = (beta - 1) // (2 * a)
    if root is not None:
        j = min(j, (sigma * beta - root - 1) // (2 * sigma * a))
    d, t = _run(f, d, t, j, sigma)
    if (j % 2 == 0) == (i > 1):
        return f, d, _cells(t, sigma)
    return d, f, _cells(t[::-1], sigma)


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
    cells = _cells(_local_form(q, d0, d1), sigma)
    # the weight is a positive integer and falls at every pass
    limit = sum(c[0] for c in cells) + 1
    for _ in range(limit):
        step = _descend(d0, d1, cells, 1, None, sigma)
        if step is None:
            break
        d0, d1, cells = step
    else:
        raise ClassificationError(
            f"well descent of {_named(q)} not finished after {brief(limit)} runs")
    source = pinwheel_complete(d0, d1, sigma)
    # a neighbour of equal weight lies over an edge with beta = 0
    key = source.key()
    flats = {tuple(sorted([key, pinwheel_key(_across(source.faces, i, sigma))]))
             for i, c in enumerate(cells) if c[1] == 0}
    red, blue = red_blue_forms(*q)
    return {
        "source": source,
        "source_values": tuple(c[0] for c in cells),
        "flat_edges": tuple(sorted(flats)),
        "reduced_red": reduce_definite(red),
        "reduced_blue": reduce_definite(blue),
    }


def _find_river_edge(q: BQD, root: int):
    """The first pinwheel of the walk with faces of both signs, as
    (i, d0, d1, cells): its dibasis (d0, d1), its local forms, and the first
    edge i whose faces i, i + 1 carry opposite signs.  Q is indefinite, of a
    discriminant that is not a square, as ``diform_river`` checks, and
    ``root`` is its isqrt."""
    sigma = q.sigma
    d0, d1 = STANDARD_DIBASIS
    cells = _cells(_local_form(q, d0, d1), sigma)
    # while no face changes sign, the weight times that sign is a positive
    # integer and falls at every pass
    limit = sum(abs(c[0]) for c in cells) + 1
    for _ in range(limit):
        # one pass makes the products Q(f_i) Q(f_i+1); each face is in two
        products = [a * c for a, _, c in cells]
        if 0 in products:
            raise SquareDiscriminantError(f"{_named(q)} represents zero")
        for i, product in enumerate(products):
            if product < 0:
                return i, d0, d1, cells
        step = _descend(d0, d1, cells, 1 if cells[0][0] > 0 else -1, root, sigma)
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


def _river_run(d0: tuple, d1: tuple, t: tuple, i: int, start: tuple, root: int,
               sigma: int):
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
    period.  Q(D_j) = sigma a j^2 - sigma beta j + c has Q's discriminant, so
    with ``root`` = isqrt of it the run's length is one floor division.
    """
    if i not in (1, 2 * sigma - 1):
        return None
    f, d, t = (d0, d1, t) if i > 1 else (d1, d0, t[::-1])
    a, beta, c = t
    sf = 1 if a > 0 else -1
    # the last D_j of the other sign sits below the root of F's side, which
    # is irrational
    j = (sf * sigma * beta + root) // (2 * sigma * sf * a)
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
    here, d0, d1, cells = _find_river_edge(q, root)
    faces = _faces(d0, d1, sigma)
    x, y = faces[here], faces[(here + 1) % n]
    p0, n0 = p, neg = (x, y) if cells[here][0] > 0 else (y, x)
    start = max(cells[here][::2]), min(cells[here][::2])
    steps = []
    edges = bends = kept = 0
    # the least (|Q(f)|, lax f) over the faces the walk passes, for mu and
    # the witness
    least = start[0], (p0[0], *lax(p0[1:]))

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
        for f, (v, _, _) in zip(faces, cells):
            if abs(v) <= least[0]:
                least = min(least, (abs(v), (f[0], *lax(f[1:]))))
        # continuation: the unique other sign-separating adjacent pair
        crossings = [i for i, (a, _, c) in enumerate(cells) if i != here and a * c < 0]
        if len(crossings) != 1:
            raise ClassificationError(
                f"river is not a single line at a vertex of {_named(q)} "
                f"({len(crossings)} exits)")
        i = crossings[0]
        jump = here == 0 and p == d0 and _river_run(d0, d1, cells[0], i, start, root,
                                                    sigma)
        if jump:
            skipped, p, neg, t = jump
            edges += skipped
        else:
            x, y = faces[i], faces[(i + 1) % n]
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
                    mu, wit = min([least] + [(abs(v), (f[0], *lax(f[1:])))
                                             for f, v in ((p, t[0]), (neg, t[2]))])
                    wit = Divector._make(wit)
                steps = tuple(DiRiverStep(Divector._make(x), Divector._make(y), b)
                              for x, y, b in steps)
                return DiRiverPeriod(steps, edges, bends, auto, mu, wit, exceptional, q)
        cells, here = _cells(t, sigma), 0
        faces = _faces(d0, d1, sigma)
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
        p0, n0 = ((RED if col == BLUE else BLUE, v, u) for col, u, v in (p0, n0))
    blue = red_blue_forms(*q)[1]
    target = red_blue_forms(sigma, c, b, a)[1] if swap else blue
    want = -1 if swap else 1
    l0, m0, l1, m1 = [_lattice(d, sigma) for d in (p0, n0, p1, n1)]
    # det t = det(l1, m1) det(l0, m0) when det(l0, m0) = +-1, so only one
    # sign of n0 can give t the determinant wanted
    if det(l0, m0) * det(l1, m1) != want:
        m0 = (-m0[0], -m0[1])
    t = change_of_basis(l0, m0, l1, m1)
    if (t is None or mat_det(t) != want or t[1][0] % sigma
            or transform(blue, t) != target):
        return None
    (x, y), (z, w) = t
    # g^-1 t g = [[x, y sqrt(sigma)], [(z / sigma) sqrt(sigma), w]]
    auto = ((x, 0), (0, y)), ((0, z // sigma), (w, 0))
    # T = T' W: W swaps the columns
    return tuple(row[::-1] for row in auto) if swap else auto

