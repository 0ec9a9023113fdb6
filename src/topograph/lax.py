"""Conway's (3,inf) geometry over Z.

Faces are primitive lax vectors (coprime pairs mod global sign), edges are
lax bases (unimodular pairs), points are lax superbases (triples, pairwise
unimodular, with signed representatives summing to zero).  Flags and the
PGL_2(Z) action on them are in ``groups``.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InconsistentInputError, NotASuperbaseError, brief

Vec = tuple[int, int]


def lax(v: Vec) -> Vec:
    """Canonical representative of a lax vector: x > 0, or x == 0 and y > 0."""
    x, y = v
    if x < 0 or (x == 0 and y < 0):
        return (-x, -y)
    return (x, y)


def det(u: Vec, v: Vec) -> int:
    return u[0] * v[1] - u[1] * v[0]


def vsub(u: Vec, v: Vec) -> Vec:
    return (u[0] - v[0], u[1] - v[1])


def vadd(u: Vec, v: Vec) -> Vec:
    return (u[0] + v[0], u[1] + v[1])


class Superbase(NamedTuple):
    """Lax superbase, stored as signed vectors u + v + w = 0.

    The stored triple is canonical: the lax representatives are sorted
    lexicographically and the sign pattern is the unique zero-sum choice with
    the first vector in lax-normal form.
    """

    u: Vec
    v: Vec
    w: Vec

    def key(self) -> tuple[Vec, Vec, Vec]:
        return tuple(sorted(lax(t) for t in self))


def normalize_superbase(vectors) -> Superbase:
    """Canonicalize three vectors into a Superbase (signs summing to zero)."""
    vs = [tuple(int(c) for c in v) for v in vectors]
    if len(vs) != 3:
        raise NotASuperbaseError("need exactly three vectors")
    for i in range(3):
        for j in range(i + 1, 3):
            if det(vs[i], vs[j]) not in (1, -1):
                raise NotASuperbaseError(
                    f"pair {brief(vs[i])}, {brief(vs[j])} is not unimodular")
    a, b, c = sorted(lax(v) for v in vs)
    for sb in (1, -1):
        for sc in (1, -1):
            s = (a[0] + sb * b[0] + sc * c[0], a[1] + sb * b[1] + sc * c[1])
            if s == (0, 0):
                return Superbase(a, (sb * b[0], sb * b[1]), (sc * c[0], sc * c[1]))
    raise InconsistentInputError("signs cannot be flipped to a zero sum")


STANDARD_SUPERBASE = normalize_superbase([(1, 0), (0, 1), (-1, -1)])


def neighbors(s: Superbase) -> list[Superbase]:
    """The three superbases sharing one edge (lax basis) with s.

    Entry j keeps the pair opposite vector j and replaces that vector by the
    difference of the pair; the move is an involution.
    """
    out = []
    for j in range(3):
        p, q = s[(j + 1) % 3], s[(j + 2) % 3]
        out.append(normalize_superbase([p, q, vsub(p, q)]))
    return out

Mat = tuple[tuple[int, int], tuple[int, int]]


def mat_det(m: Mat) -> int:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def mat_mul(m: Mat, n: Mat) -> Mat:
    return (
        (m[0][0] * n[0][0] + m[0][1] * n[1][0], m[0][0] * n[0][1] + m[0][1] * n[1][1]),
        (m[1][0] * n[0][0] + m[1][1] * n[1][0], m[1][0] * n[0][1] + m[1][1] * n[1][1]),
    )


def mat_apply(m: Mat, v: Vec) -> Vec:
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])

