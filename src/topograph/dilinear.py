"""The dilinear geometry over Z[sqrt(sigma)], sigma in {2, 3}.

Faces of the (2*sigma, inf) topograph are red divectors (u, v*sqrt(sigma))
and blue divectors (u*sqrt(sigma), v); edges are dibases (opposite-colour
pairs forming a dilinear matrix of determinant +-1); points are pinwheels of
2*sigma faces generated by x_{k+1} = sqrt(sigma) * x_k - x_{k-1}.

A binary quadratic diform a x^2 + b sqrt(sigma) x y + c y^2 takes integer
values on divectors.  Its wells and rivers are walked in ``diform``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DibasisError, PreconditionError, brief

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


def _shown(face) -> str:
    """A (color, u, v) face, a Divector or a plain tuple, for an error
    message, at any size."""
    color, u, v = face
    return f"{color} {brief((u, v))}"


def _face_det(f: tuple, g: tuple, sigma: int) -> int:
    """Determinant of the dilinear matrix of two (color, u, v) faces, red row
    first; 0 when they share a colour."""
    (cf, uf, vf), (cg, ug, vg) = f, g
    if cf == cg:
        return 0
    if cf == RED:
        return uf * vg - sigma * vf * ug
    return ug * vf - sigma * vg * uf


def _recur(d1: tuple, d2: tuple, sigma: int, count: int) -> list:
    """The first ``count`` terms of x_{k+1} = sqrt(sigma) x_k - x_{k-1} from
    (d1, d2), as (color, u, v) tuples, unchecked."""
    faces = [d1, d2]
    for _ in range(count - 2):
        (_, u0, v0), (c1, u1, v1) = faces[-2], faces[-1]
        if c1 == RED:
            faces.append((BLUE, u1 - u0, sigma * v1 - v0))
        else:
            faces.append((RED, sigma * u1 - u0, v1 - v0))
    return faces


def _faces(d1: tuple, d2: tuple, sigma: int) -> tuple:
    """``pinwheel_faces`` without its checks, for the walks: they start from
    ``STANDARD_DIBASIS``, checked at import, and the recurrence keeps the
    determinant of each adjacent pair, so every later pinwheel is one."""
    return tuple(_recur(d1, d2, sigma, 2 * sigma))


def _across(faces: tuple, i: int, sigma: int) -> tuple:
    """The faces of the pinwheel across the edge (f_i, f_i+1) of the pinwheel
    ``faces``, unchecked.  The recurrence runs the other way there, so it is
    generated by (f_i, -f_i+1), or by (f_i, f_0) across the wrap edge, whose
    neighbour in the signed cycle is -f_0; its first edge leads back."""
    if i + 1 < len(faces):
        color, u, v = faces[i + 1]
        return tuple(_recur(faces[i], (color, -u, -v), sigma, 2 * sigma))
    return tuple(_recur(faces[i], faces[0], sigma, 2 * sigma))


def pinwheel_faces(d1: tuple, d2: tuple, sigma: int) -> tuple:
    """The faces, as signed (color, u, v) tuples, of the pinwheel generated
    by the ordered dibasis (d1, d2): x_{k+1} = sqrt(sigma) x_k - x_{k-1}."""
    if _face_det(d1, d2, sigma) not in (1, -1):
        raise DibasisError(f"{_shown(d1)}, {_shown(d2)} do not form a dibasis")
    faces = _recur(d1, d2, sigma, 2 * sigma + 1)
    color, u, v = faces.pop()
    if (color, -u, -v) != d1:
        raise DibasisError(f"pinwheel of {_shown(d1)}, {_shown(d2)} failed to close")
    for i in range(2 * sigma):
        if _face_det(faces[i - 1], faces[i], sigma) not in (1, -1):
            raise DibasisError(
                f"pinwheel of {_shown(d1)}, {_shown(d2)} has a non-dibasis edge")
    return tuple(faces)


def _pinwheel_reading(faces: tuple) -> tuple:
    """(key, base, sign): ``pinwheel_key`` and where slot i's faces f_i, f_i+1
    are in it, key[s - 1] and key[s] in some order for s = base + sign * i.
    The lax faces are distinct, so both readings start at the least face; the
    reflected one is less exactly when that face's predecessor is less than
    its successor."""
    laxed = [(c, -u, -v) if u < 0 or (u == 0 and v < 0) else (c, u, v) for c, u, v in faces]
    m, n = laxed.index(min(laxed)), len(laxed)
    if laxed[m - 1] < laxed[m + 1 - n]:
        return tuple(laxed[m::-1] + laxed[:m:-1]), m, -1
    return tuple(laxed[m:] + laxed[:m]), 1 - (m or n), 1


def pinwheel_key(faces: tuple) -> tuple:
    """Canonical label of a pinwheel's faces: the lax faces up to rotation and reflection."""
    return _pinwheel_reading(faces)[0]


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
for _sigma in (2, 3):  # checked once per process; the walks start here
    pinwheel_faces(*STANDARD_DIBASIS, _sigma)


def _local_form(q: BQD, d0: tuple, d1: tuple) -> tuple:
    """(A, beta, C) with Q(x d0 + y d1) = A x^2 + beta sqrt(sigma) x y + C y^2
    for the dibasis (d0, d1): Q's (a, b, c) on ``STANDARD_DIBASIS``, else
    read off its checked pinwheel's third face sqrt(sigma) d1 - d0, of value
    A - sigma beta + sigma C.  The walks and cell values start here, so
    sigma is checked here."""
    sigma = q.sigma
    if sigma not in (2, 3):
        raise PreconditionError(f"sigma must be 2 or 3, not {brief(sigma)}")
    if (d0, d1) == STANDARD_DIBASIS:
        return q.a, q.b, q.c
    a, c = q(d0), q(d1)
    return a, (a + sigma * c - q(pinwheel_faces(d0, d1, sigma)[2])) // sigma, c


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
