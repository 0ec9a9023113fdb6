"""Exact arithmetic substrate: quadratic rings and 2x2 matrices over them.

Elements of Z, Z[sqrt2], Z[sqrt3], Z[i] and Z[w] (w a primitive cube root of
unity, w^2 = -1 - w) are stored as integer coordinate pairs (x, y) meaning
x + y*theta.  All arithmetic is exact; Python integers are unbounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    IntegralityError,
    NotInvertibleError,
    TagMismatchError,
    UnsupportedRingError,
)

Z = "Z"
ZSQRT2 = "Z_sqrt2"
ZSQRT3 = "Z_sqrt3"
GAUSS = "Gauss"
EISENSTEIN = "Eisenstein"

RINGS = (Z, ZSQRT2, ZSQRT3, GAUSS, EISENSTEIN)

# theta^2 = _SQ[ring][0] + _SQ[ring][1] * theta
_SQ = {
    Z: (0, 0),
    ZSQRT2: (2, 0),
    ZSQRT3: (3, 0),
    GAUSS: (-1, 0),
    EISENSTEIN: (-1, -1),
}


@dataclass(frozen=True)
class QRE:
    """Quadratic ring element x + y*theta."""

    ring: str
    x: int
    y: int

    def __post_init__(self):
        if self.ring not in _SQ:
            raise UnsupportedRingError(f"unknown ring {self.ring!r}")
        if self.ring == Z and self.y != 0:
            raise TagMismatchError("ring Z has no theta component")

    def _check(self, other: "QRE") -> None:
        if self.ring != other.ring:
            raise TagMismatchError(f"{self.ring} vs {other.ring}")

    def __add__(self, other: "QRE") -> "QRE":
        self._check(other)
        return QRE(self.ring, self.x + other.x, self.y + other.y)

    def __sub__(self, other: "QRE") -> "QRE":
        self._check(other)
        return QRE(self.ring, self.x - other.x, self.y - other.y)

    def __neg__(self) -> "QRE":
        return QRE(self.ring, -self.x, -self.y)

    def __mul__(self, other: "QRE") -> "QRE":
        self._check(other)
        s, t = _SQ[self.ring]
        cross = self.y * other.y
        return QRE(
            self.ring,
            self.x * other.x + s * cross,
            self.x * other.y + self.y * other.x + t * cross,
        )

    def conj(self) -> "QRE":
        if self.ring == Z:
            return self
        if self.ring == EISENSTEIN:
            # conj(w) = w^2 = -1 - w
            return QRE(self.ring, self.x - self.y, -self.y)
        return QRE(self.ring, self.x, -self.y)

    def norm(self) -> int:
        p = self * self.conj()
        if p.y != 0:
            raise IntegralityError(f"norm of {self!r} does not land in Z: {p!r}")
        return p.x

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def is_unit(self) -> bool:
        return self.norm() in (1, -1)

    def __repr__(self):
        return f"QRE({self.ring}, {self.x}, {self.y})"


def qre(ring: str, x: int, y: int = 0) -> QRE:
    return QRE(ring, x, y)


def zero(ring: str) -> QRE:
    return QRE(ring, 0, 0)


def one(ring: str) -> QRE:
    return QRE(ring, 1, 0)


def units(ring: str) -> list[QRE]:
    """The finite unit groups used for lax normalization."""
    if ring == Z:
        return [QRE(ring, 1, 0), QRE(ring, -1, 0)]
    if ring == GAUSS:
        return [QRE(ring, 1, 0), QRE(ring, -1, 0), QRE(ring, 0, 1), QRE(ring, 0, -1)]
    if ring == EISENSTEIN:
        u = []
        for x, y in ((1, 0), (0, 1), (-1, -1)):
            u.append(QRE(ring, x, y))
            u.append(QRE(ring, -x, -y))
        return u
    raise UnsupportedRingError(f"{ring} has an infinite unit group")


def _divmod_nearest(a: QRE, b: QRE) -> tuple[QRE, QRE]:
    """Nearest-lattice-point division in a norm-Euclidean ring."""
    n = b.norm()
    num = a * b.conj()
    qx = _round_div(num.x, n)
    qy = _round_div(num.y, n)
    q = QRE(a.ring, qx, qy)
    return q, a - q * b


def _round_div(p: int, q: int) -> int:
    # round p/q to the nearest integer, ties toward +inf
    if q < 0:
        p, q = -p, -q
    return (2 * p + q) // (2 * q)


def euclid_gcd(a: QRE, b: QRE) -> QRE:
    """gcd in Z[i] or Z[w] (both norm-Euclidean), up to units."""
    if a.ring not in (GAUSS, EISENSTEIN):
        raise UnsupportedRingError("euclidean gcd only over Gauss/Eisenstein")
    while not b.is_zero():
        _, r = _divmod_nearest(a, b)
        a, b = b, r
    return a


def is_primitive(v: tuple[QRE, QRE]) -> bool:
    """Is (x, y) a primitive vector (unit ideal / coprime pair)?"""
    x, y = v
    x._check(y)
    if x.is_zero() and y.is_zero():
        return False
    ring = x.ring
    if ring == Z:
        return math.gcd(x.x, y.x) == 1
    if ring in (GAUSS, EISENSTEIN):
        if x.is_zero():
            return y.is_unit()
        if y.is_zero():
            return x.is_unit()
        return euclid_gcd(x, y).is_unit()
    raise UnsupportedRingError("divector primitivity lives in the diform module")


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix with entries in one quadratic ring, stored by rows."""

    a: QRE
    b: QRE
    c: QRE
    d: QRE

    def __post_init__(self):
        tags = {self.a.ring, self.b.ring, self.c.ring, self.d.ring}
        if len(tags) != 1:
            raise TagMismatchError(f"mixed ring tags {tags}")

    @property
    def ring(self) -> str:
        return self.a.ring

    @staticmethod
    def from_ints(ring: str, rows) -> "Mat2":
        (a, b), (c, d) = rows
        return Mat2(QRE(ring, *_pair(a)), QRE(ring, *_pair(b)),
                    QRE(ring, *_pair(c)), QRE(ring, *_pair(d)))

    @staticmethod
    def identity(ring: str) -> "Mat2":
        return Mat2(one(ring), zero(ring), zero(ring), one(ring))

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def det(self) -> QRE:
        return self.a * self.d - self.b * self.c

    def inv(self) -> "Mat2":
        det = self.det()
        if not det.is_unit():
            raise NotInvertibleError("determinant is not a unit")
        det_inv = _unit_inverse(det)
        return Mat2(det_inv * self.d, -(det_inv * self.b),
                    -(det_inv * self.c), det_inv * self.a)

    def apply(self, v: tuple[QRE, QRE]) -> tuple[QRE, QRE]:
        x, y = v
        return (self.a * x + self.b * y, self.c * x + self.d * y)


def _pair(v):
    if isinstance(v, tuple):
        return v
    return (v, 0)


def _unit_inverse(u: QRE) -> QRE:
    n = u.norm()
    c = u.conj()
    if n == 1:
        return c
    if n == -1:
        return -c
    raise NotInvertibleError("not a unit")
