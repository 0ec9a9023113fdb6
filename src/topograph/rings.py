"""Exact arithmetic substrate: quadratic rings.

Elements of Z, Z[sqrt2], Z[sqrt3], Z[i] and Z[w] (w a primitive cube root of
unity, w^2 = -1 - w) are stored as integer coordinate pairs (x, y) meaning
x + y*theta.  All arithmetic is exact; Python integers are unbounded.
"""

from __future__ import annotations

from .errors import IntegralityError, TagMismatchError, UnsupportedRingError

Z = "Z"
ZSQRT2 = "Z_sqrt2"
ZSQRT3 = "Z_sqrt3"
GAUSS = "Gauss"
EISENSTEIN = "Eisenstein"

# theta^2 = _SQ[ring][0] + _SQ[ring][1] * theta
_SQ = {
    Z: (0, 0),
    ZSQRT2: (2, 0),
    ZSQRT3: (3, 0),
    GAUSS: (-1, 0),
    EISENSTEIN: (-1, -1),
}


def _immutable(self, name, value=None):
    raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")


class QRE:
    """Quadratic ring element x + y*theta; immutable.  Not a tuple, so
    ``3 * z`` and ``z + 1`` raise ``TypeError``."""

    __slots__ = ("ring", "x", "y")

    def __init__(self, ring: str, x: int, y: int):
        if ring not in _SQ:
            raise UnsupportedRingError(f"unknown ring {ring!r}")
        if ring == Z and y != 0:
            raise TagMismatchError("ring Z has no theta component")
        _set_ring(self, ring)
        _set_x(self, x)
        _set_y(self, y)

    __setattr__ = __delattr__ = _immutable

    def __eq__(self, other):
        if other.__class__ is not QRE:
            return NotImplemented
        return self.x == other.x and self.y == other.y and self.ring == other.ring

    def __hash__(self):
        return hash((self.ring, self.x, self.y))

    def _check(self, other: "QRE") -> None:
        if other.__class__ is not QRE:
            raise TypeError(f"QRE and {type(other).__name__} do not combine")
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


# __setattr__ refuses every assignment, so __init__ fills the slots through
# their descriptors
_set_ring, _set_x, _set_y = (QRE.ring.__set__, QRE.x.__set__, QRE.y.__set__)


def zero(ring: str) -> QRE:
    return QRE(ring, 0, 0)


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
