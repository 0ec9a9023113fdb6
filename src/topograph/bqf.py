"""Binary quadratic forms over Z and their local cell identities."""

from __future__ import annotations

from typing import NamedTuple

from .classical import is_square, transform
from .lax import Superbase, Vec, vadd, vsub

POSITIVE_DEFINITE = "positive-definite"
NEGATIVE_DEFINITE = "negative-definite"
INDEFINITE = "indefinite-nondegenerate"
DEGENERATE = "degenerate"


class BQF(NamedTuple):
    a: int
    b: int
    c: int

    def __call__(self, v: Vec) -> int:
        x, y = v
        a, b, c = self
        return a * x * x + b * x * y + c * y * y

    def discriminant(self) -> int:
        a, b, c = self
        return b * b - 4 * a * c

    def transform(self, m) -> "BQF":
        """Coefficients of Q((x,y) -> M.(x,y)); columns of m are the new basis."""
        return BQF(*transform(self, m))


def classify(q: BQF) -> str:
    d = q.discriminant()
    if d < 0:
        return POSITIVE_DEFINITE if q.a > 0 else NEGATIVE_DEFINITE
    if is_square(d):
        return DEGENERATE
    return INDEFINITE


class CellValues(NamedTuple):
    """Values around one cell: basis values u, v, flanks e = Q(u-v), f = Q(u+v).

    Invariants: e + f = 2(u + v) and disc = (u - v)^2 - e*f.
    """

    u: int
    v: int
    e: int
    f: int
    w: int
    edge: tuple[Vec, Vec]


def cell_values(q: BQF, s: Superbase, edge_index: int) -> CellValues:
    p, r = s[(edge_index + 1) % 3], s[(edge_index + 2) % 3]
    u, v = q(p), q(r)
    e, f = q(vsub(p, r)), q(vadd(p, r))
    w = q(s[edge_index])
    return CellValues(u, v, e, f, w, (p, r))


TOWARD_F = "toward-f"
TOWARD_E = "toward-e"
FLAT = "flat"


def arrow(q: BQF, s: Superbase, edge_index: int) -> str:
    cv = cell_values(q, s, edge_index)
    if cv.f > cv.e:
        return TOWARD_F
    if cv.e > cv.f:
        return TOWARD_E
    return FLAT
