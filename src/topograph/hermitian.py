"""Binary Hermitian forms over the Gaussian and Eisenstein integers.

H(x, y) = a x conj(x) + beta conj(x) y + conj(beta) x conj(y) + c y conj(y)
with beta in the inverse different, stored through the ring element
gamma = (different generator) * beta so all arithmetic stays integral.
Vertex residues of the associated geometry are cubes (Gauss) or tetrahedra
(Eisenstein); their face values obey exact sum and discriminant identities.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import NamedTuple

from .errors import (
    BudgetError,
    DegenerateFormError,
    IntegralityError,
    PreconditionError,
    SearchExhaustedError,
    TagMismatchError,
    brief,
)
from .rings import _SQ, EISENSTEIN, GAUSS, QRE, _immutable, units, zero

RVec = tuple[QRE, QRE]


class BHF:
    """Binary Hermitian form; beta = gamma / (1+i) or gamma / (1-w).
    Immutable, and not a tuple.  ``gram`` is not a field: it is the integral
    symmetric M with 2H(v) = v^T M v on v = (x0, x1, y0, y1), x = x0 + x1 theta."""

    __slots__ = ("ring", "a", "gamma", "c", "gram")

    def __init__(self, ring: str, a: int, gamma: QRE, c: int):
        if ring not in (GAUSS, EISENSTEIN):
            raise PreconditionError("Hermitian forms live over Gauss/Eisenstein")
        if gamma.ring != ring:
            raise PreconditionError("gamma must live in the form's ring")
        # M = [[a N, B], [B^T, c N]]: x^T N x = 2 N(x), N = [[2, t], [t, 2]], and
        # x^T B y is the trace term Tr(gamma conj(x) y / d); det M = disc^2
        g0, g1, t = gamma.x, gamma.y, _SQ[ring][1]
        (b00, b01), (b10, b11) = (((g0 + g1, g0 - g1), (g1 - g0, g0 + g1))
                                  if ring == GAUSS else ((g0 - g1, -g0), (g1, g0 - g1)))
        gram = ((2 * a, t * a, b00, b01), (t * a, 2 * a, b10, b11),
                (b00, b10, 2 * c, t * c), (b01, b11, t * c, 2 * c))
        for name, value in zip(BHF.__slots__, (ring, a, gamma, c, gram)):
            object.__setattr__(self, name, value)

    __setattr__ = __delattr__ = _immutable

    def _fields(self) -> tuple:
        return (self.ring, self.a, self.gamma, self.c)

    def __eq__(self, other):
        if other.__class__ is not BHF:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "BHF(ring={!r}, a={!r}, gamma={!r}, c={!r})".format(*self._fields())

    def discriminant(self) -> int:
        # 4*(N(beta) - ac) = 2*N(gamma) - 4ac over Gauss (N(1+i) = 2);
        # 3*(N(beta) - ac) = N(gamma) - 3ac over Eisenstein (N(1-w) = 3)
        n, ac = _norm(*_SQ[self.ring], self.gamma.x, self.gamma.y), self.a * self.c
        return 2 * n - 4 * ac if self.ring == GAUSS else n - 3 * ac

    def __call__(self, v: RVec) -> int:
        return bhf_evaluate(self, v[0], v[1])


def _value(m: tuple, v: tuple) -> int:
    """H(v) = v^T M v / 2 on coordinates v = (x0, x1, y0, y1)."""
    x0, x1, y0, y1 = v
    return sum(vi * (r0 * x0 + r1 * x1 + r2 * y0 + r3 * y1)
               for vi, (r0, r1, r2, r3) in zip(v, m)) // 2


def bhf_evaluate(h: BHF, x: QRE, y: QRE) -> int:
    """Exact integer value of H at (x, y), read from the Gram matrix."""
    if x.ring != h.ring or y.ring != h.ring:
        raise PreconditionError("vector must live in the form's ring")
    return _value(h.gram, (x.x, x.y, y.x, y.y))


def _xy(ring: str, v: RVec) -> tuple:
    """The vector (x, y) as coordinates (x0, x1, y0, y1): x = x0 + x1 theta."""
    if v[0].ring != ring or v[1].ring != ring:
        raise TagMismatchError(f"{v[0].ring}/{v[1].ring} vector vs {ring}")
    return (v[0].x, v[0].y, v[1].x, v[1].y)


# the units (e0, e1), e = e0 + e1 theta, of the two rings
_UNITS = {r: [(e.x, e.y) for e in units(r)] for r in (GAUSS, EISENSTEIN)}


def _multiples(ring: str, p: tuple) -> list:
    """The vectors e p over the units e of a Gauss or Eisenstein ring."""
    s, t = _SQ[ring]
    x0, x1, y0, y1 = p
    return [(e0 * x0 + s * e1 * x1, e0 * x1 + e1 * x0 + t * e1 * x1,
             e0 * y0 + s * e1 * y1, e0 * y1 + e1 * y0 + t * e1 * y1)
            for e0, e1 in _UNITS[ring]]


def _norm(s: int, t: int, a0: int, a1: int) -> int:
    # theta^2 = s + t theta: N(a0 + a1 theta) = a0^2 + t a0 a1 - s a1^2
    return a0 * a0 + t * a0 * a1 - s * a1 * a1


def _unimodular(ring: str, u: tuple, v: tuple) -> bool:
    """Is det(u, v) = u_x v_y - u_y v_x a unit?"""
    s, t = _SQ[ring]
    cross = u[1] * v[3] - u[3] * v[1]
    d0 = u[0] * v[2] - u[2] * v[0] + s * cross
    d1 = u[0] * v[3] + u[1] * v[2] - u[2] * v[1] - u[3] * v[0] + t * cross
    return _norm(s, t, d0, d1) in (1, -1)


def _lax_key(ring: str, p: tuple) -> tuple:
    """Canonical label of a vector up to unit scaling."""
    return min(_multiples(ring, p))


def _check_seed(seed, ring: str) -> tuple:
    """The seed's coordinates and lax keys, once it is checked."""
    if len(seed) != 3:
        raise PreconditionError("seed must be a triple of ring vectors")
    own = seed[0][0].ring
    xy = [_xy(own, v) for v in seed]
    for i, j in combinations(range(3), 2):
        if not _unimodular(own, xy[i], xy[j]):
            raise PreconditionError("seed triple is not pairwise unimodular: seeds "
                                    f"{i} and {j}, {brief(xy[i])} and {brief(xy[j])}")
    if own != ring:
        raise PreconditionError(f"seed must live over {ring}")
    # unit multiples are never unimodular, so the three keys are distinct
    return xy, {_lax_key(ring, v) for v in xy}


SEARCH_BOUND = 4


def _completions(ring: str, v: tuple, w: tuple, seed_keys: set):
    """Yield the p = -(e1 v + e2 w), e1 and e2 units, that lie in the box
    (coordinate norms <= SEARCH_BOUND) and are no seed's lax vector, with
    their keys, in the box's scan order (N(x), x, N(y), y).  Each makes a
    superbase with the unimodular pair (v, w): det(v, p) = -e2 det(v, w) and
    det(w, p) = -e1 det(w, v) are units."""
    s, t = _SQ[ring]
    ws = _multiples(ring, w)
    sums = [(a + e, b + f, c + g, d + h)
            for a, b, c, d in _multiples(ring, v) for e, f, g, h in ws]
    for nx, _, ny, _, p in sorted((_norm(s, t, *p[:2]), p[:2], _norm(s, t, *p[2:]),
                                   p[2:], p) for p in sums):
        if nx <= SEARCH_BOUND and ny <= SEARCH_BOUND:
            key = _lax_key(ring, p)
            if key not in seed_keys:
                yield p, key


def find_cubasis(seed) -> tuple:
    """Complete a pairwise-unimodular Gaussian triple to a cubasis: three
    opposite pairs (seed_i, partner_i) all eight of whose transversal triples
    are lax superbases.  A partner is one of the 16 _completions of the other
    two seed vectors, so only det(p1, p2), det(p1, p3) and det(p2, p3) are
    left to test; the answer is the first a scan of the box would meet."""
    ring = GAUSS
    (s1, s2, s3), seed_keys = _check_seed(seed, ring)
    p2s_all = list(_completions(ring, s1, s3, seed_keys))
    p3s = list(_completions(ring, s1, s2, seed_keys))
    for p1, key1 in _completions(ring, s2, s3, seed_keys):
        p2s = [(p, key) for p, key in p2s_all if key != key1
               and _unimodular(ring, p1, p)]
        for p2, key2 in p2s:
            for p3, key3 in p3s:
                if (key3 not in (key1, key2) and _unimodular(ring, p1, p3)
                        and _unimodular(ring, p2, p3)):
                    return tuple((v, (QRE(ring, *p[:2]), QRE(ring, *p[2:])))
                                 for v, p in zip(seed, (p1, p2, p3)))
    raise SearchExhaustedError(
        f"no cubasis completion with coordinate norms <= {SEARCH_BOUND}")


def find_tetrabasis(seed) -> tuple:
    """Complete a pairwise-unimodular Eisenstein triple to a tetrabasis: four
    vectors any three of which form a lax superbase.  The fourth is the first
    of the 36 _completions of (seed_1, seed_2) that a scan of the box meets
    and that is unimodular with seed_3, the one pair not yet known to be."""
    ring = EISENSTEIN
    (s1, s2, s3), seed_keys = _check_seed(seed, ring)
    for p, _ in _completions(ring, s1, s2, seed_keys):
        if _unimodular(ring, s3, p):
            return (*seed, (QRE(ring, *p[:2]), QRE(ring, *p[2:])))
    raise SearchExhaustedError(
        f"no tetrabasis completion with coordinate norms <= {SEARCH_BOUND}")


PATTERN_I = "I"
PATTERN_II = "II"
PATTERN_III = "III"
PATTERN_IV = "IV"
PATTERN_MIXED_ZERO = "mixed-zero"


class CubeValues(NamedTuple):
    """Values on the six faces of a vertex cube, opposite pairs
    (a, u), (b, v), (c, w); z is the common opposite-face sum."""

    a: int
    b: int
    c: int
    u: int
    v: int
    w: int
    z: int
    pattern: str


def cube_values(h: BHF, cubasis) -> CubeValues:
    """Check that ``cubasis`` is one, evaluate H on its faces, check the
    exact cube identities and classify the sign pattern.  No opposite pair
    may be unit multiples, and the 12 other pairs must be unimodular, which
    makes each transversal triple (u, v, w) a superbase: with det(v, w) a
    unit, u = alpha v + beta w for the units alpha = det(u, w) / det(v, w)
    and beta = det(v, u) / det(v, w)."""
    faces = [(k, role, _xy(h.ring, v)) for k, pair in enumerate(cubasis, 1)
             for role, v in zip(("seed", "partner"), pair)]
    for (k, r, x), (m, t, y) in combinations(faces, 2):
        if (x in _multiples(h.ring, y) if k == m else not _unimodular(h.ring, x, y)):
            fault = "unit multiples" if k == m else "not unimodular"
            raise PreconditionError(f"cubasis {r} {k} and {t} {m} are {fault}")
    a, u, b, v, c, w = (_value(h.gram, x) for _, _, x in faces)
    z = a + u
    if not (b + v == z and c + w == z):
        raise IntegralityError("opposite-face sums disagree")
    if h.discriminant() != z * z - 2 * a * u - 2 * b * v - 2 * c * w:
        raise IntegralityError("cube discriminant identity failed")
    pattern = _classify_pattern((a, u), (b, v), (c, w))
    return CubeValues(a, b, c, u, v, w, z, pattern)


def _classify_pattern(*pairs) -> str:
    if any(x == 0 for pair in pairs for x in pair):
        return PATTERN_MIXED_ZERO
    if any(x > 0 and y > 0 for x, y in pairs) and any(x < 0 and y < 0 for x, y in pairs):
        return PATTERN_IV
    split = sum(x * y < 0 for x, y in pairs)
    return (PATTERN_I, PATTERN_I, PATTERN_II, PATTERN_III)[split]


def _is_primitive_coords(tr: int, x0: int, x1: int, y0: int, y1: int) -> bool:
    """Is (x0 + x1 theta, y0 + y1 theta) primitive, where theta = i or w and
    theta^2 = -1 + tr theta (tr = 0 or -1)?  The ideal (x, y) is the
    lattice spanned by x, theta x, y, theta y, whose index is the gcd of the
    2x2 minors of those four coordinate rows: N(x), N(y), det(x, y),
    det(x, theta y) and det(theta x, y) (det(theta x, theta y) = det(x, y)
    since N(theta) = 1), with N(v) = v0^2 + tr v0 v1 + v1^2 and
    theta v = (-v1, v0 + tr v1)."""
    return math.gcd(
        x0 * x0 + tr * x0 * x1 + x1 * x1,
        y0 * y0 + tr * y0 * y1 + y1 * y1,
        x0 * y1 - x1 * y0,
        x0 * (y0 + tr * y1) + x1 * y1,
        x1 * y1 + (x0 + tr * x1) * y0,
    ) == 1


# most vectors empirical_minimum scans, one of each pair +-v
BOX_BUDGET = 10_000_000


def empirical_minimum(h: BHF, box: int = 10) -> dict:
    """Minimum nonzero |H| over primitive box vectors; since the box minimum
    upper-bounds the true minimum, mu^2 <= delta/6 is a sound check.

    The box holds the vectors (x, y) whose four integer coordinates lie in
    [-box, box]; the witness is the first minimiser in lexicographic order
    of (x.x, x.y, y.x, y.y).  A box of more than BOX_BUDGET vectors up to
    sign raises BudgetError before any work."""
    if box < 1:
        raise PreconditionError(f"box must be at least 1, got {brief(box)}")
    points = (2 * box + 1) ** 4 // 2
    if points > BOX_BUDGET:
        raise BudgetError(
            f"a box of {brief(box)} holds {brief(points)} vectors up to sign, "
            f"over the budget of {BOX_BUDGET}")
    d = h.discriminant()
    if d <= 0:
        raise PreconditionError("minimum bound applies to indefinite forms")
    # H(x, y) = a N(x) + x^T B y + c N(y), read from the blocks of M
    (m00, m01, m02, m03), (_, m11, m12, m13), (_, _, m22, m23), (_, _, _, m33) = h.gram
    tr = _SQ[h.ring][1]
    span = range(-box, box + 1)
    pairs = [(u0, u1) for u0 in span for u1 in span]
    ys = [(y0, y1, (m22 * y0 * y0 + m33 * y1 * y1) // 2 + m23 * y0 * y1)
          for y0, y1 in pairs]
    # H(-v) = H(v): scan only the v whose first nonzero coordinate is
    # negative, the member of each pair +-v that the lexicographic order
    # meets first; pairs[half] is (0, 0)
    half = len(pairs) // 2
    rows = [(x, ys) for x in pairs[:half]] + [((0, 0), ys[:half])]
    best = wit = None
    isotropic = False
    for (x0, x1), row in rows:
        base = (m00 * x0 * x0 + m11 * x1 * x1) // 2 + m01 * x0 * x1
        l0 = m02 * x0 + m12 * x1
        l1 = m03 * x0 + m13 * x1
        for y0, y1, cy in row:
            val = base + l0 * y0 + l1 * y1 + cy
            # primitivity is tested only where it can change the result
            if val == 0:
                # isotropic vectors are skipped; mu is the least nonzero value
                if not isotropic and _is_primitive_coords(tr, x0, x1, y0, y1):
                    isotropic = True
            elif best is None or abs(val) < best:
                if _is_primitive_coords(tr, x0, x1, y0, y1):
                    best = abs(val)
                    wit = (x0, x1, y0, y1)
    if best is None:
        raise DegenerateFormError("form vanishes on the whole box")
    return {
        "mu": best,
        "witness": (QRE(h.ring, wit[0], wit[1]), QRE(h.ring, wit[2], wit[3])),
        "delta": d,
        # the minimum bound is a theorem only for anisotropic forms
        "isotropic_in_box": isotropic,
        "bound_ok": isotropic or 6 * best * best <= d,
    }


STANDARD_GAUSS_SEED = (
    (QRE(GAUSS, 1, 0), zero(GAUSS)),
    (zero(GAUSS), QRE(GAUSS, 1, 0)),
    (QRE(GAUSS, 1, 0), QRE(GAUSS, 1, 0)),
)
STANDARD_EISENSTEIN_SEED = (
    (QRE(EISENSTEIN, 1, 0), zero(EISENSTEIN)),
    (zero(EISENSTEIN), QRE(EISENSTEIN, 1, 0)),
    (QRE(EISENSTEIN, 1, 0), QRE(EISENSTEIN, 1, 0)),
)
# find_cubasis(STANDARD_GAUSS_SEED), which the tests recompute
STANDARD_CUBASIS = (
    ((QRE(GAUSS, 1, 0), zero(GAUSS)), (QRE(GAUSS, -1, 0), QRE(GAUSS, -1, -1))),
    ((zero(GAUSS), QRE(GAUSS, 1, 0)), (QRE(GAUSS, -1, -1), QRE(GAUSS, 0, -1))),
    ((QRE(GAUSS, 1, 0), QRE(GAUSS, 1, 0)), (QRE(GAUSS, -1, 0), QRE(GAUSS, 0, -1))),
)
