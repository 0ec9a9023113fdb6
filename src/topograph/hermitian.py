"""Binary Hermitian forms over the Gaussian and Eisenstein integers.

H(x, y) = a x conj(x) + beta conj(x) y + conj(beta) x conj(y) + c y conj(y)
with beta in the inverse different, stored through the ring element
gamma = (different generator) * beta so all arithmetic stays integral.
Vertex residues of the associated geometry are cubes (Gauss) or tetrahedra
(Eisenstein); their face values obey exact sum and discriminant identities.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import (
    BudgetError,
    ClassificationError,
    DegenerateFormError,
    IntegralityError,
    PreconditionError,
    SearchExhaustedError,
    TagMismatchError,
    brief,
)
from .rings import _SQ, EISENSTEIN, GAUSS, QRE, Z, _immutable, units, zero

RVec = tuple[QRE, QRE]

# the different of Gauss / Eisenstein is generated by (1+i) / (1-w)
_DIFFERENT = {GAUSS: QRE(GAUSS, 1, 1), EISENSTEIN: QRE(EISENSTEIN, 1, -1)}


class BHF:
    """Binary Hermitian form; beta = gamma / (1+i) or gamma / (1-w).
    Immutable, and not a tuple."""

    __slots__ = ("ring", "a", "gamma", "c")

    def __init__(self, ring: str, a: int, gamma: QRE, c: int):
        if ring not in _DIFFERENT:
            raise PreconditionError("Hermitian forms live over Gauss/Eisenstein")
        if gamma.ring != ring:
            raise PreconditionError("gamma must live in the form's ring")
        for name, value in zip(BHF.__slots__, (ring, a, gamma, c)):
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
        n, ac = self.gamma.norm(), self.a * self.c
        return 2 * n - 4 * ac if self.ring == GAUSS else n - 3 * ac

    def __call__(self, v: RVec) -> int:
        return bhf_evaluate(self, v[0], v[1])


def bhf_evaluate(h: BHF, x: QRE, y: QRE) -> int:
    """Exact integer value of H at (x, y).

    The trace term is Tr(gamma * conj(x) * y / d) with d the different
    generator; with t = gamma * conj(x) * y this trace is t.x + t.y (Gauss)
    or t.x - t.y (Eisenstein), always an integer.
    """
    if x.ring != h.ring or y.ring != h.ring:
        raise PreconditionError("vector must live in the form's ring")
    t = h.gamma * x.conj() * y
    trace = t.x + t.y if h.ring == GAUSS else t.x - t.y
    # cross-check: N(d) * Tr(t/d) = Tr(t * conj(d)) must be exactly divisible
    d = _DIFFERENT[h.ring]
    s = t * d.conj()
    tr_s = 2 * s.x if h.ring == GAUSS else 2 * s.x - s.y
    if tr_s != d.norm() * trace:
        raise IntegralityError("trace term is not integral")
    return h.a * x.norm() + trace + h.c * y.norm()


def _xy(ring: str, v: RVec) -> tuple:
    """The vector (x, y) as coordinates (x0, x1, y0, y1): x = x0 + x1 theta."""
    if v[0].ring != ring or v[1].ring != ring:
        raise TagMismatchError(f"{v[0].ring}/{v[1].ring} vector vs {ring}")
    return (v[0].x, v[0].y, v[1].x, v[1].y)


# the units (e0, e1), e = e0 + e1 theta, of the rings where they are finite
_UNITS = {r: [(e.x, e.y) for e in units(r)] for r in (Z, GAUSS, EISENSTEIN)}


def _multiples(ring: str, p: tuple) -> list:
    """The vectors e p over the units e (units() refuses infinite groups)."""
    s, t = _SQ[ring]
    x0, x1, y0, y1 = p
    return [(e0 * x0 + s * e1 * x1, e0 * x1 + e1 * x0 + t * e1 * x1,
             e0 * y0 + s * e1 * y1, e0 * y1 + e1 * y0 + t * e1 * y1)
            for e0, e1 in _UNITS.get(ring) or units(ring)]


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


def _superbase(ring: str, u: tuple, v: tuple, w: tuple) -> bool:
    """is_ring_superbase on coordinates.  Pairwise unimodularity implies the
    unit relation: with det(v, w) a unit, u = alpha v + beta w for the units
    alpha = det(u, w) / det(v, w) and beta = det(v, u) / det(v, w)."""
    return all(_unimodular(ring, a, b) for a, b in ((u, v), (v, w), (u, w)))


def is_ring_superbase(u: RVec, v: RVec, w: RVec) -> bool:
    """Pairwise unimodular with some unit-scaled sum u + e1*v + e2*w = 0."""
    return _superbase(u[0].ring, *(_xy(u[0].ring, x) for x in (u, v, w)))


def _lax_key(ring: str, p: tuple) -> tuple:
    """Canonical label of a vector up to unit scaling."""
    return min(_multiples(ring, p))


def _check_seed(seed, ring: str) -> tuple:
    """The seed's coordinates and lax keys, once it is checked."""
    if len(seed) != 3:
        raise PreconditionError("seed must be a triple of ring vectors")
    own = seed[0][0].ring
    s1, s2, s3 = xy = [_xy(own, v) for v in seed]
    if not all(_unimodular(own, a, b) for a, b in ((s1, s2), (s1, s3), (s2, s3))):
        raise PreconditionError("seed triple is not pairwise unimodular")
    if own != ring:
        raise PreconditionError(f"seed must live over {ring}")
    keys = {_lax_key(ring, v) for v in xy}
    if len(keys) != 3:  # unit multiples are never unimodular: a safeguard
        raise PreconditionError("seed vectors must be distinct lax vectors")
    return xy, keys


SEARCH_BOUND = 4


def _completions(ring: str, v: tuple, w: tuple, seed_keys: set):
    """Yield the p = -(e1 v + e2 w), e1 and e2 units, that make a superbase
    with (v, w), lie in the box (coordinate norms <= SEARCH_BOUND) and are no
    seed's lax vector, with their keys, in the box's scan order (N(x), x, N(y), y)."""
    s, t = _SQ[ring]
    ws = _multiples(ring, w)
    sums = [(a + e, b + f, c + g, d + h)
            for a, b, c, d in _multiples(ring, v) for e, f, g, h in ws]
    for nx, _, ny, _, p in sorted((_norm(s, t, *p[:2]), p[:2], _norm(s, t, *p[2:]),
                                   p[2:], p) for p in sums):
        if nx <= SEARCH_BOUND and ny <= SEARCH_BOUND:
            key = _lax_key(ring, p)
            if key not in seed_keys and _superbase(ring, v, w, p):
                yield p, key


def find_cubasis(seed) -> tuple:
    """Complete a pairwise-unimodular Gaussian triple to a cubasis: three
    opposite pairs (seed_i, partner_i) all eight of whose transversal triples
    are lax superbases.  A partner is one of the 16 _completions of the other
    two seed vectors; the answer is the first a scan of the box would meet."""
    ring = GAUSS
    (s1, s2, s3), seed_keys = _check_seed(seed, ring)
    p2s_all = list(_completions(ring, s1, s3, seed_keys))
    p3s = list(_completions(ring, s1, s2, seed_keys))
    for p1, key1 in _completions(ring, s2, s3, seed_keys):
        p2s = [(p, key) for p, key in p2s_all if key != key1
               and _superbase(ring, p1, s3, p)]
        for p2, key2 in p2s:
            for p3, key3 in p3s:
                if key3 not in (key1, key2) and all(
                        _superbase(ring, t1, t2, t3) for t1 in (s1, p1)
                        for t2 in (s2, p2) for t3 in (s3, p3)):
                    return tuple((v, (QRE(ring, *p[:2]), QRE(ring, *p[2:])))
                                 for v, p in zip(seed, (p1, p2, p3)))
    raise SearchExhaustedError(
        f"no cubasis completion with coordinate norms <= {SEARCH_BOUND}")


def find_tetrabasis(seed) -> tuple:
    """Complete a pairwise-unimodular Eisenstein triple to a tetrabasis: four
    vectors any three of which form a lax superbase.  The fourth is the first
    of the 36 _completions of (seed_1, seed_2) that a scan of the box meets
    and that makes superbases with seed_3 too."""
    ring = EISENSTEIN
    (s1, s2, s3), seed_keys = _check_seed(seed, ring)
    for p, _ in _completions(ring, s1, s2, seed_keys):
        if _superbase(ring, s1, s3, p) and _superbase(ring, s2, s3, p):
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


def cube_values(h: BHF, cubasis, expect_indefinite: bool = False) -> CubeValues:
    """Evaluate H on the faces of a cubasis, check the exact cube identities
    and classify the sign pattern."""
    (s1, p1), (s2, p2), (s3, p3) = cubasis
    a, u = h(s1), h(p1)
    b, v = h(s2), h(p2)
    c, w = h(s3), h(p3)
    z = a + u
    if not (b + v == z and c + w == z):
        raise IntegralityError("opposite-face sums disagree")
    if h.discriminant() != z * z - 2 * a * u - 2 * b * v - 2 * c * w:
        raise IntegralityError("cube discriminant identity failed")
    pattern = _classify_pattern((a, u), (b, v), (c, w), expect_indefinite)
    return CubeValues(a, b, c, u, v, w, z, pattern)


def _classify_pattern(p1, p2, p3, expect_indefinite: bool) -> str:
    pairs = (p1, p2, p3)
    if any(x == 0 for pair in pairs for x in pair):
        if expect_indefinite:
            raise DegenerateFormError("zero face value on an indefinite cube")
        return PATTERN_MIXED_ZERO
    split = sum(1 for x, y in pairs if x * y < 0)
    has_pp = any(x > 0 and y > 0 for x, y in pairs)
    has_nn = any(x < 0 and y < 0 for x, y in pairs)
    if has_pp and has_nn:
        if expect_indefinite:
            raise ClassificationError(
                "pattern IV on a nondegenerate indefinite form"
            )
        return PATTERN_IV
    if split == 3:
        return PATTERN_III
    if split == 2:
        return PATTERN_II
    return PATTERN_I


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
    # H(x, y) = a N(x) + sum t_ij x_i y_j + c N(y): the trace term is
    # Z-bilinear, so its values on the basis pairs (1 and theta), with the
    # integrality cross-check of bhf_evaluate, fix it everywhere
    tr = _SQ[h.ring][1]
    a, c = h.a, h.c
    basis = (QRE(h.ring, 1, 0), QRE(h.ring, 0, 1))
    (t00, t01), (t10, t11) = [
        [bhf_evaluate(h, e, f) - a - c for f in basis] for e in basis
    ]
    span = range(-box, box + 1)
    pairs = [(u0, u1) for u0 in span for u1 in span]
    ys = [(y0, y1, c * (y0 * y0 + tr * y0 * y1 + y1 * y1)) for y0, y1 in pairs]
    # H(-v) = H(v): scan only the v whose first nonzero coordinate is
    # negative, the member of each pair +-v that the lexicographic order
    # meets first; pairs[half] is (0, 0)
    half = len(pairs) // 2
    rows = [(x, ys) for x in pairs[:half]] + [((0, 0), ys[:half])]
    best = None
    wit = None
    isotropic = False
    for (x0, x1), row in rows:
        base = a * (x0 * x0 + tr * x0 * x1 + x1 * x1)
        l0 = t00 * x0 + t10 * x1
        l1 = t01 * x0 + t11 * x1
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


def unit_invariance_holds(h: BHF, v: RVec) -> bool:
    base = h(v)
    return all(h((e * v[0], e * v[1])) == base for e in units(h.ring))


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
