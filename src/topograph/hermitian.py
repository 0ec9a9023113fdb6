"""Binary Hermitian forms over the Gaussian and Eisenstein integers.

H(x, y) = a x conj(x) + beta conj(x) y + conj(beta) x conj(y) + c y conj(y)
with beta in the inverse different, stored through the ring element
gamma = (different generator) * beta so all arithmetic stays integral.
Vertex residues of the associated geometry are cubes (Gauss) or tetrahedra
(Eisenstein); their face values obey exact sum and discriminant identities.
"""

from __future__ import annotations

import math
from itertools import product
from typing import NamedTuple

from .errors import (
    BudgetError,
    ClassificationError,
    DegenerateFormError,
    IntegralityError,
    NotASuperbaseError,
    PreconditionError,
    SearchExhaustedError,
    brief,
)
from .rings import _SQ, EISENSTEIN, GAUSS, QRE, _immutable, units, zero

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
        n = self.gamma.norm()
        if self.ring == GAUSS:
            return 2 * n - 4 * self.a * self.c
        return n - 3 * self.a * self.c

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
    if h.ring == GAUSS:
        trace = t.x + t.y
    else:
        trace = t.x - t.y
    # cross-check: N(d) * Tr(t/d) = Tr(t * conj(d)) must be exactly divisible
    d = _DIFFERENT[h.ring]
    s = t * d.conj()
    tr_s = 2 * s.x if h.ring == GAUSS else 2 * s.x - s.y
    if tr_s != d.norm() * trace:
        raise IntegralityError("trace term is not integral")
    return h.a * x.norm() + trace + h.c * y.norm()


def _is_unimodular(v1: RVec, v2: RVec) -> bool:
    d = v1[0] * v2[1] - v1[1] * v2[0]
    return d.is_unit()


def is_ring_superbase(u: RVec, v: RVec, w: RVec) -> bool:
    """Pairwise unimodular with some unit-scaled sum u + e1*v + e2*w = 0."""
    if not (_is_unimodular(u, v) and _is_unimodular(v, w) and _is_unimodular(u, w)):
        return False
    ring = u[0].ring
    for e1 in units(ring):
        for e2 in units(ring):
            if (u[0] + e1 * v[0] + e2 * w[0]).is_zero() and (
                u[1] + e1 * v[1] + e2 * w[1]
            ).is_zero():
                return True
    return False


def _box_elements(ring: str, norm_bound: int) -> list[QRE]:
    out = []
    for x in range(-norm_bound, norm_bound + 1):
        for y in range(-norm_bound, norm_bound + 1):
            z = QRE(ring, x, y)
            if z.norm() <= norm_bound:
                out.append(z)
    out.sort(key=lambda z: (z.norm(), z.x, z.y))
    return out


def _box_vectors(ring: str, norm_bound: int) -> list[RVec]:
    els = _box_elements(ring, norm_bound)
    return [(x, y) for x, y in product(els, repeat=2)
            if not (x.is_zero() and y.is_zero())]


def _lax_key(v: RVec):
    """Canonical label of a vector up to unit scaling."""
    return min(
        ((e * v[0]).x, (e * v[0]).y, (e * v[1]).x, (e * v[1]).y)
        for e in units(v[0].ring)
    )


def _check_seed(seed, ring: str) -> None:
    if len(seed) != 3:
        raise PreconditionError("seed must be a triple of ring vectors")
    for i in range(3):
        for j in range(i + 1, 3):
            if not _is_unimodular(seed[i], seed[j]):
                raise PreconditionError("seed triple is not pairwise unimodular")
    for v in seed:
        if v[0].ring != ring:
            raise PreconditionError(f"seed must live over {ring}")


SEARCH_BOUND = 4


def find_cubasis(seed) -> tuple:
    """Complete a pairwise-unimodular Gaussian triple to a cubasis: three
    opposite pairs (seed_i, partner_i) all eight of whose transversal triples
    are lax superbases.  Deterministic scan, coordinate norms <= 4."""
    ring = GAUSS
    _check_seed(seed, ring)
    s1, s2, s3 = seed
    seed_keys = {_lax_key(s1), _lax_key(s2), _lax_key(s3)}
    if len(seed_keys) != 3:
        raise PreconditionError("seed vectors must be distinct lax vectors")
    # each candidate keyed once, for the distinctness tests below
    cands = [
        (p, key)
        for p in _box_vectors(ring, SEARCH_BOUND)
        if (key := _lax_key(p)) not in seed_keys
    ]
    p1s = [(p, key) for p, key in cands if is_ring_superbase(s2, s3, p)]
    for p1, key1 in p1s:
        p2s = [
            (p, key)
            for p, key in cands
            if key != key1
            and is_ring_superbase(s1, s3, p)
            and _is_unimodular(p1, p)
            and is_ring_superbase(p1, s3, p)
        ]
        for p2, key2 in p2s:
            for p3, key3 in cands:
                if key3 in (key1, key2):
                    continue
                if not is_ring_superbase(s1, s2, p3):
                    continue
                if all(is_ring_superbase(t1, t2, t3) for t1 in (s1, p1)
                       for t2 in (s2, p2) for t3 in (s3, p3)):
                    return ((s1, p1), (s2, p2), (s3, p3))
    raise SearchExhaustedError(
        f"no cubasis completion with coordinate norms <= {SEARCH_BOUND}"
    )


def find_tetrabasis(seed) -> tuple:
    """Complete a pairwise-unimodular Eisenstein triple to a tetrabasis: four
    vectors any three of which form a lax superbase."""
    ring = EISENSTEIN
    _check_seed(seed, ring)
    s1, s2, s3 = seed
    if not is_ring_superbase(s1, s2, s3):
        raise NotASuperbaseError("seed triple is not a lax superbase")
    seed_keys = {_lax_key(s1), _lax_key(s2), _lax_key(s3)}
    for p in _box_vectors(ring, SEARCH_BOUND):
        if _lax_key(p) in seed_keys:
            continue
        if (
            is_ring_superbase(s1, s2, p)
            and is_ring_superbase(s1, s3, p)
            and is_ring_superbase(s2, s3, p)
        ):
            return (s1, s2, s3, p)
    raise SearchExhaustedError(
        f"no tetrabasis completion with coordinate norms <= {SEARCH_BOUND}"
    )


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
