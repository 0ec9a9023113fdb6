"""Bounded box searches, the oracles for the class-group and Hermitian tests.

They search |x|, |y| (or the diform coefficients, or ring vectors of
coordinate norms <= 4) in a fixed box, so a miss
says nothing beyond the box; the tests use them only where that box is the
recorded fixture.
"""

import math
from itertools import product

from topograph.classgroup import ClassGroupTable
from topograph.classical import Form, content, red_blue_forms
from topograph.errors import (
    ClassificationError,
    InvalidDiscriminantError,
    NotASuperbaseError,
    NotPrimitiveError,
    PreconditionError,
    SearchExhaustedError,
)
from topograph.rings import EISENSTEIN, GAUSS, QRE, units


def represents(form: Form, n: int, bound: int | None = None) -> bool:
    """Bounded search: does the form represent n?  The default search box
    |x|, |y| <= 2*(1 + sqrt(|disc|)) is a recorded fixture."""
    a, b, c = form
    if bound is None:
        d = abs(b * b - 4 * a * c)
        bound = 2 * (1 + math.isqrt(d))
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            if a * x * x + b * x * y + c * y * y == n:
                return True
    return False


def class_represents(table: ClassGroupTable, index: int, n: int) -> bool:
    """Bounded representation search over every form in the class label (the
    whole reduced cycle for indefinite discriminants)."""
    label = table.classes[index]
    forms = label if table.disc > 0 else (label,)
    return any(represents(f, n) for f in forms)


def find_diform_for_classes(sigma: int, d: int, i1: int, i2: int,
                            table: ClassGroupTable, bound: int = 10):
    """Converse search: a diform whose red/blue classes are (i1, i2)."""
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            for c in range(-bound, bound + 1):
                if sigma * (b * b * sigma - 4 * a * c) != d:
                    continue
                q_red, q_blue = red_blue_forms(sigma, a, b, c)
                if content(q_red) != 1 or content(q_blue) != 1:
                    continue
                if d < 0 and a < 0:
                    continue
                try:
                    if (table.class_index(q_red) == i1
                            and table.class_index(q_blue) == i2):
                        return (a, b, c)
                except (ClassificationError, InvalidDiscriminantError,
                        NotPrimitiveError):
                    continue
    return None


# --- cubasis and tetrabasis completion by a scan of the whole box ----------
# The searches as topograph.hermitian ran them before they completed a seed
# from the unit relation, on QRE and with their own predicates, so the
# tests can compare the two on any seed.

def _is_unimodular(v1, v2) -> bool:
    d = v1[0] * v2[1] - v1[1] * v2[0]
    return d.is_unit()


def is_ring_superbase(u, v, w) -> bool:
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


def _box_elements(ring: str, norm_bound: int) -> list:
    out = []
    for x in range(-norm_bound, norm_bound + 1):
        for y in range(-norm_bound, norm_bound + 1):
            z = QRE(ring, x, y)
            if z.norm() <= norm_bound:
                out.append(z)
    out.sort(key=lambda z: (z.norm(), z.x, z.y))
    return out


def _box_vectors(ring: str, norm_bound: int) -> list:
    els = _box_elements(ring, norm_bound)
    return [(x, y) for x, y in product(els, repeat=2)
            if not (x.is_zero() and y.is_zero())]


def _lax_key(v):
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


def box_find_cubasis(seed) -> tuple:
    """The cubasis completion met first by a scan of the box of vectors with
    coordinate norms <= 4."""
    ring = GAUSS
    _check_seed(seed, ring)
    s1, s2, s3 = seed
    seed_keys = {_lax_key(s1), _lax_key(s2), _lax_key(s3)}
    if len(seed_keys) != 3:
        raise PreconditionError("seed vectors must be distinct lax vectors")
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


def box_find_tetrabasis(seed) -> tuple:
    """The tetrabasis completion met first by a scan of the same box."""
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
