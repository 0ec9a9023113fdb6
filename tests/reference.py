"""Reference checks and predicates that only the tests and the acceptance
criteria run.

- The group checks: PGL_2(Z) acts simply transitively on the maximal flags of
  the (3,inf) topograph (flag ball, matrix ball and a pure word-rewriting
  ball agree at every radius), and conjugation by diag(1, sqrt(sigma))
  carries the plus part of the dilinear group into Gamma_0(sigma), as
  ``diform``'s river certificate uses.
- Predicates the library's walks and searches do not need: reduced
  indefinite forms and cycle labels, dibasis determinants, unit invariance
  of Hermitian values, and primitivity by the Euclidean gcd on ``QRE``.
- Divector arithmetic (sums and sqrt(sigma) multiples) for the single-step
  oracles that evaluate a diform on divectors.
"""

from __future__ import annotations

import math
import random
from functools import reduce

from topograph.classical import Form, indefinite_cycle
from topograph.diform import _lattice
from topograph.dilinear import BLUE, RED, Divector, _face_det, _shown
from topograph.errors import (
    DibasisError,
    InconsistentInputError,
    PreconditionError,
    UnsupportedRingError,
)
from topograph.groups import STANDARD_FLAG, act, coxeter_generators, pgl_key
from topograph.hermitian import BHF, RVec
from topograph.lax import STANDARD_SUPERBASE, mat_det, mat_mul, neighbors
from topograph.rings import EISENSTEIN, GAUSS, QRE, Z, ZSQRT2, ZSQRT3, units


def superbase_ball(depth: int):
    """BFS ball of superbases; returns dict key -> (distance, Superbase)."""
    seen = {STANDARD_SUPERBASE.key(): (0, STANDARD_SUPERBASE)}
    frontier = [STANDARD_SUPERBASE]
    for d in range(1, depth + 1):
        nxt = []
        for s in frontier:
            for t in neighbors(s):
                k = t.key()
                if k not in seen:
                    seen[k] = (d, t)
                    nxt.append(t)
        frontier = nxt
    return seen


# --- desk-scale Coxeter correspondence -------------------------------------

def _word_moves(word: str, cap: int):
    """Neighbouring words under the (3,inf) relations, length-capped."""
    out = []
    n = len(word)
    for i in range(n - 1):
        if word[i] == word[i + 1]:
            out.append(word[:i] + word[i + 2:])
    if n + 2 <= cap:
        for i in range(n + 1):
            for g in "012":
                out.append(word[:i] + g + g + word[i:])
    for i in range(n - 1):
        pair = word[i:i + 2]
        if pair == "02":
            out.append(word[:i] + "20" + word[i + 2:])
        elif pair == "20":
            out.append(word[:i] + "02" + word[i + 2:])
    for i in range(n - 2):
        tri = word[i:i + 3]
        if tri == "010":
            out.append(word[:i] + "101" + word[i + 3:])
        elif tri == "101":
            out.append(word[:i] + "010" + word[i + 3:])
    return out


def coxeter_ball_sizes(radius: int) -> list[int]:
    """Ball sizes of the (3,inf) Coxeter group computed by pure word rewriting.

    Words over {s0,s1,s2} up to the defining relations; two words are merged
    when connected by relation moves through words of length <= radius + 2.
    Returns cumulative counts of distinct group elements of length <= d.
    """
    cap = radius + 2
    words = [""]
    frontier = [""]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for g in "012":
                nxt.append(w + g)
        words.extend(nxt)
        frontier = nxt

    canon: dict[str, str] = {}

    def canonical(w0: str) -> str:
        if w0 in canon:
            return canon[w0]
        # flood the equivalence class of w0 within the length cap
        seen = {w0}
        queue = [w0]
        best = w0
        while queue:
            w = queue.pop()
            if (len(w), w) < (len(best), best):
                best = w
            for w2 in _word_moves(w, cap):
                if w2 not in seen:
                    seen.add(w2)
                    queue.append(w2)
        for w in seen:
            canon[w] = best
        return best

    lengths: dict[str, int] = {}
    for w in words:
        c = canonical(w)
        if c not in lengths or len(w) < lengths[c]:
            lengths[c] = len(w)
    sizes = []
    for d in range(radius + 1):
        sizes.append(sum(1 for v in lengths.values() if v <= d))
    return sizes


def verify_simple_transitivity(radius: int) -> dict:
    """Check word -> flag evaluation is bijective onto the radius ball.

    Three independent counts must agree at every depth: distinct flags reached,
    distinct PGL_2(Z) elements reached, and the Coxeter ball size from word
    rewriting.  Injectivity holds iff flag and matrix counts agree.
    """
    if radius > 8:
        raise InconsistentInputError("radius capped at 8")
    gens, rel_report = coxeter_generators()
    ident = ((1, 0), (0, 1))
    mats = {pgl_key(ident): 0}
    flags = {STANDARD_FLAG: 0}
    frontier = [ident]
    mat_sizes = [1]
    flag_sizes = [1]
    for d in range(1, radius + 1):
        nxt = []
        for m in frontier:
            for g in gens:
                m2 = mat_mul(g, m)
                k = pgl_key(m2)
                if k not in mats:
                    mats[k] = d
                    nxt.append(m2)
                    f = act(m2, STANDARD_FLAG)
                    if f not in flags:
                        flags[f] = d
        frontier = nxt
        mat_sizes.append(len(mats))
        flag_sizes.append(len(flags))
    word_sizes = coxeter_ball_sizes(radius)
    return {
        "radius": radius,
        "relations": rel_report,
        "flag_ball": flag_sizes,
        "matrix_ball": mat_sizes,
        "word_ball": word_sizes,
        "injective": flag_sizes == mat_sizes,
        "match": flag_sizes == mat_sizes == word_sizes,
    }


# --- dilinear / congruence conjugation checks ------------------------------

def _dl_plus_samples(sigma: int, count: int, seed: int = 7):
    """Random-ish DL2+ elements built from generators of the + pattern, as
    rows of (x, y) pairs meaning x + y sqrt(sigma)."""
    ring = {2: ZSQRT2, 3: ZSQRT3}[sigma]
    one, zero, root = (QRE(ring, x, y) for x, y in ((1, 0), (0, 0), (0, 1)))
    rng = random.Random(seed)
    # the + pattern has an integer diagonal and sqrt(sigma)-multiple
    # off-diagonal entries
    gens = [((one, root), (zero, one)), ((one, zero), (root, one)),
            ((-one, zero), (zero, one))]
    out = []
    for _ in range(count):
        acc = reduce(mat_mul, [rng.choice(gens) for _ in range(rng.randint(1, 8))])
        out.append(tuple(tuple((e.x, e.y) for e in row) for row in acc))
    return out


def verify_gamma0_conjugation(sigma: int, count: int = 100) -> dict:
    """Conjugation by diag(1, sqrt(sigma)) carries DL2+ into Gamma_0(sigma)
    and back; verified on generated samples in both directions."""
    samples = _dl_plus_samples(sigma, count)
    into = 0
    for mat in samples:
        (a, b), (c, d) = mat
        if not (a[1] == 0 and d[1] == 0 and b[0] == 0 and c[0] == 0):
            raise PreconditionError(f"sample {mat} is not in DL2+")
        # g M g^-1 has the certificate's images of M's columns as columns
        (x, z), (y, w) = (_lattice(col, sigma) for col in ((RED, a[0], c[1]),
                                                            (BLUE, b[1], d[0])))
        if mat_det(((x, y), (z, w))) in (1, -1) and z % sigma == 0:
            into += 1
    rng = random.Random(11)
    gens = (((1, 1), (0, 1)), ((1, 0), (sigma, 1)), ((-1, 0), (0, 1)))
    back = 0
    for _ in range(count):
        acc = ((1, 0), (0, 1))
        for _ in range(rng.randint(1, 8)):
            acc = mat_mul(acc, rng.choice(gens))
        # g^-1 M g = [[a, b*sqrt(s)], [c/sqrt(s), d]]
        back += acc[1][0] % sigma == 0
    return {
        "sigma": sigma,
        "dl_plus_into_gamma0": into,
        "dl_plus_samples": len(samples),
        "gamma0_back_into_dl_plus": back,
        "gamma0_samples": count,
        "ok": into == len(samples) and back == count,
    }


# --- reduced indefinite forms ----------------------------------------------

def is_reduced_indefinite(form: Form, d: int) -> bool:
    a, b, c = form
    if b <= 0 or b * b >= d or a == 0:
        return False
    t = 2 * abs(a)
    # sqrt(d) - b < 2|a| < sqrt(d) + b, decided exactly
    if (t + b) ** 2 <= d:
        return False
    if t - b >= 0 and (t - b) ** 2 >= d:
        return False
    return True


def cycle_fingerprint(form: Form) -> tuple[Form, ...]:
    """Canonical SL2-class label for an indefinite form: its sorted cycle."""
    return tuple(sorted(indefinite_cycle(form)))


# --- dibases ----------------------------------------------------------------

def dibasis_det(r: Divector, b: Divector, sigma: int) -> int:
    """Determinant of the dilinear matrix with rows r (red) and b (blue)."""
    if r.color != RED or b.color != BLUE:
        raise DibasisError(
            f"{_shown(r)}, {_shown(b)} are not a red and a blue divector")
    return r.u * b.v - sigma * r.v * b.u


def is_dibasis(d1: Divector, d2: Divector, sigma: int) -> bool:
    return _face_det(d1, d2, sigma) in (1, -1)


# --- divector arithmetic for the single-step oracles ------------------------

def dv_add(d1, d2, k: int = 1) -> Divector:
    """d1 + k d2, for (color, u, v) faces of one colour."""
    if d1[0] != d2[0]:
        raise DibasisError(f"{_shown(d1)} and {_shown(d2)} differ in colour")
    return Divector(d1[0], d1[1] + k * d2[1], d1[2] + k * d2[2])


def dv_sub(d1, d2) -> Divector:
    return dv_add(d1, d2, -1)


def times_sqrt(d, sigma: int) -> Divector:
    """sqrt(sigma) d: multiplication by sqrt(sigma) swaps the colour."""
    color, u, v = d
    if color == RED:
        return Divector(BLUE, u, sigma * v)
    return Divector(RED, sigma * u, v)


# --- pinwheel keys, read both ways ------------------------------------------

def _lax_face(face) -> tuple:
    c, u, v = face
    return (c, -u, -v) if u < 0 or (u == 0 and v < 0) else (c, u, v)


def two_reading_key(faces) -> tuple:
    """The pinwheel key as the least of both readings: the lax faces are
    distinct, so each reading starts at the least face, one forward and one
    backward, and the key is the lesser of the two tuples."""
    laxed = [_lax_face(f) for f in faces]
    m = laxed.index(min(laxed))
    return min(tuple(laxed[m:] + laxed[:m]), tuple(laxed[m::-1] + laxed[:m:-1]))


def indexed_seams(faces, key) -> tuple:
    """(base, sign) with slot i's faces, faces[i] and faces[i + 1] lax, at
    key[base + sign * i - 1] and key[base + sign * i], found by searching the
    key for the first two faces: the key reads the lax faces rotated, and
    perhaps reflected."""
    j = key.index(_lax_face(faces[0]))
    if key[j + 1 - len(key)] == _lax_face(faces[1]):
        return j + 1 - len(key), 1
    return j, -1


# --- Hermitian values and primitivity over Z[i] and Z[w] ---------------------

def unit_invariance_holds(h: BHF, v: RVec) -> bool:
    base = h(v)
    return all(h((e * v[0], e * v[1])) == base for e in units(h.ring))


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
