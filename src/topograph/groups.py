"""Checks of the group correspondences behind the topographs, run by the
acceptance criteria and the tests, not by the CLI: PGL_2(Z) acts simply
transitively on the maximal flags of the (3,inf) topograph, and conjugation
by diag(1, sqrt(sigma)) carries the plus part of the dilinear group into
Gamma_0(sigma), as ``diform``'s river certificate uses.
"""

from __future__ import annotations

from typing import NamedTuple

from .diform import _lattice
from .dilinear import BLUE, RED
from .errors import InconsistentInputError, NotUnimodularError, PreconditionError
from .lax import (STANDARD_SUPERBASE, Mat, Superbase, Vec, lax, mat_apply, mat_det,
                  mat_mul, neighbors, normalize_superbase)


class Flag(NamedTuple):
    """Maximal arithmetic flag: vector in basis in superbase."""

    vector: Vec
    basis: frozenset
    superbase: tuple

    @staticmethod
    def make(vector: Vec, basis, superbase: Superbase) -> "Flag":
        vector = lax(vector)
        basis = frozenset(lax(b) for b in basis)
        sk = superbase.key()
        if vector not in basis or not basis <= set(sk):
            raise InconsistentInputError("flag incidence violated")
        return Flag(vector, basis, sk)


STANDARD_FLAG = Flag.make((1, 0), [(1, 0), (0, 1)], STANDARD_SUPERBASE)


def pgl_key(m: Mat) -> Mat:
    """Canonical sign for an element of PGL_2(Z)."""
    flat = (m[0][0], m[0][1], m[1][0], m[1][1])
    for e in flat:
        if e != 0:
            if e < 0:
                return ((-m[0][0], -m[0][1]), (-m[1][0], -m[1][1]))
            return m
    return m


def act(m: Mat, f: Flag) -> Flag:
    """Componentwise unimodular action on a flag."""
    if mat_det(m) not in (1, -1):
        raise NotUnimodularError("matrix must have determinant +-1")
    sb = normalize_superbase([mat_apply(m, v) for v in f.superbase])
    return Flag.make(mat_apply(m, f.vector), [mat_apply(m, b) for b in f.basis], sb)


def _stabilizer_search(move_index: int) -> Mat:
    """First matrix with entries in {-1,0,1}, |det| = 1, fixing two components
    of the standard flag and moving the one at move_index."""
    rng = (-1, 0, 1)
    for a in rng:
        for b in rng:
            for c in rng:
                for d in rng:
                    m = ((a, b), (c, d))
                    if mat_det(m) not in (1, -1):
                        continue
                    g = act(m, STANDARD_FLAG)
                    moved = [x != y for x, y in zip(g, STANDARD_FLAG)]
                    if moved == [i == move_index for i in range(3)]:
                        if pgl_key(m) != pgl_key(((1, 0), (0, 1))):
                            return m
    raise InconsistentInputError("stabilizer search failed")


def coxeter_generators() -> tuple[list[Mat], dict]:
    """Three involutions generating PGL_2(Z) as the (3,inf) reflection group.

    g0 moves the flag's vector, g1 its basis, g2 its superbase.  The report
    confirms the defining relations projectively.
    """
    gens = [_stabilizer_search(i) for i in range(3)]
    g0, g1, g2 = gens
    ident = pgl_key(((1, 0), (0, 1)))
    g0g1 = mat_mul(g0, g1)
    report = {
        "involutions": [pgl_key(mat_mul(g, g)) == ident for g in gens],
        "braid_cubed": pgl_key(mat_mul(mat_mul(g0g1, g0g1), g0g1)) == ident,
        "commute_02": pgl_key(mat_mul(g0, g2)) == pgl_key(mat_mul(g2, g0)),
    }
    return gens, report


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
    import random
    from functools import reduce

    from .rings import QRE, ZSQRT2, ZSQRT3

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
    import random

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
