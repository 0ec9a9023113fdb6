"""Conway's (3,inf) geometry over Z.

Faces are primitive lax vectors (coprime pairs mod global sign), edges are
lax bases (unimodular pairs), points are lax superbases (triples, pairwise
unimodular, with signed representatives summing to zero).  Maximal flags are
incident (vector, basis, superbase) triples, acted on simply-transitively by
PGL_2(Z).
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (
    InconsistentInputError,
    NotASuperbaseError,
    NotUnimodularError,
    brief,
)

Vec = tuple[int, int]


def lax(v: Vec) -> Vec:
    """Canonical representative of a lax vector: x > 0, or x == 0 and y > 0."""
    x, y = v
    if x < 0 or (x == 0 and y < 0):
        return (-x, -y)
    return (x, y)


def det(u: Vec, v: Vec) -> int:
    return u[0] * v[1] - u[1] * v[0]


def vsub(u: Vec, v: Vec) -> Vec:
    return (u[0] - v[0], u[1] - v[1])


def vadd(u: Vec, v: Vec) -> Vec:
    return (u[0] + v[0], u[1] + v[1])


class Superbase(NamedTuple):
    """Lax superbase, stored as signed vectors u + v + w = 0.

    The stored triple is canonical: the lax representatives are sorted
    lexicographically and the sign pattern is the unique zero-sum choice with
    the first vector in lax-normal form.
    """

    u: Vec
    v: Vec
    w: Vec

    def key(self) -> tuple[Vec, Vec, Vec]:
        return tuple(sorted(lax(t) for t in self))


def normalize_superbase(vectors) -> Superbase:
    """Canonicalize three vectors into a Superbase (signs summing to zero)."""
    vs = [tuple(int(c) for c in v) for v in vectors]
    if len(vs) != 3:
        raise NotASuperbaseError("need exactly three vectors")
    for i in range(3):
        for j in range(i + 1, 3):
            if det(vs[i], vs[j]) not in (1, -1):
                raise NotASuperbaseError(
                    f"pair {brief(vs[i])}, {brief(vs[j])} is not unimodular")
    a, b, c = sorted(lax(v) for v in vs)
    for sb in (1, -1):
        for sc in (1, -1):
            s = (a[0] + sb * b[0] + sc * c[0], a[1] + sb * b[1] + sc * c[1])
            if s == (0, 0):
                return Superbase(a, (sb * b[0], sb * b[1]), (sc * c[0], sc * c[1]))
    raise InconsistentInputError("signs cannot be flipped to a zero sum")


STANDARD_SUPERBASE = normalize_superbase([(1, 0), (0, 1), (-1, -1)])


def neighbors(s: Superbase) -> list[Superbase]:
    """The three superbases sharing one edge (lax basis) with s.

    Entry j keeps the pair opposite vector j and replaces that vector by the
    difference of the pair; the move is an involution.
    """
    out = []
    for j in range(3):
        p, q = s[(j + 1) % 3], s[(j + 2) % 3]
        out.append(normalize_superbase([p, q, vsub(p, q)]))
    return out


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

Mat = tuple[tuple[int, int], tuple[int, int]]


def mat_det(m: Mat) -> int:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def mat_mul(m: Mat, n: Mat) -> Mat:
    return (
        (m[0][0] * n[0][0] + m[0][1] * n[1][0], m[0][0] * n[0][1] + m[0][1] * n[1][1]),
        (m[1][0] * n[0][0] + m[1][1] * n[1][0], m[1][0] * n[0][1] + m[1][1] * n[1][1]),
    )


def mat_apply(m: Mat, v: Vec) -> Vec:
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def change_of_basis(p0: Vec, n0: Vec, p1: Vec, n1: Vec) -> Mat | None:
    """T with T p0 = p1 and T n0 = n1 if (p0, n0) is unimodular, else None."""
    d = det(p0, n0)
    if d not in (1, -1):
        return None
    # the inverse of the column matrix [p0 n0] is its adjugate over d
    return mat_mul(((p1[0], n1[0]), (p1[1], n1[1])),
                   ((n0[1] * d, -n0[0] * d), (-p0[1] * d, p0[0] * d)))


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
