"""Maximal flags of the (3,inf) topograph and the PGL_2(Z) action on them.

The three involutions that each move one component of the standard flag
generate PGL_2(Z) as the (3,inf) reflection group.  That the action is
simply transitive, and the Gamma_0(sigma) conjugation behind ``diform``'s
river certificate, are checked in the tests (``tests/reference.py``).
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InconsistentInputError, NotUnimodularError
from .lax import (STANDARD_SUPERBASE, Mat, Superbase, Vec, lax, mat_apply, mat_det,
                  mat_mul, normalize_superbase)


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
