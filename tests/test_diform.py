import math
import random
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
import topograph.diform as diform_module
import topograph.dilinear as dilinear_module
import topograph.walk as walk_module
from topograph import render
from reference import (dibasis_det, dv_add, dv_sub, is_dibasis, times_sqrt,
                       verify_gamma0_conjugation)
from topograph.classical import is_square, red_blue_forms, reduce_definite
from topograph.bqf import BQF
from topograph.diform import (
    DiRiverStep,
    _bends,
    _cells,
    _cross,
    _find_river_edge,
    _lattice,
    _run,
    _translation_automorph,
    _well,
    diform_river,
    diform_well,
)
from topograph.dilinear import (
    BLUE,
    BQD,
    Divector,
    RED,
    STANDARD_DIBASIS,
    DiCellValues,
    Pinwheel,
    _across,
    _cell_pairs,
    _local_form,
    _shown,
    dicell_values,
    pinwheel_complete,
    pinwheel_faces,
    pinwheel_key,
)
from topograph.errors import (
    BudgetError,
    ClassificationError,
    DibasisError,
    PreconditionError,
    SquareDiscriminantError,
)
from topograph.lax import mat_mul
from topograph.rings import QRE, ZSQRT2, ZSQRT3


def is_square_diform_disc(q: BQD) -> bool:
    return is_square(q.discriminant())


def random_dibasis(rng, sigma):
    while True:
        r = Divector(RED, rng.randint(-9, 9), rng.randint(-9, 9))
        b = Divector(BLUE, rng.randint(-9, 9), rng.randint(-9, 9))
        if is_dibasis(r, b, sigma):
            return r, b


def test_pinwheel_fixture_sigma_2():
    pw = pinwheel_complete(*STANDARD_DIBASIS, 2)
    faces = [(f.color, f.u, f.v) for f in pw.faces]
    assert faces == [
        (RED, 1, 0), (BLUE, 0, 1), (RED, -1, 1), (BLUE, -1, 1),
    ]


def all_rotations_key(faces):
    """The pinwheel key as first written: the least of every rotation of
    the lax faces, read forward and backward."""
    keys = [(f.color, f.lax().u, f.lax().v) for f in faces]
    return min(tuple(seq[i:] + seq[:i])
               for seq in (keys, keys[::-1]) for i in range(len(keys)))


@pytest.mark.parametrize("sigma", [2, 3])
def test_pinwheel_key_matches_all_rotations(sigma):
    rng = random.Random(sigma)
    for _ in range(300):
        pw = pinwheel_complete(*random_dibasis(rng, sigma), sigma)
        faces = list(pw.faces)
        assert pw.key() == all_rotations_key(faces)
        # the key forgets the start, the direction and the signs
        i = rng.randrange(len(faces))
        moved = faces[i:] + faces[:i]
        moved = [-f if rng.random() < 0.5 else f for f in moved]
        if rng.random() < 0.5:
            moved.reverse()
        assert dilinear_module.Pinwheel(sigma, tuple(moved)).key() == pw.key()


def _check_reading(faces):
    # the one reading gives the two-reading key and the seams that searching
    # that key for the first two faces finds
    key = reference.two_reading_key(faces)
    assert dilinear_module._pinwheel_reading(faces) == (key, *reference.indexed_seams(faces, key))
    assert pinwheel_key(faces) == key


@pytest.mark.parametrize("geometry, sigma", [("4inf", 2), ("6inf", 3)])
def test_one_reading_matches_both_readings_on_real_vertices(geometry, sigma):
    # every real vertex of the deepest patch the vertex budget admits, built
    # as layout builds it: across each edge but the first, which leads back
    depth = max(d for d in range(1, 64)
                if render.patch_vertices(geometry, d) <= render.VERTEX_BUDGET)
    frontier, seen = [pinwheel_faces((RED, 1, 0), (BLUE, 0, 1), sigma)], 0
    for d in range(depth):
        for faces in frontier:
            _check_reading(faces)
        seen += len(frontier)
        frontier = [_across(faces, i, sigma) for faces in frontier
                    for i in range(d > 0, 2 * sigma)]
    assert seen == render.patch_vertices(geometry, depth)


@pytest.mark.parametrize("sigma", [2, 3])
def test_one_reading_matches_both_readings_far_out(sigma):
    # long chains of _across reach faces past 10**12; each pinwheel is also
    # read from every start, in both directions, with random signs
    rng = random.Random(29 + sigma)
    for _ in range(20):
        faces = pinwheel_faces((RED, 1, 0), (BLUE, 0, 1), sigma)
        for _ in range(120):
            faces = _across(faces, rng.randrange(1, 2 * sigma), sigma)
            _check_reading(faces)
        assert max(abs(x) for _, u, v in faces for x in (u, v)) > 10**12
        for i in range(2 * sigma):
            moved = [(c, -u, -v) if rng.random() < 0.5 else (c, u, v)
                     for c, u, v in faces[i:] + faces[:i]]
            _check_reading(tuple(moved))
            _check_reading(tuple(moved[::-1]))


def test_pinwheel_fixture_sigma_3():
    pw = pinwheel_complete(*STANDARD_DIBASIS, 3)
    assert len(pw.faces) == 6
    assert (pw.faces[-1].color, pw.faces[-1].u, pw.faces[-1].v) == (BLUE, -1, 1)


def test_pinwheel_laxness():
    r, b = STANDARD_DIBASIS
    pw1 = pinwheel_complete(r, b, 2)
    pw2 = pinwheel_complete(-r, -b, 2)
    assert pw1.key() == pw2.key()


def test_pinwheel_random_closure():
    rng = random.Random(11)
    for sigma in (2, 3):
        for _ in range(300):
            r, b = random_dibasis(rng, sigma)
            pw = pinwheel_complete(r, b, sigma)
            assert len(pw.faces) == 2 * sigma
            colors = [f.color for f in pw.faces]
            assert all(colors[i] != colors[(i + 1) % len(colors)]
                       for i in range(len(colors)))


def test_pinwheel_rejects_bad_dibasis():
    with pytest.raises(DibasisError):
        pinwheel_complete(Divector(RED, 2, 0), Divector(BLUE, 0, 2), 2)


def test_evaluation_fixtures():
    assert BQD(2, 1, 1, 3)(Divector(RED, 1, 0)) == 1
    assert BQD(3, 1, 0, -2)(Divector(BLUE, 0, 1)) == -2
    assert BQD(3, 1, 0, -2)(Divector(RED, 1, 1)) == -5


def test_dicell_fixtures():
    cv = dicell_values(BQD(3, 1, 0, -2), *STANDARD_DIBASIS)
    assert (cv.u, cv.v, cv.e, cv.f) == (1, -2, 1, 1)
    assert (3 * cv.u - cv.v) ** 2 - cv.e * cv.f == 24
    assert (cv.m, cv.n) == (-2, -2)
    assert (4 * cv.u - 3 * cv.v) ** 2 - cv.m * cv.n == 4 * 24
    cv2 = dicell_values(BQD(2, 1, 1, 3), *STANDARD_DIBASIS)
    assert (cv2.e, cv2.f) == (3, 7)
    assert cv2.e + cv2.f == 2 * (2 * cv2.u + cv2.v)


def test_dicell_identities_random():
    rng = random.Random(13)
    for sigma in (2, 3):
        for _ in range(500):
            q = BQD(sigma, rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
            cv = dicell_values(q, *random_dibasis(rng, sigma))
            d = q.discriminant()
            assert cv.e + cv.f == 2 * (sigma * cv.u + cv.v)
            assert cv.e2 + cv.f2 == 2 * (cv.u + sigma * cv.v)
            assert cv.f - cv.e == cv.f2 - cv.e2
            assert (sigma * cv.u - cv.v) ** 2 - cv.e * cv.f == d
            if sigma == 3:
                assert cv.m + cv.n == 2 * (4 * cv.u + 3 * cv.v)
                assert cv.m2 + cv.n2 == 2 * (3 * cv.u + 4 * cv.v)
                assert cv.n - cv.m == 2 * (cv.f - cv.e)
                assert (4 * cv.u - 3 * cv.v) ** 2 - cv.m * cv.n == 4 * d


def test_well_fixture():
    w = diform_well(BQD(2, 1, 1, 3))
    assert w["reduced_red"] == (1, 0, 5)
    assert w["reduced_blue"] == (2, 2, 3)


def test_well_symmetric_form_has_flat_edge():
    w = diform_well(BQD(2, 1, 0, 1))
    assert min(w["source_values"]) == 1


def test_well_descent_agrees_from_random_starts():
    rng = random.Random(17)
    q = BQD(2, 2, 1, 4)
    base = diform_well(q)["source"].key()
    for _ in range(10):
        start = random_dibasis(rng, 2)
        assert _well(q, *start)["source"].key() == base


def test_well_rejects_indefinite():
    with pytest.raises(ClassificationError):
        diform_well(BQD(2, 1, 0, -1))


def test_exceptional_rivers():
    assert diform_river(BQD(2, 1, 0, -1)).exceptional
    assert diform_river(BQD(3, 1, 0, -2)).exceptional
    assert diform_river(BQD(3, 1, 0, -1)).exceptional


def test_river_delta_21():
    r = diform_river(BQD(3, 1, 1, -1))
    assert not r.exceptional
    assert r.mu == 1
    assert 25 * r.mu ** 2 <= 2 * 21


def test_river_rejects_degenerate():
    with pytest.raises(SquareDiscriminantError):
        diform_river(BQD(2, 1, 0, 1))  # definite
    with pytest.raises(SquareDiscriminantError):
        diform_river(BQD(2, 1, 0, -2))  # delta = 16 square


def test_gamma0_conjugation():
    for sigma in (2, 3):
        report = verify_gamma0_conjugation(sigma)
        assert report["ok"] is True
        assert report["dl_plus_into_gamma0"] == report["dl_plus_samples"]


@pytest.mark.parametrize("op", [dv_add, dv_sub], ids=["add", "sub"])
def test_divector_arithmetic_rejects_mixed_colours(op):
    # the oracles' own sums, in tests/reference.py
    r, b = STANDARD_DIBASIS
    with pytest.raises(DibasisError):
        op(r, b)


def test_dibasis_det_rejects_wrong_colours():
    r, b = STANDARD_DIBASIS
    with pytest.raises(DibasisError):
        dibasis_det(b, r, 2)


def test_pinwheel_rejects_an_open_recurrence():
    # sqrt(5) turns the recurrence hyperbolic: ten faces do not close
    with pytest.raises(DibasisError):
        pinwheel_complete(*STANDARD_DIBASIS, 5)


def test_pinwheel_rejects_a_non_dibasis_edge(monkeypatch):
    calls = []

    def first_call_only(d1, d2, sigma):
        calls.append((d1, d2))
        return 1 if len(calls) == 1 else 0

    monkeypatch.setattr(dilinear_module, "_face_det", first_call_only)
    with pytest.raises(DibasisError):
        pinwheel_complete(*STANDARD_DIBASIS, 2)


def test_gamma0_conjugation_rejects_a_sample_outside_dl_plus(monkeypatch):
    minus = (((0, 0), (1, 0)), ((-1, 0), (0, 0)))
    monkeypatch.setattr(reference, "_dl_plus_samples",
                        lambda sigma, count: [minus])
    with pytest.raises(PreconditionError):
        verify_gamma0_conjugation(2, 1)


# --- oracles for the run-length walks ----------------------------------------

# The walks read values off local forms; the single-step oracles below
# evaluate Q on divectors instead.

def divector_cell_values(q: BQD, r: Divector, b: Divector) -> DiCellValues:
    """Flanking values of the edge {r, b}; e/e' (and m/m' for sigma = 3) sit
    around the pinwheel generated by (r, b), f/f' (n/n') around the other."""
    sigma = q.sigma
    if r.color != RED:
        r, b = b, r
    if not is_dibasis(r, b, sigma):
        raise DibasisError("cell values need a dibasis")
    sr = times_sqrt(r, sigma)
    sb = times_sqrt(b, sigma)
    u, v = q(r), q(b)
    e, f = q(dv_sub(sr, b)), q(dv_add(sr, b))
    e2, f2 = q(dv_sub(r, sb)), q(dv_add(r, sb))
    m = n = m2 = n2 = None
    if sigma == 3:
        r2 = Divector(RED, 2 * r.u, 2 * r.v)
        b2 = Divector(BLUE, 2 * b.u, 2 * b.v)
        m, n = q(dv_sub(r2, sb)), q(dv_add(r2, sb))
        m2, n2 = q(dv_sub(sr, b2)), q(dv_add(sr, b2))
    step = (f - e) // 2
    return DiCellValues(u, v, e, f, e2, f2, m, n, m2, n2, step)


def _vertex_weight(q: BQD, vertex: Pinwheel) -> int:
    return sum(q(f) for f in vertex.faces)


def _edge_is_bend(q: BQD, p: Divector, s: Divector) -> bool:
    cv = divector_cell_values(q, p, s)
    if cv.e * cv.f < 0 or cv.e2 * cv.f2 < 0:
        return True
    if q.sigma == 3 and (cv.m * cv.n < 0 or cv.m2 * cv.n2 < 0):
        return True
    return False


def _other_vertex(p: Divector, s: Divector, vertex: Pinwheel, sigma: int) -> Pinwheel:
    """The second pinwheel containing the edge {p, s} of ``vertex``.

    In the signed cycle of ``vertex`` (its faces, then their negatives) the
    recurrence runs from p through a neighbour; the pinwheel across the edge
    runs the other way, so it is generated by (p, -s) when s is a neighbour
    of p there, and by (p, s) when -s is.
    """
    cycle = vertex.faces + tuple(-f for f in vertex.faces)
    try:
        i = cycle.index(p)
    except ValueError:
        first, second = vertex.faces[:2]
        raise DibasisError(f"{_shown(p)} is not a face of the pinwheel of "
                           f"{_shown(first)}, {_shown(second)}") from None
    if s in (cycle[i - 1], cycle[(i + 1) % len(cycle)]):
        return pinwheel_complete(p, -s, sigma)
    return pinwheel_complete(p, s, sigma)


def two_candidate_other_vertex(p, s, vertex, sigma):
    """The far vertex of {p, s} as the pinwheel of (p, -s) or (p, s) whose
    key differs from the vertex's."""
    for cand in (pinwheel_complete(p, -s, sigma), pinwheel_complete(p, s, sigma)):
        if cand.key() != vertex.key():
            return cand
    raise DibasisError("edge has no second vertex")


def single_step_well(q: BQD, start=None):
    """The single-step descent the run-length walk replaced: move to the
    lowest strictly lower neighbour, ties to the least key."""
    sigma = q.sigma
    vertex = pinwheel_complete(*(start or STANDARD_DIBASIS), sigma)
    weight = _vertex_weight(q, vertex)
    while True:
        best = None
        for p, s in vertex.edges():
            nb = two_candidate_other_vertex(p, s, vertex, sigma)
            w = _vertex_weight(q, nb)
            if w < weight and (best is None or w < best[0]
                               or (w == best[0] and nb.key() < best[1].key())):
                best = (w, nb)
        if best is None:
            break
        weight, vertex = best
    flats = []
    for p, s in vertex.edges():
        nb = two_candidate_other_vertex(p, s, vertex, sigma)
        if _vertex_weight(q, nb) == weight:
            flats.append(tuple(sorted([vertex.key(), nb.key()])))
    return vertex, tuple(sorted(set(flats)))


# --- the Z[sqrt(sigma)] river certificate that Gamma_0 replaced, as oracle ---


def _raw_coords(d: tuple):
    """(x, y) with each component as (integer part, sqrt(sigma) part)."""
    color, u, v = d
    if color == RED:
        return ((u, 0), (0, v))
    return ((0, u), (v, 0))


def _qre_mul(a, b, sigma):
    return (a[0] * b[0] + sigma * a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _qre_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _qre_det(t, sigma):
    x, y = _qre_mul(t[0][0], t[1][1], sigma), _qre_mul(t[0][1], t[1][0], sigma)
    return (x[0] - y[0], x[1] - y[1])


def _mat_mul(m, n, sigma):
    """The product of 2x2 matrices over Z[sqrt(sigma)], entries (x, y) pairs."""
    return tuple(
        tuple(_qre_add(_qre_mul(m[i][0], n[0][j], sigma),
                       _qre_mul(m[i][1], n[1][j], sigma)) for j in range(2))
        for i in range(2))


def _columns(p: tuple, q: tuple):
    """The matrix with columns p and q."""
    return tuple(zip(_raw_coords(p), _raw_coords(q)))


def _change_of_dibasis(e0, e1, sigma):
    """T over Z[sqrt(sigma)] with T e0 = e1 (columnwise), when det e0 = +-1."""
    (a, b), (c, d) = m0 = _columns(*e0)
    det = _qre_det(m0, sigma)
    if det not in ((1, 0), (-1, 0)):
        return None
    s = det[0]

    def scl(v, k):
        return (k * v[0], k * v[1])

    # the inverse of m0 is its adjugate over det = s
    inv = ((scl(d, s), scl(b, -s)), (scl(c, -s), scl(a, s)))
    return _mat_mul(_columns(*e1), inv, sigma)


def _preserves_form(t, q: BQD) -> bool:
    """Exact Gram check: T^t G T == G with G = [[2a, b*sqrt(s)], [b*sqrt(s), 2c]]."""
    g = (((2 * q.a, 0), (0, q.b)), ((0, q.b), (2 * q.c, 0)))
    t_transposed = ((t[0][0], t[1][0]), (t[0][1], t[1][1]))
    return _mat_mul(_mat_mul(t_transposed, g, q.sigma), t, q.sigma) == g


def is_dilinear(t, sigma: int) -> bool:
    """Does the matrix (entries as (x, y) pairs) have a dilinear pattern?"""
    (a, b), (c, d) = t
    plus = a[1] == 0 and d[1] == 0 and b[0] == 0 and c[0] == 0
    minus = a[0] == 0 and d[0] == 0 and b[1] == 0 and c[1] == 0
    return plus or minus


def _neg(face: tuple) -> tuple:
    color, u, v = face
    return color, -u, -v


def reference_translation_automorph(e0, e1, q: BQD):
    """An orientation-preserving dilinear map carrying the lax edge e0 to e1
    and fixing Q, or None.  Sign flips of e0 reach the same lax edge; maps of
    determinant -1 are reflections of the river, not translations."""
    sigma = q.sigma
    p0, n0 = e0
    for flip in (n0, _neg(n0)):
        t = _change_of_dibasis((p0, flip), e1, sigma)
        if (t is not None and _qre_det(t, sigma) == (1, 0)
                and is_dilinear(t, sigma) and _preserves_form(t, q)):
            return t
    return None


def single_step_river_edge(q: BQD):
    sigma = q.sigma
    vertex = pinwheel_complete(*STANDARD_DIBASIS, sigma)
    while True:
        vals = [q(f) for f in vertex.faces]
        n = len(vals)
        for i in range(n):
            a, b = vals[i], vals[(i + 1) % n]
            if a > 0 > b:
                return vertex.faces[i], vertex.faces[(i + 1) % n], vertex
            if b > 0 > a:
                return vertex.faces[(i + 1) % n], vertex.faces[i], vertex
        sign = 1 if vals[0] > 0 else -1
        weight = sign * sum(vals)
        best = None
        for p, s in vertex.edges():
            nb = two_candidate_other_vertex(p, s, vertex, sigma)
            w = sign * _vertex_weight(q, nb)
            if w < weight and (best is None or w < best[0]):
                best = (w, nb)
        vertex = best[1]


def single_step_river(q: BQD):
    """Walk the river one edge at a time until a translation automorph
    closes the period; returns (automorph, mu, witness, exceptional,
    edges, bends)."""
    p, neg, vertex = single_step_river_edge(q)
    p0, n0 = p, neg
    steps = []
    face_values = {}
    while True:
        steps.append(DiRiverStep(p, neg, _edge_is_bend(q, p, neg)))
        for f in vertex.faces:
            face_values.setdefault((f.color, f.lax().u, f.lax().v), q(f))
        vals = [q(f) for f in vertex.faces]
        n = len(vals)
        crossings = []
        for i in range(n):
            x, y = vertex.faces[i], vertex.faces[(i + 1) % n]
            if {x.lax(), y.lax()} == {p.lax(), neg.lax()}:
                continue
            if vals[i] * vals[(i + 1) % n] < 0:
                crossings.append((x, y))
        assert len(crossings) == 1
        x, y = crossings[0]
        p, neg = (x, y) if q(x) > 0 else (y, x)
        vertex = two_candidate_other_vertex(p, neg, vertex, q.sigma)
        if (q(p), q(neg)) == (q(p0), q(n0)) and (p, neg) != (p0, n0):
            t = reference_translation_automorph((p0, n0), (p, neg), q)
            if t is not None:
                break
    bends = sum(s.bend for s in steps)
    mu = wit = None
    if bends:
        wit_key = min(face_values, key=lambda k: (abs(face_values[k]), k))
        mu, wit = abs(face_values[wit_key]), Divector(*wit_key)
    return t, mu, wit, bends == 0, len(steps), bends


def faces(pw):
    return [(f.color, f.u, f.v) for f in pw.faces]


def patch(sigma: int, depth: int):
    """Every pinwheel within ``depth`` edges of the standard one."""
    start = pinwheel_complete(*STANDARD_DIBASIS, sigma)
    seen = {start.key(): start}
    frontier = [start]
    for _ in range(depth):
        nxt = []
        for pw in frontier:
            for p, s in pw.edges():
                t = two_candidate_other_vertex(p, s, pw, sigma)
                if t.key() not in seen:
                    seen[t.key()] = t
                    nxt.append(t)
        frontier = nxt
    return list(seen.values())


@pytest.mark.parametrize("sigma", [2, 3])
def test_other_vertex_matches_two_candidates_on_patches(sigma):
    # the river walk passes the positive face first, so both orders occur
    for pw in patch(sigma, 4):
        for p, s in pw.edges():
            for a, b in ((p, s), (s, p)):
                assert (faces(_other_vertex(a, b, pw, sigma))
                        == faces(two_candidate_other_vertex(a, b, pw, sigma)))


def test_other_vertex_rejects_a_face_not_at_the_vertex():
    pw = pinwheel_complete(*STANDARD_DIBASIS, 2)
    with pytest.raises(DibasisError):
        _other_vertex(Divector(RED, 3, 1), pw.faces[1], pw, 2)


@pytest.mark.parametrize("sigma", [2, 3])
def test_flat_edge_keys_match_two_candidate_neighbours(sigma):
    # b = 0 and a = c forms have flat edges at their source
    rng = random.Random(sigma)
    forms = [(a, 0, c) for a in range(1, 9) for c in range(1, 9)]
    forms += [(a, b, a) for a in range(1, 9) for b in range(-5, 6)]
    forms += [tuple(rng.randint(-40, 40) for _ in range(3)) for _ in range(1200)]
    flat = 0
    for q in (BQD(sigma, *f) for f in forms):
        if q.a <= 0 or q.discriminant() >= 0:
            continue
        w = diform_well(q)
        source = w["source"]
        want = set()
        for i, (p, s) in enumerate(source.edges()):
            nb = two_candidate_other_vertex(p, s, source, sigma)
            assert pinwheel_key(_across(source.faces, i, sigma)) == nb.key()
            if _vertex_weight(q, nb) == _vertex_weight(q, source):
                want.add(tuple(sorted([source.key(), nb.key()])))
        assert w["flat_edges"] == tuple(sorted(want))
        flat += bool(want)
    assert flat >= 50


def test_dibasis_errors_name_huge_divectors():
    # str() of a 5,001-digit integer raises ValueError; the message gives
    # its bit length instead
    huge = Divector(RED, 10 ** 5000, 1)
    with pytest.raises(DibasisError, match="16610/1-bit"):
        pinwheel_complete(huge, Divector(BLUE, 1, 1), 2)
    pw = pinwheel_complete(*STANDARD_DIBASIS, 2)
    with pytest.raises(DibasisError, match="16610/1-bit.* not a face"):
        _other_vertex(huge, pw.faces[1], pw, 2)


def shear(form, sigma, move, t):
    """The diform after x -> x + t sqrt(sigma) y ("x"), y -> y + t sqrt(sigma) x
    ("y"), or the swap of x and y ("s")."""
    a, b, c = form
    if move == "x":
        return a, 2 * a * t + b, a * t * t * sigma + b * t * sigma + c
    if move == "y":
        return c * t * t * sigma + b * t * sigma + a, 2 * c * t + b, c
    return c, b, a


def shear_dibasis(dibasis, sigma, move, t):
    """The dibasis after r -> r + t sqrt(sigma) b ("x"), b -> b + t sqrt(sigma) r
    ("y"), or negating b ("s")."""
    r, b = dibasis
    if move == "x":
        return dv_add(r, times_sqrt(b, sigma), t), b
    if move == "y":
        return r, dv_add(b, times_sqrt(r, sigma), t)
    return r, -b


moves = st.lists(st.tuples(st.sampled_from("xys"), st.integers(-40, 40)), max_size=4)


@st.composite
def moved_diforms(draw, definite: bool):
    sigma = draw(st.sampled_from((2, 3)))
    if definite:
        a, c = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        bmax = math.isqrt((4 * a * c - 1) // sigma)
        form = (a, draw(st.integers(-bmax, bmax)), c)
    else:
        form = tuple(draw(st.integers(-6, 6)) for _ in range(3))
    for move, t in draw(moves):
        form = shear(form, sigma, move, t)
    q = BQD(sigma, *form)
    if not definite:
        d = q.discriminant()
        assume(d > 0 and not is_square_diform_disc(q) and q.is_primitive())
    return q


@settings(max_examples=100, deadline=None)
@given(moved_diforms(definite=True), moves)
def test_well_matches_single_step_walker(q, start_moves):
    start = STANDARD_DIBASIS
    for move, t in start_moves:
        start = shear_dibasis(start, q.sigma, move, t)
    w = _well(q, *start)
    source, flats = single_step_well(q, start)
    assert faces(w["source"]) == faces(source)
    assert w["source_values"] == tuple(q(f) for f in source.faces)
    assert w["flat_edges"] == flats
    red, blue = red_blue_forms(*q)
    assert (w["reduced_red"], w["reduced_blue"]) == (reduce_definite(red),
                                                     reduce_definite(blue))


@settings(max_examples=100, deadline=None)
@given(moved_diforms(definite=False))
def test_river_edge_matches_single_step_walker(q):
    i, d0, d1, cells = _find_river_edge(q, math.isqrt(q.discriminant()))
    vertex = pinwheel_complete(d0, d1, q.sigma)
    x, y = vertex.faces[i], vertex.faces[(i + 1) % len(vertex.faces)]
    p, neg = (x, y) if q(x) > 0 else (y, x)
    p1, neg1, vertex1 = single_step_river_edge(q)
    assert (p, neg, faces(vertex)) == (p1, neg1, faces(vertex1))
    assert [c[0] for c in cells] == [q(f) for f in vertex.faces]


@settings(max_examples=100, deadline=None)
@given(moved_diforms(definite=False))
def test_river_period_matches_single_step_walker(q):
    r = diform_river(q)
    got = (r.automorph, r.mu, r.witness, r.exceptional, r.edge_count, r.bend_count)
    assert got == single_step_river(q)
    assert len(r.steps) <= r.edge_count
    assert sum(s.bend for s in r.steps) == r.bend_count


@pytest.mark.parametrize("sigma", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 37, 150])
def test_far_forms_match_single_step_walker(sigma, k):
    # the single-step walker needs about k steps to reach the well or river
    q = BQD(sigma, 1, 2 * k, sigma * k * k + 1)
    w = diform_well(q)
    source, flats = single_step_well(q)
    assert (faces(w["source"]), w["flat_edges"]) == (faces(source), flats)
    q = BQD(sigma, 1, 2 * k, sigma * k * k - 1)
    r = diform_river(q)
    got = (r.automorph, r.mu, r.witness, r.exceptional, r.edge_count, r.bend_count)
    assert got == single_step_river(q)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((2, 3)), st.integers(1, 10 ** 9), st.sampled_from((-1, 1)))
def test_far_forms_beyond_the_old_step_cap(sigma, k, e):
    # (x + k sqrt(sigma) y)^2 + e y^2: the well or river of (1, 0, e), about
    # k steps away
    q = BQD(sigma, 1, 2 * k, sigma * k * k + e)
    near = BQD(sigma, 1, 0, e)
    if e > 0:
        w = diform_well(q)
        vals = list(w["source_values"])
        weight = sum(vals)
        for p, s in w["source"].edges():
            assert _vertex_weight(q, _other_vertex(p, s, w["source"], sigma)) >= weight
        assert sorted(vals) == sorted(diform_well(near)["source_values"])
        red, blue = red_blue_forms(*q)
        assert w["reduced_red"] == reduce_definite(red)
        assert w["reduced_blue"] == reduce_definite(blue)
    else:
        r = diform_river(q)
        ref = diform_river(near)
        assert (r.exceptional, r.edge_count, r.bend_count) == (
            ref.exceptional, ref.edge_count, ref.bend_count)
        assert_dilinear_automorph(r.automorph, q)


# --- the automorph certificate through Gamma_0(sigma) -------------------------

def assert_dilinear_automorph(t, q: BQD):
    """T, entries as (x, y) pairs, is dilinear of determinant 1 and fixes Q:
    T^t G T == G over rings.QRE, G = [[2a, b sqrt(sigma)], [b sqrt(sigma), 2c]]."""
    (a, b), (c, d) = t
    assert (a[1] == d[1] == b[0] == c[0] == 0) or (a[0] == d[0] == b[1] == c[1] == 0)
    ring = {2: ZSQRT2, 3: ZSQRT3}[q.sigma]
    m = tuple(tuple(QRE(ring, *e) for e in row) for row in t)
    (ma, mb), (mc, md) = m
    assert ma * md - mb * mc == QRE(ring, 1, 0)
    g = ((QRE(ring, 2 * q.a, 0), QRE(ring, 0, q.b)),
         (QRE(ring, 0, q.b), QRE(ring, 2 * q.c, 0)))
    assert mat_mul(mat_mul(((ma, mc), (mb, md)), g), m) == g


def apply_dilinear(t, d: tuple, sigma: int) -> Divector:
    """The divector T d, T's entries as (x, y) pairs."""
    x0, y0 = _raw_coords(d)
    x, y = (_qre_add(_qre_mul(r0, x0, sigma), _qre_mul(r1, y0, sigma)) for r0, r1 in t)
    if x[1] == 0 and y[0] == 0:
        return Divector(RED, x[0], y[1])
    return Divector(BLUE, x[1], y[0])


def river_edges(r) -> list:
    """The edges the river walk recorded, then the automorph's image of the
    start edge."""
    edges = [(s.pos, s.neg) for s in r.steps]
    sigma = r.form.sigma
    return edges + [tuple(apply_dilinear(r.automorph, f, sigma) for f in edges[0])]


def swaps_colours(t, sigma: int) -> bool:
    return apply_dilinear(t, (RED, 1, 0), sigma).color == BLUE


# the pair matrices of the moves in ``shear``: x -> x + t sqrt(sigma) y,
# y -> y + t sqrt(sigma) x, and the colour swap W of x and y
def move_matrix(move: str, t: int):
    if move == "x":
        return ((1, 0), (0, t)), ((0, 0), (1, 0))
    if move == "y":
        return ((1, 0), (0, 0)), ((0, t), (1, 0))
    return ((0, 0), (1, 0)), ((1, 0), (0, 0))


@settings(max_examples=150, deadline=None)
@given(moved_diforms(definite=False), moves)
def test_translation_automorph_matches_reference(q, word):
    sigma = q.sigma
    r = diform_river(q)
    edges = river_edges(r)
    for e1 in edges:
        assert (_translation_automorph(edges[0], e1, q)
                == reference_translation_automorph(edges[0], e1, q))
    assert _translation_automorph(edges[0], edges[-1], q) == r.automorph
    assert_dilinear_automorph(r.automorph, q)
    # move the form and the period by a dilinear word M: M T M^-1 carries
    # M e0 to M e1 and fixes Q o M^-1, whatever colours M sends e0 to
    form, (e0, e1) = tuple(q)[1:], (edges[0], edges[-1])
    for move, t in word:
        m = move_matrix(move, t)
        e0, e1 = (tuple(apply_dilinear(m, f, sigma) for f in e) for e in (e0, e1))
        form = shear(form, sigma, move, -t)
    moved = BQD(sigma, *form)
    auto = _translation_automorph(e0, e1, moved)
    assert auto is not None
    assert auto == reference_translation_automorph(e0, e1, moved)
    assert swaps_colours(auto, sigma) == swaps_colours(r.automorph, sigma)


def test_translation_automorph_matches_reference_on_a_grid():
    kinds = set()
    for sigma, form in product((2, 3), product(range(-4, 5), repeat=3)):
        q = BQD(sigma, *form)
        if (q.discriminant() <= 0 or is_square_diform_disc(q)
                or not q.is_primitive()):
            continue
        r = diform_river(q)
        edges = river_edges(r)
        assert reference_translation_automorph(edges[0], edges[-1], q) == r.automorph
        kinds.add(swaps_colours(r.automorph, sigma))
    assert kinds == {False, True}


def test_colour_swapping_automorph_pinned():
    # the river of (-11, -12, -5) at sigma = 2 starts on the red positive face
    # (-1, 1) and closes one period later on a blue one
    r = diform_river(BQD(2, -11, -12, -5))
    assert r.automorph == (((0, 9), (5, 0)), ((-11, 0), (0, -3)))
    assert swaps_colours(r.automorph, 2)


def lattice_face(v: tuple, sigma: int) -> Divector:
    """The face whose ``diform._lattice`` image is the primitive vector v:
    red (x, y / sigma) when sigma | y, else blue (x, y)."""
    x, y = v
    return Divector(RED, x, y // sigma) if y % sigma == 0 else Divector(BLUE, x, y)


@pytest.mark.parametrize("sigma", [2, 3])
def test_river_is_q_blue_single_step_river_through_gamma0(sigma):
    # diform._lattice conjugates the dilinear group into Gamma_0(sigma): the
    # faces become the primitive vectors, a face is red iff sigma | y,
    # Q_blue(L f) is Q(f), times sigma if f is red, and the diform edges are
    # the Farey edges of Q_blue that join a red face to a blue one.  So the
    # diform river is Q_blue's river with its blue-blue edges left out, and
    # its period closes where the lattice walk meets the automorph's image.
    rng = random.Random(30 + sigma)
    signs = set()
    checked = 0
    while checked < 300:
        q = BQD(sigma, *(rng.randint(-40, 40) for _ in range(3)))
        if q.discriminant() <= 0 or is_square_diform_disc(q) or not q.is_primitive():
            continue
        checked += 1
        r = diform_river(q)
        blue = BQF(*red_blue_forms(*q)[1])
        pos, neg = r.steps[0][:2]
        (x, y), (z, w) = _lattice(pos, sigma), _lattice(neg, sigma)
        p, n = (x, y), (-z, -w)
        edges = []  # the diform edges of the walk, as (P, N)
        while len(edges) <= r.edge_count:
            if (p[1] % sigma == 0) != (n[1] % sigma == 0):
                edges.append((p, n))
            m = (p[0] + n[0], p[1] + n[1])
            if blue(m) > 0:
                p = m
            else:
                n = m
        laxed = [{lattice_face(v, sigma).lax() for v in e} for e in edges]
        for step in r.steps:
            assert {step.pos.lax(), step.neg.lax()} in laxed[:r.edge_count]
        bends = 0
        for e in edges[:r.edge_count]:
            red, bl = e if e[0][1] % sigma == 0 else e[::-1]
            b2 = blue((e[0][0] + e[1][0], e[0][1] + e[1][1])) - blue(e[0]) - blue(e[1])
            bends += any(f * g < 0 for f, g in _cell_pairs(
                blue(red) // sigma, b2 // sigma, blue(bl), sigma))
        assert bends == r.bend_count
        if not r.exceptional:
            assert min((abs(blue(v)) // (sigma if f[0] == RED else 1), *f.lax())
                       for e in edges for v in e
                       for f in [lattice_face(v, sigma)]) == (r.mu, *r.witness)
        image = tuple(apply_dilinear(r.automorph, f, sigma) for f in (pos, neg))
        assert {f.lax() for f in image} == laxed[-1]
        # the walk's next edge, signed as the start: pos = F(P), neg = -F(N)
        p, n = edges[-1]
        walked = (lattice_face(p, sigma), _neg(lattice_face(n, sigma)))
        assert image in (walked, tuple(map(_neg, walked)))
        signs.add(image == walked)
        # the lattice walk's map has a positive trace; one of its entry
        # pairs is zero, by the dilinear pattern
        (a, _), (_, d) = r.automorph
        assert (sum(a) + sum(d)) * (1 if image == walked else -1) > 0
    # the pinwheel walk's automorph is the lattice walk's up to sign, and
    # both signs occur
    assert signs == {True, False}


# Pell diforms (1, 0, -c) whose river periods take more than 100 runs
LONG_RIVER = {2: 1283, 3: 2383}


@pytest.mark.parametrize("sigma", [2, 3])
def test_far_walks_cost_does_not_grow_with_k(sigma, monkeypatch):
    names = ("q", "pinwheel_faces", "pinwheel_complete", "isqrt")
    calls = dict.fromkeys(names, 0)

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    def cost(walk, q):
        calls.update(dict.fromkeys(names, 0))
        result = walk(q)
        return result, dict(calls)

    def search_from_root(q):
        # the test's own isqrt, not counted: the search makes none
        return _find_river_edge(q, math.isqrt(q.discriminant()))

    monkeypatch.setattr(BQD, "__call__", counting("q", BQD.__call__))
    # each name is counted in every module that looks it up
    for module in (diform_module, dilinear_module):
        for name in names[1:3]:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    monkeypatch.setattr(diform_module, "math",
                        SimpleNamespace(gcd=math.gcd, isqrt=counting("isqrt", math.isqrt)))
    costs = []
    for k in (10, 10 ** 9, 10 ** 40):
        river_form = BQD(sigma, 1, 2 * k, sigma * k * k - 1)
        costs.append((cost(diform_well, BQD(sigma, 1, 2 * k, sigma * k * k + 1))[1],
                      cost(diform_river, river_form)[1],
                      cost(search_from_root, river_form)[1]))
    assert costs[0] == costs[1] == costs[2]
    period, long = cost(diform_river, BQD(sigma, 1, 0, -LONG_RIVER[sigma]))
    assert len(period.steps) > 100
    well, river, search = costs[0]
    # every run of a well descent ends in a floor division; a river period
    # takes one isqrt, which its search and runs share, and the long periods
    # two more in _first_root, where the start edge's values cut a run
    assert well["isqrt"] == 0
    assert search["isqrt"] == 0
    assert river["isqrt"] == 1
    assert long["isqrt"] == 3
    for walk in (well, river, long):
        # the start local form is Q's coefficients, and the start dibasis is
        # checked at import: the recurrence is checked only for each pinwheel
        # the walk returns
        assert walk["q"] == 0
        assert walk["pinwheel_faces"] == walk["pinwheel_complete"]
    # the source alone: its flat neighbour's key is read off unchecked faces
    assert well["pinwheel_complete"] == 1
    assert river["pinwheel_complete"] == long["pinwheel_complete"] == 0


def test_diform_river_builds_its_steps_once_the_period_closes(monkeypatch):
    events = []
    real_step, real_automorph = DiRiverStep, diform_module._translation_automorph

    def step(*args):
        events.append("step")
        return real_step(*args)

    def automorph(*args):
        found = real_automorph(*args)
        events.append("open" if found is None else "closed")
        return found

    monkeypatch.setattr(diform_module, "DiRiverStep", step)
    monkeypatch.setattr(diform_module, "_translation_automorph", automorph)
    for q in (BQD(2, -11, -12, -5), BQD(2, 1, 0, -LONG_RIVER[2]),
              BQD(3, 1, 0, -LONG_RIVER[3])):
        events.clear()
        r = diform_river(q)
        n = len(r.steps)
        assert events.count("step") == n
        assert events[-n - 1:] == ["closed"] + ["step"] * n
        assert all(type(s) is real_step and type(s.pos) is type(s.neg) is Divector
                   for s in r.steps)
        assert type(r.witness) is Divector


# --- the local form (A, beta, C) against values on divectors ---------------

coefficients = st.integers(-10 ** 12, 10 ** 12)
far_moves = st.lists(st.tuples(st.sampled_from("xys"), st.integers(-10 ** 3, 10 ** 3)),
                     max_size=5)


def local_form_on_divectors(q: BQD, f, g):
    """(Q(f), beta, Q(g)) with Q(sqrt(sigma) g + f) - Q(sqrt(sigma) g - f)
    = 2 sigma beta, from Q on divectors."""
    f, g = Divector(*f), Divector(*g)
    sg = times_sqrt(g, q.sigma)
    beta, rest = divmod(q(dv_add(sg, f)) - q(dv_sub(sg, f)), 2 * q.sigma)
    assert rest == 0
    return q(f), beta, q(g)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((2, 3)), coefficients, coefficients, coefficients, far_moves,
       st.booleans(), st.integers(0, 10 ** 9))
def test_local_form_maps_match_values_on_divectors(sigma, a, b, c, dibasis_moves,
                                                   swap, j):
    q = BQD(sigma, a, b, c)
    d0, d1 = STANDARD_DIBASIS
    for move, t in dibasis_moves:
        d0, d1 = shear_dibasis((d0, d1), sigma, move, t)
    if swap:
        d0, d1 = d1, d0
    ring = pinwheel_faces(d0, d1, sigma)
    signed = ring + (tuple(-Divector(*ring[0])),)
    t = _local_form(q, d0, d1)
    assert t == local_form_on_divectors(q, d0, d1)
    # turning: the local form at every dibasis (f_i, f_i+1) of the pinwheel
    cells = _cells(t, sigma)
    assert cells == [local_form_on_divectors(q, signed[i], signed[i + 1])
                     for i in range(2 * sigma)]
    # crossing: the neighbour's dibasis is (f_i, -f_i+1), and beta_i flips
    vertex = pinwheel_complete(d0, d1, sigma)
    for i, (p, s) in enumerate(vertex.edges()):
        e0, e1, crossed = _cross(d0, d1, cells, i, sigma)
        assert faces(pinwheel_complete(e0, e1, sigma)) == faces(
            _other_vertex(p, s, vertex, sigma))
        assert crossed == local_form_on_divectors(q, e0, e1)
    # a run of j steps along d0: d1 - j sqrt(sigma) d0
    dj, tj = _run(d0, d1, t, j, sigma)
    assert dj == dv_add(d1, times_sqrt(d0, sigma), -j)
    assert tj == local_form_on_divectors(q, d0, dj)
    # cell values, linear in the local form of the edge
    r, bl = Divector(*d0), Divector(*d1)
    assert dicell_values(q, r, bl) == divector_cell_values(q, r, bl)


@pytest.mark.parametrize("sigma", [2, 3])
def test_standard_local_form_is_the_coefficients(sigma):
    # the walks start here without evaluating Q; the three evaluations below
    # read the local form off the faces F0, F1 and sqrt(sigma) F1 - F0
    rng = random.Random(23 + sigma)
    f0, f1 = STANDARD_DIBASIS
    third = dv_sub(times_sqrt(f1, sigma), f0)
    for bound in (9, 10 ** 12, 10 ** 40) * 100:
        q = BQD(sigma, *(rng.randint(-bound, bound) for _ in range(3)))
        a, c, e = q(f0), q(f1), q(third)
        beta, rest = divmod(a + sigma * c - e, sigma)
        assert rest == 0
        assert _local_form(q, f0, f1) == (a, beta, c) == (q.a, q.b, q.c)


@pytest.mark.parametrize("sigma", [2, 3])
def test_standard_dibasis_pinwheel_closes(sigma):
    # checked once, at import: x_k+1 = sqrt(sigma) x_k - x_k-1 carries the
    # last two faces to -F0 and then -F1, and adjacent faces are dibases
    faces = [Divector(*f) for f in pinwheel_faces(*STANDARD_DIBASIS, sigma)]
    assert len(faces) == 2 * sigma and tuple(faces[:2]) == STANDARD_DIBASIS
    f0, f1 = STANDARD_DIBASIS
    after = dv_sub(times_sqrt(faces[-1], sigma), faces[-2])
    assert after == -f0
    assert dv_sub(times_sqrt(after, sigma), faces[-1]) == -f1
    assert all(is_dibasis(x, y, sigma) for x, y in zip(faces, faces[1:] + [-f0]))


@pytest.mark.parametrize("sigma", [1, 4, 5])
def test_walks_and_cell_values_refuse_sigma_outside_2_and_3(sigma):
    # the pinwheels of sqrt(sigma) close only at sigma = 2 and 3; the walks
    # and the cell values refuse any other sigma before they step, by name
    match = f"sigma must be 2 or 3, not {sigma}"
    with pytest.raises(PreconditionError, match=match):
        _local_form(BQD(sigma, 1, 0, 1), *STANDARD_DIBASIS)
    with pytest.raises(PreconditionError, match=match):
        diform_well(BQD(sigma, 1, 0, 1))
    with pytest.raises(PreconditionError, match=match):
        diform_river(BQD(sigma, 1, 1, -1))
    with pytest.raises(PreconditionError, match=match):
        dicell_values(BQD(sigma, 1, 1, -1), *STANDARD_DIBASIS)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((2, 3)), coefficients, coefficients, coefficients)
def test_bend_test_matches_cell_pair_signs(sigma, r, beta, b):
    want = any(e * f < 0 for e, f in _cell_pairs(r, beta, b, sigma))
    assert _bends(r, beta, b, sigma) == _bends(b, beta, r, sigma) == want


def assert_one_descending_edge(cells, sigma):
    """The identities behind the forced edge choice, and the choice: at a
    pinwheel whose faces share a sign, at most one edge descends."""
    n = 2 * sigma
    v = [c[0] for c in cells] * 2
    beta = [c[1] for c in cells] * 2
    for k in range(n):
        assert beta[k] + beta[k + 1] == 2 * v[k + 1]
        if sigma == 2:
            assert beta[k] + beta[k + 2] == v[k + 1] + v[k + 3]
        else:
            assert beta[k] + beta[k + 3] == v[k] + v[k + 3]
            assert 3 * (beta[k] + beta[k + 2]) == 4 * v[k + 1] + 2 * v[k + 3]
    for sign in (1, -1):
        if all(sign * x > 0 for x in v):
            assert sum(sign * b < 0 for b in beta[:n]) <= 1


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((2, 3)), coefficients, coefficients, coefficients,
       st.integers(0, 2 ** 32), far_moves, st.integers(0, 10 ** 9))
def test_descent_choices_are_forced(sigma, a, b, c, seed, dibasis_moves, j):
    q = BQD(sigma, a, b, c)
    f, d = random_dibasis(random.Random(seed), sigma)
    for move, t in dibasis_moves:
        f, d = shear_dibasis((f, d), sigma, move, t)
    t = _local_form(q, f, d)
    assert_one_descending_edge(_cells(t, sigma), sigma)
    # a run along f visits u_j = pinwheel(f, d - j sqrt(sigma) f): while its
    # last edge descends and that edge's other face d - (j + 1) sqrt(sigma) f
    # keeps f's sign, every face of u_j has it
    A, beta, _ = t
    assume(A != 0)
    sign = 1 if A > 0 else -1
    # the runs' two stops: the last edge stops descending, and the smaller
    # root of Q(d - x sqrt(sigma) f), when it is real
    ends = [(sign * beta - 1) // (2 * sign * A)]
    disc = q.discriminant()
    if disc > 0:
        ends.append((sigma * sign * beta - math.isqrt(disc) - 1) // (2 * sigma * sign * A))
    for x in {j, *(e + dj for e in ends for dj in (-1, 0, 1))}:
        if x < 0:
            continue
        dx, tx = _run(f, d, t, x, sigma)
        cells = _cells(tx, sigma)
        assert_one_descending_edge(cells, sigma)
        values = [q(face) for face in pinwheel_faces(f, dx, sigma)]
        if sign * cells[-1][1] < 0 and sign * values[-1] > 0:
            assert all(sign * v > 0 for v in values)


# --- errors on huge diforms ---------------------------------------------------

HUGE = 10 ** 5000  # str() of it raises ValueError; errors give bit lengths


def test_diform_errors_name_huge_forms(monkeypatch):
    with pytest.raises(ClassificationError, match="positive-definite diform.*16610"):
        diform_well(BQD(2, HUGE, 0, -1))
    with pytest.raises(PreconditionError, match="primitive diform.*16611"):
        diform_river(BQD(2, 2 * HUGE, 2, 2))
    with pytest.raises(SquareDiscriminantError, match="indefinite diform.*16610"):
        diform_river(BQD(3, HUGE, 1, HUGE))
    zero = BQD(2, 0, 1, HUGE)
    with pytest.raises(SquareDiscriminantError, match="16610-bit.*represents zero"):
        _find_river_edge(zero, math.isqrt(zero.discriminant()))
    far = BQD(3, 1, 2 * HUGE, 3 * HUGE * HUGE - 1)
    real_edge = diform_module._find_river_edge

    def misplaced_edge(q, root):
        # the walker set on an edge whose faces share a sign sees two exits
        i, d0, d1, cells = real_edge(q, root)
        same = next(k for k, (a, _, c) in enumerate(cells) if a * c > 0)
        return same, d0, d1, cells

    monkeypatch.setattr(diform_module, "_find_river_edge", misplaced_edge)
    with pytest.raises(ClassificationError, match="single line.*33221"):
        diform_river(far)
    monkeypatch.setattr(diform_module, "_descend", lambda *args: None)
    with pytest.raises(ClassificationError, match="no descent toward the river.*33221"):
        real_edge(far, math.isqrt(far.discriminant()))


def test_diform_river_period_past_its_bit_budget_is_refused(monkeypatch):
    # (1, 0, -2383) over sigma = 3 closes its period after 105 runs (342
    # edges); the walk counts the bits of the steps it keeps once, after 64
    # runs
    q = BQD(3, 1, 0, -2383)
    monkeypatch.setattr(walk_module, "RIVER_BUDGET", 28927)
    with pytest.raises(BudgetError, match="28596, not closed after 64 runs keeping 28928"):
        diform_river(q)
    monkeypatch.setattr(walk_module, "RIVER_BUDGET", 28928)
    assert diform_river(q).edge_count == 342
    monkeypatch.undo()
    with pytest.raises(BudgetError, match="discriminant a 16613-bit integer"):
        diform_river(BQD(2, 1, 0, -(HUGE + 7)))
    # under the budget, the derived bound 4 m (bits(m) + 1) + 1 on the runs,
    # m = 1149 // 12, stays a ClassificationError
    q = BQD(3, 7, 5, -11)
    monkeypatch.setattr(diform_module, "_translation_automorph", lambda *args: None)
    with pytest.raises(ClassificationError, match="not closed after 3041 runs"):
        diform_river(q)
