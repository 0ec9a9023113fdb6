import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import topograph.diform as diform_module
from topograph.classical import red_blue_forms, reduce_definite
from topograph.diform import (
    BLUE,
    BQD,
    Divector,
    DiRiverStep,
    RED,
    STANDARD_DIBASIS,
    _edge_is_bend,
    _find_river_edge,
    _other_vertex,
    _preserves_form,
    _qre_det,
    _translation_automorph,
    _vertex_weight,
    dibasis_det,
    dicell_values,
    diform_river,
    diform_well,
    is_dibasis,
    is_dilinear,
    is_square_diform_disc,
    pinwheel_complete,
    verify_gamma0_conjugation,
)
from topograph.errors import (
    ClassificationError,
    DibasisError,
    PreconditionError,
    SquareDiscriminantError,
)


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
        assert diform_module.Pinwheel(sigma, tuple(moved)).key() == pw.key()


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
        assert diform_well(q, start)["source"].key() == base


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


@pytest.mark.parametrize("op", ["add", "sub"])
def test_divector_arithmetic_rejects_mixed_colours(op):
    r, b = STANDARD_DIBASIS
    with pytest.raises(DibasisError):
        getattr(r, op)(b)


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

    monkeypatch.setattr(diform_module, "_face_det", first_call_only)
    with pytest.raises(DibasisError):
        pinwheel_complete(*STANDARD_DIBASIS, 2)


def test_gamma0_conjugation_rejects_a_sample_outside_dl_plus(monkeypatch):
    minus = (((0, 0), (1, 0)), ((-1, 0), (0, 0)))
    monkeypatch.setattr(diform_module, "_dl_plus_samples",
                        lambda sigma, count: [minus])
    with pytest.raises(PreconditionError):
        verify_gamma0_conjugation(2, 1)


# --- oracles for the run-length walks ----------------------------------------

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
            t = _translation_automorph((p0, n0), (p, neg), q)
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
        sb = b.times_sqrt(sigma)
        return Divector(RED, r.u + t * sb.u, r.v + t * sb.v), b
    if move == "y":
        sr = r.times_sqrt(sigma)
        return r, Divector(BLUE, b.u + t * sr.u, b.v + t * sr.v)
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
    w = diform_well(q, start)
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
    p, neg, vertex = _find_river_edge(q)
    p1, neg1, vertex1 = single_step_river_edge(q)
    assert (p, neg, faces(vertex)) == (p1, neg1, faces(vertex1))


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
        t = r.automorph
        assert is_dilinear(t, sigma) and _preserves_form(t, q)
        assert _qre_det(t, sigma) == (1, 0)


@pytest.mark.parametrize("sigma", [2, 3])
def test_far_walks_cost_does_not_grow_with_k(sigma, monkeypatch):
    built = []
    real = diform_module.pinwheel_complete

    def counting(d1, d2, sigma):
        built.append(1)
        return real(d1, d2, sigma)

    monkeypatch.setattr(diform_module, "pinwheel_complete", counting)
    costs = []
    for k in (10, 10 ** 9):
        built.clear()
        diform_well(BQD(sigma, 1, 2 * k, sigma * k * k + 1))
        diform_river(BQD(sigma, 1, 2 * k, sigma * k * k - 1))
        costs.append(len(built))
    assert costs[0] == costs[1]
