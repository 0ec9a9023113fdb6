import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from box_search import (
    _is_unimodular,
    box_find_cubasis,
    box_find_tetrabasis,
    is_ring_superbase,
)
from reference import is_primitive, unit_invariance_holds
from topograph.errors import (
    BudgetError,
    DegenerateFormError,
    PreconditionError,
    SearchExhaustedError,
    TagMismatchError,
    TopographError,
)
from topograph.hermitian import (
    BHF,
    PATTERN_IV,
    STANDARD_CUBASIS,
    STANDARD_EISENSTEIN_SEED,
    STANDARD_GAUSS_SEED,
    _check_seed,
    _completions,
    _is_primitive_coords,
    bhf_evaluate,
    cube_values,
    empirical_minimum,
    find_cubasis,
    find_tetrabasis,
)
from topograph.rings import _SQ, EISENSTEIN, GAUSS, QRE, units, zero


def gauss(x, y=0):
    return QRE(GAUSS, x, y)


def eis(x, y=0):
    return QRE(EISENSTEIN, x, y)


def test_evaluation_fixtures():
    h = BHF(GAUSS, 1, zero(GAUSS), -2)
    assert bhf_evaluate(h, gauss(1), gauss(1)) == -1
    assert bhf_evaluate(h, gauss(1, 1), gauss(1)) == 0
    trace_form = BHF(GAUSS, 0, gauss(1, 1), 0)  # beta = 1
    assert bhf_evaluate(trace_form, gauss(1), gauss(1)) == 2


def test_evaluation_refuses_a_vector_of_another_ring():
    h = BHF(GAUSS, 1, zero(GAUSS), -2)
    for x, y in ((eis(1), gauss(1)), (gauss(1), eis(1))):
        with pytest.raises(PreconditionError, match="^vector must live in the form's ring$"):
            bhf_evaluate(h, x, y)
    (s1, p1), *rest = STANDARD_CUBASIS
    with pytest.raises(TagMismatchError, match="^Eisenstein/Eisenstein vector vs Gauss$"):
        cube_values(h, (((eis(1), eis(0)), p1), *rest))
    with pytest.raises(TagMismatchError, match="^Gauss/Eisenstein vector vs Gauss$"):
        cube_values(h, ((s1, (gauss(1), eis(1))), *rest))


def test_discriminant_fixtures():
    assert BHF(GAUSS, 1, zero(GAUSS), -2).discriminant() == 8
    assert BHF(EISENSTEIN, 1, zero(EISENSTEIN), 1).discriminant() == -3
    assert BHF(GAUSS, 0, gauss(1, 1), 0).discriminant() == 4


def test_integrality_random():
    """bhf_evaluate against the definition a N(x) + Tr(beta conj(x) y) + c N(y)
    in exact rational coordinates, beta = gamma / d for the different
    generator d = 1 + i or 1 - w."""
    rng = random.Random(23)
    for ring, mk, d in ((GAUSS, gauss, gauss(1, 1)), (EISENSTEIN, eis, eis(1, -1))):
        s, tr = _SQ[ring]

        def mul(p, q):  # theta^2 = s + tr theta
            return (p[0] * q[0] + s * p[1] * q[1],
                    p[0] * q[1] + p[1] * q[0] + tr * p[1] * q[1])

        def conj(p):  # conj(theta) = tr - theta
            return (p[0] + tr * p[1], -p[1])

        def trace(p):
            return 2 * p[0] + tr * p[1]

        def norm(p):
            return mul(p, conj(p))[0]

        dc = conj((d.x, d.y))
        inv_d = (Fraction(dc[0], norm(dc)), Fraction(dc[1], norm(dc)))
        for i in range(1000):
            k = 10 ** 12 if i % 2 else 9
            a, c = rng.randint(-k, k), rng.randint(-k, k)
            gamma, x, y = (mk(rng.randint(-k, k), rng.randint(-k, k)) for _ in range(3))
            beta = mul((gamma.x, gamma.y), inv_d)
            want = (a * norm((x.x, x.y))
                    + trace(mul(mul(beta, conj((x.x, x.y))), (y.x, y.y)))
                    + c * norm((y.x, y.y)))
            got = bhf_evaluate(BHF(ring, a, gamma, c), x, y)
            assert isinstance(got, int) and got == want


def _det(m):
    """Determinant of a square integer matrix by Leibniz's formula."""
    total = 0
    for perm in permutations(range(len(m))):
        inversions = sum(p > q for i, p in enumerate(perm) for q in perm[i + 1:])
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


big = st.integers(-10 ** 12, 10 ** 12)


@pytest.mark.parametrize("ring", [GAUSS, EISENSTEIN])
@settings(max_examples=100, deadline=None)
@given(a=big, g0=big, g1=big, c=big, v=st.tuples(big, big, big, big))
def test_gram_matrix_is_integral_symmetric_with_det_disc_squared(ring, a, g0, g1,
                                                                 c, v):
    h = BHF(ring, a, QRE(ring, g0, g1), c)
    m = h.gram
    assert all(type(e) is int for row in m for e in row)
    assert all(m[i][j] == m[j][i] for i in range(4) for j in range(4))
    assert _det(m) == h.discriminant() ** 2
    # 2H = v^T M v, against the product a N(x) + Tr(gamma conj(x) y / d) + c N(y)
    # in QRE arithmetic, with Tr(t / d) = t.x + t.y (Gauss) or t.x - t.y
    x, y = QRE(ring, *v[:2]), QRE(ring, *v[2:])
    t = h.gamma * x.conj() * y
    trace = t.x + t.y if ring == GAUSS else t.x - t.y
    want = a * x.norm() + trace + c * y.norm()
    assert sum(v[i] * m[i][j] * v[j] for i in range(4) for j in range(4)) == 2 * want
    assert bhf_evaluate(h, x, y) == want


def test_hermitian_paths_do_no_qre_arithmetic(monkeypatch):
    # QRE is only the boundary type: the forms, their values, cubes, box
    # minima and searches all run on integer coordinates
    def cases():
        for ring, a, g, c in ((GAUSS, 1, (0, 0), -2), (GAUSS, 3, (2, -5), -4),
                              (EISENSTEIN, 1, (0, 0), -3), (EISENSTEIN, 2, (3, 1), -5)):
            h = BHF(ring, a, QRE(ring, *g), c)
            x, y = QRE(ring, 3, -7), QRE(ring, -2, 5)
            yield (h, h.discriminant(), bhf_evaluate(h, x, y), h((x, y)),
                   empirical_minimum(h, 3))
            if ring == GAUSS:
                yield cube_values(h, STANDARD_CUBASIS)
        yield find_cubasis(STANDARD_GAUSS_SEED)
        yield find_tetrabasis(STANDARD_EISENSTEIN_SEED)

    before = list(cases())

    def refused(*args):
        pytest.fail("QRE arithmetic on a Hermitian path")

    for name in ("__add__", "__sub__", "__neg__", "__mul__", "conj", "norm", "is_unit"):
        monkeypatch.setattr(QRE, name, refused)
    assert list(cases()) == before


def test_unit_invariance():
    rng = random.Random(29)
    for ring, mk in ((GAUSS, gauss), (EISENSTEIN, eis)):
        for _ in range(100):
            h = BHF(ring, rng.randint(-5, 5),
                    QRE(ring, rng.randint(-5, 5), rng.randint(-5, 5)),
                    rng.randint(-5, 5))
            v = (mk(rng.randint(-5, 5), rng.randint(-5, 5)),
                 mk(rng.randint(-5, 5), rng.randint(-5, 5)))
            assert unit_invariance_holds(h, v)


def test_find_cubasis_standard_seed():
    cb = find_cubasis(STANDARD_GAUSS_SEED)
    assert cb == STANDARD_CUBASIS
    assert len(cb) == 3
    for t1 in cb[0]:
        for t2 in cb[1]:
            for t3 in cb[2]:
                assert is_ring_superbase(t1, t2, t3)


def _count_search_work(monkeypatch):
    """Count the lax keys a search computes and the QREs hermitian builds."""
    from topograph import hermitian

    keys, built = [], []
    real_key, real_qre = hermitian._lax_key, hermitian.QRE

    def counted_key(ring, p):
        keys.append(p)
        return real_key(ring, p)

    def counted_qre(ring, x, y):
        built.append((x, y))
        return real_qre(ring, x, y)

    monkeypatch.setattr(hermitian, "_lax_key", counted_key)
    monkeypatch.setattr(hermitian, "QRE", counted_qre)
    return keys, built


def test_find_cubasis_keys_only_unit_relation_candidates(monkeypatch):
    keys, built = _count_search_work(monkeypatch)
    assert find_cubasis(STANDARD_GAUSS_SEED) == STANDARD_CUBASIS
    # the three seeds and at most 16 candidates -(e1 v + e2 w) for each of
    # the three seed pairs; the box scan keyed all 168 box vectors
    assert len(keys) <= 3 + 3 * 16
    # no box: the only QREs made are the three partners of the answer
    assert len(built) == 6


def test_find_tetrabasis_keys_only_unit_relation_candidates(monkeypatch):
    keys, built = _count_search_work(monkeypatch)
    # the fourth vector the box scan found: (-1 - w, -1)
    assert find_tetrabasis(STANDARD_EISENSTEIN_SEED) == (
        *STANDARD_EISENSTEIN_SEED, (eis(-1, -1), eis(-1)))
    assert len(keys) <= 3 + 36
    assert len(built) == 2


def _count_unimodular(monkeypatch):
    from topograph import hermitian

    calls = []
    real = hermitian._unimodular

    def counted(ring, u, v):
        calls.append((u, v))
        return real(ring, u, v)

    monkeypatch.setattr(hermitian, "_unimodular", counted)
    return calls


def test_find_cubasis_tests_only_the_unknown_determinants(monkeypatch):
    calls = _count_unimodular(monkeypatch)
    assert find_cubasis(STANDARD_GAUSS_SEED) == STANDARD_CUBASIS
    # three for the seed, then det(p1, p2), det(p1, p3) and det(p2, p3) only:
    # each completion is unimodular with the seed pair it completes
    assert len(calls) == 17


def test_find_tetrabasis_tests_only_the_unknown_determinant(monkeypatch):
    calls = _count_unimodular(monkeypatch)
    find_tetrabasis(STANDARD_EISENSTEIN_SEED)
    # three for the seed, then det(s3, p) for each candidate p it scans
    assert len(calls) == 4


def test_find_tetrabasis_standard_seed():
    tb = find_tetrabasis(STANDARD_EISENSTEIN_SEED)
    assert len(tb) == 4
    for i in range(4):
        triple = [tb[j] for j in range(4) if j != i]
        assert is_ring_superbase(*triple)


def _search_outcome(search, seed):
    try:
        return search(seed)
    except TopographError as exc:
        return type(exc)


def _oracle_seeds(ring, standard, other, rng):
    """1,000 images of the standard seed under random unimodular matrices,
    each vector scaled by a random unit, in random order; then the standard
    seed, and seeds that are not pairwise unimodular, not a superbase, too
    short or over the other ring."""
    def mk(x, y=0):
        return QRE(ring, x, y)

    one, nil = mk(1), mk(0)
    for _ in range(1000):
        m = ((one, nil), (nil, one))
        for _ in range(rng.randint(0, 3)):
            a = mk(rng.randint(-1, 1), rng.randint(-1, 1))
            e = ((one, a), (nil, one)) if rng.random() < 0.5 else ((one, nil), (a, one))
            m = tuple(tuple(m[i][0] * e[0][j] + m[i][1] * e[1][j] for j in range(2))
                      for i in range(2))
        seed = []
        for x, y in standard:
            u = rng.choice(units(ring))
            seed.append((u * (m[0][0] * x + m[0][1] * y),
                         u * (m[1][0] * x + m[1][1] * y)))
        rng.shuffle(seed)
        yield tuple(seed)
    yield standard
    for _ in range(100):
        yield tuple((mk(rng.randint(-2, 2), rng.randint(-2, 2)),
                     mk(rng.randint(-2, 2), rng.randint(-2, 2))) for _ in range(3))
    yield ((one, nil), (mk(2), nil), (nil, one))
    yield ((one, nil), (nil, one), (one, mk(2)))
    yield standard[:2]
    yield other


@pytest.mark.parametrize("ring", [GAUSS, EISENSTEIN])
def test_completions_are_unimodular_with_their_pair(ring):
    standard, other = ((STANDARD_GAUSS_SEED, STANDARD_EISENSTEIN_SEED) if ring == GAUSS
                       else (STANDARD_EISENSTEIN_SEED, STANDARD_GAUSS_SEED))
    checked = 0
    for seed in _oracle_seeds(ring, standard, other, random.Random(20)):
        try:
            (s1, s2, s3), keys = _check_seed(seed, ring)
        except PreconditionError:
            continue
        for v, w in ((s1, s2), (s1, s3), (s2, s3)):
            qv, qw = [(QRE(ring, *u[:2]), QRE(ring, *u[2:])) for u in (v, w)]
            for p, _ in _completions(ring, v, w, keys):
                qp = (QRE(ring, *p[:2]), QRE(ring, *p[2:]))
                assert _is_unimodular(qv, qp) and _is_unimodular(qw, qp), (seed, p)
                checked += 1
    assert checked > 10_000


@pytest.mark.parametrize("ring", [GAUSS, EISENSTEIN])
def test_searches_match_the_box_scan(ring):
    if ring == GAUSS:
        search, box, standard, other = (find_cubasis, box_find_cubasis,
                                        STANDARD_GAUSS_SEED, STANDARD_EISENSTEIN_SEED)
    else:
        search, box, standard, other = (find_tetrabasis, box_find_tetrabasis,
                                        STANDARD_EISENSTEIN_SEED, STANDARD_GAUSS_SEED)
    outcomes = set()
    for seed in _oracle_seeds(ring, standard, other, random.Random(20)):
        got = _search_outcome(search, seed)
        assert got == _search_outcome(box, seed), seed
        outcomes.add(got if isinstance(got, type) else tuple)
    assert outcomes == {tuple, SearchExhaustedError, PreconditionError}


def test_cubasis_rejects_degenerate_seed():
    bad = (
        (gauss(1), zero(GAUSS)),
        (gauss(2), zero(GAUSS)),
        (zero(GAUSS), gauss(1)),
    )
    with pytest.raises(PreconditionError):
        find_cubasis(bad)


def test_tetrabasis_rejects_non_superbase():
    bad = (
        (eis(1), zero(EISENSTEIN)),
        (zero(EISENSTEIN), eis(1)),
        (eis(1), eis(2)),
    )
    # det((1, 0), (1, 2)) = 2: not pairwise unimodular
    with pytest.raises(PreconditionError):
        find_tetrabasis(bad)


def test_seed_error_names_the_first_pair_that_is_not_unimodular():
    # seeds 0 and 2, (1, 0) and (1, 2), have det 2; each is given as its
    # coordinates (x0, x1, y0, y1)
    bad = ((eis(1), zero(EISENSTEIN)), (zero(EISENSTEIN), eis(1)), (eis(1), eis(2)))
    with pytest.raises(PreconditionError,
                       match=r"^seed triple is not pairwise unimodular: seeds 0 and 2, "
                             r"\(1, 0, 0, 0\) and \(1, 0, 2, 0\)$"):
        find_tetrabasis(bad)
    # (0, 1) and (1 + i, 1) have det -(1 + i), of norm 2; the pairs before
    # them are unimodular
    bad = ((gauss(1), zero(GAUSS)), (zero(GAUSS), gauss(1)), (gauss(1, 1), gauss(1)))
    with pytest.raises(PreconditionError,
                       match=r": seeds 1 and 2, \(0, 0, 1, 0\) and \(1, 1, 1, 0\)$"):
        find_cubasis(bad)


def test_cube_identities_fixture():
    h = BHF(GAUSS, 1, zero(GAUSS), -2)
    cb = find_cubasis(STANDARD_GAUSS_SEED)
    cv = cube_values(h, cb)
    assert cv.a + cv.u == cv.b + cv.v == cv.c + cv.w == cv.z
    assert cv.z ** 2 - 2 * cv.a * cv.u - 2 * cv.b * cv.v - 2 * cv.c * cv.w == 8


def test_cube_identities_random_and_pattern_iv_excluded():
    rng = random.Random(31)
    cb = find_cubasis(STANDARD_GAUSS_SEED)
    for _ in range(100):
        h = BHF(GAUSS, rng.randint(-5, 5),
                gauss(rng.randint(-5, 5), rng.randint(-5, 5)),
                rng.randint(-5, 5))
        cv = cube_values(h, cb)
        assert cv.a + cv.u == cv.z
        assert cv.z ** 2 - 2 * cv.a * cv.u - 2 * cv.b * cv.v - 2 * cv.c * cv.w \
            == h.discriminant()
        if h.discriminant() > 0:
            assert cv.pattern != PATTERN_IV


def _unit_multiples(v, w):
    return any((e * w[0], e * w[1]) == tuple(v) for e in units(v[0].ring))


def _is_cubasis(cubasis):
    """Every transversal triple a superbase, by determinants of QREs, and
    no opposite pair unit multiples."""
    return (all(_is_unimodular(x, y) and _is_unimodular(x, z) and _is_unimodular(y, z)
                for x, y, z in product(*cubasis))
            and not any(_unit_multiples(s, p) for s, p in cubasis))


def test_cube_values_rejects_a_partner_equal_to_its_seed():
    # the identities fail on these, but a non-cubasis is the caller's fault
    h = BHF(GAUSS, 1, zero(GAUSS), -2)
    (s1, _), *rest = STANDARD_CUBASIS
    with pytest.raises(PreconditionError, match="seed 1 and partner 1 are unit multiples"):
        cube_values(h, ((s1, s1), *rest))
    # on the zero form every identity holds
    with pytest.raises(PreconditionError, match="seed 1 and partner 1"):
        cube_values(BHF(GAUSS, 0, zero(GAUSS), 0), tuple((s, s) for s, _ in STANDARD_CUBASIS))
    (s1, p1), (s2, _), third = STANDARD_CUBASIS
    # det((1, 0), (2, 1)) = 1 but det((-1, -1 - i), (2, 1)) = 1 + 2i
    with pytest.raises(PreconditionError, match="partner 1 and partner 2 are not unimodular"):
        cube_values(h, ((s1, p1), (s2, (gauss(2), gauss(1))), third))


def test_cube_values_accepts_exactly_the_cubases():
    rng = random.Random(22)
    h = BHF(GAUSS, 3, gauss(1, 2), -5)
    accepted, mutants = 0, []
    for seed in _oracle_seeds(GAUSS, STANDARD_GAUSS_SEED, STANDARD_EISENSTEIN_SEED, rng):
        try:
            cubasis = find_cubasis(seed)
        except (PreconditionError, SearchExhaustedError):
            continue
        assert _is_cubasis(cubasis)
        cube_values(h, cubasis)
        accepted += 1
        # a vector replaced by a small one, a seed or a unit multiple of one
        vectors = [v for pair in cubasis for v in pair]
        i = rng.randrange(6)
        vectors[i] = rng.choice([(gauss(rng.randint(-2, 2), rng.randint(-2, 2)),
                                  gauss(rng.randint(-2, 2), rng.randint(-2, 2))),
                                 tuple(rng.choice(units(GAUSS)) * x
                                       for x in rng.choice(vectors))])
        mutant = tuple(zip(vectors[::2], vectors[1::2]))
        mutants.append(_is_cubasis(mutant))
        if mutants[-1]:
            cube_values(h, mutant)
        else:
            with pytest.raises(PreconditionError, match="cubasis"):
                cube_values(h, mutant)
    assert accepted > 500 and mutants.count(True) > 20 and mutants.count(False) > 500


def test_empirical_minimum_fixtures():
    assert empirical_minimum(BHF(GAUSS, 1, zero(GAUSS), -2), 4)["mu"] == 1
    rep = empirical_minimum(BHF(EISENSTEIN, 1, zero(EISENSTEIN), -3), 4)
    assert rep["mu"] == 1 and rep["delta"] == 9
    rep2 = empirical_minimum(BHF(GAUSS, 2, zero(GAUSS), -3), 4)
    assert rep2["delta"] == 24 and rep2["bound_ok"]


def test_empirical_minimum_rejects_definite():
    with pytest.raises(PreconditionError):
        empirical_minimum(BHF(GAUSS, 1, zero(GAUSS), 1), 3)


def test_unit_groups_used():
    assert len(units(GAUSS)) == 4
    assert len(units(EISENSTEIN)) == 6


def _qre_scan_minimum(h: BHF, box: int) -> dict:
    """Reference: the scan over QRE box vectors that empirical_minimum
    replaced, evaluating every point through bhf_evaluate."""
    d = h.discriminant()
    if d <= 0:
        raise PreconditionError("minimum bound applies to indefinite forms")
    best = None
    wit = None
    isotropic = False
    for x, yx, u, uy in product(range(-box, box + 1), repeat=4):
        vx = QRE(h.ring, x, yx)
        vy = QRE(h.ring, u, uy)
        if vx.is_zero() and vy.is_zero():
            continue
        if not is_primitive((vx, vy)):
            continue
        val = bhf_evaluate(h, vx, vy)
        if val == 0:
            isotropic = True
            continue
        if best is None or abs(val) < best:
            best = abs(val)
            wit = (vx, vy)
    if best is None:
        raise DegenerateFormError("form vanishes on the whole box")
    return {
        "mu": best,
        "witness": wit,
        "delta": d,
        "isotropic_in_box": isotropic,
        "bound_ok": isotropic or 6 * best * best <= d,
    }


coefficient = st.integers(-50, 50)


@pytest.mark.parametrize("ring", [GAUSS, EISENSTEIN])
@settings(max_examples=20, deadline=None)
@given(a=coefficient, gx=coefficient, gy=coefficient, c=coefficient,
       box=st.integers(1, 5))
def test_empirical_minimum_matches_qre_scan(ring, a, gx, gy, c, box):
    h = BHF(ring, a, QRE(ring, gx, gy), c)
    assume(h.discriminant() > 0)
    assert empirical_minimum(h, box) == _qre_scan_minimum(h, box)


@pytest.mark.parametrize("ring", [GAUSS, EISENSTEIN])
def test_minor_primitivity_matches_euclid(ring):
    tr = _SQ[ring][1]
    for x0, x1, y0, y1 in product(range(-4, 5), repeat=4):
        want = is_primitive((QRE(ring, x0, x1), QRE(ring, y0, y1)))
        assert _is_primitive_coords(tr, x0, x1, y0, y1) == want, (x0, x1, y0, y1)


def test_empirical_minimum_witness_is_first_in_scan_order():
    # of the primitive vectors with |H| = 1, lexicographic order meets
    # (-4-3i, -4-i) first: 2*25 - 3*17 = -1
    rep = empirical_minimum(BHF(GAUSS, 2, zero(GAUSS), -3), 4)
    assert rep["mu"] == 1
    assert rep["witness"] == (gauss(-4, -3), gauss(-4, -1))
    assert rep["isotropic_in_box"] is False


@pytest.mark.parametrize("box", [0, -1, -5])
def test_empirical_minimum_rejects_empty_box(box):
    with pytest.raises(PreconditionError):
        empirical_minimum(BHF(GAUSS, 1, zero(GAUSS), -2), box)


def test_empirical_minimum_box_budget():
    h = BHF(GAUSS, 1, zero(GAUSS), -2)
    assert empirical_minimum(h, 10)["mu"] == 1
    # (2 box + 1)^4 // 2 vectors: box 32 has 8,925,312, box 33 is over
    with pytest.raises(BudgetError, match="33 holds 10075560 vectors.* 10000000"):
        empirical_minimum(h, 33)
    # refused before any work: a scan of either box would never return
    for box in (10 ** 6, 10 ** 100):
        with pytest.raises(BudgetError, match="over the budget"):
            empirical_minimum(h, box)
