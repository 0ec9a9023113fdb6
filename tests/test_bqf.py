import random

from reference import superbase_ball
from topograph.bqf import (
    BQF,
    DEGENERATE,
    FLAT,
    INDEFINITE,
    POSITIVE_DEFINITE,
    TOWARD_E,
    TOWARD_F,
    arrow,
    cell_values,
    classify,
)
from topograph.lax import STANDARD_SUPERBASE, normalize_superbase


def test_evaluation():
    q = BQF(1, 1, 3)
    assert q((1, 0)) == 1
    assert q((0, 1)) == 3
    assert q((1, -1)) == 3


def test_classification():
    assert classify(BQF(1, 0, 1)) == POSITIVE_DEFINITE
    assert classify(BQF(1, 0, -3)) == INDEFINITE
    assert classify(BQF(1, 0, -4)) == DEGENERATE
    assert classify(BQF(0, 1, 0)) == DEGENERATE


def test_transform_preserves_discriminant():
    rng = random.Random(5)
    for _ in range(200):
        q = BQF(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        m = ((1, rng.randint(-4, 4)), (0, 1))
        assert q.transform(m).discriminant() == q.discriminant()


def test_cell_identities_on_random_cells():
    rng = random.Random(7)
    ball = superbase_ball(6)
    bases = [s for _, s in ball.values()]
    for _ in range(1000):
        q = BQF(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        s = rng.choice(bases)
        cv = cell_values(q, s, rng.randrange(3))
        assert cv.e + cv.f == 2 * (cv.u + cv.v)
        assert (cv.u - cv.v) ** 2 - cv.e * cv.f == q.discriminant()


def test_arrow_directions():
    # the arrow points toward the larger flank, and along no edge of equal ones
    seen = set()
    for q in (BQF(1, 0, 2), BQF(1, 1, 1), BQF(1, -1, 1), BQF(1, 0, 1), BQF(2, 3, -5)):
        for s in (STANDARD_SUPERBASE, normalize_superbase([(1, 0), (0, 1), (-1, -1)]),
                  normalize_superbase([(2, 1), (-1, 0), (-1, -1)])):
            for j in range(3):
                cv = cell_values(q, s, j)
                want = TOWARD_F if cv.f > cv.e else TOWARD_E if cv.e > cv.f else FLAT
                assert arrow(q, s, j) == want
                seen.add(want)
    assert seen == {TOWARD_F, TOWARD_E, FLAT}
    # at the edge {(1, 0), (0, 1)}, f - e = 2b
    assert [arrow(BQF(1, b, 1), STANDARD_SUPERBASE, 2) for b in (1, -1, 0)] == [
        TOWARD_F, TOWARD_E, FLAT]


def test_flat_edge_for_symmetric_form():
    # x^2 + y^2 has u = v = 1 at the standard edge, so e = f
    q = BQF(1, 0, 1)
    cv = cell_values(q, STANDARD_SUPERBASE, 2)
    if cv.u == cv.v:
        assert cv.e == cv.f or cv.e + cv.f == 2 * (cv.u + cv.v)
