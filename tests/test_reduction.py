import itertools
import math
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import is_reduced_indefinite

from topograph import bqf, reduction, walk
from topograph.bqf import BQF
from topograph.classical import indefinite_cycle, is_square, reduce_definite
from topograph.errors import BudgetError, ClassificationError, SquareDiscriminantError
from topograph.lax import STANDARD_SUPERBASE, det, lax, mat_apply, mat_mul, vadd, vsub
from topograph.reduction import (
    CELL_WELL,
    TRIAD_WELL,
    find_river_edge,
    find_well,
    gauss_reduced,
    minimum_nonzero,
    pell_solve,
    riverbends,
    trace_river,
)


def pell_by_continued_fractions(d: int) -> tuple[int, int]:
    """Independent oracle: fundamental solution of x^2 - d y^2 = 1."""
    a0 = math.isqrt(d)
    m, den, a = 0, 1, a0
    p_prev, p = 1, a0
    q_prev, q = 0, 1
    while p * p - d * q * q != 1:
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    return p, q


def test_well_kinds():
    w = find_well(BQF(1, 1, 1))
    assert w.values == (1, 1, 1)
    assert w.kind == TRIAD_WELL
    w2 = find_well(BQF(1, 0, 1))
    assert w2.values == (1, 1, 2)
    assert w2.kind == CELL_WELL


def test_well_rejects_indefinite():
    with pytest.raises(ClassificationError, match=r"not the form \(1, 0, -2\) of "
                                                  "discriminant 8$"):
        find_well(BQF(1, 0, -2))
    with pytest.raises(ClassificationError, match=r"\(-1, 1, -1\) of discriminant -3$"):
        gauss_reduced(BQF(-1, 1, -1))


def test_gauss_reduced_matches_classical_samples():
    for form in [(5, 7, 3), (12, 11, 3), (7, -13, 7), (3, 2, 5), (10, 1, 1)]:
        q = BQF(*form)
        red = gauss_reduced(q)
        assert (red.a, red.b, red.c) == reduce_definite(form)


def test_river_automorph_preserves_form():
    q = BQF(1, 0, -3)
    period = trace_river(q)
    assert q.transform(period.automorph) == q
    # the period closes: last edge is the translate of the first
    assert len(list(period.iter_edges())) >= 2


def test_riverbends_match_classical_cycle():
    for form in [(1, 0, -3), (1, 2, -2), (2, 1, -2), (1, 5, -5)]:
        q = BQF(*form)
        bends = sorted((f.a, f.b, f.c) for f in riverbends(q))
        assert bends == sorted(indefinite_cycle(form))


def test_minimum_small_cases():
    assert minimum_nonzero(BQF(1, 0, -2)).mu == 1
    # |3x^2 - 5y^2| = 2 at (1, 1); +-1 is impossible mod 5
    assert minimum_nonzero(BQF(3, 0, -5)).mu == 2


def test_pell_against_continued_fractions():
    for d in (2, 3, 5, 7, 13, 19, 31, 61):
        sol = pell_solve(d)
        assert (sol.x, sol.y) == pell_by_continued_fractions(d)
        assert sol.x * sol.x - d * sol.y * sol.y == 1


def test_pell_61_fixture():
    sol = pell_solve(61)
    assert (sol.x, sol.y) == (1766319049, 226153980)


def test_pell_rejects_squares_and_negatives():
    for bad in (-4, 0, 1, 4, 9):
        with pytest.raises(SquareDiscriminantError, match=f"not D = {bad}$"):
            pell_solve(bad)
        assert bad < 2 or is_square(bad)


def test_river_rejects_definite_and_degenerate():
    with pytest.raises(SquareDiscriminantError,
                       match=r"not the form \(1, 0, 1\) of discriminant -4$"):
        trace_river(BQF(1, 0, 1))
    with pytest.raises(SquareDiscriminantError,
                       match=r"not the form \(1, 0, -4\) of discriminant 16$"):
        trace_river(BQF(1, 0, -4))


# --- oracles for the run-length walks ----------------------------------------

def single_step_descent(q: BQF):
    """The single-step walk the run-length walks replaced: from the standard
    superbase, replace the face of largest |Q| while it exceeds the sum of
    the other two, until a well or a superbase with faces of both signs."""
    vs = list(STANDARD_SUPERBASE)
    vals = [q(v) for v in vs]
    while not (min(vals) < 0 < max(vals)):
        sign = 1 if vals[0] > 0 else -1
        j = max(range(3), key=lambda i: sign * vals[i])
        if 2 * sign * vals[j] <= sign * sum(vals):
            break
        p, r = vs[(j + 1) % 3], vs[(j + 2) % 3]
        vs[j], vs[(j + 1) % 3] = vsub(p, r), (-p[0], -p[1])
        vals[j] = q(vs[j])
    return vs, vals


def _river_edge(vs, vals):
    p0 = next(v for v, x in zip(vs, vals) if x > 0)
    n0 = next(v for v, x in zip(vs, vals) if x < 0)
    return p0, n0


def single_step_river_edge(q: BQF):
    return _river_edge(*single_step_descent(q))


def superbase_descent(q: BQF):
    """The previous run-length walk, on signed superbases: each pass takes one
    single step, then the rest of the run around the face that the next step
    keeps, in closed form.  The reference for shears far too long for the
    single-step walk."""
    def step(vs, j):
        p, r = vs[(j + 1) % 3], vs[(j + 2) % 3]
        out = list(vs)
        out[j], out[(j + 1) % 3] = vsub(p, r), (-p[0], -p[1])
        return out

    def drop(h):
        j = max(range(3), key=h.__getitem__)
        return j if 2 * h[j] > sum(h) else None

    vs = list(STANDARD_SUPERBASE)
    vals = [q(v) for v in vs]
    sign = 1 if vals[0] > 0 else -1
    disc = q.discriminant()
    root = math.isqrt(disc) if disc > 0 else None
    while not min(vals) < 0 < max(vals):
        if (j := drop([sign * x for x in vals])) is None:
            break
        vs = step(vs, j)
        vals[j] = 2 * (vals[(j + 1) % 3] + vals[(j + 2) % 3]) - vals[j]
        h = [sign * x for x in vals]
        if min(vals) < 0 < max(vals) or (j2 := drop(h)) is None:
            break
        fixed = 3 - j - j2
        phi, a, b = h[fixed], h[j2], h[j]
        k = -((b - a + phi) // (2 * phi))
        if root is not None:
            x = (phi + a - b - root - 1) // (2 * phi) + 1
            if x >= 2 and phi * x * x + (b - a - phi) * x + a < 0:
                k = min(k, x - 1)
        # k steps around vs[fixed], the first replacing vs[j2]: two steps
        # flip the fixed face and move the other one 2F along
        p, r = vs[(j2 + 1) % 3], vs[(j2 + 2) % 3]
        m, odd = divmod(k, 2)
        s = -1 if m % 2 else 1
        if fixed == (j2 + 2) % 3:
            p = (p[0] - 2 * m * r[0], p[1] - 2 * m * r[1])
        else:
            r = (r[0] - 2 * m * p[0], r[1] - 2 * m * p[1])
        p, r = (s * p[0], s * p[1]), (s * r[0], s * r[1])
        vs[j2], vs[(j2 + 1) % 3], vs[(j2 + 2) % 3] = (-p[0] - r[0], -p[1] - r[1]), p, r
        if odd:
            vs = step(vs, j2)
        hk = phi * k * k + (b - a - phi) * k + a
        new, old = (j2, j) if k % 2 else (j, j2)
        vals[new], vals[old] = sign * (hk + 2 * phi * k + b - a), sign * hk
    return vs, vals


def single_step_minimum(q: BQF) -> tuple[int, tuple[int, int]]:
    """Walk the river one edge at a time until an automorph closes the
    period, and take the least (|Q|, lax vector) over every face met."""
    p0, n0 = single_step_river_edge(q)
    p, n = p0, n0
    faces = {lax(p0): q(p0), lax(n0): q(n0)}
    while True:
        r = vadd(p, n)
        faces[lax(r)] = q(r)
        if q(r) > 0:
            p = r
        else:
            n = r
        if q(p) == q(p0) and q(n) == q(n0):
            d = det(p0, n0)
            t = ((d * (p[0] * n0[1] - n[0] * p0[1]), d * (n[0] * p0[0] - p[0] * n0[0])),
                 (d * (p[1] * n0[1] - n[1] * p0[1]), d * (n[1] * p0[0] - p[1] * n0[0])))
            if q.transform(t) == q:
                break
    v = min(faces, key=lambda w: (abs(faces[w]), w))
    return abs(faces[v]), v


def sl2_move(form, t1, t2):
    """The form moved by T^t1 S T^t2, with T = [[1, 1], [0, 1]] and
    S = [[0, -1], [1, 0]]."""
    return BQF(*form).transform(((t1, t1 * t2 - 1), (1, t2)))


big = st.integers(1, 10 ** 30)


@st.composite
def definite_forms(draw):
    a, c = draw(big), draw(big)
    bmax = math.isqrt(4 * a * c - 1)
    return (a, draw(st.integers(-bmax, bmax)), c)


@settings(max_examples=200, deadline=None)
@given(definite_forms())
def test_gauss_reduced_matches_classical_30_digits(form):
    red = gauss_reduced(BQF(*form))
    assert (red.a, red.b, red.c) == reduce_definite(form)


def _seeded_move(rng, moves: int):
    """A product of ``moves`` generators of SL2(Z) drawn from ``rng``."""
    m = ((1, 0), (0, 1))
    for _ in range(moves):
        m = mat_mul(m, rng.choice((((1, 1), (0, 1)), ((1, -1), (0, 1)), ((1, 2), (0, 1)),
                                   ((0, -1), (1, 0)), ((1, 0), (1, 1)), ((1, 0), (-1, 1)))))
    return m


def _tied_wells():
    """Positive-definite forms (a, b, c), c >= a, whose wells tie: a = c
    (u = v), b = 0 (a cell well, u + v = w) or |b| = a (the -b = u tie)."""
    for a in range(1, 13):
        for c in range(a, 13):
            for b in sorted({0, a, -a} | (set(range(-a, a + 1)) if a == c else set())):
                yield a, b, c


def test_well_ties_give_the_classical_reduced_form():
    # gauss_reduced and the CLI's reduce (find_well, then _well_form) share
    # _well_form's tie rule; each tied form is moved by seeded matrices, the
    # last of 30-digit entries, and compared with reduce_definite
    rng = random.Random(32)
    ties = {"u = v": 0, "u + v = w": 0, "-b = u": 0}
    for form in _tied_wells():
        moves = [_seeded_move(rng, rng.randint(0, 9)) for _ in range(4)]
        t1, t2 = rng.randint(10 ** 14, 10 ** 15), -rng.randint(10 ** 14, 10 ** 15)
        moves.append(((t1, t1 * t2 - 1), (1, t2)))
        for m in moves:
            q = BQF(*form).transform(m)
            want = reduce_definite(tuple(q))
            assert tuple(gauss_reduced(q)) == want
            well = find_well(q)
            assert tuple(reduction._well_form(well.values, well.vectors)) == want
            u, v, w = well.values
            ties["u = v"] += u == v
            ties["u + v = w"] += u + v == w
            ties["-b = u"] += abs(want[1]) == u
    assert min(ties.values()) >= 150


def _reduced_cycles(lo: int, hi: int) -> list:
    """Every rho-cycle of primitive reduced forms of a nonsquare discriminant
    in [lo, hi], as a sorted tuple: the reduced (a, b, c) have 0 < b <
    sqrt(d) and 4|ac| = d - b^2, so a runs over the divisors of (d - b^2) / 4."""
    cycles = []
    for d in range(lo, hi + 1):
        if d % 4 > 1 or is_square(d):
            continue
        reduced = set()
        for b in range(2 - d % 2, math.isqrt(d) + 1, 2):
            m = (d - b * b) // 4
            for a in range(1, math.isqrt(m) + 1):
                if m % a == 0:
                    for aa in (a, -a, m // a, -(m // a)):
                        f = (aa, b, -m // aa)
                        if is_reduced_indefinite(f, d) and math.gcd(*f) == 1:
                            reduced.add(f)
        while reduced:
            cycle = tuple(sorted(indefinite_cycle(min(reduced))))
            reduced -= set(cycle)
            cycles.append(cycle)
    return cycles


def test_river_answers_match_every_cycle_of_discriminant_up_to_1200():
    # one form of each cycle, moved by a seeded small matrix: its bends are
    # the cycle, every run of its period ends at a bend, and its least |Q|
    # is the least |a| of the cycle
    rng = random.Random(1200)
    cycles = _reduced_cycles(5, 1200)
    assert len(cycles) == 1607
    for cycle in cycles:
        q = BQF(*cycle[0]).transform(_seeded_move(rng, 3))
        assert sorted(indefinite_cycle(tuple(q))) == list(cycle)
        assert sorted(tuple(f) for f in riverbends(q)) == list(cycle)
        assert all(abs(b) > abs(u + v) for u, b, v in trace_river(q).cells[1:])
        assert minimum_nonzero(q).mu == min(abs(a) for a, _, _ in cycle)


small_indefinite = st.tuples(
    st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30)
).filter(lambda f: f[1] ** 2 - 4 * f[0] * f[2] > 0
         and not is_square(f[1] ** 2 - 4 * f[0] * f[2]))
shift = st.integers(-10 ** 6, 10 ** 6)


@settings(max_examples=200, deadline=None)
@given(small_indefinite, shift, shift)
def test_riverbends_match_classical_cycle_far_from_river(form, t1, t2):
    bends = sorted((f.a, f.b, f.c) for f in riverbends(sl2_move(form, t1, t2)))
    assert bends == sorted(indefinite_cycle(form))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 10 ** 9), st.sampled_from((-1, 1, 2)))
def test_pell_against_continued_fractions_large(k, e):
    d = k * k + e
    sol = pell_solve(d)
    assert (sol.x, sol.y) == pell_by_continued_fractions(d)


def test_pell_beyond_the_old_step_cap():
    k = 300000
    sol = pell_solve(k * k + 1)
    assert (sol.x, sol.y) == (2 * k * k + 1, 2 * k)


def test_pell_against_continued_fractions_long_periods():
    # D up to 10^7 whose periods run to hundreds or thousands of runs, so the
    # walk pushes its running edge onto the product stack and merges it
    rng = random.Random(3)
    lengths = []
    for _ in range(40):
        d = rng.randrange(10 ** 6, 10 ** 7)
        if is_square(d):
            continue
        sol = pell_solve(d)
        assert (sol.x, sol.y) == pell_by_continued_fractions(d)
        lengths.append(len(indefinite_cycle((1, 0, -d))))
    assert sum(n > 8 * walk.CHUNK for n in lengths) >= 10
    assert max(lengths) > 40 * walk.CHUNK


@pytest.mark.parametrize("d, bits", [(10 ** 11 + 3, 121_976), (10 ** 12 + 39, 911_629)])
def test_pell_solves_periods_past_the_old_edge_budget(d, bits):
    # 71,939 and 532,573 runs: keeping every edge of these periods passed
    # the budget; the walk keeps cells and a product stack
    sol = pell_solve(d)
    assert sol.x.bit_length() == bits
    assert sol.x * sol.x - d * sol.y * sol.y == 1


_PELL_PEAK_SCRIPT = """\
import tracemalloc
from topograph.reduction import pell_solve
tracemalloc.start()
pell_solve(9999991)
print(tracemalloc.get_traced_memory()[1])
"""


def test_pell_keeps_memory_linear_in_its_period():
    # 8,098 runs and a 13,794-bit x; keeping every edge peaked at 16.8 MiB.
    # A fresh process, so no earlier test's caches count
    proc = subprocess.run([sys.executable, "-c", _PELL_PEAK_SCRIPT], capture_output=True,
                          text=True, timeout=120, check=True)
    assert int(proc.stdout) < 4 * 2 ** 20


def _long_period_forms(count: int, seed: int):
    """Primitive indefinite forms whose rho-cycle, so whose river period,
    has more than 2 CHUNK forms."""
    rng = random.Random(seed)
    while count:
        form = (rng.randint(1, 40), rng.randint(-40, 40), -rng.randint(10 ** 3, 10 ** 5))
        d = form[1] ** 2 - 4 * form[0] * form[2]
        if math.gcd(*form) == 1 and not is_square(d) and (
                len(indefinite_cycle(form)) > 2 * walk.CHUNK):
            count -= 1
            yield form


def test_long_river_periods_match_the_oracles():
    # 134 to 2,726 runs: the minimum and its least lax witness against the
    # single-step walker, the bends against the rho-cycle, and the edges
    # iter_edges rebuilds from the cells against Q
    rng = random.Random(5)
    for form in _long_period_forms(10, 5):
        q = sl2_move(form, rng.randint(-40, 40), rng.randint(-40, 40))
        rep = minimum_nonzero(q)
        assert (rep.mu, rep.witness) == single_step_minimum(q)
        bends = sorted((f.a, f.b, f.c) for f in riverbends(q))
        assert bends == sorted(indefinite_cycle(form))
        period = trace_river(q)
        edges = list(period.iter_edges())
        for (p, n), cell in zip(edges, period.cells):
            assert cell == (q(p), q(vadd(p, n)) - q(p) - q(n), q(n))
        (p, n), t = edges[0], period.automorph
        assert edges[-1] == (mat_apply(t, p), mat_apply(t, n))


small_definite = st.tuples(
    st.integers(1, 30), st.integers(-30, 30), st.integers(1, 30)
).filter(lambda f: f[1] ** 2 < 4 * f[0] * f[2])


@settings(max_examples=200, deadline=None)
@given(small_definite, st.integers(-3000, 3000), st.integers(-3000, 3000))
def test_well_matches_single_step_walker(form, t1, t2):
    q = sl2_move(form, t1, t2)
    well = find_well(q)
    vs, vals = single_step_descent(q)
    assert sorted(zip(well.values, well.vectors)) == sorted(zip(vals, vs))


@settings(max_examples=200, deadline=None)
@given(small_indefinite, st.integers(-3000, 3000), st.integers(-3000, 3000))
def test_river_edge_matches_single_step_walker(form, t1, t2):
    q = sl2_move(form, t1, t2)
    assert find_river_edge(q) == single_step_river_edge(q)


@settings(max_examples=200, deadline=None)
@given(small_indefinite, st.integers(-40, 40), st.integers(-40, 40))
def test_minimum_matches_single_step_walker(form, t1, t2):
    q = sl2_move(form, t1, t2)
    rep = minimum_nonzero(q)
    assert (rep.mu, rep.witness) == single_step_minimum(q)


def _grid_forms():
    span = range(-12, 13)
    for form in itertools.product(span, span, span):
        d = form[1] ** 2 - 4 * form[0] * form[2]
        if math.gcd(*form) == 1 and (d < 0 < form[0] or d > 0 and not is_square(d)):
            yield form


def test_walks_match_the_single_step_walker_on_a_grid():
    # every primitive positive-definite and indefinite non-square form with
    # coefficients in [-12, 12], so every tie of two cell wells; 10^12 steps
    # are out of the single-step walker's reach, and the previous run-length
    # walker, checked against it on the short shears, stands in there
    forms = list(_grid_forms())
    assert len(forms) == 2323 + 6220
    for t1, t2 in ((0, 0), (3, -5), (40, 11), (10 ** 12, -(10 ** 12))):
        oracle = superbase_descent if t1 > 40 else single_step_descent
        for form in forms:
            q = sl2_move(form, t1, t2)
            vs, vals = oracle(q)
            if t1 <= 40:
                assert (vs, vals) == superbase_descent(q)
            if form[1] ** 2 < 4 * form[0] * form[2]:
                well = find_well(q)
                assert sorted(zip(well.values, well.vectors)) == sorted(zip(vals, vs))
            else:
                assert find_river_edge(q) == _river_edge(vs, vals)


def test_river_period_counts_steps_and_runs():
    period = trace_river(BQF(-22, 6, 24))
    assert period.steps == 78
    # the start edge is a bend here: it and the 15 bends after it give the
    # 16 forms of the reduced cycle, then the closing translate
    assert len(list(period.iter_edges())) == 17
    assert len(riverbends(BQF(-22, 6, 24))) == 16
    assert BQF(-22, 6, 24).transform(period.automorph) == BQF(-22, 6, 24)


@pytest.mark.parametrize("form", [(1, 0, -3), (-7, 3, 11), (2, 1, -2), (1, 0, -61)])
def test_river_period_closes_on_the_translate_of_its_start(form):
    # the start edge of (1, 0, -3), (-7, 3, 11) and (1, 0, -61) is mid-run
    q = BQF(*form)
    period = trace_river(q)
    (a, b), (c, d) = period.automorph
    edges = list(period.iter_edges())
    p, n = edges[0]
    assert (p, n) == find_river_edge(q) == period.start
    assert edges[-1] == ((a * p[0] + b * p[1], c * p[0] + d * p[1]),
                         (a * n[0] + b * n[1], c * n[0] + d * n[1]))


# the start edge, each run-end edge and the closing translate of two periods
PINNED_EDGES = {
    (1, 0, -3): (((1, 0), (0, 1)), ((1, 0), (1, 1)), ((2, 1), (1, 1)), ((2, 1), (3, 2))),
    (-22, 6, 24): (
        ((0, 1), (1, 0)), ((1, 1), (1, 0)), ((1, 1), (6, 5)), ((19, 16), (6, 5)),
        ((19, 16), (25, 21)), ((69, 58), (25, 21)), ((69, 58), (508, 427)),
        ((1085, 912), (508, 427)), ((1085, 912), (1593, 1339)),
        ((5864, 4929), (1593, 1339)), ((5864, 4929), (30913, 25984)),
        ((36777, 30913), (30913, 25984)), ((36777, 30913), (67690, 56897)),
        ((781367, 656780), (67690, 56897)), ((781367, 656780), (18039131, 15162837)),
        ((199211808, 167447987), (18039131, 15162837)),
        ((199211808, 167447987), (217250939, 182610824))),
}


@pytest.mark.parametrize("form", sorted(PINNED_EDGES))
def test_rebuilt_river_edges_are_pinned(form):
    period = trace_river(BQF(*form))
    assert tuple(period.iter_edges()) == PINNED_EDGES[form]


def test_long_period_closes_and_streams_its_edges():
    # 71,939 runs: the walk keeps only their cells, and the edges, whose bits
    # grow with the square of the runs, are rebuilt one at a time
    q = BQF(1, 0, -(10 ** 11 + 3))
    period = trace_river(q)
    assert len(period.cells) == 71939
    t = period.automorph
    assert q.transform(t) == q
    count = 0
    for count, edge in enumerate(period.iter_edges(), 1):
        pass
    assert count == 71940
    assert edge == (mat_apply(t, period.start[0]), mat_apply(t, period.start[1]))


def test_river_search_names_a_huge_form_by_size(monkeypatch):
    # a descent that never meets the river; str of the 5,001-digit
    # coefficient would raise ValueError in place of the typed error
    monkeypatch.setattr(reduction, "_descend",
                        lambda q, root: (list(STANDARD_SUPERBASE), [1, 1, 1]))
    with pytest.raises(ClassificationError, match="16610/1/1-bit integers"):
        find_river_edge(BQF(10 ** 5000, 1, -1))


def test_river_period_past_its_bit_budget_is_refused():
    big = -(10 ** 5000 + 7)
    with pytest.raises(BudgetError, match="discriminant a 16612-bit integer"):
        pell_solve(-big)


def test_river_walk_past_its_answer_budget_is_refused(monkeypatch):
    # the Pell walk of 1201 counts once, after 64 runs: it then holds a
    # product stack of one 2x2 matrix and the faces of value 1, 548 bits
    monkeypatch.setattr(walk, "ANSWER_BUDGET", 547)
    with pytest.raises(BudgetError, match="4804, not closed after 64 runs: its answer"
                                          " already holds 548 bits, past the answer budget of 547"):
        pell_solve(1201)
    monkeypatch.setattr(walk, "ANSWER_BUDGET", 548)
    sol = pell_solve(1201)
    assert (sol.x, sol.y) == pell_by_continued_fractions(1201)


_PEAK_SCRIPT = """\
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from topograph.errors import BudgetError
from topograph.reduction import pell_solve
try:
    pell_solve(10 ** 5000 + 7)
    print("solved")
except BudgetError:
    print("budget", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_river_budget_bounds_the_memory_of_a_huge_period():
    # the walk keeps one cell of integers below the discriminant per run,
    # and its answer grows with every run; a count of runs alone let it
    # reach 4.4 GiB.  The child caps its own address space at 1 GiB, so a
    # regression fails there instead of filling the machine
    proc = subprocess.run([sys.executable, "-c", _PEAK_SCRIPT], capture_output=True,
                          text=True, timeout=120)
    word, peak_kib = proc.stdout.split()
    assert word == "budget"
    assert int(peak_kib) < 256 * 1024


# --- values carried by the arithmetic progression rule -----------------------

shear = st.integers(-10 ** 12, 10 ** 12)


@settings(max_examples=100, deadline=None)
@given(small_indefinite, shear, shear)
def test_river_period_cells_are_the_local_forms_of_its_edges(form, t1, t2):
    q = sl2_move(form, t1, t2)
    period = trace_river(q)
    edges = list(period.iter_edges())
    assert len(period.cells) + 1 == len(edges)
    for (p, n), cell in zip(edges, period.cells):
        assert cell == (q(p), q(vadd(p, n)) - q(p) - q(n), q(n))


@settings(max_examples=200, deadline=None)
@given(small_definite, shear, shear)
def test_well_descent_values_are_the_values_of_its_vectors(form, t1, t2):
    # the descent find_well runs
    q = sl2_move(form, t1, t2)
    vs, vals = reduction._descend(q, None)
    assert vals == [q(v) for v in vs]
    assert find_well(q).values == tuple(sorted(vals))


@settings(max_examples=200, deadline=None)
@given(small_indefinite, shear, shear)
def test_river_descent_values_are_the_values_of_its_vectors(form, t1, t2):
    # the descent find_river_edge runs
    q = sl2_move(form, t1, t2)
    root = math.isqrt(q.discriminant())
    vs, vals = reduction._descend(q, root)
    assert vals == [q(v) for v in vs]
    p, n = find_river_edge(q)
    assert reduction._river_cell(q) == (
        p, n, (q(p), q(vadd(p, n)) - q(p) - q(n), q(n)), root)


def _count_evaluations(monkeypatch):
    """Every evaluation of Q: one per BQF call, three per form transform,
    through ``BQF.transform`` or the ``transform`` the river certificate
    calls on the coefficient tuple."""
    calls = []
    real_call, real_transform = BQF.__call__, bqf.transform

    def counted(self, v):
        calls.append(v)
        return real_call(self, v)

    def counted_transform(form, m):
        calls.extend([m] * 3)
        return real_transform(form, m)

    monkeypatch.setattr(BQF, "__call__", counted)
    monkeypatch.setattr(bqf, "transform", counted_transform)
    monkeypatch.setattr(reduction, "transform", counted_transform)
    return calls


@pytest.mark.parametrize("form", [(1, 0, -3), (1, 0, -61), (-22, 6, 24),
                                  (1, 0, -(10 ** 6) ** 2 - 1), (1, 0, -1201)])
def test_river_walks_evaluate_q_a_fixed_number_of_times(form, monkeypatch):
    # the three of the automorph certificate, whatever the number of runs
    # (17 for (-22, 6, 24), 103 for (1, 0, -1201)) or of single steps
    # (4 * 10^6 for (1, 0, -10^12 - 1)); pell_solve too, on the Pell forms
    calls = _count_evaluations(monkeypatch)
    for walk in (trace_river, riverbends, minimum_nonzero):
        calls.clear()
        walk(BQF(*form))
        assert len(calls) == 3
    if form[:2] == (1, 0):
        calls.clear()
        pell_solve(-form[2])
        assert len(calls) == 3


@pytest.mark.parametrize("form", [(5, 7, 3), (25, 36, 13),
                                  (1, 2 * 10 ** 6, 10 ** 12 + 1)])
def test_well_walks_evaluate_q_zero_times(form, monkeypatch):
    # the start edge's local form is the coefficients; the last form's well
    # is 10^6 single steps away
    calls = _count_evaluations(monkeypatch)
    for walk in (find_well, gauss_reduced):
        walk(BQF(*form))
    assert calls == []


def _two_pass_minimum(period, cells):
    """The least |Q| over the run ends of the period, then the least lax
    face that attains it, in two passes."""
    mu = min(min(u, -v) for u, _, v in cells)
    ties = [lax(f) for (p, n), (u, _, v) in zip(period.iter_edges(), cells)
            for f, value in ((p, u), (n, -v)) if value == mu]
    return mu, min(ties)


@pytest.mark.parametrize("base, tied", [((1, 1, -1), True), ((1, 0, -2), True),
                                        ((1, 0, -1201), False), ((-22, 6, 24), False)])
def test_one_pass_minimum_matches_two_passes(base, tied):
    # (1, 1, -1) and (1, 0, -2) reach their minimum 1 on both sides of the
    # river and at several edges, so the least-lax witness rule decides
    rng = random.Random(sum(base))
    for _ in range(200):
        m = ((1, 0), (0, 1))
        for _ in range(rng.randint(0, 6)):
            t = rng.randint(-9, 9)
            e = ((1, t), (0, 1)) if rng.random() < 0.5 else ((1, 0), (t, 1))
            m = tuple(tuple(sum(m[i][k] * e[k][j] for k in range(2)) for j in range(2))
                      for i in range(2))
        q = BQF(*base).transform(m)
        period = trace_river(q)
        # the cells of the run ends, the closing translate's included
        cells = period.cells + period.cells[:1]
        rep = minimum_nonzero(q)
        assert (rep.mu, rep.witness) == _two_pass_minimum(period, cells)
        if tied:
            assert sum(u == rep.mu for u, _, _ in cells) >= 2
            assert sum(-v == rep.mu for _, _, v in cells) >= 2
