import math
import random
import time
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from box_search import find_diform_for_classes, represents
from reference import cycle_fingerprint, is_reduced_indefinite
from topograph import classgroup, classical
from topograph.classgroup import (
    ClassGroupTable,
    ambiguous_form_A,
    compose,
    enumerate_classes,
    principal_form,
    verify_red_blue,
)
from topograph.classical import (
    content,
    indefinite_cycle,
    reduce_definite,
    reduce_indefinite,
)
from topograph.errors import (
    BudgetError,
    ClassificationError,
    DivisibilityError,
    IntegralityError,
    InvalidDiscriminantError,
    NotPrimitiveError,
    PreconditionError,
)


def test_definite_enumeration_fixtures():
    t = enumerate_classes(-20)
    assert t.reps == [(1, 0, 5), (2, 2, 3)]
    assert t.h == 2
    assert enumerate_classes(-8).reps == [(1, 0, 2)]


def test_indefinite_enumeration_delta_12():
    t = enumerate_classes(12)
    # exactly one class contains (1, 2, -2)
    target = cycle_fingerprint((1, 2, -2))
    assert t.classes.count(target) == 1


def test_invalid_discriminants():
    for bad in (0, 7, -5):
        with pytest.raises(InvalidDiscriminantError):
            enumerate_classes(bad)
    with pytest.raises(InvalidDiscriminantError):
        enumerate_classes(16)  # positive square


def test_identity_law():
    t = enumerate_classes(-20)
    e = t.class_index(principal_form(-20))
    for i in range(t.h):
        assert t.compose_indices(e, i) == i


def test_two_torsion_in_cl_minus_20():
    t = enumerate_classes(-20)
    i = t.class_index((2, 2, 3))
    assert t.compose_indices(i, i) == t.class_index(principal_form(-20))


def test_inverse_is_middle_negation():
    t = enumerate_classes(-84)
    for a, b, c in t.reps:
        i = t.class_index((a, b, c))
        j = t.class_index((a, -b, c))
        assert t.compose_indices(i, j) == t.class_index(principal_form(-84))


def test_compose_rejects_imprimitive():
    with pytest.raises(NotPrimitiveError):
        compose((2, 0, 2), (1, 0, 4))


def test_discriminant_errors_name_their_discriminants():
    with pytest.raises(InvalidDiscriminantError,
                       match=r"^mismatched discriminants \(-4, -19\)$"):
        compose((1, 0, 1), (1, 1, 5))
    with pytest.raises(InvalidDiscriminantError,
                       match=r"^wrong discriminant -19 of \(1, 1, 5\), not the table's -20$"):
        enumerate_classes(-20).class_index((1, 1, 5))


def test_ambiguous_form_fixtures():
    assert ambiguous_form_A(2, -20) == (2, 2, 3)
    assert ambiguous_form_A(2, -8) == (2, 0, 1)
    for sigma, d in ((2, -20), (2, -8), (3, 24), (3, -3)):
        a, b, c = ambiguous_form_A(sigma, d)
        assert b * b - 4 * a * c == d
        assert a == sigma


def test_ambiguous_form_divisibility_error():
    with pytest.raises(DivisibilityError):
        ambiguous_form_A(2, -3)


def test_represents():
    assert represents((2, 2, 3), 2)
    assert not represents((1, 0, 5), 2)


def test_verify_red_blue_definite_fixture():
    report = verify_red_blue(2, 1, 1, 3)
    assert report["delta"] == -20
    assert report["red"] == [1, 2, 6]
    assert report["blue"] == [2, 2, 3]
    assert report["relation_holds"] is True


def test_verify_red_blue_indefinite_fixture():
    report = verify_red_blue(3, 1, 0, -2)
    assert report["delta"] == 24
    assert report["red"] == [1, 0, -6]
    assert report["blue"] == [3, 0, -2]
    assert report["relation_holds"] is True


def test_verify_red_blue_precondition():
    with pytest.raises(PreconditionError):
        verify_red_blue(2, 2, 1, 4)  # gcd(a, c) = 2
    with pytest.raises(PreconditionError, match="negative-definite"):
        verify_red_blue(2, -1, 0, -1)  # refused before any class lookup


def test_verify_red_blue_b_zero_needs_primitive_restrictions():
    # b = 0 and sigma | a: the red form (30, 0, 2) is imprimitive
    with pytest.raises(PreconditionError):
        verify_red_blue(2, 30, 0, 1)
    # sigma | c: the blue form (2, 0, 4) is imprimitive
    with pytest.raises(PreconditionError):
        verify_red_blue(2, 1, 0, 4)


def test_converse_search():
    t = enumerate_classes(-20)
    i1 = t.class_index((2, 2, 3))
    i2 = t.class_index((1, 0, 5))
    found = find_diform_for_classes(2, -20, i1, i2, t)
    assert found is not None
    a, b, c = found
    assert 2 * (2 * b * b - 4 * a * c) == -20


def test_class_index_of_a_missing_class_is_typed():
    # a table holding only the principal class of D = -20
    t = ClassGroupTable(-20, [(1, 0, 5)], [(1, 0, 5)])
    assert t.class_index((1, 0, 5)) == 0
    with pytest.raises(ClassificationError):
        t.class_index((2, 2, 3))


def test_converse_search_skips_only_typed_errors(monkeypatch):
    # forms of the missing class are skipped, not fatal
    t = ClassGroupTable(-20, [(1, 0, 5)], [(1, 0, 5)])
    found = find_diform_for_classes(2, -20, 0, 0, t)
    if found is not None:
        q_red, q_blue = classical.red_blue_forms(2, *found)
        assert t.class_index(q_red) == t.class_index(q_blue) == 0

    def broken(self, form):
        raise ZeroDivisionError("not a class-index error")

    monkeypatch.setattr(ClassGroupTable, "class_index", broken)
    with pytest.raises(ZeroDivisionError):
        find_diform_for_classes(2, -20, 0, 1, enumerate_classes(-20))


def test_compose_moves_a_zero_leading_coefficient():
    # only square discriminants have forms with a = 0
    pairs = (((0, 1, 0), (0, 1, 5)), ((0, 3, 2), (2, 5, 2)), ((0, 1, 0), (0, 1, 0)))
    for f1, f2 in pairs:
        a, b, c = compose(f1, f2)
        assert b * b - 4 * a * c == f1[1] ** 2


def test_compose_checks_the_composite_discriminant(monkeypatch):
    xgcd = classgroup._xgcd

    def off_by_one(x, y):
        g, u, v = xgcd(x, y)
        return g, u + 1, v

    monkeypatch.setattr(classgroup, "_xgcd", off_by_one)
    with pytest.raises(IntegralityError):
        compose((2, 2, 3), (5, 0, 1))


def test_to_json_shape():
    t = enumerate_classes(-20)
    t.build_table()
    data = t.to_json()
    assert data["h"] == 2
    assert data["table"] == [[0, 1], [1, 0]]
    assert data["A_class_index"]["2"] == t.class_index((2, 2, 3))
    assert data["A_class_index"]["3"] is None


def test_principal_form():
    assert principal_form(-20) == (1, 0, 5)
    assert principal_form(-3) == (1, 1, 1)
    assert principal_form(13) == (1, 1, -3)


# --- the box-search composition that Cohen's algorithm replaced, as oracle ---


def _ext_gcd(x, y):
    if y == 0:
        return abs(x), (1 if x > 0 else -1), 0
    g, p, q = _ext_gcd(y, x % y)
    return g, q, p - (x // y) * q


def _represented_coprime_to(form, m):
    a, b, c = form
    for bound in (3, 6, 12, 25):
        for x, y in product(range(-bound, bound + 1), repeat=2):
            if math.gcd(x, y) != 1:
                continue
            val = a * x * x + b * x * y + c * y * y
            if val != 0 and math.gcd(val, m) == 1:
                _, r, s = _ext_gcd(x, y)
                c2 = a * s * s - b * s * r + c * r * r
                b2 = 2 * a * x * (-s) + b * (x * r - s * y) + 2 * c * y * r
                return val, b2, c2
    raise PreconditionError("no coprime representative found")


def _crt(r1, m1, r2, m2):
    g = math.gcd(m1, m2)
    l = m1 // g * m2
    _, p, _ = _ext_gcd(m1 // g, m2 // g)
    k = ((r2 - r1) // g * p) % (m2 // g)
    return (r1 + m1 * k) % l


def reference_compose(f1, f2):
    """Dirichlet composition through representatives whose leading
    coefficients are coprime to 2d and to each other."""
    d = f1[1] ** 2 - 4 * f1[0] * f1[2]
    a1, b1, _ = _represented_coprime_to(f1, 2 * d)
    a2, b2, _ = _represented_coprime_to(f2, 2 * a1)
    bb = _crt(b1, 2 * a1, b2, 2 * a2)
    aa = a1 * a2
    return aa, bb, (bb * bb - d) // (4 * aa)


def label(form):
    """The class label the tables use: reduced form or sorted cycle."""
    a, b, c = form
    if b * b - 4 * a * c < 0:
        return reduce_definite(form)
    return cycle_fingerprint(form)


def sl2_word(form, word):
    """The form moved by T^t1 S T^t2 ..., T = [[1, 1], [0, 1]] and
    S = [[0, -1], [1, 0]]."""
    a, b, c = form
    for t in word:
        a, b, c = a, b + 2 * a * t, a * t * t + b * t + c
        a, b, c = c, -b, a
    return a, b, c


words = st.lists(st.integers(-1000, 1000), max_size=6)


@st.composite
def primitive_pairs(draw, sign, size):
    """Two primitive forms of one discriminant d, sign(d) = sign: (pq, B, rs)
    and (pr, B, qs) share B^2 - 4pqrs, then each is moved by an SL2 word.
    |pqrs| <= size^4, so |d| <= 4 size^4 for d < 0.  For d > 0, q < 0 and p, r
    may be negative too."""
    p, q, r, s = (draw(st.integers(1, size)) for _ in range(4))
    if sign < 0:
        bmax = math.isqrt(4 * p * q * r * s - 1)
    else:
        bmax = size ** 2
        q = -q
        if draw(st.booleans()):
            p, r = -p, -r
    b = draw(st.integers(-bmax, bmax))
    f1, f2 = (p * q, b, r * s), (p * r, b, q * s)
    d = b * b - 4 * p * q * r * s
    assume(content(f1) == content(f2) == 1 and math.isqrt(abs(d)) ** 2 != d)
    return sl2_word(f1, draw(words)), sl2_word(f2, draw(words))


@settings(max_examples=150, deadline=None)
@given(primitive_pairs(-1, 700))
def test_compose_matches_box_search_definite(pair):
    f1, f2 = pair
    assert label(compose(f1, f2)) == label(reference_compose(f1, f2))


# the label of d > 0 is a whole rho-cycle, whose length grows like sqrt(d):
# d stays below 4 * 150^4 + 150^4 (about 2.5e9)
@settings(max_examples=150, deadline=None)
@given(primitive_pairs(1, 150))
def test_compose_matches_box_search_indefinite(pair):
    f1, f2 = pair
    assert label(compose(f1, f2)) == label(reference_compose(f1, f2))


SAMPLE = (-900, -899, -771, -640, -420, -255, -84, -20, -3,
          5, 12, 40, 145, 229, 316, 401, 780, 1001, 1164, 1200)


@pytest.fixture(scope="module")
def tables():
    return {d: enumerate_classes(d) for d in SAMPLE}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SAMPLE), st.integers(0, 10 ** 6), words)
def test_class_index_matches_list_index_of_the_label(tables, d, pick, word):
    table = tables[d]
    form = sl2_word(table.reps[pick % table.h], word)
    assert table.class_index(form) == table.classes.index(label(form))


def reference_reps(d):
    """Least form of every class, from every primitive reduced form."""
    s = math.isqrt(abs(d))
    reduced = set()
    for a, b in product(range(-s - 1, s + 2), repeat=2):
        if a == 0 or (b * b - d) % (4 * a):
            continue
        f = (a, b, (b * b - d) // (4 * a))
        if content(f) != 1:
            continue
        if d < 0 and a > 0:
            reduced.add(reduce_definite(f))
        elif d > 0 and is_reduced_indefinite(f, d):
            reduced.add(min(indefinite_cycle(f)))
    return sorted(reduced)


@pytest.mark.parametrize("d", SAMPLE)
def test_reps_and_table_match_box_search_composition(tables, d):
    table = tables[d]
    assert table.reps == reference_reps(d)
    table.build_table()
    labels = [label(f) for f in table.reps]
    assert table.table == [
        [labels.index(label(reference_compose(f, g))) for g in table.reps]
        for f in table.reps
    ]


def sheared(form, n):
    """The form moved by n alternating shears [[1, 1], [0, 1]] and
    [[1, 0], [1, 1]]."""
    a, b, c = form
    for i in range(n):
        if i % 2:
            a, b, c = a + b + c, b + 2 * c, c
        else:
            a, b, c = a, 2 * a + b, a + b + c
    return a, b, c


def test_rho_reduction_far_from_the_cycle():
    # 20,003 shears: rho needs 10,001 steps and the coefficients have about
    # 27,800 bits, one step past a fixed cap of 10,000 steps
    form = sheared((1, 0, -2), 20003)
    assert reduce_indefinite(form) in indefinite_cycle((1, 0, -2))
    t = enumerate_classes(8)
    assert t.class_index(form) == t.class_index((1, 0, -2))


def test_public_rho_steps_the_cycle():
    # reduction and cycles step a private rho given isqrt(d) once; the public
    # rho computes it per call and must agree
    for form in [(1, 0, -2), (-22, 6, 24), (7, 37, -11)]:
        cycle = indefinite_cycle(form)
        d = form[1] ** 2 - 4 * form[0] * form[2]
        assert [classical.rho(f, d) for f in cycle] == list(cycle[1:] + cycle[:1])


def test_rho_reduction_overrun_is_typed(monkeypatch):
    monkeypatch.setattr(classical, "_rho", lambda form, d, s: form)
    with pytest.raises(ClassificationError, match=r"\(1, 0, -3\).* 3 steps"):
        reduce_indefinite((1, 0, -3))
    # a form too long to print is named by its coefficient sizes
    with pytest.raises(ClassificationError, match="5001/5002/2-bit"):
        reduce_indefinite((2 ** 5000, 2 ** 5001 + 1, 3))


def test_reduction_with_isqrt_given_stops_exactly_at_reduced_forms():
    # a form rho fixes lies on its cycle, so _reduce returns its input iff
    # the integer test 0 < b <= s, s - b < 2|a| <= s + b holds, which must
    # be the exact test of is_reduced_indefinite
    for d in range(2, 400):
        if d % 4 not in (0, 1) or math.isqrt(d) ** 2 == d:
            continue
        s = math.isqrt(d)
        for a, b in product(range(-2 * s - 2, 2 * s + 3), range(-s - 2, s + 3)):
            if a == 0 or (b * b - d) % (4 * a):
                continue
            f = (a, b, (b * b - d) // (4 * a))
            assert (classical._reduce(f, d, s) == f) == is_reduced_indefinite(f, d), f
            assert classical._reduce(f, d, s) == reduce_indefinite(f)


@pytest.mark.parametrize("d", [229, 1001, 4 * 1009])
def test_class_group_code_takes_isqrt_once_per_discriminant(d, monkeypatch):
    # the table keeps isqrt(d) for its lookups, and the enumeration steps
    # the cycles of reduced window forms with its own: classical takes one,
    # in is_square, to check the discriminant
    calls = []

    def counting(n):
        calls.append(n)
        return math.isqrt(n)

    monkeypatch.setattr(classical, "math", SimpleNamespace(isqrt=counting, gcd=math.gcd))
    table = enumerate_classes(d)
    table.build_table()
    for f in table.reps:
        table.class_index(classical.transform(f, ((2, 1), (1, 1))))
    assert calls == [d]


def test_imprimitive_huge_form_raises_its_typed_error():
    # str of an int past 4,300 digits raises ValueError, so the message
    # names the form by its coefficient sizes
    b = 4 * 10 ** 5000 + 2
    c = (b * b + 20) // 8
    with pytest.raises(NotPrimitiveError, match="-bit integers"):
        enumerate_classes(-20).class_index((4, 2 * b, 2 * c))


def is_discriminant(d):
    return d % 4 in (0, 1) and d != 0 and not (d > 0 and math.isqrt(d) ** 2 == d)


SMALL = [d for d in range(-400, 401) if is_discriminant(d)] + [-4004, 1001]


@pytest.mark.parametrize("d", SMALL)
def test_build_table_matches_public_compose(d):
    t = enumerate_classes(d)
    t.build_table()
    assert t.table == [[t.class_index(compose(f, g)) for g in t.reps]
                       for f in t.reps]


@pytest.mark.parametrize("d", [-20, -171, -384, -4004, 12, 229, 1001])
def test_build_table_composes_generator_rows_only(d, monkeypatch):
    calls = []
    real = classgroup._compose

    def counted(f, g):
        calls.append((f, g))
        return real(f, g)

    monkeypatch.setattr(classgroup, "_compose", counted)
    t = enumerate_classes(d)
    t.build_table()
    # at most (h - 1).bit_length() generators, h compositions each
    assert len(calls) <= t.h * (t.h - 1).bit_length()
    assert t.table == [list(column) for column in zip(*t.table)]


def test_build_table_refuses_past_its_budget_before_composing(monkeypatch):
    t = enumerate_classes(-56)  # h = 4, so 16 cells

    def never(f, g):
        raise AssertionError("build_table composed past its budget")

    monkeypatch.setattr(classgroup, "_compose", never)
    monkeypatch.setattr(classgroup, "TABLE_BUDGET", 15)
    with pytest.raises(BudgetError, match="order 4 needs 16 table cells, over "
                                          "the budget of 15"):
        t.build_table()
    assert t.table == []
    monkeypatch.undo()
    monkeypatch.setattr(classgroup, "TABLE_BUDGET", 16)
    t.build_table()
    assert len(t.table) == 4


def test_enumerate_classes_refuses_past_its_budget_before_enumerating(
        monkeypatch):
    def never(d):
        raise AssertionError("enumerate_classes searched past its budget")

    for d in (-4004, 1001):
        size = classgroup._enumeration_size(d)
        monkeypatch.setattr(classgroup, "_enumerate_definite", never)
        monkeypatch.setattr(classgroup, "_enumerate_indefinite", never)
        monkeypatch.setattr(classgroup, "ENUM_BUDGET", size - 1)
        with pytest.raises(BudgetError, match=(
                f"discriminant {d} tests up to {size} candidate forms, over "
                f"the budget of {size - 1}")):
            enumerate_classes(d)
        monkeypatch.undo()
        monkeypatch.setattr(classgroup, "ENUM_BUDGET", size)
        assert enumerate_classes(d).h == {-4004: 40, 1001: 4}[d]
        monkeypatch.undo()


def test_enumerate_classes_refuses_a_huge_discriminant_at_once():
    start = time.perf_counter()
    with pytest.raises(BudgetError, match="-400000000004 tests up to"):
        enumerate_classes(-400000000004)
    assert time.perf_counter() - start < 1
    # h = 8064, enumerated in seconds, stays admitted
    assert classgroup._enumeration_size(-446185740) <= classgroup.ENUM_BUDGET


# --- the blind-search enumerators that the reduced windows replaced ---


def blind_definite(d):
    out = []
    amax = math.isqrt(-d // 3) if d < -3 else 1
    for a in range(1, amax + 1):
        for b in range(-a, a + 1):
            if (b - d) % 2:
                continue
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if (b < 0 and (-b == a or a == c)):
                continue
            if content((a, b, c)) != 1:
                continue
            out.append((a, b, c))
    return sorted(out)


def blind_indefinite(d):
    s = math.isqrt(d)
    seen = set()
    cycles = []
    for b in range(1, s + 1):
        if (b - d) % 2:
            continue
        m = (d - b * b) // 4
        for a in _divisors(m):
            for aa in (a, -a):
                c = (b * b - d) // (4 * aa)
                f = (aa, b, c)
                if f in seen or not is_reduced_indefinite(f, d):
                    continue
                if content(f) != 1:
                    continue
                fp = cycle_fingerprint(f)
                seen.update(fp)
                cycles.append(fp)
    return sorted(cycles)


def _divisors(m):
    out = set()
    for a in range(1, math.isqrt(m) + 1):
        if m % a == 0:
            out.add(a)
            out.add(m // a)
    return sorted(out)


def window_candidates(d):
    """The (a, b) pairs the reduced windows test, counted window by window."""
    if d < 0:
        return sum(max(0, math.isqrt((b * b - d) // 4) - max(b, 1) + 1)
                   for b in range(d & 1, math.isqrt(-d) + 1, 2))
    s = math.isqrt(d)
    return sum(max(0, math.isqrt((d - b * b) // 4) - (s - b) // 2)
               for b in range(2 - (d & 1), s + 1, 2))


def check_enumeration(d):
    if d < 0:
        assert classgroup._enumerate_definite(d) == blind_definite(d), d
    else:
        assert classgroup._enumerate_indefinite(d) == blind_indefinite(d), d
    assert window_candidates(d) <= classgroup._enumeration_size(d), d


def test_enumeration_matches_blind_search_up_to_3000():
    for d in range(-3000, 3001):
        if is_discriminant(d):
            check_enumeration(d)


def test_enumeration_matches_blind_search_at_random_up_to_10_to_5():
    rng = random.Random(20181)
    drawn = 0
    while drawn < 100:
        d = rng.randint(-10 ** 5, 10 ** 5)
        if is_discriminant(d):
            check_enumeration(d)
            drawn += 1


def kronecker(d, n):
    """The Kronecker symbol (d/n) for n > 0."""
    result = 1
    while n % 2 == 0:
        n //= 2
        if d % 2 == 0:
            return 0
        if d % 8 in (3, 5):
            result = -result
    a = d % n  # the Jacobi symbol (a/n), n odd
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def is_fundamental(d):
    def squarefree(m):
        return all(m % (p * p) for p in range(2, math.isqrt(m) + 1))

    if d % 4 == 1:
        return squarefree(abs(d))
    return d % 4 == 0 and (d // 4) % 4 in (2, 3) and squarefree(abs(d) // 4)


def test_class_numbers_match_dirichlets_formula():
    # h = -(w / 2|d|) sum(n (d/n) for 0 < n < |d|), d < 0 fundamental
    checked = 0
    for d in range(-3, -2001, -1):
        if not is_fundamental(d):
            continue
        w = {-3: 6, -4: 4}.get(d, 2)
        total = sum(n * kronecker(d, n) for n in range(1, -d))
        assert enumerate_classes(d).h * 2 * -d == -w * total, d
        checked += 1
    assert checked == 611
