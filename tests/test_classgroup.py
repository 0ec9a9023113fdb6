import pytest

from topograph import classgroup
from topograph.classgroup import (
    ClassGroupTable,
    ambiguous_form_A,
    compose,
    enumerate_classes,
    find_diform_for_classes,
    principal_form,
    represents,
    verify_red_blue,
)
from topograph.classical import cycle_fingerprint
from topograph.errors import (
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
    e = t.identity_index()
    for i in range(t.h):
        assert t.compose_indices(e, i) == i


def test_two_torsion_in_cl_minus_20():
    t = enumerate_classes(-20)
    i = t.class_index((2, 2, 3))
    assert t.compose_indices(i, i) == t.identity_index()


def test_inverse_is_middle_negation():
    t = enumerate_classes(-84)
    for a, b, c in t.reps:
        i = t.class_index((a, b, c))
        j = t.class_index((a, -b, c))
        assert t.compose_indices(i, j) == t.identity_index()


def test_compose_rejects_imprimitive():
    with pytest.raises(NotPrimitiveError):
        compose((2, 0, 2), (1, 0, 4))


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
        q_red, q_blue = classgroup.red_blue_forms(2, *found)
        assert t.class_index(q_red) == t.class_index(q_blue) == 0

    def broken(self, form):
        raise ZeroDivisionError("not a class-index error")

    monkeypatch.setattr(ClassGroupTable, "class_index", broken)
    with pytest.raises(ZeroDivisionError):
        find_diform_for_classes(2, -20, 0, 1, enumerate_classes(-20))


def test_represented_coprime_to_checks_the_sl2_completion(monkeypatch):
    monkeypatch.setattr(classgroup, "_ext_gcd", lambda x, y: (1, 0, 0))
    with pytest.raises(IntegralityError):
        classgroup._represented_coprime_to((2, 2, 3), 10)


def test_compose_checks_the_composite_discriminant(monkeypatch):
    crt = classgroup._crt
    monkeypatch.setattr(classgroup, "_crt", lambda *args: crt(*args) + 1)
    with pytest.raises(IntegralityError):
        compose((2, 2, 3), (2, 2, 3))


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
