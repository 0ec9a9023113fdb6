import pytest

from reference import euclid_gcd, is_primitive
from topograph.errors import (
    IntegralityError,
    TagMismatchError,
    UnsupportedRingError,
)
from topograph.rings import (
    EISENSTEIN,
    GAUSS,
    QRE,
    ZSQRT2,
    units,
    zero,
)


def test_gauss_multiplication():
    i = QRE(GAUSS, 0, 1)
    assert i * i == QRE(GAUSS, -1, 0)
    z = QRE(GAUSS, 2, 3) * QRE(GAUSS, 1, -1)
    assert (z.x, z.y) == (5, 1)


def test_eisenstein_omega_square():
    w = QRE(EISENSTEIN, 0, 1)
    assert w * w == QRE(EISENSTEIN, -1, -1)
    assert (w * w * w) == QRE(EISENSTEIN, 1, 0)


def test_sqrt2_arithmetic():
    s = QRE(ZSQRT2, 0, 1)
    assert s * s == QRE(ZSQRT2, 2, 0)
    assert QRE(ZSQRT2, 1, 1).norm() == -1


def test_conjugation_and_norm():
    z = QRE(GAUSS, 3, 4)
    assert z.conj() == QRE(GAUSS, 3, -4)
    assert z.norm() == 25
    w = QRE(EISENSTEIN, 2, 1)
    assert w.conj() == QRE(EISENSTEIN, 1, -1)
    assert w.norm() == 3  # 4 - 2 + 1


def test_norm_outside_z_is_typed(monkeypatch):
    # a wrong conjugate makes z * conj(z) leave Z
    monkeypatch.setattr(QRE, "conj", lambda self: self)
    with pytest.raises(IntegralityError):
        QRE(GAUSS, 1, 1).norm()


def test_unit_groups():
    assert len(units(GAUSS)) == 4
    assert len(units(EISENSTEIN)) == 6
    assert all(u.is_unit() for u in units(GAUSS) + units(EISENSTEIN))
    with pytest.raises(UnsupportedRingError):
        units(ZSQRT2)


def test_tag_mismatch():
    with pytest.raises(TagMismatchError):
        QRE(GAUSS, 1, 0) + QRE(EISENSTEIN, 1, 0)


def test_euclid_gcd_gauss():
    a = QRE(GAUSS, 1, 1) * QRE(GAUSS, 5, 0)
    b = QRE(GAUSS, 1, 1) * QRE(GAUSS, 0, 3)
    g = euclid_gcd(a, b)
    # gcd is (1+i) times a unit (3 and 5 are coprime in Z[i])
    assert g.norm() in (2, -2)


def test_euclid_gcd_eisenstein():
    a = QRE(EISENSTEIN, 6, 0)
    b = QRE(EISENSTEIN, 4, 0)
    assert euclid_gcd(a, b).norm() == 4  # gcd 2


def test_is_primitive():
    assert is_primitive((QRE(GAUSS, 1, 1), QRE(GAUSS, 0, 1)))
    # gcd(1+i, 2i) = 1+i, a non-unit
    assert not is_primitive((QRE(GAUSS, 1, 1), QRE(GAUSS, 0, 2)))
    assert not is_primitive((QRE(GAUSS, 2, 0), QRE(GAUSS, 0, 2)))
    assert not is_primitive((zero(GAUSS), zero(GAUSS)))
