"""Semantics of the record types: value types are NamedTuples, QRE and BHF
small immutable classes, ClassGroupTable and LayoutPatch plain mutable ones."""

import pytest

from topograph.bqf import BQF, CellValues, cell_values
from topograph.classgroup import ClassGroupTable
from topograph.diform import DiRiverPeriod, DiRiverStep, diform_river
from topograph.dilinear import (
    BLUE,
    BQD,
    RED,
    DiCellValues,
    Divector,
    Pinwheel,
    dicell_values,
    pinwheel_complete,
)
from topograph.errors import PreconditionError, TagMismatchError, UnsupportedRingError
from topograph.hermitian import BHF, STANDARD_CUBASIS, CubeValues, cube_values
from topograph.groups import STANDARD_FLAG, Flag
from topograph.lax import STANDARD_SUPERBASE, Superbase
from topograph.reduction import (
    MinimumReport,
    PellSolution,
    RiverPeriod,
    Well,
    find_well,
    minimum_nonzero,
    pell_solve,
    trace_river,
)
from topograph.render import LayoutPatch
from topograph.rings import EISENSTEIN, GAUSS, QRE, Z


def _build():
    """Each value type, built by the library from a fixed input."""
    h = BHF(GAUSS, 1, QRE(GAUSS, 1, 0), -2)
    river = diform_river(BQD(2, 1, 0, -1))
    return {
        BQF: BQF(1, 0, -3),
        CellValues: cell_values(BQF(1, 0, -3), STANDARD_SUPERBASE, 0),
        Superbase: STANDARD_SUPERBASE,
        Flag: STANDARD_FLAG,
        Well: find_well(BQF(5, 7, 3)),
        MinimumReport: minimum_nonzero(BQF(3, 0, -5)),
        RiverPeriod: trace_river(BQF(1, 0, -3)),
        PellSolution: pell_solve(61),
        Divector: Divector(RED, 1, 0),
        Pinwheel: pinwheel_complete(Divector(RED, 1, 0), Divector(BLUE, 0, 1), 2),
        BQD: BQD(2, 1, 0, -1),
        DiCellValues: dicell_values(BQD(2, 1, 0, -1), Divector(RED, 1, 0),
                                    Divector(BLUE, 0, 1)),
        DiRiverStep: river.steps[0],
        DiRiverPeriod: river,
        CubeValues: cube_values(h, STANDARD_CUBASIS),
        QRE: QRE(EISENSTEIN, 2, -1),
        BHF: h,
    }


VALUE_TYPES = [BQF, CellValues, Superbase, Flag, Well, MinimumReport, RiverPeriod,
               PellSolution, Divector, Pinwheel, BQD, DiCellValues, DiRiverStep,
               DiRiverPeriod, CubeValues]


def _copy(record):
    if isinstance(record, QRE):
        return QRE(record.ring, record.x, record.y)
    if isinstance(record, BHF):
        return BHF(record.ring, record.a, record.gamma, record.c)
    return type(record)(*record)


@pytest.mark.parametrize("cls", VALUE_TYPES + [QRE, BHF], ids=lambda c: c.__name__)
def test_equal_fields_make_equal_records_with_equal_hashes(cls):
    record = _build()[cls]
    assert type(record) is cls
    twin = _copy(record)
    assert twin is not record
    assert twin == record
    assert hash(twin) == hash(record)
    assert not (twin != record)


@pytest.mark.parametrize("cls", VALUE_TYPES + [QRE, BHF], ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned(cls):
    record = _build()[cls]
    field = cls.__slots__[0] if cls in (QRE, BHF) else cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        record.not_a_field = 0
    if cls in (QRE, BHF):
        with pytest.raises(AttributeError):
            delattr(record, field)


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda c: c.__name__)
def test_value_types_are_their_field_tuples(cls):
    record = _build()[cls]
    assert isinstance(record, tuple)
    assert tuple(record) == tuple(getattr(record, f) for f in cls._fields)
    assert record == tuple(record)
    assert hash(record) == hash(tuple(record))


def test_unequal_fields_make_unequal_records():
    assert BQF(1, 0, -3) != BQF(1, 0, 3)
    assert QRE(GAUSS, 1, 0) != QRE(EISENSTEIN, 1, 0)
    assert QRE(GAUSS, 1, 0) != (GAUSS, 1, 0)
    assert BHF(GAUSS, 1, QRE(GAUSS, 1, 0), -2) != BHF(GAUSS, 1, QRE(GAUSS, 1, 1), -2)


def test_reprs_are_unchanged():
    assert repr(BQF(1, 0, -3)) == "BQF(a=1, b=0, c=-3)"
    assert repr(find_well(BQF(5, 7, 3))) == (
        "Well(kind='triad-well', values=(1, 3, 3), "
        "vectors=((1, -1), (0, -1), (-1, 2)), orientation='negative')")
    assert repr(minimum_nonzero(BQF(3, 0, -5))) == (
        "MinimumReport(mu=2, witness=(1, 1), disc=60)")
    assert repr(QRE(GAUSS, 1, -2)) == "QRE(Gauss, 1, -2)"
    assert repr(BHF(GAUSS, 1, QRE(GAUSS, 1, 0), -2)) == (
        "BHF(ring='Gauss', a=1, gamma=QRE(Gauss, 1, 0), c=-2)")


def test_value_types_unpack_and_sort_as_tuples():
    a, b, c = BQF(2, -1, 3)
    assert (a, b, c) == (2, -1, 3)
    assert sorted([BQF(2, 0, 1), BQF(1, 5, 5)]) == [(1, 5, 5), (2, 0, 1)]
    color, u, v = -Divector(BLUE, 2, -3)
    assert (color, u, v) == (BLUE, -2, 3)


def test_qre_and_bhf_validate_when_built():
    with pytest.raises(UnsupportedRingError):
        QRE("Z_sqrt5", 1, 0)
    with pytest.raises(TagMismatchError):
        QRE(Z, 1, 1)
    with pytest.raises(PreconditionError):
        BHF(Z, 1, QRE(Z, 1, 0), 1)
    with pytest.raises(PreconditionError):
        BHF(GAUSS, 1, QRE(EISENSTEIN, 1, 0), 1)


def test_qre_is_not_a_tuple():
    z = QRE(GAUSS, 1, 2)
    assert not isinstance(z, tuple)
    for bad in (lambda: 3 * z, lambda: z * 3, lambda: z + 1, lambda: 1 + z,
                lambda: z - (GAUSS, 1, 2)):
        with pytest.raises(TypeError):
            bad()
    with pytest.raises(TypeError):
        iter(z)
    with pytest.raises(TagMismatchError):
        z + QRE(EISENSTEIN, 1, 2)


def test_mutable_records_start_empty_and_keep_their_fields():
    patch = LayoutPatch("3inf", 2, (1, 0, 1))
    assert (patch.geometry, patch.depth, patch.form) == ("3inf", 2, (1, 0, 1))
    assert patch.counts() == {"vertices": 0, "edges": 0, "faces": 0}
    patch.vertices.append((0.0, 0.0, False))
    assert LayoutPatch("3inf", 2, None).vertices == []
    t = ClassGroupTable(-20, [(1, 0, 5), (2, 2, 3)], [(1, 0, 5), (2, 2, 3)])
    assert (t.disc, t.h, t.table) == (-20, 2, [])
    t.build_table()
    assert t.table == [[0, 1], [1, 0]]
    assert ClassGroupTable(-20, [(1, 0, 5)], [(1, 0, 5)]).table == []
