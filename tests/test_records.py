"""The record types are NamedTuples: construction by position and by
keyword, read-only fields, the ``Name(field=value, ...)`` repr, and the
typed errors of the four that check their fields."""

import math

import pytest

from tilelab.boundary import (TIL2, BalancedPair, FaultLine, SlippageProfile,
                              SubstitutionRule1D, sigma_til12, slippage_til12,
                              til2_pairs)
from tilelab.classify import (ClassificationReport, OrientationCensus, classify,
                              orientation_census)
from tilelab.errors import ArgumentError, DomainError, GeometryError
from tilelab.geometry import (DaughterFrame, Placement, Similarity, Tile,
                              TriangleShape, shape_from_pq, shape_from_theta)
from tilelab.spectral import (IrrationalSpectrum, OrientationMatrix,
                              SpectralReport, eigen, irrational_spectrum,
                              orientation_matrices)
from tilelab.stats import ComparisonReport, Histogram, OrientationHistogram
from tilelab.substitution import SupertileChain, TraceSegment

SHAPE = shape_from_pq(1, 2)
PLACEMENT = Placement(handedness=1, phi=0.0, origin=(0.0, 0.0), size_exp=(0, 0))

FIELDS = {
    TriangleShape: SHAPE._asdict(),
    DaughterFrame: SHAPE.daughter_frames()[3]._asdict(),
    Similarity: dict(handedness=-1, phi=0.5, scale=2.0, translation=(1.0, 0.0)),
    Placement: PLACEMENT._asdict(),
    Tile: dict(shape=SHAPE, placement=PLACEMENT, id=0, parent=None),
    TraceSegment: dict(tile_id=3, kind="H", sign=-1, length=0.5, size_class=1,
                       position=0.25),
    SupertileChain: dict(orders=[3], levels=[]),
    ClassificationReport: classify(SHAPE)._asdict(),
    OrientationCensus: orientation_census(SHAPE, 2)._asdict(),
    SpectralReport: eigen(SHAPE)._asdict(),
    OrientationMatrix: orientation_matrices(SHAPE, 1)._asdict(),
    IrrationalSpectrum: irrational_spectrum(shape_from_theta(1.0))._asdict(),
    Histogram: dict(weighting="count", labels=(1, 2), masses=(0.75, 0.25)),
    OrientationHistogram: dict(bins=2, cells={(1, 1): 1.0},
                               phi_bins={(1, 1): (0.5, 0.5)}),
    ComparisonReport: dict(name="size", weighting="area", labels=(1, 2),
                           analytic=(0.5, 0.5), empirical=(0.25, 0.75),
                           tolerance=0.1, metric="cdf_sup"),
    SubstitutionRule1D: sigma_til12()._asdict(),
    FaultLine: TIL2._asdict(),
    SlippageProfile: slippage_til12(3)._asdict(),
    BalancedPair: til2_pairs()[0]._asdict(),
}


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_construction_by_keyword_and_by_position(cls):
    kwargs = FIELDS[cls]
    assert list(kwargs) == list(cls._fields)
    for record in (cls(**kwargs), cls(*kwargs.values())):
        assert type(record) is cls
        assert all(getattr(record, name) is value for name, value in kwargs.items())
        assert record == tuple(kwargs.values())     # a record is a tuple


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_fields_refuse_assignment(cls):
    record = cls(**FIELDS[cls])
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_repr_names_every_field(cls):
    kwargs = FIELDS[cls]
    fields = ", ".join(f"{name}={value!r}" for name, value in kwargs.items())
    assert repr(cls(**kwargs)) == f"{cls.__name__}({fields})"


def test_defaults_fill_the_trailing_fields():
    assert Similarity() == (1, 0.0, 1.0, (0.0, 0.0))
    assert Tile(SHAPE, PLACEMENT, 4).parent is None
    shape = TriangleShape(*list(SHAPE)[:10])
    assert shape.rationality is None and shape.r is None
    assert ComparisonReport("n", "count", (), (), (), 0.0).metric == "l1"


@pytest.mark.parametrize("changes, error", [
    ({"theta": 0.0}, DomainError),
    ({"theta": math.pi / 2.0}, DomainError),
    ({"theta": float("nan")}, DomainError),
    ({"a": 0.0}, GeometryError),
    ({"b": -1.0}, GeometryError),
    ({"c": 0.0}, GeometryError),
])
def test_shape_checks_its_fields(changes, error):
    kwargs = {**SHAPE._asdict(), **changes}
    with pytest.raises(error):
        TriangleShape(**kwargs)
    with pytest.raises(error):
        TriangleShape(*kwargs.values())


def test_shape_keeps_its_caches_off_the_fields():
    shape = shape_from_pq(2, 5)
    assert shape.daughter_frames() is shape.daughter_frames()
    assert len(shape) == len(TriangleShape._fields)
    assert hash(shape) == hash(tuple(shape))
    with pytest.raises(AttributeError):
        shape.theta = 0.5


@pytest.mark.parametrize("kwargs", [
    dict(name="x", chars="AB", images={"A": "AB"}),
    dict(name="x", chars="AB", images={"A": "AB", "B": "C"}),
    dict(name="x", chars="A", images={"A": "A", "B": "A"}),
], ids=["image-missing", "letter-outside", "image-extra"])
def test_rule_checks_its_fields(kwargs):
    with pytest.raises(ArgumentError):
        SubstitutionRule1D(**kwargs)
    with pytest.raises(ArgumentError):
        SubstitutionRule1D(*kwargs.values())


def test_fault_line_checks_its_fields_by_keyword():
    with pytest.raises(ArgumentError):
        FaultLine(**{**TIL2._asdict(), "leg": "X"})
    with pytest.raises(ArgumentError):
        FaultLine(**{**TIL2._asdict(), "segments": {"H": (1, 0, 1)}})


@pytest.mark.parametrize("tolerance", [-0.1, float("nan"), float("inf"), "0.1", None])
def test_comparison_report_checks_its_tolerance(tolerance):
    kwargs = {**FIELDS[ComparisonReport], "tolerance": tolerance}
    with pytest.raises(ArgumentError, match="tolerance"):
        ComparisonReport(**kwargs)
    with pytest.raises(ArgumentError, match="tolerance"):
        ComparisonReport(*kwargs.values())


def test_checked_records_take_no_other_attribute():
    # the shape and the fault line keep caches in their instance dict;
    # the other two checked records have none
    for record in (sigma_til12(), ComparisonReport(**FIELDS[ComparisonReport])):
        with pytest.raises(AttributeError):
            record.cache = {}

