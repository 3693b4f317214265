"""Behaviour of the ten immutable value types: construction, defaults,
equality, hashing, immutability and repr."""

from fractions import Fraction

import pytest

from transopt import (
    DualCertificate,
    FeasibilityReport,
    HungarianIteration,
    LineCover,
    MongeReport,
    OptimalityReport,
    OracleResult,
    ProblemPSpec,
    SolveTrace,
    TransportInstance,
    TransportPlan,
)

F = Fraction
COVER = LineCover(frozenset({0}), frozenset({1}), F(3))
ITERATION = HungarianIteration(((F(0), F(1)),), COVER, F(2), F(1))
PLAN = TransportPlan({(0, 0): 1})
CERT = DualCertificate((F(0),), (F(1),))


def shape(t):
    return t * t


# class -> ordered (field name, value) pairs; values already in normal form
CASES = {
    TransportInstance: (
        ("cost", ((F(1), F(2)),)),
        ("supply", (F(3),)),
        ("demand", (F(1), F(2))),
        ("total", F(3)),
    ),
    DualCertificate: (("alpha", (F(1), F(-2))), ("beta", (F(1, 2),))),
    FeasibilityReport: (("feasible", False), ("violations", (("row", 0, F(1)),))),
    OptimalityReport: (("optimal", False), ("violation", ("dual", 0, 1, F(2), F(1)))),
    LineCover: (("rows", frozenset({0})), ("cols", frozenset({1})), ("weight", F(3))),
    HungarianIteration: (
        ("matrix", ((F(0), F(1)),)),
        ("cover", COVER),
        ("flow_value", F(2)),
        ("delta", F(1)),
    ),
    SolveTrace: (
        ("scale", 1),
        ("iterations", (ITERATION,)),
        ("plan", PLAN),
        ("certificate", CERT),
    ),
    MongeReport: (
        ("holds", False),
        ("witness", (0, 0, 1, 1)),
        ("direct_sum", F(3)),
        ("cross_sum", F(2)),
    ),
    ProblemPSpec: (
        ("x", (F(0), F(1))),
        ("y", (F(1),)),
        ("p_row", (F(1, 2), F(1, 2))),
        ("p_col", (F(1),)),
        ("f", shape),
    ),
    OracleResult: (("optimum", F(5)), ("plan", PLAN), ("optimal_count", 2)),
}

parametrize = pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)


def values(cls):
    return [value for _, value in CASES[cls]]


@parametrize
def test_positional_and_keyword_construction_agree(cls):
    positional = cls(*values(cls))
    keyword = cls(**dict(reversed(CASES[cls])))
    assert positional == keyword
    for name, value in CASES[cls]:
        assert getattr(positional, name) == value
    assert cls.__match_args__ == tuple(name for name, _ in CASES[cls])


@parametrize
def test_equal_fields_give_equal_hashes(cls):
    assert hash(cls(*values(cls))) == hash(cls(*values(cls)))


@parametrize
def test_not_equal_to_its_tuple_or_another_class(cls):
    obj = cls(*values(cls))
    other = type("Other", (cls,), {})
    assert obj != tuple(values(cls))
    assert obj != other(*values(cls))
    assert other(*values(cls)) != obj


@parametrize
def test_fields_cannot_be_assigned_or_deleted(cls):
    obj = cls(*values(cls))
    name, value = CASES[cls][0]
    with pytest.raises(AttributeError):
        setattr(obj, name, value)
    with pytest.raises(AttributeError):
        delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.unknown = 1
    assert getattr(obj, name) == value


@parametrize
def test_repr_names_every_field(cls):
    body = ", ".join(f"{name}={value!r}" for name, value in CASES[cls])
    assert repr(cls(*values(cls))) == f"{cls.__name__}({body})"


@parametrize
def test_wrong_argument_count(cls):
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*values(cls), None)
    with pytest.raises(TypeError):
        cls(**dict(CASES[cls]), unknown=1)
    with pytest.raises(TypeError):
        cls(*values(cls), **{CASES[cls][0][0]: values(cls)[0]})


def test_defaults():
    assert FeasibilityReport(True).violations == ()
    assert OptimalityReport(True).violation is None
    report = MongeReport(True)
    assert report.witness is None
    assert report.direct_sum is None and report.cross_sum is None
    assert MongeReport(True) == MongeReport(True, None, None, None)


def test_lists_normalise_to_fraction_tuples():
    cert = DualCertificate([1, 2], [3])
    assert cert.alpha == (F(1), F(2)) and cert.beta == (F(3),)
    assert type(cert.alpha) is tuple and type(cert.beta) is tuple
    assert all(type(v) is Fraction for v in cert.alpha + cert.beta)
    assert cert == DualCertificate((F(1), F(2)), (F(3),))

    spec = ProblemPSpec([0, "1/2"], [1], [1], [1], shape)
    for name in ("x", "y", "p_row", "p_col"):
        assert type(getattr(spec, name)) is tuple
        assert all(type(v) is Fraction for v in getattr(spec, name))
    assert spec.x == (F(0), F(1, 2))
    assert spec == ProblemPSpec((F(0), F(1, 2)), (F(1),), (F(1),), (F(1),), shape)
