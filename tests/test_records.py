"""The library's result records: constructor keywords and defaults,
immutability, equality, hashing, repr and JSON of each one.

The immutable records are tuples with named fields; the mutable ones are
plain classes.  The fields, their order and their defaults below are the
records' public interface."""

from fractions import Fraction

import pytest

from liecoh.algebra import parse_span, su2
from liecoh.classify import BctReport, BctSample, ClassificationReport, LeviForm
from liecoh.cohomology import BigradedComplex, CochainComplex, CohomologyTable
from liecoh.decompose import AssemblyReport, full_assembly
from liecoh.linalg import EigenSplit, Inertia
from liecoh.roots import PositiveSystem, RootDatum, StandardStructure
from liecoh.scalars import GaussianRational as Q
from liecoh.torus import (
    DivisorEntry,
    DivisorReport,
    DPrimeSolution,
    FourierData,
    MuSpec,
    TorusError,
)

# (class, fields in constructor order, defaults)
FROZEN = [
    (EigenSplit, "pairs diagonalizable", {}),
    (Inertia, "n_pos n_neg n_zero", {}),
    (ClassificationReport, "elliptic complex_structure cr essentially_real dim_h dim_conj "
                           "dim_sum dim_intersection ambient_dim", {}),
    (LeviForm, "xi basis matrix", {}),
    (BctSample, "coeffs covector inertia", {}),
    (BctReport, "verdict characteristic_space levi_forms samples notes", {}),
    (RootDatum, "algebra torus roots spaces zero_space torus_is_maximal notes", {}),
    (PositiveSystem, "positive_roots", {}),
    (StandardStructure, "subalgebra torus_part s t positive predicted report "
                        "prediction_matches", {}),
    (MuSpec, "kind value quotients", {"value": None, "quotients": ()}),
    (DivisorEntry, "j p q window_min window_max bound status", {}),
]
MUTABLE = [
    (CochainComplex, "labels int_differentials", {}),
    (BigradedComplex, "labels int_differentials p", {}),
    (CohomologyTable, "dims representatives meta", {"representatives": None, "meta": {}}),
    (FourierData, "cutoff coefficients", {"coefficients": {}}),
    (DPrimeSolution, "solution obstructions mu_used substituted", {}),
    (DivisorReport, "verdict quotients convergents depth entries enclosure tail_start notes",
     {"enclosure": None, "tail_start": None, "notes": []}),
    (AssemblyReport, "k_sub u_ideal k_table fiber_dual table_dual p_totals "
                     "riemann_comparison notes",
     {"riemann_comparison": {}, "notes": []}),
]
RECORDS = FROZEN + MUTABLE


def sample_values(cls, fields):
    """A distinct, hashable value per field; FourierData validates its
    input, so it gets data that passes unchanged."""
    if cls is FourierData:
        return {"cutoff": 2, "coefficients": {(1, -1): Q(3)}}
    return {name: f"<{name}>" for name in fields}


@pytest.mark.parametrize("cls,fields,defaults", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_constructor_keywords_order_and_defaults(cls, fields, defaults):
    fields = fields.split()
    values = sample_values(cls, fields)
    by_keyword = cls(**values)
    by_position = cls(*(values[name] for name in fields))
    for name in fields:
        assert getattr(by_keyword, name) == values[name]
        assert getattr(by_position, name) == values[name]
    required = {name: values[name] for name in fields if name not in defaults}
    bare = cls(**required)
    for name, default in defaults.items():
        assert getattr(bare, name) == default
    with pytest.raises(TypeError):
        cls(**required, unknown=1)
    if required:
        with pytest.raises(TypeError):
            cls(**dict(list(required.items())[1:]))


@pytest.mark.parametrize("cls,fields,defaults", MUTABLE, ids=[r[0].__name__ for r in MUTABLE])
def test_default_containers_are_fresh_per_instance(cls, fields, defaults):
    values = sample_values(cls, fields.split())
    required = {name: value for name, value in values.items() if name not in defaults}
    a, b = cls(**required), cls(**required)
    for name, default in defaults.items():
        if isinstance(default, (dict, list)):
            assert getattr(a, name) is not getattr(b, name)


@pytest.mark.parametrize("cls,fields,defaults", FROZEN, ids=[r[0].__name__ for r in FROZEN])
def test_frozen_records_are_immutable_hashable_values(cls, fields, defaults):
    fields = fields.split()
    values = sample_values(cls, fields)
    record = cls(**values)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, "changed")
    with pytest.raises(AttributeError):
        record.extra = 1
    twin = cls(**values)
    assert twin == record and not twin != record
    assert hash(twin) == hash(record) == hash(tuple(values[name] for name in fields))
    other = cls(**dict(values, **{fields[-1]: "other"}))
    assert other != record
    shown = ", ".join(f"{name}={values[name]!r}" for name in fields)
    assert repr(record) == f"{cls.__name__}({shown})"


def test_fourier_data_validates_and_compares_coefficients():
    f = FourierData(cutoff=2, coefficients={(1, -1): 3, (0, 2): Q(0)})
    assert f.coefficients == {(1, -1): Q(3)}
    assert isinstance(f.coefficients[(1, -1)], Q)
    assert f == FourierData(cutoff=5, coefficients={(1, -1): Q(3)})
    assert f != FourierData(cutoff=2)
    with pytest.raises(TorusError, match="exceeds the cutoff"):
        FourierData(cutoff=1, coefficients={(2, 0): 1})
    with pytest.raises(TypeError):
        hash(f)


def test_record_methods_and_json():
    inertia = Inertia(2, 1, 0)
    assert (inertia.swapped(), inertia.is_mixed(), inertia.as_tuple()) == (
        Inertia(1, 2, 0), True, (2, 1, 0)
    )
    assert ClassificationReport.from_rank(8, 3, 6).to_json_dict() == {
        "flags": {"elliptic": False, "complex": False, "cr": True, "essentially_real": False},
        "dims": {"h": 3, "h_conj": 3, "h_plus_conj": 6, "h_cap_conj": 0, "ambient": 8},
    }
    sample = BctSample((1, -1), (Q(1), Q(0, -1)), Inertia(1, 1, 0))
    assert sample.to_json_dict() == {
        "coefficients": [1, -1], "covector": ["1", "-i"], "inertia": [1, 1, 0]
    }
    report = BctReport("inconclusive", ((Q(1),), (Q(2),)), (), (sample,), ("a note",))
    assert report.characteristic_dim == 2
    assert report.to_json_dict() == {
        "verdict": "inconclusive", "characteristic_dim": 2,
        "samples": [sample.to_json_dict()], "notes": ["a note"],
    }
    assert PositiveSystem(((Q(0, 1), Q(0, -2)),)).to_json_dict() == {
        "positive_roots": [["i", "-2i"]]
    }
    assert MuSpec.rational(Fraction(2, 3)) == MuSpec(kind="rational", value=Fraction(2, 3))
    assert MuSpec.from_cf([1, 2, 3]) == MuSpec("cf", None, (1, 2, 3))
    assert MuSpec.from_cf([1, 2, 3]).describe() == "[1;2,3]"
    entry = DivisorEntry(1, 3, 2, Fraction(0), Fraction(1, 4), Fraction(1, 13), "undetermined")
    assert entry.to_json_dict() == {
        "j": 1, "p": 3, "q": 2, "window": ["0", "1/4"], "bound": "1/13",
        "status": "undetermined",
    }
    assert DivisorReport("rational", (0, 1), [(0, 1)], 0, []).to_json_dict() == {
        "verdict": "rational", "quotients": [0, 1], "convergents": [[0, 1]], "depth": 0,
        "entries": [], "enclosure": None, "tail_start": None, "notes": [],
    }
    assert CohomologyTable(dims={0: 1, 1: 0}).to_json_dict() == {"dims": {"0": 1, "1": 0}}
    solution = DPrimeSolution(FourierData(1, {(1, 0): Q(0, -1)}), [(0, 0)], Fraction(2), False)
    assert solution.to_json_dict() == {
        "solution": {"cutoff": 1, "coefficients": [{"xi": 1, "eta": 0, "value": "-i"}]},
        "obstructions": [[0, 0]], "mu_used": "2", "substituted": False,
    }


def test_assembly_report_rebuilt_without_its_defaults():
    g = su2()
    report = full_assembly(g, parse_span("span{T, X-iY}", g))
    fields = MUTABLE[-1][1].split()[:-2]
    rebuilt = AssemblyReport(**{name: getattr(report, name) for name in fields})
    assert rebuilt.to_json_dict() == dict(report.to_json_dict(), riemann_comparison={}, notes=[])
