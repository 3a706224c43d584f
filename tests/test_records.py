import dataclasses
from fractions import Fraction as F

import pytest

from fatflats import (
    LinearSystem,
    bounds_report,
    e_certify,
    e_empirical,
    g_value,
    gamma_known_lookup,
    hyperplane_product_witness,
    nosymetry_enumerate,
    reduce_system,
    replay_appendix,
    verify_gamma_points_case,
)
from fatflats.asymptotic import g_specials
from fatflats.verifier import Violation

# One factory per immutable result record; each call builds a fresh, equal record.
RECORDS = {
    "SpecialRootRow": lambda: g_specials()[0],
    "RatioWitness": lambda: e_empirical(3, 0, 4, 12),
    "ECertificate": lambda: e_certify(3, 0, 4, F(3, 2)),
    "GammaKnown": lambda: gamma_known_lookup(3, 0, 4),
    "LinearSystem": lambda: LinearSystem.parse(3, "12;7,7,7,7,7,7"),
    "Witness": lambda: hyperplane_product_witness(LinearSystem(3, 4, (3, 3, 3, 3))),
    "ReductionStep": lambda: reduce_system(LinearSystem(3, 12, (7,) * 6)).steps[0],
    "ReductionTrace": lambda: reduce_system(LinearSystem(3, 12, (7,) * 6)),
    "GammaCaseRow": lambda: verify_gamma_points_case(3, 4, 1).rows[0],
    "GammaCaseReport": lambda: verify_gamma_points_case(3, 4, 2),
    "Violation": lambda: Violation(5, (1, 2, 2), -3),
    "ReplayAssertion": lambda: replay_appendix("e-3-0-4").assertions[0],
    "ReplayReport": lambda: replay_appendix("e-3-0-4"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_result_records_are_frozen_hashable_and_named(name):
    record, twin = RECORDS[name](), RECORDS[name]()
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], getattr(record, record._fields[0]))
    with pytest.raises(AttributeError):
        record.extra = None
    assert record == twin and record is not twin and hash(record) == hash(twin)
    fields = ", ".join(f"{field}={getattr(record, field)!r}" for field in record._fields)
    assert repr(record) == f"{name}({fields})"


def test_records_rebuilt_by_dataclasses_replace_stay_dataclasses():
    # the benchmark's self-test corrupts these three with dataclasses.replace
    g = g_value(3, 1, 6)
    assert dataclasses.replace(g, lo=g.hi).lo == g.hi
    report = bounds_report(3, 0, 4)
    assert dataclasses.replace(report, e_certified=False).e_certified is False
    nosymetry = nosymetry_enumerate(9)
    assert dataclasses.replace(nosymetry, pairs_checked=0).pairs_checked == 0
