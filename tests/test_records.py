"""The result-record contract, pinned once for every record class.

Each record is a tuple with named fields: its fields and defaults, its repr,
`_asdict` and `_replace`, equality with a plain tuple, a pickle and a deepcopy
round trip, and no per-instance `__dict__` are what callers and the CLI's
JSON output rely on, however the classes are defined.
"""

import copy
import pickle
import sys
from fractions import Fraction

import pytest

from sturmia.acceptance import CheckResult
from sturmia.factorization import CharacteristicFactorizations, DualityReport, SplitReport
from sturmia.intercept import ClassReport, ComplementReport, EquivalenceReport
from sturmia.ostrowski import AlphaNumber, ValidationReport, encode
from sturmia.rauzy import RauzyGraph
from sturmia.repetition import DioEstimate, DioTerm, JumpReport, RepetitionRow
from sturmia.slope import IntervalPosition, Slope
from sturmia.torsion import ComplementFamilyReport, TorsionHit

GOLDEN = Slope((1,), (0, 1))
GOLDEN_REPR = "Slope(quotients=(1,), period=(0, 1))"
WINDOW = encode(3, GOLDEN, 4)
TERM = DioTerm(5, -1, Fraction(3, 2))

# (class, fields, defaults, one instance's values, that instance's repr)
RECORDS = [
    (CheckResult, "number name passed detail", {}, (1, "oracle", True, "ok"),
     "CheckResult(number=1, name='oracle', passed=True, detail='ok')"),
    (SplitReport, "ok level left right expected", {}, (True, 3, "01", "0", "010"),
     "SplitReport(ok=True, level=3, left='01', right='0', expected='010')"),
    (DualityReport, "ok prefix_ok orbit_ok checked_length window", {},
     (False, True, False, 40, 8),
     "DualityReport(ok=False, prefix_ok=True, orbit_ok=False, checked_length=40,"
     " window=8)"),
    (CharacteristicFactorizations, "case first second ok", {}, ("even", "01", "10", True),
     "CharacteristicFactorizations(case='even', first='01', second='10', ok=True)"),
    (ClassReport, "verdict witness evidence", {}, ("sigma0-tail", 2, 5),
     "ClassReport(verdict='sigma0-tail', witness=2, evidence=5)"),
    (EquivalenceReport, "equivalent witness reason", {}, (False, None, "tails differ"),
     "EquivalenceReport(equivalent=False, witness=None, reason='tails differ')"),
    (ComplementReport, "value stable_from top_level", {}, (WINDOW, 1, 4),
     f"ComplementReport(value=AlphaNumber(digits=(0, 0, 0, 1), slope={GOLDEN_REPR}),"
     " stable_from=1, top_level=4)"),
    (ValidationReport, "ok rule index message",
     {"rule": None, "index": None, "message": None}, (False, "digit-bound", 2, "b_2 > a_2"),
     "ValidationReport(ok=False, rule='digit-bound', index=2, message='b_2 > a_2')"),
    (RauzyGraph,
     "m slope level prefix vertices edges left_special right_special referent_cycle"
     " other_cycle common_path", {},
     (1, GOLDEN, IntervalPosition(2, 0, 0), "10110101", (0, 1), ((0, 1), (1, 0), (0, 0)),
      0, 0, (0, 1), (0,), (0,)),
     f"RauzyGraph(m=1, slope={GOLDEN_REPR}, level=IntervalPosition(n=2, l=0, r=0),"
     " prefix='10110101', vertices=(0, 1), edges=((0, 1), (1, 0), (0, 0)),"
     " left_special=0, right_special=0, referent_cycle=(0, 1),"
     " other_cycle=(0,), common_path=(0,))"),
    (RepetitionRow, "m_lo m_hi value case", {}, (1, 4, 3, "A"),
     "RepetitionRow(m_lo=1, m_hi=4, value=3, case='A')"),
    (JumpReport, "holds checked failures", {}, (True, (1, 20), ()),
     "JumpReport(holds=True, checked=(1, 20), failures=())"),
    (DioTerm, "level family ratio", {}, (5, -1, Fraction(3, 2)),
     "DioTerm(level=5, family=-1, ratio=Fraction(3, 2))"),
    (DioEstimate, "value mode witness", {}, (Fraction(3, 2), "generic", TERM),
     "DioEstimate(value=Fraction(3, 2), mode='generic',"
     " witness=DioTerm(level=5, family=-1, ratio=Fraction(3, 2)))"),
    (IntervalPosition, "n l r", {}, (4, 0, 1), "IntervalPosition(n=4, l=0, r=1)"),
    (ComplementFamilyReport, "ok even_ok odd_ok even_window odd_window", {},
     (True, True, True, (0, 6), (1, 7)),
     "ComplementFamilyReport(ok=True, even_ok=True, odd_ok=True, even_window=(0, 6),"
     " odd_window=(1, 7))"),
    (TorsionHit,
     "found modulus n k quotient_digits support state_trace reason", {"reason": ""},
     (True, 5, 4, 2, (1, 0), frozenset({1}), ((1, 0),), "hit"),
     "TorsionHit(found=True, modulus=5, n=4, k=2, quotient_digits=(1, 0),"
     " support=frozenset({1}), state_trace=((1, 0),), reason='hit')"),
]


@pytest.mark.parametrize(
    "cls, fields, defaults, values, text", RECORDS, ids=[row[0].__name__ for row in RECORDS]
)
def test_record_contract(cls, fields, defaults, values, text):
    fields = tuple(fields.split())
    record = cls(*values)
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    assert repr(record) == text
    assert record._asdict() == dict(zip(fields, values))
    replaced = record._replace(**{fields[0]: "changed"})
    assert type(replaced) is cls
    assert replaced == ("changed", *values[1:])
    assert record == values and values == record
    assert hash(record) == hash(values)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copied = pickle.loads(pickle.dumps(record, protocol))
        assert type(copied) is cls and copied == record
    copied = copy.deepcopy(record)
    assert type(copied) is cls and copied == record
    assert not hasattr(record, "__dict__")


HUGE = Slope((2**20000,), (0, 1))
HUGE_REPR = "Slope(quotients=(<an integer of 20001 bits>,), period=(0, 1))"


@pytest.mark.parametrize(
    "value, text",
    [
        (HUGE, HUGE_REPR),
        (
            AlphaNumber((2**20000 - 1,), HUGE),
            f"AlphaNumber(digits=(<an integer of 20000 bits>,), slope={HUGE_REPR})",
        ),
    ],
    ids=["slope", "window"],
)
def test_a_huge_int_reprs_by_its_bit_length(value, text):
    # repr() of an int past the interpreter's digit limit raises ValueError
    assert repr(value) == text


def test_every_record_class_is_pinned():
    modules = {sys.modules[cls.__module__] for cls, *_ in RECORDS}
    found = {
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type)
        and issubclass(value, tuple)
        and hasattr(value, "_fields")
        and value.__module__ == module.__name__
    }
    assert found == {cls for cls, *_ in RECORDS}
