"""The behaviour of the package's value classes: construction, equality,
hashing, repr, immutability and the validation done on construction.

Family reprs appear in error messages, and reports and results are compared
by value across the suite, so this pins what each class does, independent of
how the class is written.
"""

import copy
import inspect
import pickle
import re

import pytest

from trigrade import (CHAIN, SPHERE, DualComplexData, EllipticCurveBase,
                      FeasibilityResult, FiniteSurfaceBase, Lane, LaneEntry,
                      MirrorPair, RankPin, SequenceTemplate, SequenceTerm,
                      SolveResult, SpaceDescriptor, TriFilteredTable, TypeII, TypeIII,
                      VerificationReport, Violation, chain_counts)

Y = SpaceDescriptor("Y", 2, 1)
XLIM = SpaceDescriptor("Xlim", 2)


def _pair(n_deg=2, n_uc=2):
    fib = {"Y": TriFilteredTable(Y), "Uc": TriFilteredTable(SpaceDescriptor("Uc", n_uc, 1))}
    deg = {"Xlim": TriFilteredTable(SpaceDescriptor("Xlim", n_deg)),
           "Total": TriFilteredTable(SpaceDescriptor("Total", 2))}
    return fib, deg


# (positional instance, the same by keyword, an unequal instance, repr,
# frozen, hashable)
CASES = {
    "EllipticCurveBase": (
        lambda: EllipticCurveBase(2), lambda: EllipticCurveBase(r=2),
        lambda: EllipticCurveBase(3), "EllipticCurveBase(r=2)", True, True),
    "FiniteSurfaceBase": (
        lambda: FiniteSurfaceBase(3), lambda: FiniteSurfaceBase(g=3),
        lambda: FiniteSurfaceBase(4), "FiniteSurfaceBase(g=3)", True, True),
    "TypeII": (
        lambda: TypeII(2), lambda: TypeII(r=2),
        lambda: TypeII(1), "TypeII(r=2)", True, True),
    "TypeIII": (
        lambda: TypeIII(1), lambda: TypeIII(k=1),
        lambda: TypeIII(2), "TypeIII(k=1)", True, True),
    "Violation": (
        lambda: Violation("r", "Y", (0, 1, 0, 0), (1, 0, 0), 3),
        lambda: Violation(relation="r", space="Y", entry=(0, 1, 0, 0), lane=(1, 0, 0),
                          position=3),
        lambda: Violation("r"),
        "Violation(relation='r', space='Y', entry=(0, 1, 0, 0), lane=(1, 0, 0), "
        "position=3)", True, True),
    "VerificationReport": (
        lambda: VerificationReport([Violation("r")]),
        lambda: VerificationReport(violations=[Violation("r")]),
        lambda: VerificationReport(),
        "VerificationReport(violations=[Violation(relation='r', space=None, entry=None, "
        "lane=None, position=None)])", False, False),
    "TriFilteredTable": (
        lambda: TriFilteredTable(XLIM, {(0, 0, 0, 0): 1, (2, 2, 2, 1): 0}),
        lambda: TriFilteredTable(space=XLIM, entries={(0, 0, 0, 0): 1}),
        lambda: TriFilteredTable(XLIM, {(0, 0, 0, 0): 2}),
        "TriFilteredTable(space=SpaceDescriptor(kind='Xlim', n=2, m=None, depth=0), "
        "entries={(0, 0, 0, 0): 1})", True, False),
    "DualComplexData": (
        lambda: DualComplexData(4, 6, 4, SPHERE),
        lambda: DualComplexData(components=4, double_curves=6, triple_points=4,
                                topology=SPHERE),
        lambda: DualComplexData(4, 3, 0, CHAIN),
        "DualComplexData(components=4, double_curves=6, triple_points=4, "
        "topology='sphere')", True, True),
    "MirrorPair": (
        lambda: MirrorPair(*_pair(), EllipticCurveBase(1)),
        lambda: MirrorPair(fibration=_pair()[0], degeneration=_pair()[1],
                           fibration_family=EllipticCurveBase(1)),
        lambda: MirrorPair(*_pair()),
        "MirrorPair(fibration={!r}, degeneration={!r}, fibration_family="
        "EllipticCurveBase(r=1), degeneration_family=None)".format(*_pair()),
        True, False),
    "SequenceTerm": (
        lambda: SequenceTerm("Z:1", -1, -1, -1),
        lambda: SequenceTerm(space="Z:1", k_offset=-1, shift=-1, twist=-1),
        lambda: SequenceTerm("Z:1"),
        "SequenceTerm(space='Z:1', k_offset=-1, shift=-1, twist=-1)", True, True),
    "SequenceTemplate": (
        lambda: SequenceTemplate("t", 2, (SequenceTerm("Y"),)),
        lambda: SequenceTemplate(name="t", period=2, terms=(SequenceTerm("Y"),)),
        lambda: SequenceTemplate("t", 1, (SequenceTerm("Y"),)),
        "SequenceTemplate(name='t', period=2, terms=(SequenceTerm(space='Y', "
        "k_offset=0, shift=0, twist=0),))", True, True),
    "LaneEntry": (
        lambda: LaneEntry(1, 2, 3), lambda: LaneEntry(term_index=1, degree=2, dim=3),
        lambda: LaneEntry(1, 2, 4), "LaneEntry(term_index=1, degree=2, dim=3)", True, True),
    "Lane": (
        lambda: Lane(1, 2, 3, 0, -1, (LaneEntry(0, 0, 1),)),
        lambda: Lane(l=1, q=2, p=3, residue=0, start_cycle=-1,
                     entries=(LaneEntry(0, 0, 1),)),
        lambda: Lane(1, 2, 3, 1, -1, (LaneEntry(0, 0, 1),)),
        "Lane(l=1, q=2, p=3, residue=0, start_cycle=-1, "
        "entries=(LaneEntry(term_index=0, degree=0, dim=1),))", True, True),
    "FeasibilityResult": (
        lambda: FeasibilityResult(False, [1], 1, "why"),
        lambda: FeasibilityResult(feasible=False, ranks=[1], failure_index=1, reason="why"),
        lambda: FeasibilityResult(True, [1]),
        "FeasibilityResult(feasible=False, ranks=[1], failure_index=1, reason='why')",
        True, False),
    "RankPin": (
        lambda: RankPin(1, 2, 3), lambda: RankPin(term_index=1, rank=2, degree=3),
        lambda: RankPin(1, 2), "RankPin(term_index=1, rank=2, degree=3)", True, True),
    "SolveResult": (
        lambda: SolveResult(None, False, [((0, 0, 0, 0), 0, None)], VerificationReport(), 2),
        lambda: SolveResult(table=None, determined=False,
                            underdetermined=[((0, 0, 0, 0), 0, None)],
                            report=VerificationReport(), iterations=2),
        lambda: SolveResult(None, False, [], VerificationReport(), 2),
        "SolveResult(table=None, determined=False, underdetermined=[((0, 0, 0, 0), 0, "
        "None)], report=VerificationReport(violations=[]), iterations=2)", False, False),
}


@pytest.mark.parametrize("name", CASES)
def test_construction_equality_and_repr(name):
    make, by_keyword, make_other, text, _frozen, _hashable = CASES[name]
    a, b, other = make(), by_keyword(), make_other()
    assert type(a).__name__ == name
    assert repr(a) == text
    assert a == b and not a != b
    assert a != other and not a == other
    assert a != object() and not a == object()


@pytest.mark.parametrize("name", CASES)
def test_hash(name):
    make, by_keyword, _other, _text, _frozen, hashable = CASES[name]
    if hashable:
        assert hash(make()) == hash(by_keyword())
        assert len({make(), by_keyword()}) == 1
    else:
        with pytest.raises(TypeError):
            hash(make())


@pytest.mark.parametrize("name", [n for n, case in CASES.items() if case[4]])
def test_frozen_fields_cannot_be_assigned_or_deleted(name):
    obj = CASES[name][0]()
    for field in inspect.signature(type(obj)).parameters:
        value = getattr(obj, field)
        with pytest.raises(AttributeError):
            setattr(obj, field, value)
        with pytest.raises(AttributeError):
            delattr(obj, field)
        assert getattr(obj, field) is value
    with pytest.raises(AttributeError):
        obj.no_such_field = 1


def test_mutable_classes_assign_and_default():
    a, b = VerificationReport(), VerificationReport()
    assert a.violations == [] and a.violations is not b.violations
    a.add(Violation("r"))
    assert b.violations == [] and not a.passed
    a.violations = []
    assert a == b
    res = CASES["SolveResult"][0]()
    res.iterations = 3
    assert res.iterations == 3


def test_classes_of_equal_fields_differ():
    assert TypeII(2) != EllipticCurveBase(2)
    assert EllipticCurveBase(2) != (2,)
    assert LaneEntry(1, 2, 3) != (1, 2, 3)


def test_defaults():
    assert TriFilteredTable(Y).entries == {}
    assert TriFilteredTable(Y).entries is not TriFilteredTable(Y).entries
    assert SequenceTerm("Y") == SequenceTerm("Y", 0, 0, 0)
    assert RankPin(0, 1).degree is None
    assert FeasibilityResult(True, []).reason is None
    assert Violation("r").position is None


@pytest.mark.parametrize("make, message", [
    (lambda: EllipticCurveBase(0), "need r >= 1, got 0"),
    (lambda: FiniteSurfaceBase(1), "need genus g >= 2, got 1"),
    (lambda: TypeII(0), "need r >= 1, got 0"),
    (lambda: TypeIII(-1), "need k >= 1, got -1"),
    (lambda: EllipticCurveBase(True), "r must be an integer, got True"),
    (lambda: FiniteSurfaceBase(3.0), "genus g must be an integer, got 3.0"),
    (lambda: TypeII(r=True), "r must be an integer, got True"),
    (lambda: TypeIII("2"), "k must be an integer, got '2'"),
    (lambda: TriFilteredTable(XLIM, {(0, 0, 0): 1}), "bad index quadruple (0, 0, 0)"),
    (lambda: TriFilteredTable(XLIM, {(0, 0, 0, True): 1}),
     "bad index quadruple (0, 0, 0, True)"),
    (lambda: TriFilteredTable(XLIM, {frozenset((3, 0, 1, 2)): 1}),
     "bad index quadruple frozenset({0, 1, 2, 3})"),
    (lambda: TriFilteredTable(XLIM, {5: 1}), "bad index quadruple 5"),
    (lambda: TriFilteredTable(XLIM, {(0, 0, 0, 0, 0): 1}),
     "bad index quadruple (0, 0, 0, 0, 0)"),
    (lambda: TriFilteredTable(XLIM, {"abcd": 1}), "bad index quadruple 'abcd'"),
    (lambda: TriFilteredTable(XLIM, {(0, 0, 0, 1.0): 1}),
     "bad index quadruple (0, 0, 0, 1.0)"),
    (lambda: TriFilteredTable(XLIM, {(0, 0, 0, 0): 1.0}),
     "dimension at (0, 0, 0, 0) is not an integer: 1.0"),
    (lambda: TriFilteredTable(XLIM, {(0, 0, 0, 0): -1}),
     "negative dimension -1 at (0, 0, 0, 0)"),
    (lambda: DualComplexData(0, 0, 0, CHAIN), "counts out of range"),
    (lambda: DualComplexData(4, 2, 0, CHAIN), "not a chain: V=4, E=2, F=0"),
    (lambda: DualComplexData(4, 6, 3, SPHERE), "not a triangulated sphere: V=4, E=6, F=3"),
    (lambda: DualComplexData(3, 2, 0, "torus"), "unknown topology 'torus'"),
    (lambda: DualComplexData(True, 0, 0, CHAIN),
     "counts must be integers, got V=True, E=0, F=0"),
    (lambda: chain_counts(3.0), "counts must be integers, got V=3.0, E=2.0, F=0"),
    (lambda: MirrorPair({"Y": _pair()[0]["Y"]}, _pair()[1]), "fibration side lacks Uc"),
    (lambda: MirrorPair(_pair()[0], {"Xlim": _pair()[1]["Xlim"]}),
     "degeneration side lacks Total"),
    (lambda: MirrorPair(*_pair(n_deg=3)), "sides disagree on n: 2 vs 3"),
    (lambda: MirrorPair(*_pair(n_uc=3)), "Uc has n=3, Y and Xlim have n=2"),
    (lambda: SequenceTerm(1), "template term 'space' must be a string, got 1"),
    (lambda: SequenceTerm("Y", 0, True),
     "template term 'shift' must be an integer, got True"),
    (lambda: SequenceTerm("Y", 35), "template term 'k_offset' must lie in [-34, 34], got 35"),
    (lambda: SequenceTemplate("t", 1.0, (SequenceTerm("Y"),)),
     "template 'period' must be an integer, got 1.0"),
    (lambda: SequenceTemplate([1], 1, (SequenceTerm("Y"),)),
     "template 'name' must be a string, got [1]"),
    (lambda: SequenceTemplate(None, 1, (SequenceTerm("Y"),)),
     "template 'name' must be a string, got None"),
    (lambda: SequenceTemplate("t", 1, [SequenceTerm("Y")]),
     "template 'terms' must be a tuple of SequenceTerm, got [SequenceTerm(space='Y', "
     "k_offset=0, shift=0, twist=0)]"),
    (lambda: SequenceTemplate("t", 1, ("Y",)),
     "template 'terms' must be a tuple of SequenceTerm, got ('Y',)"),
    (lambda: SequenceTemplate("t", 0, (SequenceTerm("Y"),)),
     "template needs a positive period and at least one term"),
    (lambda: SequenceTemplate("t", 1, ()),
     "template needs a positive period and at least one term"),
    (lambda: RankPin(0, 1, "2"), "pin degree must be an integer, got '2'"),
    (lambda: RankPin(False, 1), "pin term index must be an integer, got False"),
    (lambda: RankPin(0, -1), "pin rank must be nonnegative, got -1"),
])
def test_validation_on_construction(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_table_keys_are_stored_as_plain_tuples():
    class Key(tuple):
        pass

    table = TriFilteredTable(XLIM, {Key((0, 0, 0, 0)): 1})
    (key,) = table.entries
    assert type(key) is tuple and key == (0, 0, 0, 0)


@pytest.mark.parametrize("name", CASES)
def test_copy_and_pickle_keep_the_value(name):
    obj = CASES[name][0]()
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is type(obj) and twin == obj and repr(twin) == repr(obj)
