"""The engine's records: slotted classes, and no engine module imports dataclasses.

Every record keeps the behaviour it had as a frozen dataclass (``Report`` as a
mutable one): construction by position and keyword, immutability, equality and
hash over the fields of one class, the same ``repr`` text, and the same errors
from its checks.  The CLI must start without ``dataclasses`` and what it pulls in.
"""

import ast
import copy
import json
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import modtriples
from modtriples.cycles import (
    AdmissibilityReport,
    Component,
    ComponentVerdict,
    MorphismFlags,
    PositionVerdict,
    graph_cycle,
)
from modtriples.divisors import INFINITY, ClosedPoint, CurveSpace, Divisor, Locus, OrderReport, RationalMap
from modtriples.errors import DegenerateInput, NotEffective, ParseError, Record
from modtriples.functors import CompObject, IYObject, MlogObject, NePair, TransportCheck
from modtriples.ratpoly import FactoredPoly, Poly
from modtriples.suites import Report, SuiteConfig
from modtriples.triples import ModulusPair, ModulusTriple, ShiftMorphism, TripleClass, TripleSum

SRC = Path(modtriples.__file__).parents[1]

P0 = ClosedPoint.rational(0)
D0 = Divisor([(P0, 1)])
DINF = Divisor([(INFINITY, 1)])
T = ModulusTriple.proper(DINF, D0)
T_OPEN = ModulusTriple(CurveSpace.open([INFINITY]), Divisor.zero(), D0)
COMP = Component(RationalMap.identity(), RationalMap.from_ints((0, 0, 1)), 1)
VERDICT = ComponentVerdict(COMP, True, False)

# class -> (field names in order, sample field values, repr of the sample as a dataclass)
CASES = {
    ComponentVerdict: (
        ("component", "proper_over_source", "modulus"), (COMP, True, False),
        "ComponentVerdict(component=Component(a=x, b=x^2, mult=1), proper_over_source=True, modulus=False)",
    ),
    AdmissibilityReport: (
        ("ok", "verdicts"), (False, (VERDICT,)),
        "AdmissibilityReport(ok=False, verdicts=(ComponentVerdict(component=Component(a=x, b=x^2, mult=1),"
        " proper_over_source=True, modulus=False),))",
    ),
    MorphismFlags: (
        ("dominant", "minimal", "finite", "finite_over_target", "sigma_fin"), (True, True, True, False, True),
        "MorphismFlags(dominant=True, minimal=True, finite=True, finite_over_target=False, sigma_fin=True)",
    ),
    PositionVerdict: (
        ("component", "bad", "very_good", "excellent"), (COMP, False, True, False),
        "PositionVerdict(component=Component(a=x, b=x^2, mult=1), bad=False, very_good=True, excellent=False)",
    ),
    OrderReport: (
        ("effective_1", "le", "eq", "support_1", "reduced_1"), (True, True, False, frozenset({P0}), D0),
        "OrderReport(effective_1=True, le=True, eq=False, support_1=frozenset({ClosedPoint(P(x))}),"
        " reduced_1=Divisor('1*P(x)'))",
    ),
    Locus: (("fibers", "has_infinity"), ((), True), "Locus(fibers=(), has_infinity=True)"),
    FactoredPoly: (
        ("unit", "factors"), (Fraction(2), ((Poly([1, 1]), 2),)),
        "FactoredPoly(unit=Fraction(2, 1), factors=((Poly('x + 1'), 2),))",
    ),
    ModulusPair: (
        ("total", "infinity"), (CurveSpace.proper(), DINF),
        "ModulusPair(total=CurveSpace(proper), infinity=Divisor('1*P(inf)'))",
    ),
    TripleSum: (
        ("summands",), ((T, T_OPEN),),
        "TripleSum(summands=(ModulusTriple((P1, 1*P(inf), 1*P(x))),"
        " ModulusTriple((P1 minus boundary, 0, 1*P(x)))))",
    ),
    TripleClass: (
        ("disjoint", "saturated", "min_class", "man_class", "proper", "coadmissible", "modulus_pair"),
        (True, False, True, False, True, False, True),
        "TripleClass(disjoint=True, saturated=False, min_class=True, man_class=False, proper=True,"
        " coadmissible=False, modulus_pair=True)",
    ),
    ShiftMorphism: (
        ("source", "target", "shift", "cycle", "is_iso", "reverse_cycle"),
        (T, T, Divisor.zero(), graph_cycle(RationalMap.identity(), T, T), True, None),
        "ShiftMorphism(source=ModulusTriple((P1, 1*P(inf), 1*P(x))),"
        " target=ModulusTriple((P1, 1*P(inf), 1*P(x))), shift=Divisor('0'),"
        " cycle=Cycle(1 components), is_iso=True, reverse_cycle=None)",
    ),
    TransportCheck: (("left", "right"), (True, False), "TransportCheck(left=True, right=False)"),
    IYObject: (("y", "z"), (D0, DINF), "IYObject(y=Divisor('1*P(x)'), z=Divisor('1*P(inf)'))"),
    MlogObject: (
        ("boundary_div", "modulus_div"), (DINF, 2 * D0),
        "MlogObject(boundary_div=Divisor('1*P(inf)'), modulus_div=Divisor('2*P(x)'))",
    ),
    NePair: (
        ("infinity",), (Divisor([(P0, 1), (INFINITY, -2)]),),
        "NePair(infinity=Divisor('-2*P(inf) + 1*P(x)'))",
    ),
    CompObject: (
        ("base", "completion", "witness_c"), (T_OPEN, T, DINF),
        "CompObject(base=ModulusTriple((P1 minus boundary, 0, 1*P(x))),"
        " completion=ModulusTriple((P1, 1*P(inf), 1*P(x))), witness_c=Divisor('1*P(inf)'))",
    ),
    SuiteConfig: (
        ("seed", "samples", "degree_bound", "height_bound", "suites"), (3, 10, 2, 5, ("fixtures", "kernel")),
        "SuiteConfig(seed=3, samples=10, degree_bound=2, height_bound=5, suites=('fixtures', 'kernel'))",
    ),
    Report: (
        ("config", "records", "elapsed_s"), (SuiteConfig(), [{"id": "kernel[0]"}], 0.5),
        "Report(config=SuiteConfig(seed=0, samples=100, degree_bound=4, height_bound=10, suites=('all',)),"
        " records=[{'id': 'kernel[0]'}], elapsed_s=0.5)",
    ),
}
RECORDS = list(CASES)
FROZEN = [cls for cls in RECORDS if cls is not Report]


def sample(cls):
    return cls(*CASES[cls][1])


def test_eighteen_records():
    assert len(RECORDS) == 18 and all(issubclass(cls, Record) for cls in RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_construction_by_position_and_keyword(cls):
    names, values, _ = CASES[cls]
    by_position, by_keyword = cls(*values), cls(**dict(zip(names, values)))
    assert by_position == by_keyword
    assert tuple(getattr(by_keyword, n) for n in names) == values
    assert by_keyword.as_dict() == dict(zip(names, values))
    assert list(by_keyword.as_dict()) == list(names)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_wrong_arguments(cls):
    names, values, _ = CASES[cls]
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values[:-1], no_such_field=values[-1])
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})
    if cls not in (Locus, SuiteConfig, Report):
        with pytest.raises(TypeError):
            cls(*values[:-1])


def test_defaults():
    assert Locus() == Locus((), False) and Locus().is_empty
    assert SuiteConfig() == SuiteConfig(0, 100, 4, 10, ("all",))
    config = SuiteConfig()
    first, second = Report(config), Report(config)
    assert first == Report(config, [], 0.0)
    first.records.append({"id": "kernel[0]"})
    assert second.records == []  # each report owns its records


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_immutable(cls):
    record = sample(cls)
    names = CASES[cls][0]
    with pytest.raises(AttributeError):
        setattr(record, names[0], getattr(record, names[-1]))
    with pytest.raises(AttributeError):
        record.no_such_field = 1
    assert tuple(getattr(record, n) for n in names) == CASES[cls][1]


def test_report_is_mutable():
    report = Report(SuiteConfig())
    report.elapsed_s = 1.5
    report.records.append({"id": "kernel[0]"})
    assert report == Report(SuiteConfig(), [{"id": "kernel[0]"}], 1.5)
    with pytest.raises(AttributeError):
        report.no_such_field = 1
    with pytest.raises(TypeError):
        hash(report)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_equality_and_hash(cls):
    names, values, _ = CASES[cls]
    first, second = sample(cls), sample(cls)
    assert first == second and not first != second
    if cls is not Report:
        assert hash(first) == hash(second) == hash(values)
    # a record of another class is never equal, not even one with the same name and fields
    twin = type(cls.__name__, (Record,), {"__slots__": names})(*values)
    assert first != twin and twin != first
    assert first != values


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_copy(cls):
    record = sample(cls)
    assert copy.copy(record) == record


@pytest.mark.parametrize("record", [
    TripleClass(True, False, True, False, True, False, True), MorphismFlags(True, True, True, False, True),
    TransportCheck(True, False), Locus(), SuiteConfig(seed=3, suites=("kernel",)),
    Report(SuiteConfig(), [{"id": "kernel[0]"}], 0.5),
], ids=lambda r: type(r).__name__)
def test_pickle(record):
    assert pickle.loads(pickle.dumps(record)) == record


def test_records_of_two_classes_with_equal_fields_differ():
    assert IYObject(D0, DINF) != MlogObject(D0, DINF)
    assert TransportCheck((), True) != Locus((), True)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_repr(cls):
    assert repr(sample(cls)) == CASES[cls][2]


@pytest.mark.parametrize("make, error, message", [
    (lambda: ModulusPair(CurveSpace.proper(), -1 * D0), NotEffective, "a modulus pair carries an effective divisor"),
    (lambda: ModulusPair(CurveSpace.open([P0]), D0), DegenerateInput, "divisor support meets the removed boundary"),
    (lambda: SuiteConfig(seed=-1), ParseError, "seed must fit in 64 unsigned bits"),
    (lambda: SuiteConfig(seed=2**64), ParseError, "seed must fit in 64 unsigned bits"),
    (lambda: SuiteConfig(height_bound=2**64), ParseError, "height bound must fit in 64 unsigned bits"),
    (lambda: SuiteConfig(samples=0), ParseError, "samples and bounds must be at least one"),
    (lambda: SuiteConfig(degree_bound=0), ParseError, "samples and bounds must be at least one"),
    (lambda: SuiteConfig(height_bound=0), ParseError, "samples and bounds must be at least one"),
    (lambda: SuiteConfig(degree_bound=257), ParseError, "degree bound above 256"),
    (lambda: SuiteConfig(suites=("kernel", "nope")), ParseError, "unknown suite identifier 'nope'"),
    (lambda: IYObject(-1 * D0, DINF), NotEffective, "bridge objects carry effective divisors"),
    (lambda: IYObject(D0, -1 * DINF), NotEffective, "bridge objects carry effective divisors"),
    (lambda: IYObject(D0, D0), DegenerateInput, "the two divisors must have disjoint supports"),
    (lambda: MlogObject(-1 * DINF, D0), NotEffective, "bridge objects carry effective divisors"),
    (lambda: MlogObject(DINF, -1 * D0), NotEffective, "bridge objects carry effective divisors"),
    (lambda: MlogObject(2 * DINF, D0), DegenerateInput, "the boundary divisor must be reduced"),
])
def test_checks_raise_as_before(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()


# ---------------------------------------------------------------------------
# the import guard
# ---------------------------------------------------------------------------

HEAVY = ("dataclasses", "inspect", "ast", "dis")
# the modules that README names for the decision verbs, and the package itself
CLI_MODULES = sorted(["modtriples", *(f"modtriples.{m}" for m in (
    "cli", "formats", "cycles", "triples", "divisors", "ratpoly", "errors"))])


def modules_after(statement: str) -> list[str]:
    """The modules loaded by ``statement`` in a fresh interpreter started with -S, so
    that no site hook adds modules of its own."""
    code = f"import json, sys; {statement}; print(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env,
                         timeout=60, check=True)
    return json.loads(out.stdout)


@pytest.mark.parametrize("module", ["modtriples.cli", "modtriples.functors", "modtriples.suites"])
def test_engine_imports_load_no_code_introspection(module):
    loaded = modules_after(f"import {module}")
    assert module in loaded
    assert not set(HEAVY) & set(loaded)


def test_cli_loads_the_decision_modules():
    assert [m for m in modules_after("import modtriples.cli") if m.partition(".")[0] == "modtriples"] == CLI_MODULES


def test_no_engine_module_imports_dataclasses():
    for path in sorted((SRC / "modtriples").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                assert all(a.name.partition(".")[0] != "dataclasses" for a in node.names), path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name
