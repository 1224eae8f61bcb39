"""Every record class behaves as its `@dataclass(frozen=True)` twin.

Each twin is made here with `dataclasses.make_dataclass` from the field
list below (names, defaults and compare flags written out, not read from
the record), and fed the field values of a record, so repr, ==, hash and
frozen assignment can be compared one to one.
"""

import dataclasses
import os
import pickle
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import cupone
from cupone.algebra import Generator
from cupone.cup1 import Cup1Monomial
from cupone.groups import TRIVIAL, Z, DegreeVerdict, GroupHom, HypothesisInstance, HypothesisReport
from cupone.linalg import FGAbelianGroup, IntMatrix
from cupone.permutohedron import Face
from cupone.record import Record
from cupone.resolution import (
    CertifyReport, CgaPresentation, DegreeCertificate, HomotopyReport,
)
from cupone.twisting import OrbitHomotopyReport, OrbitVerdict, TwistingReport

REQUIRED = dataclasses.MISSING
UNCOMPARED = "uncompared"

a, b, c = Generator("a", 0, 2), Generator("b", 0, 2), Generator("c", 0, 4)
Z2 = FGAbelianGroup(0, (2,))
to_z2 = GroupHom(Z, Z2, IntMatrix([[1]]))
verdict = DegreeVerdict(1, False, False)
certificate = DegreeCertificate(2, 1, True, True)

# class: ([(field, default[, UNCOMPARED])], [positional arguments of valid samples])
RECORDS = {
    Generator: (
        [("name", REQUIRED), ("res_degree", 0), ("int_degree", 0)],
        [("a",), ("a", 0, 2), ("a", 0, 2), ("b", -1, 3)],
    ),
    Cup1Monomial: ([("factors", REQUIRED)], [((a, b),), ((a, b),), ([a, c],)]),
    GroupHom: (
        [("source", REQUIRED), ("target", REQUIRED), ("matrix", REQUIRED)],
        [(Z, Z, IntMatrix([[2]])), (Z, Z, IntMatrix([[2]])), (Z, Z2, IntMatrix([[1]]))],
    ),
    HypothesisInstance: (
        [("m", REQUIRED), ("cohomology", REQUIRED), ("hurewicz", REQUIRED)],
        [(2, {1: Z}, {1: to_z2}), (2, {1: Z}, {1: to_z2}), (3, {}, {})],
    ),
    DegreeVerdict: (
        [("degree", REQUIRED), ("skipped", REQUIRED), ("injective", True), ("tor_group", TRIVIAL), ("note", "")],
        [(1, True), (1, True, True, TRIVIAL, ""), (2, False, False, Z2, "why")],
    ),
    HypothesisReport: (
        [("ok", REQUIRED), ("verdicts", REQUIRED), ("condition", HypothesisReport.condition)],
        [(True, ()), (True, ()), (False, (verdict,)), (False, (verdict,), "other")],
    ),
    FGAbelianGroup: ([("rank", REQUIRED), ("torsion", ())], [(1,), (1, ()), (0, [2, 60]), (2, (3,))]),
    Face: ([("n", REQUIRED), ("blocks", REQUIRED)], [(3, ({1, 2}, {3})), (3, [[1, 2], [3]]), (3, ({3}, {1, 2}))]),
    CgaPresentation: (
        [("generators", REQUIRED), ("m", None)],
        [((a,),), ((a,), None), ((c, a), 10), ((a, c), 10)],
    ),
    DegreeCertificate: (
        [("total_degree", REQUIRED), ("negative_positions", REQUIRED), ("negative_ok", REQUIRED),
         ("exact_at_zero", REQUIRED)],
        [(2, 1, True, True), (2, 1, True, True), (3, 0, False, True)],
    ),
    CertifyReport: (
        [("ok", REQUIRED), ("m", REQUIRED), ("rho_d_zero", REQUIRED), ("rho_surjective", REQUIRED),
         ("degrees", ()), ("failure", "")],
        [(True, 4, True, True), (True, 4, True, True, ()), (False, 6, True, False, (certificate,), "why")],
    ),
    HomotopyReport: (
        [("ok", REQUIRED), ("homotopy_law_failures", REQUIRED), ("product_law_failures", REQUIRED),
         ("s_images", None, UNCOMPARED)],
        [(True, (), ()), (True, (), (), {"x": 1}), (False, ("a",), ())],
    ),
    TwistingReport: (
        [("ok", REQUIRED), ("truncation", REQUIRED), ("failed_level", 0), ("residual", None, UNCOMPARED)],
        [(True, 4), (True, 4, 0, "r"), (False, 4, 3, "residual")],
    ),
    OrbitVerdict: (
        [("status", REQUIRED), ("witness", None), ("refutation_level", 0), ("obstruction", None, UNCOMPARED),
         ("modulus", 0), ("nodes_used", 0)],
        [("witness",), ("refuted", None, 3, "one", 2, 5), ("refuted", None, 3, "two", 2, 5),
         ("witness", "p", 0, None, 0, 10)],
    ),
    OrbitHomotopyReport: (
        [("ok", REQUIRED), ("failed_law", ""), ("failed_at", ""), ("witness", None)],
        [(True,), (True, "", "", None), (False, "law", "x", "w")],
    ),
}


def twin_class(cls):
    fields = []
    for name, default, *flags in RECORDS[cls][0]:
        fields.append((name, object, dataclasses.field(default=default, compare=UNCOMPARED not in flags)))
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def twin_of(record, twin):
    return twin(**{f.name: getattr(record, f.name) for f in dataclasses.fields(twin)})


def outcome(call):
    """The value of call(), or the type and message of what it raised."""
    try:
        return call()
    except dataclasses.FrozenInstanceError as exc:  # an AttributeError
        return (AttributeError, str(exc))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return (type(exc), str(exc))


def test_every_record_class_has_a_twin():
    assert set(Record.__subclasses__()) == set(RECORDS) and len(RECORDS) == 15


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_record_agrees_with_its_dataclass_twin(cls):
    twin = twin_class(cls)
    records = [cls(*args) for args in RECORDS[cls][1]]
    twins = [twin_of(r, twin) for r in records]
    for r, t in zip(records, twins):
        assert repr(r) == repr(t)
        assert outcome(lambda: hash(r)) == outcome(lambda: hash(t))
        assert r.__eq__(t) is NotImplemented and r != t
        for name in [f.name for f in dataclasses.fields(twin)] + ["other"]:
            assert outcome(lambda: setattr(r, name, 0)) == outcome(lambda: setattr(t, name, 0))
            assert outcome(lambda: delattr(r, name)) == outcome(lambda: delattr(t, name))
    for (r1, t1), (r2, t2) in product(zip(records, twins), repeat=2):
        assert (r1 == r2) == (t1 == t2) and (r1 != r2) == (t1 != t2)
    # the samples hold at least one equal pair of distinct objects
    assert any(r1 == r2 for r1, r2 in product(records, repeat=2) if r1 is not r2)


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_record_binds_arguments_as_its_dataclass_twin(cls):
    fields = [name for name, *_ in RECORDS[cls][0]]
    args = RECORDS[cls][1][-1]
    record = cls(*args)
    assert cls(**dict(zip(fields, args))) == record == cls(*args[:1], **dict(zip(fields[1:], args[1:])))
    required = [name for name, default, *_ in RECORDS[cls][0] if default is REQUIRED]
    minimal = cls(*args[:len(required)])
    assert repr(minimal) == repr(twin_class(cls)(*(getattr(minimal, name) for name in required)))
    for bad in (
        lambda: cls(),
        lambda: cls(*args[:len(required) - 1]),
        lambda: cls(*args, *[None] * (len(fields) - len(args) + 1)),
        lambda: cls(*args, unknown=1),
        lambda: cls(*args, **{fields[0]: args[0]}),
    ):
        with pytest.raises(TypeError):
            bad()


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_record_pickles_round_trip(cls):
    for args in RECORDS[cls][1]:
        record = cls(*args)
        again = pickle.loads(pickle.dumps(record))
        assert again == record and repr(again) == repr(record)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    env = {**os.environ, "PYTHONPATH": str(Path(cupone.__file__).resolve().parents[1])}
    code = "import sys, cupone.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
