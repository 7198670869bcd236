"""The immutable records: ``==``, ``hash``, ``repr``, frozen fields, cached
properties, pickle and copy.  The reprs and hashes are the ones the records
had as frozen dataclasses; a hash over a ``str`` or ``None`` field depends on
the interpreter's hash seed, so it is checked against the hash of the field
tuple instead."""

import copy
import importlib.util
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bpadams import (AdamsFamily, BPContext, C_vector, CongruenceSystem, CongruenceVector,
                     DiagonalAction, SpecialElement, adams_family, delta_p, sandwich_check,
                     special_element)
from bpadams.lattice import SandwichResult

STARTUP_SCRIPT = Path(__file__).resolve().parent / "startup_imports.py"
UNUSED_SCRIPT = Path(__file__).resolve().parent / "unused_private.py"


SPECIAL = ("p", "n", "c", "numerators", "den")
SANDWICH = ("status", "equal", "detail")


def _special(n):
    return special_element(BPContext(3, delta_p(3, 3)), n)


def _sandwich(hat):
    base = [CongruenceVector(3, 0, (Fraction(1),), 0)]
    cn = CongruenceVector(3, 1, (Fraction(0), Fraction(1, 3)), 1)
    return sandwich_check(3, base, cn, CongruenceVector(3, 1, (Fraction(hat, 3),
                                                               Fraction(1, 3)), 1))


# (record, its repr, its hash or None when that depends on the hash seed,
# the fields that ==, hash and repr read)
RECORDS = {
    "family": (lambda: adams_family("phi_ku", 3),
               "AdamsFamily(kind='phi_ku', p=3, q=2, qhat=4)", None,
               ("kind", "p", "q", "qhat")),
    "vector": (lambda: CongruenceVector(3, 1, (Fraction(-1, 3), 1), 1, ([-1, 3], 3)),
               "CongruenceVector(p=3, n=1, entries=(Fraction(-1, 3), Fraction(1, 1)), "
               "budget=1)", 1308154659125486318, ("p", "n", "entries", "budget")),
    "C_vector": (lambda: C_vector(5, 2, 2),
                 "CongruenceVector(p=5, n=2, entries=(Fraction(16, 25), Fraction(-17, 25), "
                 "Fraction(1, 25)), budget=2)", 3954607787799659717,
                 ("p", "n", "entries", "budget")),
    "action": (lambda: DiagonalAction(3, (1, 4, 16)),
               "DiagonalAction(p=3, values=(Fraction(1, 1), Fraction(4, 1), "
               "Fraction(16, 1)))", 280823149989599156, ("p", "values")),
    "symbolic": (lambda: DiagonalAction(2), "DiagonalAction(p=2, values=None)", None,
                 ("p", "values")),
    "system": (lambda: CongruenceSystem(3, 1, ((Fraction(-1, 3), 1), (0, Fraction(1, 9)))),
               "CongruenceSystem(p=3, n=1, rows=((Fraction(-1, 3), Fraction(1, 1)), "
               "(Fraction(0, 1), Fraction(1, 9))))", 5927340892519060500, ("p", "n", "rows")),
    "d_0": (lambda: _special(0),
            "SpecialElement(p=3, n=0, c=(Fraction(1, 1),), numerators=(1,), den=1)",
            5922658248409342747, SPECIAL),
    "d_1": (lambda: _special(1),
            "SpecialElement(p=3, n=1, c=(Fraction(1, 24), Fraction(-1, 24)), "
            "numerators=(1, -1), den=24)", 8723541229622669663, SPECIAL),
    "d_3": (lambda: _special(3),
            "SpecialElement(p=3, n=3, c=(Fraction(-83, 68014080), Fraction(-13, 22671360), "
            "Fraction(-83, 22671360), Fraction(371, 68014080)), numerators=(-83, -39, -249, "
            "371), den=68014080)", 7446629357014270315, SPECIAL),
    "inclusion_failed": (lambda: _sandwich(1),
                         "SandwichResult(status='inclusion_failed', equal=False, "
                         "detail='S is not contained in T')", None, SANDWICH),
    "equal": (lambda: _sandwich(0), "SandwichResult(status='equal', equal=True, detail='')",
              None, SANDWICH),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_repr_hash_and_equality(name):
    build, text, pinned, fields = RECORDS[name]
    record, again = build(), build()
    assert repr(record) == text
    assert record == again and not record != again and hash(record) == hash(again)
    if pinned is not None:
        assert hash(record) == pinned
    else:
        assert hash(record) == hash(tuple(getattr(record, f) for f in fields))
    assert record != text and record.__eq__(text) is NotImplemented


@pytest.mark.parametrize("name", RECORDS)
def test_record_fields_are_frozen(name):
    build, text, _, fields = RECORDS[name]
    record = build()
    for field in (*fields, "not_a_field"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, 0)
    with pytest.raises(AttributeError, match=f"cannot delete field '{fields[0]}'"):
        delattr(record, fields[0])
    assert repr(record) == text


@pytest.mark.parametrize("name", RECORDS)
def test_record_pickle_and_copy_round_trip(name):
    record = RECORDS[name][0]()
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(twin) is type(record) and twin == record and repr(twin) == repr(record)
        assert vars(twin).keys() == vars(record).keys()


def test_fields_outside_the_comparison():
    # _integer and s_lattice are neither compared nor shown
    plain = CongruenceVector(3, 1, (Fraction(-1, 3), Fraction(1)), 1)
    held = CongruenceVector(3, 1, (Fraction(-1, 3), 1), 1, ((-1, 3), 3))
    assert plain == held and hash(plain) == hash(held) and repr(plain) == repr(held)
    assert plain.integer_row == ([-1, 3], 3) and held.integer_row == ((-1, 3), 3)
    result = _sandwich(0)
    assert result.s_lattice is not None
    assert result == SandwichResult("equal", True) and hash(result) == hash(
        SandwichResult("equal", True))
    assert SandwichResult("equal", True, "", None) != SandwichResult("equal", True, "x")
    # records of different classes with equal fields differ
    assert AdamsFamily("phi_ku", 3, 2, 4) == adams_family("phi_ku", 3)
    assert DiagonalAction(3) != CongruenceSystem(3, 0, ())


def test_constructors_check_and_normalise():
    assert CongruenceVector(3, 1, (1, 2), 0).entries == (Fraction(1), Fraction(2))
    assert all(type(e) is Fraction for e in CongruenceVector(3, 1, (1, 2), 0).entries)
    with pytest.raises(ValueError, match="length n \\+ 1"):
        CongruenceVector(3, 2, (1, 2), 0)
    with pytest.raises(ValueError, match="budget must be non-negative"):
        CongruenceVector(3, 1, (1, 2), -1)
    assert DiagonalAction(3, [1, 2]).values == (Fraction(1), Fraction(2))
    with pytest.raises(ValueError, match="mu_1 = 1/3 is not a 3-local integer"):
        DiagonalAction(3, (1, Fraction(1, 3)))
    with pytest.raises(ValueError, match="floating point input rejected"):
        DiagonalAction(3, (1, 1 / 3))  # not read as the dyadic 6004799503160661/2^54
    assert CongruenceSystem(3, 1, [[1, 2]]).rows == ((Fraction(1), Fraction(2)),)
    with pytest.raises(ValueError, match="not a prime"):
        CongruenceSystem(4, 1, ())
    assert SandwichResult("equal", True).detail == ""


def test_cached_properties_stay_cached():
    vector = CongruenceVector(3, 1, (Fraction(-1, 3), Fraction(1, 3)), 1)
    assert "_shape" not in vars(vector)
    assert vector.shape_ok() and vars(vector)["_shape"] is True
    d = _special(3)
    element = d.element
    assert d.element is element and vars(d)["element"] is element
    # a copy carries the cached values; equality of special elements reads them
    twin = pickle.loads(pickle.dumps(d))
    assert vars(twin)["element"] == element and twin == d
    assert isinstance(d, SpecialElement)


def test_special_element_equality_reads_the_element():
    d = _special(1)
    other = SpecialElement(d.p, d.n, d._row, d.den, d._table, d._bound,
                           ({key + 1: v for key, v in d._poly[0].items()}, d._poly[1]))
    assert hash(other) == hash(d) and other != d
    assert SpecialElement(d.p, d.n, d._row, d.den, d._table, d._bound, d._poly) == d


def test_import_loads_no_dataclasses_or_typing():
    done = subprocess.run([sys.executable, str(STARTUP_SCRIPT)], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr


def test_every_private_helper_is_used():
    done = subprocess.run([sys.executable, str(UNUSED_SCRIPT)], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr


def test_a_private_method_that_nothing_calls_is_reported(tmp_path, monkeypatch):
    # the scan reads private methods of classes as well as module-level
    # helpers: a method named only by its own def is reported, one called
    # through an attribute is not
    spec = importlib.util.spec_from_file_location("unused_private", UNUSED_SCRIPT)
    scan = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scan)
    package = tmp_path / "bpadams"
    package.mkdir()
    (package / "lattice.py").write_text(
        "class Lattice:\n"
        "    def _pack(self):\n        return self._pack\n\n"
        "    def _read(self):\n        return 1\n\n"
        "    def __len__(self):\n        return 0\n\n\n"
        "def _spare():\n    return Lattice()._read()\n")
    monkeypatch.setattr(scan, "SRC", tmp_path)
    monkeypatch.setattr(scan, "PACKAGE", package)
    defined, orphans = scan.scan()
    assert defined == ["lattice.Lattice._pack", "lattice.Lattice._read", "lattice._spare"]
    assert orphans == ["lattice.Lattice._pack", "lattice._spare"]
