"""Value semantics of the package's six public frozen records.

``RootSystem``, ``WeylElement``, ``LeviDatum``, ``BranchingResult``,
``DilationSequence`` and ``Biweight`` are records of the fields their
classes annotate, in that order.  Two records are equal when they are of
the same class and their fields are equal; a record never equals a tuple
of its fields or a record of another class.  Equal records hash alike:
a record hashes as the tuple of its fields, and a root system as its
(family, rank).  A record's repr lists its fields, except that a root
system shows its name and a Weyl element its reduced word.  No field can
be set or deleted, and no other attribute can be set.  What ``_cached``
stores on an instance takes no part in equality or hashing.
``LeviDatum`` and ``Biweight`` normalise a field and check their
arguments when they are built.
"""

import copy
import pickle

import pytest

from demazure import (
    Biweight,
    BranchingResult,
    DilationSequence,
    LeviDatum,
    RootSystem,
    WeylElement,
    dimension_sequence,
    from_word,
    longest_element,
    restrict_to_levi,
    rho,
    root_system,
)
from oracles import ROOT_SYSTEM_FIELDS, rebuilt

A2 = root_system("A2")
B3 = root_system("B3")
C3 = root_system("C3")

FIELDS = {
    RootSystem: ROOT_SYSTEM_FIELDS,
    WeylElement: ("rs", "u"),
    LeviDatum: ("rs", "subset"),
    BranchingResult: ("levi", "lam", "constituents"),
    DilationSequence: ("w", "lam", "values"),
    Biweight: ("k1", "k2", "l"),
}


def _fields(record):
    return tuple(getattr(record, name) for name in FIELDS[type(record)])


def _changed(record, name, value):
    """A new record of the same class, with field name set to value."""
    fields = dict(zip(FIELDS[type(record)], _fields(record)))
    return type(record)(**{**fields, name: value})


def _samples():
    """One record of each class, with another value for its first and its last field."""
    w0 = longest_element(B3)
    levi = LeviDatum(A2, {1})
    branched = restrict_to_levi((1, 1), levi)
    dilations = dimension_sequence(from_word(A2, (2, 1)), (1, 0))
    return [
        (B3, "C", (1, 1, 1)),
        (w0, C3, rho(B3)),
        (levi, B3, frozenset({2})),
        (branched, LeviDatum(A2, {2}), branched.constituents[:-1]),
        (dilations, from_word(A2, (1, 2)), dilations.values[:-1]),
        (Biweight(1, 0, (1, 0, 0)), 2, (0, 1, 0)),
    ]


SAMPLES = _samples()
IDS = [type(record).__name__ for record, _, _ in SAMPLES]


@pytest.mark.parametrize("record, first, last", SAMPLES, ids=IDS)
def test_records_are_equal_by_their_fields(record, first, last):
    names = FIELDS[type(record)]
    twin = type(record)(*_fields(record))
    assert twin is not record
    assert twin == record and record == twin and not twin != record
    assert _changed(record, names[0], first) != record
    assert _changed(record, names[-1], last) != record
    # never equal to the tuple of its fields, or to a record of another class
    assert record != _fields(record) and _fields(record) != record
    assert record.__eq__(_fields(record)) is NotImplemented
    for other, _, _ in SAMPLES:
        if type(other) is not type(record):
            assert record.__eq__(other) is NotImplemented
            assert record != other


@pytest.mark.parametrize("record, first, last", SAMPLES, ids=IDS)
def test_equal_records_hash_alike(record, first, last):
    twin = type(record)(*_fields(record))
    assert hash(twin) == hash(record)
    assert len({record, twin}) == 1
    if type(record) is RootSystem:
        # family and rank determine the rest
        assert hash(record) == hash((record.family, record.rank))
    else:
        assert hash(record) == hash(_fields(record))


def test_record_reprs():
    assert repr(B3) == "RootSystem(B3)"
    assert repr(longest_element(B3)) == "WeylElement(B3, 1,2,1,3,2,1,3,2,3)"
    assert repr(WeylElement(B3, rho(B3))) == "WeylElement(B3, e)"
    levi = LeviDatum(A2, {1})
    assert repr(levi) == "LeviDatum(rs=RootSystem(A2), subset=frozenset({1}))"
    assert repr(restrict_to_levi((1, 1), levi)) == (
        "BranchingResult(levi=LeviDatum(rs=RootSystem(A2), subset=frozenset({1})), lam=(1, 1), "
        "constituents=(((0, 0), 1), ((1, -2), 1), ((1, 1), 1), ((2, -1), 1)))"
    )
    assert repr(dimension_sequence(from_word(A2, (2, 1)), (1, 0))) == (
        "DilationSequence(w=WeylElement(A2, 2,1), lam=(1, 0), values=(1, 3, 6, 10, 15, 21, 28))"
    )
    assert repr(Biweight(1, 0, [1, 0, 0])) == "Biweight(k1=1, k2=0, l=(1, 0, 0))"


@pytest.mark.parametrize("record, first, last", SAMPLES, ids=IDS)
def test_records_are_frozen(record, first, last):
    before = _fields(record)
    for name in FIELDS[type(record)]:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, first)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    with pytest.raises(AttributeError, match="^cannot assign to field 'extra'$"):
        record.extra = 1
    assert _fields(record) == before and "extra" not in vars(record)


@pytest.mark.parametrize("record, first, last", SAMPLES, ids=IDS)
def test_records_survive_copy_and_pickle(record, first, last):
    for back in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(back) is type(record) and back == record and hash(back) == hash(record)


def test_cached_attributes_are_outside_equality_and_hashing():
    for word in ((1, 2, 1), (2, 3, 2, 1)):
        walked = from_word(B3, word)
        fresh = WeylElement(B3, walked.u)
        assert not {"_peel", "length"} & set(vars(fresh))
        assert walked.length == len(word) and "_peel" in vars(walked)
        assert fresh == walked and hash(fresh) == hash(walked)
    cold = rebuilt(B3)
    assert B3.dots and B3.order
    assert cold == B3 and hash(cold) == hash(B3)


def test_levi_datum_normalises_its_subset():
    for subset in ([2, 1, 2], (1, 2), {1, 2}, frozenset({1, 2}), iter([1, 2])):
        levi = LeviDatum(B3, subset)
        assert type(levi.subset) is frozenset and levi.subset == frozenset({1, 2})
        assert levi == LeviDatum(B3, frozenset({1, 2}))
    assert LeviDatum(rs=B3, subset=[3]).subset == frozenset({3})
    assert LeviDatum(B3, ()).subset == frozenset()
    for bad in (0, 4, -1, "1"):
        with pytest.raises(ValueError, match=r"^simple index .* out of range 1\.\.3$"):
            LeviDatum(B3, [1, bad])


def test_biweight_normalises_and_checks_its_torus_character():
    for l in ([1, 0, 0], (1, 0, 0), iter((1, 0, 0))):
        bw = Biweight(1, 0, l)
        assert type(bw.l) is tuple and bw == Biweight(1, 0, (1, 0, 0))
    assert Biweight(k1=0, k2=2, l=[0, 1, 1]).l == (0, 1, 1)
    for l in ((1, 0), (1, 0, 0, 0), ()):
        with pytest.raises(ValueError, match="^torus character needs exactly three integers$"):
            Biweight(1, 0, l)
    for k1, k2 in ((-1, 0), (0, -2), (-1, -1)):
        with pytest.raises(ValueError, match=rf"^\({k1}, {k2}\) is not a dominant weight$"):
            Biweight(k1, k2, (0, 0, 0))
    # each integer is read through operator.index: a bool becomes an int,
    # and anything else is refused before any route reads it (0.5 made
    # closed_mult and theorem2_mult return 0 while mult_via_weights
    # raised, and "abc" made closed_mult raise TypeError)
    bw = Biweight(True, False, (False, True, 0))
    assert bw == Biweight(1, 0, (0, 1, 0))
    assert list(map(type, (bw.k1, bw.k2, *bw.l))) == [int] * 5
    for k1, k2, l in ((0.5, 0.5, (0, 0, 0)), (1, 0, "abc"), (1.0, 0, (1, 0, 0)), ("1", 0, (1, 0, 0)),
                      (1, 0, (0.5, 0, 0)), (1, 0, (1, 0, None)), (1, 0, 5), (None, 0, (1, 0, 0))):
        with pytest.raises(ValueError, match="^not all integers: "):
            Biweight(k1, k2, l)
