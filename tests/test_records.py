"""The package's frozen records against dataclass(frozen=True) twins.

binmat._record builds a record class's methods without the dataclasses
module. Each class here gets a twin made by dataclasses itself, with the
same name, fields and methods, and the two must agree on repr, equality and
hashing. Records also refuse assignment, deletion and malformed
construction, and __post_init__ raises the twin's ValueError texts.
"""

import dataclasses
from functools import cache

import pytest

from pglatin.binmat import BinaryMatrix, Permutation, _record
from pglatin.canonical import BlockForm, BlockFormReport, canonicalize
from pglatin.geometry import Geometry, PencilWithTransversal, PlaneVerdict, ProjectivePlane
from pglatin.latin import LatinSquare, MplsReport, MplsSet, ResolvabilityReport, Transversal
from pglatin.planes import FiniteField, PlaneBundle, build_pg2

TWO = LatinSquare(((1, 2), (2, 1)))
PLANE = build_pg2(2)
FORM = canonicalize(PLANE.incidence)

# per class, the fields of two equal instances (built apart) and of an unequal one
SAMPLES = {
    Permutation: [((0, 1, 2),), ((0, 1, 2),), ((1, 0, 2),)],
    BlockForm: [
        (FORM.matrix, 2, FORM.row_perm, FORM.col_perm),
        (canonicalize(build_pg2(2).incidence).matrix, 2, FORM.row_perm, FORM.col_perm),
        (FORM.matrix, 2, Permutation(tuple(reversed(range(7)))), FORM.col_perm),
    ],
    BlockFormReport: [(("corner",),), (("corner",),), ((),)],
    PlaneVerdict: [(True, True, 2), (True, True, 2), (True, False, None)],
    PencilWithTransversal: [(0, (1, 2)), (0, (1, 2)), (1, (0, 2))],
    ProjectivePlane: [(2,), (2,), (3,)],
    LatinSquare: [(((1, 2), (2, 1)),), (((1, 2), (2, 1)),), (((1,),),)],
    MplsSet: [(2, (TWO,)), (2, (LatinSquare(((1, 2), (2, 1))),)), (3, ())],
    MplsReport: [(True, True, ()), (True, True, ()), (False, False, ("squares 0 and 1",))],
    Transversal: [(2, ((0, 0, 1), (1, 1, 2))), (2, ((0, 0, 1), (1, 1, 2))), (2, ((0, 1, 2), (1, 0, 1)))],
    ResolvabilityReport: [(0, (1,), (), True, ()), (0, (1,), (), True, ()), (1, (0,), (), False, ("none",))],
    FiniteField: [(2, 2, (1, 1, 1)), (2, 2, (1, 1, 1)), (3, 1, (0, 1))],
    PlaneBundle: [
        (PLANE.geometry, PLANE.incidence, 2),
        (build_pg2(2).geometry, build_pg2(2).incidence, 2),
        (PLANE.geometry, PLANE.incidence, 3),
    ],
    Geometry: [(3, ((0, 1), (0, 2), (1, 2))), (3, ((0, 1), (0, 2), (1, 2))), (3, ((0, 1, 2),))],
    BinaryMatrix: [(2, 2, (1, 2)), (2, 2, (1, 2)), (2, 2, (3, 2))],
}
PLAIN = [cls for cls in SAMPLES if cls not in (Geometry, BinaryMatrix)]


def names(cls) -> list[str]:
    return list(cls.__annotations__)


@cache
def twin(cls):
    """dataclass(frozen=True) over cls's fields, with cls's own methods but those a dataclass writes; one per cls."""
    written = {"__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__", "__dict__", "__weakref__"}
    methods = {key: value for key, value in vars(cls).items() if key not in written}
    del methods["__annotations__"]
    return dataclasses.make_dataclass(cls.__name__, names(cls), frozen=True, namespace=methods)


def build(cls, fields):
    return BinaryMatrix.from_masks(fields[1], fields[2]) if cls is BinaryMatrix else cls(*fields)


@pytest.mark.parametrize("cls", PLAIN, ids=lambda cls: cls.__name__)
def test_repr_eq_and_hash_agree_with_the_twin(cls):
    a, same, other = (build(cls, fields) for fields in SAMPLES[cls])
    twins = [twin(cls)(*fields) for fields in SAMPLES[cls]]
    assert [repr(x) for x in (a, same, other)] == [repr(x) for x in twins]
    assert repr(a).startswith(f"{cls.__name__}({names(cls)[0]}=")
    assert (a == same, a == other, a != same, a != other) == (True, False, False, True)
    assert (twins[0] == twins[1], twins[0] == twins[2]) == (True, False)
    assert [hash(x) for x in (a, same, other)] == [hash(x) for x in twins]
    assert a is not same and len({a, same, other}) == 2


@pytest.mark.parametrize("cls", [*PLAIN, BinaryMatrix], ids=lambda cls: cls.__name__)
def test_a_record_equals_only_its_own_class(cls):
    fields = SAMPLES[cls][0]
    a = build(cls, fields)
    assert a != twin(cls)(*fields) and twin(cls)(*fields) != a
    assert a != fields and a.__eq__(fields) is NotImplemented
    assert hash(a) == hash(fields)


def test_a_field_shows_as_its_repr():
    # no package record has a bare str field, where str() and repr() differ
    @_record
    class Named:
        name: str

    assert repr(Named("a b")) == f"{Named.__qualname__}(name='a b')"


def test_fields_come_from_the_annotations_however_a_class_keeps_them():
    # from Python 3.14 a module without `from __future__ import annotations` keeps a class's annotations out of its
    # __dict__ until first read; this metaclass does the same on every version
    class Lazy(type):
        @property
        def __annotations__(cls):
            return {"name": str}

    @_record
    class Named(metaclass=Lazy):
        pass

    assert "__annotations__" not in vars(Named)
    assert repr(Named("a")) == f"{Named.__qualname__}(name='a')"
    assert Named("a") == Named(name="a") and Named("a") != Named("b")
    with pytest.raises(TypeError, match="has no annotated fields"):

        @_record
        class Empty:
            pass


def test_binary_matrix_keeps_its_own_repr_and_constructor():
    a, same, other = (build(BinaryMatrix, fields) for fields in SAMPLES[BinaryMatrix])
    assert (repr(a), a == same, a == other) == ("BinaryMatrix(2x2)", True, False)
    assert BinaryMatrix(2, 2, (1, 0, 0, 1)) == a and hash(BinaryMatrix(2, 2, (1, 0, 0, 1))) == hash(a)
    with pytest.raises(TypeError):
        BinaryMatrix(2, 2)


def test_geometry_keeps_its_line_multiset_equality():
    a = Geometry(3, ((0, 1), (0, 2), (1, 2)))
    shuffled = Geometry(3, ((1, 2), (0, 1), (0, 2)))
    assert repr(a) == repr(twin(Geometry)(*SAMPLES[Geometry][0]))
    assert repr(a) == "Geometry(point_count=3, lines=((0, 1), (0, 2), (1, 2)))"
    assert a == shuffled and hash(a) == hash(shuffled) and repr(a) != repr(shuffled)
    assert a != Geometry(3, ((0, 1, 2),)) and a.__eq__((3, a.lines)) is NotImplemented


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)
def test_records_are_frozen(cls):
    a = build(cls, SAMPLES[cls][0])
    for name in [*names(cls), "extra"]:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(a, name, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(a, name)
    assert build(cls, SAMPLES[cls][0]) == a


@pytest.mark.parametrize("cls", [*PLAIN, Geometry], ids=lambda cls: cls.__name__)
def test_construction_takes_each_field_once(cls):
    fields = SAMPLES[cls][0]
    keywords = dict(zip(names(cls), fields))
    assert repr(cls(**keywords)) == repr(cls(*fields[:1], **dict(list(keywords.items())[1:]))) == repr(cls(*fields))
    for args, kwargs in [
        (fields[:-1], {}),
        ((*fields, fields[0]), {}),
        (fields, {"extra": 1}),
        (fields, {names(cls)[0]: fields[0]}),
        ((), dict(list(keywords.items())[1:])),
    ]:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


# a bad value for each class whose __post_init__ checks its fields
BAD = [
    (Permutation, ((0, 0),)),
    (LatinSquare, ((),)),
    (LatinSquare, (((1, 2), (1, 2)),)),
    (MplsSet, (1, ())),
    (MplsSet, (2, (TWO, TWO))),
    (MplsSet, (3, (TWO,))),
    (Transversal, (2, ((0, 0, 1), (0, 1, 2)))),
    (Transversal, (2, ((0, 0, 1), (1, 1, 1)))),
    (FiniteField, (4, 1, (0, 1))),
    (FiniteField, (2, 2, (0, 0, 1))),
    (Geometry, (-1, ())),
    (Geometry, (3, ((1, 0),))),
]


@pytest.mark.parametrize("cls, fields", BAD, ids=lambda x: getattr(x, "__name__", ""))
def test_post_init_errors_are_the_twins(cls, fields):
    with pytest.raises(ValueError) as theirs:
        twin(cls)(*fields)
    with pytest.raises(ValueError) as ours:
        cls(*fields)
    assert (type(ours.value), str(ours.value)) == (type(theirs.value), str(theirs.value))


def test_a_block_form_still_caches_its_report():
    form = canonicalize(build_pg2(3).incidence)
    assert form._report is form._report and form._report.ok
    assert "_report" in vars(form)


def test_a_matrix_stores_its_row_lists_and_cells_on_first_read():
    # equality, hashing and repr ignoring bits are pinned in test_binmat; data goes through the same descriptor
    m = BinaryMatrix(2, 3, (1, 0, 1, 0, 1, 0))
    assert set(vars(m)) == {"rows", "cols", "masks"}
    assert m.data == (1, 0, 1, 0, 1, 0) and m.data is m.data and m.bits is m.bits
    assert set(vars(m)) == {"rows", "cols", "masks", "bits", "data"}
