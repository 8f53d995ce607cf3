"""The immutable value classes and the per-database slice memo."""

import copy
import pickle

import pytest

from nielsencalc._frozen import Frozen
from nielsencalc.classifier import (
    ClassificationError,
    CoincidenceAnswer,
    ProjectiveClass,
    ProjectiveSlice,
    SpaceFormQuery,
    classify_projective,
    classify_space_form,
    classify_sphere_target,
    reidemeister_count,
)
from nielsencalc.fgab import FgAbGroup, Homomorphism, Subgroup
from nielsencalc.homotopy_db import (
    Assertion,
    Database,
    DatabaseError,
    GroupEntry,
    HomEntry,
    HomRef,
    InsufficientDataError,
    SpaceId,
    Violation,
    load_default,
    loads,
    serialize,
)
from nielsencalc.selfcoincidence import LoosenessVerdict, self_verdict

from oracles import identity_hom

S = SpaceId.sphere
Z = FgAbGroup(1, ())


@pytest.fixture(scope="module")
def db():
    return load_default()


def _rp11(db, k):
    return ProjectiveClass("R", 11, 6, db.get_group(S(6), 11).element((k,)))


def _values(db):
    f = _rp11(db, 1)
    return [
        S(6), db.groups[(S(6), 11)], db.homs[0], HomRef("suspension_E"),
        db.assertions[0], Violation("io", "x.nielsendb", "gone", 3), db,
        f, ProjectiveSlice.resolve(db, "R", 11, 6, ()),
        classify_projective(db, f, f), SpaceFormQuery(5, 3, False),
        self_verdict(db, "R", 11, 6, f.lift),
        Z, Z.element((1,)), identity_hom(Z), Subgroup(Z, [Z.element((2,))]),
    ]


# ---------------------------------------------------------------------------
# value classes

def test_every_value_class_refuses_assignment_and_deletion(db):
    for value in _values(db):
        field = type(value).__slots__[0]
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert getattr(value, field) is before


def test_line_and_hom_are_left_out_of_eq_and_hash(db):
    entry = db.groups[(S(6), 11)]
    moved = GroupEntry(entry.space, entry.m, entry.group, entry.labels,
                       entry.provenance, line=entry.line + 7)
    assert moved == entry and hash(moved) == hash(entry)
    assert moved.replace(provenance="other") != entry
    hom = db.homs[0]
    bare = HomEntry(hom.name, hom.source, hom.target, hom.matrix, hom.provenance)
    assert bare.line == 0 and bare.hom is None
    assert bare == hom and hash(bare) == hash(hom)
    assert Violation("k", "s", "m", 1) == Violation("k", "s", "m", 2)
    assert Assertion("zero", (), 1) == Assertion("zero", (), 2)
    assert hash(Assertion("zero", (), 1)) == hash(Assertion("zero", (), 2))
    assert Violation("k", "s", "m") != Violation("k", "s", "other")


def test_a_database_gives_each_entry_the_map_of_its_own_matrix(db):
    hom = db.homs[0]
    bare = HomEntry(hom.name, hom.source, hom.target, hom.matrix, hom.provenance)
    assert db.replace(homs=(bare,) + db.homs[1:]).homs[0].hom == hom.hom
    dangling = hom.replace(source=(S(9), 99))       # passed with a map
    assert dangling.hom is not None
    with pytest.raises(DatabaseError) as raised:
        db.replace(homs=(dangling,) + db.homs[1:])
    assert ("dangling_ref", dangling.ref()) in [(v.kind, v.subject)
                                                for v in raised.value.violations]


def test_constructors_take_positional_keyword_and_default_forms():
    assert Violation("io", "p", "m") == Violation(kind="io", subject="p",
                                                  message="m", line=0)
    assert Violation("io", "p", "m").line == 0
    assert HomRef("boundary_K").source is None
    assert SpaceId(kind="S", K=None, index=4) == S(4)
    with pytest.raises(TypeError):
        Violation("io", "p")                       # missing field
    with pytest.raises(TypeError):
        Violation("io", "p", "m", 1, 2)            # too many
    with pytest.raises(TypeError):
        Violation("io", "p", "m", kind="io")       # given twice
    with pytest.raises(TypeError):
        Violation("io", "p", "m", colour="red")    # no such field
    with pytest.raises(ClassificationError):
        SpaceFormQuery(4, 2, True)                 # the check still runs


def test_replace_returns_an_equal_but_changed_copy(db):
    entry = db.homs[0]
    changed = entry.replace(provenance="elsewhere")
    assert changed.provenance == "elsewhere" and entry.provenance != "elsewhere"
    assert (changed.name, changed.source, changed.matrix, changed.line,
            changed.hom) == (entry.name, entry.source, entry.matrix,
                             entry.line, entry.hom)
    assert changed != entry
    assert changed.replace(provenance=entry.provenance) == entry
    assert S(6).replace(index=7) == S(7)
    with pytest.raises(TypeError):
        entry.replace(colour="red")
    with pytest.raises(ValueError):
        S(6).replace(K="R")            # the constructor's checks run


def test_reprs_keep_their_field_order(db):
    assert repr(S(6)) == "SpaceId(kind='S', K=None, index=6)"
    assert (repr(Violation("io", "x", "gone", 3))
            == "Violation(kind='io', subject='x', message='gone', line=3)")
    assert (repr(HomRef("suspension_E"))
            == "HomRef(name='suspension_E', source=None, target=None)")
    assert (repr(LoosenessVerdict("R", 11, 6, False, True))
            == "LoosenessVerdict(K='R', m=11, nprime=6, "
               "small_deformation=False, omega_sharp_zero=True)")
    assert (repr(classify_space_form(SpaceFormQuery(5, 3, False)))
            == "CoincidenceAnswer(case_id='spaceform-full', condition='odd n, "
               "f_1 !~ f_2', nielsen=5, mcc=5, mc=None, "
               "notes=('MC not determined in this setting',))")
    assert repr(db.groups[(S(6), 11)]).startswith(
        "GroupEntry(space=SpaceId(kind='S', K=None, index=6), m=11, "
        "group=FgAbGroup(1, ()), labels=('halfHopf',), provenance=")
    assert repr(db).startswith("Database(v1, ")


def test_values_survive_pickle_and_copy(db):
    for value in _values(db):
        if isinstance(value, (Database, Subgroup)):
            continue        # a mappingproxy does not pickle; identity ==
        for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                      copy.deepcopy(value)):
            assert type(clone) is type(value) and clone == value
            assert repr(clone) == repr(value)


def test_loose_small_is_loose_on_projective_answers_only(db):
    for k in (0, 1, 2, 3):
        answer = classify_projective(db, _rp11(db, k), _rp11(db, 1))
        assert answer.loose_small == answer.loose
    assert classify_space_form(SpaceFormQuery(5, 3, True)).loose_small is None
    answer = CoincidenceAnswer("x", "c", 0, 0, 0)
    assert answer.loose is True and answer.loose_small is None


def test_value_classes_keep_one_idiom(db):
    # Frozen's == and hash serve every class but two: a Database compares
    # its entries in any order, and a Subgroup by identity
    own, todo = set(), Frozen.__subclasses__()
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if {"__eq__", "__hash__"} & cls.__dict__.keys():
            own.add(cls)
    assert own == {Database, Subgroup}
    for value in _values(db):
        if "_key" in type(value).__slots__:
            assert value._key == tuple(getattr(value, n) for n in value._compared)
        if not isinstance(value, Subgroup):
            assert value.replace() == value


def test_subgroups_compare_by_identity():
    gens = [Z.element((2,))]
    s = Subgroup(Z, gens)
    assert s == s and s != Subgroup(Z, gens)
    assert len({s, Subgroup(Z, gens)}) == 2


# ---------------------------------------------------------------------------
# the slice memo

@pytest.fixture
def hom_lookups(monkeypatch):
    """Names of the hom entries looked up through the Database class."""
    names = []
    original = Database.require_hom_entry

    def counting(self, name, source, target):
        names.append(name)
        return original(self, name, source, target)

    monkeypatch.setattr(Database, "require_hom_entry", counting)
    return names


def test_second_classify_on_a_slice_does_no_hom_lookups(hom_lookups):
    db = load_default()
    f1, f2 = _rp11(db, 1), _rp11(db, 2)
    first = classify_projective(db, f1, f2)
    assert sorted(hom_lookups) == ["antipodal_A", "boundary_K", "suspension_E"]
    hom_lookups.clear()
    assert classify_projective(db, f1, f2) == first
    assert classify_projective(db, f2, f2).case_id == 1
    assert hom_lookups == []


def test_self_verdict_and_classify_share_one_slice(hom_lookups):
    db = load_default()
    f = _rp11(db, 1)
    verdict = self_verdict(db, "R", 11, 6, f.lift)
    classify_projective(db, f, f)
    assert sorted(hom_lookups) == ["antipodal_A", "boundary_K", "suspension_E"]
    assert list(db._slices) == [("R", 11, 6)]
    hom_lookups.clear()
    assert self_verdict(db, "R", 11, 6, f.lift) == verdict
    assert hom_lookups == []


def test_a_missing_antipodal_action_is_required_only_by_classify():
    text = serialize(load_default())
    no_a = loads("\n".join(line for line in text.splitlines()
                           if not line.startswith("hom antipodal_A S(6),11")))
    f = _rp11(no_a, 1)
    assert self_verdict(no_a, "R", 11, 6, f.lift).gap_witness
    for _ in range(2):
        with pytest.raises(InsufficientDataError, match="antipodal_A"):
            classify_projective(no_a, f, f)
    assert ProjectiveSlice.resolve(no_a, "R", 11, 6, ()).antipodal is None


def test_a_failed_resolve_is_raised_again(hom_lookups):
    slim = loads("nielsendb v1\n"
                 'group S(6) 11 = 1 [] gens halfHopf src "Toda"\n'
                 'group S(5) 10 = 0 [2] gens u src "Toda"\n')
    f = ProjectiveClass("R", 11, 6, slim.get_group(S(6), 11).element((1,)))
    for attempt in (1, 2):
        with pytest.raises(InsufficientDataError, match="boundary_K"):
            classify_projective(slim, f, f)
        assert hom_lookups == ["boundary_K"] * attempt
    for attempt in (1, 2):
        with pytest.raises(ClassificationError, match="m >= 2"):
            self_verdict(slim, "R", 1, 6, f.lift)


class _Dim(int):
    pass


def test_a_dimension_is_an_int_that_is_not_a_bool():
    db = load_default()
    lift = _rp11(db, 1).lift
    c = db.get_group(S(6), 11).element((1,))
    calls = [
        lambda: self_verdict(db, "R", 11.0, 6, lift),
        lambda: ProjectiveSlice.resolve(db, "R", 11, 6.0, (lift,)),
        lambda: ProjectiveClass("R", 11.0, 6, lift),
        lambda: ProjectiveClass("R", 11, True, lift),
        lambda: reidemeister_count("R", 2.5),
        lambda: classify_sphere_target(db, 11.0, 6, c, c),
        lambda: classify_sphere_target(db, 11, True, c, c),
        lambda: classify_sphere_target(db, 11, 0, c, c),
        lambda: SpaceFormQuery(5, True, False),
    ]
    for memoised in (False, True):      # 11.0 hashes like the key 11
        for call in calls:
            with pytest.raises(ClassificationError):
                call()
        assert list(db._slices) == ([("R", 11, 6)] if memoised else [])
        self_verdict(db, "R", 11, 6, lift)
    assert type(list(db._slices)[0][1]) is int
    # an int subclass is an int to the rule, whichever path checks it
    assert (classify_sphere_target(db, _Dim(11), _Dim(6), c, c)
            == classify_sphere_target(db, 11, 6, c, c))
    for index in (2.0, True):
        with pytest.raises(ValueError, match="space index must be >= 1"):
            SpaceId.sphere(index)
    with pytest.raises(ClassificationError):
        LoosenessVerdict("R", 11.0, 6, False, True)
    for call in (lambda: FgAbGroup(True, ()), lambda: Z.element((True,)),
                 lambda: Homomorphism(Z, Z, [[True]])):
        with pytest.raises(ValueError, match="integer"):
            call()


def test_lifts_and_residues_are_checked_on_every_call(db):
    f = _rp11(db, 1)
    classify_projective(db, f, f)
    stranger = ProjectiveClass("R", 11, 6, FgAbGroup(0, (3,)).element((1,)))
    for _ in range(2):
        with pytest.raises(ClassificationError, match="lift must live"):
            classify_projective(db, stranger, f)
    h = ProjectiveClass("H", 11, 2, db.get_group(S(11), 11).element((1,)))
    classify_projective(db, h, h)
    odd = ProjectiveClass("H", 11, 2, h.lift, Z.element((1,)))
    for _ in range(2):
        with pytest.raises(ClassificationError, match="residue must live"):
            classify_projective(db, odd, h)


def test_memo_is_left_out_of_eq_serialize_and_replace(hom_lookups):
    db = load_default()
    text = serialize(db)
    classify_projective(db, _rp11(db, 1), _rp11(db, 1))
    assert db == load_default()
    assert serialize(db) == text
    hom_lookups.clear()
    copy = db.replace(homs=db.homs)
    classify_projective(copy, _rp11(copy, 1), _rp11(copy, 1))
    assert len(hom_lookups) == 3
