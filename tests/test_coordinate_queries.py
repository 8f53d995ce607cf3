"""Queries on canonical coordinate tuples.

table_conditions, self_verdict and classify_sphere_target apply the
slice's maps to coordinate tuples (Homomorphism._apply) and test im E
membership on them (fgab._image_contains); classify_projective and the
sphere answers are shared immutable values.  These tests pin the
coordinate path to the element-level one it replaced, and count the
values a warmed query builds.
"""

import random

import pytest

import nielsencalc.fgab as fgab
from nielsencalc.classifier import (
    CoincidenceAnswer,
    ProjectiveClass,
    classify_projective,
    classify_sphere_target,
    table_conditions,
)
from nielsencalc.fgab import (
    FgAbGroup,
    GroupElement,
    _image_contains,
    in_image,
    is_surjective,
)
from nielsencalc.homotopy_db import (
    FIELD_DIMS,
    Database,
    GroupEntry,
    HomEntry,
    SpaceId,
    load_default,
)
from nielsencalc.selfcoincidence import self_verdict
from oracles import (
    all_finite_groups,
    all_slices,
    brute_image,
    random_well_defined_hom,
    reference_table_conditions,
    zero_hom,
)

S = SpaceId.sphere
SHIPPED_SLICES = (("R", 11, 6), ("R", 6, 6), ("C", 5, 2), ("H", 11, 2))


@pytest.fixture(scope="module")
def db():
    return load_default()


def _slice_db(rng, K, m, nprime, lift, low, high):
    """A database holding one (K, m, n') slice over the given groups, with
    random well-defined maps, A drawn again until it is an automorphism as
    the load requires: nothing forces the seven cases apart."""
    d = FIELD_DIMS[K]
    n = d * nprime
    keys = {"lift": (S(n + d - 1), m), "low": (S(n - 1), m - 1),
            "high": (S(n), m)}
    groups = {keys["lift"]: lift, keys["low"]: low, keys["high"]: high}
    maps = [("boundary_K", "lift", "low"), ("suspension_E", "low", "high")]
    if K == "R":
        maps.append(("antipodal_A", "lift", "lift"))
    homs = []
    for name, source, target in maps:
        source, target = keys[source], keys[target]
        hom = random_well_defined_hom(rng, groups[source], groups[target])
        while name == "antipodal_A" and not is_surjective(hom):
            hom = random_well_defined_hom(rng, groups[source], groups[target])
        homs.append(HomEntry(name, source, target, hom.matrix, "random"))
    entries = {key: GroupEntry(*key, group, ("g",) * group.dim, "random")
               for key, group in groups.items()}
    return Database("v1", entries, homs, ())


def _assert_tables_agree(db, K, m, nprime, lifts) -> bool:
    """Compare the two tables on every pair of lifts; return whether
    exactly one condition fired for each pair."""
    exclusive = True
    for x1 in lifts:
        for x2 in lifts:
            f1, f2 = (ProjectiveClass(K, m, nprime, x) for x in (x1, x2))
            conditions = table_conditions(db, f1, f2)
            assert conditions == reference_table_conditions(db, f1, f2)
            exclusive = exclusive and sum(conditions) == 1
    return exclusive


def test_table_agrees_with_the_element_level_reference_on_random_slices():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    # torsion groups, so that the maps' images need reducing
    groups = [g for g in all_finite_groups(12, 2) if not g.is_trivial]
    seen = set()

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.sampled_from("RCH"), st.integers(0, 2 ** 32),
           *[st.sampled_from(groups)] * 3)
    def check(K, seed, lift, low, high):
        if K == "R":
            high = lift     # E lands in the lift group
        db = _slice_db(random.Random(seed), K, 5, 2, lift, low, high)
        seen.add(_assert_tables_agree(db, K, 5, 2, list(lift.elements())))

    check()
    # both consistent slices and slices that break exclusivity occur
    assert seen == {True, False}


def test_table_agrees_with_the_element_level_reference_on_every_small_slice():
    # K = R, m = 5, n' = 2: E lands in the lift group pi_5(S(2))
    lift, low = (S(2), 5), (S(1), 4)
    count = exclusive = 0
    for boundary, suspension, antipodal in all_slices(4):
        groups = {key: GroupEntry(*key, group, ("g",) * group.dim, "all")
                  for key, group in ((lift, boundary.source),
                                     (low, boundary.target))}
        homs = [HomEntry(name, source, target, hom.matrix, "all")
                for name, source, target, hom in (
                    ("boundary_K", lift, low, boundary),
                    ("suspension_E", low, lift, suspension),
                    ("antipodal_A", lift, lift, antipodal))]
        db = Database("v1", groups, homs, ())
        exclusive += _assert_tables_agree(db, "R", 5, 2,
                                          list(boundary.source.elements()))
        count += 1
    # 319 slices are consistent: exactly one case fires on every lift pair
    assert (count, exclusive) == (1873, 319)


@pytest.mark.parametrize("K, m, nprime", SHIPPED_SLICES)
def test_table_agrees_with_the_element_level_reference_on_shipped_slices(
        db, K, m, nprime):
    d = FIELD_DIMS[K]
    group = db.get_group(S(d * nprime + d - 1), m)
    lifts = [group.element((x,)) for x in range(-12, 13)]
    assert _assert_tables_agree(db, K, m, nprime, lifts)


_MIXED_GROUPS = all_finite_groups(24, 2) + [
    FgAbGroup(1, (2,)), FgAbGroup(1, (2, 4)), FgAbGroup(2, (3,)),
    FgAbGroup(1, (6,)), FgAbGroup(2, ())]


def test_apply_agrees_with_call():
    rng = random.Random(909)
    with_torsion = [g for g in _MIXED_GROUPS if g.torsion]
    for _ in range(300):
        src, tgt = rng.choice(with_torsion), rng.choice(with_torsion)
        h = random_well_defined_hom(rng, src, tgt)
        for _ in range(5):
            # unreduced coordinates name the same element, so they have the
            # same image
            raw = [rng.randint(-30, 30) for _ in range(src.dim)]
            x = src.element(raw)
            assert h._apply(x.coords) == h(x).coords
            assert h._apply(raw) == h(x).coords


def test_membership_agrees_with_brute_force_up_to_order_200():
    rng = random.Random(200)
    groups = [g for g in all_finite_groups(200, 3) if g.order() > 24]
    for _ in range(25):
        src, tgt = rng.choice(groups), rng.choice(groups)
        h = random_well_defined_hom(rng, src, tgt)
        image = brute_image(h)
        for y in tgt.elements():
            assert in_image(h, y)[0] == (y in image)
            assert _image_contains(h, y.coords) == (y in image)


def test_database_replaces_a_map_between_other_groups(db):
    # queries apply the maps to bare coordinates, so an entry's map is the
    # one the Database resolves from its matrix, whatever map it was given
    entry = db.homs[0]
    other = FgAbGroup(0, (7,))
    bad = entry.replace(hom=zero_hom(other, other))
    rebuilt = Database(db.version, db.groups, (bad, *db.homs[1:]), db.assertions)
    hom = rebuilt.homs[0].hom
    assert (hom.source, hom.target) == (db.get_group(*entry.source),
                                        db.get_group(*entry.target))
    assert hom == entry.hom and rebuilt == db


# ---------------------------------------------------------------------------
# what a warmed query builds

@pytest.fixture
def built(monkeypatch):
    """Constructions of GroupElement, SpaceId and CoincidenceAnswer, and
    Smith normal forms computed, from the time the fixture is set up."""
    counts = dict.fromkeys(
        ("GroupElement", "SpaceId", "CoincidenceAnswer", "_snf"), 0)

    def count(owner, attr, label):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            counts[label] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, wrapper)

    for cls in (GroupElement, SpaceId, CoincidenceAnswer):
        count(cls, "__init__", cls.__name__)
    count(fgab, "_snf", "_snf")
    return counts


def _query(db, name):
    """The function and the prebuilt arguments of a named query."""
    def lift(n, m, x):
        return db.get_group(S(n), m).element((x,))

    def pair(K, m, nprime, n, x1, x2):
        return classify_projective, (
            db, ProjectiveClass(K, m, nprime, lift(n, m, x1)),
            ProjectiveClass(K, m, nprime, lift(n, m, x2)))

    return {
        "classify R": lambda: pair("R", 11, 6, 6, 1, 0),
        "classify R, A-related": lambda: pair("R", 6, 6, 6, 3, -3),
        "classify C": lambda: pair("C", 5, 2, 5, 1, 1),
        "classify H": lambda: pair("H", 11, 2, 11, 2, 5),
        "self": lambda: (self_verdict, (db, "R", 11, 6, lift(6, 11, 1))),
        "sphere loose": lambda: (classify_sphere_target,
                                 (db, 6, 6, lift(6, 6, 2), lift(6, 6, -2))),
        "sphere essential": lambda: (classify_sphere_target,
                                     (db, 6, 6, lift(6, 6, 2), lift(6, 6, 3))),
        "circle": lambda: (classify_sphere_target,
                           (db, 1, 1, lift(1, 1, 5), lift(1, 1, 2))),
    }[name]()


def _warmed(built, fn, args):
    fn(*args)     # fills the slice memo and the SNF caches
    for key in built:
        built[key] = 0
    return fn(*args)


@pytest.mark.parametrize("name", [
    "classify R", "classify R, A-related", "classify C", "classify H",
    "self", "sphere loose", "sphere essential"])
def test_a_warmed_query_builds_nothing(db, built, name):
    _warmed(built, *_query(db, name))
    assert built == {"GroupElement": 0, "SpaceId": 0,
                     "CoincidenceAnswer": 0, "_snf": 0}


def test_the_circle_builds_only_its_answer(db, built):
    answer = _warmed(built, *_query(db, "circle"))
    assert answer.triple == (3, 3, 3)
    assert built == {"GroupElement": 0, "SpaceId": 0,
                     "CoincidenceAnswer": 1, "_snf": 0}


def test_answers_are_shared(db):
    for name in ("classify R", "classify H", "sphere loose", "sphere essential"):
        fn, args = _query(db, name)
        assert fn(*args) is fn(*args)


def test_a_load_builds_each_space_once(built):
    db = load_default()
    spaces = {space for space, _ in db.groups} | {
        key[0] for entry in db.homs for key in (entry.source, entry.target)}
    assert built["SpaceId"] == len(spaces) == 12
