import random

import pytest

from nielsencalc import classifier
from nielsencalc.classifier import (
    INF,
    ClassificationError,
    CoincidenceAnswer,
    InconsistentDataError,
    ProjectiveClass,
    ProjectiveSlice,
    SpaceFormQuery,
    classify_projective,
    classify_space_form,
    classify_sphere_target,
    reidemeister_count,
    table_conditions,
)
from nielsencalc.fgab import FgAbGroup, Homomorphism
from nielsencalc.homotopy_db import InsufficientDataError, SpaceId, load_default
from nielsencalc.selfcoincidence import self_verdict

S = SpaceId.sphere


@pytest.fixture(scope="module")
def db():
    return load_default()


def rp11(db, k, residue=None):
    g = db.get_group(S(6), 11)
    return ProjectiveClass("R", 11, 6, g.element((k,)), residue)


def rp6(db, k):
    g = db.get_group(S(6), 6)
    return ProjectiveClass("R", 6, 6, g.element((k,)))


def cp5(db, k):
    g = db.get_group(S(5), 5)
    return ProjectiveClass("C", 5, 2, g.element((k,)))


def hp11(db, k, residue=None):
    g = db.get_group(S(11), 11)
    return ProjectiveClass("H", 11, 2, g.element((k,)), residue)


# ---------------------------------------------------------------------------
# infinity sentinel

def test_infinity_ordering():
    assert INF > 1000
    assert not INF < 0
    assert INF >= INF and INF <= INF and INF == INF
    assert 2 <= INF
    assert repr(INF) == "inf"


# ---------------------------------------------------------------------------
# the seven cases

def test_case2_equal_generators(db):
    ans = classify_projective(db, rp11(db, 1), rp11(db, 1))
    assert ans.case_id == 2
    assert ans.triple == (0, 1, 1)
    assert ans.omega_sharp_zero is True
    assert ans.loose is False


def test_case1_even_multiples(db):
    ans = classify_projective(db, rp11(db, 2), rp11(db, 2))
    assert ans.case_id == 1
    assert ans.triple == (0, 0, 0)
    assert ans.loose is True and ans.loose_small is True


def test_case5_generator_vs_null(db):
    ans = classify_projective(db, rp11(db, 1), rp11(db, 0))
    assert ans.case_id == 5
    assert ans.triple == (2, 2, INF)
    # cross-check the Nielsen count against the Reidemeister cardinality
    assert ans.nielsen == reidemeister_count("R", 11) == 2


def test_case3_degree_coordinates(db):
    ans = classify_projective(db, rp6(db, 1), rp6(db, 1))
    assert ans.case_id == 3
    assert ans.triple == (1, 1, 1)
    # antipodally identified lifts give the same free homotopy class
    ans2 = classify_projective(db, rp6(db, 1), rp6(db, -1))
    assert ans2.case_id == 3 and ans2.triple == (1, 1, 1)


def test_case4_suspension_difference(db):
    ans = classify_projective(db, rp6(db, 3), rp6(db, 1))
    assert ans.case_id == 4
    assert ans.triple == (2, 2, 2)


def test_case7_complex(db):
    ans = classify_projective(db, cp5(db, 1), cp5(db, 0))
    assert ans.case_id == 7
    assert ans.triple == (1, 1, INF)


def test_case6_complex_and_quaternionic(db):
    ans = classify_projective(db, cp5(db, 1), cp5(db, 1))
    assert ans.case_id == 6 and ans.triple == (1, 1, 1)
    ans = classify_projective(db, hp11(db, 3), hp11(db, 3))
    assert ans.case_id == 6 and ans.triple == (1, 1, 1)


def test_quaternionic_kernel_is_index_eight(db):
    for k in range(-24, 25):
        ans = classify_projective(db, hp11(db, k), hp11(db, k))
        assert (ans.case_id == 1) == (k % 8 == 0)


def test_preconditions(db):
    with pytest.raises(ClassificationError):
        classify_projective(db, rp11(db, 1), cp5(db, 1))
    # m = 1 is representable but outside the classification's range
    from nielsencalc.fgab import FgAbGroup
    low = ProjectiveClass("C", 1, 2, FgAbGroup(0, ()).zero())
    with pytest.raises(ClassificationError):
        classify_projective(db, low, low)
    with pytest.raises(ClassificationError):
        ProjectiveClass("Q", 5, 2, db.get_group(S(5), 5).element((1,)))
    # wrong parent group for the lift
    with pytest.raises(ClassificationError):
        bad = ProjectiveClass("R", 11, 6, db.get_group(S(5), 10).element((1,)))
        classify_projective(db, bad, bad)


def test_insufficient_data_names_missing_entry(db):
    g = db.get_group(S(6), 11)
    f = ProjectiveClass("R", 11, 6, g.element((1,)))
    import nielsencalc.homotopy_db as hdb
    slim = hdb.loads(
        "nielsendb v1\n"
        'group S(6) 11 = 1 [] gens halfHopf src "Toda"\n'
        'group S(5) 10 = 0 [2] gens u src "Toda"\n')
    with pytest.raises(InsufficientDataError, match="boundary_K"):
        classify_projective(slim, f, f)


def test_residue_ignored_for_numbers(db):
    res_group = db.get_group(S(3), 10)
    for k1, k2 in [(3, 3), (1, 0), (8, 0), (5, 2)]:
        bare = classify_projective(db, hp11(db, k1), hp11(db, k2))
        for r1 in (0, 1, 7):
            for r2 in (0, 11):
                withres = classify_projective(
                    db,
                    hp11(db, k1, res_group.element((r1,))),
                    hp11(db, k2, res_group.element((r2,))))
                assert withres.triple == bare.triple
                assert withres.case_id == bare.case_id
                if r1 or r2:
                    assert "residue present, numbers unaffected" in withres.notes


def test_residue_requires_db_entry(db):
    # complex m = 2: residues live in pi_1(S^1) = Z, which is shipped
    g = db.get_group(S(5), 2)
    res = db.get_group(S(1), 1)
    f1 = ProjectiveClass("C", 2, 2, g.zero(), res.element((5,)))
    f2 = ProjectiveClass("C", 2, 2, g.zero())
    ans = classify_projective(db, f1, f2)
    assert ans.case_id == 1 and ans.triple == (0, 0, 0)
    assert "residue present, numbers unaffected" in ans.notes


def test_real_residue_must_be_trivial(db):
    lift = db.get_group(S(6), 11).element((1,))
    for residue in (db.get_group(S(1), 1).element((1,)),
                    FgAbGroup(0, ()).zero()):
        with pytest.raises(ClassificationError, match="drop the residue"):
            ProjectiveClass("R", 11, 6, lift, residue)


# ---------------------------------------------------------------------------
# classification-wide properties

def _sample_pairs(rng, count):
    return [(rng.randint(-20, 20), rng.randint(-20, 20)) for _ in range(count)]


def test_exactly_one_condition_fires(db):
    rng = random.Random(1)
    slices = [rp11, rp6, cp5, hp11]
    for make in slices:
        for k1, k2 in _sample_pairs(rng, 400):
            conditions = table_conditions(db, make(db, k1), make(db, k2))
            assert sum(conditions) == 1, (make.__name__, k1, k2, conditions)


def test_e_and_the_im_e_solve_run_only_where_an_answer_reads_them(
        monkeypatch):
    """E∂[f~] is applied only for a free-homotopic pair (or a self-pair)
    with ∂[f~] != 0, and im E is solved only for unequal lifts."""
    db = load_default()
    applied, solves = [], []
    real_apply, real_contains = Homomorphism._apply, classifier._image_contains

    def apply(h, coords):
        applied.append(h)
        return real_apply(h, coords)

    def contains(h, coords):
        solves.append(h)
        return real_contains(h, coords)

    monkeypatch.setattr(Homomorphism, "_apply", apply)
    monkeypatch.setattr(classifier, "_image_contains", contains)

    def work(m, query):     # (E applications, im E solves) of one query
        e = ProjectiveSlice.resolve(db, "R", m, 6, ()).suspension.hom
        applied.clear()
        solves.clear()
        answer = query()
        return answer, sum(h is e for h in applied), len(solves)

    answer, es, solved = work(11, lambda: classify_projective(
        db, rp11(db, 1), rp11(db, 1)))
    assert (answer.case_id, es, solved) == (2, 1, 0)
    answer, es, solved = work(6, lambda: classify_projective(
        db, rp6(db, 3), rp6(db, 1)))
    assert (answer.case_id, es, solved) == (4, 0, 1)
    verdict, es, solved = work(11, lambda: self_verdict(
        db, "R", 11, 6, db.get_group(S(6), 11).element((2,))))
    assert (verdict.small_deformation, es, solved) == (True, 0, 0)


def test_symmetry_of_triples(db):
    rng = random.Random(2)
    for make in [rp11, rp6, cp5, hp11]:
        for k1, k2 in _sample_pairs(rng, 150):
            a = classify_projective(db, make(db, k1), make(db, k2))
            b = classify_projective(db, make(db, k2), make(db, k1))
            assert a.triple == b.triple, (make.__name__, k1, k2)


def test_chain_and_reidemeister_bounds(db):
    rng = random.Random(3)
    for make, K, m in [(rp11, "R", 11), (rp6, "R", 6), (cp5, "C", 5),
                       (hp11, "H", 11)]:
        bound = reidemeister_count(K, m)
        for k1, k2 in _sample_pairs(rng, 150):
            a = classify_projective(db, make(db, k1), make(db, k2))
            assert 0 <= a.nielsen <= a.mcc
            assert a.mcc <= a.mc
            assert a.mcc <= bound
            assert a.mc <= bound or a.mc == INF


def test_norm_property(db):
    rng = random.Random(4)
    for make in [rp11, rp6, cp5, hp11]:
        for k1, k2 in _sample_pairs(rng, 150):
            a = classify_projective(db, make(db, k1), make(db, k2))
            assert a.omega_sharp_zero == (a.nielsen == 0)


# ---------------------------------------------------------------------------
# sphere targets

def test_sphere_antipodally_related(db):
    g = db.get_group(S(6), 11)
    ans = classify_sphere_target(db, 11, 6, g.element((1,)), g.element((1,)))
    assert ans.triple == (0, 0, 0)
    assert ans.loose is True


def test_sphere_distinct_classes(db):
    g = db.get_group(S(6), 11)
    ans = classify_sphere_target(db, 11, 6, g.element((1,)), g.element((0,)))
    assert ans.triple == (1, 1, 1)
    assert ans.omega_sharp_zero is False


def test_sphere_odd_dimension_negation(db):
    g = db.get_group(S(11), 11)
    # antipodal action is the identity on an odd sphere, so degree k vs -k
    # is essential
    ans = classify_sphere_target(db, 11, 11, g.element((2,)), g.element((-2,)))
    assert ans.triple == (1, 1, 1)
    ans = classify_sphere_target(db, 11, 11, g.element((2,)), g.element((2,)))
    assert ans.triple == (0, 0, 0)


def test_circle_degree_formula(db):
    g = db.get_group(S(1), 1)
    ans = classify_sphere_target(db, 1, 1, g.element((3,)), g.element((1,)))
    assert ans.triple == (2, 2, 2)
    ans = classify_sphere_target(db, 1, 1, g.element((5,)), g.element((5,)))
    assert ans.triple == (0, 0, 0)


def test_sphere_trivial_group_to_circle_target(db):
    import nielsencalc.homotopy_db as hdb
    slim = hdb.loads("nielsendb v1\n"
                     'group S(1) 5 = 0 [] gens - src "pi_5(S^1) = 0"\n')
    g = slim.get_group(S(1), 5)
    ans = classify_sphere_target(slim, 5, 1, g.zero(), g.zero())
    assert ans.triple == (0, 0, 0)


def test_sphere_database_claiming_nontrivial_higher_circle_group():
    import nielsencalc.homotopy_db as hdb
    slim = hdb.loads(
        "nielsendb v1\n"
        'group S(1) 5 = 1 [] gens x src "wrong: pi_5(S^1) = 0"\n'
        'hom antipodal_A S(1),5 -> S(1),5 matrix [[1]] src "identity"\n')
    g = slim.get_group(S(1), 5)
    with pytest.raises(ClassificationError, match=r"pi_5\(S\(1\)\) = Z"):
        classify_sphere_target(slim, 5, 1, g.element((1,)), g.element((0,)))


@pytest.mark.parametrize("m,n,group,claimed", [(1, 3, "1 []", "Z"),
                                               (4, 6, "0 [2]", "Z_2")])
def test_sphere_database_claiming_a_group_below_connectivity(m, n, group,
                                                             claimed):
    import nielsencalc.homotopy_db as hdb
    slim = hdb.loads(
        "nielsendb v1\n"
        f'group S({n}) {m} = {group} gens x src "wrong: pi_m(S^n) = 0, m < n"\n'
        f'hom antipodal_A S({n}),{m} -> S({n}),{m} matrix [[1]] src "identity"\n')
    g = slim.get_group(S(n), m)
    with pytest.raises(InconsistentDataError,
                       match=rf"pi_{m}\(S\({n}\)\) = {claimed}, but"):
        classify_sphere_target(slim, m, n, g.element((1,)), g.element((0,)))


def test_sphere_insufficient_antipodal_data(db):
    import nielsencalc.homotopy_db as hdb
    slim = hdb.loads("nielsendb v1\n"
                     'group S(2) 2 = 1 [] gens i src "degree"\n')
    g = slim.get_group(S(2), 2)
    with pytest.raises(InsufficientDataError, match="antipodal_A"):
        classify_sphere_target(slim, 2, 2, g.element((1,)), g.element((1,)))


# ---------------------------------------------------------------------------
# space forms

def test_space_form_odd(db):
    ans = classify_space_form(SpaceFormQuery(5, 3, homotopic=False))
    assert (ans.nielsen, ans.mcc) == (5, 5)
    ans = classify_space_form(SpaceFormQuery(5, 3, homotopic=True))
    assert (ans.nielsen, ans.mcc, ans.mc) == (0, 0, 0)


def test_space_form_even_forced_by_contradiction():
    ans = classify_space_form(SpaceFormQuery(2, 2, homotopic=False))
    assert (ans.nielsen, ans.mcc) == (2, 2)
    assert any("contradicting" in note for note in ans.notes)


def test_space_form_even_homotopic_indeterminate():
    ans = classify_space_form(SpaceFormQuery(2, 2, homotopic=True))
    assert ans.nielsen is None and ans.mcc is None
    assert any("indeterminate" in note for note in ans.notes)


def test_space_form_constraints():
    with pytest.raises(ClassificationError):
        SpaceFormQuery(1, 3, homotopic=False)
    with pytest.raises(ClassificationError):
        SpaceFormQuery(5, 2, homotopic=False)  # order 5 on an even sphere
    with pytest.raises(ClassificationError, match="homotopic"):
        SpaceFormQuery(5, 3, "false")          # a truthy string
    with pytest.raises(ClassificationError, match="n must be an integer"):
        SpaceFormQuery(5, 3.0, False)


# ---------------------------------------------------------------------------
# Reidemeister counts

def test_reidemeister_counts():
    assert reidemeister_count("R", 11) == 2
    assert reidemeister_count("C", 5) == 1
    assert reidemeister_count("H", 11) == 1
    with pytest.raises(ClassificationError):
        reidemeister_count("R", 1)


def test_answer_invariant_checked():
    with pytest.raises(ClassificationError):
        CoincidenceAnswer("x", "cond", nielsen=2, mcc=1, mc=3)


def test_inconsistent_database_refused_not_fabricated():
    # A deliberately wrong antipodal action (identity on pi_6(S^6), where
    # it must negate degree) leaves some pairs matching no condition; the
    # classifier must refuse instead of inventing an answer.
    import nielsencalc.homotopy_db as hdb
    bogus = hdb.loads(
        "nielsendb v1\n"
        'group S(6) 6 = 1 [] gens i src "degree"\n'
        'group S(5) 5 = 1 [] gens j src "degree"\n'
        'hom boundary_K S(6),6 -> S(5),5 matrix [[2]] src "chi"\n'
        'hom suspension_E S(5),5 -> S(6),6 matrix [[1]] src "iso"\n'
        'hom antipodal_A S(6),6 -> S(6),6 matrix [[1]] src "wrong on purpose"\n')
    g = bogus.get_group(S(6), 6)
    f = ProjectiveClass("R", 6, 6, g.element((1,)))
    with pytest.raises(ClassificationError, match="no case condition fired"):
        classify_projective(bogus, f, f)
    with pytest.raises(InconsistentDataError, match=r"antipodal_A:S\(6\),6->S\(6\),6"):
        classify_projective(bogus, f, f)


def test_overlapping_conditions_refused():
    # a zero boundary with A = -1 puts an equal pair into cases 1 and 3
    import nielsencalc.homotopy_db as hdb
    bogus = hdb.loads(
        "nielsendb v1\n"
        'group S(6) 6 = 1 [] gens i src "degree"\n'
        'group S(5) 5 = 1 [] gens j src "degree"\n'
        'hom boundary_K S(6),6 -> S(5),5 matrix [[0]] src "wrong on purpose"\n'
        'hom suspension_E S(5),5 -> S(6),6 matrix [[1]] src "iso"\n'
        'hom antipodal_A S(6),6 -> S(6),6 matrix [[-1]] src "degree -1"\n')
    f = ProjectiveClass("R", 6, 6, bogus.get_group(S(6), 6).element((1,)))
    assert table_conditions(bogus, f, f) == (True, False, True, False, False,
                                             False, False)
    with pytest.raises(InconsistentDataError, match=r"conditions \[1, 3\] fired"):
        classify_projective(bogus, f, f)


def test_exclusivity_check_has_no_switch(db):
    with pytest.raises(TypeError):
        classify_projective(db, rp11(db, 1), rp11(db, 1), check_exclusive=True)
