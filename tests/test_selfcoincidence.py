import pytest

from nielsencalc.classifier import ClassificationError, classify_projective, \
    classify_sphere_target, ProjectiveClass
from nielsencalc.fgab import FgAbGroup
from nielsencalc.homotopy_db import SpaceId, load_default
from nielsencalc.selfcoincidence import (
    LoosenessVerdict,
    criteria_equivalence_iii,
    criteria_equivalence_iii_prime,
    self_verdict,
)

from oracles import identity_hom, zero_hom

S = SpaceId.sphere
Z = FgAbGroup(1, ())
Z2 = FgAbGroup(0, (2,))


@pytest.fixture(scope="module")
def db():
    return load_default()


# ---------------------------------------------------------------------------
# verdicts

def test_generator_is_omega_blind(db):
    g = db.get_group(S(6), 11)
    v = self_verdict(db, "R", 11, 6, g.element((1,)))
    assert v.small_deformation is False
    assert v.loose is False
    assert v.coincidence_producing is True
    assert v.omega_sharp_zero is True
    assert v.lifted_pair_loose is True
    assert v.gap_witness is True


def test_null_class_is_totally_loose(db):
    g = db.get_group(S(6), 11)
    v = self_verdict(db, "R", 11, 6, g.element((0,)))
    assert v.small_deformation and v.loose and v.omega_sharp_zero
    assert not v.gap_witness


def test_even_multiple_loose_by_small_deformation(db):
    g = db.get_group(S(6), 11)
    v = self_verdict(db, "R", 11, 6, g.element((2,)))
    assert v.small_deformation is True
    assert v.gap_witness is False


def test_degree_slice_has_no_gap(db):
    g = db.get_group(S(6), 6)
    for k in range(-20, 21):
        v = self_verdict(db, "R", 6, 6, g.element((k,)))
        assert v.small_deformation == (k == 0)
        assert v.omega_sharp_zero == (k == 0)
        assert v.gap_witness is False


def test_quaternionic_lifted_pair_always_loose(db):
    g = db.get_group(S(11), 11)
    for k in (0, 1, 4, 8):
        v = self_verdict(db, "H", 11, 2, g.element((k,)))
        assert v.lifted_pair_loose is True
        assert v.small_deformation == (k % 8 == 0)
        assert v.gap_witness is False


def test_implication_chain_everywhere(db):
    cases = [("R", 11, 6, S(6)), ("R", 6, 6, S(6)), ("C", 5, 2, S(5)),
             ("H", 11, 2, S(11))]
    for K, m, nprime, sphere in cases:
        g = db.get_group(sphere, m)
        for k in range(-20, 21):
            v = self_verdict(db, K, m, nprime, g.element((k,)))
            if v.small_deformation:
                assert v.loose
            if v.loose:
                assert v.omega_sharp_zero
                assert not v.coincidence_producing


def test_verdict_invariants_enforced():
    with pytest.raises(ClassificationError):
        LoosenessVerdict("R", 11, 6, small_deformation=True,
                         omega_sharp_zero=False)


def test_verdict_preconditions(db):
    g = db.get_group(S(6), 11)
    with pytest.raises(ClassificationError):
        self_verdict(db, "R", 1, 6, g.element((1,)))
    with pytest.raises(ClassificationError):
        # element of pi_10(S^5) is not a valid lift in pi_11(S^6)
        self_verdict(db, "R", 11, 6, db.get_group(S(5), 10).element((1,)))


# ---------------------------------------------------------------------------
# agreement with the pair classifier

def test_omega_flag_matches_classifier_cases(db):
    slices = [("R", 11, 6, S(6)), ("R", 6, 6, S(6)), ("C", 5, 2, S(5)),
              ("H", 11, 2, S(11))]
    for K, m, nprime, sphere in slices:
        g = db.get_group(sphere, m)
        for k in range(-15, 16):
            f = ProjectiveClass(K, m, nprime, g.element((k,)))
            ans = classify_projective(db, f, f)
            v = self_verdict(db, K, m, nprime, g.element((k,)))
            assert v.omega_sharp_zero == (ans.case_id in (1, 2))
            assert v.loose == (ans.case_id == 1)


def test_six_way_equivalence(db):
    # for every real lift, the six descriptions of the omega-blind gap
    # agree pointwise, each computed along its own route
    for m, nprime, sphere in [(11, 6, S(6)), (6, 6, S(6))]:
        g = db.get_group(sphere, m)
        boundary = db.get_hom("boundary_K", (sphere, m),
                              (S(sphere.index - 1), m - 1))
        susp = db.get_hom("suspension_E", (S(sphere.index - 1), m - 1),
                          (sphere, m))
        for k in range(-20, 21):
            lift = g.element((k,))
            v = self_verdict(db, "R", m, nprime, lift)
            f = ProjectiveClass("R", m, nprime, lift)
            proj = classify_projective(db, f, f)
            sph = classify_sphere_target(db, m, sphere.index, lift, lift)
            c1 = v.omega_sharp_zero and not v.loose
            c2 = (not boundary(lift).is_zero) and susp(boundary(lift)).is_zero
            c3 = v.lifted_pair_loose and not v.loose
            c4 = sph.mc < proj.mc
            c5 = sph.mcc < proj.mcc
            c6 = v.lifted_pair_loose and not boundary(lift).is_zero
            assert c1 == c2 == c3 == c4 == c5 == c6 == v.gap_witness, (m, k)


# ---------------------------------------------------------------------------
# structural criteria

def test_criterion_j_injective_alone_suffices():
    assert criteria_equivalence_iii(identity_hom(Z), zero_hom(Z, Z2))


def test_criterion_both_zero_fails():
    assert not criteria_equivalence_iii(zero_hom(Z2, Z2), zero_hom(Z2, Z2))


def test_criterion_projective_fixture(db):
    j = db.get_hom("j_star", (S(5), 10), (SpaceId("P", "R", 5), 10))
    incl = db.get_hom("fiber_incl", (S(5), 10), (SpaceId("V", "R", 6), 10))
    assert criteria_equivalence_iii(j, incl)


def test_criterion_prime_detects_gap_slice(db):
    susp = db.get_hom("suspension_E", (S(5), 10), (S(6), 11))
    incl = db.get_hom("fiber_incl", (S(5), 10), (SpaceId("V", "R", 6), 10))
    assert not criteria_equivalence_iii_prime(susp, incl)
    # and indeed gap witnesses exist in that slice
    g = db.get_group(S(6), 11)
    assert any(self_verdict(db, "R", 11, 6, g.element((k,))).gap_witness
               for k in range(4))


def test_criterion_prime_true_on_gapless_slices(db):
    fixtures = [
        ((S(5), 5), (S(6), 6), (SpaceId("V", "R", 6), 5), "R", 6, 6, S(6)),
        ((S(3), 4), (S(4), 5), (SpaceId("V", "C", 2), 4), "C", 5, 2, S(5)),
        ((S(7), 10), (S(8), 11), (SpaceId("V", "H", 2), 10), "H", 11, 2, S(11)),
    ]
    for src, tgt, incl_tgt, K, m, nprime, sphere in fixtures:
        susp = db.get_hom("suspension_E", src, tgt)
        incl = db.get_hom("fiber_incl", src, incl_tgt)
        assert criteria_equivalence_iii_prime(susp, incl)
        g = db.get_group(sphere, m)
        assert not any(self_verdict(db, K, m, nprime, g.element((k,))).gap_witness
                       for k in range(-20, 21))


def test_criterion_prime_trivial_source_vacuous():
    trivial = FgAbGroup(0, ())
    assert criteria_equivalence_iii_prime(zero_hom(trivial, Z),
                                          zero_hom(trivial, Z2))

