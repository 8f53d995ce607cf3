"""Acceptance suite: one test per acceptance criterion, exact tolerances.

Each test prints a PASS/FAIL line for its criterion, so running

    pytest tests/test_acceptance.py -v -s

gives a one-line verdict per criterion.  All checks are exact-value or
property-based; the only tolerances are the stated runtime budgets.
"""

import random
import time

import pytest

from nielsencalc import homotopy_db
from nielsencalc.classifier import (
    INF,
    ProjectiveClass,
    SpaceFormQuery,
    classify_projective,
    classify_space_form,
    classify_sphere_target,
    reidemeister_count,
    table_conditions,
)
from nielsencalc.fgab import exact_at, in_image, kernel
from nielsencalc.homotopy_db import SpaceId, load_default, loads, validate
from nielsencalc.selfcoincidence import self_verdict

from oracles import (
    all_finite_groups,
    brute_image,
    brute_kernel,
    random_well_defined_hom,
    span_closure,
)

S = SpaceId.sphere


def _report(name):
    """Print the criterion verdict; FAIL is printed before the assertion
    error propagates to pytest."""
    class Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            print(f"\n{'FAIL' if exc_type else 'PASS'}: {name}")
            return False
    return Reporter()


@pytest.fixture(scope="module")
def db():
    return load_default()


def _slices(db):
    """The four classification slices shipped with the database: field,
    m, n', and the lift group."""
    return [
        ("R", 11, 6, db.get_group(S(6), 11)),
        ("R", 6, 6, db.get_group(S(6), 6)),
        ("C", 5, 2, db.get_group(S(5), 5)),
        ("H", 11, 2, db.get_group(S(11), 11)),
    ]


def _cls(K, m, nprime, group, k):
    return ProjectiveClass(K, m, nprime, group.element((k,)))


# ---------------------------------------------------------------------------
# criterion 1: seven-row reproduction, exact triples, < 1 s

def test_table_reproduction(db):
    with _report("table reproduction: all seven rows, exact number cells"):
        g11 = db.get_group(S(6), 11)
        g6 = db.get_group(S(6), 6)
        g5 = db.get_group(S(5), 5)
        gh = db.get_group(S(11), 11)
        # (row, slice args, lift1, lift2, expected triple); rows 1, 2, 5 run
        # over the real m=11, n'=6 slice, rows 3 and 4 over the real degree
        # slice (the antipodal action fixes every class of the m=11 slice,
        # so row 3 is empty there, and row 4 needs a nonzero suspension
        # image), rows 6 and 7 over the complex and quaternionic slices.
        fixtures = [
            (1, ("R", 11, 6, g11), 2, 2, (0, 0, 0)),
            (2, ("R", 11, 6, g11), 1, 1, (0, 1, 1)),
            (3, ("R", 6, 6, g6), 1, 1, (1, 1, 1)),
            (3, ("R", 6, 6, g6), 1, -1, (1, 1, 1)),
            (4, ("R", 6, 6, g6), 3, 1, (2, 2, 2)),
            (5, ("R", 11, 6, g11), 1, 0, (2, 2, INF)),
            (6, ("C", 5, 2, g5), 1, 1, (1, 1, 1)),
            (6, ("H", 11, 2, gh), 3, 3, (1, 1, 1)),
            (7, ("C", 5, 2, g5), 1, 0, (1, 1, INF)),
            (7, ("H", 11, 2, gh), 1, 2, (1, 1, INF)),
        ]
        started = time.monotonic()
        for row, (K, m, nprime, group), k1, k2, expected in fixtures:
            ans = classify_projective(db, _cls(K, m, nprime, group, k1),
                                      _cls(K, m, nprime, group, k2))
            assert ans.case_id == row, (row, k1, k2, ans.case_id)
            assert ans.triple == expected, (row, ans.triple, expected)
        elapsed = time.monotonic() - started
        assert elapsed < 1.0, f"table suite took {elapsed:.3f}s (budget 1s)"


# ---------------------------------------------------------------------------
# criterion 2: walkthrough over k*generator, k = 0..8

def test_generator_multiples_walkthrough(db):
    with _report("walkthrough: k*g for k=0..8 splits by parity with gap flag"):
        g11 = db.get_group(S(6), 11)
        for k in range(9):
            f = _cls("R", 11, 6, g11, k)
            ans = classify_projective(db, f, f)
            verdict = self_verdict(db, "R", 11, 6, g11.element((k,)))
            if k % 2 == 0:
                assert ans.case_id == 1
                assert ans.triple == (0, 0, 0)
                assert verdict.gap_witness is False
            else:
                assert ans.case_id == 2
                assert ans.triple == (0, 1, 1)
                assert verdict.gap_witness is True
                assert verdict.omega_sharp_zero and not verdict.loose


# ---------------------------------------------------------------------------
# criterion 3: exactly one of the seven conditions fires

def test_exclusivity_property(db):
    with _report("exclusivity: exactly one condition fires on every pair"):
        rng = random.Random(20260809)
        violations = 0
        for K, m, nprime, group in _slices(db):
            for _ in range(10_000):
                k1 = rng.randint(-20, 20)
                k2 = rng.randint(-20, 20)
                fired = sum(table_conditions(db, _cls(K, m, nprime, group, k1),
                                             _cls(K, m, nprime, group, k2)))
                if fired != 1:
                    violations += 1
        # the degenerate complex slice has a finite (trivial) lift group:
        # exhaust it
        trivial = db.get_group(S(5), 2)
        for x in trivial.elements():
            for y in trivial.elements():
                f1 = ProjectiveClass("C", 2, 2, x)
                f2 = ProjectiveClass("C", 2, 2, y)
                if sum(table_conditions(db, f1, f2)) != 1:
                    violations += 1
        assert violations == 0


# ---------------------------------------------------------------------------
# criteria 4 and 5: chain invariants and the norm property

def _sampled_answers(db, seed, per_slice):
    rng = random.Random(seed)
    answers = []
    for K, m, nprime, group in _slices(db):
        for _ in range(per_slice):
            k1 = rng.randint(-20, 20)
            k2 = rng.randint(-20, 20)
            answers.append(
                (K, m,
                 classify_projective(db, _cls(K, m, nprime, group, k1),
                                     _cls(K, m, nprime, group, k2))))
    return answers


def test_chain_and_cardinality_invariants(db):
    with _report("invariants: N# <= MCC <= MC and Reidemeister bounds"):
        violations = 0
        for K, m, ans in _sampled_answers(db, 7, 2500):
            bound = reidemeister_count(K, m)
            if not (0 <= ans.nielsen <= ans.mcc <= ans.mc):
                violations += 1
            if not ans.mcc <= bound:
                violations += 1
            if not (ans.mc <= bound or ans.mc == INF):
                violations += 1
        # sphere-target and space-form outputs obey the same chain
        g = db.get_group(S(6), 11)
        for k1, k2 in [(0, 0), (1, 0), (1, 1), (3, 1)]:
            ans = classify_sphere_target(db, 11, 6, g.element((k1,)),
                                         g.element((k2,)))
            if not (0 <= ans.nielsen <= ans.mcc <= ans.mc):
                violations += 1
        for order, n, homotopic in [(5, 3, False), (5, 3, True), (2, 2, False)]:
            ans = classify_space_form(SpaceFormQuery(order, n, homotopic))
            if ans.nielsen is not None and ans.mcc is not None:
                if not ans.nielsen <= ans.mcc:
                    violations += 1
        assert violations == 0


def test_norm_property(db):
    with _report("norm property: omega# vanishes exactly when N# = 0"):
        violations = 0
        for _, _, ans in _sampled_answers(db, 11, 2500):
            if ans.omega_sharp_zero != (ans.nielsen == 0):
                violations += 1
        assert violations == 0


# ---------------------------------------------------------------------------
# criterion 6: six-way equivalence for the real fixtures

def test_six_way_equivalence(db):
    with _report("six-way equivalence on every real fixture lift"):
        violations = 0
        for m, nprime, sphere in [(11, 6, S(6)), (6, 6, S(6))]:
            group = db.get_group(sphere, m)
            boundary = db.get_hom("boundary_K", (sphere, m),
                                  (S(sphere.index - 1), m - 1))
            susp = db.get_hom("suspension_E", (S(sphere.index - 1), m - 1),
                              (sphere, m))
            for k in range(-20, 21):
                lift = group.element((k,))
                v = self_verdict(db, "R", m, nprime, lift)
                f = ProjectiveClass("R", m, nprime, lift)
                proj = classify_projective(db, f, f)
                sph = classify_sphere_target(db, m, sphere.index, lift, lift)
                b = boundary(lift)
                conditions = [
                    v.omega_sharp_zero and not v.loose,
                    (not b.is_zero) and susp(b).is_zero,
                    v.lifted_pair_loose and not v.loose,
                    sph.mc < proj.mc,
                    sph.mcc < proj.mcc,
                    v.lifted_pair_loose and not b.is_zero,
                ]
                if len(set(conditions)) != 1 or conditions[0] != v.gap_witness:
                    violations += 1
        assert violations == 0


# ---------------------------------------------------------------------------
# criterion 7: exact arithmetic agrees with exhaustive enumeration, < 30 s

def test_fgab_oracle_equivalence():
    with _report("group arithmetic vs exhaustive enumeration "
                 "(order <= 200, 1000 random maps)"):
        started = time.monotonic()
        rng = random.Random(424242)
        groups = all_finite_groups(200, 3)
        assert all(g.order() <= 200 and len(g.torsion) <= 3 for g in groups)
        # 500 composable pairs = 1000 homomorphisms; the first pass walks
        # every group of the family through the outer positions, the rest
        # are uniform
        triples = []
        walk = groups + groups[:2 * 500 - len(groups)]
        for i in range(500):
            a = walk[(2 * i) % len(walk)]
            c = walk[(2 * i + 1) % len(walk)]
            b = rng.choice(groups)
            triples.append((a, b, c))
        mismatches = 0
        for a, b, c in triples:
            left = random_well_defined_hom(rng, a, b)
            right = random_well_defined_hom(rng, b, c)
            for hom in (left, right):
                if span_closure(kernel(hom)) != brute_kernel(hom):
                    mismatches += 1
                image = brute_image(hom)
                for y in hom.target.elements():
                    found, witness = in_image(hom, y)
                    if found != (y in image):
                        mismatches += 1
                    elif found and hom(witness) != y:
                        mismatches += 1
            if exact_at(left, right) != (brute_image(left) == brute_kernel(right)):
                mismatches += 1
        elapsed = time.monotonic() - started
        assert mismatches == 0
        assert elapsed < 30.0, f"oracle sweep took {elapsed:.1f}s (budget 30s)"


# ---------------------------------------------------------------------------
# criterion 8: circle oracle

def _circle_crossings(delta: int, samples: int) -> int:
    """Count solutions of z^delta = 1 on the circle by locating the
    sample intervals [k/N, (k+1)/N) in which delta*t passes an integer;
    exact integer arithmetic throughout."""
    count = 0
    d = abs(delta)
    for k in range(samples):
        if (d * (k + 1)) // samples != (d * k) // samples:
            count += 1
    return count


def test_circle_oracle(db):
    with _report("circle oracle: degree pairs |d| <= 10 match brute force"):
        group = db.get_group(S(1), 1)
        samples = 10 ** 5
        # the coincidence count only depends on the degree difference;
        # discretize each difference once, then verify algebraically
        brute = {}
        for delta in range(0, 21):
            crossings = _circle_crossings(delta, samples)
            algebraic = delta  # z^delta = 1 has exactly |delta| circle roots
            assert crossings == algebraic, (delta, crossings)
            brute[delta] = crossings
        for d1 in range(-10, 11):
            for d2 in range(-10, 11):
                expected = brute[abs(d1 - d2)] if d1 != d2 else 0
                ans = classify_sphere_target(db, 1, 1, group.element((d1,)),
                                             group.element((d2,)))
                assert ans.triple == (expected, expected, expected), (d1, d2)


# ---------------------------------------------------------------------------
# criterion 9: database validation and the three corrupted variants

def test_database_validation(db):
    with _report("database validation: shipped file clean, corruptions named"):
        assert validate(db) == []

        base = homotopy_db.default_db_text()

        # broken divisibility chain
        broken = base.replace("group S(7) 10 = 0 [24] gens nu7",
                              "group S(7) 10 = 0 [4,2] gens nu7,extra")
        with pytest.raises(homotopy_db.DatabaseError) as err:
            loads(broken)
        assert any(v.kind == "group_invariant" and v.subject == "pi_10(S(7))"
                   for v in err.value.violations)

        # nonzero suspension where the file asserts it vanishes
        nonzero = base.replace("group S(6) 11 = 1 [] gens halfHopf",
                               "group S(6) 11 = 0 [2] gens halfHopf")
        nonzero = nonzero.replace(
            "hom suspension_E S(5),10 -> S(6),11 matrix [[0]]",
            "hom suspension_E S(5),10 -> S(6),11 matrix [[1]]")
        with pytest.raises(homotopy_db.DatabaseError) as err:
            loads(nonzero)
        assert len(err.value.violations) == 1
        v = err.value.violations[0]
        assert v.kind == "assert_zero"
        assert "suspension_E:S(5),10->S(6),11" in v.subject

        # dangling reference
        dangling = base.replace(
            'group S(5) 10 = 0 [2] gens u src "Toda (1962): pi_10(S^5) = Z_2"\n',
            "")
        with pytest.raises(homotopy_db.DatabaseError) as err:
            loads(dangling)
        assert any(v.kind == "dangling_ref" and "pi_10(S(5))" in v.message
                   for v in err.value.violations)
