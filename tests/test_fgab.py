import random

import pytest

from nielsencalc.fgab import (
    FgAbGroup,
    Homomorphism,
    Subgroup,
    exact_at,
    in_image,
    is_surjective,
    kernel,
    paired_injective,
    smith_normal_form,
)
from nielsencalc import fgab
from nielsencalc.fgab import _image_contains

from oracles import (
    all_finite_groups,
    brute_image,
    brute_kernel,
    compose,
    det,
    divisibility_chain_holds,
    identity_hom,
    is_diagonal,
    mat_mul,
    random_well_defined_hom,
    reference_exact_at,
    span_closure,
    zero_hom,
)

Z = FgAbGroup(1, ())
Z2 = FgAbGroup(0, (2,))
Z4 = FgAbGroup(0, (4,))
Z6 = FgAbGroup(0, (6,))
TRIVIAL = FgAbGroup(0, ())


def _units(group):
    """The canonical generators of a group: its unit coordinate vectors."""
    return [group.element([int(i == j) for j in range(group.dim)])
            for i in range(group.dim)]


# ---------------------------------------------------------------------------
# group construction invariants

def test_divisibility_chain_enforced():
    FgAbGroup(0, (2, 4, 8))
    with pytest.raises(ValueError):
        FgAbGroup(0, (4, 2))
    with pytest.raises(ValueError):
        FgAbGroup(0, (1,))
    with pytest.raises(ValueError):
        FgAbGroup(0, (0,))
    with pytest.raises(ValueError):
        FgAbGroup(-1, ())


def test_trivial_group_shape():
    assert TRIVIAL.dim == 0
    assert TRIVIAL.order() == 1
    assert TRIVIAL.is_trivial
    assert list(TRIVIAL.elements()) == [TRIVIAL.zero()]


def test_element_canonical_form():
    g = FgAbGroup(1, (3, 9))
    x = g.element((5, 7, -1))
    assert x.coords == (5, 1, 8)
    assert g.element((5, 1, 8)) == x
    assert g.element((0, 3, 9)).is_zero


def test_from_presentation_normalizes():
    # Z^2 / <(2,0), (0,3)> = Z_2 + Z_3 = Z_6
    assert FgAbGroup.from_presentation(2, [(2, 0), (0, 3)]) == Z6
    # Z^2 / <(2,0), (0,4)> keeps two factors
    assert FgAbGroup.from_presentation(2, [(2, 0), (0, 4)]) == FgAbGroup(0, (2, 4))
    assert FgAbGroup.from_presentation(3, []) == FgAbGroup(3, ())


# ---------------------------------------------------------------------------
# smith normal form

def test_snf_zero_matrix():
    u, d, v = smith_normal_form([[0]])
    assert d == [[0]]
    assert u == [[1]] and v == [[1]]


def test_snf_hand_reduced_2x2():
    m = [[2, 4], [6, 8]]
    u, d, v = smith_normal_form(m)
    assert d == [[2, 0], [0, 4]]
    assert mat_mul(mat_mul(u, m), v) == d
    assert abs(det(u)) == 1 and abs(det(v)) == 1


def test_snf_identity():
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    _, d, _ = smith_normal_form(eye)
    assert d == eye


def test_snf_random_matrices():
    rng = random.Random(4711)
    for _ in range(300):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        u, d, v = smith_normal_form(m)
        assert mat_mul(mat_mul(u, m), v) == d
        assert is_diagonal(d)
        assert divisibility_chain_holds(d)
        assert all(d[i][i] >= 0 for i in range(min(rows, cols)))
        assert abs(det(u)) == 1
        assert abs(det(v)) == 1


def test_snf_rejects_ragged_input():
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2], [3]])


# ---------------------------------------------------------------------------
# eval / compose

def test_eval_zero_and_identity():
    h = zero_hom(Z6, Z)
    assert h(Z6.element((4,))).is_zero
    ident = identity_hom(Z4)
    assert ident(Z4.element((3,))) == Z4.element((3,))


def test_eval_even_multiple_dies_mod_2():
    h = Homomorphism(Z, Z2, [[1]])
    assert h(Z.element((6,))).is_zero
    assert h(Z.element((3,))) == Z2.element((1,))


def test_eval_parent_mismatch():
    h = identity_hom(Z4)
    with pytest.raises(ValueError):
        h(Z6.element((1,)))


def test_eval_additive():
    rng = random.Random(7)
    g = FgAbGroup(1, (4, 8))
    h = random_well_defined_hom(rng, g, FgAbGroup(1, (2, 6)))
    zero = g.zero()
    assert h(zero).is_zero
    for _ in range(50):
        x = g.element(tuple(rng.randint(-15, 15) for _ in range(g.dim)))
        y = g.element(tuple(rng.randint(-15, 15) for _ in range(g.dim)))
        assert h(x + y) == h(x) + h(y)


def test_compose_trivial_cases():
    h = Homomorphism(Z, Z2, [[1]])
    z = compose(zero_hom(Z2, Z6), h)
    assert z.is_zero_map()
    assert compose(identity_hom(Z2), h) == h


def test_compose_suspension_after_boundary_vanishes():
    # E: Z_2 -> Z is forced to be zero; the composite with the onto
    # boundary Z -> Z_2 is the zero endomorphism of Z.
    boundary = Homomorphism(Z, Z2, [[1]])
    susp = zero_hom(Z2, Z)
    assert compose(susp, boundary) == zero_hom(Z, Z)


def test_compose_shape_mismatch():
    with pytest.raises(ValueError):
        compose(Homomorphism(Z, Z2, [[1]]), Homomorphism(Z, Z4, [[1]]))


def test_compose_associative():
    rng = random.Random(99)
    groups = [FgAbGroup(0, (4,)), FgAbGroup(0, (2, 4)), FgAbGroup(1, (3,)),
              FgAbGroup(0, (12,))]
    for _ in range(40):
        a, b, c, d = (rng.choice(groups) for _ in range(4))
        f = random_well_defined_hom(rng, a, b)
        g = random_well_defined_hom(rng, b, c)
        h = random_well_defined_hom(rng, c, d)
        assert compose(h, compose(g, f)) == compose(compose(h, g), f)


# ---------------------------------------------------------------------------
# kernel / image / membership

def test_kernel_zero_map_is_everything():
    h = zero_hom(Z6, Z)
    ker = kernel(h)
    assert span_closure(ker) == set(Z6.elements())
    assert ker.isomorphism_type() == Z6


def test_kernel_injective_multiplication():
    h = Homomorphism(Z, Z, [[2]])
    assert not kernel(h).generators


def test_kernel_of_projection_is_even_integers():
    h = Homomorphism(Z, Z2, [[1]])
    ker = kernel(h)
    assert ker.isomorphism_type() == Z
    assert ker.generators == (Z.element((2,)),)


def test_in_image_basics():
    h = Homomorphism(Z, Z, [[2]])
    found, witness = in_image(h, Z.element((0,)))
    assert found and witness.is_zero
    found, _ = in_image(h, Z.element((3,)))
    assert not found
    found, witness = in_image(h, Z.element((10,)))
    assert found and h(witness) == Z.element((10,))


def test_in_image_torsion_witness():
    h = Homomorphism(Z2, Z4, [[2]])
    found, witness = in_image(h, Z4.element((2,)))
    assert found
    assert witness == Z2.element((1,))
    assert h(witness) == Z4.element((2,))
    found, _ = in_image(h, Z4.element((1,)))
    assert not found


def test_in_image_parent_mismatch():
    h = Homomorphism(Z2, Z4, [[2]])
    with pytest.raises(ValueError):
        in_image(h, Z2.element((1,)))


def test_subgroup_examples():
    # Z_4 + Z_9 normalizes to Z_36; the generators (2,0) and (0,3) become
    # 18 and 12 under the CRT identification, and (1,0) becomes 9.
    amb = FgAbGroup.from_presentation(2, [(4, 0), (0, 9)])
    assert amb == FgAbGroup(0, (36,))
    s = Subgroup(amb, [amb.element((18,)), amb.element((12,))])
    assert span_closure(s) == {x for x in amb.elements() if x.coords[0] % 6 == 0}
    assert s.isomorphism_type().order() == 6


def test_kernel_builds_no_homomorphism(monkeypatch):
    built = []
    init = Homomorphism.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    h = Homomorphism(FgAbGroup(1, (2, 4)), FgAbGroup(1, (8,)),
                     [[2, 0, 0], [1, 4, 2]])
    kernel(h)                                   # the SNF of h is cached
    monkeypatch.setattr(Homomorphism, "__init__", counting)
    k = kernel(h)
    assert built == [] and k.generators


def test_empty_subgroup_is_trivial():
    s = Subgroup(Z4, [])
    assert s.isomorphism_type() == TRIVIAL


# ---------------------------------------------------------------------------
# injectivity

def test_injective_maps_have_no_kernel_generators():
    assert not kernel(identity_hom(Z4)).generators
    assert kernel(zero_hom(Z4, Z4)).generators
    assert not kernel(zero_hom(TRIVIAL, Z4)).generators


def test_is_surjective_examples():
    assert is_surjective(identity_hom(Z))
    assert is_surjective(Homomorphism(Z, Z, [[-1]]))
    assert not is_surjective(Homomorphism(Z, Z, [[2]]))
    assert is_surjective(Homomorphism(FgAbGroup(2, ()), Z, [[2, 3]]))
    assert not is_surjective(Homomorphism(Z, FgAbGroup(1, (2,)), [[1], [1]]))
    assert is_surjective(identity_hom(FgAbGroup(1, (2,))))
    assert is_surjective(zero_hom(Z, TRIVIAL))
    assert not is_surjective(zero_hom(TRIVIAL, Z2))


def test_paired_injective_second_factor_suffices():
    h1 = zero_hom(Z2, Z)
    h2 = identity_hom(Z2)
    assert paired_injective(h1, h2)


def test_paired_injective_failure():
    h1 = zero_hom(Z2, Z)
    h2 = zero_hom(Z2, Z2)
    assert not paired_injective(h1, h2)


def test_paired_injective_needs_common_kernel_vector():
    # ker h1 = <(0,1)>, ker h2 = <(1,0)>: intersection trivial although
    # neither map is injective on its own.
    g = FgAbGroup(0, (2, 2))
    h1 = Homomorphism(g, Z2, [[1, 0]])
    h2 = Homomorphism(g, Z2, [[0, 1]])
    assert kernel(h1).generators and kernel(h2).generators
    assert paired_injective(h1, h2)


def test_paired_injective_shape_mismatch():
    with pytest.raises(ValueError):
        paired_injective(identity_hom(Z2), identity_hom(Z4))


def test_paired_injective_runs_one_snf_and_builds_no_homomorphism(monkeypatch):
    src = FgAbGroup(1, (2, 4))
    h1 = Homomorphism(src, FgAbGroup(1, (4,)), [[0, 0, 0], [0, 2, 1]])
    h2 = Homomorphism(src, FgAbGroup(1, (2,)), [[3, 0, 0], [0, 0, 1]])
    snfs, built = [], []
    real_snf, init = fgab._snf, Homomorphism.__init__

    def snf(*args, **kwargs):
        snfs.append(args)
        return real_snf(*args, **kwargs)

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(fgab, "_snf", snf)
    monkeypatch.setattr(Homomorphism, "__init__", counting)
    # (0, 1, 2) is in both kernels
    assert not paired_injective(h1, h2)
    assert (len(snfs), built) == (1, [])


def test_paired_injective_against_enumeration():
    rng = random.Random(64)
    groups = all_finite_groups(64, 3)
    seen = set()
    for _ in range(300):
        src = rng.choice(groups)
        # targets with free rows: the second target's relation columns
        # follow rows of the first that have none
        h1, h2 = (random_well_defined_hom(
            rng, src, FgAbGroup(rng.randint(0, 2), rng.choice(groups).torsion))
            for _ in range(2))
        injective = brute_kernel(h1) == {src.zero()}
        expected = brute_kernel(h1) & brute_kernel(h2) == {src.zero()}
        assert (not kernel(h1).generators) == injective
        assert paired_injective(h1, h2) == expected
        seen.add((injective and src.order() > 1, expected))
    assert seen == {(True, True), (False, True), (False, False)}


# ---------------------------------------------------------------------------
# exactness

def test_exact_at_inclusion_of_zero():
    left = zero_hom(TRIVIAL, Z6)
    right = identity_hom(Z6)
    assert exact_at(left, right)


def test_exact_at_mod_two_sequence():
    times2 = Homomorphism(Z, Z, [[2]])
    proj = Homomorphism(Z, Z2, [[1]])
    assert exact_at(times2, proj)
    times4 = Homomorphism(Z, Z, [[4]])
    assert not exact_at(times4, proj)


def test_exact_at_negative_control():
    # 0 -> Z -> Z_2 is exact at Z only if the projection were injective.
    left = zero_hom(TRIVIAL, Z)
    right = Homomorphism(Z, Z2, [[1]])
    assert not exact_at(left, right)


# exact_at sums, for each row of the right map, the rows of the left map
# that the row picks, and reads the sum mod d on a torsion row d

def test_exact_at_composite_that_is_a_multiple_of_the_torsion_factors():
    # Z --2--> Z --(1,2)--> Z_2 x Z_4: the composite rows sum to 2 and 4,
    # zero mod 2 and mod 4 but not as integers, and im = 2Z = ker
    left = Homomorphism(Z, Z, [[2]])
    right = Homomorphism(Z, FgAbGroup(0, (2, 4)), [[1], [2]])
    assert exact_at(left, right) and reference_exact_at(left, right)
    # Z --2--> Z --3--> Z_6: a sum of 6, zero mod 6, and im = 2Z = ker
    left, right = Homomorphism(Z, Z, [[2]]), Homomorphism(Z, Z6, [[3]])
    assert exact_at(left, right) and reference_exact_at(left, right)


def test_exact_at_composite_nonzero_on_one_torsion_row_only():
    # Z --(1,0)--> Z_2 x Z_2 --(0,0 / 1,0)--> Z x Z_2: the free row of the
    # composite is zero and the torsion row is 1.  coker(left) = Z_2 is
    # the type of im(right), so only the composite tells this pair apart.
    middle = FgAbGroup(0, (2, 2))
    left = Homomorphism(Z, middle, [[1], [0]])
    right = Homomorphism(middle, FgAbGroup(1, (2,)), [[0, 0], [1, 0]])
    assert compose(right, left).matrix == ((0,), (1,))
    assert not exact_at(left, right)
    assert not reference_exact_at(left, right)


@pytest.mark.parametrize("left,right,expected", [
    # a zero-dimensional left source: exact where right is injective
    (zero_hom(TRIVIAL, FgAbGroup(1, (2,))), identity_hom(FgAbGroup(1, (2,))), True),
    (zero_hom(TRIVIAL, Z), Homomorphism(Z, Z, [[3]]), True),
    (zero_hom(TRIVIAL, Z4), Homomorphism(Z4, Z2, [[1]]), False),
    # a zero-dimensional right target: exact where left is onto
    (Homomorphism(Z, Z2, [[1]]), zero_hom(Z2, TRIVIAL), True),
    (Homomorphism(Z, Z, [[2]]), zero_hom(Z, TRIVIAL), False),
    (Homomorphism(FgAbGroup(2, ()), Z6, [[2, 3]]), zero_hom(Z6, TRIVIAL), True),
    # both
    (zero_hom(TRIVIAL, TRIVIAL), zero_hom(TRIVIAL, TRIVIAL), True),
    (zero_hom(TRIVIAL, Z2), zero_hom(Z2, TRIVIAL), False),
])
def test_exact_at_with_zero_dimensional_ends(left, right, expected):
    assert exact_at(left, right) == expected == reference_exact_at(left, right)


def test_exact_at_shape_mismatch():
    with pytest.raises(ValueError):
        exact_at(identity_hom(Z2), identity_hom(Z4))


# ---------------------------------------------------------------------------
# enumeration oracle (light version; the heavy sweep lives in acceptance)

def test_against_enumeration_small():
    rng = random.Random(2024)
    groups = [g for g in all_finite_groups(48, 2) if g.order() <= 48]
    for _ in range(150):
        src = rng.choice(groups)
        tgt = rng.choice(groups)
        h = random_well_defined_hom(rng, src, tgt)
        expected_kernel = brute_kernel(h)
        assert span_closure(kernel(h)) == expected_kernel
        expected_image = brute_image(h)
        for y in tgt.elements():
            found, witness = in_image(h, y)
            assert found == (y in expected_image)
            if found:
                assert h(witness) == y


def test_exact_at_against_enumeration():
    rng = random.Random(31337)
    groups = [g for g in all_finite_groups(24, 2)]
    for _ in range(80):
        a, b, c = (rng.choice(groups) for _ in range(3))
        left = random_well_defined_hom(rng, a, b)
        right = random_well_defined_hom(rng, b, c)
        expected = brute_image(left) == brute_kernel(right)
        assert exact_at(left, right) == expected


def test_snf_read_predicates_against_enumeration():
    # is_surjective and is_zero_map read the cached SNF and the stored
    # matrix; compare them with the image enumerated element by element
    # (spanned from generator images when the source is free) and with
    # evaluation on each generator
    rng = random.Random(60)
    groups = all_finite_groups(60)
    free_sources = [Z, FgAbGroup(2, ()), FgAbGroup(1, (2,)), FgAbGroup(1, (3, 6))]
    seen = set()
    for _ in range(300):
        src = rng.choice(free_sources if rng.random() < 0.25 else groups)
        tgt = rng.choice(groups)
        for h in (random_well_defined_hom(rng, src, tgt), zero_hom(src, tgt)):
            if src.free_rank:
                image = span_closure(Subgroup(tgt, [h(g) for g in _units(src)]))
            else:
                image = brute_image(h)
            surjective = image == set(tgt.elements())
            zero = all(h(g).is_zero for g in _units(src))
            assert is_surjective(h) == surjective
            assert h.is_zero_map() == zero
            seen.add((surjective, zero))
            for y in tgt.elements():
                found, witness = in_image(h, y)
                assert found == (y in image)
                if found:
                    assert h(witness) == y
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_kernel_order_bookkeeping():
    rng = random.Random(5)
    groups = all_finite_groups(36, 2)
    for _ in range(60):
        src = rng.choice(groups)
        tgt = rng.choice(groups)
        h = random_well_defined_hom(rng, src, tgt)
        ker_order = kernel(h).isomorphism_type().order()
        assert ker_order * len(brute_image(h)) == src.order()


def test_transforms_added_to_the_cache_on_demand():
    # kernel caches V alone and the membership-only test caches U alone;
    # a later query that needs the other transform recomputes with both,
    # and must answer exactly as a map queried fresh
    rng = random.Random(77)
    groups = all_finite_groups(36, 2) + [Z, FgAbGroup(2, (2,)), FgAbGroup(1, (3, 6))]
    for _ in range(60):
        src, tgt = rng.choice(groups), rng.choice(groups)
        matrix = random_well_defined_hom(rng, src, tgt).matrix
        ys = [tgt.zero()] + [random_well_defined_hom(rng, src, tgt)(x)
                             for x in _units(src)]
        fresh = [in_image(Homomorphism(src, tgt, matrix), y) for y in ys]
        by_kernel = Homomorphism(src, tgt, matrix)
        by_membership = Homomorphism(src, tgt, matrix)
        kernel_gens = kernel(by_kernel).generators
        assert ([_image_contains(by_membership, y.coords) for y in ys]
                == [found for found, _ in fresh])
        assert by_membership._snf_cache[2] is None
        for h in (by_kernel, by_membership):
            assert [in_image(h, y) for y in ys] == fresh
            assert kernel(h).generators == kernel_gens
            u, _, v, *_ = h._snf_cache
            assert u is not None and v is not None


# ---------------------------------------------------------------------------
# exact_at compares invariant factors; the membership criterion it
# replaced is the oracle

_MIXED_GROUPS = all_finite_groups(24, 2) + [
    Z, FgAbGroup(2, ()), FgAbGroup(1, (2,)), FgAbGroup(1, (2, 4)),
    FgAbGroup(2, (3,)), FgAbGroup(3, ())]


def _fresh(h):
    return Homomorphism(h.source, h.target, h.matrix)


def _left_maps(rng, right, source):
    """Maps into right.source: onto ker(right), into it with one kernel
    generator dropped or doubled, with an extra generator, and random."""
    middle = right.source
    gens = [g.coords for g in kernel(right).generators]

    def assembled(columns):
        free = FgAbGroup(len(columns), ())
        return Homomorphism(free, middle, [[c[i] for c in columns]
                                           for i in range(middle.dim)])
    yield assembled(gens)
    if gens:
        k = rng.randrange(len(gens))
        yield assembled(gens[:k] + gens[k + 1:])
        yield assembled([[2 * x for x in c] if i == k else c
                         for i, c in enumerate(gens)])
    yield assembled(gens + [[rng.randint(-3, 3) for _ in range(middle.dim)]])
    yield random_well_defined_hom(rng, source, middle)


def test_exact_at_matches_membership_reference():
    rng = random.Random(5150)
    outcomes = set()
    for _ in range(400):
        a, b, c = (rng.choice(_MIXED_GROUPS) for _ in range(3))
        right = random_well_defined_hom(rng, b, c)
        for left in _left_maps(rng, right, a):
            expected = reference_exact_at(_fresh(left), _fresh(right))
            assert exact_at(left, right) == expected
            outcomes.add((expected, compose(right, left).is_zero_map(),
                           is_surjective(right)))
    # exact pairs, pairs with im < ker, and pairs with a nonzero composite,
    # each with a right map that is onto and with one that is not
    assert outcomes == {(*pair, onto)
                        for pair in [(True, True), (False, True), (False, False)]
                        for onto in (True, False)}
