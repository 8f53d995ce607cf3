import dataclasses
import random
import re
from types import MappingProxyType

import pytest

from nielsencalc import homotopy_db as hdb
from nielsencalc.fgab import FgAbGroup, is_injective
from nielsencalc.homotopy_db import (
    DatabaseError,
    InsufficientDataError,
    SpaceId,
    load,
    loads,
    load_default,
    serialize,
    validate,
)

from oracles import mat_mul

S = SpaceId.sphere
V = SpaceId.stiefel
P = SpaceId.projective


@pytest.fixture(scope="module")
def db():
    return load_default()


# ---------------------------------------------------------------------------
# space ids

def test_space_parse_and_render():
    assert str(SpaceId.parse("S(6)")) == "S(6)"
    assert SpaceId.parse("V(R,6)") == V("R", 6)
    assert SpaceId.parse("P(H,3)") == P("H", 3)
    with pytest.raises(ValueError):
        SpaceId.parse("S(0)")
    with pytest.raises(ValueError):
        SpaceId.parse("P(Q,3)")


def test_space_real_dim_is_derived():
    assert P("R", 6).real_dim == 6
    assert P("C", 2).real_dim == 4
    assert P("H", 2).real_dim == 8
    assert V("R", 6).real_dim == 11  # unit tangent bundle of S^6


# ---------------------------------------------------------------------------
# loading the shipped database

def test_default_db_loads(db):
    assert db.version == "v1"
    assert validate(db) == []


def test_get_group_examples(db):
    assert db.get_group(S(6), 11) == FgAbGroup(1, ())
    assert db.get_group(S(5), 10) == FgAbGroup(0, (2,))
    assert db.get_group(V("R", 6), 10) == FgAbGroup(0, ())


def test_lookup_never_fabricates(db):
    assert db.get_group(S(17), 40) is None
    assert db.get_hom("boundary_K", (S(17), 40), (S(16), 39)) is None
    with pytest.raises(InsufficientDataError, match=r"pi_40\(S\(17\)\)"):
        db.require_group(S(17), 40)
    with pytest.raises(InsufficientDataError, match="suspension_E"):
        db.require_hom("suspension_E", (S(17), 40), (S(18), 41))


def test_get_hom_examples(db):
    boundary = db.get_hom("boundary_K", (S(6), 11), (S(5), 10))
    assert boundary.matrix == ((1,),)  # onto Z_2
    susp = db.get_hom("suspension_E", (S(5), 10), (S(6), 11))
    assert susp.is_zero_map()
    antip = db.get_hom("antipodal_A", (S(6), 11), (S(6), 11))
    assert antip.matrix == ((1,),)


def test_every_hom_well_defined_and_antipodals_are_automorphisms(db):
    for entry in db.homs:
        assert entry.hom is not None
        if entry.name == "antipodal_A":
            assert entry.source == entry.target
            assert is_injective(entry.hom)


def test_antipodal_action_preserves_hopf_coordinate(db):
    # postcomposition with a degree d map multiplies the Hopf invariant by
    # d^2, so the antipodal action must commute with the stored H
    from nielsencalc.fgab import compose
    antip = db.get_hom("antipodal_A", (S(6), 11), (S(6), 11))
    hopf = db.get_hom("hopf_H", (S(6), 11), (S(6), 11))
    assert compose(hopf, antip) == hopf
    g = db.get_group(S(6), 11)
    assert antip(g.element((1,))) == g.element((1,))


def test_round_trip(db):
    text = serialize(db)
    again = loads(text)
    assert again == db
    assert serialize(again) == text


def test_round_trip_with_bare_assertion_refs():
    text = ("nielsendb v1\n"
            'group S(6) 11 = 1 [] gens g src "x"\n'
            'group S(5) 10 = 0 [2] gens u src "y"\n'
            'hom suspension_E S(5),10 -> S(6),11 matrix [[0]] src "z"\n'
            "assert_zero suspension_E\n")
    db1 = loads(text)
    db2 = loads(serialize(db1))
    assert db1 == db2
    assert serialize(db1) == serialize(db2)


def test_loaded_database_cannot_be_changed(db):
    text = serialize(db)
    with pytest.raises(AttributeError):
        db.homs.append(db.homs[0])
    with pytest.raises(TypeError):
        db.groups[(S(6), 11)] = db.groups[(S(5), 10)]
    with pytest.raises(dataclasses.FrozenInstanceError):
        db.homs[0].matrix = ((5,),)
    with pytest.raises(dataclasses.FrozenInstanceError):
        db.groups[(S(6), 11)].provenance = "changed"
    with pytest.raises(dataclasses.FrozenInstanceError):
        db.assertions = ()
    assert validate(db) == []
    assert serialize(db) == text


def test_hash_inside_quotes_is_not_a_comment():
    text = ('nielsendb v1\n'
            'group S(2) 2 = 1 [] gens a src "Toda #3"  # a real comment\n')
    db, violations = hdb.check(text)
    assert violations == []
    assert db.groups[(S(2), 2)].provenance == "Toda #3"
    again = loads(serialize(db))
    assert again == db
    assert again.groups[(S(2), 2)].provenance == "Toda #3"


def test_serialize_refuses_quote_in_provenance(db):
    entry = db.groups[(S(6), 11)]
    quoted = dataclasses.replace(entry, provenance='say "hi"')
    bad = dataclasses.replace(
        db, groups=MappingProxyType({**db.groups, entry.key: quoted}))
    with pytest.raises(ValueError, match=r"pi_11\(S\(6\)\)"):
        serialize(bad)
    hom = dataclasses.replace(db.homs[0], provenance='say "hi"')
    with pytest.raises(ValueError, match=re.escape(db.homs[0].ref())):
        serialize(dataclasses.replace(db, homs=(hom,) + db.homs[1:]))


# ---------------------------------------------------------------------------
# corrupted variants (string surgery on the shipped file)

def _default_text():
    return hdb.default_db_text()


def test_broken_divisibility_rejected(tmp_path):
    text = _default_text().replace(
        "group S(7) 10 = 0 [24] gens nu7",
        "group S(7) 10 = 0 [4,2] gens nu7,extra")
    path = tmp_path / "broken_divisibility.nielsendb"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DatabaseError) as err:
        load(path)
    kinds = {(v.kind, v.subject) for v in err.value.violations}
    assert ("group_invariant", "pi_10(S(7))") in kinds


def test_nonzero_suspension_rejected(tmp_path):
    # Shrink pi_11(S^6) to Z_2 and make E nonzero: the file still parses
    # and every map is well defined, but the recorded vanishing assertion
    # for the suspension fails.
    text = _default_text().replace(
        "group S(6) 11 = 1 [] gens halfHopf",
        "group S(6) 11 = 0 [2] gens halfHopf")
    text = text.replace(
        'hom suspension_E S(5),10 -> S(6),11 matrix [[0]]',
        'hom suspension_E S(5),10 -> S(6),11 matrix [[1]]')
    with pytest.raises(DatabaseError) as err:
        loads(text)
    violations = err.value.violations
    assert len(violations) == 1
    assert violations[0].kind == "assert_zero"
    assert "suspension_E:S(5),10->S(6),11" in violations[0].subject


def test_dangling_reference_rejected(tmp_path):
    text = _default_text().replace(
        'group S(5) 10 = 0 [2] gens u src "Toda (1962): pi_10(S^5) = Z_2"\n',
        "")
    with pytest.raises(DatabaseError) as err:
        loads(text)
    dangling = [v for v in err.value.violations if v.kind == "dangling_ref"]
    assert dangling
    assert any("pi_10(S(5))" in v.message for v in dangling)


def test_surjectivity_assertion_enforced():
    # The boundary out of pi_11(S^6) is recorded as surjective; replacing
    # it by the zero map must be rejected even though zero is well defined.
    text = _default_text().replace(
        'hom boundary_K S(6),11 -> S(5),10 matrix [[1]]',
        'hom boundary_K S(6),11 -> S(5),10 matrix [[0]]')
    with pytest.raises(DatabaseError) as err:
        loads(text)
    kinds = {v.kind for v in err.value.violations}
    # both the surjectivity claim and the recorded exactness break
    assert "assert_surjective" in kinds
    assert "assert_exact" in kinds


def test_parse_error_carries_line_number():
    text = "nielsendb v1\ngroup S(2) Z = oops\n"
    with pytest.raises(DatabaseError) as err:
        loads(text)
    v = err.value.violations[0]
    assert v.kind == "parse"
    assert v.line == 2


def test_version_header_required():
    with pytest.raises(DatabaseError):
        loads("group S(2) 2 = 1 [] gens a src \"x\"\n")
    with pytest.raises(DatabaseError):
        loads("nielsendb v7\n")


def test_duplicate_group_rejected():
    text = ("nielsendb v1\n"
            'group S(2) 2 = 1 [] gens a src "x"\n'
            'group S(2) 2 = 1 [] gens b src "y"\n')
    with pytest.raises(DatabaseError) as err:
        loads(text)
    assert any(v.kind == "duplicate" for v in err.value.violations)


def test_ill_defined_hom_rejected():
    text = ("nielsendb v1\n"
            'group S(3) 4 = 0 [2] gens e src "x"\n'
            'group S(4) 5 = 1 [] gens f src "y"\n'
            'hom suspension_E S(3),4 -> S(4),5 matrix [[1]] src "torsion into Z"\n')
    with pytest.raises(DatabaseError) as err:
        loads(text)
    assert any(v.kind == "ill_defined" for v in err.value.violations)


def test_unknown_hom_name_rejected():
    text = ("nielsendb v1\n"
            'group S(2) 2 = 1 [] gens a src "x"\n'
            'hom frobnicate S(2),2 -> S(2),2 matrix [[1]] src "no"\n')
    with pytest.raises(DatabaseError):
        loads(text)


def test_matrix_shape_mismatch_rejected():
    text = ("nielsendb v1\n"
            'group S(2) 2 = 1 [] gens a src "x"\n'
            'group S(3) 3 = 2 [] gens b,c src "y"\n'
            'hom suspension_E S(2),2 -> S(3),3 matrix [[1,2]] src "z"\n')
    with pytest.raises(DatabaseError) as err:
        loads(text)
    assert any(v.kind == "ill_defined" for v in err.value.violations)


def test_ragged_matrix_rejected():
    text = ("nielsendb v1\n"
            'group S(2) 2 = 2 [] gens a,b src "x"\n'
            'hom antipodal_A S(2),2 -> S(2),2 matrix [[1,0],[1]] src "y"\n')
    with pytest.raises(DatabaseError) as err:
        loads(text)
    assert any(v.kind == "parse" for v in err.value.violations)


def test_check_reports_without_raising():
    db, violations = hdb.check(_default_text())
    assert violations == []
    assert db is not None
    _, violations = hdb.check("nielsendb v1\ngroup bad\n")
    assert violations


_NEAR_MISS_DB = ("nielsendb v1\n"
                 'group S(2) 2 = 1 [] gens a src "x"\n'
                 'hom boundary_K S(2),2 -> S(2),2 matrix [[0]] src "y"\n'
                 'hom suspension_E S(2),2 -> S(2),2 matrix [[0]] src "z"\n'
                 'hom fiber_incl S(2),2 -> S(2),2 matrix [[1]] src "w"\n'
                 "{line}\n")


@pytest.mark.parametrize("line", [
    "assert_exactly boundary_K boundary_K",
    "assert_zeroes suspension_E",
    "assert_surjectivex fiber_incl",
    "groupie S(3) 3 = 1 [] gens b src \"v\"",
    "homs suspension_E S(2),2 -> S(2),2 matrix [[0]] src \"v\"",
])
def test_directive_is_the_whole_first_word(line):
    # a directive that merely starts with a known one is not that one
    db, violations = hdb.check(_NEAR_MISS_DB.format(line=line))
    directive = line.split()[0]
    assert [(v.kind, v.message, v.line) for v in violations] == [
        ("parse", f"unrecognized directive {directive!r}", 6)]
    assert db.assertions == ()


def test_directive_may_be_followed_by_a_tab():
    db, violations = hdb.check('nielsendb v1\ngroup\tS(2) 2 = 1 [] gens a src "x"\n')
    assert violations == []
    assert list(db.groups) == [(S(2), 2)]


# ---------------------------------------------------------------------------
# matrix literal grammar

_LITERAL_DB = ("nielsendb v1\n"
               'group S(2) 2 = 1 [] gens a src "x"\n'
               'group S(3) 3 = 2 [] gens b,c src "y"\n'
               'group S(4) 4 = 0 [] gens - src "z"\n'
               'hom suspension_E {src} -> {tgt} matrix {literal} src "w"\n')


@pytest.mark.parametrize("src,tgt,literal,expected", [
    ("S(2),2", "S(4),4", "[]", ()),
    ("S(4),4", "S(2),2", "[[]]", ((),)),
    ("S(2),2", "S(3),3", "[ [ 2 ] , [-3] ]", ((2,), (-3,))),
    ("S(2),2", "S(3),3", "[[True],[0]]", None),
    ("S(2),2", "S(3),3", "[[0x2],[0]]", None),
    ("S(2),2", "S(3),3", "[[1_0],[0]]", None),
    ("S(2),2", "S(3),3", "[[+1],[0]]", None),
    ("S(2),2", "S(3),3", "[[(1)],[0]]", None),
    ("S(2),2", "S(3),3", "[[1,],[0]]", None),
    ("S(2),2", "S(3),3", "[" * 300 + "]" * 300, None),
    ("S(2),2", "S(3),3", "[" * 100_000 + "]" * 100_000, None),
], ids=lambda p: f"nest{len(p) // 2}" if isinstance(p, str) and len(p) > 99 else None)
def test_matrix_literal_grammar(src, tgt, literal, expected):
    db, violations = hdb.check(
        _LITERAL_DB.format(src=src, tgt=tgt, literal=literal))
    if expected is None:
        assert [(v.kind, v.line) for v in violations] == [("parse", 5)]
    else:
        assert violations == []
        assert db.homs[0].matrix == expected


# ---------------------------------------------------------------------------
# validation of a rank-12 slice
#
# boundary_K = P*D*Q with P, Q unimodular and D a divisibility chain, and
# fiber_incl = P^-1 restricted to the non-unit factors of D and reduced
# modulo them, so im(boundary_K) = ker(fiber_incl) and fiber_incl is onto
# Z^2 x Z_2 x Z_2 x Z_2 x Z_6.

_D = [1] * 6 + [2, 2, 2, 6] + [0, 0]
_BOUNDARY = "boundary_K:S(9),30->S(8),29"


def _unimodular(rng, r):
    """A seeded product of elementary matrices and its inverse."""
    m = [[int(i == j) for j in range(r)] for i in range(r)]
    inv = [row[:] for row in m]
    for _ in range(2 * r):
        i, j = rng.sample(range(r), 2)
        k = rng.choice((-2, -1, 1, 2))
        m[i] = [x + k * y for x, y in zip(m[i], m[j])]
        for row in inv:
            row[j] -= k * row[i]
    return m, inv


def _rank12_slice(seed=12):
    rng = random.Random(seed)
    r = len(_D)
    p, p_inv = _unimodular(rng, r)
    q, _ = _unimodular(rng, r)
    assert mat_mul(p, p_inv) == [[int(i == j) for j in range(r)] for i in range(r)]
    boundary = mat_mul(p, [[d * x for x in row] for d, row in zip(_D, q)])
    fiber = [p_inv[10], p_inv[11]] + [[x % _D[i] for x in p_inv[i]]
                                      for i in range(6, 10)]
    antipodal = [[-int(i == j) for j in range(r)] for i in range(r)]
    return boundary, fiber, antipodal


def _slice_text(boundary, fiber, antipodal):
    def lit(a):
        return "[" + ",".join("[" + ",".join(map(str, row)) + "]" for row in a) + "]"
    gens = ",".join(f"g{k}" for k in range(len(_D)))
    return ("nielsendb v1\n"
            f'group S(9) 30 = 12 [] gens {gens} src "synthetic"\n'
            f'group S(8) 29 = 12 [] gens {gens} src "synthetic"\n'
            'group V(R,9) 29 = 2 [2,2,2,6] gens v0,v1,v2,v3,v4,v5 src "synthetic"\n'
            f'hom boundary_K S(9),30 -> S(8),29 matrix {lit(boundary)} src "P*D*Q"\n'
            f'hom fiber_incl S(8),29 -> V(R,9),29 matrix {lit(fiber)} src "P^-1 mod D"\n'
            f'hom antipodal_A S(9),30 -> S(9),30 matrix {lit(antipodal)} src "-id"\n'
            "assert_exact boundary_K fiber_incl\n"
            "assert_surjective fiber_incl\n")


def test_rank12_slice_loads():
    boundary, fiber, antipodal = _rank12_slice()
    db = loads(_slice_text(boundary, fiber, antipodal))
    assert db.get_hom("boundary_K", (S(9), 30), (S(8), 29)).matrix == tuple(
        map(tuple, boundary))


def _change_one_entry(boundary, fiber):
    # adding 1 where column i of fiber_incl is nonzero makes
    # fiber_incl(boundary_K(e_j)) nonzero
    i = next(i for i in range(len(_D)) if any(row[i] for row in fiber))
    changed = [row[:] for row in boundary]
    changed[i][3] += 1
    return changed


@pytest.mark.parametrize("corrupt", [
    _change_one_entry,
    # 2*boundary_K still maps into the kernel but no longer onto it
    lambda boundary, fiber: [[2 * x for x in row] for row in boundary],
], ids=["one_entry", "doubled"])
def test_rank12_slice_broken_exactness_rejected(corrupt):
    boundary, fiber, antipodal = _rank12_slice()
    _, violations = hdb.check(
        _slice_text(corrupt(boundary, fiber), fiber, antipodal))
    assert len(violations) == 1
    assert violations[0].kind == "assert_exact"
    assert _BOUNDARY in violations[0].subject
    assert violations[0].line == 8


def test_rank12_injective_antipodal_that_is_not_onto_rejected():
    boundary, fiber, antipodal = _rank12_slice()
    antipodal[0][0] = 2
    _, violations = hdb.check(_slice_text(boundary, fiber, antipodal))
    assert [(v.kind, v.subject) for v in violations] == [
        ("not_automorphism", "antipodal_A:S(9),30->S(9),30")]
