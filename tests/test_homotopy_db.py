import random
import re
import time
from types import SimpleNamespace

import pytest

from nielsencalc import fgab, homotopy_db as hdb
from nielsencalc.fgab import FgAbGroup, Homomorphism, exact_at, kernel
from nielsencalc.homotopy_db import (
    Assertion,
    Database,
    DatabaseError,
    GroupEntry,
    HomEntry,
    HomRef,
    InsufficientDataError,
    SpaceId,
    load,
    loads,
    load_default,
    serialize,
    validate,
)

from oracles import (compose, mat_mul, reference_exact_at,
                     reference_strip_comment)

S = SpaceId.sphere


@pytest.fixture(scope="module")
def db():
    return load_default()


# ---------------------------------------------------------------------------
# space ids

def test_space_parse_and_render():
    assert str(SpaceId.parse("S(6)")) == "S(6)"
    assert SpaceId.parse("V(R,6)") == SpaceId("V", "R", 6)
    assert SpaceId.parse("P(H,3)") == SpaceId("P", "H", 3)
    with pytest.raises(ValueError):
        SpaceId.parse("S(0)")
    with pytest.raises(ValueError):
        SpaceId.parse("P(Q,3)")


# ---------------------------------------------------------------------------
# loading the shipped database

def test_default_db_loads(db):
    assert db.version == "v1"
    assert validate(db) == []


def test_get_group_examples(db):
    assert db.get_group(S(6), 11) == FgAbGroup(1, ())
    assert db.get_group(S(5), 10) == FgAbGroup(0, (2,))
    assert db.get_group(SpaceId("V", "R", 6), 10) == FgAbGroup(0, ())


def test_lookup_never_fabricates(db):
    assert db.get_group(S(17), 40) is None
    assert db.get_hom("boundary_K", (S(17), 40), (S(16), 39)) is None
    with pytest.raises(InsufficientDataError, match=r"pi_40\(S\(17\)\)"):
        db.require_group(S(17), 40)
    with pytest.raises(InsufficientDataError, match="suspension_E"):
        db.require_hom_entry("suspension_E", (S(17), 40), (S(18), 41))


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
            assert not kernel(entry.hom).generators


def test_antipodal_action_preserves_hopf_coordinate(db):
    # postcomposition with a degree d map multiplies the Hopf invariant by
    # d^2, so the antipodal action must commute with the stored H
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
    with pytest.raises(AttributeError):
        db.homs[0].matrix = ((5,),)
    with pytest.raises(AttributeError):
        db.groups[(S(6), 11)].provenance = "changed"
    with pytest.raises(AttributeError):
        db.assertions = ()
    assert validate(db) == []
    assert serialize(db) == text


def test_a_database_built_from_a_dict_and_lists_is_frozen(db):
    # bare entries, and a bare reference wherever the name is unique
    groups = dict(db.groups)
    homs = [HomEntry(e.name, e.source, e.target, e.matrix, e.provenance, e.line)
            for e in db.homs]
    names = [e.name for e in db.homs]
    assertions = [a.replace(refs=tuple(HomRef(r.name) if names.count(r.name) == 1
                                       else r for r in a.refs))
                  for a in db.assertions]
    assert assertions != list(db.assertions)
    built = Database(db.version, groups, homs, assertions)
    groups.clear()
    homs.clear()
    assertions.clear()
    with pytest.raises(TypeError):
        built.groups[(S(6), 11)] = db.groups[(S(5), 10)]
    assert type(built.homs) is tuple and type(built.assertions) is tuple
    assert built.assertions == db.assertions        # qualified again
    assert built == db and validate(built) == []
    for entry in db.homs:
        assert built.require_hom_entry(*entry.key).hom == entry.hom


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
    quoted = entry.replace(provenance='say "hi"')
    bad = db.replace(groups={**db.groups, entry.key: quoted})
    with pytest.raises(ValueError, match=r"pi_11\(S\(6\)\)"):
        serialize(bad)
    hom = db.homs[0].replace(provenance='say "hi"')
    with pytest.raises(ValueError, match=re.escape(db.homs[0].ref())):
        serialize(db.replace(homs=(hom,) + db.homs[1:]))


def _with_group(db, **changes):
    entry = db.groups[(S(6), 11)]
    return db.replace(groups={**db.groups, entry.key: entry.replace(**changes)})


# each of these is a line break to str.splitlines, so loads would read two lines
LINE_BREAKS = ["a\nb", "a\r\nb", "a\rb", "\x0b", "a\x1c", "a\x85b", "a\u2028"]


@pytest.mark.parametrize("provenance", LINE_BREAKS)
def test_serialize_refuses_a_line_break_in_a_group_provenance(db, provenance):
    with pytest.raises(ValueError, match=r"pi_11\(S\(6\)\): a provenance"):
        serialize(_with_group(db, provenance=provenance))


@pytest.mark.parametrize("provenance", LINE_BREAKS)
def test_serialize_refuses_a_line_break_in_a_hom_provenance(db, provenance):
    hom = db.homs[0].replace(provenance=provenance)
    with pytest.raises(ValueError, match=re.escape(db.homs[0].ref())):
        serialize(db.replace(homs=(hom,) + db.homs[1:]))


@pytest.mark.parametrize("label", ["a b", "a\tb", "a\xa0", "a,b", "a#b", 'a"b',
                                   "", "-"])
def test_serialize_refuses_a_label_that_would_not_read_back(db, label):
    with pytest.raises(ValueError, match=r"pi_11\(S\(6\)\): cannot write"):
        serialize(_with_group(db, labels=(label,)))


@pytest.mark.parametrize("citation", ['"x"', '"x#y"'])
def test_a_quote_in_a_label_is_a_malformed_group_line(citation):
    # whatever the citation holds, so no label that serialize refuses loads
    _, violations = hdb.check(
        f'nielsendb v1\ngroup S(2) 2 = 1 [] gens a"b src {citation}\n')
    assert [(v.kind, v.message, v.line) for v in violations] == [
        ("parse", "malformed group line", 2)]


def test_serialize_refuses_a_label_count_other_than_the_dimension(db):
    for labels in [(), ("a", "b")]:
        with pytest.raises(ValueError, match=r"pi_11\(S\(6\)\): "
                           f"{len(labels)} generator labels for 1 generators"):
            serialize(_with_group(db, labels=labels))


def test_serialize_refuses_a_hom_name_that_loads_does_not_know(db):
    # an entry that no assertion names, so that the renamed database is valid
    named = {ref for assertion in db.assertions for ref in assertion.refs}
    k = next(k for k, e in enumerate(db.homs) if HomRef(*e.key) not in named)
    hom = db.homs[k].replace(name="frobnicate")
    with pytest.raises(ValueError, match=re.escape(hom.ref())
                       + ": cannot write the homomorphism name 'frobnicate'"):
        serialize(db.replace(homs=db.homs[:k] + (hom,) + db.homs[k + 1:]))


# ---------------------------------------------------------------------------
# every Database is valid: each kind of violation is refused on every path

SMALL = """nielsendb v1
group S(6) 6 = 1 [] gens a src "x"
group S(5) 5 = 1 [] gens b src "y"
group V(R,6) 5 = 0 [2] gens c src "z"
hom boundary_K S(6),6 -> S(5),5 matrix [[2]] src "w"
hom fiber_incl S(5),5 -> V(R,6),5 matrix [[1]] src "v"
hom suspension_E S(5),5 -> S(6),6 matrix [[0]] src "u"
hom antipodal_A S(6),6 -> S(6),6 matrix [[-1]] src "t"
assert_exact boundary_K fiber_incl
assert_surjective fiber_incl
assert_zero suspension_E
"""


def _changed(db, name, **changes):
    return {"homs": tuple(e.replace(**changes) if e.name == name else e
                          for e in db.homs)}


def _asserting(db, kind, *names):
    refs = tuple(HomRef(name) for name in names)
    return {"assertions": db.assertions + (Assertion(kind, refs),)}


_SECOND_E = HomEntry("suspension_E", (S(6), 6), (S(5), 5), ((0,),), "s")

# (kind, words of its message) -> the fields that break SMALL that way
INVALID = {
    ("dangling_ref", "missing group entries: pi_9(S(9))"):
        lambda db: _changed(db, "suspension_E", source=(S(9), 9)),
    ("ill_defined", "matrix row has 2 entries"):
        lambda db: _changed(db, "fiber_incl", matrix=((1, 0),)),
    ("not_automorphism", "must be an endomorphism of one group"):
        lambda db: _changed(db, "antipodal_A", target=(S(5), 5)),
    ("not_automorphism", "must be an automorphism"):
        lambda db: _changed(db, "antipodal_A", matrix=((2,),)),
    ("unknown_hom", "references no homomorphism entry"):
        lambda db: _asserting(db, "zero", "proj_pK"),
    ("ambiguous_ref", "matches several entries"):
        lambda db: {"homs": db.homs + (_SECOND_E,),
                    **_asserting(db, "zero", "suspension_E")},
    ("assert_zero", "asserted to vanish"):
        lambda db: _asserting(db, "zero", "fiber_incl"),
    ("assert_surjective", "asserted to be surjective"):
        lambda db: _asserting(db, "surjective", "boundary_K"),
    ("assert_exact", "maps are not consecutive"):
        lambda db: _asserting(db, "exact", "fiber_incl", "boundary_K"),
    ("assert_exact", "differs from the kernel"):
        lambda db: _asserting(db, "exact", "boundary_K", "suspension_E"),
    ("duplicate", "second entry for the same homomorphism"):
        lambda db: {"homs": db.homs + (db.homs[0].replace(provenance="2nd",
                                                          line=99),)},
    ("group_key", "filed under a key other than its own"):
        lambda db: {"groups": {**db.groups, (S(2), 2): GroupEntry(
            S(3), 3, FgAbGroup(1, ()), ("g",), "x")}},
    ("assertion_shape", "'exact' with 1 hom reference(s)"):
        lambda db: _asserting(db, "exact", "fiber_incl"),
    ("assertion_shape", "'zero' with 0 hom reference(s)"):
        lambda db: _asserting(db, "zero"),
    ("assertion_shape", "'frob' with 1 hom reference(s)"):
        lambda db: _asserting(db, "frob", "fiber_incl"),
    ("version", "unsupported version"):
        lambda db: {"version": "v2"},
}

# a text files each group under its own key, and the parser refuses any
# other version or assertion shape as a parse error
NOT_IN_TEXT = ("group_key", "assertion_shape", "version")


@pytest.mark.parametrize("kind, words", list(INVALID))
def test_every_violation_kind_is_refused_on_every_path(kind, words):
    db = loads(SMALL)
    assert validate(db) == []
    changes = INVALID[kind, words](db)
    fields = {"version": db.version, "groups": db.groups, "homs": db.homs,
              "assertions": db.assertions, **changes}
    paths = {"Database": lambda: Database(**fields),
             "replace": lambda: db.replace(**changes)}
    if kind not in NOT_IN_TEXT:
        text = serialize(SimpleNamespace(**fields))
        paths["loads"] = lambda: loads(text)
    reported = {}
    for path, attempt in paths.items():
        with pytest.raises(DatabaseError) as raised:
            attempt()
        reported[path] = [v for v in raised.value.violations
                          if v.kind == kind and words in v.message]
        assert reported[path], (path, raised.value.violations)
    # the same subjects on every path (== leaves out the line), and the
    # duplicate at the second entry's line, as the parser reports it
    assert len({tuple(found) for found in reported.values()}) == 1
    if kind == "duplicate":
        assert [v.line for v in reported["Database"]] == [99]


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
# numbers are ASCII digits

_DIGITS_DB = ("nielsendb v1\n"
              'group S(2) 2 = 1 [] gens a src "x"\n'
              'group S(3) 3 = 1 [] gens b src "y"\n'
              'hom suspension_E S(2),2 -> S(3),3 matrix [[1]] src "z"\n'
              "{line}\n")


@pytest.mark.parametrize("line", [
    'group S(\u0665) 5 = 0 [2] gens u src "w"',
    'group S(5) \u0665 = 0 [2] gens u src "w"',
    'group S(5) 5 = \u0661 [] gens u src "w"',
    'group S(5) 5 = 0 [\u0662] gens u src "w"',
    'group S(5) 5 = 0 [+2] gens u src "w"',
    'group S(5) 5 = 0 [2_4] gens u src "w"',
    'hom antipodal_A S(2),\u0662 -> S(2),2 matrix [[-1]] src "w"',
    'hom antipodal_A P(R,\u0662),2 -> S(2),2 matrix [[-1]] src "w"',
    "assert_zero suspension_E:S(2),+2->S(3),3",
])
def test_numbers_are_ascii_digits(line):
    _, violations = hdb.check(_DIGITS_DB.format(line=line))
    assert [(v.kind, v.line) for v in violations] == [("parse", 5)]


BIG = "9" * 5000     # more digits than int() converts by default


@pytest.mark.skipif(not 0 < hdb._max_str_digits() < len(BIG),
                    reason="int() converts this many digits here")
@pytest.mark.parametrize("line", [
    f'group S(5) {BIG} = 0 [2] gens u src "w"',
    f'group S(5) 5 = {BIG} [] gens u src "w"',
    f'group S(5) 5 = 0 [{BIG}] gens u src "w"',
    f'group S({BIG}) 5 = 0 [2] gens u src "w"',
    f'hom antipodal_A S(2),{BIG} -> S(2),2 matrix [[-1]] src "w"',
    f'hom antipodal_A S(2),2 -> S(2),{BIG} matrix [[-1]] src "w"',
    f'hom antipodal_A S(2),2 -> S(2),2 matrix [[-{BIG}]] src "w"',
    f"assert_zero suspension_E:S(2),{BIG}->S(3),3",
], ids=["degree", "free rank", "torsion", "space index", "hom source degree",
        "hom target degree", "matrix entry", "reference degree"])
def test_numbers_longer_than_int_converts_are_parse_violations(line):
    _, violations = hdb.check(_DIGITS_DB.format(line=line))
    assert [(v.kind, v.line) for v in violations] == [("parse", 5)]
    assert "set_int_max_str_digits" not in violations[0].message


LONG = "x" * 5000


@pytest.mark.parametrize("line", [
    f'group S({BIG}) 5 = 0 [2] gens u src "w"',
    f"assert_zero suspension_E:S(2),2->S(3),{BIG}",
    f"assert_zero suspension_E:{LONG}",
    f"assert_zero {LONG}",
    f"{LONG} suspension_E",
    f'hom {LONG} S(2),2 -> S(3),3 matrix [[1]] src "w"',
], ids=["space index", "reference degree", "reference without arrow",
        "reference name", "directive", "hom name"])
def test_a_violation_quotes_at_most_40_characters_of_a_token(line):
    if BIG in line and not 0 < hdb._max_str_digits() < len(BIG):
        pytest.skip("int() converts this many digits here")
    _, violations = hdb.check(_DIGITS_DB.format(line=line))
    assert [(v.kind, v.line) for v in violations] == [("parse", 5)]
    v = violations[0]
    assert len(v.message) < 120 and len(v.subject) < 120
    assert "…[5" in v.message + v.subject    # the cut, then the length


def test_torsion_may_have_spaces_around_commas():
    db, violations = hdb.check(_DIGITS_DB.format(
        line='group S(5) 5 = 0 [ 2 , 4 ] gens u,v src "w"'))
    assert violations == []
    assert db.groups[(S(5), 5)].group.torsion == (2, 4)


# ---------------------------------------------------------------------------
# comments

def test_strip_comment_agrees_with_the_quote_counting_definition():
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    @settings(max_examples=2000, deadline=None, database=None,
              derandomize=True)
    @given(st.text(alphabet='"# ab', max_size=24))
    @example('src "a#b" # c')
    @example('"#')
    @example('#"')
    def agree(raw):
        assert hdb._strip_comment(raw) == reference_strip_comment(raw)

    agree()


def test_check_takes_a_megabyte_line_of_quoted_hashes_in_linear_time():
    text = ("nielsendb v1\n"
            f'group S(5) 5 = 0 [2] gens u src "{"#" * 2 ** 20}" # note\n')
    start = time.perf_counter()
    db, violations = hdb.check(text)
    elapsed = time.perf_counter() - start
    assert violations == []
    assert db.groups[(S(5), 5)].provenance == "#" * 2 ** 20
    assert elapsed < 2.0


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


@pytest.mark.parametrize("seed", range(12, 18))
def test_rank12_exactness_matches_membership_reference(seed):
    boundary, fiber, _ = _rank12_slice(seed)
    z12, v = FgAbGroup(12, ()), FgAbGroup(2, (2, 2, 2, 6))
    for matrix, exact in [
            (boundary, True),
            (_change_one_entry(boundary, fiber), False),
            ([[2 * x for x in row] for row in boundary], False)]:
        # each criterion gets maps with empty SNF caches
        for criterion in (exact_at, reference_exact_at):
            assert criterion(Homomorphism(z12, z12, matrix),
                             Homomorphism(z12, v, fiber)) is exact


def _record_augmented_snfs(monkeypatch):
    """(homomorphism, want_u, want_v) for each SNF that
    Homomorphism._augmented computes while the patch is in place."""
    computed, asking = [], []
    real_snf, real_augmented = fgab._snf, Homomorphism._augmented

    def snf(matrix, nrows, ncols, want_u, want_v):
        if asking:
            computed.append((asking[-1], want_u, want_v))
        return real_snf(matrix, nrows, ncols, want_u, want_v)

    def augmented(self, want_u, want_v):
        asking.append(self)
        try:
            return real_augmented(self, want_u, want_v)
        finally:
            asking.pop()

    monkeypatch.setattr(fgab, "_snf", snf)
    monkeypatch.setattr(Homomorphism, "_augmented", augmented)
    return computed


def _load(source):
    return (load_default() if source == "default"
            else loads(_slice_text(*_rank12_slice())))


@pytest.mark.parametrize("source", ["default", "rank12"])
def test_load_computes_each_augmented_snf_once_without_u(monkeypatch, source):
    # but for the one right map of an assert_exact that is not onto,
    # boundary_K on (R, 6, 6): its kernel lattice needs a second SNF, with V
    computed = _record_augmented_snfs(monkeypatch)
    db = _load(source)
    assert computed
    homs = [h for h, _, _ in computed]
    again = [(h, want_v) for h, _, want_v in computed
             if sum(g is h for g in homs) > 1]
    not_onto = db.get_hom("boundary_K", (S(6), 6), (S(5), 5))
    assert again == ([(not_onto, False), (not_onto, True)]
                     if source == "default" else [])
    assert all(any(h is e.hom for e in db.homs) for h in homs)
    assert not any(want_u for _, want_u, _ in computed)


@pytest.mark.parametrize("source", ["default", "rank12"])
def test_load_leaves_no_onto_right_map_holding_v(source):
    db = _load(source)
    right = [db.get_hom(ref.name, ref.source, ref.target)
             for ref in (a.refs[1] for a in db.assertions if a.kind == "exact")]
    # (onto, holds V) for each right map
    seen = sorted((fgab.is_surjective(h), h._snf_cache[2] is not None)
                  for h in right)
    assert seen == ([(False, True)] + [(True, False)] * 4
                    if source == "default" else [(True, False)])


def _record_presentations(monkeypatch):
    """The right maps whose image type FgAbGroup.from_presentation builds
    while the patch is in place, one per call."""
    presented, asking = [], []
    real_present = FgAbGroup.from_presentation
    real_image_type = fgab._image_type

    def present(num_generators, relations):
        presented.append(asking[-1] if asking else None)
        return real_present(num_generators, relations)

    def image_type(h):
        asking.append(h)
        try:
            return real_image_type(h)
        finally:
            asking.pop()

    monkeypatch.setattr(FgAbGroup, "from_presentation", staticmethod(present))
    monkeypatch.setattr(fgab, "_image_type", image_type)
    return presented


def test_load_presents_an_image_only_for_a_right_map_that_is_not_onto(monkeypatch):
    presented = _record_presentations(monkeypatch)
    loads(_slice_text(*_rank12_slice()))
    assert presented == []
    db = load_default()
    not_onto = db.get_hom("boundary_K", (S(6), 6), (S(5), 5))
    assert len(presented) == 1 and presented[0] is not_onto
