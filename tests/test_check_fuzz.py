"""Fuzz homotopy_db.check with database text built from a token soup
and from valid lines with a few characters edited.

Whatever the text, check() reports problems as violations and never
raises, and it agrees with the regular-expression grammar of
oracles.reference_check.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from nielsencalc import homotopy_db as hdb

WORDS = [
    "nielsendb", "v1", "v2", "group", "hom", "gens", "src", "matrix", "=",
    "->", ",", "assert_exact", "assert_zero", "assert_surjective",
    "assert_exactly", "assert_zeroes", "assert_surjectivex", "groupie",
    "homs", "boundary_K", "suspension_E", "fiber_incl", "antipodal_A",
    "proj_pK", "frobnicate", "a", "a,b", "-", "0", "1", "2", "6", "11",
    "-3", "99999999999999999999",
]
SPACES = ["S(2)", "S(5)", "S(6)", "V(R,6)", "V(C,2)", "P(R,6)", "P(H,3)",
          "S(x)", "S()", "V(Q,2)", "S(-1)"]
LITERALS = ["[]", "[[]]", "[[0]]", "[[1]]", "[[-1]]", "[[2]]", "[[1,0],[0,1]]",
            "[[1,2]]", "[[1],[2]]", "[[1,0],[1]]", "[[", "]]", "[2]", "[2,4]",
            "[[True]]", "[[1,]]", "[" * 40 + "]" * 40]
MARKS = ['"', '"Toda #3"', '"x"', '""', "#", "# comment", "\t"]


@st.composite
def _token(draw):
    kind = draw(st.sampled_from(["word", "space", "ref", "literal", "mark"]))
    if kind == "word":
        return draw(st.sampled_from(WORDS))
    if kind == "space":
        return draw(st.sampled_from(SPACES))
    if kind == "ref":
        space = draw(st.sampled_from(SPACES))
        degree = draw(st.integers(-2, 12))
        return f"{space},{degree}"
    if kind == "literal":
        return draw(st.sampled_from(LITERALS))
    return draw(st.sampled_from(MARKS))


# a small valid database; its lines are drawn whole or with one token
# replaced or dropped, so that validation is reached as well as parsing
VALID_LINES = [
    'group S(6) 6 = 1 [] gens a src "x"',
    'group S(5) 5 = 1 [] gens b src "y"',
    'group V(R,6) 5 = 0 [2] gens c src "z"',
    'hom boundary_K S(6),6 -> S(5),5 matrix [[2]] src "w"',
    'hom fiber_incl S(5),5 -> V(R,6),5 matrix [[1]] src "v"',
    'hom suspension_E S(5),5 -> S(6),6 matrix [[0]] src "u"',
    'hom antipodal_A S(6),6 -> S(6),6 matrix [[-1]] src "t"',
    "assert_exact boundary_K fiber_incl",
    "assert_surjective fiber_incl",
    "assert_zero suspension_E",
]


@st.composite
def _mutated_line(draw):
    tokens = draw(st.sampled_from(VALID_LINES)).split(" ")
    i = draw(st.integers(0, len(tokens) - 1))
    if draw(st.booleans()):
        tokens[i] = draw(_token())
    else:
        del tokens[i]
    return " ".join(tokens)


_line = st.one_of(st.lists(_token(), max_size=12).map(" ".join),
                  st.sampled_from(VALID_LINES), _mutated_line())


@st.composite
def _database_text(draw):
    lines = draw(st.lists(_line, max_size=10))
    if draw(st.booleans()):
        lines.insert(0, "nielsendb v1")
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_database_text())
def test_check_never_raises(text):
    db, violations = hdb.check(text)
    assert isinstance(violations, list)
    assert all(isinstance(v, hdb.Violation) for v in violations)
    assert db is not None or violations


# ---------------------------------------------------------------------------
# the str-method grammar against the seven regular expressions it replaced

from oracles import reference_check  # noqa: E402

# letters are few, so that most edits touch the punctuation and digits
# the grammar turns on
EDIT_ALPHABET = ' \t\xa0[],-=>"#()0123456789٥+_' + "SVPRCHagmrsx"

# lines to edit: the valid database above, the version line, and lines
# with whitespace wherever the grammar allows it
GRAMMAR_LINES = VALID_LINES + [
    "nielsendb v1",
    "nielsendb\tv1",
    'group V(C,2) 3=0[ 2 , 4 ]\tgens c,d src "z"',
    'group S(2) 2 = 0 [] gens - src "#, \'quoted\' -> [x]"',
    'hom proj_pK V(R,6),5->P(R,6),5 matrix [ [ 1 ] , [-0] ] src "s"',
    'hom j_star S(6),6 ->S(5),5 matrix [\t[2,\t-3] ] src "r"',
]


_edits = st.lists(st.tuples(st.sampled_from(("insert", "delete", "replace")),
                            st.integers(0, 99), st.sampled_from(EDIT_ALPHABET)),
                  min_size=1, max_size=3)


@st.composite
def _edited_database(draw):
    # one line of the valid database replaced by a grammar line with one
    # to three characters inserted, deleted or replaced
    chars = list(draw(st.sampled_from(GRAMMAR_LINES)))
    for edit, k, char in draw(_edits):
        k %= len(chars) + 1
        if edit == "insert" or k == len(chars):
            chars.insert(k, char)
        elif edit == "delete":
            del chars[k]
        else:
            chars[k] = char
    lines = ["nielsendb v1"] + VALID_LINES
    lines[draw(st.integers(0, len(lines) - 1))] = "".join(chars)
    return "\n".join(lines) + "\n"


def _outcome(result):
    db, violations = result
    found = [(v.kind, v.subject, v.message, v.line) for v in violations]
    if db is None:
        return None, found
    return (db.version,
            [(e.key, e.group, e.labels, e.provenance, e.line)
             for e in db.groups.values()],
            [(e.key, e.matrix, e.provenance, e.line) for e in db.homs],
            [(a.kind, a.refs, a.line) for a in db.assertions]), found


def _rank_32_database():
    gens = ",".join(f"g{k}" for k in range(32))
    identity = " [ " + " , ".join(
        "[ " + " , ".join("1" if i == j else "0" for j in range(32)) + " ]"
        for i in range(32)) + " ] "
    return ("nielsendb v1\n"
            f'group S(2) 3 = 32 [] gens {gens} src "a"\n'
            f'group S(3) 4 = 32 [] gens {gens} src "b"\n'
            f'hom suspension_E S(2),3 -> S(3),4 matrix{identity}src "c"\n'
            "assert_surjective suspension_E\n")


def _literal_database(literal):
    return ("nielsendb v1\n" + "\n".join(VALID_LINES[:2]) + "\n"
            f'hom suspension_E S(5),5 -> S(6),6 matrix {literal} src "c"\n')


@settings(max_examples=2000, deadline=None, database=None, derandomize=True)
@given(st.one_of(_database_text(), _edited_database()))
@example(_rank_32_database())
@example("nielsendb v1\n" + "\n".join(VALID_LINES).replace("[[0]]", "[[-0]]"))
@example('nielsendb v1\nhom suspension_E S(2)->x,2 -> S(3),3 matrix [[1]] src "c"')
@example('nielsendb v1\nhom suspension_E S(2),2->S(3),3 -> S(4),4 matrix [[1]] src "c"')
@example('nielsendb v1\nhom suspension_E S(2),2 -> S(3),3 matrix [[1,'
         + "9" * 4301 + ']] src "c"')
@example('nielsendb v1\nhom suspension_E S(2),2 -> S(3),3 matrix [[1],\xa0[2]] src "c"')
@example('nielsendb v1\nhom suspension_E S(2),2 -> S(3),3 matrix [[01]] src "c"')
@example('nielsendb v1\nhom 2nd_map S(2),2 -> S(3),3 matrix [[1]] src "c"')
@example("nielsendb v1\n" + "[" * 40 + "]" * 40)
# literals that only the shape test and int() tell apart
@example(_literal_database("[[--1]]"))
@example(_literal_database("[[-01]]"))
@example(_literal_database("[[00]]"))
@example(_literal_database("[[1-2]]"))
@example(_literal_database("[[-]]"))
@example(_literal_database("[[1,]]"))
@example(_literal_database("[[]]"))
@example(_literal_database("[[10,-0]]"))
# blanks read as the start of a number, rows of blanks, and a blank inside one
@example(_literal_database("[[ 01]]"))
@example(_literal_database("[[1,\t01]]"))
@example(_literal_database("[[ -01]]"))
@example(_literal_database("[[1 2]]"))
@example(_literal_database("[ [ ] ]"))
@example(_literal_database("[[-0 ]]"))
@example(_literal_database("[[1],[ ]]"))
def test_grammar_agrees_with_the_regular_expressions(text):
    assert _outcome(hdb.check(text)) == _outcome(reference_check(text))


def test_references_are_qualified_as_the_regular_expressions_qualify_them():
    # a bare reference is qualified only when it names one entry: the
    # fuzzed texts above seldom hold two entries of one name
    second = 'hom suspension_E S(6),6 -> S(5),5 matrix [[0]] src "s"'
    text = "\n".join(["nielsendb v1"] + VALID_LINES + [
        second,
        "assert_zero fiber_incl",
        "assert_zero boundary_K:S(5),5->S(6),6",
    ]) + "\n"
    outcome = _outcome(hdb.check(text))
    assert outcome == _outcome(reference_check(text))
    db, found = outcome
    assert db is None
    assert [kind for kind, *_ in found] == [
        "ambiguous_ref", "assert_zero", "unknown_hom"]
    # a valid database: each bare reference names one entry, and both
    # sides qualify it
    assert VALID_LINES[-1] == "assert_zero suspension_E"
    text = "\n".join(["nielsendb v1"] + VALID_LINES[:-1] + [
        second,
        "assert_zero suspension_E:S(5),5->S(6),6",
        "assert_zero suspension_E:S(6),6->S(5),5",
    ]) + "\n"
    outcome = _outcome(hdb.check(text))
    assert outcome == _outcome(reference_check(text))
    (_, _, _, assertions), found = outcome
    assert found == []
    assert [str(ref) for _, refs, _ in assertions for ref in refs] == [
        "boundary_K:S(6),6->S(5),5", "fiber_incl:S(5),5->V(R,6),5",
        "fiber_incl:S(5),5->V(R,6),5", "suspension_E:S(5),5->S(6),6",
        "suspension_E:S(6),6->S(5),5"]
