"""Fuzz homotopy_db.check with database text built from a token soup.

Whatever the text, check() reports problems as violations and never
raises.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

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
