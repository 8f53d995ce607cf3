"""Curated, validated store of homotopy groups and named homomorphisms.

The store is a line-oriented UTF-8 text format ("nielsendb v1"):

    nielsendb v1
    group <space> <m> = <free_rank> [<d1>,<d2>,...] gens <labels> src "<citation>"
    hom <name> <space>,<m> -> <space>,<m> matrix <matrix> src "<citation>"
    assert_exact <homref> <homref>
    assert_zero <homref>
    assert_surjective <homref>

A '#' outside double quotes starts a comment; the first line that is not
blank is the version line.  Words are separated by whitespace (as in
str.isspace), which may also appear, or not, around '=', inside the torsion
brackets and around '->'.  Numbers are ASCII digit strings that int()
converts, so no longer than sys.get_int_max_str_digits().  Spaces are
S(n), V(K,n'), P(K,n') with K in {R, C, H}; a <name> is letters, digits and
'_'; the citation is the text after the second-to-last '"'; a hom's source
ends at the first ',<m>' followed by '->' that lets the rest of the line
match.  A <matrix> such as [[1,0],[-2,3]] has integers without leading
zeros and allows only spaces and tabs around its brackets and commas.  A
<homref> is either a bare homomorphism name (if unique in the file) or the
qualified form name:S(5),10->S(6),11.

The parser only reads lines; the Database constructor resolves each hom
line against the group lines, qualifies each bare assertion reference
that names a single entry, checks every invariant and recorded assertion
with the exact-arithmetic layer, and freezes its inputs.  It raises
DatabaseError on any violation, so every Database is valid and immutable.
Lookups never guess: a missing entry is reported as None, and the
require_* helpers raise InsufficientDataError naming what is missing.
"""

from __future__ import annotations

import sys
from collections import Counter
from importlib import resources
from types import MappingProxyType
from typing import Optional

from ._frozen import Frozen, setfield
from .fgab import FgAbGroup, Homomorphism, _int_type, exact_at, is_surjective

__all__ = [
    "SpaceId",
    "GroupEntry",
    "HomEntry",
    "Assertion",
    "Violation",
    "Database",
    "DatabaseError",
    "InsufficientDataError",
    "HOM_NAMES",
    "FIELD_DIMS",
    "load",
    "loads",
    "load_default",
    "read_db_text",
    "validate",
    "serialize",
    "default_db_text",
]

HOM_NAMES = frozenset({
    "suspension_E", "boundary_K", "proj_pK", "hopf_H",
    "antipodal_A", "fiber_incl", "j_star",
})

# real dimension d of the coefficient field K
FIELD_DIMS = {"R": 1, "C": 2, "H": 4}
# the number of hom references of each assertion kind
_ASSERTION_REFS = {"exact": 2, "zero": 1, "surjective": 1}


def _cut(token: str) -> str:
    """A token of database text as a message shows it: a token longer than
    40 characters is cut there and followed by its length."""
    if len(token) <= 40:
        return token
    return f"{token[:40]}…[{len(token)} characters]"


def _int_at_least(value, low: int) -> bool:    # a dimension: never a bool or float
    return _int_type(type(value)) and value >= low


class InsufficientDataError(Exception):
    """A computation needed a database entry that is not present."""


class DatabaseError(Exception):
    """Parsing or validation of a database failed; carries the violations."""

    def __init__(self, violations, origin: str = ""):
        self.violations = list(violations)
        self.origin = origin
        lines = [str(v) for v in self.violations]
        prefix = f"{origin}: " if origin else ""
        super().__init__(prefix + "; ".join(lines))


class SpaceId(Frozen):
    """A sphere S(n), Stiefel manifold V(K,n') or projective space P(K,n').

    kind is "S", "V" or "P"; K is "R", "C" or "H", and None for spheres;
    index is n for spheres and n' otherwise.
    """

    __slots__ = ("kind", "K", "index", "_key")

    def __init__(self, kind: str, K: Optional[str], index: int):
        if kind == "S":
            if K is not None:
                raise ValueError("spheres carry no coefficient field")
        elif kind not in ("V", "P"):
            raise ValueError(f"unknown space kind {kind!r}")
        elif K not in FIELD_DIMS:
            raise ValueError(f"coefficient field must be R, C or H, got {K!r}")
        if not _int_at_least(index, 1):
            raise ValueError("space index must be >= 1")
        super().__init__(kind, K, index)

    @classmethod
    def sphere(cls, n: int) -> "SpaceId":
        return cls("S", None, n)

    @classmethod
    def lift_sphere(cls, K: str, nprime: int) -> "SpaceId":
        """The sphere S^{dn'+d-1} through which maps into P(K,n') lift."""
        d = FIELD_DIMS[K]
        return cls.sphere(d * nprime + d - 1)

    @classmethod
    def parse(cls, text: str) -> "SpaceId":
        kind, paren, rest = text.partition("(")
        args = rest[:-1].split(",") if paren and rest.endswith(")") else [""]
        K = args[0] if len(args) == 2 and kind in ("V", "P") else None
        if _digits(args[-1]) and (K in FIELD_DIMS
                                  or kind == "S" and len(args) == 1):
            return cls(kind, K, int(args[-1]))
        raise ValueError(f"cannot parse space {_cut(text)!r}")

    def __str__(self) -> str:
        if self.kind == "S":
            return f"S({self.index})"
        return f"{self.kind}({self.K},{self.index})"


class GroupEntry(Frozen, defaults={"line": 0}, uncompared=("line",)):
    __slots__ = ("space", "m", "group", "labels", "provenance", "line")

    @property
    def key(self):
        return (self.space, self.m)

    def __str__(self):
        return f"pi_{self.m}({self.space}) = {self.group}"


class HomEntry(Frozen, defaults={"line": 0, "hom": None},
               uncompared=("line", "hom")):
    """A hom line; only a Database sets hom, its map, and then matrix is
    the map's canonical one."""

    __slots__ = ("name", "source", "target", "matrix", "provenance", "line",
                 "hom")

    @property
    def key(self):
        return (self.name, self.source, self.target)

    def ref(self) -> str:
        return str(HomRef(*self.key))

    def __str__(self):
        s, sm = self.source
        t, tm = self.target
        return f"{self.name}: pi_{sm}({s}) -> pi_{tm}({t})"


class HomRef(Frozen, defaults={"source": None, "target": None}):
    __slots__ = ("name", "source", "target")

    @classmethod
    def parse(cls, token: str, spaces: dict) -> "HomRef":
        name, _, rest = token.partition(":")
        if name not in HOM_NAMES:
            raise ValueError(f"unknown homomorphism name {_cut(name)!r}")
        if not rest:
            return cls(name)
        src_text, arrow, tgt_text = rest.partition("->")
        if not arrow:
            raise ValueError(f"qualified hom reference {_cut(token)!r} needs '->'")
        return cls(name, _parse_space_m(src_text, spaces),
                   _parse_space_m(tgt_text, spaces))

    def __str__(self):
        if self.source is None:
            return self.name
        s, sm = self.source
        t, tm = self.target
        return f"{self.name}:{s},{sm}->{t},{tm}"


class Assertion(Frozen, defaults={"line": 0}, uncompared=("line",)):
    __slots__ = ("kind", "refs", "line")     # kind: exact, zero or surjective

    def __str__(self):
        return f"assert_{self.kind} " + " ".join(str(r) for r in self.refs)


class Violation(Frozen, defaults={"line": 0}, uncompared=("line",)):
    __slots__ = ("kind", "subject", "message", "line")

    def __str__(self):
        where = f" (line {self.line})" if self.line else ""
        return f"[{self.kind}] {self.subject}: {self.message}{where}"


class Database(Frozen):
    """Group, homomorphism and assertion entries; valid and immutable.

    The constructor raises DatabaseError on any violation.  Each hom entry
    gets the map resolved from its own matrix, whatever hom it carried, so
    queries apply the maps to bare coordinates.  groups is a read-only
    mapping over the constructor's own copy; homs and assertions are
    tuples.  _hom_index keys the hom entries, _spheres maps n to the S(n)
    of the group keys and _slices memoises each resolved slice
    (classifier.ProjectiveSlice.resolve); == and serialize ignore them.
    """

    __slots__ = ("version", "groups", "homs", "assertions", "_hom_index",
                 "_spheres", "_slices")

    def __init__(self, version: str, groups, homs, assertions):
        groups = MappingProxyType(dict(groups))
        violations = [Violation("group_key", f"pi_{e.m}({e.space})",
                                "filed under a key other than its own", e.line)
                      for key, e in groups.items() if key != e.key]
        if version != "v1":     # the one version a text can hold
            violations.append(Violation("version", _cut(str(version)),
                                        "unsupported version (expected 'v1')"))
        index = {}
        for e in homs:
            hom, problem = _resolve(groups, e)
            if e.key in index:      # the parser too keeps the first entry
                problem = "duplicate", "second entry for the same homomorphism"
            if problem is not None:
                kind, message = problem
                violations.append(Violation(kind, e.ref(), message, e.line))
            index.setdefault(e.key, HomEntry(
                *e.key, e.matrix if hom is None else hom.matrix, e.provenance,
                e.line, hom))
        by_name = {}
        for entry in index.values():
            by_name.setdefault(entry.name, []).append(entry)
        qualified = []
        for assertion in assertions:
            kind, count = assertion.kind, len(assertion.refs)
            if count != _ASSERTION_REFS.get(kind):    # no text holds such a line
                violations.append(Violation(
                    "assertion_shape", _cut(str(assertion)),
                    f"{_cut(str(kind))!r} with {count} hom reference(s); expected "
                    "exact with 2, zero or surjective with 1", assertion.line))
                continue
            refs, found = [], []
            for ref in assertion.refs:
                entry, problem = _lookup(by_name, ref, assertion.line)
                if problem is not None:
                    violations.append(problem)
                refs.append(ref if entry is None else HomRef(*entry.key))
                found.append(entry)
            qualified.append(Assertion(assertion.kind, tuple(refs), assertion.line))
            # an unresolved entry was already reported against the entry itself
            if all(e is not None and e.hom is not None for e in found):
                message = _refutation(assertion.kind, found)
                if message is not None:
                    violations.append(Violation(
                        "assert_" + assertion.kind, " , ".join(e.ref() for e in found),
                        message, assertion.line))
        if violations:
            raise DatabaseError(violations)
        super().__init__(version, groups, tuple(index.values()), tuple(qualified))
        setfield(self, "_hom_index", index)
        setfield(self, "_spheres", {space.index: space for space, _ in groups
                                    if space.kind == "S"})
        setfield(self, "_slices", {})

    # -- lookups ------------------------------------------------------------

    def get_group(self, space: SpaceId, m: int) -> Optional[FgAbGroup]:
        """Exact entry or None, never a guessed default."""
        entry = self.groups.get((space, m))
        return entry.group if entry is not None else None

    def require_group(self, space: SpaceId, m: int) -> FgAbGroup:
        group = self.get_group(space, m)
        if group is None:
            raise InsufficientDataError(f"no entry for pi_{m}({space})")
        return group

    def get_hom(self, name: str, source: tuple[SpaceId, int],
                target: tuple[SpaceId, int]) -> Optional[Homomorphism]:
        entry = self._hom_index.get((name, source, target))
        return entry.hom if entry is not None else None

    def require_hom_entry(self, name: str, source: tuple[SpaceId, int],
                          target: tuple[SpaceId, int]) -> HomEntry:
        entry = self._hom_index.get((name, source, target))
        if entry is None:
            s, sm = source
            t, tm = target
            raise InsufficientDataError(
                f"no entry for {name}: pi_{sm}({s}) -> pi_{tm}({t})")
        return entry

    # -- equality (round-trip property) --------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Database):
            return NotImplemented
        return (self.version == other.version
                and self.groups == other.groups
                and Counter(self.homs) == Counter(other.homs)
                and Counter(self.assertions) == Counter(other.assertions))

    def __repr__(self):
        return (f"Database({self.version}, {len(self.groups)} groups, "
                f"{len(self.homs)} homs, {len(self.assertions)} assertions)")


# ---------------------------------------------------------------------------
# parsing

# int()'s limit on digits; 0, or no getter (Python < 3.10.7), means none
_max_str_digits = getattr(sys, "get_int_max_str_digits", int)


def _digits(text: str) -> bool:    # int() also takes signs, '_' and non-ASCII digits
    return (text.isascii() and text.isdigit()
            and not 0 < _max_str_digits() < len(text))


def _strip_comment(raw: str) -> str:
    """The part of a line before its first '#' outside double quotes."""
    if "#" in raw:
        pieces = raw.split('"')     # the even-indexed pieces are outside quotes
        for i in range(0, len(pieces), 2):
            if "#" in pieces[i]:
                return '"'.join(pieces[:i] + [pieces[i].partition("#")[0]])
    return raw


def _space(spaces: dict, text: str) -> SpaceId:
    """SpaceId.parse(text), built once per load: spaces maps text to it."""
    if text not in spaces:
        spaces[text] = SpaceId.parse(text)
    return spaces[text]


def _parse_space_m(text: str, spaces: dict) -> tuple[SpaceId, int]:
    space_text, comma, m_text = text.strip().rpartition(",")
    if not comma or not _digits(m_text):
        raise ValueError(f"expected <space>,<m>, got {_cut(text)!r}")
    return _space(spaces, space_text.strip()), int(m_text)


def _split_line(line: str):
    """The first word, second word, rest and citation of a line of the form
    <word> <word> <rest> src "<citation>", or None."""
    head, quote, citation = line[:-1].rpartition('"')
    before = head.rstrip()
    words = before[:-3].rstrip().split(None, 2)
    if (line.endswith('"') and quote and len(before) < len(head) and len(words) == 3
            and before.endswith("src") and before[-4:-3].isspace()):
        return (*words, citation)
    return None


def _hom_fields(line: str):
    """Name, source, its degree, target, its degree, matrix, citation, or None."""
    _, name, rest, citation = _split_line(line) or ("",) * 4
    if not (name.replace("_", "a").isalnum() and rest.endswith("]")):
        return None
    # the source: the shortest start of the first word that lets the rest match
    first = len(rest.split(None, 1)[0])
    comma = rest.find(",", 1, first)
    while comma > 0:
        after = rest[comma + 1:]
        arrow = after.lstrip("0123456789")
        source_m = after[:len(after) - len(arrow)]
        target = arrow.lstrip()
        parts = target[2:].split(None, 2)
        if (_digits(source_m) and target.startswith("->") and len(parts) == 3
                and parts[1] == "matrix" and parts[2].startswith("[")):
            target, _, target_m = parts[0].rpartition(",")
            if target and _digits(target_m):
                return (name, rest[:comma], source_m, target, target_m,
                        parts[2], citation)
        comma = rest.find(",", comma + 1, first)
    return None


_BAD_MATRIX = ("bad matrix literal: expected a list of rows of decimal "
               "integers, such as [[1,0],[-2,3]]")

# a matrix literal's shape: '[', ',', a space, a tab and '-' can come
# before the digits of a number, so all five read ','; a digit 1-9 reads
# '1' and any other ASCII character but ']' and '0' 'x'
_SHAPE = str.maketrans({**dict.fromkeys(map(chr, range(128)), "x"),
                        **dict.fromkeys("[, \t-", ","), "]": "]", "0": "0",
                        **dict.fromkeys("123456789", "1")})


def _parse_matrix(text: str) -> tuple[tuple[int, ...], ...]:
    """The rows of a matrix literal, given with its outer brackets."""
    inner = text[1:-1].strip(" \t")
    if inner and inner[0] + inner[-1] != "[]":
        raise ValueError(_BAD_MATRIX)
    bodies = inner[1:-1].split("]") if inner else []
    for k in range(1, len(bodies)):
        sep, bracket, bodies[k] = bodies[k].partition("[")
        if not bracket or sep.strip(" \t") != ",":
            raise ValueError(_BAD_MATRIX)
    # ASCII brackets, commas, blanks, '-' and digits only, and no number
    # with a leading zero, checked on the whole text at once; int() refuses
    # the rest: a blank inside a number, '--', a lone '-', an empty item or
    # too many digits
    shape = text.translate(_SHAPE)
    if not (shape.isascii() and "x" not in shape and ",00" not in shape
            and ",01" not in shape):
        raise ValueError(_BAD_MATRIX)
    rows = []
    for body in bodies:
        try:
            rows.append(tuple(map(int, body.split(","))))
        except ValueError:
            if body.strip(" \t"):     # a row of blanks is an empty row
                raise ValueError(_BAD_MATRIX) from None
            rows.append(())
    if len(set(map(len, rows))) > 1:
        raise ValueError("matrix rows have unequal lengths")
    return tuple(rows)


def check(text: str, origin: str = "<string>"):
    """Parse and validate without raising: (db, violations), valid exactly
    when violations is empty.  db holds the lines that parsed, or is None
    without a valid version line or when the Database constructor refuses."""
    version: Optional[str] = None
    groups: dict[tuple[SpaceId, int], GroupEntry] = {}
    homs: dict[tuple, HomEntry] = {}
    assertions: list[Assertion] = []
    violations: list[Violation] = []
    spaces: dict[str, SpaceId] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if version is None:
            if line.split() != ["nielsendb", "v1"]:
                violations.append(Violation(
                    "parse", origin, "missing or unsupported version header "
                    "(expected 'nielsendb v1')", lineno))
                return None, violations
            version = "v1"
            continue
        try:
            _parse_line(groups, homs, assertions, spaces, line, lineno,
                        violations)
        except ValueError as exc:
            violations.append(Violation("parse", origin, str(exc), lineno))
    if version is None:
        violations.append(Violation("parse", origin, "empty database file", 0))
        return None, violations
    try:
        return Database(version, groups, homs.values(), assertions), violations
    except DatabaseError as exc:
        return None, violations + exc.violations


def _parse_line(groups: dict, homs: dict, assertions: list, spaces: dict,
                line: str, lineno: int, violations: list[Violation]):
    directive = line.split(None, 1)[0]
    if directive == "group":
        _, space, rest, provenance = _split_line(line) or ("",) * 4
        degree, _, rest = rest.partition("=")
        free_rank, _, rest = rest.partition("[")
        torsion, _, rest = rest.partition("]")
        torsion = [d.strip() for d in torsion.split(",")] if torsion.strip() else []
        gens = rest.split()
        if not (rest[:1].isspace() and '"' not in rest and len(gens) == 2
                and gens[0] == "gens"
                and all(map(_digits, [degree.rstrip(), free_rank.strip(), *torsion]))):
            raise ValueError("malformed group line")
        space, degree, free_rank = _space(spaces, space), int(degree), int(free_rank)
        torsion = tuple(map(int, torsion))
        labels = () if gens[1] == "-" else tuple(gens[1].split(","))
        subject = f"pi_{degree}({space})"
        try:
            group = FgAbGroup(free_rank, torsion)
        except ValueError as exc:
            violations.append(Violation("group_invariant", subject, str(exc), lineno))
            return
        if len(labels) != group.dim:
            violations.append(Violation(
                "group_invariant", subject,
                f"{len(labels)} generator labels for {group.dim} generators", lineno))
            return
        entry = GroupEntry(space, degree, group, labels, provenance, lineno)
        if entry.key in groups:
            violations.append(Violation(
                "duplicate", subject, "second entry for the same group", lineno))
            return
        groups[entry.key] = entry
    elif directive == "hom":
        fields = _hom_fields(line)
        if fields is None:
            raise ValueError("malformed hom line")
        name, source, source_m, target, target_m, matrix, provenance = fields
        if name not in HOM_NAMES:
            violations.append(Violation(
                "parse", _cut(name),
                f"unknown homomorphism name (expected one of "
                f"{', '.join(sorted(HOM_NAMES))})", lineno))
            return
        key = (name, (_space(spaces, source), int(source_m)),
               (_space(spaces, target), int(target_m)))
        matrix = _parse_matrix(matrix)
        if key in homs:
            violations.append(Violation(
                "duplicate", str(HomRef(*key)),
                "second entry for the same homomorphism", lineno))
            return
        homs[key] = HomEntry(*key, matrix, provenance, lineno, None)
    elif directive in ("assert_exact", "assert_zero", "assert_surjective"):
        kind, refs = directive.removeprefix("assert_"), line.split()[1:]
        if len(refs) != _ASSERTION_REFS[kind]:
            raise ValueError(f"{directive} needs exactly " + (
                "two hom references" if kind == "exact" else "one hom reference"))
        assertions.append(Assertion(kind, tuple(HomRef.parse(r, spaces) for r in refs),
                                    lineno))
    else:
        raise ValueError(f"unrecognized directive {_cut(directive)!r}")


# ---------------------------------------------------------------------------
# validation

def _resolve(groups, entry: HomEntry):
    """(map or None, None or (kind, message)) for a hom entry."""
    missing = [f"pi_{m}({space})" for space, m in (entry.source, entry.target)
               if (space, m) not in groups]
    if missing:
        return None, ("dangling_ref",
                      "references missing group entries: " + ", ".join(missing))
    try:
        hom = Homomorphism(groups[entry.source].group, groups[entry.target].group,
                           entry.matrix)
    except ValueError as exc:
        return None, ("ill_defined", str(exc))
    if entry.name != "antipodal_A":
        return hom, None
    if entry.source != entry.target:
        return hom, ("not_automorphism",
                     "antipodal action must be an endomorphism of one group")
    # a surjective endomorphism of a f.g. abelian group is injective
    # (Hopfian), so surjectivity decides automorphy
    if not is_surjective(hom):
        return hom, ("not_automorphism", "antipodal action must be an automorphism")
    return hom, None


def _lookup(by_name, ref: HomRef, line: int):
    """(entry, None) for the one entry ref names, else (None, violation)."""
    found = [e for e in by_name.get(ref.name, ())
             if (ref.source is None or e.source == ref.source)
             and (ref.target is None or e.target == ref.target)]
    if len(found) == 1:
        return found[0], None
    if not found:
        return None, Violation("unknown_hom", str(ref),
                               "assertion references no homomorphism entry", line)
    return None, Violation("ambiguous_ref", str(ref),
                           "assertion matches several entries; qualify with "
                           "name:SRC,m->TGT,m", line)


def _refutation(kind: str, entries) -> Optional[str]:
    """Why the maps of the entries an assertion names refute it, or None."""
    if kind == "zero" and not entries[0].hom.is_zero_map():
        return "asserted to vanish but is a nonzero map"
    if kind == "surjective" and not is_surjective(entries[0].hom):
        return "asserted to be surjective but is not"
    if kind == "exact":
        left, right = entries
        if left.target != right.source:
            return ("maps are not consecutive (left target differs from "
                    "right source)")
        if not exact_at(left.hom, right.hom):
            return ("image of the left map differs from the kernel of the "
                    "right map")
    return None


def validate(db: Database) -> list[Violation]:
    """The violations of a Database: always none, since its constructor
    raises DatabaseError on any."""
    return []


# ---------------------------------------------------------------------------
# loading / serialization

def loads(text: str, origin: str = "<string>") -> Database:
    """Parse and validate database text; raise DatabaseError on any violation."""
    db, violations = check(text, origin)
    if violations:
        raise DatabaseError(violations, origin)
    return db


_MAX_DB_CHARS = 16 << 20     # 16 Mi; the shipped file has about 6 000


def read_db_text(path) -> str:
    """A database file's text; unreadable, non-UTF-8 or overlong is an io violation."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read(_MAX_DB_CHARS + 1)   # an endless file stops here
        if len(text) > _MAX_DB_CHARS:
            raise ValueError(f"longer than {_MAX_DB_CHARS} characters")
    except (OSError, ValueError) as exc:    # UnicodeDecodeError is a ValueError
        raise DatabaseError(
            [Violation("io", str(path), str(exc))], str(path)) from exc
    return text


def load(path) -> Database:
    """Load a database file; raise DatabaseError on any violation."""
    return loads(read_db_text(path), str(path))


def default_db_text() -> str:
    return (resources.files("nielsencalc") / "data" / "default.nielsendb"
            ).read_text(encoding="utf-8")


def load_default() -> Database:
    return loads(default_db_text(), "<default>")


def _quoted(subject: str, provenance: str) -> str:
    if '"' in provenance or "".join(provenance.splitlines()) != provenance:
        raise ValueError(
            f"{subject}: a provenance cannot contain '\"' or a line break")
    return f'"{provenance}"'


def serialize(db: Database) -> str:
    """Canonical text form; loads(serialize(db)) equals db.  ValueError
    for what would not read back: a provenance with '"' or a line break, a
    label with whitespace, ',', '#' or '"', a lone label '' or '-', a label
    count other than the group's dimension, or a hom name not in HOM_NAMES."""
    lines = [f"nielsendb {db.version}", ""]
    for entry in sorted(db.groups.values(), key=lambda e: (str(e.space), e.m)):
        subject = f"pi_{entry.m}({entry.space})"
        if (any(c.isspace() or c in ',#"' for c in "".join(entry.labels))
                or entry.labels in (("",), ("-",))):
            raise ValueError(
                f"{subject}: cannot write the generator labels {entry.labels!r}")
        if len(entry.labels) != entry.group.dim:
            raise ValueError(f"{subject}: {len(entry.labels)} generator labels "
                             f"for {entry.group.dim} generators")
        torsion = ",".join(str(d) for d in entry.group.torsion)
        labels = ",".join(entry.labels) if entry.labels else "-"
        lines.append(
            f"group {entry.space} {entry.m} = {entry.group.free_rank} "
            f"[{torsion}] gens {labels} src " + _quoted(subject, entry.provenance))
    for entry in sorted(db.homs, key=lambda e: str(e.key)):
        if entry.name not in HOM_NAMES:
            raise ValueError(
                f"{entry.ref()}: cannot write the homomorphism name {entry.name!r}")
        s, sm = entry.source
        t, tm = entry.target
        matrix = "[" + ",".join("[" + ",".join(str(x) for x in row) + "]"
                                for row in entry.matrix) + "]"
        lines.append(
            f"hom {entry.name} {s},{sm} -> {t},{tm} matrix {matrix} src "
            + _quoted(entry.ref(), entry.provenance))
    lines.extend(sorted(map(str, db.assertions)))
    return "\n".join(lines) + "\n"
