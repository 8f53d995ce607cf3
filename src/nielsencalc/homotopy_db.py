"""Curated, validated store of homotopy groups and named homomorphisms.

The store is a line-oriented UTF-8 text format ("nielsendb v1"):

    group <space> <m> = <free_rank> [d1,d2,...] gens <labels> src "<citation>"
    hom <name> <space>,<m> -> <space>,<m> matrix [[..],[..]] src "<citation>"
    assert_exact <homref> <homref>
    assert_zero <homref>
    assert_surjective <homref>

Spaces are written S(n), V(K,n'), P(K,n') with K in {R, C, H}; a '#'
outside double quotes starts a comment.  A <homref> is either a bare
homomorphism name (if unique in the file) or the qualified form
name:S(5),10->S(6),11.

Lookups never guess: a missing entry is reported as None, and the
require_* helpers raise InsufficientDataError naming exactly what is
missing.  A database is validated wholesale on load; every recorded
exactness, vanishing and surjectivity assertion is checked with the
exact-arithmetic layer.  A Database cannot be changed once built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from importlib import resources
from types import MappingProxyType
from typing import Mapping, Optional

from .fgab import FgAbGroup, Homomorphism, exact_at, is_injective, is_surjective

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


@dataclass(frozen=True)
class SpaceId:
    """A sphere S(n), Stiefel manifold V(K,n') or projective space P(K,n')."""

    kind: str           # "S", "V" or "P"
    K: Optional[str]    # "R", "C", "H"; None for spheres
    index: int          # n for spheres, n' otherwise

    def __post_init__(self):
        if self.kind not in ("S", "V", "P"):
            raise ValueError(f"unknown space kind {self.kind!r}")
        if self.kind == "S":
            if self.K is not None:
                raise ValueError("spheres carry no coefficient field")
        else:
            if self.K not in FIELD_DIMS:
                raise ValueError(f"coefficient field must be R, C or H, got {self.K!r}")
        if self.index < 1:
            raise ValueError("space index must be >= 1")

    @classmethod
    def sphere(cls, n: int) -> "SpaceId":
        return cls("S", None, n)

    @classmethod
    def stiefel(cls, K: str, nprime: int) -> "SpaceId":
        return cls("V", K, nprime)

    @classmethod
    def projective(cls, K: str, nprime: int) -> "SpaceId":
        return cls("P", K, nprime)

    @classmethod
    def lift_sphere(cls, K: str, nprime: int) -> "SpaceId":
        """The sphere S^{dn'+d-1} through which maps into P(K,n') lift."""
        d = FIELD_DIMS[K]
        return cls.sphere(d * nprime + d - 1)

    @classmethod
    def parse(cls, text: str) -> "SpaceId":
        m = re.fullmatch(r"S\((\d+)\)", text)
        if m:
            return cls.sphere(int(m.group(1)))
        m = re.fullmatch(r"([VP])\(([RCH]),(\d+)\)", text)
        if m:
            return cls(m.group(1), m.group(2), int(m.group(3)))
        raise ValueError(f"cannot parse space {text!r}")

    @property
    def real_dim(self) -> int:
        """Real dimension of the space."""
        if self.kind == "S":
            return self.index
        d = FIELD_DIMS[self.K]
        if self.kind == "P":
            return d * self.index
        # V(K,n') fibers over S(d*n'+d-1) with fiber S(d*n'-1)
        return 2 * d * self.index + d - 2

    def __str__(self) -> str:
        if self.kind == "S":
            return f"S({self.index})"
        return f"{self.kind}({self.K},{self.index})"


@dataclass(frozen=True)
class GroupEntry:
    space: SpaceId
    m: int
    group: FgAbGroup
    labels: tuple[str, ...]
    provenance: str
    line: int = field(default=0, compare=False)

    @property
    def key(self):
        return (self.space, self.m)

    def __str__(self):
        return f"pi_{self.m}({self.space}) = {self.group}"


@dataclass(frozen=True)
class HomEntry:
    """A hom line; hom is its map, resolved against the group entries when
    the database is built (None if it dangles or is ill defined), and
    matrix is then the map's canonical matrix."""

    name: str
    source: tuple[SpaceId, int]
    target: tuple[SpaceId, int]
    matrix: tuple[tuple[int, ...], ...]
    provenance: str
    line: int = field(default=0, compare=False)
    hom: Optional[Homomorphism] = field(default=None, compare=False)

    @property
    def key(self):
        return (self.name, self.source, self.target)

    def ref(self) -> str:
        return str(HomRef(*self.key))

    def __str__(self):
        s, sm = self.source
        t, tm = self.target
        return f"{self.name}: pi_{sm}({s}) -> pi_{tm}({t})"


@dataclass(frozen=True)
class HomRef:
    name: str
    source: Optional[tuple[SpaceId, int]] = None
    target: Optional[tuple[SpaceId, int]] = None

    @classmethod
    def parse(cls, token: str) -> "HomRef":
        name, _, rest = token.partition(":")
        if name not in HOM_NAMES:
            raise ValueError(f"unknown homomorphism name {name!r}")
        if not rest:
            return cls(name)
        src_text, arrow, tgt_text = rest.partition("->")
        if not arrow:
            raise ValueError(f"qualified hom reference {token!r} needs '->'")
        return cls(name, _parse_space_m(src_text), _parse_space_m(tgt_text))

    def __str__(self):
        if self.source is None:
            return self.name
        s, sm = self.source
        t, tm = self.target
        return f"{self.name}:{s},{sm}->{t},{tm}"


@dataclass(frozen=True)
class Assertion:
    kind: str                    # "exact", "zero" or "surjective"
    refs: tuple[HomRef, ...]
    line: int = field(default=0, compare=False)

    def __str__(self):
        return f"assert_{self.kind} " + " ".join(str(r) for r in self.refs)


@dataclass(frozen=True)
class Violation:
    kind: str
    subject: str
    message: str
    line: int = field(default=0, compare=False)

    def __str__(self):
        where = f" (line {self.line})" if self.line else ""
        return f"[{self.kind}] {self.subject}: {self.message}{where}"


@dataclass(frozen=True, eq=False, repr=False)
class Database:
    """Group, homomorphism and assertion entries; immutable once built.

    homs keeps file order; lookups go through an index keyed by
    (name, source, target).
    """

    version: str
    groups: Mapping[tuple[SpaceId, int], GroupEntry]
    homs: tuple[HomEntry, ...]
    assertions: tuple[Assertion, ...]
    _hom_index: dict = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "_hom_index", {e.key: e for e in self.homs})

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
        if entry is None or entry.hom is None:
            s, sm = source
            t, tm = target
            raise InsufficientDataError(
                f"no entry for {name}: pi_{sm}({s}) -> pi_{tm}({t})")
        return entry

    def require_hom(self, name: str, source: tuple[SpaceId, int],
                    target: tuple[SpaceId, int]) -> Homomorphism:
        return self.require_hom_entry(name, source, target).hom

    # -- equality (round-trip property) --------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Database):
            return NotImplemented
        return (self.version == other.version
                and self.groups == other.groups
                and sorted(self.homs, key=lambda e: str(e.key))
                == sorted(other.homs, key=lambda e: str(e.key))
                and sorted(self.assertions, key=str)
                == sorted(other.assertions, key=str))

    def __repr__(self):
        return (f"Database({self.version}, {len(self.groups)} groups, "
                f"{len(self.homs)} homs, {len(self.assertions)} assertions)")


# ---------------------------------------------------------------------------
# parsing

_GROUP_RE = re.compile(
    r'^group\s+(\S+)\s+(\d+)\s*=\s*(\d+)\s*\[([^\]]*)\]\s+gens\s+(\S+)'
    r'\s+src\s+"([^"]*)"$')
_HOM_RE = re.compile(
    r'^hom\s+(\w+)\s+(\S+?),(\d+)\s*->\s*(\S+?),(\d+)\s+matrix\s+(\[.*\])'
    r'\s+src\s+"([^"]*)"$')
_VERSION_RE = re.compile(r'^nielsendb\s+(\S+)$')


def _strip_comment(raw: str) -> str:
    """The part of a line before its first '#' outside double quotes."""
    end = raw.find("#")
    while end >= 0 and raw.count('"', 0, end) % 2:
        end = raw.find("#", end + 1)
    return raw if end < 0 else raw[:end]


def _parse_space_m(text: str) -> tuple[SpaceId, int]:
    space_text, comma, m_text = text.strip().rpartition(",")
    if not comma:
        raise ValueError(f"expected <space>,<m>, got {text!r}")
    return SpaceId.parse(space_text.strip()), int(m_text)


# A matrix literal is a list of rows, each a list of decimal integers
# with an optional '-'.  The shape is checked by one non-nesting regular
# expression, so bracket depth costs no recursion.
_INT = r"-?(?:0|[1-9][0-9]*)"
_ROW = rf"\[[ \t]*(?:{_INT}(?:[ \t]*,[ \t]*{_INT})*)?[ \t]*\]"
_MATRIX_RE = re.compile(rf"\[[ \t]*(?:{_ROW}(?:[ \t]*,[ \t]*{_ROW})*)?[ \t]*\]")
_ROW_RE = re.compile(r"\[([^\[\]]*)\]")


def _parse_matrix(text: str) -> tuple[tuple[int, ...], ...]:
    if not _MATRIX_RE.fullmatch(text):
        raise ValueError("bad matrix literal: expected a list of rows of "
                         "decimal integers, such as [[1,0],[-2,3]]")
    rows = tuple(tuple(int(x) for x in body.split(",")) if body.strip() else ()
                 for body in _ROW_RE.findall(text, 1, len(text) - 1))
    if len({len(r) for r in rows}) > 1:
        raise ValueError("matrix rows have unequal lengths")
    return rows


def _parse_text(text: str, origin: str):
    version: Optional[str] = None
    groups: dict[tuple[SpaceId, int], GroupEntry] = {}
    homs: dict[tuple, HomEntry] = {}
    assertions: list[Assertion] = []
    violations: list[Violation] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if version is None:
            m = _VERSION_RE.match(line)
            if not m or m.group(1) != "v1":
                violations.append(Violation(
                    "parse", origin, "missing or unsupported version header "
                    "(expected 'nielsendb v1')", lineno))
                return None, violations
            version = m.group(1)
            continue
        try:
            _parse_line(groups, homs, assertions, line, lineno, violations)
        except ValueError as exc:
            violations.append(Violation("parse", origin, str(exc), lineno))
    if version is None:
        violations.append(Violation("parse", origin, "empty database file", 0))
        return None, violations
    return _build(version, groups, homs, assertions), violations


def _build(version, groups, homs, assertions) -> Database:
    """Resolve every hom entry against the groups and qualify every bare
    assertion reference that names a single entry, so that
    serialize(load(f)) parses back to an equal database."""
    entries = []
    for entry in homs.values():
        hom, _ = _resolve(groups, entry)
        entries.append(entry if hom is None
                       else replace(entry, matrix=hom.matrix, hom=hom))
    qualified = []
    for assertion in assertions:
        refs = []
        for ref in assertion.refs:
            entry, _ = _lookup(entries, ref, assertion.line)
            refs.append(ref if entry is None else HomRef(*entry.key))
        qualified.append(Assertion(assertion.kind, tuple(refs), assertion.line))
    return Database(version, MappingProxyType(groups), tuple(entries),
                    tuple(qualified))


def _parse_line(groups: dict, homs: dict, assertions: list, line: str,
                lineno: int, violations: list[Violation]):
    directive = line.split(None, 1)[0]
    if directive == "group":
        m = _GROUP_RE.match(line)
        if not m:
            raise ValueError("malformed group line")
        space = SpaceId.parse(m.group(1))
        degree = int(m.group(2))
        free_rank = int(m.group(3))
        torsion_text = m.group(4).strip()
        torsion = tuple(int(x) for x in torsion_text.split(",")) if torsion_text else ()
        labels_text = m.group(5)
        labels = () if labels_text == "-" else tuple(labels_text.split(","))
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
        entry = GroupEntry(space, degree, group, labels, m.group(6), lineno)
        if entry.key in groups:
            violations.append(Violation(
                "duplicate", subject, "second entry for the same group", lineno))
            return
        groups[entry.key] = entry
    elif directive == "hom":
        m = _HOM_RE.match(line)
        if not m:
            raise ValueError("malformed hom line")
        name = m.group(1)
        if name not in HOM_NAMES:
            violations.append(Violation(
                "parse", name,
                f"unknown homomorphism name (expected one of "
                f"{', '.join(sorted(HOM_NAMES))})", lineno))
            return
        source = (SpaceId.parse(m.group(2)), int(m.group(3)))
        target = (SpaceId.parse(m.group(4)), int(m.group(5)))
        matrix = _parse_matrix(m.group(6))
        entry = HomEntry(name, source, target, matrix, m.group(7), lineno)
        if entry.key in homs:
            violations.append(Violation(
                "duplicate", entry.ref(), "second entry for the same homomorphism",
                lineno))
            return
        homs[entry.key] = entry
    elif directive == "assert_exact":
        parts = line.split()
        if len(parts) != 3:
            raise ValueError("assert_exact needs exactly two hom references")
        refs = tuple(HomRef.parse(p) for p in parts[1:])
        assertions.append(Assertion("exact", refs, lineno))
    elif directive == "assert_zero":
        parts = line.split()
        if len(parts) != 2:
            raise ValueError("assert_zero needs exactly one hom reference")
        assertions.append(Assertion("zero", (HomRef.parse(parts[1]),), lineno))
    elif directive == "assert_surjective":
        parts = line.split()
        if len(parts) != 2:
            raise ValueError("assert_surjective needs exactly one hom reference")
        assertions.append(Assertion("surjective", (HomRef.parse(parts[1]),), lineno))
    else:
        raise ValueError(f"unrecognized directive {directive!r}")


# ---------------------------------------------------------------------------
# validation

def _resolve(groups, entry: HomEntry):
    """(map, None) for a well-defined entry, else (None, violation)."""
    missing = [f"pi_{m}({space})" for space, m in (entry.source, entry.target)
               if (space, m) not in groups]
    if missing:
        return None, Violation(
            "dangling_ref", entry.ref(),
            "references missing group entries: " + ", ".join(missing), entry.line)
    try:
        return Homomorphism(groups[entry.source].group, groups[entry.target].group,
                            entry.matrix), None
    except ValueError as exc:
        return None, Violation("ill_defined", entry.ref(), str(exc), entry.line)


def _lookup(entries, ref: HomRef, line: int):
    """(entry, None) for the one entry ref names, else (None, violation)."""
    found = [e for e in entries
             if e.name == ref.name
             and (ref.source is None or e.source == ref.source)
             and (ref.target is None or e.target == ref.target)]
    if len(found) == 1:
        return found[0], None
    if not found:
        return None, Violation("unknown_hom", str(ref),
                               "assertion references no homomorphism entry", line)
    return None, Violation("ambiguous_ref", str(ref),
                           "assertion matches several entries; qualify with "
                           "name:SRC,m->TGT,m", line)


def validate(db: Database) -> list[Violation]:
    """Check every invariant and recorded assertion; returns violations.

    Never raises and changes nothing: a clean database yields an empty
    list.
    """
    violations: list[Violation] = []
    for entry in db.homs:
        if entry.hom is None:
            violations.append(_resolve(db.groups, entry)[1])
        elif entry.name == "antipodal_A":
            if entry.source != entry.target:
                violations.append(Violation(
                    "not_automorphism", entry.ref(),
                    "antipodal action must be an endomorphism of one group",
                    entry.line))
            elif not (is_injective(entry.hom) and is_surjective(entry.hom)):
                violations.append(Violation(
                    "not_automorphism", entry.ref(),
                    "antipodal action must be an automorphism", entry.line))
    for assertion in db.assertions:
        entries = []
        for ref in assertion.refs:
            entry, problem = _lookup(db.homs, ref, assertion.line)
            if problem is not None:
                violations.append(problem)
            entries.append(entry)
        # an unresolved entry was already reported against the entry itself
        if any(e is None or e.hom is None for e in entries):
            continue
        if assertion.kind == "zero":
            if not entries[0].hom.is_zero_map():
                violations.append(Violation(
                    "assert_zero", entries[0].ref(),
                    "asserted to vanish but is a nonzero map", assertion.line))
        elif assertion.kind == "surjective":
            if not is_surjective(entries[0].hom):
                violations.append(Violation(
                    "assert_surjective", entries[0].ref(),
                    "asserted to be surjective but is not", assertion.line))
        elif assertion.kind == "exact":
            left, right = entries
            if left.target != right.source:
                violations.append(Violation(
                    "assert_exact", f"{left.ref()} , {right.ref()}",
                    "maps are not consecutive (left target differs from "
                    "right source)", assertion.line))
            elif not exact_at(left.hom, right.hom):
                violations.append(Violation(
                    "assert_exact", f"{left.ref()} , {right.ref()}",
                    "image of the left map differs from the kernel of the "
                    "right map", assertion.line))
    return violations


# ---------------------------------------------------------------------------
# loading / serialization

def loads(text: str, origin: str = "<string>") -> Database:
    """Parse and validate database text; raise DatabaseError on any violation."""
    db, violations = check(text, origin)
    if violations:
        raise DatabaseError(violations, origin)
    return db


def load(path) -> Database:
    """Load a database file; raise DatabaseError on any violation."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DatabaseError(
            [Violation("io", str(path), str(exc))], str(path)) from exc
    return loads(text, str(path))


def check(text: str, origin: str = "<string>"):
    """Parse + validate without raising; returns (db_or_None, violations)."""
    db, violations = _parse_text(text, origin)
    if db is not None:
        violations = violations + validate(db)
    return db, violations


def default_db_text() -> str:
    return (resources.files("nielsencalc") / "data" / "default.nielsendb"
            ).read_text(encoding="utf-8")


def load_default() -> Database:
    return loads(default_db_text(), "<default>")


def _quoted(subject: str, provenance: str) -> str:
    if '"' in provenance:
        raise ValueError(f"{subject}: a provenance cannot contain '\"'")
    return f'"{provenance}"'


def serialize(db: Database) -> str:
    """Canonical text form; loads(serialize(db)) equals db."""
    lines = [f"nielsendb {db.version}", ""]
    for entry in sorted(db.groups.values(), key=lambda e: (str(e.space), e.m)):
        torsion = ",".join(str(d) for d in entry.group.torsion)
        labels = ",".join(entry.labels) if entry.labels else "-"
        lines.append(
            f"group {entry.space} {entry.m} = {entry.group.free_rank} "
            f"[{torsion}] gens {labels} src "
            + _quoted(f"pi_{entry.m}({entry.space})", entry.provenance))
    for entry in sorted(db.homs, key=lambda e: str(e.key)):
        s, sm = entry.source
        t, tm = entry.target
        matrix = "[" + ",".join("[" + ",".join(str(x) for x in row) + "]"
                                for row in entry.matrix) + "]"
        lines.append(
            f"hom {entry.name} {s},{sm} -> {t},{tm} matrix {matrix} src "
            + _quoted(entry.ref(), entry.provenance))
    lines.extend(sorted(map(str, db.assertions)))
    return "\n".join(lines) + "\n"
