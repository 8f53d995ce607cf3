"""Independent brute-force oracles used by the test suite.

Everything here is deliberately naive: exhaustive enumeration, fraction
free determinants, closure of generating sets.  The brute-force oracles
share no code with the lattice machinery they check.  reference_snf,
reference_exact_at and reference_table_conditions are frozen earlier
algorithms instead, which faster code must agree with; the last two rely
on kernel and in_image, which the enumeration oracles check.
reference_cli reads a nielsencalc argv by the command-line grammar
written out a second time, apart from the program's option table.
"""

from __future__ import annotations

import math
import random
import re
from itertools import product
from types import MappingProxyType, SimpleNamespace
from typing import Optional, Sequence

from nielsencalc.classifier import (
    ClassificationError,
    ProjectiveClass,
    ProjectiveSlice,
)
from nielsencalc.fgab import (
    FgAbGroup,
    GroupElement,
    Homomorphism,
    Subgroup,
    exact_at,
    in_image,
    is_surjective,
    kernel,
)
from nielsencalc.homotopy_db import (
    HOM_NAMES,
    Assertion,
    Database,
    GroupEntry,
    HomEntry,
    HomRef,
    SpaceId,
    Violation,
    _max_str_digits,
)


def det(matrix) -> int:
    """Exact integer determinant (Bareiss fraction-free elimination)."""
    a = [list(row) for row in matrix]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def mat_mul(a, b):
    rows = len(a)
    inner = len(b)
    cols = len(b[0]) if inner else 0
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(rows)]


def is_diagonal(matrix) -> bool:
    return all(x == 0 for i, row in enumerate(matrix)
               for j, x in enumerate(row) if i != j)


def divisibility_chain_holds(matrix) -> bool:
    n = min(len(matrix), len(matrix[0]) if matrix else 0)
    diag = [matrix[i][i] for i in range(n)]
    for a, b in zip(diag, diag[1:]):
        if a == 0 and b != 0:
            return False
        if a != 0 and b % a != 0:
            return False
    return True


def brute_kernel(h: Homomorphism) -> set[GroupElement]:
    return {x for x in h.source.elements() if h(x).is_zero}


def brute_image(h: Homomorphism) -> set[GroupElement]:
    return {h(x) for x in h.source.elements()}


def span_closure(s: Subgroup) -> set[GroupElement]:
    """All elements generated by a subgroup's generators (finite ambient)."""
    zero = s.ambient.zero()
    seen = {zero}
    frontier = [zero]
    while frontier:
        x = frontier.pop()
        for g in s.generators:
            for step in (g, -g):
                y = x + step
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return seen


def all_finite_groups(max_order: int, max_factors: int = 3) -> list[FgAbGroup]:
    """Every abelian group of order <= max_order with <= max_factors
    invariant factors, trivial group included."""
    groups = [FgAbGroup(0, ())]
    chains: list[tuple[int, ...]] = [()]
    for _ in range(max_factors):
        new = []
        for chain in chains:
            last = chain[-1] if chain else 1
            d = last if last >= 2 else 2
            while True:
                order = d
                for x in chain:
                    order *= x
                if order > max_order:
                    break
                new.append(chain + (d,))
                d += last
        chains = new
        groups.extend(FgAbGroup(0, c) for c in new)
    return groups


def all_homs(source: FgAbGroup, target: FgAbGroup) -> list[Homomorphism]:
    """Every homomorphism between finite groups: each generator of order d
    goes to each element of the target that d kills."""
    images = [[y for y in target.elements() if (d * y).is_zero]
              for d in source.torsion]
    return [Homomorphism(source, target,
                         [[y.coords[i] for y in column] for i in range(target.dim)])
            for column in product(*images)]


def all_slices(max_order: int):
    """Every K = R slice over the groups of order <= max_order, as
    (∂, E, A): the lift group L and M = pi_{m-1}(S^{n-1}) range over those
    groups, with every ∂: L -> M, every E: M -> L and every automorphism
    A of L, found by the size of its image."""
    groups = all_finite_groups(max_order)
    for lift in groups:
        autos = [a for a in all_homs(lift, lift)
                 if len(brute_image(a)) == lift.order()]
        for low in groups:
            yield from product(all_homs(lift, low), all_homs(low, lift), autos)


def random_well_defined_hom(rng: random.Random, source: FgAbGroup,
                            target: FgAbGroup) -> Homomorphism:
    """Random homomorphism: each source generator of order d is sent to a
    random element of the d-torsion subgroup of the target."""
    tf = target.free_rank
    cols = []
    for j in range(source.dim):
        if j < source.free_rank:
            col = [rng.randint(-20, 20) for _ in range(target.dim)]
        else:
            d = source.torsion[j - source.free_rank]
            col = []
            for i in range(target.dim):
                if i < tf:
                    col.append(0)
                else:
                    e = target.torsion[i - tf]
                    step = e // math.gcd(d, e)
                    col.append(step * rng.randint(0, math.gcd(d, e)))
        cols.append(col)
    matrix = [[cols[j][i] for j in range(source.dim)] for i in range(target.dim)]
    return Homomorphism(source, target, matrix)


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zero_hom(source: FgAbGroup, target: FgAbGroup) -> Homomorphism:
    return Homomorphism(source, target,
                        [[0] * source.dim for _ in range(target.dim)])


def identity_hom(group: FgAbGroup) -> Homomorphism:
    return Homomorphism(group, group, _identity(group.dim))


def compose(g: Homomorphism, h: Homomorphism) -> Homomorphism:
    """The composite x -> g(h(x)); requires h.target = g.source."""
    if h.target != g.source:
        raise ValueError("shape mismatch: h.target must equal g.source")
    # h has no rows when its target is trivial; zip(*()) cannot recover
    # its source.dim columns
    cols = list(zip(*h.matrix)) if h.matrix else [()] * h.source.dim
    prod = [[sum(a * b for a, b in zip(row, col)) for col in cols]
            for row in g.matrix]
    return Homomorphism(h.source, g.target, prod)


def reference_snf(matrix: Sequence[Sequence[int]], nrows: int, ncols: int):
    """Return (U, D, V, rank) with U*matrix*V = D.

    A frozen copy of the straightforward Smith normal form that
    nielsencalc.fgab._snf must reproduce exactly: same pivots, same U, D
    and V.  It updates whole rows and columns with index loops and
    always builds both transforms.

    D is diagonal with nonnegative entries forming a divisibility chain
    (zeros at the end), U and V are unimodular.  Pivots are chosen as the
    entry of minimal absolute value, first occurrence in row-major order;
    this makes the output deterministic.
    """
    a = [list(row) for row in matrix]
    u = _identity(nrows)
    v = _identity(ncols)
    t = 0
    while t < nrows and t < ncols:
        # pivot: minimal absolute value, first in row-major order
        pivot = None
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            for row in v:
                row[t], row[pj] = row[pj], row[t]
        p = a[t][t]
        # clear below and to the right of the pivot; a nonzero remainder
        # becomes a strictly smaller pivot on the next pass
        dirty = False
        for i in range(t + 1, nrows):
            if a[i][t]:
                q = a[i][t] // p
                if q:
                    for j in range(ncols):
                        a[i][j] -= q * a[t][j]
                    for j in range(nrows):
                        u[i][j] -= q * u[t][j]
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, ncols):
            if a[t][j]:
                q = a[t][j] // p
                if q:
                    for i in range(nrows):
                        a[i][j] -= q * a[i][t]
                    for i in range(ncols):
                        v[i][j] -= q * v[i][t]
                if a[t][j]:
                    dirty = True
        if dirty:
            continue
        # divisibility: fold an offending row into row t and re-reduce
        bad = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if a[i][j] % p != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            for j in range(ncols):
                a[t][j] += a[bad][j]
            for j in range(nrows):
                u[t][j] += u[bad][j]
            continue
        t += 1
    rank = 0
    for i in range(min(nrows, ncols)):
        if a[i][i] < 0:
            for j in range(ncols):
                a[i][j] = -a[i][j]
            for j in range(nrows):
                u[i][j] = -u[i][j]
        if a[i][i] != 0:
            rank += 1
    return u, a, v, rank


def reference_exact_at(left: Homomorphism, right: Homomorphism) -> bool:
    """Is im(left) = ker(right)?  The membership criterion that
    nielsencalc.fgab.exact_at replaced by a comparison of invariant
    factors: im(left) <= ker(right) by a zero composite, then every
    kernel generator of right must lie in the image of left."""
    if left.target != right.source:
        raise ValueError("shape mismatch: left.target must equal right.source")
    if not compose(right, left).is_zero_map():
        return False
    return all(in_image(left, k)[0] for k in kernel(right).generators)


def reference_table_conditions(db: Database, f1: ProjectiveClass,
                               f2: ProjectiveClass) -> tuple[bool, ...]:
    """classifier.table_conditions as it was before it moved to coordinate
    tuples: the conditions evaluated on GroupElements.  Copied verbatim,
    except that the im E test, then a private helper taking an element,
    is in_image's found."""
    if (f1.K, f1.m, f1.nprime) != (f2.K, f2.m, f2.nprime):
        raise ClassificationError("the two classes must share (K, m, n')")
    s = ProjectiveSlice.resolve(
        db, f1.K, f1.m, f1.nprime, (f1.lift, f2.lift),
        tuple(f.residue for f in (f1, f2) if f.residue is not None))
    lift1, lift2 = f1.lift, f2.lift
    b2 = s.boundary.hom(lift2)
    eb2 = s.suspension.hom(b2)
    if s.K == "R":
        a2 = s.antipodal.hom(lift2)
        free_homotopic = lift1 == lift2 or lift1 == a2
        diff_in_im_e = in_image(s.suspension.hom, lift1 - lift2)[0]
        return (
            free_homotopic and b2.is_zero,
            free_homotopic and eb2.is_zero and not b2.is_zero,
            free_homotopic and lift2 != a2,
            not free_homotopic and diff_in_im_e,
            not diff_in_im_e,
            False,
            False,
        )
    equal = lift1 == lift2
    return (
        equal and b2.is_zero,
        equal and eb2.is_zero and not b2.is_zero,
        False,
        False,
        False,
        equal and not eb2.is_zero,
        not equal,
    )


# ---------------------------------------------------------------------------
# the nielsendb v1 grammar as seven regular expressions: homotopy_db's
# parser, validation included, before it moved to str methods, which must
# accept the same text and give the same entries and violations.  Moved
# here verbatim; only SpaceId.parse, HomRef.parse and validate became the
# functions _space_parse, _homref_parse and _validate, and a number became
# _NUM: no longer than int() converts (0 digits: no limit).  _validate
# checks plain resolved entries, and the program's Database, which
# validates by its own code, is built only from entries _validate found
# valid.  Comments are
# stripped by reference_strip_comment, the earlier definition of
# homotopy_db._strip_comment.  A token that a message quotes goes through
# _shown, the README's rule for long tokens.

_MAX_DIGITS = _max_str_digits()
_NUM = f"[0-9]{{1,{_MAX_DIGITS or ''}}}"
_SPHERE_RE = re.compile(rf"S\(({_NUM})\)")
_SPACE_RE = re.compile(rf"([VP])\(([RCH]),({_NUM})\)")


def reference_strip_comment(raw: str) -> str:
    """The part of a line before its first '#' outside double quotes,
    counting the quotes before each '#' (quadratic in the line length)."""
    end = raw.find("#")
    while end >= 0 and raw.count('"', 0, end) % 2:
        end = raw.find("#", end + 1)
    return raw if end < 0 else raw[:end]


def _shown(token: str) -> str:
    """A token as a violation shows it: whole up to 40 characters, else its
    first 40 characters followed by "…[N characters]", N its length."""
    if len(token) > 40:
        return token[:40] + "…[" + str(len(token)) + " characters]"
    return token


def _space_parse(text: str) -> SpaceId:
    m = _SPHERE_RE.fullmatch(text)
    if m:
        return SpaceId.sphere(int(m.group(1)))
    m = _SPACE_RE.fullmatch(text)
    if m:
        return SpaceId(m.group(1), m.group(2), int(m.group(3)))
    raise ValueError(f"cannot parse space {_shown(text)!r}")


def _homref_parse(token: str) -> HomRef:
    name, _, rest = token.partition(":")
    if name not in HOM_NAMES:
        raise ValueError(f"unknown homomorphism name {_shown(name)!r}")
    if not rest:
        return HomRef(name)
    src_text, arrow, tgt_text = rest.partition("->")
    if not arrow:
        raise ValueError(f"qualified hom reference {_shown(token)!r} needs '->'")
    return HomRef(name, _parse_space_m(src_text), _parse_space_m(tgt_text))


# numbers are ASCII digits: \d and int() would also take other scripts'
# digits, and int() a sign or underscores
_GROUP_RE = re.compile(
    rf'^group\s+(\S+)\s+({_NUM})\s*=\s*({_NUM})\s*'
    rf'\[\s*((?:{_NUM}(?:\s*,\s*{_NUM})*)?)\s*\]\s+gens\s+([^\s"]+)'
    r'\s+src\s+"([^"]*)"$')
_HOM_RE = re.compile(
    rf'^hom\s+(\w+)\s+(\S+?),({_NUM})\s*->\s*(\S+?),({_NUM})\s+matrix\s+(\[.*\])'
    r'\s+src\s+"([^"]*)"$')
_VERSION_RE = re.compile(r'^nielsendb\s+(\S+)$')


def _parse_space_m(text: str) -> tuple[SpaceId, int]:
    space_text, comma, m_text = text.strip().rpartition(",")
    if not comma or not re.fullmatch(_NUM, m_text):
        raise ValueError(f"expected <space>,<m>, got {_shown(text)!r}")
    return _space_parse(space_text.strip()), int(m_text)


# A matrix literal is a list of rows, each a list of decimal integers
# with an optional '-'.  The shape is checked by one non-nesting regular
# expression, so bracket depth costs no recursion.
_INT = rf"-?(?:0|[1-9][0-9]{{0,{_MAX_DIGITS - 1 if _MAX_DIGITS else ''}}})"
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
        line = reference_strip_comment(raw).strip()
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
    return _resolved(version, groups, homs, assertions), violations


def _resolved(version, groups, homs, assertions) -> SimpleNamespace:
    """Resolve every hom entry against the groups and qualify every bare
    assertion reference that names a single entry, so that
    serialize(load(f)) parses back to an equal database: plain entries,
    which no code of the program has checked."""
    entries = []
    for entry in homs.values():
        hom, _ = _resolve(groups, entry)
        entries.append(entry if hom is None
                       else entry.replace(matrix=hom.matrix, hom=hom))
    qualified = []
    for assertion in assertions:
        refs = []
        for ref in assertion.refs:
            entry, _ = _lookup(entries, ref, assertion.line)
            refs.append(ref if entry is None else HomRef(*entry.key))
        qualified.append(Assertion(assertion.kind, tuple(refs), assertion.line))
    return SimpleNamespace(version=version, groups=MappingProxyType(groups),
                           homs=tuple(entries), assertions=tuple(qualified))


def _build(parsed: SimpleNamespace) -> Database:
    """The program's Database of entries that _validate found valid."""
    db = Database(parsed.version, parsed.groups, parsed.homs, parsed.assertions)
    # Database resolves and qualifies again with the program's own rules;
    # it must leave the reference's answer as it is
    assert [(e.key, e.matrix) for e in db.homs] == [
        (e.key, e.matrix) for e in parsed.homs]
    assert db.assertions == parsed.assertions
    return db


def _parse_line(groups: dict, homs: dict, assertions: list, line: str,
                lineno: int, violations: list[Violation]):
    directive = line.split(None, 1)[0]
    if directive == "group":
        m = _GROUP_RE.match(line)
        if not m:
            raise ValueError("malformed group line")
        space = _space_parse(m.group(1))
        degree = int(m.group(2))
        free_rank = int(m.group(3))
        torsion_text = m.group(4)
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
                "parse", _shown(name),
                f"unknown homomorphism name (expected one of "
                f"{', '.join(sorted(HOM_NAMES))})", lineno))
            return
        source = (_space_parse(m.group(2)), int(m.group(3)))
        target = (_space_parse(m.group(4)), int(m.group(5)))
        matrix = _parse_matrix(m.group(6))
        entry = HomEntry(name, source, target, matrix, m.group(7), lineno)
        if entry.key in homs:
            violations.append(Violation(
                "duplicate", entry.ref(), "second entry for the same homomorphism",
                lineno))
            return
        homs[entry.key] = entry
    elif directive in ("assert_exact", "assert_zero", "assert_surjective"):
        exact = directive == "assert_exact"
        refs = line.split()[1:]
        if len(refs) != (2 if exact else 1):
            raise ValueError(f"{directive} needs exactly " + (
                "two hom references" if exact else "one hom reference"))
        assertions.append(Assertion(directive.removeprefix("assert_"),
                                    tuple(_homref_parse(r) for r in refs), lineno))
    else:
        raise ValueError(f"unrecognized directive {_shown(directive)!r}")


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


def _validate(db: SimpleNamespace) -> list[Violation]:
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
            elif not is_surjective(entry.hom):
                # a surjective endomorphism of a f.g. abelian group is
                # injective (Hopfian), so surjectivity decides automorphy
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


def reference_check(text: str, origin: str = "<string>"):
    """homotopy_db.check as the regular-expression parser gave it, with no
    database where validation finds a violation."""
    parsed, violations = _parse_text(text, origin)
    if parsed is None:
        return None, violations
    problems = _validate(parsed)
    if problems:
        return None, violations + problems
    return _build(parsed), violations


# ---------------------------------------------------------------------------
# the nielsencalc command line, written out apart from cli.COMMANDS: each
# option of each command with its values (a tuple of choices, int or str),
# whether it is required, and its default.  reference_cli reads an argv by
# it, token by token, with regular expressions for the integers.

_CLI_COMMON = {"--db": (str, False, None)}
# an answer command's format; db-validate and db-show print one text only
_CLI_OUTPUT = {"--output": (("text", "machine"), False, "text")}
_CLI_SLICE = {"--K": (("R", "C", "H"), True, None), "--m": (int, True, None),
              "--nprime": (int, True, None)}
_CLI_PAIR = {"--f1": (str, True, None), "--f2": (str, True, None)}
CLI_GRAMMAR = {
    "classify": {**_CLI_OUTPUT, **_CLI_SLICE, **_CLI_PAIR,
                 "--residue1": (str, False, None), "--residue2": (str, False, None)},
    "self": {**_CLI_OUTPUT, **_CLI_SLICE, "--f": (str, True, None)},
    "sphere": {**_CLI_OUTPUT, "--m": (int, True, None), "--n": (int, True, None),
               **_CLI_PAIR},
    "spaceform": {**_CLI_OUTPUT, "--order": (int, True, None),
                  "--n": (int, True, None),
                  "--homotopic": (("true", "false"), True, None)},
    "db-validate": {},
    "db-show": {},
}


def reference_cli(argv: Sequence[str]):
    """What the nielsencalc grammar makes of argv: ("help", None) for the
    help of nielsencalc, ("help", command) for the help of a command,
    ("args", namespace) for a call, and None for an argv it refuses.  The
    first help token or fault, left to right, decides.  A name is matched
    whole and given once; a value is joined by '=' and is not '--', or is
    the next token, which starts with '-' only as a negative integer."""
    if argv and argv[0] in ("-h", "--help"):
        return ("help", None)
    if not argv or argv[0] not in CLI_GRAMMAR:
        return None
    options = {**_CLI_COMMON, **CLI_GRAMMAR[argv[0]]}
    given = {}
    rest = list(argv[1:])
    while rest:
        token = rest.pop(0)
        if token in ("-h", "--help"):
            return ("help", argv[0])
        if "=" in token:
            name, value = token.split("=", 1)
            if value == "--":
                return None
        elif rest and re.fullmatch(r"[^-].*|-[0-9]+|", rest[0], re.DOTALL):
            name, value = token, rest.pop(0)
        else:
            return None
        if name not in options or name in given:
            return None
        kind = options[name][0]
        if kind is int:
            if not re.fullmatch(r"-?[0-9]+", value.strip()):
                return None
            value = int(value)
        elif kind is not str and value not in kind:
            return None
        given[name] = value
    if any(required and name not in given
           for name, (_, required, _) in options.items()):
        return None
    return ("args", {"command": argv[0],
                     **{name[2:]: given.get(name, default)
                        for name, (_, _, default) in options.items()}})
