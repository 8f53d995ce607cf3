"""Decision engine for strong Nielsen and minimum coincidence numbers.

Covers three settings, all driven by exact homotopy-group data from a
validated database:

* pairs of maps S^m -> KP(n') with K in {R, C, H} and m, n' >= 2,
  classified into seven mutually exclusive cases with their
  (N#, MCC, MC) triples;
* pairs of maps S^m -> S^n, where the answer is controlled by the
  antipodal action (with a degree count on the circle);
* maps into spherical space forms S^n/G, where the deck group order
  controls the counts.

The classification consumes only the lift component of a projective
class: the complementary residue component never changes the numbers
and is merely echoed back as a note.  Everything it reads from the
database for one (K, m, n') comes from a single ProjectiveSlice.  Past
its parent checks a query reads canonical coordinates and returns a
shared immutable answer (the circle's alone is built per call).  An
answer stores (N#, MCC, MC), and its flags are read off them.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Optional, Union

from ._frozen import Frozen
from .fgab import GroupElement, _image_contains
from .homotopy_db import (FIELD_DIMS, Database, InsufficientDataError, SpaceId,
                          _int_at_least)

__all__ = [
    "INF",
    "Infinity",
    "ProjectiveClass",
    "CoincidenceAnswer",
    "SpaceFormQuery",
    "ClassificationError",
    "InconsistentDataError",
    "ProjectiveSlice",
    "table_conditions",
    "classify_projective",
    "classify_sphere_target",
    "classify_space_form",
    "reidemeister_count",
]


@total_ordering
class Infinity:
    """Exact stand-in for an infinite minimum coincidence number.

    Compares above every integer; the artifact never touches floats.
    """

    def __repr__(self):
        return "inf"

    def __eq__(self, other):
        return isinstance(other, Infinity)

    def __hash__(self):
        return hash("Infinity")

    def __lt__(self, other):
        if not isinstance(other, (int, Infinity)):
            return NotImplemented
        return False


INF = Infinity()

Count = int | Infinity     # typing.Union would cost ~50 µs at import


class ClassificationError(ValueError):
    """A precondition of the classification was violated."""


class InconsistentDataError(ClassificationError):
    """The database entries of a slice contradict the seven-case table."""


# case -> (condition, (N#, MCC, MC)): the paper's seven-row table
_TABLE: dict[int, tuple[str, tuple[Count, Count, Count]]] = {
    1: ("f'_1 ~ f'_2, [f~_2] in ker ∂_K", (0, 0, 0)),
    2: ("f'_1 ~ f'_2, [f~_2] in ker E∘∂_K - ker ∂_K", (0, 1, 1)),
    3: ("K = R, f'_1 ~ f'_2, f~_2 !~ A∘f~_2", (1, 1, 1)),
    4: ("K = R, f'_1 !~ f'_2, [f~_1] - [f~_2] in E(pi_{m-1}(S^{n-1}))",
        (2, 2, 2)),
    5: ("K = R, [f~_1] - [f~_2] not in E(pi_{m-1}(S^{n-1}))", (2, 2, INF)),
    6: ("K = C or H, [f~_1] = [f~_2] not in ker E∘∂_K", (1, 1, 1)),
    7: ("K = C or H, [f~_1] != [f~_2]", (1, 1, INF)),
}


class ProjectiveClass(Frozen):
    """A homotopy class in pi_m(KP(n')), split as lift plus residue.

    The lift lives in pi_m(S^{d n' + d - 1}); the residue is the
    component coming from KP(n'-1) and lives in pi_{m-1}(S^{d-1}) (a
    trivial group for K = R, and for K = C once m > 2).
    """

    __slots__ = ("K", "m", "nprime", "lift", "residue")

    def __init__(self, K: str, m: int, nprime: int, lift: GroupElement,
                 residue: Optional[GroupElement] = None):
        if K not in FIELD_DIMS:
            raise ClassificationError(f"K must be R, C or H, got {K!r}")
        if not (_int_at_least(m, 1) and _int_at_least(nprime, 1)):
            raise ClassificationError("m and n' must be >= 1")
        if K == "R" and residue is not None:
            raise ClassificationError(
                "for K = R the residue group is trivial; drop the residue")
        super().__init__(K, m, nprime, lift, residue)


def _check_slice_key(K: str, m: int, nprime: int) -> None:  # of S^m -> KP(n')
    if K not in FIELD_DIMS:
        raise ClassificationError(f"K must be R, C or H, got {K!r}")
    if not (_int_at_least(m, 2) and _int_at_least(nprime, 2)):
        raise ClassificationError("the classification needs m >= 2 and n' >= 2")


def _sphere_key(db: Database, m: int, n: int) -> tuple[SpaceId, int]:  # of pi_m(S^n)
    # exact ints are checked inline; anything else goes through the rule
    if not (m >= 1 and n >= 1 if type(m) is type(n) is int
            else _int_at_least(m, 1) and _int_at_least(n, 1)):
        raise ClassificationError("m and n must be >= 1")
    return db._spheres.get(n) or SpaceId.sphere(n), m


class ProjectiveSlice(Frozen):
    """The database data for maps S^m -> KP(n'), one per (K, m, n').

    With n = d n', boundary is ∂_K from the lift group pi_m(S^{n+d-1}),
    its source, into pi_{m-1}(S^{n-1}); suspension is E into pi_m(S^n),
    and antipodal is the action A on the lift group (K = R only; None for
    K = C or H, or when the database lacks it).
    """

    __slots__ = ("K", "m", "nprime", "boundary", "suspension", "antipodal")

    @classmethod
    def resolve(cls, db: Database, K: str, m: int, nprime: int,
                lifts: tuple[GroupElement, ...],
                residues: tuple[GroupElement, ...] = ()) -> "ProjectiveSlice":
        """Look the slice up and check that the lifts and residues live in
        their groups.  The residue group pi_{m-1}(S^{d-1}) is read only
        when a residue is given.  A missing A leaves antipodal None, so a
        self-pair, which has no two lifts to compare, still resolves.  The
        slice is memoised on the database by (K, m, n'); a failed lookup
        is not, and the lifts and residues are checked on every call."""
        key = (K, m, nprime)    # 11.0 and True hash like ints: only ints hit
        s = db._slices.get(key) if type(m) is type(nprime) is int else None
        if s is None:
            _check_slice_key(K, m, nprime)
            n = FIELD_DIMS[K] * nprime
            lift_key = (SpaceId.lift_sphere(K, nprime), m)
            db.require_group(*lift_key)     # reported before a missing ∂
            low, high = (SpaceId.sphere(n - 1), m - 1), (SpaceId.sphere(n), m)
            boundary = db.require_hom_entry("boundary_K", lift_key, low)
            suspension = db.require_hom_entry("suspension_E", low, high)
            try:
                antipodal = (db.require_hom_entry(
                    "antipodal_A", lift_key, lift_key) if K == "R" else None)
            except InsufficientDataError:   # table_conditions requires it
                antipodal = None
            # setdefault: concurrent first calls all return one slice
            s = db._slices.setdefault(key, cls(
                K, m, nprime, boundary, suspension, antipodal))
        group = s.boundary.hom.source
        for lift in lifts:
            if lift.parent is not group and lift.parent != group:
                raise ClassificationError(
                    f"lift must live in pi_{m}({s.boundary.source[0]}) = {group}")
        if residues:
            d = FIELD_DIMS[K]
            residue_group = db.require_group(SpaceId.sphere(d - 1), m - 1)
            if any(residue.parent != residue_group for residue in residues):
                raise ClassificationError(
                    f"residue must live in pi_{m - 1}(S({d - 1})) = {residue_group}")
        return s


class CoincidenceAnswer(Frozen):
    """(case, N#, MCC, MC); omega# = 0 iff N# = 0, and loose iff MCC = 0.

    None marks a genuinely undetermined count or flag (the space-form
    cases can leave them open); INF is the exact answer infinity.
    """

    __slots__ = ("case_id", "condition", "nielsen", "mcc", "mc", "notes")

    def __init__(self, case_id: Union[int, str], condition: str,
                 nielsen: Optional[int], mcc: Optional[int], mc: Optional[Count],
                 notes: tuple[str, ...] = ()):
        if None not in (nielsen, mcc) and not nielsen <= mcc:
            raise ClassificationError("invariant violated: N# <= MCC")
        if None not in (mcc, mc) and not mcc <= mc:
            raise ClassificationError("invariant violated: MCC <= MC")
        super().__init__(case_id, condition, nielsen, mcc, mc, notes)

    @property
    def triple(self):
        return (self.nielsen, self.mcc, self.mc)

    @property
    def omega_sharp_zero(self) -> Optional[bool]:
        return None if self.nielsen is None else self.nielsen == 0

    @property
    def loose(self) -> Optional[bool]:
        return None if self.mcc is None else self.mcc == 0

    @property
    def loose_small(self) -> Optional[bool]:
        """Loose by small deformation: loose for the projective cases."""
        return self.loose if isinstance(self.case_id, int) else None


class SpaceFormQuery(Frozen):
    """Inputs for the spherical space form S^n/G setting."""

    __slots__ = ("group_order", "n", "homotopic")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if not _int_at_least(self.group_order, 2):
            raise ClassificationError("group order must be a finite integer >= 2")
        if not _int_at_least(self.n, 1):
            raise ClassificationError("n must be an integer >= 1")
        if not isinstance(self.homotopic, bool):
            raise ClassificationError("homotopic must be True or False")
        if self.n % 2 == 0 and self.group_order != 2:
            raise ClassificationError(
                "no nontrivial finite group of order > 2 acts freely on an "
                "even sphere")


# ---------------------------------------------------------------------------
# the seven-case classification

def table_conditions(db: Database, f1: ProjectiveClass,
                     f2: ProjectiveClass) -> tuple[bool, ...]:
    """Evaluate the seven case conditions in table order, on canonical
    coordinates: resolve has checked the lifts' parents.  One tuple serves
    every K, with "K = R" and "K = C or H" as conjuncts.  It is the literal
    tuple less two evaluations: E∂[f~_2], read only by conditions 2 and 6
    under free homotopy and ∂[f~_2] != 0; and the im E solve of 0 = f~_1 - f~_2."""
    if (f1.K, f1.m, f1.nprime) != (f2.K, f2.m, f2.nprime):
        raise ClassificationError("the two classes must share (K, m, n')")
    s = ProjectiveSlice.resolve(
        db, f1.K, f1.m, f1.nprime, (f1.lift, f2.lift),
        tuple(f.residue for f in (f1, f2) if f.residue is not None))
    lift1, lift2 = f1.lift.coords, f2.lift.coords
    b2 = s.boundary.hom._apply(lift2)
    b2_zero = not any(b2)
    real = s.K == "R"
    if real and s.antipodal is None:    # raises: only classify requires A
        db.require_hom_entry("antipodal_A", s.boundary.source, s.boundary.source)
    a2 = s.antipodal.hom._apply(lift2) if real else lift2   # A∘f~_2
    free_homotopic = lift1 == lift2 or lift1 == a2
    eb2_zero = (not free_homotopic or b2_zero     # True where it is unread
                or not any(s.suspension.hom._apply(b2)))
    diff_in_im_e = real and (lift1 == lift2 or _image_contains(
        s.suspension.hom, [a - b for a, b in zip(lift1, lift2)]))
    return (
        free_homotopic and b2_zero,
        free_homotopic and eb2_zero and not b2_zero,
        real and free_homotopic and lift2 != a2,
        real and not free_homotopic and diff_in_im_e,
        real and not diff_in_im_e,
        not real and free_homotopic and not eb2_zero,
        not real and not free_homotopic,
    )


_CASE_ANSWERS = {
    (case, residue): CoincidenceAnswer(
        case, condition, *triple,
        notes=("residue present, numbers unaffected",) if residue else ())
    for case, (condition, triple) in _TABLE.items()
    for residue in (False, True)}


def classify_projective(db: Database, f1: ProjectiveClass,
                        f2: ProjectiveClass) -> CoincidenceAnswer:
    """Classify a pair of classes in pi_m(KP(n')), m, n' >= 2.

    Returns the matching case with its exact (N#, MCC, MC) triple.  All
    seven conditions are evaluated and exactly one must hold; otherwise
    the database data contradicts the table and InconsistentDataError
    names the entries involved.
    """
    conditions = table_conditions(db, f1, f2)
    if conditions.count(True) != 1:
        fired = [i + 1 for i, holds in enumerate(conditions) if holds]
        s = ProjectiveSlice.resolve(db, f1.K, f1.m, f1.nprime, ())
        refs = ", ".join(e.ref() for e in (s.boundary, s.suspension, s.antipodal)
                         if e is not None)
        what = (f"conditions {fired} fired" if fired
                else "no case condition fired")
        raise InconsistentDataError(
            f"{what} for (K={f1.K}, m={f1.m}, n'={f1.nprime}, lifts "
            f"{f1.lift.coords}/{f2.lift.coords}); the entries {refs} "
            f"contradict the seven-case table")
    residue = ((f1.residue is not None and not f1.residue.is_zero)
               or (f2.residue is not None and not f2.residue.is_zero))
    return _CASE_ANSWERS[conditions.index(True) + 1, residue]


# ---------------------------------------------------------------------------
# sphere targets

_SPHERE_LOOSE = CoincidenceAnswer("sphere-loose", "f_1 ~ A∘f_2", 0, 0, 0)
_SPHERE_ESSENTIAL = CoincidenceAnswer(
    "sphere-essential", "f_1 !~ A∘f_2: one Reidemeister class, strongly "
    "essential", 1, 1, 1)


def classify_sphere_target(db: Database, m: int, n: int,
                           class1: GroupElement, class2: GroupElement
                           ) -> CoincidenceAnswer:
    """Coincidence numbers for a pair of classes in pi_m(S^n).

    The pair is loose exactly when class1 agrees with the database's
    antipodal_A image of class2; otherwise all three numbers equal the
    number of Reidemeister classes (1 for n >= 2, and the degree
    difference on the circle, where N#, MCC and MC coincide).
    """
    key = _sphere_key(db, m, n)
    group = db.require_group(*key)
    for c in (class1, class2):
        if c.parent is not group and c.parent != group:
            raise ClassificationError(
                f"classes must live in pi_{m}(S({n})) = {group}")
    if group.is_trivial:
        related = True
    else:
        antipodal = db.require_hom_entry("antipodal_A", key, key).hom
        related = class1.coords == antipodal._apply(class2.coords)
    if related:
        return _SPHERE_LOOSE
    if m == 1 and n == 1:
        count = abs(class1.coords[0] - class2.coords[0])
        return CoincidenceAnswer(
            case_id="circle",
            condition="f_1 !~ A∘f_2 on the circle: |deg f_1 - deg f_2| points",
            nielsen=count, mcc=count, mc=count)
    if m < n or n == 1:
        # pi_m(S^n) = 0 for m < n, and pi_m(S^1) = 0 for m >= 2, so only a
        # database that claims a nontrivial such group gets here
        raise InconsistentDataError(
            f"the database gives pi_{m}(S({n})) = {group}, but every map "
            f"S^{m} -> S^{n} is nullhomotopic")
    # here m >= n >= 2 and the Reidemeister set is a singleton
    return _SPHERE_ESSENTIAL


# ---------------------------------------------------------------------------
# spherical space forms

def classify_space_form(query: SpaceFormQuery) -> CoincidenceAnswer:
    """Nielsen and MCC counts for maps into S^n/G.

    Odd n gives the full dichotomy 0 versus #G.  Even n forces #G = 2;
    a non-homotopic pair pins N# = MCC = #G by contradiction, while a
    homotopic pair stays indeterminate (carried in the notes).
    """
    g = query.group_order
    if query.n % 2 == 1:
        if query.homotopic:
            return CoincidenceAnswer(
                case_id="spaceform-loose",
                condition="odd n, f_1 ~ f_2",
                nielsen=0, mcc=0, mc=0,
                notes=("MC = 0 forced: MCC = 0 means the pair is loose",))
        return CoincidenceAnswer(
            case_id="spaceform-full",
            condition="odd n, f_1 !~ f_2",
            nielsen=g, mcc=g, mc=None,
            notes=("MC not determined in this setting",))
    if not query.homotopic:
        return CoincidenceAnswer(
            case_id="spaceform-even-full",
            condition="even n, f_1 !~ f_2",
            nielsen=g, mcc=g, mc=None,
            notes=(
                f"N# in {{0,...,{g}}}; N# != {g} would force f_1 ~ f_2, "
                f"contradicting homotopic=false; hence N# = {g}",
                f"MCC = {g}: N# <= MCC <= #pi_0(E) = #G = {g}",
            ))
    return CoincidenceAnswer(
        case_id="spaceform-even-indeterminate",
        condition="even n, f_1 ~ f_2",
        nielsen=None, mcc=None, mc=None,
        notes=(
            "indeterminate: for a homotopic pair on an even space form "
            "N# and MCC lie in {0, 1} but are not fixed by the inputs",
        ))


# ---------------------------------------------------------------------------
# Reidemeister cardinalities

def reidemeister_count(K: str, m: int) -> int:
    """Number of Reidemeister classes for maps S^m -> KP(n'), m >= 2."""
    if K not in FIELD_DIMS:
        raise ClassificationError(f"K must be R, C or H, got {K!r}")
    if not _int_at_least(m, 2):
        raise ClassificationError("Reidemeister count needs m >= 2")
    return 2 if K == "R" else 1
