"""Exact arithmetic for finitely generated abelian groups.

Groups are kept in invariant-factor form: a free rank together with a
divisibility chain of torsion coefficients d_1 | d_2 | ... | d_k, each
d_i >= 2.  Elements are integer coordinate vectors relative to the
canonical generators (free coordinates first, then one coordinate per
torsion factor, stored reduced mod its factor), and homomorphisms are
integer matrices whose column j gives the target coordinates of the
image of source generator j.

Everything reduces to Smith normal form over Z of the matrices that one
builder, _with_relations, writes: the rows of one or more maps, then a
column per torsion relation of their targets.  Each homomorphism caches
one SNF of its own, with only the transforms asked for.  An onto map's
image type is its target, read off D.  exact_at compares invariant
factors, which suffices because f.g. abelian groups are Hopfian, and
tests the composite row by row without building it.
A query that holds canonical coordinates needs no GroupElement:
Homomorphism._apply maps them to canonical target coordinates and
_image_contains tests them against im(h), neither checking its input.
All integers are arbitrary precision and every value is immutable after
construction, so values can be shared freely between threads.
"""

from __future__ import annotations

import math
from itertools import chain, product
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence

from ._frozen import Frozen, setfield

__all__ = [
    "FgAbGroup",
    "GroupElement",
    "Homomorphism",
    "Subgroup",
    "smith_normal_form",
    "kernel",
    "in_image",
    "is_surjective",
    "paired_injective",
    "exact_at",
]


# ---------------------------------------------------------------------------
# integer matrix helpers (lists of rows; shapes passed explicitly so that
# matrices with zero rows or zero columns stay unambiguous)

def _int_type(cls: type) -> bool:    # of an integer input: True is not 1
    return issubclass(cls, int) and cls is not bool


def _ints(values: Iterable) -> bool:     # the rule, once per type present
    return all(map(_int_type, set(map(type, values))))


def _identity(n: int) -> list[list[int]]:
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


def _mat_vec(matrix: Sequence[Sequence[int]], vec: Sequence[int]) -> list[int]:
    return [sum(map(mul, row, vec)) for row in matrix]


def _snf(matrix: Sequence[Sequence[int]], nrows: int, ncols: int,
         want_u: bool, want_v: bool):
    """Return (U, D, Vcols, rank) with U*matrix*V = D.

    D is diagonal with nonnegative entries forming a divisibility chain
    (zeros at the end), U and V are unimodular; V is returned as the list
    of its columns, which is how every caller reads it.  Pivots are chosen
    as the entry of minimal absolute value, first occurrence in row-major
    order; this makes the output deterministic.  U is None unless want_u
    and V is None unless want_v; the pivots and D do not depend on them,
    so a caller asks only for the transforms it reads.

    Step t works on the active block, rows and columns t onwards, adding
    on only nonzero entries of the pivot row, u[t] and vt[t] (transforms
    start as identity rows and stay sparse); a column operation updates
    only the rows with a nonzero column-t entry, and one list of V.
    floor, the last pivot that finished a step (1 before the first),
    divides the active block: its step ended on a block divisible by it,
    and row and column operations keep that.  So the search stops at the
    first entry of size floor, and a pivot equal to it skips the scan.
    """
    a = [list(row) for row in matrix]
    u = _identity(nrows) if want_u else None
    vt = _identity(ncols) if want_v else None
    t, floor = 0, 1
    while t < nrows and t < ncols:
        # pivot: minimal absolute value, first in row-major order; no
        # entry is below floor, so the search stops at the first one of it
        best = 0
        for i in range(t, nrows):
            row = a[i]
            for j in range(t, ncols):
                x = row[j]
                if x and (abs(x) < best or not best):
                    best, pi, pj = abs(x), i, j
                    if best == floor:
                        break
            if best == floor:
                break
        if not best:
            break
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            if want_u:
                u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in a[t:]:
                row[t], row[pj] = row[pj], row[t]
            if want_v:
                vt[t], vt[pj] = vt[pj], vt[t]
        pivot_row = a[t]
        p = pivot_row[t]
        # clear below and to the right of the pivot; a nonzero remainder
        # becomes a strictly smaller pivot on the next pass.  No loop writes
        # what it reads of row t, u[t] or vt[t], so their nonzero places are
        # listed once.  (Index loops beat list comprehensions on short rows.)
        cols = [j for j in range(t, ncols) if pivot_row[j]]
        active = [pivot_row]      # the rows with a nonzero column-t entry
        ut = u[t] if want_u else ()
        ucols = [j for j, x in enumerate(ut) if x]
        for i in range(t + 1, nrows):
            row = a[i]
            if row[t]:
                q = row[t] // p
                if q:
                    for j in cols:
                        row[j] -= q * pivot_row[j]
                    if want_u:
                        ui = u[i]
                        for j in ucols:
                            ui[j] -= q * ut[j]
                if row[t]:
                    active.append(row)
        vtt = vt[t] if want_v else ()
        vcols = [i for i, x in enumerate(vtt) if x]
        for j in cols[1:]:
            q = pivot_row[j] // p
            if q:
                for row in active:
                    row[j] -= q * row[t]
                if want_v:
                    col = vt[j]
                    for i in vcols:
                        col[i] -= q * vtt[i]
        if len(active) > 1 or any(pivot_row[t + 1:]):
            continue
        # divisibility: fold an offending row into row t and re-reduce;
        # every entry is a multiple of a pivot equal to floor
        bad = None if best == floor else next(
            (i for i in range(t + 1, nrows) if any(x % p for x in a[i][t + 1:])),
            None)
        if bad is None:
            t, floor = t + 1, best
            continue
        pivot_row[t:] = [x + y for x, y in zip(pivot_row[t:], a[bad][t:])]
        if want_u:
            u[t] = [x + y for x, y in zip(ut, u[bad])]
    # the t pivots are the nonzero diagonal entries
    for i in range(t):
        if a[i][i] < 0:
            a[i][i] = -a[i][i]    # the rest of row i is zero
            if want_u:
                u[i] = [-x for x in u[i]]
    return u, a, vt, t


def smith_normal_form(matrix: Sequence[Sequence[int]]):
    """Smith normal form of an integer matrix.

    Returns (U, D, V) with U*matrix*V = D, D diagonal with a nonnegative
    divisibility chain, and U, V unimodular.  Total on integer matrices;
    the empty matrix yields empty factors.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if len(set(map(len, matrix))) > 1:
        raise ValueError("matrix rows have unequal lengths")
    if not _ints(chain.from_iterable(matrix)):
        raise ValueError("matrix entries must be integers")
    u, d, vcols, _ = _snf(matrix, nrows, ncols, want_u=True, want_v=True)
    return u, d, list(map(list, zip(*vcols)))


def _snf_coords(u, d, rank, b: Sequence[int]) -> Optional[list[int]]:
    """The first rank entries of y with D y = U b, given U A V = D.

    None when A x = b has no integer solution; otherwise V y solves it,
    and y vanishes past the rank.
    """
    ub = _mat_vec(u, b)
    if any(ub[rank:]):
        return None
    y = []
    for i in range(rank):
        q, r = divmod(ub[i], d[i][i])
        if r:
            return None
        y.append(q)
    return y


# ---------------------------------------------------------------------------
# groups and elements

class FgAbGroup(Frozen):
    """A finitely generated abelian group in invariant-factor form.

    >>> G = FgAbGroup(1, (2, 4))
    >>> str(G)
    'Z x Z_2 x Z_4'
    >>> G.dim
    3
    """

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int = 0, torsion: Iterable[int] = ()):
        torsion = tuple(torsion)
        if not _int_type(type(free_rank)) or free_rank < 0:
            raise ValueError("free_rank must be a nonnegative integer")
        for d in torsion:
            if not _int_type(type(d)) or d < 2:
                raise ValueError("invariant factors must be integers >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ValueError(
                    f"invariant factors must form a divisibility chain, "
                    f"got {a} before {b}")
        super().__init__(free_rank, torsion)

    @classmethod
    def from_presentation(cls, num_generators: int,
                          relations: Iterable[Sequence[int]]) -> "FgAbGroup":
        """Normalize Z^n modulo the given relator columns via SNF."""
        rels = [list(r) for r in relations]
        for r in rels:
            if len(r) != num_generators:
                raise ValueError("relator length must equal num_generators")
        ncols = len(rels)
        matrix = [[rels[j][i] for j in range(ncols)] for i in range(num_generators)]
        _, d, _, rank = _snf(matrix, num_generators, ncols,
                             want_u=False, want_v=False)
        diag = [d[i][i] for i in range(min(num_generators, ncols))]
        return cls(num_generators - rank, tuple(x for x in diag if x >= 2))

    @property
    def dim(self) -> int:
        return self.free_rank + len(self.torsion)

    @property
    def is_trivial(self) -> bool:
        return self.dim == 0

    def order(self) -> Optional[int]:
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        return math.prod(self.torsion)

    def element(self, coords: Iterable[int]) -> "GroupElement":
        return GroupElement(self, coords)

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.dim)

    def elements(self) -> Iterator["GroupElement"]:
        """All elements of a finite group, in lexicographic coordinate order."""
        if self.free_rank:
            raise ValueError(f"{self} is infinite; cannot enumerate")
        for coords in product(*(range(d) for d in self.torsion)):
            yield GroupElement(self, coords)

    def __str__(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z_{d}" for d in self.torsion]
        return " x ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"FgAbGroup({self.free_rank}, {self.torsion!r})"


class GroupElement(Frozen):
    """A group element as a canonical coordinate vector.

    Torsion coordinates are stored reduced modulo their invariant factor,
    so equality is plain coordinate comparison.
    """

    __slots__ = ("parent", "coords")

    def __init__(self, parent: FgAbGroup, coords: Iterable[int]):
        coords = tuple(coords)
        if len(coords) != parent.dim:
            raise ValueError(
                f"expected {parent.dim} coordinates for {parent}, got {len(coords)}")
        if not _ints(coords):
            raise ValueError("coordinates must be integers")
        fr = parent.free_rank
        canon = coords[:fr] + tuple(
            c % d for c, d in zip(coords[fr:], parent.torsion))
        super().__init__(parent, canon)

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def _check_same_parent(self, other: "GroupElement"):
        if not isinstance(other, GroupElement) or other.parent != self.parent:
            raise ValueError("parent mismatch between group elements")

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check_same_parent(other)
        return GroupElement(self.parent,
                            tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        self._check_same_parent(other)
        return GroupElement(self.parent,
                            tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "GroupElement":
        return GroupElement(self.parent, tuple(-a for a in self.coords))

    def __mul__(self, n: int) -> "GroupElement":
        if not _int_type(type(n)):
            return NotImplemented
        return GroupElement(self.parent, tuple(n * a for a in self.coords))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"<{','.join(map(str, self.coords))}> in {self.parent}"


# ---------------------------------------------------------------------------
# homomorphisms

class Homomorphism(Frozen):
    """An integer matrix between two canonical presentations.

    Column j holds the target coordinates of the image of source
    generator j.  Construction checks well-definedness: each source
    torsion generator of order d must map to an element killed by d.
    """

    __slots__ = ("source", "target", "matrix", "_snf_cache")

    def __init__(self, source: FgAbGroup, target: FgAbGroup,
                 matrix: Sequence[Sequence[int]]):
        rows = [tuple(r) for r in matrix]
        if len(rows) != target.dim:
            raise ValueError(
                f"matrix has {len(rows)} rows, target {target} needs {target.dim}")
        for r in rows:
            if len(r) != source.dim:
                raise ValueError(
                    f"matrix row has {len(r)} entries, source {source} "
                    f"needs {source.dim}")
        if not _ints(chain.from_iterable(rows)):
            raise ValueError("matrix entries must be integers")
        tf = target.free_rank
        canon = tuple(
            r if i < tf else tuple(x % target.torsion[i - tf] for x in r)
            for i, r in enumerate(rows))
        super().__init__(source, target, canon)
        setfield(self, "_snf_cache", None)
        for j, d in enumerate(source.torsion, source.free_rank):
            if not target.element([d * row[j] for row in canon]).is_zero:
                raise ValueError(
                    f"ill-defined homomorphism: {d} * image of generator {j} "
                    f"is nonzero in {target}")

    def __call__(self, x: GroupElement) -> GroupElement:
        if not isinstance(x, GroupElement) or x.parent != self.source:
            raise ValueError("parent mismatch: element is not in the source group")
        return self.target.element(_mat_vec(self.matrix, x.coords))

    def _apply(self, coords: Sequence[int]) -> tuple[int, ...]:
        """Canonical image coordinates of unchecked source coordinates."""
        image = _mat_vec(self.matrix, coords)
        target = self.target
        if target.torsion:
            for i, d in enumerate(target.torsion, target.free_rank):
                image[i] %= d
        return tuple(image)

    def is_zero_map(self) -> bool:
        # rows are stored reduced modulo the target torsion, so the map
        # vanishes exactly when every entry is zero
        return not any(map(any, self.matrix))

    def _augmented(self, want_u: bool, want_v: bool):
        """Cached SNF of [matrix | target relations]; solves image queries.

        The one cache slot is refilled, with the transforms it held and
        those asked for, only when it lacks a transform that is asked for.
        """
        cached = self._snf_cache
        if cached is not None:
            has_u, has_v = cached[0] is not None, cached[2] is not None
            if (has_u or not want_u) and (has_v or not want_v):
                return cached
            want_u, want_v = want_u or has_u, want_v or has_v
        aug, ncols = _with_relations(self.matrix, self.source.dim, (self.target,))
        u, d, v, rank = _snf(aug, len(aug), ncols, want_u, want_v)
        cached = (u, d, v, rank, len(aug), ncols)
        setfield(self, "_snf_cache", cached)
        return cached

    def __repr__(self) -> str:
        return f"Homomorphism({self.source} -> {self.target}, {self.matrix!r})"


def _with_relations(rows: Sequence[Sequence[int]], sdim: int,
                    targets: tuple[FgAbGroup, ...]):
    """([rows | relations], its column count) for rows of sdim entries over
    the direct sum of targets: a column d * e_i for each row i taken mod d.
    A direct sum is not in invariant-factor form, so it stays row moduli."""
    moduli = [d for t in targets for d in (0,) * t.free_rank + t.torsion]
    relations = [i for i, d in enumerate(moduli) if d]
    aug = [list(row) + [0] * len(relations) for row in rows]
    for k, i in enumerate(relations, sdim):
        aug[i][k] = moduli[i]
    return aug, sdim + len(relations)


# ---------------------------------------------------------------------------
# subgroups, kernels, images

class Subgroup(Frozen):
    """A subgroup given by a list of generating elements of the ambient group.

    Two generating lists can give one subgroup, so == is identity."""

    __slots__ = ("ambient", "generators")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, ambient: FgAbGroup, generators: Iterable[GroupElement]):
        gens = tuple(generators)
        for g in gens:
            if g.parent != ambient:
                raise ValueError("parent mismatch: generator not in ambient group")
        super().__init__(ambient, gens)

    def isomorphism_type(self) -> FgAbGroup:
        """Canonical form of the subgroup, computed on demand via SNF."""
        return _image_type(_assembly(self.ambient, self.generators))

    def __repr__(self) -> str:
        return f"Subgroup({self.ambient}, {len(self.generators)} generators)"


def _assembly(ambient: FgAbGroup,
              generators: Sequence[GroupElement]) -> Homomorphism:
    """The map Z^k -> ambient sending the i-th basis vector to generators[i]."""
    return Homomorphism(
        FgAbGroup(len(generators), ()), ambient,
        [[g.coords[i] for g in generators] for i in range(ambient.dim)])


def _normalize_gen(coords: Sequence[int]) -> list[int]:
    first = next(filter(None, coords), 0)
    return [-x for x in coords] if first < 0 else list(coords)


def _kernel_lattice(h: Homomorphism) -> list[list[int]]:
    """The source rows of the columns of V past the rank: they span the
    lattice of source coordinate vectors that h sends to zero."""
    _, _, vcols, rank, _, _ = h._augmented(want_u=False, want_v=True)
    return [col[:h.source.dim] for col in vcols[rank:]]


def kernel(h: Homomorphism) -> Subgroup:
    """Generators of {x : h(x) = 0}."""
    gens: dict[GroupElement, None] = {}
    for vec in _kernel_lattice(h):
        x = h.source.element(_normalize_gen(vec))
        if not x.is_zero:
            gens.setdefault(x)
    return Subgroup(h.source, gens)


def in_image(h: Homomorphism, y: GroupElement):
    """Decide y in im(h); returns (found, witness) with h(witness) = y."""
    if not isinstance(y, GroupElement) or y.parent != h.target:
        raise ValueError("parent mismatch: element is not in the target group")
    u, d, vcols, rank, _, _ = h._augmented(want_u=True, want_v=True)
    sol = _snf_coords(u, d, rank, y.coords)
    if sol is None:
        return False, None
    # only the source coordinates of V y are needed; the rest solve for
    # the target relations
    return True, h.source.element(
        [sum(c * col[i] for c, col in zip(sol, vcols))
         for i in range(h.source.dim)])


def _image_contains(h: Homomorphism, coords: Sequence[int]) -> bool:
    """Membership in im(h) of unchecked, maybe unreduced coordinates; U alone."""
    u, d, _, rank, _, _ = h._augmented(want_u=True, want_v=False)
    return _snf_coords(u, d, rank, coords) is not None


def _image_type(h: Homomorphism) -> FgAbGroup:
    """Isomorphism type of im(h): h.target when h is onto, read off a
    D-only SNF; else Z^source.dim modulo the lattice of source vectors
    that h sends to zero, which a second SNF with V gives."""
    if is_surjective(h):
        return h.target
    return FgAbGroup.from_presentation(h.source.dim, _kernel_lattice(h))


def is_surjective(h: Homomorphism) -> bool:
    """Is im(h) the whole target?  Read off the cached augmented SNF: the
    columns of [matrix | target relations] must span Z^dim, i.e. have
    full row rank with every invariant factor 1."""
    _, d, _, rank, nrows, _ = h._augmented(want_u=False, want_v=False)
    return rank == nrows and all(d[i][i] == 1 for i in range(rank))


def paired_injective(h1: Homomorphism, h2: Homomorphism) -> bool:
    """Is the pairing x -> (h1(x), h2(x)) injective, i.e. ker h1 ∩ ker h2 = 0?

    In one SNF of the rows of h1 and h2 with both targets' relations, the
    columns of V past the rank span the source vectors both maps send to
    zero: none may be nonzero in the source, on its free part or mod d."""
    source = h1.source
    if source != h2.source:
        raise ValueError("shape mismatch: the two maps must share a source")
    aug, ncols = _with_relations(h1.matrix + h2.matrix, source.dim,
                                 (h1.target, h2.target))
    _, _, vcols, rank = _snf(aug, len(aug), ncols, want_u=False, want_v=True)
    fr = source.free_rank
    return all(not any(col[:fr])
               and not any(map(int.__mod__, col[fr:source.dim], source.torsion))
               for col in vcols[rank:])


def exact_at(left: Homomorphism, right: Homomorphism) -> bool:
    """Is im(left) = ker(right)?  Requires left.target = right.source.

    A zero composite gives H = im(left) <= K = ker(right) inside
    M = left.target, so M/H maps onto M/K, which is isomorphic to
    im(right).  F.g. abelian groups are Hopfian: a surjection between
    isomorphic ones is injective.  Hence H = K exactly when coker(left),
    read off the diagonal of left's augmented SNF, is isomorphic to
    im(right), which is right.target when right is onto.  No transform
    of left, no membership solve and no composite map is needed.
    """
    if left.target != right.source:
        raise ValueError("shape mismatch: left.target must equal right.source")
    # the composite row by row, mod d on a torsion row d: the first nonzero decides
    n, target = left.source.dim, right.target
    for row, d in zip(right.matrix, (0,) * target.free_rank + target.torsion):
        acc = [0] * n
        for c, left_row in zip(row, left.matrix):
            if c:
                for j in range(n):
                    acc[j] += c * left_row[j]
        if any(x % d for x in acc) if d else any(acc):
            return False
    _, d, _, rank, nrows, _ = left._augmented(want_u=False, want_v=False)
    coker = FgAbGroup(nrows - rank,
                      tuple(d[i][i] for i in range(rank) if d[i][i] >= 2))
    return coker == _image_type(right)
