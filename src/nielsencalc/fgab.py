"""Exact arithmetic for finitely generated abelian groups.

Groups are kept in invariant-factor form: a free rank together with a
divisibility chain of torsion coefficients d_1 | d_2 | ... | d_k, each
d_i >= 2.  Elements are integer coordinate vectors relative to the
canonical generators (free coordinates first, then one coordinate per
torsion factor, stored reduced mod its factor), and homomorphisms are
integer matrices whose column j gives the target coordinates of the
image of source generator j.

Everything reduces to Smith normal form over Z: kernels, images,
membership tests, exactness of two consecutive maps.  All integers are
arbitrary precision and every value is immutable after construction, so
values can be shared freely between threads.
"""

from __future__ import annotations

import math
from itertools import product
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence

__all__ = [
    "FgAbGroup",
    "GroupElement",
    "Homomorphism",
    "Subgroup",
    "smith_normal_form",
    "compose",
    "kernel",
    "in_image",
    "in_subgroup",
    "is_injective",
    "is_surjective",
    "paired_injective",
    "exact_at",
    "zero_hom",
    "identity_hom",
]


# ---------------------------------------------------------------------------
# integer matrix helpers (lists of rows; shapes passed explicitly so that
# matrices with zero rows or zero columns stay unambiguous)

def _identity(n: int) -> list[list[int]]:
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


def _mat_vec(matrix: Sequence[Sequence[int]], vec: Sequence[int]) -> list[int]:
    return [sum(map(mul, row, vec)) for row in matrix]


def _snf(matrix: Sequence[Sequence[int]], nrows: int, ncols: int,
         want_u: bool, want_v: bool):
    """Return (U, D, V, rank) with U*matrix*V = D.

    D is diagonal with nonnegative entries forming a divisibility chain
    (zeros at the end), U and V are unimodular.  Pivots are chosen as the
    entry of minimal absolute value, first occurrence in row-major order;
    this makes the output deterministic.  U is None unless want_u and V
    is None unless want_v; the pivots and D do not depend on them.
    kernel, paired_injective and Subgroup.isomorphism_type want V,
    exact_at wants U, in_image and smith_normal_form want both, and
    is_surjective and FgAbGroup.from_presentation want neither.

    Step t works on the active block, rows and columns t onwards: a row
    operation updates row[t:], a column operation only the rows with a
    nonzero column-t entry.  V is built as the list of its columns, so
    that a column operation updates one list, and transposed at the end.
    """
    a = [list(row) for row in matrix]
    u = _identity(nrows) if want_u else None
    vt = _identity(ncols) if want_v else None
    t = 0
    while t < nrows and t < ncols:
        # pivot: minimal absolute value, first in row-major order; no
        # entry beats a unit, so the search stops at the first one
        best = 0
        for i in range(t, nrows):
            row = a[i]
            for j in range(t, ncols):
                x = row[j]
                if x and (abs(x) < best or not best):
                    best, pi, pj = abs(x), i, j
                    if best == 1:
                        break
            if best == 1:
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
        # becomes a strictly smaller pivot on the next pass.  (Index loops
        # beat list comprehensions on rows of up to ~32 entries.)
        active = [pivot_row]      # the rows with a nonzero column-t entry
        ut = u[t] if want_u else None
        for i in range(t + 1, nrows):
            row = a[i]
            if row[t]:
                q = row[t] // p
                if q:
                    for j in range(t, ncols):
                        row[j] -= q * pivot_row[j]
                    if want_u:
                        ui = u[i]
                        for j in range(nrows):
                            ui[j] -= q * ut[j]
                if row[t]:
                    active.append(row)
        vtt = vt[t] if want_v else None
        for j in range(t + 1, ncols):
            q = pivot_row[j] // p
            if q:
                for row in active:
                    row[j] -= q * row[t]
                if want_v:
                    col = vt[j]
                    for i in range(ncols):
                        col[i] -= q * vtt[i]
        if len(active) > 1 or any(pivot_row[t + 1:]):
            continue
        # divisibility: fold an offending row into row t and re-reduce;
        # every entry is a multiple of a unit pivot
        bad = None if best == 1 else next(
            (i for i in range(t + 1, nrows) if any(x % p for x in a[i][t + 1:])),
            None)
        if bad is None:
            t += 1
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
    v = list(map(list, zip(*vt))) if want_v else None
    return u, a, v, t


def smith_normal_form(matrix: Sequence[Sequence[int]]):
    """Smith normal form of an integer matrix.

    Returns (U, D, V) with U*matrix*V = D, D diagonal with a nonnegative
    divisibility chain, and U, V unimodular.  Total on integer matrices;
    the empty matrix yields empty factors.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    for row in matrix:
        if len(row) != ncols:
            raise ValueError("matrix rows have unequal lengths")
        for x in row:
            if not isinstance(x, int):
                raise ValueError("matrix entries must be integers")
    u, d, v, _ = _snf(matrix, nrows, ncols, want_u=True, want_v=True)
    return u, d, v


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


def _kernel_basis_from(v, rank, ncols) -> list[list[int]]:
    """Basis of the integer kernel lattice: columns of V past the rank."""
    return [[v[i][j] for i in range(ncols)] for j in range(rank, ncols)]


# ---------------------------------------------------------------------------
# groups and elements

class FgAbGroup:
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
        if not isinstance(free_rank, int) or free_rank < 0:
            raise ValueError("free_rank must be a nonnegative integer")
        for d in torsion:
            if not isinstance(d, int) or d < 2:
                raise ValueError("invariant factors must be integers >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ValueError(
                    f"invariant factors must form a divisibility chain, "
                    f"got {a} before {b}")
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)

    def __setattr__(self, name, value):
        raise AttributeError("FgAbGroup is immutable")

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

    def generator(self, i: int) -> "GroupElement":
        if not 0 <= i < self.dim:
            raise IndexError(f"generator index {i} out of range for {self}")
        return GroupElement(self, tuple(1 if j == i else 0 for j in range(self.dim)))

    def generators(self) -> list["GroupElement"]:
        return [self.generator(i) for i in range(self.dim)]

    def elements(self) -> Iterator["GroupElement"]:
        """All elements of a finite group, in lexicographic coordinate order."""
        if self.free_rank:
            raise ValueError(f"{self} is infinite; cannot enumerate")
        for coords in product(*(range(d) for d in self.torsion)):
            yield GroupElement(self, coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FgAbGroup):
            return NotImplemented
        return self.free_rank == other.free_rank and self.torsion == other.torsion

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    def __str__(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z_{d}" for d in self.torsion]
        return " x ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"FgAbGroup({self.free_rank}, {self.torsion!r})"


class GroupElement:
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
        for x in coords:
            if not isinstance(x, int):
                raise ValueError("coordinates must be integers")
        fr = parent.free_rank
        canon = coords[:fr] + tuple(
            c % d for c, d in zip(coords[fr:], parent.torsion))
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "coords", canon)

    def __setattr__(self, name, value):
        raise AttributeError("GroupElement is immutable")

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

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
        if not isinstance(n, int):
            return NotImplemented
        return GroupElement(self.parent, tuple(n * a for a in self.coords))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.parent == other.parent and self.coords == other.coords

    def __hash__(self):
        return hash((self.parent, self.coords))

    def __repr__(self) -> str:
        return f"<{','.join(map(str, self.coords))}> in {self.parent}"


# ---------------------------------------------------------------------------
# homomorphisms

def _relation_columns(group: FgAbGroup) -> list[list[int]]:
    """Columns spanning the relation lattice of the canonical presentation."""
    fr = group.free_rank
    cols = []
    for k, d in enumerate(group.torsion):
        col = [0] * group.dim
        col[fr + k] = d
        cols.append(col)
    return cols


class Homomorphism:
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
            for x in r:
                if not isinstance(x, int):
                    raise ValueError("matrix entries must be integers")
        tf = target.free_rank
        canon = tuple(
            r if i < tf else tuple(x % target.torsion[i - tf] for x in r)
            for i, r in enumerate(rows))
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", canon)
        object.__setattr__(self, "_snf_cache", None)
        sf = source.free_rank
        for j in range(source.dim):
            if j < sf:
                continue
            d = source.torsion[j - sf]
            image_times_d = target.element([d * self.matrix[i][j]
                                            for i in range(target.dim)])
            if not image_times_d.is_zero:
                raise ValueError(
                    f"ill-defined homomorphism: {d} * image of generator {j} "
                    f"is nonzero in {target}")

    def __setattr__(self, name, value):
        raise AttributeError("Homomorphism is immutable")

    def __call__(self, x: GroupElement) -> GroupElement:
        if not isinstance(x, GroupElement) or x.parent != self.source:
            raise ValueError("parent mismatch: element is not in the source group")
        return self.target.element(_mat_vec(self.matrix, x.coords))

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
        rels = _relation_columns(self.target)
        nrows = self.target.dim
        ncols = self.source.dim + len(rels)
        aug = [list(self.matrix[i]) + [col[i] for col in rels]
               for i in range(nrows)]
        u, d, v, rank = _snf(aug, nrows, ncols, want_u, want_v)
        cached = (u, d, v, rank, nrows, ncols)
        object.__setattr__(self, "_snf_cache", cached)
        return cached

    def __eq__(self, other) -> bool:
        if not isinstance(other, Homomorphism):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.matrix == other.matrix)

    def __hash__(self):
        return hash((self.source, self.target, self.matrix))

    def __repr__(self) -> str:
        return f"Homomorphism({self.source} -> {self.target}, {self.matrix!r})"


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
    prod = [[sum(map(mul, row, col)) for col in cols] for row in g.matrix]
    return Homomorphism(h.source, g.target, prod)


# ---------------------------------------------------------------------------
# subgroups, kernels, images

class Subgroup:
    """A subgroup given by a list of generating elements of the ambient group."""

    __slots__ = ("ambient", "generators")

    def __init__(self, ambient: FgAbGroup, generators: Iterable[GroupElement]):
        gens = tuple(generators)
        for g in gens:
            if g.parent != ambient:
                raise ValueError("parent mismatch: generator not in ambient group")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "generators", gens)

    def __setattr__(self, name, value):
        raise AttributeError("Subgroup is immutable")

    def contains(self, y: GroupElement) -> bool:
        return in_subgroup(self, y)

    def _assembly(self) -> Homomorphism:
        free = FgAbGroup(len(self.generators), ())
        matrix = [[g.coords[i] for g in self.generators]
                  for i in range(self.ambient.dim)]
        return Homomorphism(free, self.ambient, matrix)

    def isomorphism_type(self) -> FgAbGroup:
        """Canonical form of the subgroup, computed on demand via SNF."""
        g = len(self.generators)
        if g == 0:
            return FgAbGroup(0, ())
        rels = _relation_columns(self.ambient)
        nrows = self.ambient.dim
        ncols = g + len(rels)
        aug = [[self.generators[j].coords[i] for j in range(g)] +
               [col[i] for col in rels] for i in range(nrows)]
        _, _, v, rank = _snf(aug, nrows, ncols, want_u=False, want_v=True)
        relation_vectors = [[v[i][j] for i in range(g)]
                            for j in range(rank, ncols)]
        return FgAbGroup.from_presentation(g, relation_vectors)

    def order(self) -> Optional[int]:
        return self.isomorphism_type().order()

    def __repr__(self) -> str:
        return f"Subgroup({self.ambient}, {len(self.generators)} generators)"


def _normalize_gen(coords: Sequence[int]) -> list[int]:
    for c in coords:
        if c != 0:
            return [-x for x in coords] if c < 0 else list(coords)
    return list(coords)


def kernel(h: Homomorphism) -> Subgroup:
    """Generators of {x : h(x) = 0}."""
    _, _, v, rank, _, ncols = h._augmented(want_u=False, want_v=True)
    sdim = h.source.dim
    gens: dict[GroupElement, None] = {}
    for vec in _kernel_basis_from(v, rank, ncols):
        x = h.source.element(_normalize_gen(vec[:sdim]))
        if not x.is_zero:
            gens.setdefault(x)
    return Subgroup(h.source, gens)


def in_image(h: Homomorphism, y: GroupElement):
    """Decide y in im(h); returns (found, witness) with h(witness) = y."""
    if not isinstance(y, GroupElement) or y.parent != h.target:
        raise ValueError("parent mismatch: element is not in the target group")
    u, d, v, rank, _, _ = h._augmented(want_u=True, want_v=True)
    sol = _snf_coords(u, d, rank, y.coords)
    if sol is None:
        return False, None
    # only the source coordinates of V y are needed; the rest solve for
    # the target relations
    return True, h.source.element(_mat_vec(v[:h.source.dim], sol))


def in_subgroup(s: Subgroup, y: GroupElement) -> bool:
    """Is y an integer combination of the subgroup's generators?"""
    if not isinstance(y, GroupElement) or y.parent != s.ambient:
        raise ValueError("parent mismatch: element is not in the ambient group")
    found, _ = in_image(s._assembly(), y)
    return found


def is_injective(h: Homomorphism) -> bool:
    return all(g.is_zero for g in kernel(h).generators)


def is_surjective(h: Homomorphism) -> bool:
    """Is im(h) the whole target?  Read off the cached augmented SNF: the
    columns of [matrix | target relations] must span Z^dim, i.e. have
    full row rank with every invariant factor 1."""
    _, d, _, rank, nrows, _ = h._augmented(want_u=False, want_v=False)
    return rank == nrows and all(d[i][i] == 1 for i in range(rank))


def paired_injective(h1: Homomorphism, h2: Homomorphism) -> bool:
    """Is the pairing x -> (h1(x), h2(x)) injective, i.e. ker h1 ∩ ker h2 = 0?"""
    if h1.source != h2.source:
        raise ValueError("shape mismatch: the two maps must share a source")
    src = h1.source
    r1 = _relation_columns(h1.target)
    r2 = _relation_columns(h2.target)
    t1, t2 = h1.target.dim, h2.target.dim
    k1, k2 = len(r1), len(r2)
    ncols = src.dim + k1 + k2
    aug = []
    for i in range(t1):
        aug.append(list(h1.matrix[i]) + [col[i] for col in r1] + [0] * k2)
    for i in range(t2):
        aug.append(list(h2.matrix[i]) + [0] * k1 + [col[i] for col in r2])
    _, _, v, rank = _snf(aug, t1 + t2, ncols, want_u=False, want_v=True)
    for vec in _kernel_basis_from(v, rank, ncols):
        if not src.element(vec[:src.dim]).is_zero:
            return False
    return True


def exact_at(left: Homomorphism, right: Homomorphism) -> bool:
    """Is im(left) = ker(right)?  Requires left.target = right.source."""
    if left.target != right.source:
        raise ValueError("shape mismatch: left.target must equal right.source")
    if not compose(right, left).is_zero_map():
        return False
    u, d, _, rank, _, _ = left._augmented(want_u=True, want_v=False)
    return all(_snf_coords(u, d, rank, k.coords) is not None
               for k in kernel(right).generators)
