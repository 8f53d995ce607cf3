"""Independent brute-force oracles used by the test suite.

Everything here is deliberately naive: exhaustive enumeration, fraction
free determinants, closure of generating sets.  None of it shares code
with the lattice machinery it is checking.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

from nielsencalc.fgab import FgAbGroup, GroupElement, Homomorphism, Subgroup


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
