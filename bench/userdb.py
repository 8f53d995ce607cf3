"""Synthetic user databases whose answers are known by construction.

Each database holds R-slices at spaced (n', m), so no (space, degree)
keys collide.  A slice of rank r has free lift group pi_m(S(n')) = Z^r
and

* boundary_K = P*D*Q with P, Q seeded products of elementary unimodular
  operations and D a divisibility chain, so its invariant factors are D;
* fiber_incl = P^-1, restricted to the nontrivial factors of D and
  reduced modulo them, onto V(R,n') = coker(boundary_K); hence
  ``assert_exact boundary_K fiber_incl`` holds.

Two slice types keep the seven-case table exclusive and exhaustive:

* type 1 (like the shipped R(11,6) slice): antipodal_A = id and
  suspension_E = mask*P^-1, where mask keeps the coordinates with
  D_i = 0, so E*boundary_K = 0 and im E is a coordinate subspace;
* type 2 (like the shipped R(6,6) slice): D has no zeros (boundary_K is
  injective), antipodal_A = -id and suspension_E is unimodular.

The expected answer of every query is computed here with plain integer
arithmetic from the construction, never with nielsencalc.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# (rank, type) of the slices of every generated database, in slice order;
# the layout is the same for every seed, which draws only the entries
SLICES = ((8, 1), (16, 2), (24, 1), (32, 2))
POOL = 24              # distinct databases per run
REJECT_SHARE = 0.1     # share of operations that load a corrupted copy
LIFT_RANGE = 3         # lift coordinates are drawn from [-3, 3]

# (N#, MCC, MC) for each case of the classification; "inf" is MC = infinity
CASE_TRIPLES = {1: (0, 0, 0), 2: (0, 1, 1), 3: (1, 1, 1), 4: (2, 2, 2),
                5: (2, 2, "inf"), 6: (1, 1, 1), 7: (1, 1, "inf")}


def verdict_fields(small, omega_zero, lifted_pair_loose):
    """The expected LoosenessVerdict fields, from boundary(lift) = 0
    (``small``) and E(boundary(lift)) = 0 (``omega_zero``)."""
    return {"small_deformation": small, "loose": small,
            "coincidence_producing": not small,
            "omega_sharp_zero": omega_zero,
            "lifted_pair_loose": lifted_pair_loose,
            "gap_witness": omega_zero and not small}


def _identity(r, sign=1):
    return [[sign * int(i == j) for j in range(r)] for i in range(r)]


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _matvec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def _unimodular(rng, r, steps):
    """A seeded product of elementary row operations and its inverse."""
    m, inv = _identity(r), _identity(r)
    for _ in range(steps):
        i, j = rng.sample(range(r), 2)
        k = rng.choice((-2, -1, 1, 2))
        m[i] = [x + k * y for x, y in zip(m[i], m[j])]
        for row in inv:
            row[j] -= k * row[i]
    return m, inv


def _chain(rng, r, kind):
    """Divisibility chain of length r: ones, then torsion, then zeros."""
    p = rng.choice((2, 3))
    zeros = r // 4 if kind == 1 else 0
    ones = r // 2
    torsion = [p] * (r - ones - zeros - 1) + [p * rng.choice((2, 5))]
    return [1] * ones + torsion + [0] * zeros


@dataclass
class Slice:
    kind: int
    nprime: int
    m: int
    D: list
    B: list          # boundary_K
    E: list          # suspension_E
    A: list          # antipodal_A
    F: list          # fiber_incl
    V: tuple         # (free rank, torsion) of pi_{m-1}(V(R,n'))
    Qinv: list
    image_mask: list  # im E = vectors vanishing where the mask is False

    @property
    def rank(self):
        return len(self.D)

    @property
    def boundary_ref(self):
        n, m = self.nprime, self.m
        return f"boundary_K:S({n}),{m}->S({n - 1}),{m - 1}"

    # -- the seven-case table and the verdicts, evaluated by construction --

    def conditions(self, l1, l2):
        b2 = _matvec(self.B, l2)
        eb2 = _matvec(self.E, b2)
        a2 = _matvec(self.A, l2)
        free_homotopic = l1 == l2 or l1 == a2
        diff = tuple(x - y for x, y in zip(l1, l2))
        in_im_e = all(x == 0 for x, keep in zip(diff, self.image_mask)
                      if not keep)
        b_zero, eb_zero = not any(b2), not any(eb2)
        return (free_homotopic and b_zero,
                free_homotopic and eb_zero and not b_zero,
                free_homotopic and l2 != a2,
                not free_homotopic and in_im_e,
                not in_im_e, False, False)

    def expected_case(self, l1, l2):
        conds = self.conditions(l1, l2)
        if sum(conds) != 1:
            raise AssertionError(f"generator broke exclusivity: {conds}")
        return conds.index(True) + 1

    def expected_verdict(self, lift):
        b = _matvec(self.B, lift)
        omega_zero = not any(_matvec(self.E, b))
        return verdict_fields(not any(b), omega_zero, omega_zero)

    def expected_sphere(self, c1, c2):
        return (0, 0, 0) if c1 == _matvec(self.A, c2) else (1, 1, 1)


def make_slice(rng, index, rank, kind) -> Slice:
    nprime, m = 4 + 2 * index, 24 + 2 * index
    steps = 2 * rank
    P, Pinv = _unimodular(rng, rank, steps)
    Q, Qinv = _unimodular(rng, rank, steps)
    D = _chain(rng, rank, kind)
    B = _matmul(P, [[d * q for q in row] for d, row in zip(D, Q)])
    free = [i for i, d in enumerate(D) if d == 0]
    tors = [i for i, d in enumerate(D) if d >= 2]
    F = [list(Pinv[i]) for i in free] + [[x % D[i] for x in Pinv[i]]
                                          for i in tors]
    if kind == 1:
        E = [list(Pinv[i]) if D[i] == 0 else [0] * rank for i in range(rank)]
        A = _identity(rank)
        mask = [d == 0 for d in D]
    else:
        E, _ = _unimodular(rng, rank, steps)
        A = _identity(rank, -1)
        mask = [True] * rank
    return Slice(kind, nprime, m, D, B, E, A, F,
                 (len(free), tuple(D[i] for i in tors)), Qinv, mask)


def _matrix_text(a):
    return "[" + ",".join("[" + ",".join(map(str, row)) + "]" for row in a) + "]"


def _group_line(space, degree, free, torsion, cite):
    dim = free + len(torsion)
    labels = ",".join(f"g{k}" for k in range(dim)) if dim else "-"
    return (f"group {space} {degree} = {free} [{','.join(map(str, torsion))}]"
            f" gens {labels} src \"{cite}\"")


def render(slices, boundary_override=None) -> str:
    """Database text; ``boundary_override`` maps slice index to a matrix."""
    lines = ["nielsendb v1", ""]
    cite = "synthetic benchmark data, exact by construction"
    for index, s in enumerate(slices):
        n, m, r = s.nprime, s.m, s.rank
        lift, low, fib = f"S({n}),{m}", f"S({n - 1}),{m - 1}", f"V(R,{n}),{m - 1}"
        B = (boundary_override or {}).get(index, s.B)
        lines += [
            _group_line(f"S({n})", m, r, (), cite),
            _group_line(f"S({n - 1})", m - 1, r, (), cite),
            _group_line(f"V(R,{n})", m - 1, s.V[0], s.V[1], cite),
            f"hom boundary_K {lift} -> {low} matrix {_matrix_text(B)} src \"{cite}\"",
            f"hom suspension_E {low} -> {lift} matrix {_matrix_text(s.E)} src \"{cite}\"",
            f"hom antipodal_A {lift} -> {lift} matrix {_matrix_text(s.A)} src \"{cite}\"",
            f"hom fiber_incl {low} -> {fib} matrix {_matrix_text(s.F)} src \"{cite}\"",
            f"assert_exact boundary_K:{lift}->{low} fiber_incl:{low}->{fib}",
            f"assert_surjective fiber_incl:{low}->{fib}",
            "",
        ]
    return "\n".join(lines)


def corrupt(rng, slices):
    """A copy with one boundary_K entry changed so that exactness fails.

    Adding 1 at (i, j) where column i of fiber_incl is nonzero makes
    fiber_incl(boundary_K(e_j)) nonzero, so the file must be rejected
    with a violation naming that boundary_K entry.
    """
    index = rng.randrange(len(slices))
    s = slices[index]
    cols = [i for i in range(s.rank)
            if any(row[i] for row in s.F)]
    i, j = rng.choice(cols), rng.randrange(s.rank)
    B = [list(row) for row in s.B]
    B[i][j] += 1
    return render(slices, {index: B}), s.boundary_ref


@dataclass
class GeneratedDb:
    slices: list
    text: str
    corrupted_text: str
    corrupted_ref: str
    # (kind, slice index, inputs, expected); kind is "classify", "self" or
    # "sphere"
    queries: list = field(default_factory=list)


def _lift(rng, r):
    return tuple(rng.randint(-LIFT_RANGE, LIFT_RANGE) for _ in range(r))


def _pair(rng, s: Slice):
    """A lift pair aimed at one of the cases the slice type can reach."""
    r = s.rank
    l2 = _lift(rng, r)
    if s.kind == 1:
        target = rng.choice((1, 2, 4, 5))
        if target == 1:
            y = [rng.randint(1, LIFT_RANGE) if d == 0 else 0 for d in s.D]
            l2 = _matvec(s.Qinv, y)
            return l2, l2
        if target == 2:
            return l2, l2
        coord = rng.choice([i for i in range(r)
                            if s.image_mask[i] == (target == 4)])
        l1 = list(l2)
        l1[coord] += rng.choice((-1, 1))
        return tuple(l1), l2
    target = rng.choice((1, 3, 4))
    if target == 1:
        zero = (0,) * r
        return zero, zero
    if target == 3:
        return rng.choice((l2, tuple(-x for x in l2))), l2
    return _lift(rng, r), l2


def generate(seed: int) -> list[GeneratedDb]:
    """The run's pool of databases, with queries and expected answers."""
    rng = random.Random(f"userdb-{seed}")
    pool = []
    for _ in range(POOL):
        slices = [make_slice(rng, i, r, kind)
                  for i, (r, kind) in enumerate(SLICES)]
        db = GeneratedDb(slices, render(slices), *corrupt(rng, slices))
        for index, s in enumerate(slices):
            for _ in range(3):
                l1, l2 = _pair(rng, s)
                case = s.expected_case(l1, l2)
                db.queries.append(("classify", index, (l1, l2),
                                   (case, CASE_TRIPLES[case])))
            lift = _lift(rng, s.rank)
            db.queries.append(("self", index, (lift,),
                               s.expected_verdict(lift)))
            c2 = _lift(rng, s.rank)
            c1 = _matvec(s.A, c2) if rng.random() < 0.5 else _lift(rng, s.rank)
            db.queries.append(("sphere", index, (c1, c2),
                               s.expected_sphere(c1, c2)))
        pool.append(db)
    return pool


def sizes() -> dict:
    """Generator sizes, for the environment record."""
    return {"slices": [{"rank": r, "type": kind} for r, kind in SLICES],
            "databases": POOL, "reject_share": REJECT_SHARE,
            "queries_per_db": 5 * len(SLICES)}
