"""The Smith normal form against a frozen reference and against sympy.

fgab._snf restricts each step to the active block and builds only the
transforms its caller asks for, and returns V as the list of its
columns.  It must still return exactly what the straightforward
elimination in oracles.reference_snf returns, so that kernel generators
and in_image witnesses stay the same.
"""

import random

import pytest

from nielsencalc.fgab import _snf

from oracles import mat_mul, reference_snf

WANTS = [(False, False), (True, False), (False, True), (True, True)]


def _random_matrix(rng, nrows, ncols, bound):
    m = [[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(nrows)]
    if nrows and rng.random() < 0.3:
        m[rng.randrange(nrows)] = [0] * ncols
    if ncols and rng.random() < 0.3:
        j = rng.randrange(ncols)
        for row in m:
            row[j] = 0
    return m


def _unimodular(rng, n, steps):
    """A seeded product of elementary row operations."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-2, -1, 1, 2))
        m[i] = [x + k * y for x, y in zip(m[i], m[j])]
    return m


def _pdq(rng, diag):
    """P*D*Q with P, Q unimodular and D the diagonal matrix of diag."""
    n = len(diag)
    d = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    return mat_mul(mat_mul(_unimodular(rng, n, 3 * n), d),
                   _unimodular(rng, n, 3 * n))


def _assert_matches_reference(m, nrows, ncols):
    ref_u, ref_d, ref_v, ref_rank = reference_snf(m, nrows, ncols)
    for want_u, want_v in WANTS:
        u, d, v, rank = _snf(m, nrows, ncols, want_u, want_v)
        assert (d, rank) == (ref_d, ref_rank)
        assert u == (ref_u if want_u else None)
        # _snf returns the columns of V
        assert v == ([list(col) for col in zip(*ref_v)] if want_v else None)


@pytest.mark.parametrize("nrows", range(11))
def test_snf_matches_reference_every_small_shape(nrows):
    rng = random.Random(f"snf-shape-{nrows}")
    for ncols in range(11):
        for bound in (1, 3, 9):
            m = _random_matrix(rng, nrows, ncols, bound)
            _assert_matches_reference(m, nrows, ncols)


@pytest.mark.parametrize("n,count", [(20, 3), (32, 1)])
def test_snf_matches_reference_dense(n, count):
    rng = random.Random(f"snf-dense-{n}")
    for _ in range(count):
        _assert_matches_reference(_random_matrix(rng, n, n, 9), n, n)


@pytest.mark.parametrize("n", [8, 16, 24, 32])
def test_snf_matches_reference_structured(n):
    rng, fiber_rng = random.Random(f"snf-pdq-{n}"), random.Random(f"snf-fiber-{n}")
    p, ones = rng.choice((2, 3)), [1] * (n // 2)
    # chains of ones, torsion, zeros; the second, a run of equal torsion
    # then p*k, is the shape of a user_db boundary_K, where _snf's search
    # stops at the last pivot most often
    for torsion in ([p] * (n // 4), [p] * (n // 4 - 1) + [p * 5]):
        m = _pdq(rng, (ones + torsion + [0] * n)[:n])
        _assert_matches_reference(m, n, n)
        # augmented like a homomorphism into its cokernel: relations appended
        _assert_matches_reference([row + [2 * int(i == j) for j in range(n)]
                                   for i, row in enumerate(m)], n, 2 * n)
        # a user_db fiber_incl, augmented: k rows of a unimodular matrix,
        # each reduced mod its torsion factor d, then the columns d * e_i
        k, inverse = len(torsion), _unimodular(fiber_rng, n, 3 * n)
        _assert_matches_reference(
            [[x % d for x in inverse[n // 2 + i]] + [d * int(i == j) for j in range(k)]
             for i, d in enumerate(torsion)], k, n + k)


def test_invariant_factors_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    def check(m, nrows, ncols):
        _, d, _, _ = _snf(m, nrows, ncols, False, False)
        expected = invariant_factors(sympy.Matrix(m), domain=sympy.ZZ)
        assert tuple(d[i][i] for i in range(min(nrows, ncols))) == expected

    rng = random.Random("snf-sympy")
    for _ in range(60):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
        check(_random_matrix(rng, nrows, ncols, 9), nrows, ncols)
    # 40 x 40: sparse ones with large invariant factors and one of rank
    # 20; dense full-rank ones take sympy seconds each
    for density in (0.05, 0.1, 0.15):
        m = [[rng.choice((-2, -1, 1, 2, 3)) if rng.random() < density else 0
              for _ in range(40)] for _ in range(40)]
        check(m, 40, 40)
    b = _random_matrix(rng, 40, 20, 3)
    c = _random_matrix(rng, 20, 40, 3)
    check(mat_mul(b, c), 40, 40)
