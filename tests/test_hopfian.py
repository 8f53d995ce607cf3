"""A surjective endomorphism of a f.g. abelian group is injective.

homotopy_db.validate checks only surjectivity of antipodal_A, and
fgab.exact_at compares invariant factors instead of solving for each
kernel generator; both rest on this property.
"""

import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from nielsencalc.fgab import FgAbGroup, Homomorphism, is_surjective, kernel


@st.composite
def _endomorphism(draw):
    group = FgAbGroup(draw(st.integers(0, 2)), draw(st.sampled_from(
        [(), (2,), (3,), (4,), (2, 2), (2, 4), (6,), (2, 6)])))
    fr, dim = group.free_rank, group.dim
    columns = []
    for j in range(dim):
        column = []
        for i in range(dim):
            if j < fr:
                column.append(draw(st.integers(-3, 3)))
            elif i < fr:
                column.append(0)
            else:
                # a torsion generator of order d goes to the d-torsion
                d, e = group.torsion[j - fr], group.torsion[i - fr]
                g = math.gcd(d, e)
                column.append(e // g * draw(st.integers(0, g - 1)))
        columns.append(column)
    return Homomorphism(group, group,
                        [[col[i] for col in columns] for i in range(dim)])


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(_endomorphism())
def test_surjective_endomorphisms_are_injective(h):
    if is_surjective(h):
        assert not kernel(h).generators
    elif h.source.free_rank == 0:
        # and a finite group has no injective non-surjection
        assert kernel(h).generators
