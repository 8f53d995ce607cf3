"""serialize is a fixed point of loads on generated valid databases.

The generator writes database text with random groups, well-defined maps
whose torsion rows are left unreduced, true assertions with bare and
qualified references, and labels and citations drawn from wide
alphabets, in shuffled line order.
"""

import random
from itertools import product

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from nielsencalc.fgab import FgAbGroup, Homomorphism, exact_at, is_surjective
from nielsencalc.homotopy_db import HOM_NAMES, loads, serialize

from oracles import all_finite_groups, random_well_defined_hom

SPACES = ["S(1)", "S(2)", "S(6)", "V(R,6)", "V(C,2)", "P(H,3)"]
GROUPS = all_finite_groups(12, 2) + [
    FgAbGroup(1, ()), FgAbGroup(1, (2,)), FgAbGroup(2, (3,))]

# a lone label that is empty or '-' does not read back; in a list it does
_label = st.text(alphabet="ab1_'^()-", max_size=3)
_citation = st.text(st.characters(blacklist_characters='"'), max_size=8).filter(
    lambda text: "".join(text.splitlines()) == text)


@st.composite
def _database_text(draw):
    keys = draw(st.lists(st.tuples(st.sampled_from(SPACES), st.integers(1, 12)),
                         min_size=1, max_size=5, unique=True))
    groups = {key: draw(st.sampled_from(GROUPS)) for key in keys}
    body = []
    for (space, m), group in groups.items():
        labels = [draw(_label) for _ in range(group.dim)]
        if labels in ([""], ["-"]):
            labels = ["a"]
        body.append(f"group {space} {m} = {group.free_rank} "
                    f"[{','.join(map(str, group.torsion))}] "
                    f"gens {','.join(labels) or '-'} src \"{draw(_citation)}\"")
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    homs = {}
    for _ in range(draw(st.integers(0, 6))):
        name = draw(st.sampled_from(sorted(HOM_NAMES)))
        source = draw(st.sampled_from(keys))
        group = groups[source]
        if name == "antipodal_A":     # an automorphism: +-1
            sign = rng.choice((1, -1))
            homs[name, source, source] = Homomorphism(group, group, [
                [sign * (i == j) for j in range(group.dim)] for i in range(group.dim)])
        else:
            target = draw(st.sampled_from(keys))
            homs[name, source, target] = random_well_defined_hom(
                rng, group, groups[target])
    for (name, (s, sm), (t, tm)), hom in homs.items():
        tf = hom.target.free_rank
        rows = [[x + (rng.randint(-2, 2) * hom.target.torsion[i - tf] if i >= tf else 0)
                 for x in row] for i, row in enumerate(hom.matrix)]
        matrix = "[" + ",".join("[" + ",".join(map(str, r)) + "]" for r in rows) + "]"
        body.append(f'hom {name} {s},{sm} -> {t},{tm} matrix {matrix} '
                    f'src "{draw(_citation)}"')

    def ref(key):
        name, (s, sm), (t, tm) = key
        if [k[0] for k in homs].count(name) == 1 and draw(st.booleans()):
            return name
        return f"{name}:{s},{sm}->{t},{tm}"

    for key, hom in homs.items():
        if hom.is_zero_map() and draw(st.booleans()):
            body.append(f"assert_zero {ref(key)}")
        if is_surjective(hom) and draw(st.booleans()):
            body.append(f"assert_surjective {ref(key)}")
    for left, right in product(homs, homs):
        if (left[2] == right[1] and exact_at(homs[left], homs[right])
                and draw(st.booleans())):
            body.append(f"assert_exact {ref(left)} {ref(right)}")
    rng.shuffle(body)
    return "\n".join(["nielsendb v1", *body]) + "\n"


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_database_text())
def test_serialize_is_a_fixed_point_of_loads(text):
    db = loads(text)
    assert all(ref.source is not None for a in db.assertions for ref in a.refs)
    out = serialize(db)
    again = loads(out)
    assert again == db
    assert serialize(again) == out
