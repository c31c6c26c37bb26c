"""The backtracking enumerators against the brute-force oracles.

Every result must be lawful, and the sorted ``canonical_key()`` lists must
equal the oracles' on random posets, on small monoids and products, and on
random pairs of parallel functors.
"""

from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    brute_functors,
    brute_nat_trans,
    chain2_times_z2,
    cyclic,
    map_id,
    posets,
    then,
    transformation_maps,
    transformation_monoid,
)

from finmonad.errors import EnumerationCapExceeded
from finmonad.fincat import (
    check_functor,
    check_naturality,
    enumerate_functors,
    enumerate_nat_trans,
)
from finmonad.fixtures import c3

SMALL = {
    "z2": cyclic(2), "z3": cyclic(3), "z4": cyclic(4), "z5": cyclic(5),
    "t2": transformation_monoid(2), "c2xz2": chain2_times_z2(),
}


def keys(values) -> list:
    return [v.canonical_key() for v in values]


def assert_functors_match(source, target):
    found = enumerate_functors(source, target)
    assert keys(found) == keys(brute_functors(source, target))
    assert all(check_functor(F) == [] for F in found)


@settings(max_examples=60, deadline=None)
@given(posets(), posets())
def test_functors_between_posets_match_brute_force(source, target):
    assert_functors_match(source, target)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_endofunctors_of_small_monoids_match_brute_force(name):
    assert_functors_match(SMALL[name], SMALL[name])


@pytest.mark.parametrize("source,target", [
    ("z4", "z2"), ("z2", "z4"), ("t2", "z2"), ("z2", "t2"),
    ("c2xz2", "t2"), ("t2", "c2xz2"), ("z3", "c2xz2"),
])
def test_functors_between_small_monoids_match_brute_force(source, target):
    assert_functors_match(SMALL[source], SMALL[target])


@st.composite
def parallel_functors(draw):
    """Two random functors with the same source and target."""
    if draw(st.booleans()):
        source, target = draw(posets()), draw(posets())
    else:
        source = SMALL[draw(st.sampled_from(sorted(SMALL)))]
        target = SMALL[draw(st.sampled_from(sorted(SMALL)))]
    functors = enumerate_functors(source, target)
    assume(functors)
    return draw(st.sampled_from(functors)), draw(st.sampled_from(functors))


@settings(max_examples=80, deadline=None)
@given(parallel_functors())
def test_nat_trans_match_brute_force(pair):
    F, G = pair
    found = enumerate_nat_trans(F, G)
    assert keys(found) == keys(brute_nat_trans(F, G))
    assert all(check_naturality(alpha) == [] for alpha in found)


def fewest_nodes(source, target) -> int:
    """The smallest cap under which enumerate_functors finishes."""
    cap = 0
    while True:
        try:
            enumerate_functors(source, target, cap=cap)
            return cap
        except EnumerationCapExceeded as exc:
            assert exc.estimate > cap
            cap += 1


@pytest.mark.parametrize("name", ["chain3", "c2xz2", "z3"])
def test_cap_counts_nodes_visited_whatever_the_jobs(name):
    cat = c3() if name == "chain3" else SMALL[name]
    need = fewest_nodes(cat, cat)
    for jobs in (1, 2):
        assert len(enumerate_functors(cat, cat, cap=need, jobs=jobs)) > 0
        with pytest.raises(EnumerationCapExceeded):
            enumerate_functors(cat, cat, cap=need - 1, jobs=jobs)


def t3_endomorphisms_by_generators() -> int:
    """Monoid endomorphisms of T3, counted over the images of generators.

    T3 is generated by a transposition, a 3-cycle and a map of rank 2.
    Every element gets a word in the generators; a choice of generator
    images defines a map on words, which is an endomorphism exactly when
    it respects multiplication by each generator on the right.
    """
    ident = (0, 1, 2)
    gens = [(1, 0, 2), (1, 2, 0), (0, 0, 2)]
    # breadth-first words: each element is its parent times one generator
    steps = []
    seen = {ident}
    frontier = [ident]
    while frontier:
        grown = []
        for x in frontier:
            for k, g in enumerate(gens):
                y = then(x, g)
                if y not in seen:
                    seen.add(y)
                    steps.append((y, x, k))
                    grown.append(y)
        frontier = grown
    maps = transformation_maps(3)
    assert len(seen) == len(maps)
    count = 0
    for images in product(maps, repeat=len(gens)):
        phi = {ident: ident}
        for y, x, k in steps:
            phi[y] = then(phi[x], images[k])
        if all(phi[then(x, g)] == then(phi[x], images[k])
               for x in maps for k, g in enumerate(gens)):
            count += 1
    return count


def test_t3_endofunctors_finish_under_the_default_cap():
    t3 = transformation_monoid(3)
    found = enumerate_functors(t3, t3)
    assert len(found) == t3_endomorphisms_by_generators()
    assert all(check_functor(F) == [] for F in found)
    # the identity and the constant functor onto the identity are among them
    assert {F.mor(map_id((1, 0, 2))) for F in found} >= {
        map_id((1, 0, 2)), map_id((0, 1, 2))}
