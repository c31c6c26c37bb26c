"""Property tests over randomly generated finite posets.

A poset is generated as the reflexive-transitive closure of a random
relation on up to four elements, then realized as a thin category. These
exercise validation, duality, and the closure-operator characterization
away from the handpicked fixtures.
"""

from itertools import product

from hypothesis import given, settings
from oracles import posets

from finmonad.fincat import opposite, validate_category
from finmonad.jsonio import category_to_raw
from finmonad.monad import enumerate_comonads, enumerate_monads


def closure_count(cat):
    objs = cat.objects
    count = 0
    for combo in product(objs, repeat=len(objs)):
        f = dict(zip(objs, combo))
        if (all(cat.le(x, f[x]) for x in objs)
                and all(f[f[x]] == f[x] for x in objs)
                and all(not cat.le(x, y) or cat.le(f[x], f[y])
                        for x in objs for y in objs)):
            count += 1
    return count


@settings(max_examples=60, deadline=None)
@given(posets())
def test_generated_posets_validate_and_revalidate(cat):
    again = validate_category(category_to_raw(cat))
    assert again == cat


@settings(max_examples=60, deadline=None)
@given(posets())
def test_opposite_is_an_involution(cat):
    assert opposite(opposite(cat)) == cat


@settings(max_examples=25, deadline=None)
@given(posets())
def test_monad_count_equals_closure_operator_count(cat):
    monads = enumerate_monads(cat)
    assert len(monads) == closure_count(cat)
    for m in monads:
        f = m.S.object_map
        assert all(cat.le(x, f[x]) for x in cat.objects)
        assert all(f[f[x]] == f[x] for x in cat.objects)


@settings(max_examples=25, deadline=None)
@given(posets())
def test_comonad_count_matches_opposite_monad_count(cat):
    assert len(enumerate_comonads(cat)) == len(enumerate_monads(opposite(cat)))
