"""The backtracking enumerators against the brute-force oracles.

Every result must be lawful, and the sorted ``canonical_key()`` lists must
equal the oracles' on random posets, on small monoids and products, and on
random pairs of parallel functors. The shared law and lifting searches
must return what the per-kind searches they replaced return, in the same
order, and stop at the same cap; so must the monad and comonad searches
against the monad search as first written.
"""

from itertools import product
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    brute_functors,
    brute_nat_trans,
    chain2_times_z2,
    cyclic,
    delta,
    map_id,
    posets,
    ref_comonad_lifting,
    ref_enumerate_comonad_liftings,
    ref_enumerate_dist_laws,
    ref_enumerate_liftings,
    ref_enumerate_mixed_laws,
    ref_enumerate_monads,
    ref_extend_monad,
    ref_lift_monad,
    then,
    transformation_maps,
    transformation_monoid,
)

from finmonad.construct import em_category, kleisli_category
from finmonad.distlaw import enumerate_dist_laws, enumerate_mixed_laws
from finmonad.errors import EnumerationCapExceeded
from finmonad import monad
from finmonad.fincat import (
    Functor,
    NatTrans,
    check_functor,
    check_naturality,
    compose_functors,
    enumerate_functors,
    enumerate_nat_trans,
    identity_functor,
    opposite,
)
from finmonad.fixtures import c3, chain_category, m_z2
from finmonad.monad import (
    Monad,
    check_monad_laws,
    comonad_on_opposite,
    enumerate_comonads,
    enumerate_monads,
)
from finmonad.twofunctors import (
    _comonad_lifting,
    enumerate_comonad_liftings,
    enumerate_liftings,
    extend_monad,
    lift_monad,
)

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


# ---------------------------------------------------------------------------
# Shared law and lifting searches against the per-kind searches


def twin_structures(cor, name):
    """The monads and comonads whose pairs the twin tests search."""
    if name == "C3":
        return list(cor.monads_c3.values()), list(cor.comonads_c3.values())
    cat = {"M(Z2)": m_z2, "Z3": lambda: cyclic(3),
           "T2": lambda: transformation_monoid(2),
           "C2xZ2": chain2_times_z2}[name]()
    return enumerate_monads(cat), enumerate_comonads(cat)


def law_estimate(S, endo) -> int:
    """The law search's product estimate: one component per object."""
    cat = S.base
    return prod(len(cat.hom(S.S.ob(endo.ob(x)), endo.ob(S.S.ob(x))))
                for x in cat.objects)


def lifting_estimate(S, endo) -> int:
    """The lifting search's product estimate: one algebra per algebra."""
    em = em_category(S)
    return prod(len(em.algebras_with_carrier(endo.ob(em.carrier(a))))
                for a in em.category.objects)


def outcome(search, S, other, cap):
    try:
        return search(S, other, cap=cap)
    except EnumerationCapExceeded as exc:
        return ("cap", exc.estimate, exc.cap)


def assert_twins_match(search, reference, S, other, estimate) -> int:
    found = search(S, other)
    want = reference(S, other)
    assert found == want
    assert keys(found) == keys(want)
    assert keys(search(S, other, jobs=2)) == keys(found)
    if estimate:
        assert outcome(search, S, other, estimate) == found
        boundary = ("cap", estimate, estimate - 1)
        assert outcome(search, S, other, estimate - 1) == boundary
        assert outcome(reference, S, other, estimate - 1) == boundary
    return len(found)


TWIN_CASES = ["C3", "M(Z2)", "T2", "Z3"]


@pytest.mark.parametrize("name", TWIN_CASES)
def test_law_search_matches_the_per_kind_searches(cor, name):
    monads, comonads = twin_structures(cor, name)
    plain = mixed = 0
    for S in monads:
        for T in monads:
            plain += assert_twins_match(enumerate_dist_laws,
                                        ref_enumerate_dist_laws, S, T,
                                        law_estimate(S, T.S))
        for G in comonads:
            mixed += assert_twins_match(enumerate_mixed_laws,
                                        ref_enumerate_mixed_laws, S, G,
                                        law_estimate(S, G.G))
    assert plain > 0 and mixed > 0


@pytest.mark.parametrize("name", TWIN_CASES)
def test_lifting_search_matches_the_per_kind_searches(cor, name):
    monads, comonads = twin_structures(cor, name)
    plain = co = 0
    for S in monads:
        for T in monads:
            plain += assert_twins_match(enumerate_liftings,
                                        ref_enumerate_liftings, S, T,
                                        lifting_estimate(S, T.S))
        for G in comonads:
            co += assert_twins_match(enumerate_comonad_liftings,
                                     ref_enumerate_comonad_liftings, S, G,
                                     lifting_estimate(S, G.G))
    assert plain > 0 and co > 0


def structure_data(endo, mult, unit) -> tuple:
    """The maps of a lifted endofunctor and its structure components."""
    return (endo.object_map, endo.morphism_map, mult.components, unit.components)


@pytest.mark.parametrize("name", ["C3", "Z3", "T2", "C2xZ2"])
def test_lifts_and_extensions_match_the_per_kind_constructions(cor, name):
    """Every law lifts and extends, and every mixed law lifts, to what the
    constructions written once per kind build."""
    monads, comonads = twin_structures(cor, name)
    plain = mixed = 0
    for S in monads:
        em = em_category(S)
        for T in monads:
            kl = kleisli_category(T)
            for dl in enumerate_dist_laws(S, T):
                for build, reference, cat in ((lift_monad, ref_lift_monad, em),
                                              (extend_monad, ref_extend_monad, kl)):
                    found, want = build(dl, cat), reference(dl, cat)
                    assert found == want
                    assert (structure_data(found.endo, found.mult, found.unit)
                            == structure_data(want.endo, want.mult, want.unit))
                plain += 1
        for G in comonads:
            for ml in enumerate_mixed_laws(S, G):
                assert (structure_data(*_comonad_lifting(ml, em))
                        == structure_data(*ref_comonad_lifting(ml, em)))
                mixed += 1
    assert plain > 0 and mixed > 0


# ---------------------------------------------------------------------------
# The monad search against the search as first written

MONAD_CASES = {
    **{f"chain{n}": lambda n=n: chain_category("abcde"[:n])
       for n in (2, 3, 4, 5)},
    "C3": c3, "M(Z2)": m_z2,
    **{f"Z{n}": lambda n=n: cyclic(n) for n in (2, 3, 4, 5)},
    "T2": lambda: transformation_monoid(2), "C2xZ2": chain2_times_z2,
    "Delta{1,2,3}": lambda: delta([1, 2, 3]),
}


def ref_comonads(cat, **kw) -> list:
    return [comonad_on_opposite(m)
            for m in ref_enumerate_monads(opposite(cat), **kw)]


def assert_monad_searches_match(cat) -> None:
    monads = keys(ref_enumerate_monads(cat))
    comonads = keys(ref_comonads(cat))
    for jobs in (1, 2):
        assert keys(enumerate_monads(cat, jobs=jobs)) == monads
        assert keys(enumerate_comonads(cat, jobs=jobs)) == comonads


@pytest.mark.parametrize("name", list(MONAD_CASES))
def test_monad_search_matches_the_first_search(name):
    assert_monad_searches_match(MONAD_CASES[name]())


@settings(max_examples=60, deadline=None)
@given(posets())
def test_monad_search_matches_the_first_search_on_posets(cat):
    assert_monad_searches_match(cat)


@pytest.mark.parametrize("jobs", [1, 2])
def test_monad_search_keeps_the_cap_boundary_of_chain3(jobs):
    cat = c3()
    for search, reference in ((enumerate_monads, ref_enumerate_monads),
                              (enumerate_comonads, ref_comonads)):
        for cap in (89, 90):
            try:
                found = keys(search(cat, cap=cap, jobs=jobs))
            except EnumerationCapExceeded as exc:
                found = ("cap", exc.estimate, exc.cap)
            try:
                want = keys(reference(cat, cap=cap, jobs=jobs))
            except EnumerationCapExceeded as exc:
                want = ("cap", exc.estimate, exc.cap)
            assert found == want
            assert (found == ("cap", 90, 89)) == (cap == 89)


def every_transformation(F, G, cap=None) -> list:
    """Every transformation F → G, natural or not."""
    objs = F.source.objects
    homs = [F.target.hom(F.ob(x), G.ob(x)) for x in objs]
    return [NatTrans(F, G, dict(zip(objs, combo))) for combo in product(*homs)]


def every_endomap(cat, target=None, cap=None, jobs=None) -> list:
    """Every map of the category to itself that sends identities to
    identities and each morphism into the right hom-set: functors, and
    maps that break composition."""
    objs = cat.objects
    free = [m for m in cat.morphisms if not cat.is_identity(m.id)]
    out = []
    for images in product(objs, repeat=len(objs)):
        omap = dict(zip(objs, images))
        ident = {cat.identity(x): cat.identity(omap[x]) for x in objs}
        homs = [cat.hom(omap[m.src], omap[m.tgt]) for m in free]
        for combo in product(*homs):
            images = {m.id: f for m, f in zip(free, combo)}
            out.append(Functor(cat, cat, omap, {**ident, **images}))
    return out


@pytest.mark.parametrize("name", ["Z3", "Z4", "T2", "C2xZ2"])
def test_mu_search_checks_each_mu_law(name, monkeypatch):
    """On every category of MONAD_CASES, a natural unit of a functor
    leaves the mu laws redundant: a search that skipped associativity, the
    right unit law or the squares of mu would find the same monads. Fed every
    endomap and every unit, the mu search must keep exactly the triples
    whose only violations are of the unit's naturality."""
    cat = MONAD_CASES[name]()
    Id = identity_functor(cat)
    want = []
    for S in every_endomap(cat):
        mus = every_transformation(compose_functors(S, S), S)
        for eta in every_transformation(Id, S):
            for mu in mus:
                m = Monad(cat, S, mu, eta)
                if all(v.kind == "UnitNotNatural"
                       for v in check_monad_laws(m)):
                    want.append(m)
    want.sort(key=lambda m: m.canonical_key())
    monkeypatch.setattr(monad, "enumerate_functors", every_endomap)
    monkeypatch.setattr(monad, "enumerate_nat_trans", every_transformation)
    found = enumerate_monads(cat)
    assert keys(found) == keys(want)
    assert any(check_naturality(m.eta) for m in found)


@pytest.mark.parametrize("jobs", [1, 2])
def test_mu_searches_share_one_budget(jobs, monkeypatch):
    """With the endofunctor and unit stages replaced by uncapped lists,
    only the mu searches count against the cap, all of them together:
    9 endomaps of Z3 x 3 units x 3 choices of mu."""
    cat = cyclic(3)
    monkeypatch.setattr(monad, "enumerate_functors", every_endomap)
    monkeypatch.setattr(monad, "enumerate_nat_trans", every_transformation)
    assert len(enumerate_monads(cat, cap=81, jobs=jobs)) > 0
    with pytest.raises(EnumerationCapExceeded):
        enumerate_monads(cat, cap=80, jobs=jobs)


@pytest.mark.parametrize("name,count", [("Z5", 5), ("T2", 2), ("C2xZ2", 8)])
def test_monad_search_builds_one_monad_per_result(name, count, monkeypatch):
    """The search as first written builds a Monad for every natural
    (mu, eta) pair: 25, 14 and 16 here."""
    built = [0]
    init = Monad.__init__

    def counted(self, *args):
        built[0] += 1
        init(self, *args)

    monkeypatch.setattr(Monad, "__init__", counted)
    assert len(enumerate_monads(MONAD_CASES[name]())) == count
    assert built[0] == count


def test_monads_on_delta_0123_finish_under_the_default_cap():
    """Delta{0,1,2,3} (35 morphisms): the search as first written counted
    11.6M candidates and stopped at the cap."""
    found = enumerate_monads(delta([0, 1, 2, 3]))
    assert len(found) == 3
    assert all(check_monad_laws(m) == [] for m in found)
