"""Algebra, coalgebra, and Kleisli category constructions, and the same
constructions against the references that name everything by hand."""

import gc
import sys
import threading
import weakref

import pytest
from hypothesis import given, settings
from oracles import (
    DIFFERENTIAL,
    finset_subcategories,
    ref__em_category,
    ref_em_category,
    ref_kleisli_category,
)

from finmonad.adjunction import induced_monad
from finmonad.construct import (
    _algebra_morphism_id,
    em_category,
    em_coalgebra_category,
    kleisli_category,
)
from finmonad.errors import EnumerationCapExceeded
from finmonad.fincat import DEFAULT_CAP, validate_category
from finmonad.monad import (
    enumerate_comonads,
    enumerate_monads,
    identity_comonad,
    identity_monad,
    monad_on_opposite,
)


def test_algebras_of_identity_monad_mirror_the_base(cor):
    em = em_category(identity_monad(cor.c2))
    assert len(em.category.objects) == 2
    assert len(em.category.morphisms) == 3


def test_algebras_of_closure_monad_are_its_fixed_points(cor):
    em = em_category(cor.monads_c3["c1"])
    assert [em.carrier(a) for a in em.category.objects] == ["0", "2"]
    # the fixed-point subposet is a 2-chain: one non-identity arrow
    assert len(em.category.morphisms) == 3
    a0, a2 = em.category.objects
    assert len(em.category.hom(a0, a2)) == 1
    assert len(em.category.hom(a2, a0)) == 0


def test_algebras_of_constant_closure(cor):
    em = em_category(cor.monads_c3["c3"])
    assert len(em.category.objects) == 1
    assert em.carrier(em.category.objects[0]) == "2"


def test_fixed_point_subposet_hom_counts(cor):
    for name in ("id", "c1", "c2", "c3"):
        m = cor.monads_c3[name]
        em = em_category(m)
        fixed = [x for x in cor.c3.objects if m.S.ob(x) == x]
        assert [em.carrier(a) for a in em.category.objects] == fixed
        for a in em.category.objects:
            for b in em.category.objects:
                assert (len(em.category.hom(a, b))
                        == len(cor.c3.hom(em.carrier(a), em.carrier(b))))


def test_free_algebras_are_algebras_and_counit_is_structure(cor):
    for _, _, m in cor.all_monads():
        em = em_category(m)
        for x in m.base.objects:
            assert em.algebra_id(m.S.ob(x), m.mu.at(x)) in em.category.objects
        for a in em.category.objects:
            assert em.underlying(em.adj.counit.at(a)) == em.structure(a)


def test_coalgebras_of_identity_comonad(cor):
    co = em_coalgebra_category(identity_comonad(cor.c3))
    assert len(co.category.objects) == 3
    assert len(co.category.morphisms) == 6


def test_coalgebras_of_interior_operator_are_open_elements(cor):
    co = em_coalgebra_category(cor.comonads_c3["i1"])
    assert [co.on_opposite.carrier(a) for a in co.category.objects] == ["0", "2"]


def test_coalgebras_of_constant_interior_on_c2(cor):
    co = em_coalgebra_category(cor.comonads_c2["bot"])
    assert len(co.category.objects) == 1
    assert co.on_opposite.carrier(co.category.objects[0]) == "a"


def test_kleisli_of_identity_monad_mirrors_the_base(cor):
    kl = kleisli_category(identity_monad(cor.c2))
    assert len(kl.category.objects) == 2
    assert len(kl.category.morphisms) == 3


def test_kleisli_hom_counts_for_closure_monad(cor):
    kl = kleisli_category(cor.monads_c3["c1"])
    assert len(kl.category.hom("1", "0")) == 0
    assert len(kl.category.hom("0", "1")) == 1
    # oracle: hom_kl(x, y) = hom(x, c1(y))
    m = cor.monads_c3["c1"]
    for x in cor.c3.objects:
        for y in cor.c3.objects:
            assert (len(kl.category.hom(x, y))
                    == len(cor.c3.hom(x, m.S.ob(y))))


def test_kleisli_identity_and_unit_are_eta(cor):
    m = cor.monads_c3["c2"]
    kl = kleisli_category(m)
    for x in cor.c3.objects:
        assert kl.underlying(kl.category.identity(x)) == m.eta.at(x)
        assert kl.adj.unit.at(x) == m.eta.at(x)


def test_kleisli_composition_against_formula(cor):
    # z♯ ∘ y♯ has underlying mu_Z ∘ T z ∘ y, checked over every pair
    for name in ("c1", "c2", "c3"):
        m = cor.monads_c3[name]
        kl = kleisli_category(m)
        for f in kl.category.morphisms:
            for g in kl.category.morphisms:
                if f.tgt != g.src:
                    continue
                y, z = kl.underlying(f.id), kl.underlying(g.id)
                want = cor.c3.compose(cor.c3.compose(y, m.S.mor(z)),
                                      m.mu.at(g.tgt))
                assert kl.underlying(kl.category.compose(f.id, g.id)) == want


def test_kleisli_of_z2_monads(cor):
    for m in cor.monads_z2.values():
        kl = kleisli_category(m)
        assert induced_monad(kl.adj) == m
        assert len(kl.category.morphisms) == 2


def test_constructions_on_empty_category(cor):
    m = identity_monad(cor.empty)
    assert em_category(m).category.objects == ()
    assert kleisli_category(m).category.objects == ()
    c = identity_comonad(cor.empty)
    assert em_coalgebra_category(c).category.objects == ()


def test_algebra_ids_are_canonical(cor):
    em = em_category(cor.monads_c3["c1"])
    assert em.category.objects == ("⟨0|id_0⟩", "⟨2|id_2⟩")
    kl = kleisli_category(cor.monads_c3["c1"])
    assert kl.category.identity("0") == "♯⟨id_0:0→0⟩"


def test_constructed_ids_stay_distinct_when_base_ids_hold_delimiters():
    # Unescaped, the algebras (a|b, c) and (a, b|c) of the identity monad
    # would both be ⟨a|b|c⟩, and the Kleisli arrows u: p:q → r and
    # u:p: q → r would both be ♯⟨u:p:q→r⟩.
    identities = {"a|b": "c", "a": "b|c", "p:q": "i\\p", "q": "i:q", "r": "→r"}
    morphisms = [{"id": i, "src": x, "tgt": x} for x, i in identities.items()]
    morphisms += [{"id": "u", "src": "p:q", "tgt": "r"},
                  {"id": "u:p", "src": "q", "tgt": "r"}]
    base = validate_category({"objects": list(identities),
                              "morphisms": morphisms,
                              "identities": identities, "composition": []})
    m = identity_monad(base)
    em = em_category(m)
    assert len(em.category.objects) == len(base.objects)
    assert len(em.category.morphisms) == len(base.morphisms)
    assert em.algebra_id("a|b", "c") != em.algebra_id("a", "b|c")
    kl = kleisli_category(m)
    assert len(kl.category.morphisms) == len(base.morphisms)
    assert kl.kleisli_id("u", "p:q", "r") != kl.kleisli_id("u:p", "q", "r")
    assert induced_monad(em.adj) == m
    assert induced_monad(kl.adj) == m


def twin(s):
    """A (co)monad equal to ``s`` but a distinct object, so that nothing
    built on ``s`` is memoised on it."""
    return type(s)(s.base, s.endo, s.mult, s.unit)


def test_two_runs_produce_identical_categories(cor):
    # two equal but distinct monads, so each side is its own build
    a, b = twin(cor.monads_c3["c2"]), twin(cor.monads_c3["c2"])
    em_a, em_b = em_category(a), em_category(b)
    assert em_a is not em_b and em_a.category == em_b.category
    kl_a, kl_b = kleisli_category(a), kleisli_category(b)
    assert kl_a is not kl_b and kl_a.category == kl_b.category


# -- one construction per (co)monad value -------------------------------------------


def test_each_construction_is_built_once_per_value(cor):
    m, c = cor.monads_c3["c2"], cor.comonads_c3["i1"]
    assert em_category(m) is em_category(m)
    assert kleisli_category(m) is kleisli_category(m)
    assert em_coalgebra_category(c) is em_coalgebra_category(c)


def test_equal_values_build_their_own_constructions(cor):
    """The memo is per object, not per equality class."""
    m, c = cor.monads_c3["c2"], cor.comonads_c3["i1"]
    m2, c2 = twin(m), twin(c)
    assert m2 == m and c2 == c
    assert em_category(m2) is not em_category(m)
    assert em_category(m2).monad is m2
    assert kleisli_category(m2) is not kleisli_category(m)
    assert kleisli_category(m2).monad is m2
    assert em_coalgebra_category(c2) is not em_coalgebra_category(c)
    assert em_coalgebra_category(c2).comonad is c2


@pytest.mark.parametrize("kind", ["algebras", "coalgebras"])
def test_cap_verdict_does_not_depend_on_an_earlier_build(cor, kind):
    """The estimate is compared with the cap on every call: after a build,
    a cap below it still raises and names the count a fresh value names."""
    build, value = ((em_category, cor.monads_c3["c1"]) if kind == "algebras"
                    else (em_coalgebra_category, cor.comonads_c3["i1"]))
    built = build(value)
    with pytest.raises(EnumerationCapExceeded) as fresh:
        build(twin(value), cap=0)
    estimate = fresh.value.estimate
    assert estimate > 0
    with pytest.raises(EnumerationCapExceeded) as again:
        build(value, cap=estimate - 1)
    assert (again.value.estimate, again.value.cap) == (estimate, estimate - 1)
    assert build(value, cap=estimate) is built


def test_racing_first_calls_all_get_the_stored_object(cor):
    """Threads that call at once on a value nothing was built on yet may
    each build, but every one of them gets the one object the memo keeps."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(30):
            m = twin(cor.monads_c3["c1"])
            start = threading.Barrier(8)
            got = []

            def call(m=m, start=start, got=got):
                start.wait(timeout=10)
                got.append((em_category(m), kleisli_category(m)))

            threads = [threading.Thread(target=call) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert len(got) == 8
            assert all(em is em_category(m) and kl is kleisli_category(m)
                       for em, kl in got)
    finally:
        sys.setswitchinterval(interval)


def test_a_construction_lives_no_longer_than_its_value(cor):
    """The memo ties each construction to its (co)monad and to nothing
    else: once the value is dropped, the cyclic collector frees them."""
    m = enumerate_monads(cor.c3)[1]
    c = enumerate_comonads(cor.c3)[1]
    functors = [weakref.ref(em_category(m).U), weakref.ref(kleisli_category(m).V),
                weakref.ref(em_coalgebra_category(c).U)]
    assert all(ref() is not None for ref in functors)
    del m, c
    gc.collect()
    assert [ref() for ref in functors] == [None, None, None]


def test_em_of_z2_twist_monad(cor):
    # unit law chi ∘ eta = id forces chi = s; both endomorphisms commute
    em = em_category(cor.monads_z2["twist"])
    assert len(em.category.objects) == 1
    assert em.structure(em.category.objects[0]) == "s"
    assert len(em.category.morphisms) == 2


# -- against the constructions as first written ------------------------------------


def assert_same_category(got, want) -> None:
    """The same objects and morphisms in the same order, the same
    identities and the same composition."""
    assert got.objects == want.objects
    assert got.morphisms == want.morphisms
    assert got.identities == want.identities
    assert list(got.composition_items()) == list(want.composition_items())


def assert_algebras_match(em, ref) -> None:
    assert_same_category(em.category, ref.category)
    assert (em.U, em.F, em.adj) == (ref.U, ref.F, ref.adj)
    assert em.algebra_objects() == ref.algebra_objects()
    for x in em.monad.base.objects:
        assert em.F.ob(x) == ref.free_algebra(x)
    for mm in ref.category.morphisms:
        assert em.underlying(mm.id) == ref.underlying(mm.id)


def assert_constructions_match(monads, comonads) -> None:
    """The algebras and the Kleisli category of every monad, and the
    algebras on the opposite category that every comonad's coalgebras
    are read off, equal the references: at the first call, which builds
    them on a value nothing was built on yet, and at the second, which
    reads them back."""
    for m in monads:
        ref_em, ref_kl = ref_em_category(m), ref_kleisli_category(m)
        for _ in range(2):
            assert_algebras_match(em_category(m), ref_em)
            kl = kleisli_category(m)
            assert_same_category(kl.category, ref_kl.category)
            assert (kl.D, kl.V, kl.adj) == (ref_kl.D, ref_kl.V, ref_kl.adj)
            for mm in ref_kl.category.morphisms:
                assert ((kl.underlying(mm.id), mm.src, mm.tgt)
                        == ref_kl.underlying(mm.id))
    for c in comonads:
        ref = ref__em_category(monad_on_opposite(c), DEFAULT_CAP,
                               lambda f, src, tgt: _algebra_morphism_id(f, tgt, src))
        for _ in range(2):
            assert_algebras_match(em_coalgebra_category(c).on_opposite, ref)


def test_constructions_match_the_first_written_on_the_corpus(cor):
    # twins, since the session's corpus values may hold their constructions
    assert_constructions_match([twin(m) for _, _, m in cor.all_monads()],
                               [twin(c) for _, _, c in cor.all_comonads()])


@pytest.mark.parametrize("name", list(DIFFERENTIAL))
def test_constructions_match_the_first_written(name):
    cat = DIFFERENTIAL[name]()
    assert_constructions_match(enumerate_monads(cat), enumerate_comonads(cat))


@settings(max_examples=30, deadline=None)
@given(finset_subcategories())
def test_constructions_match_the_first_written_on_random_finset_subcategories(cat):
    assert_constructions_match(enumerate_monads(cat), enumerate_comonads(cat))
