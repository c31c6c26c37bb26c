"""Adjunctions, induced (co)monads, mates, and comparison functors."""

import pytest

from finmonad.adjunction import (
    Adjunction,
    CommutingSquareL,
    CommutingSquareR,
    comparison_functor_em,
    comparison_functor_kleisli,
    identity_adjunction,
    induced_comonad,
    induced_monad,
    mate_left,
    mate_right,
)
from finmonad.construct import em_category, em_coalgebra_category, kleisli_category
from finmonad.errors import LawViolation, SquareConstraintViolation
from finmonad.fincat import (
    NatTrans,
    compose_functors,
    identity_functor,
    identity_nat,
)
from finmonad.monad import identity_comonad, identity_monad
from finmonad.report import Violation


def test_identity_adjunction_and_its_induced_structures(cor):
    a = identity_adjunction(cor.c3)
    assert induced_monad(a) == identity_monad(cor.c3)
    assert induced_comonad(a) == identity_comonad(cor.c3)


def test_triangle_identities_are_constructor_enforced(cor):
    Id = identity_functor(cor.m_z2)
    twist = NatTrans(Id, Id, {"g": "s"})
    with pytest.raises(LawViolation) as info:
        Adjunction(Id, Id, twist, identity_nat(Id))
    assert list(info.value.violations) == [
        Violation("TriangleIdentityL", "law-triangle-left", where="g",
                  lhs="s", rhs="e"),
        Violation("TriangleIdentityR", "law-triangle-right", where="g",
                  lhs="s", rhs="e")]


def test_induced_monad_of_algebra_adjunction_is_exact(cor):
    for name, m in cor.monads_c3.items():
        em = em_category(m)
        assert induced_monad(em.adj) == m
    for name, m in cor.monads_z2.items():
        em = em_category(m)
        assert induced_monad(em.adj) == m


def test_induced_monad_of_kleisli_adjunction_is_exact(cor):
    for _, _, m in cor.all_monads():
        kl = kleisli_category(m)
        assert induced_monad(kl.adj) == m


def test_induced_comonad_of_coalgebra_adjunction_is_exact(cor):
    for _, _, c in cor.all_comonads():
        co = em_coalgebra_category(c)
        assert induced_comonad(co.adj) == c


def test_induced_comonad_on_algebras_passes_laws(cor):
    em = em_category(cor.monads_c3["c1"])
    comonad_up = induced_comonad(em.adj)
    assert comonad_up.check() == []


def test_square_constraint_is_validated(cor):
    a = identity_adjunction(cor.c3)
    c1f = cor.monads_c3["c1"].S
    with pytest.raises(SquareConstraintViolation):
        CommutingSquareR(a, a, c1f, identity_functor(cor.c3))


def test_mate_of_identity_square_is_identity(cor):
    for _, _, m in cor.all_monads():
        for adj in (em_category(m).adj, kleisli_category(m).adj,
                    identity_adjunction(m.base)):
            sq_r = CommutingSquareR(adj, adj, identity_functor(adj.base),
                                    identity_functor(adj.upper))
            assert mate_right(sq_r).components == identity_nat(adj.L).components
            sq_l = CommutingSquareL(adj, adj, identity_functor(adj.base),
                                    identity_functor(adj.upper))
            assert mate_left(sq_l).components == identity_nat(adj.R).components


def test_comparison_into_algebras_of_algebra_adjunction_is_iso(cor):
    m = cor.monads_c3["c1"]
    em = em_category(m)
    sq = comparison_functor_em(em.adj)
    K = sq.K
    images = sorted(K.object_map.values())
    assert images == sorted(K.object_map.keys()) == sorted(em.category.objects)
    assert sorted(K.morphism_map.values()) == sorted(
        mm.id for mm in em.category.morphisms)


def test_comparison_for_identity_adjunction_sends_objects_to_trivial_algebras(cor):
    a = identity_adjunction(cor.c3)
    sq = comparison_functor_em(a)
    em = em_category(identity_monad(cor.c3))
    for x in cor.c3.objects:
        assert sq.K.ob(x) == em.algebra_id(x, cor.c3.identity(x))


def test_comparison_from_kleisli_is_full_and_faithful_on_fixture(cor):
    m = cor.monads_c3["c1"]
    kl = kleisli_category(m)
    sq = comparison_functor_em(kl.adj)
    em = em_category(m)
    K = sq.K
    for x in kl.category.objects:
        for y in kl.category.objects:
            upstairs = em.category.hom(K.ob(x), K.ob(y))
            downstairs = kl.category.hom(x, y)
            assert len(upstairs) == len(downstairs)


def test_kleisli_comparison_functor(cor):
    # identity adjunction: the comparison is bijective on cells
    a = identity_adjunction(cor.c3)
    sq = comparison_functor_kleisli(a)
    assert sorted(sq.K.object_map.values()) == sorted(cor.c3.objects)
    assert compose_functors(sq.K, kleisli_category(induced_monad(a)).D) == a.L

    # algebra adjunction: the comparison lands in free algebras only
    m = cor.monads_c3["c1"]
    em = em_category(m)
    sq = comparison_functor_kleisli(em.adj)
    free = {em.F.ob(x) for x in cor.c3.objects}
    assert set(sq.K.object_map.values()) <= free

    # Kleisli adjunction of c2: comparison is bijective on objects and homs
    m2 = cor.monads_c3["c2"]
    kl = kleisli_category(m2)
    sq = comparison_functor_kleisli(kl.adj)
    assert sorted(sq.K.object_map.values()) == sorted(kl.category.objects)
    assert len(set(sq.K.morphism_map.values())) == len(kl.category.morphisms)


def test_comparison_functors_construct_for_every_fixture_adjunction(cor):
    # both comparison squares are constructor-validated; a broken strict
    # equality would raise here
    for _, _, m in cor.all_monads():
        for adj in (em_category(m).adj, kleisli_category(m).adj,
                    identity_adjunction(m.base)):
            comparison_functor_em(adj)
            comparison_functor_kleisli(adj)
