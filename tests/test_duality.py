"""The comonad side read off the monad side on the opposite category,
held to the direct constructions of ``tests/oracles.py``: law checks,
enumeration, coalgebra categories, coalgebra-side liftings and the vec
psi_E action."""

import pytest
from hypothesis import given, settings
from oracles import (
    as_morphism,
    brute_comonads,
    chain2_times_z2,
    comonad_candidates,
    cyclic,
    posets,
    ref_check_comonad_laws,
    ref_coalgebra_lifting_violations,
    ref_colift_monad,
    ref_em_coalgebra_category,
    ref_extract_mixed_from_colifting,
    ref_vec_psi_e_1cell,
    ref_vec_psi_e_2cell,
    transformation_monoid,
)

from finmonad import distlaw
from finmonad.adjunction import induced_comonad
from finmonad.construct import em_coalgebra_category
from finmonad.distlaw import enumerate_mixed_laws
from finmonad.errors import FinMonadError, LawViolation
from finmonad.fincat import (
    NatTrans,
    compose_functors,
    enumerate_functors,
    enumerate_nat_trans,
    identity_functor,
)
from finmonad.fixtures import corpus, m_z2
from finmonad.monad import (
    check_comonad_laws,
    enumerate_comonads,
    enumerate_monads,
    identity_comonad,
)
from finmonad.twofunctors import (
    CoalgebraLifting,
    CoMndOneCell,
    CoMndTwoCell,
    colift_monad,
    extract_mixed_from_colifting,
    extract_mixed_from_lifting,
    lift_comonad,
    vec_psi_e_1cell,
    vec_psi_e_2cell,
)

NON_THIN = {"M(Z2)": m_z2, "Z3": lambda: cyclic(3),
            "T2": lambda: transformation_monoid(2), "C2xZ2": chain2_times_z2}


def keys(values):
    return [v.canonical_key() for v in values]


def assert_laws_match(cat):
    candidates = comonad_candidates(cat)
    assert candidates
    for c in candidates:
        assert check_comonad_laws(c) == ref_check_comonad_laws(c)


def assert_coalgebras_match(c):
    co, ref = em_coalgebra_category(c), ref_em_coalgebra_category(c)
    assert co.comonad == c
    assert co.category == ref.category
    assert co.category.objects == ref.category.objects
    assert co.category.morphisms == ref.category.morphisms
    assert (co.U, co.F, co.adj) == (ref.U, ref.F, ref.adj)
    assert induced_comonad(co.adj) == c
    em = co.on_opposite
    assert em.algebra_objects() == ref.coalgebra_objects()
    for a, x, xi in ref.coalgebra_objects():
        assert (em.carrier(a), em.structure(a)) == (x, xi)
        assert em.algebra_id(x, xi) == a
        assert em.algebras_with_carrier(x) == ref.coalgebras_with_carrier(x)
    for x in c.base.objects:
        assert em.F.ob(x) == ref.cofree_coalgebra(x)
        for xi in c.base.out_of(x):
            assert ((em.algebra_id(x, xi) in co.category.objects)
                    == ref.has_coalgebra(x, xi))
    for m in ref.category.morphisms:
        assert em.underlying(m.id) == ref.underlying(m.id)
    objs = ref.category.objects
    for f in c.base.morphisms:
        for a in objs:
            for b in objs:
                assert (as_morphism(co.category, f.id, a, b)
                        == ref.as_coalgebra_morphism(f.id, a, b))


@pytest.mark.parametrize("name", sorted(NON_THIN))
def test_comonad_violations_match_reference(name):
    assert_laws_match(NON_THIN[name]())


@settings(max_examples=40, deadline=None)
@given(posets(3))
def test_comonad_violations_match_reference_on_posets(cat):
    assert_laws_match(cat)


@pytest.mark.parametrize("name", sorted(NON_THIN))
def test_enumerated_comonads_match_reference(name):
    cat = NON_THIN[name]()
    found = enumerate_comonads(cat)
    assert keys(found) == keys(brute_comonads(cat))
    assert keys(enumerate_comonads(cat, jobs=2)) == keys(found)


@settings(max_examples=40, deadline=None)
@given(posets(3))
def test_enumerated_comonads_match_reference_on_posets(cat):
    assert keys(enumerate_comonads(cat)) == keys(brute_comonads(cat))


def test_identity_comonad_is_the_unit_tables(cor):
    for cat in (cor.c3, cor.m_z2, cor.empty):
        c = identity_comonad(cat)
        Id = identity_functor(cat)
        comps = {x: cat.identity(x) for x in cat.objects}
        assert c.base == cat and c.G == Id
        assert c.delta == NatTrans(Id, compose_functors(Id, Id), comps)
        assert c.epsilon == NatTrans(Id, Id, comps)


def test_coalgebra_categories_match_reference_on_the_corpus(cor):
    for _, _, c in cor.all_comonads():
        assert_coalgebras_match(c)


@pytest.mark.parametrize("name", sorted(NON_THIN))
def test_coalgebra_categories_match_reference_off_posets(name):
    for c in enumerate_comonads(NON_THIN[name]()):
        assert_coalgebras_match(c)


def mixed_laws(cor):
    for monads, comonads in ((cor.monads_c2, cor.comonads_c2),
                             (cor.monads_c3, cor.comonads_c3)):
        for S in monads.values():
            for G in comonads.values():
                yield from enumerate_mixed_laws(S, G)


def test_colifts_match_reference(cor):
    seen = 0
    for ml in mixed_laws(cor):
        cl = colift_monad(ml)
        shat, mu_hat, eta_hat = ref_colift_monad(ml)
        assert (cl.base, cl.below) == (ml.G, ml.S)
        assert cl.shat == shat
        assert cl.mu_hat == mu_hat and cl.eta_hat == eta_hat
        psi = ref_extract_mixed_from_colifting(cl.co, cl.below, cl.shat)
        assert extract_mixed_from_colifting(cl).psi == psi
        seen += 1
    assert seen > 11


def test_extraction_checks_the_recovered_law_once(cor, monkeypatch):
    pairs = [(lift_comonad(ml), colift_monad(ml)) for ml in mixed_laws(cor)]
    calls = []
    check = distlaw.check_mixed_law

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(distlaw, "check_mixed_law", counted)
    for lc, cl in pairs:
        for extract, lifting in ((extract_mixed_from_lifting, lc),
                                 (extract_mixed_from_colifting, cl)):
            calls.clear()
            extract(lifting)
            assert len(calls) == 1


def colifting_violations(G, co, S, shat, mu_hat, eta_hat):
    try:
        CoalgebraLifting(G, co, S, shat, mu_hat, eta_hat)
    except LawViolation as exc:
        return list(exc.violations), str(exc)
    return [], ""


def test_invalid_coliftings_report_like_the_reference(cor):
    """Wrong base monads on C3, and every (mu_hat, eta_hat) over the
    identity lifting on M(Z2), fail with the reference's violations."""
    cases = []
    for ml in mixed_laws(cor):
        if ml.S.base != cor.c3:
            continue
        cl = colift_monad(ml)
        for S in cor.monads_c3.values():
            cases.append((ml.G, cl.co, S, cl.shat, cl.mu_hat, cl.eta_hat))
    G = identity_comonad(cor.m_z2)
    co = em_coalgebra_category(G)
    Id = identity_functor(co.category)
    for S in enumerate_monads(cor.m_z2):
        for mu in ("⟨e:⟨g|e⟩→⟨g|e⟩⟩", "⟨s:⟨g|e⟩→⟨g|e⟩⟩"):
            for eta in ("⟨e:⟨g|e⟩→⟨g|e⟩⟩", "⟨s:⟨g|e⟩→⟨g|e⟩⟩"):
                cases.append((G, co, S, Id,
                              NatTrans(compose_functors(Id, Id), Id,
                                       {"⟨g|e⟩": mu}),
                              NatTrans(Id, Id, {"⟨g|e⟩": eta})))
    failing = 0
    for G, co, S, shat, mu_hat, eta_hat in cases:
        got, message = colifting_violations(G, co, S, shat, mu_hat, eta_hat)
        want = ref_coalgebra_lifting_violations(co, S, shat, mu_hat, eta_hat)
        assert got == want
        if want:
            failing += 1
            shown = "; ".join(v.describe() for v in want[:4])
            assert message == "coalgebra-side lifting: " + shown
    assert failing >= 10


RAISED = object()


def outcome(action, errors, *args):
    """What ``action(*args)`` returns, or RAISED if it raises one of
    ``errors``."""
    try:
        return action(*args)
    except errors:
        return RAISED


VEC_PSI_E_COMONADS = [(f"{cat}-{name}", c)
                      for cat, name, c in corpus().all_comonads()]
VEC_PSI_E_COMONADS += [(f"{name}-{i}", c) for name in ("M(Z2)", "Z3")
                       for i, c in enumerate(enumerate_comonads(NON_THIN[name]()))]


@pytest.mark.parametrize("c", [c for _, c in VEC_PSI_E_COMONADS],
                         ids=[label for label, _ in VEC_PSI_E_COMONADS])
def test_vec_psi_e_matches_reference(c):
    """vec psi_E, read off psi_E on the opposite category, equals the
    direct construction on every CoMnd endocell, lawful or not, and on
    every lawful CoMnd 2-cell between lawful endocells: it raises a
    package error exactly where the direct construction raises."""
    ref = ref_em_coalgebra_category(c)
    lawful = []
    for P in enumerate_functors(c.base, c.base):
        for pi in enumerate_nat_trans(compose_functors(P, c.G),
                                      compose_functors(c.G, P)):
            cell = CoMndOneCell(c, c, P, pi)
            got = outcome(vec_psi_e_1cell, FinMonadError, cell)
            want = outcome(ref_vec_psi_e_1cell, (KeyError, LawViolation),
                           cell, ref, ref)
            assert (got is RAISED) == (want is RAISED)
            assert got is RAISED or got == want
            if not cell.check():
                assert got is not RAISED
                lawful.append(cell)
    assert lawful
    for cell in lawful:
        for cell2 in lawful:
            for theta in enumerate_nat_trans(cell.P, cell2.P):
                t = CoMndTwoCell(cell, cell2, theta)
                if not t.check():
                    assert vec_psi_e_2cell(t) == ref_vec_psi_e_2cell(t, ref, ref)
