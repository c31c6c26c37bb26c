"""Distributive and mixed distributive laws: axioms, typability, and
enumeration soundness/completeness."""

from itertools import product

import pytest

from finmonad.distlaw import (
    DistributiveLaw,
    MixedDistributiveLaw,
    check_dist_law,
    check_mixed_law,
    dist_law_from_components,
    enumerate_dist_laws,
    enumerate_mixed_laws,
    require_typable,
    untypable_objects,
)
from finmonad.errors import BaseMismatch, TypeMismatch, UnTypableComponent
from finmonad.fincat import NatTrans, compose_functors, identity_nat
from finmonad.fixtures import thin_dist_law, thin_mixed_law
from finmonad.monad import identity_comonad, identity_monad


def test_identity_law_passes_all_axioms(cor):
    S = identity_monad(cor.c3)
    dl = dist_law_from_components(
        S, S, {x: cor.c3.identity(x) for x in cor.c3.objects})
    assert dl.check() == []


def test_fixture_law_c2_c1_passes(cor):
    # pointwise: ST(x) <= TS(x) reads 1<=2, 2<=2, 2<=2
    S, T = cor.monads_c3["c2"], cor.monads_c3["c1"]
    for x, st, ts in (("0", "1", "2"), ("1", "2", "2"), ("2", "2", "2")):
        assert S.S.ob(T.S.ob(x)) == st
        assert T.S.ob(S.S.ob(x)) == ts
        assert cor.c3.le(st, ts)
    assert cor.law_c2_c1.check() == []


@pytest.mark.parametrize("kind, second, name", [
    (DistributiveLaw, "T", "phi"), (MixedDistributiveLaw, "G", "psi")],
    ids=["law", "mixed"])
def test_law_constructors_name_their_structure_and_transformation(
        cor, kind, second, name):
    """Both kinds share one constructor; each message names the kind's
    second structure and transformation."""
    S = cor.monads_c3["c1"]
    E = (cor.monads_c3["c2"] if second == "T" else cor.comonads_c3["i2"])
    SE, ES = compose_functors(S.S, E.endo), compose_functors(E.endo, S.S)
    assert SE != ES
    for nat, message in ((identity_nat(ES), f"{name} source must be S∘{second}"),
                         (identity_nat(SE), f"{name} target must be {second}∘S")):
        with pytest.raises(TypeMismatch) as exc:
            kind(S, E, nat)
        assert str(exc.value) == message
    other = (cor.monads_c2["id"] if second == "T" else cor.comonads_c2["id"])
    with pytest.raises(BaseMismatch) as exc:
        kind(S, other, identity_nat(SE))
    assert str(exc.value) == ("monads live on different bases" if second == "T"
                              else "monad and comonad live on different bases")


def test_swapped_pair_is_untypable_at_object_0(cor):
    S, T = cor.monads_c3["c1"], cor.monads_c3["c2"]
    assert S.S.ob(T.S.ob("0")) == "2"
    assert T.S.ob(S.S.ob("0")) == "1"
    assert untypable_objects(S, T) == ["0"]
    with pytest.raises(UnTypableComponent):
        require_typable(S, T)
    with pytest.raises(UnTypableComponent):
        thin_dist_law(S, T)


def test_check_dist_law_names_each_axiom(cor):
    dl = cor.law_c2_c1
    report = check_dist_law(dl.S, dl.T, dl.phi)
    assert report == []
    # a failing candidate on M(Z2): phi = s between identity monads
    S = cor.monads_z2["id"]
    phi = NatTrans(compose_functors(S.S, S.S), compose_functors(S.S, S.S),
                   {"g": "s"})
    report = check_dist_law(S, S, phi)
    tags = {v.tag for v in report}
    assert "Eq-1510071248-i" in tags or "Eq-1510071248-ii" in tags
    first = report[0]
    assert first.where == "g"
    assert first.lhs != first.rhs


def test_law_checks_refuse_a_mistyped_candidate(cor):
    """A candidate law must be typed S∘T → T∘S (S∘G → G∘S): one typed
    T∘S → T∘S or S∘T → S∘T is refused with TypeMismatch, not checked. On
    C3, c1∘c2 and c2∘c1 differ at 0, and c1∘i1 and i1∘c1 at 1."""
    S, T, G = cor.monads_c3["c1"], cor.monads_c3["c2"], cor.comonads_c3["i1"]
    ST, TS = compose_functors(S.S, T.S), compose_functors(T.S, S.S)
    SG, GS = compose_functors(S.S, G.G), compose_functors(G.G, S.S)
    for candidate in (identity_nat(TS), identity_nat(ST)):
        with pytest.raises(TypeMismatch):
            check_dist_law(S, T, candidate)
    for candidate in (identity_nat(GS), identity_nat(SG)):
        with pytest.raises(TypeMismatch):
            check_mixed_law(S, G, candidate)


def test_enumerate_dist_laws_counts(cor):
    Id = identity_monad(cor.c3)
    assert len(enumerate_dist_laws(Id, Id)) == 1
    assert len(enumerate_dist_laws(cor.monads_c3["c2"], cor.monads_c3["c1"])) == 1
    assert len(enumerate_dist_laws(cor.monads_c3["c1"], cor.monads_c3["c2"])) == 0


def test_poset_existence_criterion_all_pairs(cor):
    # exists iff ST <= TS pointwise, and then unique
    names = ("id", "c1", "c2", "c3")
    for sn in names:
        for tn in names:
            S, T = cor.monads_c3[sn], cor.monads_c3[tn]
            laws = enumerate_dist_laws(S, T)
            predicted = all(
                cor.c3.le(S.S.ob(T.S.ob(x)), T.S.ob(S.S.ob(x)))
                for x in cor.c3.objects)
            assert len(laws) in (0, 1)
            assert (len(laws) == 1) == predicted


def test_swapping_arguments_changes_the_answer(cor):
    c1, c2 = cor.monads_c3["c1"], cor.monads_c3["c2"]
    assert len(enumerate_dist_laws(c2, c1)) == 1
    assert len(enumerate_dist_laws(c1, c2)) == 0


def test_enumeration_soundness_and_completeness_full_rescan(cor):
    # every candidate component assignment is either returned and lawful,
    # or fails at least one named axiom when checked
    cases = [(cor.monads_c3["c2"], cor.monads_c3["c1"]),
             (cor.monads_z2["id"], cor.monads_z2["id"]),
             (cor.monads_z2["id"], cor.monads_z2["twist"]),
             (cor.monads_z2["twist"], cor.monads_z2["twist"])]
    for S, T in cases:
        cat = S.base
        returned = {dl.phi.canonical_key()
                    for dl in enumerate_dist_laws(S, T)}
        objs = cat.objects
        choices = [cat.hom(S.S.ob(T.S.ob(x)), T.S.ob(S.S.ob(x))) for x in objs]
        for combo in product(*choices):
            comps = dict(zip(objs, combo))
            dl = dist_law_from_components(S, T, comps)
            key = dl.phi.canonical_key()
            if key in returned:
                assert dl.check() == []
            else:
                assert dl.check() != []


def test_z2_pairs_admit_exactly_one_law(cor):
    for S in cor.monads_z2.values():
        for T in cor.monads_z2.values():
            assert len(enumerate_dist_laws(S, T)) == 1


def test_mixed_identity_psi_passes(cor):
    S = identity_monad(cor.c3)
    G = cor.comonads_c3["i1"]
    ml = thin_mixed_law(S, G)
    assert ml.check() == []


def test_mixed_untypable_pair_c2_i1(cor):
    S, G = cor.monads_c3["c2"], cor.comonads_c3["i1"]
    # SG(0) = c2(i1(0)) = 1 but GS(0) = i1(c2(0)) = 0
    assert S.S.ob(G.G.ob("0")) == "1"
    assert G.G.ob(S.S.ob("0")) == "0"
    assert "0" in untypable_objects(S, G)
    assert enumerate_mixed_laws(S, G) == []


def test_mixed_with_identity_comonad(cor):
    S = cor.monads_c3["c3"]
    G = identity_comonad(cor.c3)
    laws = enumerate_mixed_laws(S, G)
    assert len(laws) == 1
    assert laws[0].check() == []


def test_mixed_existence_criterion_all_pairs(cor):
    for S in cor.monads_c3.values():
        for G in cor.comonads_c3.values():
            laws = enumerate_mixed_laws(S, G)
            predicted = not untypable_objects(S, G)
            assert (len(laws) == 1) == predicted
            assert len(laws) in (0, 1)


def test_check_mixed_law_reports_tagged_axioms(cor):
    S = cor.monads_c3["c1"]
    G = cor.comonads_c3["i1"]
    ml = thin_mixed_law(S, G)
    assert check_mixed_law(ml.S, ml.G, ml.psi) == []
    # failing candidate on M(Z2): psi = s for identity monad and comonad
    Sz = cor.monads_z2["id"]
    Gz = identity_comonad(cor.m_z2)
    psi = NatTrans(compose_functors(Sz.S, Gz.G), compose_functors(Gz.G, Sz.S),
                   {"g": "s"})
    report = check_mixed_law(Sz, Gz, psi)
    assert report
    assert all(v.tag.startswith("Eq-15100812") for v in report)


def test_enumerate_deterministic_across_jobs(cor):
    S, T = cor.monads_c3["c2"], cor.monads_c3["c1"]
    a = enumerate_dist_laws(S, T, jobs=1)
    b = enumerate_dist_laws(S, T, jobs=8)
    assert [x.canonical_key() for x in a] == [x.canonical_key() for x in b]
