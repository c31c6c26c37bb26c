"""Cells, 2-functor actions, liftings/extensions, and the bijection
round trips."""

import inspect
from itertools import product

import pytest
from oracles import (
    DIFFERENTIAL,
    chain2_times_z2,
    cyclic,
    mnd2_identity,
    ref_kleisli_category,
    ref_map_side,
    ref_psi_k_1cell,
    ref_psi_k_2cell,
    ref_sides,
    transformation_monoid,
)

from finmonad import distlaw, monad, twofunctors
from finmonad.adjunction import CommutingSquareR, mate_right
from finmonad.construct import em_category, em_coalgebra_category, kleisli_category
from finmonad.distlaw import (
    DistributiveLaw,
    MixedDistributiveLaw,
    enumerate_dist_laws,
    enumerate_mixed_laws,
)
from finmonad.errors import (
    BaseMismatch,
    ComponentMistyped,
    LawViolation,
    TwoCellLawViolation,
)
from finmonad.fincat import (
    NatTrans,
    compose_functors,
    enumerate_functors,
    enumerate_nat_trans,
    identity_functor,
    whisker_left,
    whisker_right,
)
from finmonad.fixtures import chain_category, thin_mixed_law
from finmonad.monad import (
    Comonad,
    Monad,
    enumerate_monads,
    identity_comonad,
    identity_monad,
)
from finmonad.twofunctors import (
    AdjLOneCell,
    CoalgebraLifting,
    CoMndOneCell,
    CoMndTwoCell,
    KleisliExtension,
    LiftedComonad,
    LiftedMonad,
    MndBulletOneCell,
    MndBulletTwoCell,
    MndOneCell,
    MonadObjectInMnd,
    _Flags,
    _map_sides,
    _Side,
    adjl_identity_cell,
    adjr_compose,
    adjr_identity_cell,
    adjr_two_cell_agreement,
    adjr_two_cell_conditions,
    bullet_compose,
    bullet_identity_cell,
    check_joint_compatibility,
    check_mixed_compatibility,
    check_monad_object,
    colift_monad,
    comnd_identity_cell,
    enumerate_adjr_endocells,
    enumerate_comonad_liftings,
    enumerate_liftings,
    enumerate_mnd_endocells,
    extend_monad,
    extract_dist_law,
    extract_from_extension,
    extract_mixed_from_colifting,
    extract_mixed_from_lifting,
    hom_iso_roundtrip,
    lift_comonad,
    lift_monad,
    mnd_compose,
    mnd_identity_cell,
    phi_e_1cell,
    phi_k_1cell,
    phi_k_2cell,
    psi_e_1cell,
    psi_e_2cell,
    psi_k_1cell,
    psi_k_2cell,
    vec_phi_e_1cell,
    vec_phi_e_2cell,
    vec_psi_e_1cell,
    vec_psi_e_2cell,
)

C3_NAMES = ("id", "c1", "c2", "c3")


def _pairs(cor):
    for sn in C3_NAMES:
        for tn in C3_NAMES:
            yield cor.monads_c3[sn], cor.monads_c3[tn]


# -- cell identities and composition -------------------------------------------


def test_identity_cells_are_lawful(cor):
    m = cor.monads_c3["c1"]
    assert mnd_identity_cell(m).check() == []
    assert bullet_identity_cell(m).check() == []
    assert comnd_identity_cell(cor.comonads_c3["i1"]).check() == []
    em = em_category(m)
    adjr_identity_cell(em.adj)
    adjl_identity_cell(kleisli_category(m).adj)


def test_phi_e_of_identity_cell_is_identity(cor):
    m = cor.monads_c3["c1"]
    em = em_category(m)
    cell = phi_e_1cell(adjr_identity_cell(em.adj))
    ident = mnd_identity_cell(m)
    assert cell == ident


def test_psi_e_of_identity_cell_is_identity(cor):
    m = cor.monads_c3["c1"]
    em = em_category(m)
    acell = psi_e_1cell(mnd_identity_cell(m), em, em)
    assert acell == adjr_identity_cell(em.adj)


def test_mate_of_pasted_square_is_paste_of_mates(cor):
    em = em_category(cor.monads_c3["c2"])
    cells = enumerate_adjr_endocells(em)
    from finmonad.fincat import vcomp
    for inner in cells:
        for outer in cells:
            pasted = adjr_compose(outer, inner)
            glued = vcomp(whisker_right(outer.mate, inner.J),
                          whisker_left(outer.K, inner.mate))
            assert pasted.mate.components == glued.components


# -- the fixture law through the Eilenberg-Moore side ---------------------------


def test_lifting_functor_acts_as_c1_on_fixed_points(cor):
    lm = lift_monad(cor.law_c2_c1)
    em = lm.em
    got = {em.carrier(a): em.carrier(lm.that.ob(a))
           for a in em.category.objects}
    c1_map = cor.monads_c3["c1"].S.object_map
    assert got == {x: c1_map[x] for x in got}
    assert sorted(got) == ["1", "2"]


def test_recovered_law_equals_original_mate_whiskering(cor):
    # phi = U lambda_T, component for component
    dl = cor.law_c2_c1
    lm = lift_monad(dl)
    sq = CommutingSquareR(lm.em.adj, lm.em.adj, lm.below.S, lm.that)
    lam = mate_right(sq)
    recovered = whisker_left(lm.em.U, lam)
    assert recovered.components == dl.phi.components


def test_psi_e_images_satisfy_the_algebra_predicate(cor):
    dl = cor.law_c2_c1
    em = em_category(dl.S)
    cell = MndOneCell(dl.S, dl.S, dl.T.S, dl.phi)
    acell = psi_e_1cell(cell, em, em)
    for a in em.category.objects:
        image = acell.K.ob(a)
        assert (em.algebra_id(em.carrier(image), em.structure(image))
                in em.category.objects)


def test_psi_e_rejects_the_unlawful_cells_of_m_z2(cor):
    """On M(Z2) each monad has two unlawful endocells, and the structure
    P chi ∘ phi they give the algebra is no algebra: psi_E raises
    ComponentMistyped, as for a morphism with no algebra morphism over
    it."""
    for m in cor.monads_z2.values():
        em = em_category(m)
        unlawful = 0
        for P in enumerate_functors(m.base, m.base):
            for phi in enumerate_nat_trans(compose_functors(m.S, P),
                                           compose_functors(P, m.S)):
                cell = MndOneCell(m, m, P, phi)
                if cell.check():
                    unlawful += 1
                    with pytest.raises(ComponentMistyped):
                        psi_e_1cell(cell, em, em)
        assert unlawful == 2


def test_lifted_monad_passes_monad_laws(cor):
    lm = lift_monad(cor.law_c2_c1)
    assert lm.as_monad().check() == []


def test_round_trips_on_every_pair(cor):
    for S, T in _pairs(cor):
        em = em_category(S)
        laws = enumerate_dist_laws(S, T)
        lifts = enumerate_liftings(S, T)
        assert len(laws) == len(lifts)
        for dl in laws:
            assert extract_dist_law(lift_monad(dl, em)) == dl
        for lm in lifts:
            assert lift_monad(extract_dist_law(lm), em) == lm


def test_extract_of_every_lifting_lands_in_enumerated_laws(cor):
    S, T = cor.monads_c3["c2"], cor.monads_c3["c1"]
    laws = enumerate_dist_laws(S, T)
    for lm in enumerate_liftings(S, T):
        assert extract_dist_law(lm) in laws


def test_lifting_counts(cor):
    assert len(enumerate_liftings(cor.monads_c3["c2"], cor.monads_c3["c1"])) == 1
    assert len(enumerate_liftings(cor.monads_c3["c1"], cor.monads_c3["c2"])) == 0
    Id = identity_monad(cor.c3)
    for name in C3_NAMES:
        assert len(enumerate_liftings(Id, cor.monads_c3[name])) == 1


def test_lifted_functor_rejects_an_object_map_with_no_morphism_image(cor):
    """Sending every algebra of the identity monad on C3 to one algebra
    leaves the other algebras' identities with no algebra morphism over
    them: building the candidate over U raises, rather than leaving those
    morphisms out."""
    em = em_category(cor.monads_c3["id"])
    algebras = em.category.objects
    assert len(algebras) == 3
    for target in algebras:
        obj_map = dict.fromkeys(algebras, target)
        with pytest.raises(ComponentMistyped):
            em.functor_over(em.category, obj_map, em.underlying)


def test_lifting_searches_check_each_accepted_lifting_once(cor, monkeypatch):
    """The base structures were checked when they were built, so only the
    upstairs laws of the single lifting each search accepts are checked."""
    calls = []
    check = monad.check_monad_laws

    def counted(m):
        calls.append(m)
        return check(m)

    monkeypatch.setattr(monad, "check_monad_laws", counted)
    for search, below in ((enumerate_liftings, cor.monads_c3["c1"]),
                          (enumerate_comonad_liftings, cor.comonads_c3["i1"])):
        calls.clear()
        S = cor.monads_c3["c2" if search is enumerate_liftings else "c1"]
        assert len(search(S, below)) == 1
        assert len(calls) == 1


# -- the Kleisli side ------------------------------------------------------------


def test_extension_acts_by_the_stated_formula(cor):
    # Stilde(y♯) = (phi_Y ∘ S y)♯
    dl = cor.law_c2_c1
    ke = extend_monad(dl)
    kl = ke.kl
    for mm in kl.category.morphisms:
        under = cor.c3.compose(dl.S.S.mor(kl.underlying(mm.id)), dl.phi.at(mm.tgt))
        want = kl.kleisli_id(under, dl.S.S.ob(mm.src), dl.S.S.ob(mm.tgt))
        assert ke.stilde.mor(mm.id) == want


def test_extension_passes_monad_laws(cor):
    ke = extend_monad(cor.law_c2_c1)
    assert ke.as_monad().check() == []


def test_identity_law_gives_identity_extension(cor):
    Id = identity_monad(cor.c3)
    dl = enumerate_dist_laws(Id, Id)[0]
    ke = extend_monad(dl)
    assert ke.stilde == identity_functor(ke.kl.category)


def test_extension_round_trip_and_agreement(cor):
    for S, T in _pairs(cor):
        laws = enumerate_dist_laws(S, T)
        if not laws:
            continue
        em = em_category(S)
        kl = kleisli_category(T)
        for dl in laws:
            ke = extend_monad(dl, kl)
            assert extract_from_extension(ke) == dl
            lm = lift_monad(dl, em)
            assert extract_dist_law(lm) == extract_from_extension(ke)


def test_joint_compatibility_for_matching_pair(cor):
    dl = cor.law_c2_c1
    lm = lift_monad(dl)
    ke = extend_monad(dl)
    assert check_joint_compatibility(lm, ke) is True


def test_joint_compatibility_base_mismatch(cor):
    dl = cor.law_c2_c1
    lm = lift_monad(dl)
    Id = identity_monad(cor.c3)
    dl_id = enumerate_dist_laws(Id, Id)[0]
    ke = extend_monad(dl_id)
    with pytest.raises(BaseMismatch):
        check_joint_compatibility(lm, ke)


def inverse(cat, f):
    """The two-sided inverse of the morphism f, or None."""
    m = cat.morphism(f)
    for g in cat.hom(m.tgt, m.src):
        if (cat.compose(f, g) == cat.identity(m.src)
                and cat.compose(g, f) == cat.identity(m.tgt)):
            return g
    return None


def test_a_law_exists_iff_T_keeps_the_S_algebras_and_is_the_closed_form(cor):
    """Every monad on a finite category is idempotent, so its algebras are
    Fix(S) = {x : eta_x invertible}. A law S∘T → T∘S exists iff T maps
    Fix(S) into Fix(S), and it is then the one law
    phi_x = eta_{TSx}^{-1} ∘ S T eta_x. So a pair has at most one law,
    its lifting and its extension recover that same law, and joint
    compatibility cannot fail on finite input. Checked on every corpus
    pair on a common base and every pair of monads on T3 (all self-maps
    of a 3-set) and on C2×Z2: 124 ordered pairs."""
    groups = [[m for _, _, m in cor.all_monads() if m.base == base]
              for base in (cor.c2, cor.c3, cor.m_z2)]
    groups += [enumerate_monads(transformation_monoid(3)),
               enumerate_monads(chain2_times_z2())]
    pairs = laws_found = 0
    for monads in groups:
        C = monads[0].base
        for S in monads:
            fixed = {x for x in C.objects if inverse(C, S.eta.at(x))}
            for T in monads:
                laws = enumerate_dist_laws(S, T)
                assert len(laws) == all(T.S.ob(x) in fixed for x in fixed)
                for law in laws:
                    assert law.phi.components == {
                        x: C.compose(S.S.mor(T.S.mor(S.eta.at(x))),
                                     inverse(C, S.eta.at(T.S.ob(S.S.ob(x)))))
                        for x in C.objects}
                pairs += 1
                laws_found += len(laws)
    assert (pairs, laws_found) == (124, 123)


def test_psi_k_two_cells_for_mu_and_eta_pass(cor):
    dl = cor.law_c2_c1
    kl = kleisli_category(dl.T)
    cell = MndBulletOneCell(dl.T, dl.T, dl.S.S, dl.phi)
    comp = bullet_compose(cell, cell)
    mu2 = MndBulletTwoCell(comp, cell, dl.S.mu)
    assert mu2.check() == []
    pair = psi_k_2cell(mu2)  # raises TwoCellLawViolation on failure
    eta2 = MndBulletTwoCell(bullet_identity_cell(dl.T), cell, dl.S.eta)
    assert eta2.check() == []
    psi_k_2cell(eta2)
    # the Kleisli-side beta is the stated formula (eta_QX ∘ theta_X)♯
    for x in kl.category.objects:
        under = cor.c3.compose(dl.S.mu.at(x), dl.T.eta.at(dl.S.S.ob(x)))
        assert pair.beta.at(x) == kl.kleisli_id(
            under, dl.S.S.ob(dl.S.S.ob(x)), dl.S.S.ob(x))


def test_phi_k_psi_k_round_trip_on_cells(cor):
    dl = cor.law_c2_c1
    for cell in (MndBulletOneCell(dl.T, dl.T, dl.S.S, dl.phi),
                 bullet_identity_cell(dl.T)):
        acell = psi_k_1cell(cell)
        back = phi_k_1cell(acell)
        assert back == cell


def lawful_push_endocells(make, structure) -> list:
    """Every lawful Mnd• or CoMnd 1-cell (P, nat): nat: P∘E → E∘P on the
    structure with endofunctor E."""
    cat, E = structure.base, structure.endo
    cells = []
    for P in enumerate_functors(cat, cat):
        for nat in enumerate_nat_trans(compose_functors(P, E),
                                       compose_functors(E, P)):
            cell = make(structure, structure, P, nat)
            if not cell.check():
                cells.append(cell)
    return cells


def lawful_two_cells(make, cells) -> list:
    """Every lawful 2-cell of class ``make`` between two of ``cells``."""
    found = []
    for src, dst in product(cells, repeat=2):
        for theta in enumerate_nat_trans(src.P, dst.P):
            t = make(src, dst, theta)
            if not t.check():
                found.append(t)
    return found


def test_phi_k_2cell_inverts_psi_k_2cell_on_every_lawful_bullet_2cell(cor):
    count = 0
    for _, _, m in cor.all_monads():
        cells = lawful_push_endocells(MndBulletOneCell, m)
        for t in lawful_two_cells(MndBulletTwoCell, cells):
            assert phi_k_2cell(psi_k_2cell(t)) == t
            count += 1
    assert count == 186


def assert_psi_k_matches(monads) -> int:
    """psi_K names its images with the Kleisli category's functor_over and
    nat_over; the references look each one up by (underlying, source,
    target). Both give the same cells on every lawful Mnd• endocell and
    2-cell of each monad. Returns the number of 2-cells."""
    count = 0
    for m in monads:
        ref = ref_kleisli_category(m)
        cells = lawful_push_endocells(MndBulletOneCell, m)
        for cell in cells:
            assert psi_k_1cell(cell) == ref_psi_k_1cell(cell, ref, ref)
        for t in lawful_two_cells(MndBulletTwoCell, cells):
            assert psi_k_2cell(t) == ref_psi_k_2cell(t, ref, ref)
            count += 1
    return count


def test_psi_k_matches_the_first_written_on_the_corpus(cor):
    assert assert_psi_k_matches(m for _, _, m in cor.all_monads()) == 186


# codiscrete(3) is left out: its 27 monads have 19,683 lawful Mnd• 2-cells.
@pytest.mark.parametrize("name", [n for n in DIFFERENTIAL if n != "g3"])
def test_psi_k_matches_the_first_written(name):
    assert assert_psi_k_matches(enumerate_monads(DIFFERENTIAL[name]())) > 0


def test_vec_phi_e_2cell_inverts_vec_psi_e_2cell_on_every_lawful_comnd_2cell(cor):
    count = 0
    for _, _, c in cor.all_comonads():
        cells = lawful_push_endocells(CoMndOneCell, c)
        for t in lawful_two_cells(CoMndTwoCell, cells):
            assert vec_phi_e_2cell(vec_psi_e_2cell(t)) == t
            count += 1
    assert count == 119


# -- mixed laws -------------------------------------------------------------------


def _mixed_cases(cor):
    cases = [(cor.monads_c2, cor.comonads_c2), (cor.monads_c3, cor.comonads_c3)]
    for monads, comonads in cases:
        for S in monads.values():
            for G in comonads.values():
                yield S, G


def test_mixed_round_trips_and_compatibility(cor):
    for S, G in _mixed_cases(cor):
        laws = enumerate_mixed_laws(S, G)
        lifts = enumerate_comonad_liftings(S, G)
        assert len(laws) == len(lifts)
        for ml in laws:
            lc = lift_comonad(ml)
            cl = colift_monad(ml)
            assert extract_mixed_from_lifting(lc) == ml
            assert extract_mixed_from_colifting(cl) == ml
            assert check_mixed_compatibility(lc, cl) is True


def test_mixed_with_identity_comonad_lifts_to_identity(cor):
    S = cor.monads_c3["c3"]
    G = identity_comonad(cor.c3)
    ml = thin_mixed_law(S, G)
    assert ml.check() == []
    lc = lift_comonad(ml)
    assert lc.ghat == identity_functor(lc.em.category)
    cl = colift_monad(ml)
    # coalgebras of the identity comonad mirror the base, and Shat acts as S
    em = cl.co.on_opposite
    got = {em.carrier(a): em.carrier(cl.shat.ob(a))
           for a in em.category.objects}
    assert got == dict(S.S.object_map)
    assert check_mixed_compatibility(lc, cl)


def test_colift_images_satisfy_the_coalgebra_predicate(cor):
    S, G = cor.monads_c3["c1"], cor.comonads_c3["i1"]
    laws = enumerate_mixed_laws(S, G)
    assert len(laws) == 1
    co = em_coalgebra_category(G)
    cell = CoMndOneCell(G, G, S.S, laws[0].psi)
    acell = vec_psi_e_1cell(cell)
    em = co.on_opposite
    for a in co.category.objects:
        image = acell.J.ob(a)
        assert (em.algebra_id(em.carrier(image), em.structure(image))
                in co.category.objects)


def test_vec_phi_e_recovers_the_mixed_law(cor):
    S, G = cor.monads_c3["c1"], cor.comonads_c3["i1"]
    ml = enumerate_mixed_laws(S, G)[0]
    cl = colift_monad(ml)
    cell = vec_phi_e_1cell(AdjLOneCell(cl.co.adj, cl.co.adj, cl.shat, cl.below.S))
    assert cell.pi.components == ml.psi.components


# -- monad objects ----------------------------------------------------------------


def test_identity_monad_object_passes(cor):
    m = identity_monad(cor.c3)
    mo = MonadObjectInMnd(m, mnd_identity_cell(m), m.mu, m.eta)
    assert check_monad_object(mo) == []


def test_fixture_monad_object_passes(cor):
    dl = cor.law_c2_c1
    cell = MndOneCell(dl.S, dl.S, dl.T.S, dl.phi)
    mo = MonadObjectInMnd(dl.S, cell, dl.T.mu, dl.T.eta)
    assert check_monad_object(mo) == []


def test_perturbed_monad_object_fails_named_axiom(cor):
    # on M(Z2): the twist component s is typable but breaks the unit law
    from finmonad.fincat import NatTrans

    S = cor.monads_z2["id"]
    phi = NatTrans(compose_functors(S.S, S.S), compose_functors(S.S, S.S),
                   {"g": "s"})
    cell = MndOneCell(S, S, S.S, phi)
    mo = MonadObjectInMnd(S, cell, S.mu, S.eta)
    report = check_monad_object(mo)
    assert report
    tags = {v.tag for v in report}
    assert tags & {"Eq-1510071248-i", "Eq-1510071248-ii",
                   "Eq-1510071249-i", "Eq-1510071249-ii"}


# -- hom isomorphism and 2-cell conditions ------------------------------------------


def test_hom_iso_for_identity_monad_on_c2(cor):
    entries = hom_iso_roundtrip(identity_monad(cor.c2))
    assert all(e.status == "pass" for e in entries)
    counts = [e.witness for e in entries if e.check == "homiso/object-count"]
    assert counts[0]["mnd"] == counts[0]["adjr"] == 3


def test_hom_iso_for_c1_on_c3(cor):
    entries = hom_iso_roundtrip(cor.monads_c3["c1"])
    assert all(e.status == "pass" for e in entries)
    counts = [e.witness for e in entries if e.check == "homiso/object-count"]
    assert counts[0]["mnd"] == counts[0]["adjr"] == 5


ROUND_TRIP_CALLS = ("phi_e_1cell", "psi_e_1cell", "phi_e_2cell", "psi_e_2cell",
                    "mnd_compose", "adjr_compose")


def round_trip_calls(m, monkeypatch) -> dict:
    """Run the round trip on m, which must pass, counting the calls of
    induced_monad, of each cell action and of each checked composite."""
    from finmonad import construct

    calls = dict.fromkeys(("induced_monad",) + ROUND_TRIP_CALLS, 0)

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(construct, "induced_monad")
    for name in ROUND_TRIP_CALLS:
        count(twofunctors, name)
    entries = hom_iso_roundtrip(m)
    assert all(e.status == "pass" for e in entries)
    return calls


def test_hom_iso_maps_each_one_cell_once(cor, monkeypatch):
    """C3/id has 10 endocells and 50 2-cells a side. Each cell is mapped
    once; each image is one of the other side's cells, whose own image is
    its back, so nothing is mapped back. Every composite and identity is
    found by its key among the enumerated cells, so no checked
    constructor runs. The induced monad is built once, by em_category's
    own check."""
    calls = round_trip_calls(cor.monads_c3["id"], monkeypatch)
    assert calls.pop("induced_monad") <= 2
    assert calls == {"phi_e_1cell": 10, "psi_e_1cell": 10,
                     "phi_e_2cell": 50, "psi_e_2cell": 50,
                     "mnd_compose": 0, "adjr_compose": 0}


def test_hom_iso_maps_each_cell_once_on_the_4_chain(monkeypatch):
    """The identity monad of the 4-chain has 35 endocells and 490 2-cells
    a side, and 4,116 composable pairs of 2-cells, none of them built."""
    calls = round_trip_calls(identity_monad(chain_category(list("0123"))),
                             monkeypatch)
    assert calls.pop("induced_monad") <= 2
    assert calls == {"phi_e_1cell": 35, "psi_e_1cell": 35,
                     "phi_e_2cell": 490, "psi_e_2cell": 490,
                     "mnd_compose": 0, "adjr_compose": 0}


def fake_side(cells, map1, compose, map2=lambda t, src, dst: (src, dst)):
    """A side of plain values: one 2-cell (c, c2) between any two 1-cells,
    mapped by default to the one between their images. Values are their
    own keys, so each key function is the constructor it keys."""
    two = {(i, j): [(c, c2)] for i, c in enumerate(cells) for j, c2 in enumerate(cells)}
    return _Side(cells, two, map1, map2, key1=lambda c: c, key2=lambda t: t,
                 compose_key=compose, vcomp_key=lambda t1, t2: (t1[0], t2[1]),
                 identity_key=lambda c: (c, c))


def z2(map2=lambda t, src, dst: (src, dst)):
    """0, 1 under addition mod 2, each mapped to itself."""
    return fake_side([0, 1], lambda c: c, lambda x, y: (x + y) % 2, map2)


def raising_at(error, at=(0, 1)):
    """A 2-cell action that raises ``error`` on ``at``, as psi_E raises
    ComponentMistyped on a component with no algebra morphism over it and
    the AdjR constructor TwoCellLawViolation."""
    def map2(t, src, dst):
        if t == at:
            raise error("not a 2-cell")
        return src, dst

    return map2


def keys_missing(side):
    """``side`` with no composite or identity key among its cells' keys,
    so that none of them is found among its cells."""
    return side._replace(compose_key=lambda c, c2: None,
                         vcomp_key=lambda t, t2: None,
                         identity_key=lambda c: None)


def add(x, y):
    return x + y


def z2_flipping_0_1():
    """z2 with two 2-cells (c, c2, 0) and (c, c2, 1) between any two
    1-cells, composing by adding the bits mod 2, each mapped to itself
    with its bit flipped on the pair (0, 1) only. Flipping twice gives
    back each 2-cell and keeps identities, but the composite of (0, 1)
    and (1, 0) maps to an unflipped 2-cell of the pair (0, 0), while the
    composite of the images has its bit flipped once."""
    def vcomp(t1, t2):
        return t1[0], t2[1], (t1[2] + t2[2]) % 2

    def map2(t, src, dst):
        return src, dst, (t[2] + (t[:2] == (0, 1))) % 2

    side = z2()
    two = {(i, j): [(c, c2, 0), (c, c2, 1)]
           for i, c in enumerate(side.cells) for j, c2 in enumerate(side.cells)}
    return side._replace(two=two, map2=map2, vcomp_key=vcomp,
                         identity_key=lambda c: (c, c, 0))


def tuple_z2():
    """0 and 1 under addition mod 2 as 1-tuples: a composite is a new
    tuple, equal to a 1-cell but not the same object."""
    return fake_side([(0,), (1,)], lambda c: c, lambda x, y: ((x[0] + y[0]) % 2,))


FAKE_CASES = {
    # 0, 1 under addition mod 2, mapped to 0, 2 under addition mod 4
    "inverse-z2": lambda: (
        fake_side([0, 1], lambda c: 2 * c, lambda x, y: (x + y) % 2),
        fake_side([0, 2], lambda m: m // 2, lambda x, y: (x + y) % 4)),
    # 0, 1, 2 under max, mapped to 0, 10, 20 listed in another order, so
    # that composites of images are read at the images' positions
    "inverse-max": lambda: (fake_side([0, 1, 2], lambda c: 10 * c, max),
                            fake_side([20, 0, 10], lambda m: m // 10, max)),
    "image-outside": lambda: (
        fake_side([0, 1], lambda c: 2 * c, lambda x, y: (x + y) % 2),
        fake_side([0, 1], lambda m: m // 2, lambda x, y: (x + y) % 4)),
    # 1 + 1 = 2 is not a 1-cell of the first side
    "composite-outside": lambda: (fake_side([0, 1], lambda c: 2 * c, add),
                                  fake_side([0, 2], lambda m: m // 2, add)),
    "composite-outside-disagrees": lambda: (
        fake_side([0, 1], lambda c: 2 * c, add),
        fake_side([0, 2], lambda m: m // 2, lambda x, y: min(x + y, 2))),
    "composite-equal-by-equality": lambda: (tuple_z2(), tuple_z2()),
    "vcomp-not-preserved": lambda: (z2_flipping_0_1(), z2_flipping_0_1()),
    "keys-miss": lambda: (keys_missing(z2()), z2()),
    "keys-miss-both": lambda: (keys_missing(z2()), keys_missing(z2())),
}

# The cases where the reference, which maps and compares by value what is
# none of the cells, agrees with deciding by position.
REFERENCE_CASES = ["inverse-z2", "inverse-max", "composite-outside-disagrees",
                   "composite-equal-by-equality", "vcomp-not-preserved"]


@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_map_sides_gives_the_references_flags(case):
    a, b = FAKE_CASES[case]()
    ra, rb = ref_sides(a, b)
    assert _map_sides(a, b) == (ref_map_side(ra, rb), ref_map_side(rb, ra))


FAILS_COMPOSE = _Flags(lands=True, back=True, two=True, identities=True,
                       vcomp=True, compose=False)
FAILS_COMPOSITES = FAILS_COMPOSE._replace(identities=False, vcomp=False)
# The flags of each direction where a composite or identity is none of
# the cells: the direction that maps it, and the one that reads it as the
# composite of the images, both fail. In image-outside, b's composite
# 1 + 1 = 2 mod 4 is none of its cells, and a's image 2 is none of them
# either, so a fails every check that reads that image too.
OUTSIDE_FLAGS = {
    "image-outside": (_Flags(*[False] * len(_Flags._fields)),
                      FAILS_COMPOSE._replace(back=False, two=False)),
    "composite-outside": (FAILS_COMPOSE, FAILS_COMPOSE),
    "keys-miss": (FAILS_COMPOSITES, FAILS_COMPOSITES),
    "keys-miss-both": (FAILS_COMPOSITES, FAILS_COMPOSITES),
}


@pytest.mark.parametrize("case", list(OUTSIDE_FLAGS))
def test_map_sides_fails_what_reads_a_composite_outside_the_cells(case):
    assert _map_sides(*FAKE_CASES[case]()) == OUTSIDE_FLAGS[case]


def test_map_side_passes_mutually_inverse_sides():
    for case in ("inverse-z2", "inverse-max"):
        assert all(all(flags) for flags in _map_sides(*FAKE_CASES[case]()))


def test_map_side_fails_the_two_cell_checks_on_a_raising_image():
    for error in (ComponentMistyped, TwoCellLawViolation):
        a, b = z2(raising_at(error)), z2()
        to_b, to_a = _map_sides(a, b)
        assert not to_b.two and not to_b.vcomp
        assert to_b.lands and to_b.back and to_b.identities and to_b.compose
        ra, rb = ref_sides(a, b)
        assert to_b == ref_map_side(ra, rb)


def test_map_sides_fails_two_on_a_back_image_that_raises():
    """a's image of (0, 1) is b's (0, 1), whose image raises: the back of
    a's image fails a's 2-cell round trip, where mapping each direction
    apart let the exception escape, and b's own direction fails two and
    vcomp. An image that lands nowhere is not mapped back, so a raising
    action on the other side is never called on it."""
    for error in (ComponentMistyped, TwoCellLawViolation):
        a, b = z2(), z2(raising_at(error))
        to_b, to_a = _map_sides(a, b)
        assert to_b == _Flags(lands=True, back=True, two=False,
                              identities=True, vcomp=True, compose=True)
        assert to_a == _map_sides(b, a)[0]
        assert not to_a.two and not to_a.vcomp
        assert to_a.lands and to_a.back and to_a.identities and to_a.compose
        ra, rb = ref_sides(a, b)
        with pytest.raises(error):
            ref_map_side(ra, rb)

        a, b = FAKE_CASES["image-outside"]()
        b = b._replace(map2=raising_at(error, (0, 2)))
        assert _map_sides(a, b) == _map_sides(*FAKE_CASES["image-outside"]())
        ra, rb = ref_sides(a, b)
        with pytest.raises(error):
            ref_map_side(ra, rb)


def test_map_sides_fails_only_vcomp_on_images_that_do_not_compose():
    """Every image and every composite is one of the enumerated cells, so
    each pair is decided by position alone."""
    for flags in _map_sides(*FAKE_CASES["vcomp-not-preserved"]()):
        assert flags == _Flags(lands=True, back=True, two=True,
                               identities=True, vcomp=False, compose=True)


def test_map_side_fails_every_check_that_reads_an_image_outside_the_other_side():
    """a's 1-cell 1 maps to 2, none of b's cells: it does not come back,
    and every 2-cell, identity and composite on it fails. b maps both its
    cells to a's 0, so its 1-cell 1 does not come back either, and its
    composite 1 + 1 = 2 mod 4 is none of its cells."""
    to_b, to_a = _map_sides(*FAKE_CASES["image-outside"]())
    assert to_b == _Flags(lands=False, back=False, two=False,
                          identities=False, vcomp=False, compose=False)
    assert to_a == _Flags(lands=True, back=False, two=False,
                          identities=True, vcomp=True, compose=False)


def test_map_side_finds_a_composite_equal_to_a_cell_by_equality():
    """Composites are new tuples, equal to 1-cells but not the same
    objects: each is found among the cells by its key, so no composite is
    mapped, and each side keys each ordered pair once over both
    directions."""
    mapped, composed = [], []

    def map1(c):
        mapped.append(c)
        return c

    def counted(side):
        def compose(x, y):
            composed.append((x, y))
            return side.compose_key(x, y)

        return side._replace(map1=map1, compose_key=compose)

    a, b = FAKE_CASES["composite-equal-by-equality"]()
    composite = a.compose_key(a.cells[1], a.cells[1])
    assert composite == a.cells[0] and composite is not a.cells[0]
    a, b = counted(a), counted(b)
    assert all(all(flags) for flags in _map_sides(a, b))
    assert mapped == a.cells + b.cells
    assert len(composed) == 8


def count_constructions(monkeypatch) -> dict:
    """Count the calls of compose_functors, from every finmonad module
    that imports it, and of the Functor and NatTrans constructors."""
    import sys

    from finmonad import fincat

    calls = dict.fromkeys(("compose_functors", "Functor", "NatTrans"), 0)
    original = fincat.compose_functors

    def composed(*args, **kwargs):
        calls["compose_functors"] += 1
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.startswith("finmonad")
                and getattr(module, "compose_functors", None) is original):
            monkeypatch.setattr(module, "compose_functors", composed)
    for cls in (fincat.Functor, fincat.NatTrans):
        def built(self, *args, init=cls.__init__, name=cls.__name__, **kwargs):
            calls[name] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", built)
    return calls


def test_law_checks_build_no_whiskered_transformations(cor, monkeypatch):
    """Law checks and mates evaluate their pastings component by component.
    Bounds sit about 10% above the counts measured when they did so (C3/id
    round trip 3,647 / 3,805 / 2,609; the law op 49 / 62 / 18); with every
    intermediate pasting built as a transformation the counts were 8,207 /
    8,365 / 6,229 and 169 / 182 / 132."""
    calls = count_constructions(monkeypatch)
    entries = hom_iso_roundtrip(cor.monads_c3["id"])
    assert all(e.status == "pass" for e in entries)
    assert calls["compose_functors"] <= 4_000
    assert calls["Functor"] <= 4_200
    assert calls["NatTrans"] <= 2_900

    calls.update(dict.fromkeys(calls, 0))
    laws = enumerate_dist_laws(cor.monads_c3["c2"], cor.monads_c3["c1"])
    assert len(laws) == 1
    for dl in laws:
        lift_monad(dl)
    assert calls["compose_functors"] <= 55
    assert calls["Functor"] <= 70
    assert calls["NatTrans"] <= 20

    # A lifting's conditions over the base compare components; comparing
    # whiskered transformations built four more per lifting (11 / 6 / 17).
    c2, c1 = cor.monads_c3["c2"], cor.monads_c3["c1"]
    em = em_category(c2)
    calls.update(dict.fromkeys(calls, 0))
    lift_monad(laws[0], em)
    assert calls["NatTrans"] <= 7
    calls.update(dict.fromkeys(calls, 0))
    assert len(enumerate_liftings(c2, c1)) == 1
    assert calls["NatTrans"] <= 2
    mixed = enumerate_mixed_laws(c1, cor.comonads_c3["i1"])
    assert len(mixed) == 1
    calls.update(dict.fromkeys(calls, 0))
    lift_comonad(mixed[0])
    assert calls["NatTrans"] <= 13


def test_lift_and_extend_decide_the_law_once(cor, monkeypatch):
    """A law's axioms are the laws of the structure cells that lift and
    extend map, so require_valid on the law decides them all: lift_monad
    evaluates the Mnd cell law once and extend_monad the Mnd• cell law
    once (each 2 before), and no cell is law-checked again. Each call gets
    a fresh law, since a law that passed once is not checked again."""
    calls = dict.fromkeys(("mnd_cell_sides", "bullet_cell_sides", "cell"), 0)
    for name in ("mnd_cell_sides", "bullet_cell_sides"):
        def counted(*args, name=name, original=getattr(distlaw, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(distlaw, name, counted)
        monkeypatch.setattr(twofunctors, name, counted)

    def checked(self, check=twofunctors._LawCell.check):
        calls["cell"] += 1
        return check(self)

    monkeypatch.setattr(twofunctors._LawCell, "check", checked)
    dl = cor.law_c2_c1
    em, kl = em_category(dl.S), kleisli_category(dl.T)
    calls.update(dict.fromkeys(calls, 0))
    lift_monad(DistributiveLaw(dl.S, dl.T, dl.phi), em)
    assert calls == {"mnd_cell_sides": 1, "bullet_cell_sides": 1, "cell": 0}
    calls.update(dict.fromkeys(calls, 0))
    extend_monad(DistributiveLaw(dl.S, dl.T, dl.phi), kl)
    assert calls == {"mnd_cell_sides": 1, "bullet_cell_sides": 1, "cell": 0}


def test_lift_and_extend_reject_an_invalid_law_as_require_valid_does():
    """On Z2, the rotation r1 is a natural swap Id∘Id → Id∘Id that breaks
    every axiom: lifting or extending along it raises the law's own
    LawViolation, with the same text."""
    z2 = cyclic(2)
    S, G = identity_monad(z2), identity_comonad(z2)
    swap = NatTrans(S.S, S.S, {"g": "r1"})
    for law, builders in (
            (DistributiveLaw(S, S, swap), (lift_monad, extend_monad)),
            (MixedDistributiveLaw(S, G, swap), (lift_comonad, colift_monad))):
        with pytest.raises(LawViolation) as want:
            law.require_valid()
        assert len(want.value.violations) == 4
        for build in builders:
            with pytest.raises(LawViolation) as got:
                build(law)
            assert str(got.value) == str(want.value)


def test_interned_functors_and_memoised_composites_cut_constructions(
        cor, monkeypatch):
    """With functors hash-consed and composites memoised, most
    compose_functors calls find their composite and build nothing, and
    1-cell composites build one transformation. Bounds sit about 10% above
    the counts measured so (C3/id round trip 167 / 91 / 54 with the test
    run alone, 160 / 38 / 50 after the module's earlier tests or in the
    whole suite); with every composite built afresh they were
    3,647 / 3,805 / 2,609."""
    calls = count_constructions(monkeypatch)
    entries = hom_iso_roundtrip(cor.monads_c3["id"])
    assert all(e.status == "pass" for e in entries)
    assert calls["compose_functors"] <= 184
    assert calls["Functor"] <= 100
    assert calls["NatTrans"] <= 60


def test_psi_e_after_phi_e_is_identity_per_cell(cor):
    em = em_category(cor.monads_c3["c1"])
    for cell in enumerate_adjr_endocells(em):
        assert psi_e_1cell(phi_e_1cell(cell), em, em) == cell


def test_mnd_endocell_count_matches_fixed_point_oracle(cor):
    # endo cells at (C3, c1) are exactly the monotone maps preserving the
    # fixed points of c1
    m = cor.monads_c3["c1"]
    cells = enumerate_mnd_endocells(m)
    from finmonad.fincat import enumerate_functors
    fixed = {x for x in cor.c3.objects if m.S.ob(x) == x}
    oracle = [F for F in enumerate_functors(cor.c3, cor.c3)
              if all(F.ob(x) in fixed for x in fixed)]
    assert len(cells) == len(oracle) == 5


def test_adjr_two_cell_conditions_agree_everywhere(cor):
    em = em_category(cor.monads_c3["c2"])
    cells = enumerate_adjr_endocells(em)
    stats = adjr_two_cell_agreement(cells)
    assert stats["checked"] > 0
    assert stats["agree"] == stats["checked"]
    assert stats["disagreements"] == []


def test_adjr_two_cell_constructor_rejects_violations(cor):
    # thin fixtures cannot produce a failing candidate, so use M(Z2),
    # where mismatched e/s component choices break condition (b)
    from finmonad.fincat import enumerate_nat_trans
    from finmonad.twofunctors import AdjRTwoCell

    em = em_category(cor.monads_z2["id"])
    cells = enumerate_adjr_endocells(em)
    stats = adjr_two_cell_agreement(cells)
    assert stats["agree"] == stats["checked"]
    found_invalid = False
    for c in cells:
        for c2 in cells:
            for alpha in enumerate_nat_trans(c.J, c2.J):
                for beta in enumerate_nat_trans(c.K, c2.K):
                    a, b = adjr_two_cell_conditions(c, c2, alpha, beta)
                    assert a == b
                    if not a:
                        found_invalid = True
                        with pytest.raises(TwoCellLawViolation):
                            AdjRTwoCell(c, c2, alpha, beta)
    assert found_invalid, "expected at least one rejected candidate pair"


def test_mnd_cell_composition_respects_laws(cor):
    dl = cor.law_c2_c1
    cell = MndOneCell(dl.S, dl.S, dl.T.S, dl.phi)
    comp = mnd_compose(cell, cell)
    assert comp.check() == []
    assert mnd_compose(cell, mnd_identity_cell(dl.S)) == cell
    assert mnd_compose(mnd_identity_cell(dl.S), cell) == cell


def test_vec_actions_send_identity_to_identity(cor):
    G = cor.comonads_c3["i1"]
    co = em_coalgebra_category(G)
    acell = vec_psi_e_1cell(comnd_identity_cell(G))
    assert acell == adjl_identity_cell(co.adj)
    back = vec_phi_e_1cell(acell)
    assert back == comnd_identity_cell(G)


def test_kleisli_actions_preserve_one_cell_composition(cor):
    dl = cor.law_c2_c1
    from finmonad.twofunctors import adjl_compose

    cell = MndBulletOneCell(dl.T, dl.T, dl.S.S, dl.phi)
    cells = [cell, bullet_identity_cell(dl.T), bullet_compose(cell, cell)]
    for c in cells:
        for c2 in cells:
            lhs = psi_k_1cell(bullet_compose(c, c2))
            rhs = adjl_compose(psi_k_1cell(c), psi_k_1cell(c2))
            assert lhs == rhs
            assert phi_k_1cell(lhs) == bullet_compose(
                phi_k_1cell(psi_k_1cell(c)),
                phi_k_1cell(psi_k_1cell(c2)))


# -- rejected liftings and extensions ---------------------------------------------

# Each class's context, its strict conditions in report order, and the
# upstairs unit laws its M(Z2) candidates below can break.
REJECTIONS = {
    "lifted monad": (
        ("LiftingSquareBroken", "Eq-1510081116", "U∘That = T∘U fails"),
        ("MultiplicationNotOverBase", "law-mnd-2cell", "U mu_hat = mu U fails"),
        ("UnitNotOverBase", "law-mnd-2cell", "U eta_hat = eta U fails"),
        [("MonadUnitLeft", "law-monad-unit-left", ""),
         ("MonadUnitRight", "law-monad-unit-right", "")]),
    "lifted comonad": (
        ("LiftingSquareBroken", "Eq-1510081654", "U∘Ghat = G∘U fails"),
        ("ComultiplicationNotOverBase", "law-mnd-2cell",
         "U delta_hat = delta U fails"),
        ("CounitNotOverBase", "law-mnd-2cell", "U eps_hat = epsilon U fails"),
        [("ComonadCounitLeft", "law-comonad-counit-left", ""),
         ("ComonadCounitRight", "law-comonad-counit-right", "")]),
    "Kleisli extension": (
        ("ExtensionSquareBroken", "Eq-1510081116", "Stilde∘D = D∘S fails"),
        None, None,
        [("MonadUnitLeft", "law-monad-unit-left", ""),
         ("MonadUnitRight", "law-monad-unit-right", "")]),
}


def rejection(make, *args):
    """The (kind, tag, detail) triples ``make(*args)`` raises, in order."""
    try:
        make(*args)
    except LawViolation as exc:
        got = [(v.kind, v.tag, v.detail) for v in exc.violations]
        return str(exc).split(": ", 1)[0], got
    return None, []


def test_liftings_over_another_structure_on_c3_are_rejected(cor):
    dl = cor.law_c2_c1
    lm, ke = lift_monad(dl), extend_monad(dl)
    ml = enumerate_mixed_laws(cor.monads_c3["c1"], cor.comonads_c3["i1"])[0]
    lc = lift_comonad(ml)
    square, mult, unit, _ = REJECTIONS["lifted monad"]
    for name, T in cor.monads_c3.items():
        got = rejection(LiftedMonad, lm.base, lm.em, T, lm.that, lm.mu_hat,
                        lm.eta_hat)
        # the lifting of c1 along the law also lies over c3
        want = ((None, []) if name in ("c1", "c3")
                else ("lifted monad", [square, mult, unit]))
        assert got == want
    square = REJECTIONS["Kleisli extension"][0]
    for name, S in cor.monads_c3.items():
        got = rejection(KleisliExtension, S, ke.base_t, ke.kl, ke.stilde,
                        ke.mu_tilde, ke.eta_tilde)
        want = (None, []) if name == "c2" else ("Kleisli extension", [square])
        assert got == want
    square, mult, unit, _ = REJECTIONS["lifted comonad"]
    for name, G in cor.comonads_c3.items():
        got = rejection(LiftedComonad, lc.base, lc.em, G, lc.ghat,
                        lc.delta_hat, lc.eps_hat)
        want = ((None, []) if name in ("id", "i1")
                else ("lifted comonad", [square, mult, unit]))
        assert got == want


def test_liftings_on_m_z2_report_each_condition_in_order(cor):
    """Over the identity monad on M(Z2), whose algebras mirror M(Z2): every
    structure (m, u) on its identity functor below, lawful or not, against
    every (m', u') upstairs. (m', u') lies over the base iff m' = m and
    u' = u, and passes the unit laws upstairs iff m' = u'."""
    Z = cor.m_z2
    base = cor.monads_z2["id"]
    em, kl = em_category(base), kleisli_category(base)
    Id = identity_functor(Z)
    Ihat, Itilde = identity_functor(em.category), identity_functor(kl.category)
    algebra, on_kl = "⟨g|e⟩", lambda x: f"♯⟨{x}:g→g⟩"
    on_em = lambda x: f"⟨{x}:⟨g|e⟩→⟨g|e⟩⟩"
    rejected = 0
    for m, u, m2, u2 in product("es", repeat=4):
        for context, make in (
                ("lifted monad", lambda: LiftedMonad(
                    base, em, Monad(Z, Id, NatTrans(compose_functors(Id, Id), Id,
                                                    {"g": m}),
                                    NatTrans(Id, Id, {"g": u})),
                    Ihat, NatTrans(compose_functors(Ihat, Ihat), Ihat,
                                   {algebra: on_em(m2)}),
                    NatTrans(Ihat, Ihat, {algebra: on_em(u2)}))),
                ("lifted comonad", lambda: LiftedComonad(
                    base, em, Comonad(Z, Id, NatTrans(Id, compose_functors(Id, Id),
                                                      {"g": m}),
                                      NatTrans(Id, Id, {"g": u})),
                    Ihat, NatTrans(Ihat, compose_functors(Ihat, Ihat),
                                   {algebra: on_em(m2)}),
                    NatTrans(Ihat, Ihat, {algebra: on_em(u2)})))):
            _, mult, unit, laws = REJECTIONS[context]
            want = ([mult] if m2 != m else []) + ([unit] if u2 != u else [])
            want += laws if m2 != u2 else []
            assert rejection(make) == ((context, want) if want else (None, []))
            rejected += bool(want)
        if (m, u) != ("e", "e"):
            continue
        got = rejection(KleisliExtension, base, base, kl, Itilde,
                        NatTrans(compose_functors(Itilde, Itilde), Itilde,
                                 {"g": on_kl(m2)}),
                        NatTrans(Itilde, Itilde, {"g": on_kl(u2)}))
        laws = REJECTIONS["Kleisli extension"][3]
        assert got == (("Kleisli extension", laws) if m2 != u2 else (None, []))
    assert rejected == 28


def test_liftings_reject_a_foreign_base_with_their_own_messages(cor):
    dl = cor.law_c2_c1
    lm, ke = lift_monad(dl), extend_monad(dl)
    ml = enumerate_mixed_laws(cor.monads_c3["c1"], cor.comonads_c3["i1"])[0]
    lc, cl = lift_comonad(ml), colift_monad(ml)
    other_c3, on_c2 = cor.monads_c3["id"], cor.monads_c2["top"]
    other_co = em_coalgebra_category(cor.comonads_c3["id"])
    cases = (
        (lambda: LiftedMonad(other_c3, lm.em, lm.below, lm.that, lm.mu_hat,
                             lm.eta_hat),
         "algebra category does not belong to the base monad"),
        (lambda: LiftedMonad(lm.base, lm.em, on_c2, lm.that, lm.mu_hat,
                             lm.eta_hat),
         "monads live on different bases"),
        (lambda: KleisliExtension(ke.base_s, other_c3, ke.kl, ke.stilde,
                                  ke.mu_tilde, ke.eta_tilde),
         "Kleisli category does not belong to T"),
        (lambda: KleisliExtension(on_c2, ke.base_t, ke.kl, ke.stilde,
                                  ke.mu_tilde, ke.eta_tilde),
         "monads live on different bases"),
        (lambda: LiftedComonad(other_c3, lc.em, lc.below, lc.ghat,
                               lc.delta_hat, lc.eps_hat),
         "algebra category does not belong to the base monad"),
        (lambda: LiftedComonad(lc.base, lc.em, cor.comonads_c2["bot"],
                               lc.ghat, lc.delta_hat, lc.eps_hat),
         "monad and comonad live on different bases"),
        (lambda: CoalgebraLifting(cl.base, other_co, cl.below, cl.shat,
                                  cl.mu_hat, cl.eta_hat),
         "coalgebra category does not belong to the comonad"),
        (lambda: CoalgebraLifting(cl.base, cl.co, on_c2, cl.shat, cl.mu_hat,
                                  cl.eta_hat),
         "monad and comonad live on different bases"),
    )
    for make, message in cases:
        with pytest.raises(BaseMismatch) as info:
            make()
        assert str(info.value) == message


def test_psi_e_over_a_foreign_algebra_category_raises(cor):
    """For every ordered pair (S, O) of corpus monads on one base, psi_E of
    the identity 1-cell and 2-cell on S over the algebras of O is psi_E
    over those of S when O is S, and raises BaseMismatch when O is another
    monad, at either end or both."""
    foreign = 0
    for monads in (cor.monads_c2, cor.monads_c3):
        for S, O in product(monads.values(), repeat=2):
            cell = mnd_identity_cell(S)
            t = mnd2_identity(cell)
            own, em = em_category(S), em_category(O)
            if O is S:
                assert psi_e_1cell(cell, em, em) == psi_e_1cell(cell)
                assert psi_e_2cell(t, em, em) == psi_e_2cell(t)
                continue
            foreign += 1
            for ends in ((em, em), (em, own), (own, em)):
                for act, arg in ((psi_e_1cell, cell), (psi_e_2cell, t)):
                    with pytest.raises(BaseMismatch) as info:
                        act(arg, *ends)
                    assert str(info.value) == (
                        "algebra category does not belong to the cell's monad")
    assert foreign == 2 * 1 + 4 * 3


def test_lift_and_extend_over_a_foreign_construction_raise(cor):
    dl = cor.law_c2_c1
    with pytest.raises(BaseMismatch):
        lift_monad(dl, em_category(dl.T))
    with pytest.raises(BaseMismatch):
        extend_monad(dl, kleisli_category(dl.S))


# the twofunctors functions that take a construction, and its parameters
TAKES_A_CONSTRUCTION = {"psi_e_1cell": ["src_em", "dst_em"],
                        "psi_e_2cell": ["src_em", "dst_em"],
                        "lift_monad": ["em"], "extend_monad": ["kl"]}
CONSTRUCTIONS = ("EmAlgebraCategory", "EmCoalgebraCategory", "KleisliCategory")


def test_only_four_public_functions_take_a_construction():
    """Every other public function of twofunctors reads the algebra,
    Kleisli or coalgebra category from the monad it belongs to."""
    import finmonad

    found = {}
    for name in finmonad.__all__:
        value = getattr(finmonad, name)
        if not (inspect.isfunction(value)
                and value.__module__ == "finmonad.twofunctors"):
            continue
        params = [p.name for p in inspect.signature(value).parameters.values()
                  if str(p.annotation) in CONSTRUCTIONS
                  or p.name.split("_")[-1] in ("em", "kl", "co")]
        if params:
            found[name] = params
    assert found == TAKES_A_CONSTRUCTION


def test_structures_of_different_kinds_are_never_equal(cor):
    for cat in (cor.c3, cor.m_z2, cor.empty):
        m, c = identity_monad(cat), identity_comonad(cat)
        assert m.canonical_key() == c.canonical_key()
        assert m != c and not (m == c)
    Id = identity_monad(cor.empty)
    lm = lift_monad(enumerate_dist_laws(Id, Id)[0])
    ke = extend_monad(enumerate_dist_laws(Id, Id)[0])
    assert lm.canonical_key() == ke.canonical_key()
    assert lm != ke and not (ke == lm)
