"""Monad/comonad law checking and the enumeration oracles.

Expected counts are frozen from brute-force closure/interior-operator
scans written directly against the hom tables, independent of the monad
machinery.
"""

from itertools import product

import pytest
from oracles import cyclic

from finmonad import monad
from finmonad.errors import (
    ComponentMistyped,
    EnumerationCapExceeded,
    LawViolation,
    TypeMismatch,
)
from finmonad.fincat import NatTrans, identity_functor, opposite
from finmonad.fixtures import closure_monad
from finmonad.monad import (
    Comonad,
    Monad,
    check_comonad_laws,
    check_monad_laws,
    comonad_on_opposite,
    enumerate_comonads,
    enumerate_monads,
    identity_comonad,
    identity_monad,
    monad_on_opposite,
)


def closure_maps(cat):
    """Brute-force oracle: monotone, inflationary, idempotent self-maps."""
    objs = cat.objects
    out = []
    for combo in product(objs, repeat=len(objs)):
        f = dict(zip(objs, combo))
        if not all(cat.le(x, f[x]) for x in objs):
            continue
        if not all(f[f[x]] == f[x] for x in objs):
            continue
        if not all(not cat.le(x, y) or cat.le(f[x], f[y])
                   for x in objs for y in objs):
            continue
        out.append(f)
    return out


def interior_maps(cat):
    objs = cat.objects
    out = []
    for combo in product(objs, repeat=len(objs)):
        f = dict(zip(objs, combo))
        if not all(cat.le(f[x], x) for x in objs):
            continue
        if not all(f[f[x]] == f[x] for x in objs):
            continue
        if not all(not cat.le(x, y) or cat.le(f[x], f[y])
                   for x in objs for y in objs):
            continue
        out.append(f)
    return out


def test_identity_monad_is_lawful(cor):
    assert check_monad_laws(identity_monad(cor.c3)) == []
    assert check_comonad_laws(identity_comonad(cor.c3)) == []


def test_require_valid_checks_a_valid_value_once(cor, monkeypatch):
    """A pass is recorded on the value, so later calls check nothing; a
    failing value is checked again and raises the same violations on every
    call."""
    calls = []

    def counted(m, check=monad.check_monad_laws):
        calls.append(m)
        return check(m)

    monkeypatch.setattr(monad, "check_monad_laws", counted)
    S = cor.monads_c3["c1"]
    fresh = Monad(S.base, S.S, S.mu, S.eta)
    for _ in range(3):
        assert fresh.require_valid() is fresh
    assert calls == [fresh]

    # on Z2 the rotation r1 as multiplication breaks both unit laws
    z2 = cyclic(2)
    Id = identity_functor(z2)
    bad = Monad(z2, Id, NatTrans(Id, Id, {"g": "r1"}), NatTrans(Id, Id, {"g": "r0"}))
    raised = []
    for _ in range(3):
        with pytest.raises(LawViolation) as exc:
            bad.require_valid()
        raised.append((str(exc.value), exc.value.violations))
    assert raised[0][1] and raised == raised[:1] * 3
    assert calls[1:] == [bad] * 3


def test_closure_fixtures_are_lawful(cor):
    for m in cor.monads_c3.values():
        assert check_monad_laws(m) == []
    for c in cor.comonads_c3.values():
        assert check_comonad_laws(c) == []


def test_unit_component_referencing_missing_morphism_raises(cor):
    c1f = cor.monads_c3["c1"].S
    good_eta = cor.monads_c3["c1"].eta
    bad = dict(good_eta.components)
    bad["1"] = "no_such_morphism"
    with pytest.raises(ComponentMistyped):
        NatTrans(identity_functor(cor.c3), c1f, bad)


def test_mistyped_unit_component_raises(cor):
    c1f = cor.monads_c3["c1"].S
    bad = dict(cor.monads_c3["c1"].eta.components)
    bad["1"] = "id_1"  # lies in hom(1,1), needed in hom(1, c1(1)) = hom(1,2)
    with pytest.raises(ComponentMistyped):
        NatTrans(identity_functor(cor.c3), c1f, bad)


@pytest.mark.parametrize("kind, base, parts, message", [
    (Monad, "c2", "mult unit", "monad functor must be an endofunctor on the base"),
    (Monad, "c3", "unit unit", "mu must be typed S∘S -> S"),
    (Monad, "c3", "mult mult", "eta must be typed Id -> S"),
    (Monad, "c3", "unit mult", "mu must be typed S∘S -> S"),
    (Comonad, "c2", "mult unit",
     "comonad functor must be an endofunctor on the base"),
    (Comonad, "c3", "unit unit", "delta must be typed G -> G∘G"),
    (Comonad, "c3", "mult mult", "epsilon must be typed G -> Id"),
    (Comonad, "c3", "unit mult", "delta must be typed G -> G∘G"),
], ids=["monad-base", "monad-mu", "monad-eta", "monad-both",
        "comonad-base", "comonad-delta", "comonad-epsilon", "comonad-both"])
def test_constructor_refuses_mistyped_structure_maps(cor, kind, base, parts,
                                                     message):
    """The functor is checked first, then the multiplication, then the
    unit; each map of c1 and i1 passed in the other's place is mistyped."""
    s = cor.monads_c3["c1"] if kind is Monad else cor.comonads_c3["i1"]
    maps = [getattr(s, part) for part in parts.split()]
    with pytest.raises(TypeMismatch) as exc:
        kind(getattr(cor, base), s.endo, *maps)
    assert str(exc.value) == message


def test_enumerate_monads_on_chains(cor):
    found = enumerate_monads(cor.c2)
    assert len(found) == 2
    maps = [tuple(sorted(m.S.object_map.items())) for m in found]
    assert (("a", "a"), ("b", "b")) in maps
    assert (("a", "b"), ("b", "b")) in maps

    found = enumerate_monads(cor.c3)
    assert len(found) == 4
    maps = {tuple(sorted(m.S.object_map.items())) for m in found}
    expected = {
        (("0", "0"), ("1", "1"), ("2", "2")),
        (("0", "0"), ("1", "2"), ("2", "2")),
        (("0", "1"), ("1", "1"), ("2", "2")),
        (("0", "2"), ("1", "2"), ("2", "2")),
    }
    assert maps == expected


def test_enumerate_monads_matches_closure_oracle(cor):
    for cat in (cor.c2, cor.c3, cor.one):
        oracle = closure_maps(cat)
        found = enumerate_monads(cat)
        assert len(found) == len(oracle)
        assert ({tuple(sorted(f.items())) for f in oracle}
                == {tuple(sorted(m.S.object_map.items())) for m in found})


def test_enumerate_monads_one_object_category(cor):
    found = enumerate_monads(cor.one)
    assert len(found) == 1


def test_enumerate_comonads_on_chains(cor):
    found = enumerate_comonads(cor.c2)
    assert len(found) == 2
    maps = {tuple(sorted(c.G.object_map.items())) for c in found}
    assert (("a", "a"), ("b", "a")) in maps  # constant-to-bottom interior

    found = enumerate_comonads(cor.c3)
    assert len(found) == 4
    assert all(check_comonad_laws(c) == [] for c in found)
    for cat in (cor.c2, cor.c3):
        assert len(enumerate_comonads(cat)) == len(interior_maps(cat))


def test_enumerate_comonads_trivial_category(cor):
    assert len(enumerate_comonads(cor.one)) == 1


def test_enumerated_monads_are_rechecked_lawful(cor):
    for cat in (cor.c2, cor.c3, cor.m_z2):
        for m in enumerate_monads(cat):
            assert check_monad_laws(m) == []


def test_poset_monads_are_closure_operators(cor):
    for m in enumerate_monads(cor.c3):
        f = m.S.object_map
        assert all(cor.c3.le(x, f[x]) for x in cor.c3.objects)
        assert all(f[f[x]] == f[x] for x in cor.c3.objects)


def test_monads_on_z2_are_the_two_unit_solutions(cor):
    # on the one-object group category, a monad on the identity functor is a
    # pair (mu, eta) with mu∘eta = e; the table admits exactly (e,e) and (s,s)
    table = {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"}
    oracle = [(m, n) for m in ("e", "s") for n in ("e", "s")
              if table[(m, n)] == "e"]
    assert sorted(oracle) == [("e", "e"), ("s", "s")]
    found = enumerate_monads(cor.m_z2)
    assert len(found) == 2
    got = sorted((m.mu.at("g"), m.eta.at("g")) for m in found)
    assert got == sorted(oracle)


def test_duality_with_opposite_category(cor):
    for cat in (cor.c2, cor.c3, cor.m_z2, cor.one):
        assert len(enumerate_comonads(cat)) == len(enumerate_monads(opposite(cat)))


def test_opposite_structures_are_built_once(cor):
    """Reading a structure on the opposite category back gives the
    structure itself, and asking again gives the same opposite."""
    for _, _, m in cor.all_monads():
        op = comonad_on_opposite(m)
        assert comonad_on_opposite(m) is op and monad_on_opposite(op) is m
    for _, _, c in cor.all_comonads():
        op = monad_on_opposite(c)
        assert monad_on_opposite(c) is op and comonad_on_opposite(op) is c


def test_enumeration_is_deterministic_and_duplicate_free(cor):
    a = enumerate_monads(cor.c3)
    b = enumerate_monads(cor.c3, jobs=8)
    assert [m.canonical_key() for m in a] == [m.canonical_key() for m in b]
    assert len({m.canonical_key() for m in a}) == len(a)


def test_enumeration_cap(cor):
    with pytest.raises(EnumerationCapExceeded):
        enumerate_monads(cor.c3, cap=3)


def test_monad_equality_is_structural(cor):
    rebuilt = closure_monad(cor.c3, {"0": "0", "1": "2", "2": "2"})
    assert rebuilt == cor.monads_c3["c1"]
    assert rebuilt != cor.monads_c3["c2"]


def test_empty_category_has_one_monad(cor):
    found = enumerate_monads(cor.empty)
    assert len(found) == 1
    assert found[0] == identity_monad(cor.empty)
