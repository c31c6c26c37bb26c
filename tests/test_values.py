"""Value equality: every class built on ``monad._Value`` is equal to a value
of its class with equal EQUAL fields, and hashes by its KEY fields.

Each case builds one value by two routes, most of them a round trip of the
paper's equivalences, and checks that the two compare and hash equal; then
that a copy of one with any single EQUAL field replaced compares unequal.
"""

import pytest

from finmonad.adjunction import (
    Adjunction,
    CommutingSquareL,
    CommutingSquareR,
    _Square,
    induced_comonad,
    induced_monad,
    opposite_adjunction,
)
from finmonad.construct import em_category, em_coalgebra_category, kleisli_category
from finmonad.distlaw import (
    DistributiveLaw,
    MixedDistributiveLaw,
    _Law,
    enumerate_mixed_laws,
)
from finmonad.fincat import identity_nat
from finmonad.monad import Comonad, Monad, _Structure, _Value
from finmonad.twofunctors import (
    AdjLOneCell,
    AdjLTwoCell,
    AdjROneCell,
    AdjRTwoCell,
    CoalgebraLifting,
    CoMndOneCell,
    CoMndTwoCell,
    KleisliExtension,
    LiftedComonad,
    LiftedMonad,
    MndBulletOneCell,
    MndBulletTwoCell,
    MndOneCell,
    MndTwoCell,
    adjl_identity_cell,
    adjr2_identity,
    adjr_identity_cell,
    bullet_identity_cell,
    colift_monad,
    extend_monad,
    extract_dist_law,
    extract_from_extension,
    extract_mixed_from_colifting,
    extract_mixed_from_lifting,
    lift_comonad,
    lift_monad,
    mnd2_identity,
    mnd_identity_cell,
    phi_e_1cell,
    phi_e_2cell,
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
from finmonad.twofunctors import (
    _AdjOneCell,
    _AdjTwoCell,
    _Lifting,
    _OneCell,
    _TwoCell,
)


def _S(cor):
    return cor.monads_c3["c2"]


def _mixed(cor):
    return enumerate_mixed_laws(_S(cor), cor.comonads_c3["i2"])[0]


def _mnd_cell(cor):
    """The Mnd 1-cell (T, phi) on S of the corpus law."""
    law = cor.law_c2_c1
    return MndOneCell(law.S, law.S, law.T.S, law.phi)


def _bullet_cell(cor):
    """The Mnd• 1-cell (S, phi) on T of the corpus law."""
    law = cor.law_c2_c1
    return MndBulletOneCell(law.T, law.T, law.S.S, law.phi)


def _comnd_cell(cor):
    """The CoMnd 1-cell (S, psi) on G of a mixed law."""
    ml = _mixed(cor)
    return CoMndOneCell(ml.G, ml.G, ml.S.S, ml.psi)


def _identity_two_cell(kind, cell):
    return kind(cell, cell, identity_nat(cell.P))


def _round_trip(forth, back, value):
    return back(forth(value)), value


def _adjunction(cor):
    a = em_category(_S(cor)).adj
    return opposite_adjunction(opposite_adjunction(a)), a


def _square_r(cor):
    em = em_category(_S(cor))
    return (psi_e_1cell(mnd_identity_cell(_S(cor)), em, em).square,
            adjr_identity_cell(em.adj).square)


def _square_l(cor):
    return (psi_k_1cell(bullet_identity_cell(_S(cor))).square,
            adjl_identity_cell(kleisli_category(_S(cor)).adj).square)


def _adjr_two_cell(cor):
    em = em_category(_S(cor))
    return (psi_e_2cell(mnd2_identity(mnd_identity_cell(_S(cor))), em, em),
            adjr2_identity(adjr_identity_cell(em.adj)))


def _adjl_two_cell(cor):
    kl = kleisli_category(_S(cor))
    cell = adjl_identity_cell(kl.adj)
    t = _identity_two_cell(MndBulletTwoCell, bullet_identity_cell(_S(cor)))
    return (psi_k_2cell(t),
            AdjLTwoCell(cell, cell, identity_nat(cell.J), identity_nat(cell.K)))


# kind -> the same value of that kind built by two routes
ROUTES = {
    Monad: lambda cor: (induced_monad(em_category(_S(cor)).adj), _S(cor)),
    Comonad: lambda cor: (
        induced_comonad(em_coalgebra_category(cor.comonads_c3["i1"]).adj),
        cor.comonads_c3["i1"]),
    Adjunction: _adjunction,
    CommutingSquareR: _square_r,
    CommutingSquareL: _square_l,
    DistributiveLaw: lambda cor: _round_trip(lift_monad, extract_dist_law,
                                             cor.law_c2_c1),
    MixedDistributiveLaw: lambda cor: _round_trip(
        colift_monad, extract_mixed_from_colifting, _mixed(cor)),
    MndOneCell: lambda cor: _round_trip(psi_e_1cell, phi_e_1cell, _mnd_cell(cor)),
    MndTwoCell: lambda cor: _round_trip(
        psi_e_2cell, phi_e_2cell, _identity_two_cell(MndTwoCell, _mnd_cell(cor))),
    MndBulletOneCell: lambda cor: _round_trip(psi_k_1cell, phi_k_1cell,
                                              _bullet_cell(cor)),
    MndBulletTwoCell: lambda cor: _round_trip(
        psi_k_2cell, phi_k_2cell,
        _identity_two_cell(MndBulletTwoCell, _bullet_cell(cor))),
    CoMndOneCell: lambda cor: _round_trip(vec_psi_e_1cell, vec_phi_e_1cell,
                                          _comnd_cell(cor)),
    CoMndTwoCell: lambda cor: _round_trip(
        vec_psi_e_2cell, vec_phi_e_2cell,
        _identity_two_cell(CoMndTwoCell, _comnd_cell(cor))),
    AdjROneCell: lambda cor: _round_trip(phi_e_1cell, psi_e_1cell,
                                         psi_e_1cell(_mnd_cell(cor))),
    AdjLOneCell: lambda cor: _round_trip(phi_k_1cell, psi_k_1cell,
                                         psi_k_1cell(_bullet_cell(cor))),
    AdjRTwoCell: _adjr_two_cell,
    AdjLTwoCell: _adjl_two_cell,
    LiftedMonad: lambda cor: _round_trip(extract_dist_law, lift_monad,
                                         lift_monad(cor.law_c2_c1)),
    KleisliExtension: lambda cor: _round_trip(extract_from_extension, extend_monad,
                                              extend_monad(cor.law_c2_c1)),
    LiftedComonad: lambda cor: _round_trip(extract_mixed_from_lifting, lift_comonad,
                                           lift_comonad(_mixed(cor))),
    CoalgebraLifting: lambda cor: _round_trip(extract_mixed_from_colifting,
                                              colift_monad, colift_monad(_mixed(cor))),
}


def _value_kinds(cls=_Value) -> set:
    """Every public class built on ``cls``."""
    out = set()
    for sub in cls.__subclasses__():
        if not sub.__name__.startswith("_"):
            out.add(sub)
        out |= _value_kinds(sub)
    return out


def _with_field(value, name, replacement):
    """A copy of ``value`` whose field ``name`` is ``replacement``."""
    copy = object.__new__(type(value))
    for cls in type(value).__mro__:
        for slot in getattr(cls, "__slots__", ()):
            if hasattr(value, slot):
                object.__setattr__(copy, slot, getattr(value, slot))
    object.__setattr__(copy, name, replacement)
    return copy


# (EQUAL, KEY) of each class that declares them
FIELDS = {
    _Structure: (("base", "endo", "mult", "unit"), ("endo", "mult", "unit")),
    Adjunction: (("L", "R", "unit", "counit"), ("L", "R", "unit", "counit")),
    _Square: (("dom", "cod", "J", "K"), ("J", "K")),
    _Law: (("S", "second", "nat"), ("nat",)),
    _OneCell: (("src", "dst", "P", "nat"), ("P", "nat")),
    _TwoCell: (("src_cell", "dst_cell", "nat"), ("nat",)),
    _AdjOneCell: (("square", "mate"), ("J", "K")),
    _AdjTwoCell: (("src_cell", "dst_cell", "alpha", "beta"), ("alpha", "beta")),
    _Lifting: (("base", "below", "endo", "mult", "unit"),
               ("endo", "mult", "unit")),
}


def _equal_owner(kind):
    return next(cls for cls in kind.__mro__ if "EQUAL" in vars(cls))


def test_every_value_kind_has_two_routes():
    assert _value_kinds() == set(ROUTES)


def test_every_declared_owner_owns_the_equality_of_some_kind():
    assert set(FIELDS) == {_equal_owner(kind) for kind in ROUTES}


@pytest.mark.parametrize("kind", list(ROUTES), ids=lambda kind: kind.__name__)
def test_each_value_kind_is_equal_by_its_declared_fields(kind):
    owner = _equal_owner(kind)
    assert (owner.EQUAL, vars(owner).get("KEY")) == FIELDS[owner]


@pytest.mark.parametrize("kind", list(ROUTES), ids=lambda kind: kind.__name__)
def test_equal_values_built_by_two_routes_hash_equal(kind, cor):
    a, b = ROUTES[kind](cor)
    assert type(a) is kind and type(b) is kind
    assert a is not b
    assert a == b and b == a and not (a != b)
    assert hash(a) == hash(b)
    assert a.canonical_key() == b.canonical_key()
    assert len({a, b}) == 1
    for name in kind.EQUAL:
        changed = _with_field(b, name, object())
        assert changed == changed, name
        assert a != changed and changed != a, name
    assert a != object()
