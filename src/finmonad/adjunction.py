"""Adjunctions carried as unit/counit 4-tuples, induced (co)monads, strictly
commuting squares between adjunctions, the mate calculus, and the two
comparison functors.

An adjunction L ⊣ R: C → X points in the direction of its left adjoint:
L: C → X and R: X → C. The triangle identities are constructor-enforced,
so every adjunction in the system is lawful by construction.

A right-commuting square (J between bases, K between upper categories)
demands R̄∘K = J∘R strictly; its mate is

    λ: L̄∘J → K∘L,   λ = (ε̄ K L) ∘ (L̄ J η).

A left-commuting square demands K∘L = L̄∘J; its mate is

    ρ: J∘R → R̄∘K,   ρ = (R̄ K ε) ∘ (η̄ J R).

Mates are always computed from the square, never stored independently.
"""

from __future__ import annotations

from .errors import LawViolation, SquareConstraintViolation, TypeMismatch
from .fincat import (
    FinCategory,
    Functor,
    NatTrans,
    compose_functors,
    identity_at,
    identity_functor,
    identity_nat,
    opposite_functor,
    opposite_nat,
    vcomp_at,
    whisker_left_at,
    whisker_right_at,
)
from .monad import Comonad, Monad, _law_violations, _Value, comonad_on_opposite


class Adjunction(_Value):
    """L ⊣ R with unit: Id → R∘L and counit: L∘R → Id."""

    __slots__ = ("L", "R", "unit", "counit")
    EQUAL = KEY = __slots__

    def __init__(self, L: Functor, R: Functor, unit: NatTrans, counit: NatTrans):
        if L.source != R.target or L.target != R.source:
            raise TypeMismatch("L and R do not form a functor pair")
        C = L.source
        X = L.target
        if unit.source != identity_functor(C) or unit.target != compose_functors(R, L):
            raise TypeMismatch("unit must be typed Id -> R∘L")
        if counit.source != compose_functors(L, R) or counit.target != identity_functor(X):
            raise TypeMismatch("counit must be typed L∘R -> Id")
        self.L = L
        self.R = R
        self.unit = unit
        self.counit = counit
        bad = self._triangles()
        if bad:
            raise LawViolation(bad, context="adjunction triangle identities")

    def _triangles(self) -> list:
        """The triangle identities, component by component; the constructor
        has typed unit and counit, so both pastings compose."""
        L, R = self.L, self.R
        unit, counit = self.unit.components, self.counit.components
        return _law_violations(
            (), (("TriangleIdentityL", "law-triangle-left"),
                 ("TriangleIdentityR", "law-triangle-right")),
            # (counit L) ∘ (L unit) = id_L and (R counit) ∘ (unit R) = id_R
            ((vcomp_at(self.upper, whisker_left_at(L, unit),
                       whisker_right_at(counit, L)), identity_at(L)),
             (vcomp_at(self.base, whisker_right_at(unit, R),
                       whisker_left_at(R, counit)), identity_at(R))))

    @property
    def base(self) -> FinCategory:
        return self.L.source

    @property
    def upper(self) -> FinCategory:
        return self.L.target

    def __repr__(self):
        return f"Adjunction({self.base!r} -> {self.upper!r})"


def opposite_adjunction(a: Adjunction) -> Adjunction:
    """R^op ⊣ L^op on the opposite categories: unit and counit swap.

    Its triangle identities are those of ``a`` read backwards, so they are
    not checked a second time.
    """
    op = object.__new__(Adjunction)
    op.L, op.R = opposite_functor(a.R), opposite_functor(a.L)
    op.unit, op.counit = opposite_nat(a.counit), opposite_nat(a.unit)
    return op


def identity_adjunction(cat: FinCategory) -> Adjunction:
    Id = identity_functor(cat)
    return Adjunction(Id, Id, identity_nat(Id), identity_nat(Id))


def induced_monad(a: Adjunction) -> Monad:
    """(C, R∘L, R counit L, unit)."""
    return Monad.from_components(
        a.base, compose_functors(a.R, a.L),
        whisker_left_at(a.R, whisker_right_at(a.counit.components, a.L)),
        a.unit.components)


def induced_comonad(a: Adjunction) -> Comonad:
    """(X, L∘R, L unit R, counit): the monad induced by the opposite
    adjunction, read back."""
    return comonad_on_opposite(induced_monad(opposite_adjunction(a)))


class _Square(_Value):
    """A square J between bases and K between upper categories, from the
    adjunction ``dom`` to ``cod``; each kind checks that it commutes."""

    __slots__ = ("dom", "cod", "J", "K")
    EQUAL = __slots__
    KEY = ("J", "K")

    def __init__(self, dom: Adjunction, cod: Adjunction, J: Functor, K: Functor):
        if J.source != dom.base or J.target != cod.base:
            raise TypeMismatch("J must map base to base")
        if K.source != dom.upper or K.target != cod.upper:
            raise TypeMismatch("K must map upper to upper")
        self._check_commutes(dom, cod, J, K)
        self.dom = dom
        self.cod = cod
        self.J = J
        self.K = K


class CommutingSquareR(_Square):
    """A strictly commuting square of right adjoints: R̄∘K = J∘R."""

    __slots__ = ()

    @staticmethod
    def _check_commutes(dom, cod, J, K):
        if compose_functors(cod.R, K) != compose_functors(J, dom.R):
            raise SquareConstraintViolation("R̄∘K = J∘R fails")


class CommutingSquareL(_Square):
    """A strictly commuting square of left adjoints: K∘L = L̄∘J."""

    __slots__ = ()

    @staticmethod
    def _check_commutes(dom, cod, J, K):
        if compose_functors(K, dom.L) != compose_functors(cod.L, J):
            raise SquareConstraintViolation("K∘L = L̄∘J fails")


# Each mate is one transformation between its two endpoint functors, its
# components computed from the pasting; the square's constructor has typed
# J and K, so the pasting composes.


def mate_right(sq: CommutingSquareR) -> NatTrans:
    """λ: L̄∘J → K∘L, computed as (ε̄ K L) ∘ (L̄ J η)."""
    LbarJ = compose_functors(sq.cod.L, sq.J)
    KL = compose_functors(sq.K, sq.dom.L)
    return NatTrans(LbarJ, KL,
                    vcomp_at(sq.cod.upper,
                             whisker_left_at(LbarJ, sq.dom.unit.components),
                             whisker_right_at(sq.cod.counit.components, KL)))


def mate_left(sq: CommutingSquareL) -> NatTrans:
    """ρ: J∘R → R̄∘K, computed as (R̄ K ε) ∘ (η̄ J R)."""
    JR = compose_functors(sq.J, sq.dom.R)
    RbarK = compose_functors(sq.cod.R, sq.K)
    return NatTrans(JR, RbarK,
                    vcomp_at(sq.cod.base,
                             whisker_right_at(sq.cod.unit.components, JR),
                             whisker_left_at(RbarK, sq.dom.counit.components)))


# ---------------------------------------------------------------------------
# Comparison functors


def comparison_functor_em(a: Adjunction) -> CommutingSquareR:
    """The canonical functor from the upper category into the algebras of
    the induced monad, packaged as the square (Id, K) into the
    algebra adjunction: U∘K = R and K∘L = F hold strictly.
    """
    from .construct import em_category

    em = em_category(induced_monad(a))
    K = em.functor_over(a.upper,
                        {y: em.algebra_id(a.R.ob(y), a.R.mor(a.counit.at(y)))
                         for y in a.upper.objects},
                        a.R.mor)
    sq = CommutingSquareR(a, em.adj, identity_functor(a.base), K)
    # The other side of the unit square also commutes strictly: K∘L = F.
    if compose_functors(K, a.L) != em.F:
        raise SquareConstraintViolation("comparison functor: K∘L = F fails")
    return sq


def comparison_functor_kleisli(a: Adjunction) -> CommutingSquareL:
    """The canonical functor from the Kleisli category of the induced monad
    into the base adjunction, packaged as the square (Id, K) out of the
    Kleisli adjunction: K∘D = L holds strictly.
    """
    from .construct import kleisli_category

    m = induced_monad(a)
    kl = kleisli_category(m)
    obj_map = {x: a.L.ob(x) for x in kl.category.objects}
    mor_map = {}
    for mm in kl.category.morphisms:
        # y: X -> R L Y downstairs; image is counit_{L Y} ∘ L y upstairs
        mor_map[mm.id] = a.upper.compose(a.L.mor(kl.underlying(mm.id)),
                                         a.counit.at(a.L.ob(mm.tgt)))
    K = Functor(kl.category, a.upper, obj_map, mor_map)
    return CommutingSquareL(kl.adj, a, identity_functor(a.base), K)
