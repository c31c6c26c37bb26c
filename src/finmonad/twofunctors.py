"""Cells of the monad/comonad 2-categories over finite categories, the six
2-functor actions between them and the adjunction-square 2-categories, the
lifting/extension constructions they induce, and the machinery that
verifies the law/lifting/extension bijections by round trips and
exhaustive enumeration.

Cell dictionary (src monad (C,S), dst monad (D,T), comonads (X,G), (Y,H)):

* Mnd 1-cell (P, phi):  phi: T∘P → P∘S with
      P mu^S ∘ phi S ∘ T phi = phi ∘ mu^T P   and   P eta^S = phi ∘ eta^T P
* Mnd 2-cell theta: P → Q with  phi^Q ∘ T theta = theta S ∘ phi^P
* Mnd• 1-cell (P, psi): psi: P∘S → T∘P with
      mu^T P ∘ T psi ∘ psi S = psi ∘ P mu^S   and   eta^T P = psi ∘ P eta^S
* Mnd• 2-cell theta with  T theta ∘ psi^P = psi^Q ∘ theta S
* CoMnd 1-cell (P, pi): pi: P∘G → H∘P with
      delta^H P ∘ pi = H pi ∘ pi G ∘ P delta^G   and   epsilon^H P ∘ pi = P epsilon^G
* CoMnd 2-cell theta with  H theta ∘ pi^P = pi^Q ∘ theta G
* AdjR 1-cell (J, K, lambda): a CommutingSquareR, R̄∘K = J∘R, with its
  mate lambda: L̄∘J → K∘L; AdjL 1-cell (J, K, rho): a CommutingSquareL,
  K∘L = L̄∘J, with its mate rho: J∘R → R̄∘K, which the square computes
  once. AdjR/AdjL 2-cells are pairs (alpha, beta) subject to two
  equivalent conditions, both checked.

An endo Mnd 1-cell (T, phi) on (C, S) carries exactly the S-side axioms of
a distributive law phi: ST → TS, and the Mnd• 1-cell (S, phi) on (C, T)
the T-side ones, which the monad-object structure 2-cells mu^T, eta^T of
(T, phi) carry as well. For a mixed law psi the CoMnd 1-cell (S, psi) on
(C, G) gives the G-side axioms. :mod:`distlaw` checks laws as these cell
laws. vec psi_E is psi_E on the opposite categories. The lifting/extension
operations below always pass through the 2-cell actions rather than ad-hoc
formulas: each is the psi image of a structure 1-cell and of its two
structure 2-cells, built by one routine. Those cells' laws are the law's
axioms, so the routine checks none of them again once the law is valid.
psi_E, the lift search and the lifted structures build what lies over U
with the algebra category's ``functor_over`` and ``nat_over``, and psi_K
builds its images with the Kleisli category's; a lift needs no functor
check, U being faithful. The hom-isomorphism round trip is one routine
for both directions over a record of each side's cells, actions and keys.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial
from itertools import product

from .adjunction import (
    Adjunction,
    CommutingSquareL,
    CommutingSquareR,
    induced_comonad,
    induced_monad,
)
from .construct import (
    EmAlgebraCategory,
    KleisliCategory,
    em_category,
    em_coalgebra_category,
    kleisli_category,
)
from .distlaw import (
    DistributiveLaw,
    MixedDistributiveLaw,
    bullet_cell_sides,
    enumerate_dist_laws,
    enumerate_mixed_laws,
    mnd_cell_sides,
)
from .errors import (
    BaseMismatch,
    ComponentMistyped,
    LawViolation,
    TwoCellLawViolation,
    TypeMismatch,
)
from .fincat import (
    DEFAULT_CAP,
    Functor,
    NatTrans,
    _Budget,
    _backtrack,
    check_naturality,
    compose_functors,
    enumerate_functors,
    enumerate_nat_trans,
    identity_functor,
    identity_nat,
    opposite_functor,
    opposite_nat,
    vcomp_at,
    whisker_left,
    whisker_left_at,
    whisker_right,
    whisker_right_at,
)
from .monad import (
    Comonad,
    Monad,
    _Checked,
    _law_violations,
    _Value,
    comonad_on_opposite,
    monad_on_opposite,
)
from .report import Violation, entry


# ---------------------------------------------------------------------------
# Monad-side cells


class _LawCell(_Checked):
    """A cell carrying one transformation ``nat``, which must be natural and
    satisfy the equations LAWS names; each kind reads ``nat`` under its own
    name (phi, psi, pi or theta) and evaluates the two sides of each
    equation, component by component, in :meth:`_sides`. The constructor
    has typed ``nat``, so every pasting there composes."""

    __slots__ = ("nat",)

    def check(self) -> list:
        return _law_violations((("NaturalityViolation", self.nat),),
                               self.LAWS, self._sides())


class _OneCell(_LawCell):
    """(P, nat): src → dst, the structure nat typed by :meth:`_check_typing`."""

    __slots__ = ("src", "dst", "P")
    EQUAL = ("src", "dst", "P", "nat")
    KEY = ("P", "nat")

    def __init__(self, src, dst, P: Functor, nat: NatTrans):
        if P.source != src.base or P.target != dst.base:
            raise TypeMismatch("cell functor must map src base to dst base")
        self.src = src
        self.dst = dst
        self.P = P
        self.nat = nat
        self._check_typing()


class _TwoCell(_LawCell):
    """theta: P → Q between parallel 1-cells (P, ...) → (Q, ...)."""

    __slots__ = ("src_cell", "dst_cell")
    theta = _LawCell.nat
    EQUAL = ("src_cell", "dst_cell", "nat")
    KEY = ("nat",)

    def __init__(self, src_cell, dst_cell, theta: NatTrans):
        if src_cell.src != dst_cell.src or src_cell.dst != dst_cell.dst:
            raise TypeMismatch("2-cell between non-parallel 1-cells")
        if theta.source != src_cell.P or theta.target != dst_cell.P:
            raise TypeMismatch("theta must be typed P -> Q")
        self.src_cell = src_cell
        self.dst_cell = dst_cell
        self.theta = theta


class MndOneCell(_OneCell):
    """(P, phi): (C,S) → (D,T) with phi: T∘P → P∘S."""

    __slots__ = ()
    phi = _LawCell.nat
    CONTEXT = "Mnd 1-cell"
    LAWS = (("MndOneCellMultiplication", "law-mnd-1cell-mul"),
            ("MndOneCellUnit", "law-mnd-1cell-unit"))

    def _check_typing(self):
        if self.phi.source != compose_functors(self.dst.S, self.P):
            raise TypeMismatch("phi source must be T∘P")
        if self.phi.target != compose_functors(self.P, self.src.S):
            raise TypeMismatch("phi target must be P∘S")

    def _sides(self):
        return mnd_cell_sides(self.src, self.dst, self.P, self.phi.components)


class MndTwoCell(_TwoCell):
    """theta: (P, phi^P) → (Q, phi^Q) between parallel Mnd 1-cells."""

    __slots__ = ()
    CONTEXT = "Mnd 2-cell"
    LAWS = (("MndTwoCellLaw", "law-mnd-2cell"),)

    def _sides(self):
        D, Sf, Tf = self.src_cell.dst.base, self.src_cell.src.S, self.src_cell.dst.S
        theta = self.theta.components
        return ((vcomp_at(D, whisker_left_at(Tf, theta), self.dst_cell.phi.components),
                 vcomp_at(D, self.src_cell.phi.components,
                          whisker_right_at(theta, Sf))),)


def mnd_identity_cell(m: Monad) -> MndOneCell:
    return MndOneCell(m, m, identity_functor(m.base), identity_nat(m.S))


def _mnd_composite_phi(outer: MndOneCell, inner: MndOneCell) -> dict:
    """The components of the structure of outer ∘ inner."""
    return vcomp_at(outer.dst.base,
                    whisker_right_at(outer.phi.components, inner.P),
                    whisker_left_at(outer.P, inner.phi.components))


def mnd_compose(outer: MndOneCell, inner: MndOneCell) -> MndOneCell:
    """outer ∘ inner; inner first."""
    if inner.dst != outer.src:
        raise TypeMismatch("Mnd 1-cells not composable")
    P, phi = compose_functors(outer.P, inner.P), _mnd_composite_phi(outer, inner)
    return MndOneCell(inner.src, outer.dst, P,
                      NatTrans._typed(compose_functors(outer.dst.S, P),
                                      compose_functors(P, inner.src.S), phi))


class _PushOneCell(_OneCell):
    """(P, nat) with nat: P∘E → E'∘P (Mnd• and CoMnd), typed as TYPING says."""

    __slots__ = ()

    def _check_typing(self):
        if self.nat.source != compose_functors(self.P, self.src.endo):
            raise TypeMismatch(self.TYPING[0])
        if self.nat.target != compose_functors(self.dst.endo, self.P):
            raise TypeMismatch(self.TYPING[1])


class _PushTwoCell(_TwoCell):
    """theta: (P, nat^P) → (Q, nat^Q) with E' theta ∘ nat^P = nat^Q ∘ theta E."""

    __slots__ = ()

    def _sides(self):
        D, E, E2 = self.src_cell.dst.base, self.src_cell.src.endo, self.src_cell.dst.endo
        theta = self.theta.components
        return ((vcomp_at(D, self.src_cell.nat.components, whisker_left_at(E2, theta)),
                 vcomp_at(D, whisker_right_at(theta, E), self.dst_cell.nat.components)),)


class MndBulletOneCell(_PushOneCell):
    """(P, psi): (C,S) → (D,T) with psi: P∘S → T∘P."""

    __slots__ = ()
    psi = _LawCell.nat
    CONTEXT = "Mnd• 1-cell"
    LAWS = (("MndBulletMultiplication", "law-mndbullet-1cell-mul"),
            ("MndBulletUnit", "law-mndbullet-1cell-unit"))
    TYPING = ("psi source must be P∘S", "psi target must be T∘P")

    def _sides(self):
        return bullet_cell_sides(self.src, self.dst, self.P, self.psi.components)


class MndBulletTwoCell(_PushTwoCell):
    """theta: (P, psi^P) → (Q, psi^Q) with T theta ∘ psi^P = psi^Q ∘ theta S."""

    __slots__ = ()
    CONTEXT = "Mnd• 2-cell"
    LAWS = (("MndBulletTwoCellLaw", "law-mndbullet-2cell"),)


def bullet_identity_cell(m: Monad) -> MndBulletOneCell:
    return MndBulletOneCell(m, m, identity_functor(m.base), identity_nat(m.S))


def _push_compose(outer, inner):
    """outer ∘ inner for the 1-cells (P, nat) with nat: P∘E → E'∘P (Mnd•
    and CoMnd): nat is (outer.nat inner.P) ∘ (outer.P inner.nat)."""
    if inner.dst != outer.src:
        raise TypeMismatch(f"{outer.CONTEXT}s not composable")
    P = compose_functors(outer.P, inner.P)
    nat = vcomp_at(outer.dst.base,
                   whisker_left_at(outer.P, inner.nat.components),
                   whisker_right_at(outer.nat.components, inner.P))
    return type(outer)(inner.src, outer.dst, P,
                       NatTrans._typed(compose_functors(P, inner.src.endo),
                                       compose_functors(outer.dst.endo, P), nat))


bullet_compose = _push_compose


# ---------------------------------------------------------------------------
# Comonad-side cells


class CoMndOneCell(_PushOneCell):
    """(P, pi): (X,G) → (Y,H) with pi: P∘G → H∘P."""

    __slots__ = ()
    pi = _LawCell.nat
    CONTEXT = "CoMnd 1-cell"
    LAWS = (("CoMndComultiplication", "law-comnd-1cell-comul"),
            ("CoMndCounit", "law-comnd-1cell-counit"))
    TYPING = ("pi source must be P∘G", "pi target must be H∘P")

    def _sides(self):
        return tuple((rhs, lhs) for lhs, rhs in self._op()._sides())

    def _op(self) -> MndOneCell:
        """The Mnd 1-cell (P^op, pi^op): (X^op, G^op) → (Y^op, H^op)."""
        return MndOneCell(monad_on_opposite(self.src), monad_on_opposite(self.dst),
                          opposite_functor(self.P), opposite_nat(self.pi))


class CoMndTwoCell(_PushTwoCell):
    """theta: (P, pi^P) → (Q, pi^Q) with H theta ∘ pi^P = pi^Q ∘ theta G."""

    __slots__ = ()
    CONTEXT = "CoMnd 2-cell"
    LAWS = (("CoMndTwoCellLaw", "law-comnd-2cell"),)


def comnd_identity_cell(c: Comonad) -> CoMndOneCell:
    return CoMndOneCell(c, c, identity_functor(c.base), identity_nat(c.G))


comnd_compose = _push_compose


# ---------------------------------------------------------------------------
# Adjunction-square cells


# An AdjR (AdjL) 1-cell is its right (left) commuting square, which
# carries its mate.
AdjROneCell = CommutingSquareR
AdjLOneCell = CommutingSquareL


def adjr_identity_cell(a: Adjunction) -> AdjROneCell:
    return AdjROneCell(a, a, identity_functor(a.base), identity_functor(a.upper))


def adjl_identity_cell(a: Adjunction) -> AdjLOneCell:
    return AdjLOneCell(a, a, identity_functor(a.base), identity_functor(a.upper))


def adjr_compose(outer, inner):
    """outer ∘ inner for AdjR or AdjL 1-cells; inner first."""
    if inner.cod != outer.dom:
        raise TypeMismatch(f"{outer.NAME} 1-cells not composable")
    return type(outer)(inner.dom, outer.cod, compose_functors(outer.J, inner.J),
                       compose_functors(outer.K, inner.K))


adjl_compose = adjr_compose


def adjr_two_cell_conditions(src_cell: AdjROneCell, dst_cell: AdjROneCell,
                             alpha: NatTrans, beta: NatTrans):
    """The two equivalent 2-cell conditions for candidate (alpha, beta),
    typed J → J' and K → K', compared component by component:

    (a) beta L ∘ lambda = lambda' ∘ L̄ alpha
    (b) R̄ beta = alpha R
    """
    dom, cod = src_cell.dom, src_cell.cod
    L, R, Lbar, Rbar = dom.L, dom.R, cod.L, cod.R
    upper = cod.upper
    lam, lam2 = src_cell.mate, dst_cell.mate
    cond_a = all(upper.compose(lam.at(x), beta.at(L.ob(x)))
                 == upper.compose(Lbar.mor(alpha.at(x)), lam2.at(x))
                 for x in dom.base.objects)
    cond_b = all(Rbar.mor(beta.at(a)) == alpha.at(R.ob(a))
                 for a in dom.upper.objects)
    return cond_a, cond_b


def adjl_two_cell_conditions(src_cell: AdjLOneCell, dst_cell: AdjLOneCell,
                             alpha: NatTrans, beta: NatTrans):
    """Dual conditions over a left square:

    (a) R̄ beta ∘ rho = rho' ∘ alpha R
    (b) beta L = L̄ alpha
    """
    dom, cod = src_cell.dom, src_cell.cod
    base = cod.base
    alpha, beta = alpha.components, beta.components
    cond_a = (vcomp_at(base, src_cell.mate.components, whisker_left_at(cod.R, beta))
              == vcomp_at(base, whisker_right_at(alpha, dom.R),
                          dst_cell.mate.components))
    cond_b = whisker_right_at(beta, dom.L) == whisker_left_at(dst_cell.cod.L, alpha)
    return cond_a, cond_b


class _AdjTwoCell(_Value):
    """(alpha, beta) between parallel 1-cells; both conditions of
    :meth:`_conditions` are checked."""

    __slots__ = ("src_cell", "dst_cell", "alpha", "beta")
    EQUAL = __slots__
    KEY = ("alpha", "beta")

    def __init__(self, src_cell, dst_cell, alpha: NatTrans, beta: NatTrans):
        if src_cell.dom != dst_cell.dom or src_cell.cod != dst_cell.cod:
            raise TypeMismatch("2-cell between non-parallel 1-cells")
        if alpha.source != src_cell.J or alpha.target != dst_cell.J:
            raise TypeMismatch("alpha must be typed J -> J'")
        if beta.source != src_cell.K or beta.target != dst_cell.K:
            raise TypeMismatch("beta must be typed K -> K'")
        cond_a, cond_b = self._conditions(src_cell, dst_cell, alpha, beta)
        if not (cond_a and cond_b):
            raise TwoCellLawViolation(
                f"{self.NAME} 2-cell conditions fail: (a)={cond_a} (b)={cond_b}")
        self.src_cell = src_cell
        self.dst_cell = dst_cell
        self.alpha = alpha
        self.beta = beta


class AdjRTwoCell(_AdjTwoCell):
    """(alpha, beta) between parallel AdjR 1-cells."""

    __slots__ = ()
    NAME = "AdjR"

    _conditions = staticmethod(adjr_two_cell_conditions)


class AdjLTwoCell(_AdjTwoCell):
    """(alpha, beta) between parallel AdjL 1-cells."""

    __slots__ = ()
    NAME = "AdjL"

    _conditions = staticmethod(adjl_two_cell_conditions)


# ---------------------------------------------------------------------------
# The six 2-functor actions


def phi_e_1cell(cell: AdjROneCell, src_monad: Monad = None,
                dst_monad: Monad = None) -> MndOneCell:
    """(J, K, lambda) ↦ (J, R̄ lambda) on induced monads.

    A caller that already holds the monads the two adjunctions induce
    passes them as ``src_monad`` and ``dst_monad``.
    """
    src_monad = src_monad if src_monad is not None else induced_monad(cell.dom)
    dst_monad = dst_monad if dst_monad is not None else induced_monad(cell.cod)
    out = MndOneCell(src_monad, dst_monad, cell.J,
                     whisker_left(cell.cod.R, cell.mate))
    return out.require_valid()


_FOREIGN_ALGEBRAS = "algebra category does not belong to the cell's monad"


def psi_e_1cell(cell: MndOneCell, src_em: EmAlgebraCategory = None,
                dst_em: EmAlgebraCategory = None) -> AdjROneCell:
    """(P, phi) ↦ (P, P^phi, lambda^P) between algebra adjunctions.

    P^phi sends an algebra (N, chi) to (P N, P chi ∘ phi_N) and a morphism
    to its underlying image under P; the mate is recomputed from the
    square, which realizes lambda^P = (epsilon K L) ∘ (L J eta).

    ``src_em``/``dst_em`` default to the algebras of the cell's monads, and
    one of another monad raises. vec psi_E passes a coalgebra category's
    ``on_opposite`` view, which no ``em_category`` call returns: its
    morphism ids name coalgebra morphisms.
    """
    src_em = src_em if src_em is not None else em_category(cell.src)
    dst_em = dst_em if dst_em is not None else em_category(cell.dst)
    if src_em.monad != cell.src or dst_em.monad != cell.dst:
        raise BaseMismatch(_FOREIGN_ALGEBRAS)
    base = cell.dst.base
    obj_map = {a: dst_em.algebra_id(cell.P.ob(carrier),
                                    base.compose(cell.phi.at(carrier), cell.P.mor(chi)))
               for a, carrier, chi in src_em.algebra_objects()}
    Pphi = dst_em.functor_over(src_em.category, obj_map,
                               lambda m: cell.P.mor(src_em.underlying(m)))
    return AdjROneCell(src_em.adj, dst_em.adj, cell.P, Pphi)


def phi_e_2cell(c2: AdjRTwoCell, src_mcell: MndOneCell = None,
                dst_mcell: MndOneCell = None) -> MndTwoCell:
    """(alpha, beta) ↦ alpha, between the images of the two 1-cells; a
    caller that already holds those images passes them."""
    if src_mcell is None:
        src_mcell = phi_e_1cell(c2.src_cell)
    if dst_mcell is None:
        dst_mcell = phi_e_1cell(c2.dst_cell)
    out = MndTwoCell(src_mcell, dst_mcell, c2.alpha)
    return out.require_valid()


def psi_e_2cell(t: MndTwoCell, src_em: EmAlgebraCategory = None,
                dst_em: EmAlgebraCategory = None,
                src_acell: AdjROneCell = None,
                dst_acell: AdjROneCell = None) -> AdjRTwoCell:
    """theta ↦ (theta, theta^phi) where theta^phi has underlying component
    theta_N at each algebra over N; ``src_em``/``dst_em`` as in
    :func:`psi_e_1cell`."""
    src_em = src_em if src_em is not None else em_category(t.src_cell.src)
    dst_em = dst_em if dst_em is not None else em_category(t.src_cell.dst)
    if src_em.monad != t.src_cell.src or dst_em.monad != t.src_cell.dst:
        raise BaseMismatch(_FOREIGN_ALGEBRAS)
    if src_acell is None:
        src_acell = psi_e_1cell(t.src_cell, src_em, dst_em)
    if dst_acell is None:
        dst_acell = psi_e_1cell(t.dst_cell, src_em, dst_em)
    beta = dst_em.nat_over(src_acell.K, dst_acell.K,
                           lambda a: t.theta.at(src_em.carrier(a)))
    return AdjRTwoCell(src_acell, dst_acell, t.theta, beta)


def psi_k_1cell(cell: MndBulletOneCell) -> AdjLOneCell:
    """(P, psi) ↦ (P, P_psi, rho^P) between Kleisli adjunctions.

    P_psi fixes objects to P X and sends y♯: X → Y to (psi_Y ∘ P y)♯.
    """
    src_kl, dst_kl = kleisli_category(cell.src), kleisli_category(cell.dst)
    base, source = cell.dst.base, src_kl.category
    Ppsi = dst_kl.functor_over(
        source, {x: cell.P.ob(x) for x in source.objects},
        lambda m: base.compose(cell.P.mor(src_kl.underlying(m)),
                               cell.psi.at(source.tgt(m))))
    return AdjLOneCell(src_kl.adj, dst_kl.adj, cell.P, Ppsi)


def phi_k_1cell(cell: AdjLOneCell) -> MndBulletOneCell:
    """(J, K, rho) ↦ (J, rho L) on induced monads."""
    out = MndBulletOneCell(induced_monad(cell.dom), induced_monad(cell.cod),
                           cell.J, whisker_right(cell.mate, cell.dom.L))
    return out.require_valid()


def phi_k_2cell(c2: AdjLTwoCell) -> MndBulletTwoCell:
    out = MndBulletTwoCell(phi_k_1cell(c2.src_cell), phi_k_1cell(c2.dst_cell),
                           c2.alpha)
    return out.require_valid()


def psi_k_2cell(t: MndBulletTwoCell, src_acell: AdjLOneCell = None,
                dst_acell: AdjLOneCell = None) -> AdjLTwoCell:
    """theta ↦ (theta, theta^psi) with theta^psi(X) = (eta^T_{Q X} ∘ theta_X)♯.

    The 2-cell laws of the result are re-checked by the AdjL constructor;
    a failure raises TwoCellLawViolation rather than being repaired.
    """
    if src_acell is None:
        src_acell = psi_k_1cell(t.src_cell)
    if dst_acell is None:
        dst_acell = psi_k_1cell(t.dst_cell)
    base = t.src_cell.dst.base
    eta = t.src_cell.dst.eta
    dst_kl = kleisli_category(t.src_cell.dst)
    beta = dst_kl.nat_over(src_acell.K, dst_acell.K,
                           lambda x: base.compose(t.theta.at(x),
                                                  eta.at(t.dst_cell.P.ob(x))))
    return AdjLTwoCell(src_acell, dst_acell, t.theta, beta)


def vec_phi_e_1cell(cell: AdjLOneCell) -> CoMndOneCell:
    """(J, K, rho) ↦ (K, L̄ rho) on induced comonads."""
    out = CoMndOneCell(induced_comonad(cell.dom), induced_comonad(cell.cod),
                       cell.K, whisker_left(cell.cod.L, cell.mate))
    return out.require_valid()


def vec_psi_e_1cell(cell: CoMndOneCell) -> AdjLOneCell:
    """(P, pi) ↦ (P^pi, P, rho^P) between coalgebra adjunctions.

    P^pi sends a coalgebra (N, xi) to (P N, pi_N ∘ P xi): it is the
    opposite of the psi_E image of the Mnd 1-cell (P^op, pi^op) between
    the algebras on the opposite categories. Note the direction: the
    coalgebra adjunction points out of the coalgebra category, so P^pi is
    the base-level functor of the square.
    """
    src_co, dst_co = em_coalgebra_category(cell.src), em_coalgebra_category(cell.dst)
    K = psi_e_1cell(cell._op(), src_co.on_opposite, dst_co.on_opposite).K
    return AdjLOneCell(src_co.adj, dst_co.adj, opposite_functor(K), cell.P)


def vec_phi_e_2cell(c2: AdjLTwoCell) -> CoMndTwoCell:
    """(alpha, beta) ↦ beta."""
    out = CoMndTwoCell(vec_phi_e_1cell(c2.src_cell), vec_phi_e_1cell(c2.dst_cell),
                       c2.beta)
    return out.require_valid()


def vec_psi_e_2cell(t: CoMndTwoCell) -> AdjLTwoCell:
    """theta ↦ (theta^pi, theta) with theta^pi having component theta_N at
    each coalgebra over N: the opposite of the psi_E image of the Mnd
    2-cell theta^op, which runs from the Q cell to the P cell."""
    src_co = em_coalgebra_category(t.src_cell.src)
    dst_co = em_coalgebra_category(t.src_cell.dst)
    op = MndTwoCell(t.dst_cell._op(), t.src_cell._op(), opposite_nat(t.theta))
    beta = psi_e_2cell(op, src_co.on_opposite, dst_co.on_opposite).beta
    return AdjLTwoCell(vec_psi_e_1cell(t.src_cell), vec_psi_e_1cell(t.dst_cell),
                       opposite_nat(beta), t.theta)


# ---------------------------------------------------------------------------
# Lifted structures


class _Lifting(_Value):
    """A (co)monad ``endo``, ``mult``, ``unit`` on the algebra, Kleisli or
    coalgebra category ``cat`` of ``base`` (which ``cat`` holds as its
    attribute OVER), lying strictly over ``below``; each kind reads these
    under its own names. The conditions STRICT names are decided by
    :meth:`_holds` and checked on construction, followed by the laws of the
    UPSTAIRS structure."""

    __slots__ = ("base", "cat", "below", "endo", "mult", "unit")
    EQUAL = ("base", "below", "endo", "mult", "unit")
    KEY = ("endo", "mult", "unit")
    OVER = "monad"

    def __init__(self, base, cat, below, endo: Functor, mult: NatTrans,
                 unit: NatTrans):
        if getattr(cat, self.OVER) != base:
            raise BaseMismatch(self.FOREIGN_CATEGORY)
        if base.base != below.base:
            raise BaseMismatch(self.FOREIGN_BASE)
        self.base = base
        self.cat = cat
        self.below = below
        self.endo = endo
        self.mult = mult
        self.unit = unit
        bad = [Violation(kind, tag, detail=detail)
               for (kind, tag, detail), holds in zip(self.STRICT, self._holds())
               if not holds]
        bad.extend(self._upstairs().check())
        if bad:
            raise LawViolation(bad, context=self.CONTEXT)

    def _holds(self):
        """U∘endo = E∘U, U mult = m U and U unit = u U for the structure
        (E, m, u) below and the forgetful functor U of ``cat``. The
        last two compare components; their functors are the two sides of
        the first, so they fail with it."""
        U, below = self.cat.U, self.below
        square = compose_functors(U, self.endo) == compose_functors(below.endo, U)
        return (square,
                square and (whisker_left_at(U, self.mult.components)
                            == whisker_right_at(below.mult.components, U)),
                square and (whisker_left_at(U, self.unit.components)
                            == whisker_right_at(below.unit.components, U)))

    def _upstairs(self):
        return self.UPSTAIRS(self.cat.category, self.endo, self.mult, self.unit)


class LiftedMonad(_Lifting):
    """A monad (That, mu_hat, eta_hat) on the algebras of S lying over the
    monad T: U∘That = T∘U, U mu_hat = mu U and U eta_hat = eta U, all
    strictly. Validated on construction."""

    __slots__ = ()
    em = _Lifting.cat
    that = _Lifting.endo
    mu_hat = _Lifting.mult
    eta_hat = _Lifting.unit
    CONTEXT = "lifted monad"
    FOREIGN_CATEGORY = "algebra category does not belong to the base monad"
    FOREIGN_BASE = "monads live on different bases"
    STRICT = (("LiftingSquareBroken", "Eq-1510081116", "U∘That = T∘U fails"),
              ("MultiplicationNotOverBase", "law-mnd-2cell",
               "U mu_hat = mu U fails"),
              ("UnitNotOverBase", "law-mnd-2cell", "U eta_hat = eta U fails"))
    UPSTAIRS = Monad
    as_monad = _Lifting._upstairs


class KleisliExtension(_Lifting):
    """A monad (Stilde, mu_tilde, eta_tilde) on the Kleisli category of T
    extending S: Stilde∘D = D∘S strictly, monad laws upstairs."""

    __slots__ = ()
    base_t = _Lifting.base
    kl = _Lifting.cat
    base_s = _Lifting.below
    stilde = _Lifting.endo
    mu_tilde = _Lifting.mult
    eta_tilde = _Lifting.unit
    CONTEXT = "Kleisli extension"
    FOREIGN_CATEGORY = "Kleisli category does not belong to T"
    FOREIGN_BASE = "monads live on different bases"
    STRICT = (("ExtensionSquareBroken", "Eq-1510081116", "Stilde∘D = D∘S fails"),)
    UPSTAIRS = Monad
    as_monad = _Lifting._upstairs

    def __init__(self, base_s: Monad, base_t: Monad, kl: KleisliCategory,
                 stilde: Functor, mu_tilde: NatTrans, eta_tilde: NatTrans):
        super().__init__(base_t, kl, base_s, stilde, mu_tilde, eta_tilde)

    def _holds(self):
        D = self.kl.D
        return (compose_functors(self.stilde, D) == compose_functors(D, self.base_s.S),)


class LiftedComonad(_Lifting):
    """A comonad (Ghat, delta_hat, eps_hat) on the algebras of S lying over
    the comonad G, all compatibilities strict."""

    __slots__ = ()
    em = _Lifting.cat
    ghat = _Lifting.endo
    delta_hat = _Lifting.mult
    eps_hat = _Lifting.unit
    CONTEXT = "lifted comonad"
    FOREIGN_CATEGORY = "algebra category does not belong to the base monad"
    FOREIGN_BASE = "monad and comonad live on different bases"
    STRICT = (("LiftingSquareBroken", "Eq-1510081654", "U∘Ghat = G∘U fails"),
              ("ComultiplicationNotOverBase", "law-mnd-2cell",
               "U delta_hat = delta U fails"),
              ("CounitNotOverBase", "law-mnd-2cell",
               "U eps_hat = epsilon U fails"))
    UPSTAIRS = Comonad
    as_comonad = _Lifting._upstairs


class CoalgebraLifting(_Lifting):
    """A monad (Shat, mu_hat, eta_hat) on the coalgebras of G lying over the
    monad S: U∘Shat = S∘U, U mu_hat = mu U and U eta_hat = eta U, all
    strictly. Validated on construction."""

    __slots__ = ()
    co = _Lifting.cat
    shat = _Lifting.endo
    mu_hat = _Lifting.mult
    eta_hat = _Lifting.unit
    CONTEXT = "coalgebra-side lifting"
    OVER = "comonad"
    FOREIGN_CATEGORY = "coalgebra category does not belong to the comonad"
    FOREIGN_BASE = "monad and comonad live on different bases"
    STRICT = (("LiftingSquareBroken", "Eq-1510081654", "U∘Shat = S∘U fails"),
              ("MultiplicationNotOverBase", "law-comnd-2cell",
               "U mu_hat = mu U fails"),
              ("UnitNotOverBase", "law-comnd-2cell", "U eta_hat = eta U fails"))
    UPSTAIRS = Monad
    as_monad = _Lifting._upstairs


# ---------------------------------------------------------------------------
# Lifting and extension operations


def _lift_structure(cell, below, em: EmAlgebraCategory = None) -> tuple:
    """(K, mult image, unit image): the psi image (psi_E on ``em`` for an
    Mnd cell, psi_K for an Mnd• cell) of the endo 1-cell ``cell`` and of
    the multiplication and unit of ``below`` as 2-cells between cell∘cell,
    cell and the identity cell, as the shape of ``below`` says. The cells
    come from a law its caller has validated: the law's axioms are the
    laws of the 1-cell and of the two 2-cells, so none is checked again."""
    if isinstance(cell, MndOneCell):
        act1, act2, two = (partial(psi_e_1cell, src_em=em, dst_em=em),
                           partial(psi_e_2cell, src_em=em, dst_em=em), MndTwoCell)
        cells = mnd_compose(cell, cell), cell, mnd_identity_cell(cell.src)
    else:
        act1, act2, two = psi_k_1cell, psi_k_2cell, MndBulletTwoCell
        cells = bullet_compose(cell, cell), cell, bullet_identity_cell(cell.src)
    # each cell with its image, so that one shape lookup gives both ends
    twice, once, none = ((c, act1(c)) for c in cells)
    images = [once[1].K]
    for nat, ((source, asource), (target, atarget)) in zip(
            (below.mult, below.unit), below.ends(twice, once, none)):
        t = two(source, target, nat)
        images.append(act2(t, src_acell=asource, dst_acell=atarget).beta)
    return tuple(images)


def lift_monad(dl: DistributiveLaw, em: EmAlgebraCategory = None) -> LiftedMonad:
    """Lift T to the algebras of S along a valid law phi: ST → TS.

    That is the psi_E image of the 1-cell (T, phi); mu_hat and eta_hat are
    the psi_E images of mu^T and eta^T as 2-cells. ``em``, kept for callers
    that pass it, must be the algebra category of S.
    """
    dl.require_valid()
    em = em if em is not None else em_category(dl.S)
    cell = MndOneCell(dl.S, dl.S, dl.T.S, dl.phi)
    return LiftedMonad(dl.S, em, dl.T, *_lift_structure(cell, dl.T, em))


def extract_dist_law(lm: LiftedMonad) -> DistributiveLaw:
    """Recover phi = U lambda_T from a lifting, where lambda_T is the mate
    of the lifting square: phi = (U epsilon That F) ∘ (U F T eta)."""
    return DistributiveLaw(lm.base, lm.below, _lifting_mate(lm)).require_valid()


def extend_monad(dl: DistributiveLaw, kl: KleisliCategory = None) -> KleisliExtension:
    """Extend S to the Kleisli category of T along a valid law.

    Stilde is the psi_K image of the Mnd• 1-cell (S, phi); mu_tilde and
    eta_tilde are the psi_K images of mu^S and eta^S as 2-cells. ``kl``,
    kept for callers that pass it, must be the Kleisli category of T.
    """
    dl.require_valid()
    kl = kl if kl is not None else kleisli_category(dl.T)
    cell = MndBulletOneCell(dl.T, dl.T, dl.S.S, dl.phi)
    return KleisliExtension(dl.S, dl.T, kl, *_lift_structure(cell, dl.S))


def extract_from_extension(ke: KleisliExtension) -> DistributiveLaw:
    """Recover phi = rho_S D from an extension, where rho_S is the mate of
    the extension square."""
    rho = AdjLOneCell(ke.kl.adj, ke.kl.adj, ke.base_s.S, ke.stilde).mate
    phi = whisker_right(rho, ke.kl.D)
    return DistributiveLaw(ke.base_s, ke.base_t, phi).require_valid()


def check_joint_compatibility(lm: LiftedMonad, ke: KleisliExtension) -> bool:
    """U lambda_T = rho_S D: the two recovered laws agree pointwise."""
    if lm.base != ke.base_s or lm.below != ke.base_t:
        raise BaseMismatch("lifting and extension are over different monads")
    phi_em = extract_dist_law(lm).phi
    phi_kl = extract_from_extension(ke).phi
    return phi_em.components == phi_kl.components


def lift_comonad(ml: MixedDistributiveLaw) -> LiftedComonad:
    """Lift G to the algebras of S along a valid mixed law psi: SG → GS."""
    ml.require_valid()
    em = em_category(ml.S)
    return LiftedComonad(ml.S, em, ml.G, *_comonad_lifting(ml, em))


def _comonad_lifting(ml: MixedDistributiveLaw, em: EmAlgebraCategory) -> tuple:
    """(Ghat, delta_hat, eps_hat) for a valid mixed law: the psi_E images of
    the 1-cell (G, psi) and of delta^G and epsilon^G as 2-cells."""
    return _lift_structure(MndOneCell(ml.S, ml.S, ml.G.G, ml.psi), ml.G, em)


def colift_monad(ml: MixedDistributiveLaw) -> CoalgebraLifting:
    """Lift S to the coalgebras of G along a valid mixed law: the comonad
    lifting of S^op to the algebras of G^op along psi read on the opposite
    category (a mixed law from G^op to S^op), read back."""
    ml.require_valid()
    co = em_coalgebra_category(ml.G)
    # valid, since its axioms are those of ml read on the opposite category
    op_law = MixedDistributiveLaw(monad_on_opposite(ml.G),
                                  comonad_on_opposite(ml.S), opposite_nat(ml.psi))
    ghat, delta_hat, eps_hat = _comonad_lifting(op_law, co.on_opposite)
    return CoalgebraLifting(ml.G, co, ml.S, opposite_functor(ghat),
                            opposite_nat(delta_hat), opposite_nat(eps_hat))


def _lifting_mate(lifted) -> NatTrans:
    """U lambda, lambda the mate of the square of a lifting; unchecked."""
    cell = AdjROneCell(lifted.em.adj, lifted.em.adj, lifted.below.endo, lifted.endo)
    return whisker_left(lifted.em.U, cell.mate)


def extract_mixed_from_lifting(lc: LiftedComonad) -> MixedDistributiveLaw:
    """Recover psi = U lambda_G from a comonad lifting to algebras."""
    return MixedDistributiveLaw(lc.base, lc.below,
                                _lifting_mate(lc)).require_valid()


def extract_mixed_from_colifting(cl: CoalgebraLifting) -> MixedDistributiveLaw:
    """Recover psi = U rho_S from a monad lifting to coalgebras, where rho_S
    is the mate of the lifting square: psi = (U F S epsilon) ∘ (U eta Shat F)."""
    rho = AdjLOneCell(cl.co.adj, cl.co.adj, cl.shat, cl.below.S).mate
    return MixedDistributiveLaw(cl.below, cl.base,
                                whisker_left(cl.co.U, rho)).require_valid()


def check_mixed_compatibility(lc: LiftedComonad, cl: CoalgebraLifting) -> bool:
    """U lambda_G = U rho_S: the two recovered mixed laws agree pointwise."""
    if lc.base != cl.below or lc.below != cl.base:
        raise BaseMismatch("liftings are over different monad/comonad pairs")
    psi_em = extract_mixed_from_lifting(lc).psi
    psi_co = extract_mixed_from_colifting(cl).psi
    return psi_em.components == psi_co.components


# ---------------------------------------------------------------------------
# Monad objects


class MonadObjectInMnd:
    """A candidate monad object: an endo 1-cell (T, phi) on (C, S) together
    with mu^T and eta^T as would-be 2-cells. Typing is enforced; the laws
    are reported by :func:`check_monad_object`."""

    __slots__ = ("base", "cell", "mu", "eta")

    def __init__(self, base: Monad, cell: MndOneCell, mu: NatTrans, eta: NatTrans):
        if cell.src != base or cell.dst != base:
            raise TypeMismatch("cell must be an endo 1-cell on the base monad")
        Monad.require_typed(base.base, cell.P, (mu, eta),
                            ("mu must be typed P∘P -> P",
                             "eta must be typed Id -> P"))
        self.base = base
        self.cell = cell
        self.mu = mu
        self.eta = eta


def _retag(violations, mapping):
    out = []
    for v in violations:
        tag = mapping.get(v.tag, v.tag)
        out.append(Violation(v.kind, tag, where=v.where, lhs=v.lhs, rhs=v.rhs,
                             detail=v.detail))
    return out


def check_monad_object(mo: MonadObjectInMnd) -> list:
    """Report the 1-cell laws for (T, phi), the 2-cell laws for mu^T and
    eta^T, and the monad laws of (T, mu^T, eta^T)."""
    out = []
    out.extend(_retag(mo.cell.check(),
                      {"law-mnd-1cell-mul": "Eq-1510071248-i",
                       "law-mnd-1cell-unit": "Eq-1510071248-ii"}))
    comp_cell = mnd_compose(mo.cell, mo.cell)
    mu2 = MndTwoCell(comp_cell, mo.cell, mo.mu)
    out.extend(_retag(mu2.check(), {"law-mnd-2cell": "Eq-1510071249-i"}))
    eta2 = MndTwoCell(mnd_identity_cell(mo.base), mo.cell, mo.eta)
    out.extend(_retag(eta2.check(), {"law-mnd-2cell": "Eq-1510071249-ii"}))
    out.extend(Monad(mo.base.base, mo.cell.P, mo.mu, mo.eta).check())
    return out


# ---------------------------------------------------------------------------
# Enumeration of liftings


def enumerate_liftings(S: Monad, T: Monad, cap: int = DEFAULT_CAP,
                       jobs: int = 1) -> list:
    """All monad liftings of T to the algebras of S, canonically ordered.

    The search space is one algebra structure on T(N) per algebra (N, chi);
    morphism images and the components of mu_hat/eta_hat are forced by the
    base structure, then everything is law-checked from scratch. ``jobs``
    has no effect.
    """
    return _enumerate_liftings(S, T, LiftedMonad, cap)


def enumerate_comonad_liftings(S: Monad, G: Comonad, cap: int = DEFAULT_CAP,
                               jobs: int = 1) -> list:
    """All comonad liftings of G to the algebras of S; dual search.
    ``jobs`` has no effect."""
    return _enumerate_liftings(S, G, LiftedComonad, cap)


def _enumerate_liftings(S: Monad, below, kind, cap: int) -> list:
    """Every lifting of class ``kind`` (LiftedMonad or LiftedComonad) of
    ``below``, with endofunctor E, to the algebras of S, after checking
    both structures and raising the kind's FOREIGN_BASE if their bases
    differ: each lift of E to the algebras is built into one by
    :func:`_assemble_lifting`. ``cap`` bounds the lift search; the
    algebra category is read under the default cap."""
    S.require_valid()
    below.require_valid()
    if S.base != below.base:
        raise BaseMismatch(kind.FOREIGN_BASE)
    em = em_category(S)
    return sorted((_assemble_lifting(kind, S, below, em, K)
                   for K in _lifts(em, below.endo, _Budget(cap))),
                  key=lambda lifting: lifting.canonical_key())


def _lifts(em: EmAlgebraCategory, J: Functor, budget: _Budget) -> list:
    """Every endofunctor K of the algebras with U K = J U, in the order of
    its object map. U is faithful, so K is fixed by sending each algebra
    to some algebra over J of its carrier, and ``budget`` counts those
    choices as the search tries them. On a finite category U is also full
    and injective on objects, so each choice is built into a lift, and a
    choice that is not one raises."""
    algebras = em.category.objects
    domains = [em.algebras_with_carrier(J.ob(em.carrier(a))) for a in algebras]
    if not all(domains):
        return []
    return [em.functor_over(em.category, dict(zip(algebras, assign)),
                            lambda m: J.mor(em.underlying(m)))
            for assign in _backtrack(domains, [()] * len(domains), budget)]


def _assemble_lifting(kind, S: Monad, below, em: EmAlgebraCategory,
                      endo: Functor):
    """The law-checked ``kind`` lifting ``below`` along ``endo``, its maps
    those of ``below`` read over the algebras in the shape of its UPSTAIRS;
    a component that is not an algebra morphism makes ``NatTrans`` raise
    ComponentMistyped, and a failing law makes ``kind`` raise."""
    maps = [em.nat_over(source, target, lambda a, nat=nat: nat.at(em.carrier(a)))
            for nat, (source, target) in zip(
                (below.mult, below.unit),
                kind.UPSTAIRS.functor_ends(em.category, endo))]
    return kind(S, em, below, endo, *maps)


# ---------------------------------------------------------------------------
# Round trips over all laws of a pair


def law_round_trips(S: Monad, T: Monad, cap: int = DEFAULT_CAP) -> dict:
    """The numbers of laws from S to T and of liftings, and the flags of
    their round trips, each law lifted and extended once. ``pointwise`` is
    the poset criterion S(T(x)) <= T(S(x)) for all x, None off posets."""
    laws = enumerate_dist_laws(S, T, cap=cap)
    # applies ``cap`` to the algebra estimate; later reads return the same category
    em_category(S, cap=cap)
    lifts = enumerate_liftings(S, T, cap=cap)
    lifted = [lift_monad(dl) for dl in laws]
    extended = [extend_monad(dl) for dl in laws]
    C = S.base
    return {"laws": len(laws), "liftings": len(lifts),
            "extract_after_lift": all(extract_dist_law(lm) == dl
                                      for lm, dl in zip(lifted, laws)),
            "lift_after_extract": all(lift_monad(extract_dist_law(lm)) == lm
                                      for lm in lifts),
            "extension_roundtrip": all(extract_from_extension(ke) == dl
                                       for ke, dl in zip(extended, laws)),
            "joint_compatibility": all(check_joint_compatibility(lm, ke)
                                       for lm, ke in zip(lifted, extended)),
            "pointwise": (all(C.le(S.S.ob(T.S.ob(x)), T.S.ob(S.S.ob(x)))
                              for x in C.objects) if C.is_thin() else None)}


def mixed_round_trips(S: Monad, G: Comonad, cap: int = DEFAULT_CAP) -> dict:
    """The numbers of mixed laws from S to G and of comonad liftings, and
    the flags of their round trips, each law lifted and colifted once."""
    laws = enumerate_mixed_laws(S, G, cap=cap)
    # apply ``cap`` to both estimates; later reads return the same categories
    em_category(S, cap=cap)
    lifts = enumerate_comonad_liftings(S, G, cap=cap)
    em_coalgebra_category(G, cap=cap)
    round_trips = compatible = True
    for ml in laws:
        lc = lift_comonad(ml)
        cl = colift_monad(ml)
        if (extract_mixed_from_lifting(lc) != ml
                or extract_mixed_from_colifting(cl) != ml):
            round_trips = False
        if not check_mixed_compatibility(lc, cl):
            compatible = False
    return {"laws": len(laws), "liftings": len(lifts),
            "mixed_roundtrips": round_trips, "compatibility": compatible}


# ---------------------------------------------------------------------------
# Hom-category enumeration and the hom-isomorphism round trip


def enumerate_mnd_endocells(m: Monad, cap: int = DEFAULT_CAP) -> list:
    """All Mnd 1-cells (P, phi): (C,S) → (C,S), canonically ordered."""
    cells = []
    for P in enumerate_functors(m.base, m.base, cap=cap):
        src = compose_functors(m.S, P)
        tgt = compose_functors(P, m.S)
        for phi in enumerate_nat_trans(src, tgt, cap=cap):
            cell = MndOneCell(m, m, P, phi)
            if not cell.check():
                cells.append(cell)
    cells.sort(key=lambda c: c.canonical_key())
    return cells


def enumerate_adjr_endocells(em: EmAlgebraCategory,
                             cap: int = DEFAULT_CAP) -> list:
    """All AdjR 1-cells from the algebra adjunction to itself, canonically
    ordered: for each endofunctor J of the base, each lift K of J along U
    (:func:`_lifts`, one budget of ``cap`` over all J), checked again as
    the square (J, K).
    """
    C = em.monad.base
    budget = _Budget(cap)
    cells = [AdjROneCell(em.adj, em.adj, J, K)
             for J in enumerate_functors(C, C, cap=cap)
             for K in _lifts(em, J, budget)]
    cells.sort(key=lambda c: c.canonical_key())
    return cells


def enumerate_mnd_two_cells(src_cell: MndOneCell, dst_cell: MndOneCell,
                            cap: int = DEFAULT_CAP) -> list:
    """All Mnd 2-cells theta between the two 1-cells, in the order of
    :func:`enumerate_nat_trans` on theta."""
    if src_cell.src != dst_cell.src or src_cell.dst != dst_cell.dst:
        raise TypeMismatch("2-cell between non-parallel 1-cells")
    return _mnd_two_cells(src_cell, dst_cell,
                          enumerate_nat_trans(src_cell.P, dst_cell.P, cap=cap))


def _mnd_two_cells(src_cell: MndOneCell, dst_cell: MndOneCell, thetas) -> list:
    """The Mnd 2-cells among ``thetas``, the transformations P → Q."""
    out = []
    for theta in thetas:
        t = MndTwoCell(src_cell, dst_cell, theta)
        if not t.check():
            out.append(t)
    return out


def enumerate_adjr_two_cells(src_cell: AdjROneCell, dst_cell: AdjROneCell,
                             cap: int = DEFAULT_CAP) -> list:
    """All AdjR 2-cells (alpha, beta) between the two 1-cells, in the order
    of :func:`enumerate_nat_trans` on alpha, then on beta.

    Condition (b), R̄ beta = alpha R, fixes the image under R̄ of each
    component of beta, so for each alpha only the components lying over
    alpha R are tried; R̄ is faithful for an algebra adjunction, which
    leaves at most one beta. A candidate is kept if it is natural and the
    AdjRTwoCell constructor accepts it, which checks (a) and (b).
    """
    if src_cell.dom != dst_cell.dom or src_cell.cod != dst_cell.cod:
        raise TypeMismatch("2-cell between non-parallel 1-cells")
    return _adjr_two_cells(src_cell, dst_cell,
                           enumerate_nat_trans(src_cell.J, dst_cell.J, cap=cap))


def _adjr_two_cells(src_cell: AdjROneCell, dst_cell: AdjROneCell, alphas) -> list:
    """The AdjR 2-cells between two parallel 1-cells whose alpha is one of
    ``alphas``, the transformations J → J'. Each beta is drawn from the
    hom-sets of K → K', so it is built unchecked."""
    if not alphas:
        return []
    R, Rbar, upper = src_cell.dom.R, src_cell.cod.R, src_cell.cod.upper
    K, K2 = src_cell.K, dst_cell.K
    objs = src_cell.dom.upper.objects
    over = []  # per object A, hom(K A, K' A) grouped by image under R̄
    for a in objs:
        by_image = {}
        for g in upper.hom(K.ob(a), K2.ob(a)):
            by_image.setdefault(Rbar.mor(g), []).append(g)
        over.append(by_image)
    out = []
    for alpha in alphas:
        choices = [by_image.get(alpha.at(R.ob(a)), ())
                   for a, by_image in zip(objs, over)]
        for combo in product(*choices):
            beta = NatTrans._typed(K, K2, dict(zip(objs, combo)))
            if check_naturality(beta):
                continue
            try:
                out.append(AdjRTwoCell(src_cell, dst_cell, alpha, beta))
            except TwoCellLawViolation:
                pass
    return out


def adjr_two_cell_agreement(cells, cap: int = DEFAULT_CAP) -> dict:
    """Over all ordered pairs of 1-cells and all candidate natural
    transformation pairs (alpha, beta), count how often conditions (a) and
    (b) agree. The two conditions are equivalent, so agreement must be
    total; any disagreement is returned for inspection."""
    checked = agree = 0
    disagreements = []
    for c in cells:
        for c2 in cells:
            for alpha in enumerate_nat_trans(c.J, c2.J, cap=cap):
                for beta in enumerate_nat_trans(c.K, c2.K, cap=cap):
                    cond_a, cond_b = adjr_two_cell_conditions(c, c2, alpha, beta)
                    checked += 1
                    if cond_a == cond_b:
                        agree += 1
                    elif len(disagreements) < 3:
                        disagreements.append({
                            "alpha": dict(sorted(alpha.components.items())),
                            "beta": dict(sorted(beta.components.items())),
                        })
    return {"checked": checked, "agree": agree, "disagreements": disagreements}


# One side of the hom-isomorphism: its endo 1-cells; their 2-cells by
# ordered pair of positions, every pair present; map1 and map2, the 1-cell
# and 2-cell actions into the other side, map2(t, src_image, dst_image)
# taking the images of t's ends; key1 and key2, hashable keys that decide
# equality among the side's 1-cells and among the 2-cells of one pair;
# compose_key(c, c2), the key of a 1-cell composite computed from the
# factors' images and components, building no composite; vcomp_key(k,
# k2), the key of the vertical composite of the 2-cells keyed k and k2;
# and identity_key(c), the key of the identity 2-cell on c. A 2-cell key
# holds the indices of its components' morphisms, so a vertical composite
# is keyed by table lookups.
_Side = namedtuple("_Side", "cells two map1 map2 key1 key2 compose_key "
                   "vcomp_key identity_key")

# What one direction of the hom-isomorphism verifies.
_Flags = namedtuple("_Flags", "lands back two identities vcomp compose")


class _Found:
    """A side's cells found by key, and, once :meth:`map_into` has run,
    where its images land among the other side's cells.

    2-cells are numbered across pairs in the order of ``side.two``; ends[g]
    is the pair of 2-cell g and out[j] lists the 2-cells out of 1-cell j,
    g being out_at[g]-th in its list. at1 maps each 1-cell key, and at2
    each 2-cell key with the pair it lies over, to the first cell with
    it; the enumerated cells are distinct, so that is the cell itself.
    comp1[i][j], ident[i] and vcomp[g][q] are the positions of the
    composite of 1-cells i and j, of the identity 2-cell on i and of the
    composite of g and the q-th 2-cell out of its end, each None if it is
    none of the cells."""

    def __init__(self, side: _Side):
        self.side = side
        self.at1 = {}
        for p, c in enumerate(side.cells):
            self.at1.setdefault(side.key1(c), p)
        self.comp1 = [[self.at1.get(side.compose_key(c, c2)) for c2 in side.cells]
                      for c in side.cells]
        self.cells2, self.ends, keys2, self.at2 = [], [], [], {}
        for (i, j), row in side.two.items():
            for t in row:
                k = side.key2(t)
                self.at2.setdefault((i, j, k), len(self.cells2))
                self.cells2.append(t)
                self.ends.append((i, j))
                keys2.append(k)
        self.out, self.out_at = [[] for _ in side.cells], []
        for g, (i, _) in enumerate(self.ends):
            self.out_at.append(len(self.out[i]))
            self.out[i].append(g)
        self.ident = [self.at2.get((i, i, side.identity_key(c)))
                      for i, c in enumerate(side.cells)]
        key, ends, at2 = side.vcomp_key, self.ends, self.at2
        self.vcomp = [[at2.get((i, ends[g][1], key(k, keys2[g]))) for g in self.out[j]]
                      for k, (i, j) in zip(keys2, ends)]

    def map_into(self, o: _Found) -> None:
        """Map each cell into the other side ``o`` once; land1 and land2
        hold where each image lands among o's cells, None if it is none
        of them or, for a 2-cell, if its image raised ComponentMistyped or
        TwoCellLawViolation, as building a 2-cell that is none does."""
        side, other = self.side, o.side
        images1 = [side.map1(c) for c in side.cells]
        self.land1 = land1 = [o.at1.get(other.key1(m)) for m in images1]

        def land2(t, i, j):
            try:
                m = side.map2(t, images1[i], images1[j])
            except (ComponentMistyped, TwoCellLawViolation):
                return None
            return o.at2.get((land1[i], land1[j], other.key2(m)))

        self.land2 = [land2(t, i, j) for t, (i, j) in zip(self.cells2, self.ends)]

    def flags(self, o: _Found) -> _Flags:
        """Check this direction against the other side ``o``, both mapped,
        by position alone. A cell comes back when o's image of its image
        is the cell itself; a composite or identity is preserved when its
        image lands at o's composite or identity of the images. A cell,
        image, composite or identity that is none of the enumerated cells
        fails every check that reads it."""
        land1, land2 = self.land1, self.land2

        def lands_at(land, p, r):
            return p is not None and r is not None and land[p] == r

        def vcomp_preserved():
            o_vcomp, o_out_at = o.vcomp, o.out_at
            for g, (_, j) in enumerate(self.ends):
                h = land2[g]
                for g2, p in zip(self.out[j], self.vcomp[g]):
                    h2 = land2[g2]
                    if h is None or h2 is None:
                        return False
                    r = o_vcomp[h][o_out_at[h2]]
                    if p is None or r is None or land2[p] != r:
                        return False
            return True

        # a 1-cell whose image lands nowhere fails back, its identity and
        # its composites, so those checks need every 1-cell to land
        lands = None not in land1
        landed = list(enumerate(land1))
        return _Flags(
            lands=lands,
            back=lands and all(o.land1[x] == i for i, x in landed),
            two=all(h is not None and o.land2[h] == g for g, h in enumerate(land2)),
            identities=lands and all(lands_at(land2, self.ident[i], o.ident[x])
                                     for i, x in landed),
            vcomp=vcomp_preserved(),
            compose=lands and all(lands_at(land1, self.comp1[i][j], o.comp1[x][y])
                                  for i, x in landed for j, y in landed))


def _map_sides(a: _Side, b: _Side) -> tuple:
    """Map each 1-cell and each 2-cell of ``a`` into ``b`` once and each of
    ``b`` into ``a`` once, and check both directions: that the images of
    the 1-cells are 1-cells of the other side, that 1-cells and 2-cells
    come back to themselves, and that identities, vertical composites and
    1-cell composites are preserved. Returns the two :data:`_Flags`
    records, a into b first.

    Every check is decided by position among the enumerated cells, which
    must form a category: closed under identities, vertical composites
    and 1-cell composites. Each side's composites and identities are
    found once, by the keys computed from their components, and both
    directions read them. A cell, image, composite or identity that is
    none of the cells fails every check that reads it; nothing is mapped
    back and no composite is built."""
    found_a, found_b = _Found(a), _Found(b)
    found_a.map_into(found_b)
    found_b.map_into(found_a)
    return found_a.flags(found_b), found_b.flags(found_a)


def _index_keys(D) -> tuple:
    """For transformations into ``D``: the key of one from its components,
    the key of the vertical composite of two keyed ones, and the key of
    the identity on a functor, each the tuple of its components' morphism
    indices in base-object order."""
    index, table = D._index, D._table
    ident = {x: index[f] for x, f in D.identities.items()}
    return (lambda components: tuple(map(index.__getitem__, components.values())),
            lambda k, k2: tuple(map(list.__getitem__, map(table.__getitem__, k), k2)),
            lambda F: tuple(map(ident.__getitem__, F.object_map.values())))


def _hom_iso_sides(S: Monad, cap: int = DEFAULT_CAP) -> tuple:
    """The two sides of the hom-isomorphism, as :data:`_Side` records: the
    Mnd side at (C, S), mapped by psi_E, and the AdjR side at the algebra
    adjunction of S, mapped by phi_E."""
    # em_category checks that the algebra adjunction induces S on the nose,
    # so S stands for that induced monad at both ends of every phi_E image.
    em = em_category(S)
    mnd_cells = enumerate_mnd_endocells(S, cap=cap)
    adjr_cells = enumerate_adjr_endocells(em, cap=cap)
    C, A, values = S.base, em.category, lambda d: tuple(d.values())
    hom = C.index_hom()  # keyed by the inhabited hom-sets only
    found = {}

    def transformations(F, G):
        """enumerate_nat_trans(F, G), searched once per call: the Mnd
        side's P and the AdjR side's J are the same interned endofunctors,
        which the cells keep alive. A pair with an empty hom(F x, G x) has
        none and is not searched."""
        key = (id(F), id(G))
        ts = found.get(key)
        if ts is None:
            inhabited = all(map(hom.__contains__, zip(F.object_map.values(),
                                                      G.object_map.values())))
            ts = found[key] = enumerate_nat_trans(F, G, cap=cap) if inhabited else []
        return ts

    def two_cells(cells, functor, two):
        out = {}
        for i, c in enumerate(cells):
            for j, c2 in enumerate(cells):
                ts = transformations(functor(c), functor(c2))
                out[i, j] = two(c, c2, ts) if ts else []
        return out

    # The functors of a side's 1-cells are all endofunctors of one
    # category, C or A, so their images key them, and a composite is
    # keyed by reading its factors' images: no composite is built.
    def image_key(F, G):
        """The canonical key of F∘G, from the images of F and G."""
        return (tuple(map(F.object_map.__getitem__, G._key[0])),
                tuple(map(F.morphism_map.__getitem__, G._key[1])))

    # A transformation's components in base-object order, the order in
    # which every NatTrans and every fincat pasting lists them, key it.
    key_c, vcomp_c, identity_c = _index_keys(C)
    key_a, vcomp_a, identity_a = _index_keys(A)
    mnd = _Side(
        mnd_cells, two_cells(mnd_cells, lambda c: c.P, _mnd_two_cells),
        lambda c: psi_e_1cell(c, em, em),
        lambda t, src, dst: psi_e_2cell(t, em, em, src, dst),
        key1=lambda c: (c.P._key, values(c.phi.components)),
        key2=lambda t: key_c(t.theta.components),
        compose_key=lambda c, c2: (image_key(c.P, c2.P),
                                   values(_mnd_composite_phi(c, c2))),
        vcomp_key=vcomp_c,
        identity_key=lambda c: identity_c(c.P))
    adjr = _Side(
        adjr_cells, two_cells(adjr_cells, lambda c: c.J, _adjr_two_cells),
        lambda c: phi_e_1cell(c, S, S), phi_e_2cell,
        key1=lambda c: (c.J._key, c.K._key),
        key2=lambda t: (key_c(t.alpha.components), key_a(t.beta.components)),
        compose_key=lambda c, c2: (image_key(c.J, c2.J), image_key(c.K, c2.K)),
        vcomp_key=lambda k, k2: (vcomp_c(k[0], k2[0]), vcomp_a(k[1], k2[1])),
        identity_key=lambda c: (identity_c(c.J), identity_a(c.K)))
    return mnd, adjr


def hom_iso_roundtrip(S: Monad, cap: int = DEFAULT_CAP, jobs: int = 1) -> list:
    """Verify that phi_E and psi_E restrict to mutually inverse functors
    between the endo hom-category at the algebra adjunction of S and the
    endo hom-category at (C, S), and that both directions are functorial.

    :func:`_map_sides` maps both sides in one pass and checks both
    directions by position among the enumerated cells. Each cell is
    mapped once, and each composite and identity is found among the cells
    by a key computed from its components; no composite is built. The
    cells of a hom-category are closed under identities and both
    composites, so one that is none of them fails its check. Every image
    is law-checked as it is built: phi_E raises on an image that breaks a
    law, so an image it returns lies in the Mnd hom-category as soon as
    it is one of the enumerated cells, and a composite found among the
    cells was law-checked when it was enumerated.

    Returns report entries; every entry passing is the verified
    isomorphism of hom-categories. ``jobs`` has no effect.
    """
    mnd, adjr = _hom_iso_sides(S, cap)
    to_mnd, to_adjr = _map_sides(adjr, mnd)
    n_mnd2 = sum(len(v) for v in mnd.two.values())
    n_adjr2 = sum(len(v) for v in adjr.two.values())

    def homiso(check, ok, **kw):
        return entry("homiso/" + check, "Eq-1510071407", ok, **kw)

    return [
        homiso("object-count", len(mnd.cells) == len(adjr.cells),
               witness={"mnd": len(mnd.cells), "adjr": len(adjr.cells)}),
        homiso("phiE-lands-in-mnd", to_mnd.lands),
        homiso("psiE-after-phiE-is-identity", to_mnd.back),
        homiso("psiE-lands-in-adjr", to_adjr.lands),
        homiso("phiE-after-psiE-is-identity", to_adjr.back,
               detail="realizes the recovery phi = U lambda"),
        homiso("two-cell-count", n_mnd2 == n_adjr2,
               witness={"mnd": n_mnd2, "adjr": n_adjr2}),
        homiso("two-cell-roundtrip-adjr", to_mnd.two),
        homiso("two-cell-roundtrip-mnd", to_adjr.two),
        homiso("identities-preserved", to_mnd.identities and to_adjr.identities),
        homiso("vcomp-preserved", to_mnd.vcomp and to_adjr.vcomp),
        homiso("one-cell-composition-preserved",
               to_mnd.compose and to_adjr.compose),
    ]
