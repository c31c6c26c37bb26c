"""Distributive laws phi: S∘T → T∘S between monads and mixed distributive
laws psi: S∘G → G∘S from a monad to a comonad: representation, the four
axiom diagrams, and exhaustive enumeration.

On a poset category a law from S to T exists iff S(T(x)) <= T(S(x)) for
every x, and is then unique; the enumerators agree with that criterion but
do not rely on it. Untypable situations (an empty hom-set at some object)
are classified separately from axiom failures. Each law check hands its
axiom table and their sides to :func:`~finmonad.monad._law_violations`.
"""

from __future__ import annotations

from .errors import BaseMismatch, TypeMismatch, UnTypableComponent
from .fincat import (
    DEFAULT_CAP,
    Functor,
    NatTrans,
    compose_functors,
    enumerate_nat_trans,
    opposite_functor,
    vcomp_at,
    whisker_left_at,
    whisker_right_at,
)
from .monad import Comonad, Monad, _Checked, _law_violations, monad_on_opposite


class _Law(_Checked):
    """A candidate law S∘E → E∘S over one base category, built as
    ``Kind(S, second, nat)`` for a monad S and a structure ``second`` on E.
    Each kind names ``second`` and ``nat`` (SECOND, NAT) in the typing
    messages, gives the message BASES and supplies :meth:`check`."""

    __slots__ = ("S", "second", "nat")
    EQUAL = __slots__
    KEY = ("nat",)

    def __init__(self, S: Monad, second, nat: NatTrans):
        if S.base != second.base:
            raise BaseMismatch(self.BASES)
        _check_typing(S, second.endo, nat, self.NAT, self.SECOND)
        self.S = S
        self.second = second
        self.nat = nat

    def __repr__(self):
        return f"{type(self).__name__}({self.nat.components})"


class DistributiveLaw(_Law):
    """A candidate law phi: S∘T → T∘S over one base category;
    :func:`check_dist_law` reports on the four axiom diagrams."""

    __slots__ = ()
    T = _Law.second
    phi = _Law.nat
    CONTEXT = "distributive law"
    SECOND, NAT = "T", "phi"
    BASES = "monads live on different bases"

    def check(self) -> list:
        return check_dist_law(self.S, self.T, self.phi)


class MixedDistributiveLaw(_Law):
    """A candidate mixed law psi: S∘G → G∘S for a monad S and comonad G."""

    __slots__ = ()
    G = _Law.second
    psi = _Law.nat
    CONTEXT = "mixed distributive law"
    SECOND, NAT = "G", "psi"
    BASES = "monad and comonad live on different bases"

    def check(self) -> list:
        return check_mixed_law(self.S, self.G, self.psi)


def _check_typing(S: Monad, E: Functor, nat: NatTrans, name: str,
                  second: str) -> None:
    """Raise TypeMismatch unless ``nat`` is typed S∘E → E∘S for an
    endofunctor E on the base of S; ``name`` and ``second`` name nat and E
    in the message."""
    if E.source != S.base or E.target != S.base:
        raise TypeMismatch(f"{second} must be an endofunctor on the base of S")
    if nat.source != compose_functors(S.S, E):
        raise TypeMismatch(f"{name} source must be S∘{second}")
    if nat.target != compose_functors(E, S.S):
        raise TypeMismatch(f"{name} target must be {second}∘S")


# ---------------------------------------------------------------------------
# Cell laws
#
# A law phi: S∘T → T∘S is the Mnd 1-cell (T, phi) on S and the Mnd• 1-cell
# (S, phi) on T, and a mixed law psi: S∘G → G∘S is the Mnd 1-cell (G, psi)
# on S and the CoMnd 1-cell (S, psi) on G (Street 1972): its four axioms
# are the laws of those two cells. Each function below gives both sides of
# the two laws of a 1-cell (P, nat): src → dst, as listed in the cell
# dictionary of :mod:`twofunctors`, from the components of nat. A CoMnd
# 1-cell's laws are those of its opposite Mnd 1-cell, sides swapped.


def mnd_cell_sides(src: Monad, dst: Monad, P: Functor, phi: dict) -> tuple:
    """For phi: T∘P → P∘S, T the monad of dst and S that of src."""
    D, Sf, Tf = dst.base, src.S, dst.S
    return ((vcomp_at(D, whisker_left_at(Tf, phi),
                      vcomp_at(D, whisker_right_at(phi, Sf),
                               whisker_left_at(P, src.mu.components))),
             vcomp_at(D, whisker_right_at(dst.mu.components, P), phi)),
            (whisker_left_at(P, src.eta.components),
             vcomp_at(D, whisker_right_at(dst.eta.components, P), phi)))


def bullet_cell_sides(src: Monad, dst: Monad, P: Functor, psi: dict) -> tuple:
    """For psi: P∘S → T∘P."""
    D, Sf, Tf = dst.base, src.S, dst.S
    return ((vcomp_at(D, whisker_right_at(psi, Sf),
                      vcomp_at(D, whisker_left_at(Tf, psi),
                               whisker_right_at(dst.mu.components, P))),
             vcomp_at(D, whisker_left_at(P, src.mu.components), psi)),
            (whisker_right_at(dst.eta.components, P),
             vcomp_at(D, whisker_left_at(P, src.eta.components), psi)))


# Per axiom, in report order: its kind and its tag. The paper writes each
# axiom with the two sides of its cell law swapped.
_DIST_AXIOMS = (("MultiplicationSquareS", "Eq-1510071248-i"),
                ("UnitTriangleS", "Eq-1510071248-ii"),
                ("MultiplicationSquareT", "Eq-1510071249-i"),
                ("UnitTriangleT", "Eq-1510071249-ii"))
_MIXED_AXIOMS = (("MultiplicationSquare", "Eq-1510081240-i"),
                 ("UnitTriangle", "Eq-1510081240-ii"),
                 ("ComultiplicationSquare", "Eq-1510081242-i"),
                 ("CounitTriangle", "Eq-1510081242-ii"))


def check_dist_law(S: Monad, T: Monad, phi: NatTrans) -> list:
    """Name each of the four axioms with pass/fail and the first failing object.

    phi must be typed S∘T → T∘S (TypeMismatch otherwise). Naturality of
    phi is checked first; a non-natural candidate is not a distributive
    law regardless of the diagrams, which are the laws of the Mnd 1-cell
    (T, phi) on S and of the Mnd• 1-cell (S, phi) on T.
    """
    _check_typing(S, T.S, phi, "phi", "T")
    p = phi.components
    sides = mnd_cell_sides(S, S, T.S, p) + bullet_cell_sides(T, T, S.S, p)
    return _law_violations((("LawNotNatural", phi),), _DIST_AXIOMS,
                           [(lhs, rhs) for rhs, lhs in sides])


def check_mixed_law(S: Monad, G: Comonad, psi: NatTrans) -> list:
    """Six reported instances: naturality plus the four mixed axioms, the
    laws of the Mnd 1-cell (G, psi) on S and of the CoMnd 1-cell (S, psi)
    on G, read as the Mnd 1-cell (S^op, psi^op) on the monad of G^op. psi
    must be typed S∘G → G∘S (TypeMismatch otherwise)."""
    _check_typing(S, G.G, psi, "psi", "G")
    p = psi.components
    Gop = monad_on_opposite(G)
    sides = (mnd_cell_sides(S, S, G.G, p)
             + mnd_cell_sides(Gop, Gop, opposite_functor(S.S), p))
    return _law_violations((("LawNotNatural", psi),), _MIXED_AXIOMS,
                           [(lhs, rhs) for rhs, lhs in sides])


# ---------------------------------------------------------------------------
# Typability


def untypable_objects(S: Monad, T) -> list:
    """Objects where no candidate component exists (empty hom-set)."""
    cat = S.base
    out = []
    for x in cat.objects:
        st = S.S.ob(T.endo.ob(x))
        ts = T.endo.ob(S.S.ob(x))
        if not cat.hom(st, ts):
            out.append(x)
    return out


def require_typable(S: Monad, T) -> None:
    bad = untypable_objects(S, T)
    if bad:
        x = bad[0]
        raise UnTypableComponent(
            x, f"hom({S.S.ob(T.endo.ob(x))},{T.endo.ob(S.S.ob(x))}) is empty")


# ---------------------------------------------------------------------------
# Enumeration


def enumerate_dist_laws(S: Monad, T: Monad, cap: int = DEFAULT_CAP,
                        jobs: int = 1) -> list:
    """All distributive laws from S to T, canonically ordered.

    An untypable pair yields an empty list rather than an error. ``jobs``
    has no effect: the search runs serially.
    """
    S.require_valid()
    T.require_valid()
    return _enumerate_laws(S, T, DistributiveLaw, cap)


def enumerate_mixed_laws(S: Monad, G: Comonad, cap: int = DEFAULT_CAP,
                         jobs: int = 1) -> list:
    """All mixed distributive laws from S to G, canonically ordered;
    ``jobs`` has no effect."""
    S.require_valid()
    G.require_valid()
    return _enumerate_laws(S, G, MixedDistributiveLaw, cap)


def _enumerate_laws(S: Monad, other, make, cap: int) -> list:
    """Every ``make(S, other, nat)`` that passes its checks, for nat a
    natural transformation S∘E → E∘S, E the endofunctor of ``other``."""
    endo = other.endo
    laws = (make(S, other, nat)
            for nat in enumerate_nat_trans(compose_functors(S.S, endo),
                                           compose_functors(endo, S.S), cap=cap))
    return sorted((law for law in laws if not law.check()),
                  key=lambda law: law.canonical_key())


def dist_law_from_components(S: Monad, T: Monad, components: dict) -> DistributiveLaw:
    phi = NatTrans(compose_functors(S.S, T.S), compose_functors(T.S, S.S),
                   components)
    return DistributiveLaw(S, T, phi)
