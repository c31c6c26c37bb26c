"""Distributive laws phi: S∘T → T∘S between monads and mixed distributive
laws psi: S∘G → G∘S from a monad to a comonad: representation, the four
axiom diagrams, and exhaustive enumeration.

On a poset category a law from S to T exists iff S(T(x)) <= T(S(x)) for
every x, and is then unique; the enumerators agree with that criterion but
do not rely on it. Untypable situations (an empty hom-set at some object)
are classified separately from axiom failures.
"""

from __future__ import annotations

from itertools import product

from .errors import (
    BaseMismatch,
    EnumerationCapExceeded,
    TypeMismatch,
    UnTypableComponent,
)
from .fincat import (
    DEFAULT_CAP,
    Functor,
    NatTrans,
    check_naturality,
    compose_functors,
    vcomp_at,
    whisker_left_at,
    whisker_right_at,
)
from .monad import Comonad, Monad, _Checked, _first_diff
from .parallel import pmap
from .report import Violation


class _Law(_Checked):
    """A candidate law S∘E → E∘S over one base category, for a monad S and
    a structure ``second`` on E. Each kind names ``second`` and ``nat``,
    checks their typing on construction and supplies :meth:`check`."""

    __slots__ = ("S", "second", "nat")

    def canonical_key(self):
        return self.nat.canonical_key()

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self.S == other.S and self.second == other.second
                and self.nat.components == other.nat.components)

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        return f"{type(self).__name__}({self.nat.components})"


class DistributiveLaw(_Law):
    """A candidate law phi: S∘T → T∘S over one base category.

    The constructor checks typing; :func:`check_dist_law` reports on the
    four axiom diagrams.
    """

    __slots__ = ()
    T = _Law.second
    phi = _Law.nat
    CONTEXT = "distributive law"

    def __init__(self, S: Monad, T: Monad, phi: NatTrans):
        if S.base != T.base:
            raise BaseMismatch("monads live on different bases")
        _check_typing(S, T.S, phi, "phi", "T")
        self.S = S
        self.T = T
        self.phi = phi

    def check(self) -> list:
        return check_dist_law(self.S, self.T, self.phi)


class MixedDistributiveLaw(_Law):
    """A candidate mixed law psi: S∘G → G∘S for a monad S and comonad G."""

    __slots__ = ()
    G = _Law.second
    psi = _Law.nat
    CONTEXT = "mixed distributive law"

    def __init__(self, S: Monad, G: Comonad, psi: NatTrans):
        if S.base != G.base:
            raise BaseMismatch("monad and comonad live on different bases")
        _check_typing(S, G.G, psi, "psi", "G")
        self.S = S
        self.G = G
        self.psi = psi

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


def _naturality(nat: NatTrans) -> list:
    return [Violation("LawNotNatural", "law-naturality",
                      where=v.where, lhs=v.lhs, rhs=v.rhs)
            for v in check_naturality(nat)]


def check_dist_law(S: Monad, T: Monad, phi: NatTrans) -> list:
    """Name each of the four axioms with pass/fail and the first failing object.

    phi must be typed S∘T → T∘S (TypeMismatch otherwise). Naturality of
    phi is checked first; a non-natural candidate is not a distributive
    law regardless of the diagrams, whose sides are evaluated component by
    component.
    """
    _check_typing(S, T.S, phi, "phi", "T")
    out = _naturality(phi)
    C, Sf, Tf, p = S.base, S.S, T.S, phi.components
    mu_s, eta_s = S.mu.components, S.eta.components
    mu_t, eta_t = T.mu.components, T.eta.components
    # (i)  phi ∘ (mu^S T) = (T mu^S) ∘ (phi S) ∘ (S phi)
    lhs = vcomp_at(C, whisker_right_at(mu_s, Tf), p)
    rhs = vcomp_at(C, whisker_left_at(Sf, p),
                   vcomp_at(C, whisker_right_at(p, Sf), whisker_left_at(Tf, mu_s)))
    _first_diff("MultiplicationSquareS", "Eq-1510071248-i", lhs, rhs, out)
    # (ii) phi ∘ (eta^S T) = T eta^S
    lhs = vcomp_at(C, whisker_right_at(eta_s, Tf), p)
    rhs = whisker_left_at(Tf, eta_s)
    _first_diff("UnitTriangleS", "Eq-1510071248-ii", lhs, rhs, out)
    # (iii) phi ∘ (S mu^T) = (mu^T S) ∘ (T phi) ∘ (phi T)
    lhs = vcomp_at(C, whisker_left_at(Sf, mu_t), p)
    rhs = vcomp_at(C, whisker_right_at(p, Tf),
                   vcomp_at(C, whisker_left_at(Tf, p), whisker_right_at(mu_t, Sf)))
    _first_diff("MultiplicationSquareT", "Eq-1510071249-i", lhs, rhs, out)
    # (iv) phi ∘ (S eta^T) = eta^T S
    lhs = vcomp_at(C, whisker_left_at(Sf, eta_t), p)
    rhs = whisker_right_at(eta_t, Sf)
    _first_diff("UnitTriangleT", "Eq-1510071249-ii", lhs, rhs, out)
    return out


def check_mixed_law(S: Monad, G: Comonad, psi: NatTrans) -> list:
    """Six reported instances: naturality plus the four mixed axioms.

    psi must be typed S∘G → G∘S (TypeMismatch otherwise)."""
    _check_typing(S, G.G, psi, "psi", "G")
    out = _naturality(psi)
    C, Sf, Gf, p = S.base, S.S, G.G, psi.components
    mu, eta = S.mu.components, S.eta.components
    delta, epsilon = G.delta.components, G.epsilon.components
    # (i)  psi ∘ (mu^S G) = (G mu^S) ∘ (psi S) ∘ (S psi)
    lhs = vcomp_at(C, whisker_right_at(mu, Gf), p)
    rhs = vcomp_at(C, whisker_left_at(Sf, p),
                   vcomp_at(C, whisker_right_at(p, Sf), whisker_left_at(Gf, mu)))
    _first_diff("MultiplicationSquare", "Eq-1510081240-i", lhs, rhs, out)
    # (ii) psi ∘ (eta^S G) = G eta^S
    lhs = vcomp_at(C, whisker_right_at(eta, Gf), p)
    rhs = whisker_left_at(Gf, eta)
    _first_diff("UnitTriangle", "Eq-1510081240-ii", lhs, rhs, out)
    # (iii) (delta^G S) ∘ psi = (G psi) ∘ (psi G) ∘ (S delta^G)
    lhs = vcomp_at(C, p, whisker_right_at(delta, Sf))
    rhs = vcomp_at(C, whisker_left_at(Sf, delta),
                   vcomp_at(C, whisker_right_at(p, Gf), whisker_left_at(Gf, p)))
    _first_diff("ComultiplicationSquare", "Eq-1510081242-i", lhs, rhs, out)
    # (iv) (epsilon^G S) ∘ psi = S epsilon^G
    lhs = vcomp_at(C, p, whisker_right_at(epsilon, Sf))
    rhs = whisker_left_at(Sf, epsilon)
    _first_diff("CounitTriangle", "Eq-1510081242-ii", lhs, rhs, out)
    return out


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

    Candidates are generated only after a typability pre-pass; an
    untypable pair yields an empty list rather than an error.
    """
    S.require_valid()
    T.require_valid()
    return _enumerate_laws(S, T, DistributiveLaw, cap, jobs)


def enumerate_mixed_laws(S: Monad, G: Comonad, cap: int = DEFAULT_CAP,
                         jobs: int = 1) -> list:
    """All mixed distributive laws from S to G, canonically ordered."""
    S.require_valid()
    G.require_valid()
    return _enumerate_laws(S, G, MixedDistributiveLaw, cap, jobs)


def _enumerate_laws(S: Monad, other, make, cap: int, jobs: int) -> list:
    """Every ``make(S, other, law)`` that passes its checks, for law:
    S∘E → E∘S, E the endofunctor of ``other``, ranging over the product of
    its components."""
    endo = other.endo
    cat = S.base
    objs = cat.objects
    choices = [cat.hom(S.S.ob(endo.ob(x)), endo.ob(S.S.ob(x))) for x in objs]
    if not all(choices):  # untypable: an empty hom-set
        return []
    estimate = 1
    for c in choices:
        estimate *= len(c)
        if estimate > cap:
            raise EnumerationCapExceeded(estimate, cap)

    src = compose_functors(S.S, endo)
    tgt = compose_functors(endo, S.S)

    def scan(first_choice):
        found = []
        for combo in product([first_choice], *choices[1:]):
            law = make(S, other, NatTrans(src, tgt, dict(zip(objs, combo))))
            if not law.check():
                found.append(law)
        return found

    if not objs:
        law = make(S, other, NatTrans(src, tgt, {}))
        return [law] if not law.check() else []

    groups = pmap(scan, choices[0], jobs=jobs)
    out = [law for group in groups for law in group]
    out.sort(key=lambda law: law.canonical_key())
    return out


def dist_law_from_components(S: Monad, T: Monad, components: dict) -> DistributiveLaw:
    phi = NatTrans(compose_functors(S.S, T.S), compose_functors(T.S, S.S),
                   components)
    return DistributiveLaw(S, T, phi)
