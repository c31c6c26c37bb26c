"""Monads and comonads on finite categories, with exhaustive law checking
and enumeration.

On a poset category a monad is exactly a closure operator (monotone,
inflationary, idempotent) and a comonad an interior operator; the
enumerator below does not assume thinness, though, so one-object monoid
categories work too. It searches in three stages: the endofunctors S,
then for each S the units eta: Id → S, then for each (S, eta) the
multiplication mu, one component per object over hom(SSx, Sx), with each
naturality square and each instance of the unit and associativity laws
checked as soon as its components are fixed.

A comonad on C is a monad on C^op with the same tables (Street, *The formal
theory of monads*, 1972). The comonad side is read off the monad side that
way: :func:`check_comonad_laws`, :func:`enumerate_comonads` and
:func:`identity_comonad` go through :func:`monad_on_opposite` and
:func:`comonad_on_opposite`, so there is one definition of each law.
Every law check of the package, here and in :mod:`distlaw`,
:mod:`adjunction` and :mod:`twofunctors`, is evaluated by
:func:`_law_violations` from a table of laws and their two sides.
"""

from __future__ import annotations

from operator import attrgetter
from threading import Lock

from .errors import LawViolation, TypeMismatch
from .fincat import (
    DEFAULT_CAP,
    FinCategory,
    Functor,
    NatTrans,
    _Budget,
    _backtrack,
    check_naturality,
    compose_functors,
    enumerate_functors,
    enumerate_nat_trans,
    identity_at,
    identity_functor,
    opposite,
    opposite_functor,
    opposite_nat,
    vcomp_at,
    whisker_left_at,
    whisker_right_at,
)
from .parallel import pmap
from .report import Violation


def _getter(names: tuple):
    """A static method that gets the fields ``names`` of a value as one
    tuple, also for one name, where ``attrgetter`` gives the bare field."""
    get = attrgetter(*names)
    return staticmethod(get if len(names) > 1 else lambda value: (get(value),))


class _Value:
    """A value equal to one of its class with equal fields EQUAL, hashed
    and sorted by :meth:`canonical_key`, the canonical keys of its fields
    KEY in order. Each class that declares EQUAL or KEY gets the getter of
    those fields once, as ``report._Frozen`` gets ``_fields``."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for names, getter in (("EQUAL", "_equal"), ("KEY", "_keyed")):
            if names in vars(cls):
                setattr(cls, getter, _getter(vars(cls)[names]))

    def canonical_key(self):
        return tuple([value.canonical_key() for value in self._keyed(self)])

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._equal(self) == self._equal(other)

    def __hash__(self):
        return hash(self.canonical_key())


class _Checked(_Value):
    """A value whose :meth:`check` lists its law violations, named CONTEXT
    in the exception :meth:`require_valid` raises. The value is immutable,
    so a pass is recorded in ``_valid`` and not checked again."""

    __slots__ = ("_valid",)

    def require_valid(self):
        if getattr(self, "_valid", False):
            return self
        bad = self.check()
        if bad:
            raise LawViolation(bad, context=self.CONTEXT)
        self._valid = True
        return self


# guards the creation of a value's memo of constructions, see _Structure.built
_NEW_MEMO = Lock()


class _Structure(_Checked):
    """An endofunctor ``endo`` on ``base`` with a multiplication ``mult`` and
    a unit ``unit``, built as ``Kind(base, endo, mult, unit)``. Each kind
    reads them under its own names, supplies :meth:`check` and declares
    their shape once: SHAPE is the (source, target) of mult and of unit
    among E∘E, E and Id, and TYPING the messages of the typing checks."""

    __slots__ = ("base", "endo", "mult", "unit", "_op", "_built")
    EQUAL = ("base", "endo", "mult", "unit")
    KEY = ("endo", "mult", "unit")

    def __init__(self, base: FinCategory, endo: Functor, mult: NatTrans,
                 unit: NatTrans):
        if endo.source != base or endo.target != base:
            raise TypeMismatch(self.TYPING[0])
        self.require_typed(base, endo, (mult, unit), self.TYPING[1:])
        self.base = base
        self.endo = endo
        self.mult = mult
        self.unit = unit
        self._op = None
        self._built = None

    def built(self, kind: str, build):
        """The construction ``kind`` on this value, or another result of it
        alone such as a construction's cap estimate: ``build()`` at the
        first call, and that same object at every later one. The value is
        immutable, so what is built on it depends on it alone. The memo is
        per object, not per equality class, and is allocated at the first
        build. Two racing first calls may both build, but both return the
        one object stored."""
        memo = self._built
        if memo is None:
            with _NEW_MEMO:
                if self._built is None:
                    self._built = {}
            memo = self._built
        found = memo.get(kind)
        if found is None:
            found = memo.setdefault(kind, build())
        return found

    @classmethod
    def ends(cls, twice, once, none) -> list:
        """The (source, target) of mult and of unit, where E∘E, E and Id
        stand for ``twice``, ``once`` and ``none``: functors, objects or
        cells, whatever the caller reads the shape on."""
        at = {"E∘E": twice, "E": once, "Id": none}
        return [(at[source], at[target]) for source, target in cls.SHAPE]

    @classmethod
    def functor_ends(cls, base: FinCategory, endo: Functor) -> list:
        """:meth:`ends` on the functors E∘E, E and Id of ``endo`` on ``base``."""
        return cls.ends(compose_functors(endo, endo), endo,
                        identity_functor(base))

    @classmethod
    def require_typed(cls, base: FinCategory, endo: Functor, maps,
                      messages) -> None:
        """Raise TypeMismatch with the matching message unless the two
        ``maps`` are typed as mult and unit for ``endo`` on ``base``."""
        for nat, (source, target), message in zip(
                maps, cls.functor_ends(base, endo), messages):
            if nat.source != source or nat.target != target:
                raise TypeMismatch(message)

    @classmethod
    def from_components(cls, base: FinCategory, endo: Functor, mult: dict,
                        unit: dict):
        """The structure on ``endo`` whose mult and unit have the given
        components; typing only, like the constructor."""
        return cls(base, endo, *(NatTrans(source, target, comps)
                                 for (source, target), comps in zip(
                                     cls.functor_ends(base, endo), (mult, unit))))

    def __repr__(self):
        return f"{type(self).__name__}({self.endo.object_map})"


class Monad(_Structure):
    """An endofunctor S with mu: S∘S → S and eta: Id → S.

    The constructor checks typing only; :func:`check_monad_laws` reports law
    violations and :meth:`require_valid` turns them into an exception.
    """

    __slots__ = ()
    S = _Structure.endo
    mu = _Structure.mult
    eta = _Structure.unit
    CONTEXT = "monad"
    SHAPE = (("E∘E", "E"), ("Id", "E"))
    TYPING = ("monad functor must be an endofunctor on the base",
              "mu must be typed S∘S -> S", "eta must be typed Id -> S")

    def check(self) -> list:
        return check_monad_laws(self)


class Comonad(_Structure):
    """An endofunctor G with delta: G → G∘G and epsilon: G → Id."""

    __slots__ = ()
    G = _Structure.endo
    delta = _Structure.mult
    epsilon = _Structure.unit
    CONTEXT = "comonad"
    SHAPE = (("E", "E∘E"), ("E", "Id"))
    TYPING = ("comonad functor must be an endofunctor on the base",
              "delta must be typed G -> G∘G", "epsilon must be typed G -> Id")

    def check(self) -> list:
        return check_comonad_laws(self)


def _law_violations(natural, laws, sides) -> list:
    """Every failing naturality square of each transformation in
    ``natural``, a sequence of (kind, transformation) pairs, reported under
    its kind; then, for each (kind, tag) in ``laws``, the first object in
    base order where the two sides of that law, given as (lhs, rhs)
    components in ``sides``, differ."""
    out = [Violation(kind, v.tag, where=v.where, lhs=v.lhs, rhs=v.rhs)
           for kind, nat in natural for v in check_naturality(nat)]
    for (kind, tag), (lhs, rhs) in zip(laws, sides):
        for x, f in lhs.items():
            if f != rhs[x]:
                out.append(Violation(kind, tag, where=x, lhs=f, rhs=rhs[x]))
                break
    return out


_MONAD_LAWS = (("MonadAssociativity", "law-monad-assoc"),
               ("MonadUnitLeft", "law-monad-unit-left"),
               ("MonadUnitRight", "law-monad-unit-right"))


def check_monad_laws(m: Monad) -> list:
    """Empty report iff mu/eta are natural and all three monad laws hold.

    Each side of each law is evaluated component by component; the
    Monad constructor has typed mu and eta, so every pasting composes."""
    C, S, mu, eta = m.base, m.S, m.mu.components, m.eta.components
    return _law_violations(
        (("MultiplicationNotNatural", m.mu), ("UnitNotNatural", m.eta)),
        _MONAD_LAWS,
        # mu ∘ (mu S) = mu ∘ (S mu), mu ∘ (eta S) = id_S = mu ∘ (S eta)
        ((vcomp_at(C, whisker_right_at(mu, S), mu),
          vcomp_at(C, whisker_left_at(S, mu), mu)),
         (vcomp_at(C, whisker_right_at(eta, S), mu), identity_at(S)),
         (vcomp_at(C, whisker_left_at(S, eta), mu), identity_at(S))))


# A comonad on C is a monad on C^op with the same tables, so its laws are
# the monad laws there under these names.
COMONAD_NAMES = {
    "MultiplicationNotNatural": "ComultiplicationNotNatural",
    "UnitNotNatural": "CounitNotNatural",
    "MonadAssociativity": "ComonadCoassociativity",
    "law-monad-assoc": "law-comonad-coassoc",
    "MonadUnitLeft": "ComonadCounitLeft",
    "law-monad-unit-left": "law-comonad-counit-left",
    "MonadUnitRight": "ComonadCounitRight",
    "law-monad-unit-right": "law-comonad-counit-right",
}


def dual_violation(v: Violation, names: dict) -> Violation:
    """A violation found on the opposite category, read back: its kind and
    tag renamed through ``names``, and the two sides of a naturality square
    swapped, since the opposite reads the square from the other end."""
    lhs, rhs = (v.rhs, v.lhs) if v.tag == "law-naturality" else (v.lhs, v.rhs)
    return Violation(names.get(v.kind, v.kind), names.get(v.tag, v.tag),
                     where=v.where, lhs=lhs, rhs=rhs, detail=v.detail)


def check_comonad_laws(c: Comonad) -> list:
    """Empty report iff delta/epsilon are natural and all three comonad laws
    hold: the monad laws of :func:`monad_on_opposite`, renamed."""
    return [dual_violation(v, COMONAD_NAMES)
            for v in check_monad_laws(monad_on_opposite(c))]


def identity_monad(cat: FinCategory) -> Monad:
    comps = {x: cat.identity(x) for x in cat.objects}
    return Monad.from_components(cat, identity_functor(cat), comps, comps)


def identity_comonad(cat: FinCategory) -> Comonad:
    return comonad_on_opposite(identity_monad(opposite(cat)))


def enumerate_monads(cat: FinCategory, cap: int = DEFAULT_CAP,
                     jobs: int = 1) -> list:
    """All monads on the category: deterministic, duplicate-free, sorted.

    For each endofunctor S and each unit eta: Id → S, mu is found by one
    backtracking search, component by component in object order. The
    naturality square of mu at each morphism, both unit laws at each
    object x and associativity at x are each checked as soon as the
    components they mention are fixed, so no candidate that breaks one is
    extended. Only solutions are built into monads.

    The cap bounds the endofunctor search and each unit search, as in
    :func:`~finmonad.fincat.enumerate_functors` and
    :func:`~finmonad.fincat.enumerate_nat_trans`, and the candidate mu
    components tried over all the mu searches of the call; past it,
    :class:`EnumerationCapExceeded` is raised. ``jobs`` has no effect.
    """
    endos = enumerate_functors(cat, cat, cap=cap)
    Id = identity_functor(cat)
    objs = cat.objects
    pos = cat.positions()
    # Components are morphism indices, so a composite is a table lookup.
    index, table, hom = cat._index, cat._table, cat.index_hom()
    names = cat.morphisms
    ident = {x: index[f] for x, f in cat.identities.items()}
    budget = _Budget(cap)

    def monads_on(S: Functor) -> list:
        sob = S.object_map
        domains = [hom.get((sob[sob[x]], sob[x]), ()) for x in objs]
        # mu needs every hom(SSx, Sx) and eta every hom(x, Sx) inhabited;
        # the unit search charges nothing for an empty one, so testing it
        # here first moves no cap verdict.
        if not (all(domains) and all(hom.get((x, sob[x])) for x in objs)):
            return []
        etas = enumerate_nat_trans(Id, S, cap=cap)
        if not etas:
            return []
        smor = [index[S.morphism_map[m.id]] for m in names]
        checks = [[] for _ in objs]
        for m, i, j in cat.arrow_positions():
            sm = smor[index[m]]
            # the square of m: SS m ; mu_j = mu_i ; S m
            checks[max(i, j)].append(
                lambda a, i=i, j=j, ssm=smor[sm], sm=sm:
                    table[ssm][a[j]] == table[a[i]][sm])
        for i, x in enumerate(objs):
            p = pos[sob[x]]
            # mu_{Sx} ; mu_x = S(mu_x) ; mu_x
            checks[max(i, p)].append(
                lambda a, i=i, p=p:
                    table[a[p]][a[i]] == table[smor[a[i]]][a[i]])
        found = []
        for eta in etas:
            at = eta.components
            # eta_{Sx} ; mu_x = id_{Sx} = S(eta_x) ; mu_x
            units = [lambda a, i=i, e=index[at[sob[x]]],
                     se=smor[index[at[x]]], one=ident[sob[x]]:
                     table[e][a[i]] == one == table[se][a[i]]
                     for i, x in enumerate(objs)]
            laws = [[unit] + rest for unit, rest in zip(units, checks)]
            for comps in _backtrack(domains, laws, budget):
                mu = NatTrans(compose_functors(S, S), S,
                              {x: names[k].id for x, k in zip(objs, comps)})
                found.append(Monad(cat, S, mu, eta))
        return found

    groups = pmap(monads_on, endos)
    out = [m for group in groups for m in group]
    out.sort(key=lambda m: m.canonical_key())
    return out


def enumerate_comonads(cat: FinCategory, cap: int = DEFAULT_CAP,
                       jobs: int = 1) -> list:
    """All comonads on the category: the monads on its opposite, read back.

    The candidate count, and so the cap verdict, is that of
    :func:`enumerate_monads` on the opposite category. ``jobs`` has no
    effect.
    """
    return [comonad_on_opposite(m)
            for m in enumerate_monads(opposite(cat), cap=cap)]


def _on_opposite(s: _Structure, kind) -> _Structure:
    """The ``kind`` on the opposite category with the tables of ``s``, built
    once like :func:`~finmonad.fincat.opposite`: reading it back gives ``s``."""
    if s._op is None:
        s._op = kind(opposite(s.base), opposite_functor(s.endo),
                     opposite_nat(s.mult), opposite_nat(s.unit))
        s._op._op = s
    return s._op


def monad_on_opposite(c: Comonad) -> Monad:
    """The monad on the opposite category carried by a comonad (same tables)."""
    return _on_opposite(c, Monad)


def comonad_on_opposite(m: Monad) -> Comonad:
    """The comonad on the opposite category carried by a monad (same tables);
    the inverse of :func:`monad_on_opposite`."""
    return _on_opposite(m, Comonad)
