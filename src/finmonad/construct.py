"""The Eilenberg-Moore category of algebras, its coalgebra dual, and the
Kleisli category, each packaged with its canonical adjunction.

Canonical ids keep equality decidable across runs. Base-category ids are
written into them with the delimiters ``\\ | : → ⟨ ⟩`` backslash-escaped, so
distinct data never share an id:

* an algebra (X, chi: SX → X) gets the object id ``⟨X|chi⟩`` and an algebra
  morphism with underlying f gets ``⟨f:A→B⟩`` for algebra object ids A, B;
* coalgebras (N, xi: N → GN) follow the same scheme;
* a Kleisli morphism with underlying y: X → TY gets ``♯⟨y:X→Y⟩``. The
  target object is part of the id because T may identify carriers, in
  which case the underlying morphism alone does not determine it.

Every constructed category is revalidated from scratch (associativity
included) and every adjunction passes its triangle identities.
"""

from __future__ import annotations

from .adjunction import Adjunction, induced_monad
from .errors import EnumerationCapExceeded
from .fincat import (
    DEFAULT_CAP,
    Functor,
    Morphism,
    NatTrans,
    assemble_category,
    compose_functors,
    identity_functor,
)
from .monad import Comonad, Monad


_DELIMITERS = frozenset("\\|:→⟨⟩")
_ESCAPES = str.maketrans({c: "\\" + c for c in _DELIMITERS})


def _escape(base_id: str) -> str:
    """A base-category id with every delimiter of the id scheme escaped."""
    if _DELIMITERS.isdisjoint(base_id):
        return base_id
    return base_id.translate(_ESCAPES)


def _algebra_id(carrier: str, chi: str) -> str:
    return f"⟨{_escape(carrier)}|{_escape(chi)}⟩"


def _algebra_morphism_id(f: str, src: str, tgt: str) -> str:
    # src and tgt are (co)algebra ids, which are already escaped
    return f"⟨{_escape(f)}:{src}→{tgt}⟩"


def _kleisli_id(y: str, src: str, tgt: str) -> str:
    return f"♯⟨{_escape(y)}:{_escape(src)}→{_escape(tgt)}⟩"


class EmAlgebraCategory:
    """Algebras (X, chi) of a monad with the free/forgetful adjunction F ⊣ U."""

    __slots__ = ("monad", "category", "U", "F", "adj",
                 "_carrier", "_structure", "_underlying", "_by_pair", "_free")

    def __init__(self, monad, category, U, F, adj, carrier, structure,
                 underlying, by_pair, free):
        self.monad = monad
        self.category = category
        self.U = U
        self.F = F
        self.adj = adj
        self._carrier = carrier
        self._structure = structure
        self._underlying = underlying
        self._by_pair = by_pair
        self._free = free

    def algebra_objects(self):
        """(object id, carrier, structure map) in canonical order."""
        return [(a, self._carrier[a], self._structure[a])
                for a in self.category.objects]

    def carrier(self, obj: str) -> str:
        return self._carrier[obj]

    def structure(self, obj: str) -> str:
        return self._structure[obj]

    def algebra_id(self, carrier: str, chi: str) -> str:
        return self._by_pair[(carrier, chi)]

    def has_algebra(self, carrier: str, chi: str) -> bool:
        return (carrier, chi) in self._by_pair

    def algebras_with_carrier(self, carrier: str) -> list:
        return [a for a in self.category.objects if self._carrier[a] == carrier]

    def free_algebra(self, x: str) -> str:
        return self._free[x]

    def underlying(self, morph: str) -> str:
        return self._underlying[morph]

    def as_algebra_morphism(self, f: str, src: str, tgt: str):
        """The morphism id for underlying f between the two algebras, or None."""
        mid = _algebra_morphism_id(f, src, tgt)
        return mid if self.category.has_morphism(mid) else None


def em_category(m: Monad, cap: int = DEFAULT_CAP) -> EmAlgebraCategory:
    """Enumerate all algebras and algebra morphisms of a valid monad."""
    m.require_valid()
    base = m.base
    S = m.S

    estimate = sum(len(base.hom(S.ob(x), x)) for x in base.objects)
    if estimate > cap:
        raise EnumerationCapExceeded(estimate, cap)

    carrier, structure, by_pair = {}, {}, {}
    objects = []
    for x in base.objects:
        for chi in base.hom(S.ob(x), x):
            # unit law chi ∘ eta_X = id_X and multiplication square
            if base.compose(m.eta.at(x), chi) != base.identity(x):
                continue
            if base.compose(m.mu.at(x), chi) != base.compose(S.mor(chi), chi):
                continue
            a = _algebra_id(x, chi)
            objects.append(a)
            carrier[a] = x
            structure[a] = chi
            by_pair[(x, chi)] = a

    morphisms = []
    underlying = {}
    for a in objects:
        for b in objects:
            for f in base.hom(carrier[a], carrier[b]):
                # algebra morphism square: f ∘ chi = chi' ∘ S f
                if base.compose(structure[a], f) != base.compose(S.mor(f), structure[b]):
                    continue
                mid = _algebra_morphism_id(f, a, b)
                morphisms.append(Morphism(mid, a, b))
                underlying[mid] = f

    identities = {a: _algebra_morphism_id(base.identity(carrier[a]), a, a)
                  for a in objects}

    def comp(f: Morphism, g: Morphism) -> str:
        return _algebra_morphism_id(
            base.compose(underlying[f.id], underlying[g.id]), f.src, g.tgt)

    category = assemble_category(objects, morphisms, identities, comp)

    U = Functor(category, base,
                {a: carrier[a] for a in objects},
                {mm.id: underlying[mm.id] for mm in morphisms})

    free = {}
    for x in base.objects:
        a = by_pair.get((S.ob(x), m.mu.at(x)))
        if a is None:
            raise AssertionError(f"free algebra on {x} is missing")
        free[x] = a
    F = Functor(base, category,
                free,
                {mm.id: _algebra_morphism_id(S.mor(mm.id), free[mm.src], free[mm.tgt])
                 for mm in base.morphisms})

    unit = NatTrans(identity_functor(base), compose_functors(U, F),
                    dict(m.eta.components))
    counit = NatTrans(compose_functors(F, U), identity_functor(category),
                      {a: _algebra_morphism_id(structure[a], free[carrier[a]], a)
                       for a in objects})
    adj = Adjunction(F, U, unit, counit)

    em = EmAlgebraCategory(m, category, U, F, adj, carrier, structure,
                           underlying, by_pair, free)
    if induced_monad(adj) != m:
        raise AssertionError("algebra adjunction does not induce its monad")
    return em


class EmCoalgebraCategory:
    """Coalgebras (N, xi) of a comonad with the adjunction U ⊣ F (cofree)."""

    __slots__ = ("comonad", "category", "U", "F", "adj",
                 "_carrier", "_structure", "_underlying", "_by_pair", "_cofree")

    def __init__(self, comonad, category, U, F, adj, carrier, structure,
                 underlying, by_pair, cofree):
        self.comonad = comonad
        self.category = category
        self.U = U
        self.F = F
        self.adj = adj
        self._carrier = carrier
        self._structure = structure
        self._underlying = underlying
        self._by_pair = by_pair
        self._cofree = cofree

    def coalgebra_objects(self):
        return [(a, self._carrier[a], self._structure[a])
                for a in self.category.objects]

    def carrier(self, obj: str) -> str:
        return self._carrier[obj]

    def structure(self, obj: str) -> str:
        return self._structure[obj]

    def coalgebra_id(self, carrier: str, xi: str) -> str:
        return self._by_pair[(carrier, xi)]

    def has_coalgebra(self, carrier: str, xi: str) -> bool:
        return (carrier, xi) in self._by_pair

    def coalgebras_with_carrier(self, carrier: str) -> list:
        return [a for a in self.category.objects if self._carrier[a] == carrier]

    def cofree_coalgebra(self, x: str) -> str:
        return self._cofree[x]

    def underlying(self, morph: str) -> str:
        return self._underlying[morph]

    def as_coalgebra_morphism(self, f: str, src: str, tgt: str):
        mid = _algebra_morphism_id(f, src, tgt)
        return mid if self.category.has_morphism(mid) else None


def em_coalgebra_category(c: Comonad, cap: int = DEFAULT_CAP) -> EmCoalgebraCategory:
    """Enumerate all coalgebras of a valid comonad; dual of :func:`em_category`."""
    c.require_valid()
    base = c.base
    G = c.G

    estimate = sum(len(base.hom(x, G.ob(x))) for x in base.objects)
    if estimate > cap:
        raise EnumerationCapExceeded(estimate, cap)

    carrier, structure, by_pair = {}, {}, {}
    objects = []
    for x in base.objects:
        for xi in base.hom(x, G.ob(x)):
            # counit law epsilon_X ∘ xi = id_X and comultiplication square
            if base.compose(xi, c.epsilon.at(x)) != base.identity(x):
                continue
            if base.compose(xi, c.delta.at(x)) != base.compose(xi, G.mor(xi)):
                continue
            a = _algebra_id(x, xi)
            objects.append(a)
            carrier[a] = x
            structure[a] = xi
            by_pair[(x, xi)] = a

    morphisms = []
    underlying = {}
    for a in objects:
        for b in objects:
            for f in base.hom(carrier[a], carrier[b]):
                # coalgebra morphism square: xi' ∘ f = G f ∘ xi
                if base.compose(f, structure[b]) != base.compose(structure[a], G.mor(f)):
                    continue
                mid = _algebra_morphism_id(f, a, b)
                morphisms.append(Morphism(mid, a, b))
                underlying[mid] = f

    identities = {a: _algebra_morphism_id(base.identity(carrier[a]), a, a)
                  for a in objects}

    def comp(f: Morphism, g: Morphism) -> str:
        return _algebra_morphism_id(
            base.compose(underlying[f.id], underlying[g.id]), f.src, g.tgt)

    category = assemble_category(objects, morphisms, identities, comp)

    U = Functor(category, base,
                {a: carrier[a] for a in objects},
                {mm.id: underlying[mm.id] for mm in morphisms})

    cofree = {}
    for x in base.objects:
        a = by_pair.get((G.ob(x), c.delta.at(x)))
        if a is None:
            raise AssertionError(f"cofree coalgebra on {x} is missing")
        cofree[x] = a
    F = Functor(base, category,
                cofree,
                {mm.id: _algebra_morphism_id(G.mor(mm.id), cofree[mm.src], cofree[mm.tgt])
                 for mm in base.morphisms})

    # U ⊣ F: unit embeds each coalgebra into its cofree one via xi,
    # counit is epsilon downstairs.
    unit = NatTrans(identity_functor(category), compose_functors(F, U),
                    {a: _algebra_morphism_id(structure[a], a, cofree[carrier[a]])
                     for a in objects})
    counit = NatTrans(compose_functors(U, F), identity_functor(base),
                      dict(c.epsilon.components))
    adj = Adjunction(U, F, unit, counit)

    return EmCoalgebraCategory(c, category, U, F, adj, carrier, structure,
                               underlying, by_pair, cofree)


class KleisliCategory:
    """Same objects as the base; hom(X, Y) is hom_base(X, TY)."""

    __slots__ = ("monad", "category", "D", "V", "adj", "_underlying", "_by_data")

    def __init__(self, monad, category, D, V, adj, underlying, by_data):
        self.monad = monad
        self.category = category
        self.D = D
        self.V = V
        self.adj = adj
        self._underlying = underlying
        self._by_data = by_data

    def kleisli_id(self, y: str, src: str, tgt: str) -> str:
        return self._by_data[(y, src, tgt)]

    def underlying(self, morph: str):
        """(underlying base morphism, source object, target object)."""
        return self._underlying[morph]


def kleisli_category(m: Monad) -> KleisliCategory:
    m.require_valid()
    base = m.base
    T = m.S

    objects = list(base.objects)
    morphisms = []
    underlying = {}
    by_data = {}
    for x in objects:
        for y_obj in objects:
            for y in base.hom(x, T.ob(y_obj)):
                mid = _kleisli_id(y, x, y_obj)
                morphisms.append(Morphism(mid, x, y_obj))
                underlying[mid] = (y, x, y_obj)
                by_data[(y, x, y_obj)] = mid

    identities = {x: by_data[(m.eta.at(x), x, x)] for x in objects}

    def comp(f: Morphism, g: Morphism) -> str:
        y, _, y_tgt = underlying[f.id]
        z, _, z_tgt = underlying[g.id]
        # z♯ ∘ y♯ has underlying mu_Z ∘ T z ∘ y
        comp_underlying = base.compose(base.compose(y, T.mor(z)), m.mu.at(z_tgt))
        return by_data[(comp_underlying, f.src, z_tgt)]

    category = assemble_category(objects, morphisms, identities, comp)

    D = Functor(base, category,
                {x: x for x in objects},
                {mm.id: by_data[(base.compose(mm.id, m.eta.at(mm.tgt)), mm.src, mm.tgt)]
                 for mm in base.morphisms})
    V = Functor(category, base,
                {x: T.ob(x) for x in objects},
                {mm.id: base.compose(T.mor(underlying[mm.id][0]),
                                     m.mu.at(underlying[mm.id][2]))
                 for mm in category.morphisms})

    unit = NatTrans(identity_functor(base), compose_functors(V, D),
                    dict(m.eta.components))
    counit = NatTrans(compose_functors(D, V), identity_functor(category),
                      {x: by_data[(base.identity(T.ob(x)), T.ob(x), x)]
                       for x in objects})
    adj = Adjunction(D, V, unit, counit)

    kl = KleisliCategory(m, category, D, V, adj, underlying, by_data)
    if induced_monad(adj) != m:
        raise AssertionError("Kleisli adjunction does not induce its monad")
    return kl
