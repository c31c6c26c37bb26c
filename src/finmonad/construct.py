"""The Eilenberg-Moore category of algebras, its coalgebra dual, and the
Kleisli category, each packaged with its canonical adjunction.

Canonical ids keep equality decidable across runs. Base-category ids are
written into them with the delimiters ``\\ | : → ⟨ ⟩`` backslash-escaped, so
distinct data never share an id:

* an algebra (X, chi: SX → X) gets the object id ``⟨X|chi⟩`` and an algebra
  morphism with underlying f gets ``⟨f:A→B⟩`` for algebra object ids A, B;
* coalgebras (N, xi: N → GN) follow the same scheme: they are built as
  the algebras of the same tables on the opposite category, with each
  morphism id written in the coalgebra direction;
* a Kleisli morphism with underlying y: X → TY gets ``♯⟨y:X→Y⟩``. The
  target object is part of the id because T may identify carriers, in
  which case the underlying morphism alone does not determine it.

Every constructed category is revalidated from scratch (associativity
included), the coalgebra category as the algebra category it is the
opposite of, and every adjunction passes its triangle identities.

A functor or transformation into the algebras that lies over a base one
is built in one place: :meth:`EmAlgebraCategory.functor_over` and
:meth:`EmAlgebraCategory.nat_over` name each image by the id scheme, and
the ``Functor``/``NatTrans`` constructors raise ComponentMistyped on an
image that is not an algebra or not an algebra morphism.
"""

from __future__ import annotations

from .adjunction import Adjunction, induced_monad, opposite_adjunction
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
from .monad import Comonad, Monad, monad_on_opposite


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

    __slots__ = ("monad", "category", "U", "F", "adj", "_carrier",
                 "_structure", "_underlying", "_free", "_name")

    def __init__(self, monad, category, U, F, adj, carrier, structure,
                 underlying, free):
        self.monad = monad
        self.category = category
        self.U = U
        self.F = F
        self.adj = adj
        self._carrier = carrier
        self._structure = structure
        self._underlying = underlying
        self._free = free
        # names the morphism A → B with underlying f
        self._name = _algebra_morphism_id

    def algebra_objects(self):
        """(object id, carrier, structure map) in canonical order."""
        return [(a, self._carrier[a], self._structure[a])
                for a in self.category.objects]

    def carrier(self, obj: str) -> str:
        return self._carrier[obj]

    def structure(self, obj: str) -> str:
        return self._structure[obj]

    def algebra_id(self, carrier: str, chi: str) -> str:
        """The id of (carrier, chi), an object exactly if it is an algebra."""
        return _algebra_id(carrier, chi)

    def has_algebra(self, carrier: str, chi: str) -> bool:
        return _algebra_id(carrier, chi) in self._carrier

    def algebras_with_carrier(self, carrier: str) -> list:
        return [a for a in self.category.objects if self._carrier[a] == carrier]

    def free_algebra(self, x: str) -> str:
        return self._free[x]

    def underlying(self, morph: str) -> str:
        return self._underlying[morph]

    def as_algebra_morphism(self, f: str, src: str, tgt: str):
        """The morphism id for underlying f between the two algebras, or None."""
        mid = self._name(f, src, tgt)
        return mid if self.category.has_morphism(mid) else None

    def functor_over(self, source, obj_map: dict, under) -> Functor:
        """The functor from ``source`` into the algebras with object map
        ``obj_map`` that sends each morphism m to the algebra morphism over
        ``under(m)``. ``Functor`` raises ComponentMistyped if an object
        image is not an algebra or a morphism image is not an algebra
        morphism."""
        name = self._name
        return Functor(source, self.category, obj_map,
                       {mm.id: name(under(mm.id), obj_map[mm.src], obj_map[mm.tgt])
                        for mm in source.morphisms})

    def nat_over(self, F: Functor, G: Functor, under) -> NatTrans:
        """The transformation F → G into the algebras whose component at a
        is the algebra morphism over ``under(a)``. ``NatTrans`` raises
        ComponentMistyped if that is not an algebra morphism."""
        name = self._name
        return NatTrans(F, G, {a: name(under(a), F.ob(a), G.ob(a))
                               for a in F.source.objects})


def em_category(m: Monad, cap: int = DEFAULT_CAP) -> EmAlgebraCategory:
    """Enumerate all algebras and algebra morphisms of a valid monad."""
    m.require_valid()
    em = _em_category(m, cap, _algebra_morphism_id)
    if induced_monad(em.adj) != m:
        raise AssertionError("algebra adjunction does not induce its monad")
    return em


def _em_category(m: Monad, cap: int, name) -> EmAlgebraCategory:
    """The algebra construction for a valid monad; ``name(f, A, B)`` is the
    id of the algebra morphism A → B with underlying f."""
    base = m.base
    S = m.S

    estimate = sum(len(base.hom(S.ob(x), x)) for x in base.objects)
    if estimate > cap:
        raise EnumerationCapExceeded(estimate, cap)

    carrier, structure = {}, {}
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

    morphisms = []
    underlying = {}
    for a in objects:
        for b in objects:
            for f in base.hom(carrier[a], carrier[b]):
                # algebra morphism square: f ∘ chi = chi' ∘ S f
                if base.compose(structure[a], f) != base.compose(S.mor(f), structure[b]):
                    continue
                mid = name(f, a, b)
                morphisms.append(Morphism(mid, a, b))
                underlying[mid] = f

    identities = {a: name(base.identity(carrier[a]), a, a) for a in objects}

    def comp(f: Morphism, g: Morphism) -> str:
        return name(base.compose(underlying[f.id], underlying[g.id]),
                    f.src, g.tgt)

    category = assemble_category(objects, morphisms, identities, comp)

    U = Functor(category, base,
                {a: carrier[a] for a in objects},
                {mm.id: underlying[mm.id] for mm in morphisms})

    free = {x: _algebra_id(S.ob(x), m.mu.at(x)) for x in base.objects}
    F = Functor(base, category,
                free,
                {mm.id: name(S.mor(mm.id), free[mm.src], free[mm.tgt])
                 for mm in base.morphisms})

    unit = NatTrans(identity_functor(base), compose_functors(U, F),
                    dict(m.eta.components))
    counit = NatTrans(compose_functors(F, U), identity_functor(category),
                      {a: name(structure[a], free[carrier[a]], a)
                       for a in objects})
    adj = Adjunction(F, U, unit, counit)

    em = EmAlgebraCategory(m, category, U, F, adj, carrier, structure,
                           underlying, free)
    em._name = name
    return em


class EmCoalgebraCategory:
    """Coalgebras (N, xi) of a comonad with the adjunction U ⊣ F (cofree).

    A view of the algebras of :func:`monad_on_opposite`: a coalgebra
    (N, xi: N → GN) is an algebra of the same tables on the opposite
    category, a coalgebra morphism A → B is an algebra morphism B → A, and
    the category, U, F and the adjunction are the opposites of the algebra
    ones (the algebra adjunction F ⊣ U turns into U ⊣ F). ``on_opposite``
    is that algebra category.
    """

    __slots__ = ("comonad", "category", "U", "F", "adj", "on_opposite")

    def __init__(self, comonad: Comonad, em: EmAlgebraCategory):
        self.comonad = comonad
        self.on_opposite = em
        self.adj = opposite_adjunction(em.adj)
        self.U = self.adj.L
        self.F = self.adj.R
        self.category = self.U.source

    def coalgebra_objects(self):
        return self.on_opposite.algebra_objects()

    def carrier(self, obj: str) -> str:
        return self.on_opposite.carrier(obj)

    def structure(self, obj: str) -> str:
        return self.on_opposite.structure(obj)

    def coalgebra_id(self, carrier: str, xi: str) -> str:
        return self.on_opposite.algebra_id(carrier, xi)

    def has_coalgebra(self, carrier: str, xi: str) -> bool:
        return self.on_opposite.has_algebra(carrier, xi)

    def coalgebras_with_carrier(self, carrier: str) -> list:
        return self.on_opposite.algebras_with_carrier(carrier)

    def cofree_coalgebra(self, x: str) -> str:
        return self.on_opposite.free_algebra(x)

    def underlying(self, morph: str) -> str:
        return self.on_opposite.underlying(morph)

    def as_coalgebra_morphism(self, f: str, src: str, tgt: str):
        return self.on_opposite.as_algebra_morphism(f, tgt, src)


def em_coalgebra_category(c: Comonad, cap: int = DEFAULT_CAP) -> EmCoalgebraCategory:
    """Enumerate all coalgebras of a valid comonad: the algebras of the same
    tables on the opposite category, with each morphism named in the
    coalgebra direction."""
    c.require_valid()
    em = _em_category(monad_on_opposite(c), cap,
                      lambda f, src, tgt: _algebra_morphism_id(f, tgt, src))
    return EmCoalgebraCategory(c, em)


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
