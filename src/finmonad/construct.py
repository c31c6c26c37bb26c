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

Each construction is built and validated once per monad value, at its
first use; later calls return the same object. Validation checks
associativity (the coalgebra category as the algebra category it is the
opposite of), the triangle identities of every adjunction, and that the
algebra and the Kleisli adjunction induce their monad. The cap estimate
is counted once per monad value, like a construction, and compared with
``cap`` on every call, so a cap verdict does not depend on an earlier
build.

Everything in the algebra or the Kleisli category that lies over the
base is named in one place, the record both categories are: the category
itself, built from (u, A, B) triples; its own free functor F or D and
its counit; and every functor or transformation into it that lies over a
base one, built by ``functor_over`` and ``nat_over``. Those name each
image by the id scheme, and the ``Functor``/``NatTrans`` constructors
raise ComponentMistyped on an image that is not an object or not a
morphism.
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


class _Over:
    """A constructed category over the base of ``monad``: its morphism
    A → B over a base morphism u is named ``_name(u, A, B)``, and ``adj``
    is its canonical adjunction. Everything that lies over the base is
    named here, and the ``Functor``/``NatTrans`` constructors raise
    ComponentMistyped on an image that is not an object or a morphism."""

    __slots__ = ("monad", "category", "adj", "_underlying", "_name")

    def __init__(self, monad, name):
        self.monad = monad
        self._name = name

    def _assemble(self, objects, arrows, identity, compose) -> None:
        """The category on ``objects`` whose morphisms are the ``(u, A, B)``
        of ``arrows``, with identity at A over ``identity(A)`` and the
        composite of A → B over u and B → C over v over ``compose(u, v, C)``."""
        name = self._name
        morphisms, underlying = [], {}
        for u, a, b in arrows:
            mid = name(u, a, b)
            morphisms.append(Morphism(mid, a, b))
            underlying[mid] = u
        identities = {a: name(identity(a), a, a) for a in objects}

        def comp(f: Morphism, g: Morphism) -> str:
            return name(compose(underlying[f.id], underlying[g.id], g.tgt),
                        f.src, g.tgt)

        self._underlying = underlying
        self.category = assemble_category(objects, morphisms, identities, comp)

    def underlying(self, morph: str) -> str:
        """The base morphism that ``morph`` lies over."""
        return self._underlying[morph]

    def functor_over(self, source, obj_map: dict, under) -> Functor:
        """The functor from ``source`` into this category with object map
        ``obj_map`` that sends each morphism m to the morphism over
        ``under(m)``. ``Functor`` raises ComponentMistyped if an object
        image is not an object or a morphism image is not a morphism."""
        name = self._name
        return Functor(source, self.category, obj_map,
                       {mm.id: name(under(mm.id), obj_map[mm.src], obj_map[mm.tgt])
                        for mm in source.morphisms})

    def nat_over(self, F: Functor, G: Functor, under) -> NatTrans:
        """The transformation F → G into this category whose component at a
        is the morphism over ``under(a)``. ``NatTrans`` raises
        ComponentMistyped if that is not a morphism."""
        name = self._name
        return NatTrans(F, G, {a: name(under(a), F.ob(a), G.ob(a))
                               for a in F.source.objects})


class EmAlgebraCategory(_Over):
    """Algebras (X, chi) of a monad with the free/forgetful adjunction F ⊣ U."""

    __slots__ = ("U", "F", "_carrier", "_structure")

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

    def algebras_with_carrier(self, carrier: str) -> list:
        return [a for a in self.category.objects if self._carrier[a] == carrier]


def _require_under_cap(m: Monad, cap: int) -> None:
    """Raise EnumerationCapExceeded if the candidate structure maps of the
    algebras of ``m``, the morphisms SX → X, number more than ``cap``. The
    count is taken at the first call on ``m`` and kept in its memo."""
    base, S = m.base, m.S
    estimate = m.built("estimate", lambda: sum(
        len(base.hom(S.ob(x), x)) for x in base.objects))
    if estimate > cap:
        raise EnumerationCapExceeded(estimate, cap)


def _inducing(m: Monad, built: _Over, what: str) -> _Over:
    """``built``, once its adjunction is checked to induce ``m``."""
    if induced_monad(built.adj) != m:
        raise AssertionError(f"{what} adjunction does not induce its monad")
    return built


def em_category(m: Monad, cap: int = DEFAULT_CAP) -> EmAlgebraCategory:
    """Enumerate all algebras and algebra morphisms of a valid monad, at the
    first call on ``m``; later calls return the same object."""
    m.require_valid()
    _require_under_cap(m, cap)
    return m.built("algebras", lambda: _inducing(
        m, _em_category(m, _algebra_morphism_id), "algebra"))


def _em_category(m: Monad, name) -> EmAlgebraCategory:
    """The algebra construction for a valid monad; ``name(f, A, B)`` is the
    id of the algebra morphism A → B with underlying f."""
    base = m.base
    S = m.S

    carrier, structure = {}, {}
    for x in base.objects:
        for chi in base.hom(S.ob(x), x):
            # unit law chi ∘ eta_X = id_X and multiplication square
            if base.compose(m.eta.at(x), chi) != base.identity(x):
                continue
            if base.compose(m.mu.at(x), chi) != base.compose(S.mor(chi), chi):
                continue
            a = _algebra_id(x, chi)
            carrier[a] = x
            structure[a] = chi

    em = EmAlgebraCategory(m, name)
    em._carrier, em._structure = carrier, structure
    # algebra morphism square: f ∘ chi = chi' ∘ S f
    em._assemble(list(carrier),
                 ((f, a, b) for a in carrier for b in carrier
                  for f in base.hom(carrier[a], carrier[b])
                  if base.compose(structure[a], f) == base.compose(S.mor(f), structure[b])),
                 lambda a: base.identity(carrier[a]),
                 lambda f, g, _: base.compose(f, g))
    em.U = Functor(em.category, base, carrier, em._underlying)
    em.F = em.functor_over(
        base, {x: _algebra_id(S.ob(x), m.mu.at(x)) for x in base.objects}, S.mor)
    unit = NatTrans(identity_functor(base), compose_functors(em.U, em.F),
                    dict(m.eta.components))
    counit = em.nat_over(compose_functors(em.F, em.U),
                         identity_functor(em.category), structure.__getitem__)
    em.adj = Adjunction(em.F, em.U, unit, counit)
    return em


class EmCoalgebraCategory:
    """Coalgebras (N, xi) of a comonad with the adjunction U ⊣ F (cofree).

    A view of the algebras of :func:`monad_on_opposite`: a coalgebra
    (N, xi: N → GN) is an algebra of the same tables on the opposite
    category, a coalgebra morphism A → B is an algebra morphism B → A, and
    the category, U, F and the adjunction are the opposites of the algebra
    ones (the algebra adjunction F ⊣ U turns into U ⊣ F). ``on_opposite``
    is that algebra category, and every read of the coalgebras goes
    through it.
    """

    __slots__ = ("comonad", "category", "U", "F", "adj", "on_opposite")

    def __init__(self, comonad: Comonad, em: EmAlgebraCategory):
        self.comonad = comonad
        self.on_opposite = em
        self.adj = opposite_adjunction(em.adj)
        self.U = self.adj.L
        self.F = self.adj.R
        self.category = self.U.source


def em_coalgebra_category(c: Comonad, cap: int = DEFAULT_CAP) -> EmCoalgebraCategory:
    """Enumerate all coalgebras of a valid comonad: the algebras of the same
    tables on the opposite category, with each morphism named in the
    coalgebra direction. Built at the first call on ``c``; later calls
    return the same object."""
    c.require_valid()
    op = monad_on_opposite(c)
    _require_under_cap(op, cap)
    return c.built("coalgebras", lambda: EmCoalgebraCategory(c, _em_category(
        op, lambda f, src, tgt: _algebra_morphism_id(f, tgt, src))))


class KleisliCategory(_Over):
    """Same objects as the base; hom(X, Y) is hom_base(X, TY)."""

    __slots__ = ("D", "V")

    def kleisli_id(self, y: str, src: str, tgt: str) -> str:
        """The id of y♯: src → tgt, a morphism exactly if y: src → T tgt."""
        return _kleisli_id(y, src, tgt)


def kleisli_category(m: Monad) -> KleisliCategory:
    """The Kleisli category of a valid monad, built at the first call on
    ``m``; later calls return the same object."""
    m.require_valid()
    return m.built("kleisli", lambda: _inducing(
        m, _kleisli_category(m), "Kleisli"))


def _kleisli_category(m: Monad) -> KleisliCategory:
    base = m.base
    T = m.S

    kl = KleisliCategory(m, _kleisli_id)
    objects = list(base.objects)
    # z♯ ∘ y♯ has underlying mu_Z ∘ T z ∘ y
    kl._assemble(objects,
                 ((y, x, z) for x in objects for z in objects
                  for y in base.hom(x, T.ob(z))),
                 m.eta.at,
                 lambda y, z, c: base.compose(base.compose(y, T.mor(z)), m.mu.at(c)))
    kl.D = kl.functor_over(base, {x: x for x in objects},
                           lambda f: base.compose(f, m.eta.at(base.tgt(f))))
    kl.V = Functor(kl.category, base,
                   {x: T.ob(x) for x in objects},
                   {mm.id: base.compose(T.mor(kl.underlying(mm.id)), m.mu.at(mm.tgt))
                    for mm in kl.category.morphisms})
    unit = NatTrans(identity_functor(base), compose_functors(kl.V, kl.D),
                    dict(m.eta.components))
    counit = kl.nat_over(compose_functors(kl.D, kl.V), identity_functor(kl.category),
                         lambda x: base.identity(T.ob(x)))
    kl.adj = Adjunction(kl.D, kl.V, unit, counit)
    return kl
