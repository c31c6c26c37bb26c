"""Finitely presented categories, functors, and natural transformations.

Objects and morphisms are string ids. A category carries a dense, validated
composition table; every later structure (monads, adjunctions, algebra
categories) reduces its laws to lookups in such tables, which is what makes
all the theorem checks in this package decidable.

Conventions used throughout:

* ``compose(f, g)`` is diagrammatic: ``f`` first, then ``g``, i.e. g∘f.
* ``compose_functors(F, G)`` is the usual mathematical order F∘G
  (``G`` is applied first).
* ``vcomp(a, b)`` is diagrammatic like ``compose``.
* Equality of functors and transformations is pointwise, on the nose.
  Values built by different routes compare equal whenever all maps agree.
* Functors are hash-consed: one live object per functor between two
  category objects, so equal functors over the same categories are one
  object, and composites are memoised. Functors are shared and must never
  be mutated.

Identity morphisms may be omitted from raw descriptions; they are then
synthesized as ``id_<object>``. Composites forced by the unit laws (any
pair involving an identity) are filled in at validation time; all other
absent composites are a validation error.

All values are immutable after validation and safe to share between
threads. Construction of a single value is single-threaded.
"""

from __future__ import annotations

import weakref
from functools import total_ordering
# Deletes d[key] atomically, and only while it is a dead weak reference;
# weakref.WeakValueDictionary removes its entries with the same helper.
from _weakref import _remove_dead_weakref

from .errors import (
    CategoryValidationError,
    ComponentMistyped,
    CompositionTypeMismatch,
    EnumerationCapExceeded,
    TypeMismatch,
)
from .parallel import pmap
from .report import Violation, _Frozen

DEFAULT_CAP = 10_000_000


@total_ordering
class Morphism(_Frozen):
    """A morphism ``id``: ``src`` → ``tgt``, ordered by (id, src, tgt)."""

    __slots__ = ("id", "src", "tgt")

    def __init__(self, id: str, src: str, tgt: str):
        self._init(id, src, tgt)

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields < other._fields


class FinCategory:
    """A finite category with an explicit, total composition table.

    Instances are built through :func:`validate_category` (or
    :func:`assemble_category` for programmatic construction); the raw
    constructor trusts already-canonical data: objects sorted, morphisms
    sorted by id.
    """

    __slots__ = ("objects", "morphisms", "identities",
                 "_index", "_by_id", "_hom", "_by_src", "_table", "_key", "_op",
                 "_object_ids", "_morphism_ids", "_functors", "_index_hom",
                 "_positions", "_arrow_positions", "_functor_plan")

    def __init__(self, objects, morphisms, identities, composition):
        self.objects = tuple(objects)
        self.morphisms = tuple(morphisms)
        self.identities = dict(identities)
        self._index = {m.id: i for i, m in enumerate(self.morphisms)}
        self._by_id = {m.id: m for m in self.morphisms}
        self._object_ids = frozenset(self.identities)
        self._morphism_ids = frozenset(self._by_id)
        hom = {}
        by_src = {}
        for m in self.morphisms:
            hom.setdefault((m.src, m.tgt), []).append(m.id)
            by_src.setdefault(m.src, []).append(m.id)
        self._hom = {k: tuple(v) for k, v in hom.items()}
        self._by_src = {k: tuple(v) for k, v in by_src.items()}
        n = len(self.morphisms)
        table = [[-1] * n for _ in range(n)]
        for (f, g), h in composition.items():
            table[self._index[f]][self._index[g]] = self._index[h]
        self._table = table
        self._key = None
        self._op = None
        # Weak references to the live functors out of this category, by
        # target id and images; see Functor.
        self._functors = {}
        self._index_hom = None
        self._positions = None
        self._arrow_positions = None
        self._functor_plan = None

    # -- lookups -----------------------------------------------------------

    def has_morphism(self, m: str) -> bool:
        return m in self._by_id

    def morphism(self, m: str) -> Morphism:
        return self._by_id[m]

    def src(self, m: str) -> str:
        return self._by_id[m].src

    def tgt(self, m: str) -> str:
        return self._by_id[m].tgt

    def identity(self, x: str) -> str:
        return self.identities[x]

    def is_identity(self, m: str) -> bool:
        mm = self._by_id[m]
        return self.identities.get(mm.src) == m

    def hom(self, a: str, b: str) -> tuple:
        return self._hom.get((a, b), ())

    def out_of(self, a: str) -> tuple:
        return self._by_src.get(a, ())

    def composable(self, first: str, then: str) -> bool:
        return self._by_id[first].tgt == self._by_id[then].src

    def compose(self, first: str, then: str) -> str:
        """Return then ∘ first (diagrammatic order)."""
        i = self._index.get(first)
        j = self._index.get(then)
        if i is None or j is None:
            raise CompositionTypeMismatch(f"unknown morphism in ({first}, {then})")
        k = self._table[i][j]
        if k < 0:
            raise CompositionTypeMismatch(f"{then}∘{first} is not defined")
        return self.morphisms[k].id

    def composable_pairs(self):
        for f in self.morphisms:
            for g in self._by_src.get(f.tgt, ()):
                yield f.id, g

    def composition_items(self):
        """Yield (first, then, equals) triples in canonical order."""
        for f, g in self.composable_pairs():
            yield f, g, self.compose(f, g)

    def index_hom(self) -> dict:
        """hom(a, b) as morphism indices, keyed by (a, b); built once."""
        if self._index_hom is None:
            index = self._index
            self._index_hom = {k: tuple(index[h] for h in v)
                               for k, v in self._hom.items()}
        return self._index_hom

    def positions(self) -> dict:
        """Each object's position in ``objects``; built once."""
        if self._positions is None:
            self._positions = {x: i for i, x in enumerate(self.objects)}
        return self._positions

    def arrow_positions(self) -> tuple:
        """(id, position of source, position of target) of every
        non-identity morphism, in order; built once."""
        if self._arrow_positions is None:
            pos = self.positions()
            self._arrow_positions = tuple(
                (m.id, pos[m.src], pos[m.tgt]) for m in self.morphisms
                if self.identities[m.src] != m.id)
        return self._arrow_positions

    def is_thin(self) -> bool:
        return all(len(v) <= 1 for v in self._hom.values())

    def le(self, a: str, b: str) -> bool:
        """hom(a, b) is inhabited; the order relation of a thin category."""
        return bool(self.hom(a, b))

    # -- equality ----------------------------------------------------------

    def canonical_key(self):
        if self._key is None:
            comp = tuple(sorted(self.composition_items()))
            self._key = (self.objects, self.morphisms,
                         tuple(sorted(self.identities.items())), comp)
        return self._key

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FinCategory):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        return (f"FinCategory({len(self.objects)} objects, "
                f"{len(self.morphisms)} morphisms)")


_CATEGORY_FIELDS = {"objects": list, "morphisms": list, "composition": list,
                    "identities": dict}
_TYPE_NAMES = {dict: "an object", list: "a list", str: "a path"}


def schema_violations(raw, fields: dict, what: str, tag: str,
                      optional=()) -> list:
    """The shape errors of a raw file of one kind: a top level that is not
    an object, unknown fields, missing required fields, and fields whose
    value is not of the type (or tuple of types) ``fields`` gives them."""
    def bad(kind, where, detail):
        return Violation(kind, tag, where=where, detail=detail)

    if not isinstance(raw, dict):
        return [bad("NotAnObject", type(raw).__name__,
                    f"a {what} must be a JSON object")]
    out = [bad("UnknownField", str(k), f"not a {what} field")
           for k in raw if k not in fields]
    for name, types in fields.items():
        if name not in raw:
            if name not in optional:
                out.append(bad("MissingField", name, "required field"))
        elif not isinstance(raw[name], types):
            want = " or ".join(_TYPE_NAMES[t] for t in
                               (types if isinstance(types, tuple) else (types,)))
            out.append(bad("WrongFieldType", name, f"must be {want}"))
    return out


def validate_category(raw: dict) -> FinCategory:
    """Validate a raw category description and return the canonical value.

    ``raw`` follows the JSON file format: an object with the lists
    ``objects`` and ``morphisms``, an optional ``identities`` object, and
    a ``composition`` list of entries ``{"first", "then", "equals"}``
    meaning equals = then ∘ first; any other field is an error. Raises
    :class:`CategoryValidationError` listing every violated axiom
    instance otherwise. Validating the raw form of a validated category
    yields an equal value.

    Associativity is decided exactly, on every input, by Light's test:
    (f;g);h = f;(g;h) is checked for every g in a set G that generates all
    morphisms under the table, and every composable f and h. Call g good
    when it passes for every f and h. If g1 and g2 are good, so is g1;g2:
    (f;(g1;g2));h = ((f;g1);g2);h = (f;g1);(g2;h) = f;(g1;(g2;h))
    = f;((g1;g2);h), by g1, g2, g1 and g2 again. So the good morphisms are
    closed under composition, and when every generator is good, every
    morphism is. A table that fails names only failing triples whose
    middle morphism is in G. On the monoid of all maps of a 4-element set
    that is 5 × 256² checks instead of 256³.
    """
    violations = schema_violations(raw, _CATEGORY_FIELDS, "category",
                                   "law-category-structure",
                                   optional=("identities",))
    if not isinstance(raw, dict):
        raise CategoryValidationError(violations)
    # Only well-typed fields are read. A malformed one reads as absent, so
    # the checks below still report what else is wrong, and the schema
    # violations are raised together with theirs.
    raw = {k: v for k, v in raw.items()
           if isinstance(v, _CATEGORY_FIELDS.get(k, ()))}

    objects = list(raw.get("objects", ()))
    seen_obj = set()
    for x in objects:
        if not isinstance(x, str):
            violations.append(Violation("DanglingId", "law-category-structure",
                                        where=repr(x),
                                        detail="object ids must be strings"))
        elif x in seen_obj:
            violations.append(Violation("DuplicateId", "law-category-structure",
                                        where=x, detail="duplicate object id"))
        else:
            seen_obj.add(x)

    morphs = []
    by_id = {}
    for item in raw.get("morphisms", ()):
        if isinstance(item, Morphism):
            m = item
        else:
            try:
                ids = item["id"], item["src"], item["tgt"]
            except (KeyError, TypeError):
                ids = ()
            if not ids or not all(isinstance(i, str) for i in ids):
                violations.append(Violation(
                    "DanglingId", "law-category-structure", where=repr(item),
                    detail="morphism ids must be strings" if ids
                    else "morphism needs id/src/tgt"))
                continue
            m = Morphism(*ids)
        if m.id in by_id:
            violations.append(Violation("DuplicateId", "law-category-structure",
                                        where=m.id,
                                        detail="duplicate morphism id"))
            continue
        if m.src not in seen_obj or m.tgt not in seen_obj:
            violations.append(Violation("DanglingId", "law-category-structure",
                                        where=m.id,
                                        detail="src or tgt is not a declared object"))
            continue
        by_id[m.id] = m
        morphs.append(m)

    if violations:
        raise CategoryValidationError(violations)

    identities = {}
    raw_ids = raw.get("identities")
    if raw_ids is None:
        for x in objects:
            name = f"id_{x}"
            m = by_id.get(name)
            if m is not None and (m.src, m.tgt) == (x, x):
                identities[x] = name
            elif m is not None:
                violations.append(Violation(
                    "DanglingId", "law-category-structure", where=name,
                    detail="cannot synthesize identity: id taken by a non-endomorphism"))
            else:
                m = Morphism(name, x, x)
                by_id[name] = m
                morphs.append(m)
                identities[x] = name
    else:
        for x in objects:
            name = raw_ids.get(x)
            if name is None:
                violations.append(Violation("MissingIdentity", "law-category-unit",
                                            where=x))
            elif not isinstance(name, str) or name not in by_id:
                violations.append(Violation("DanglingId", "law-category-structure",
                                            where=str(name),
                                            detail=f"identity of {x} not declared"))
            elif (by_id[name].src, by_id[name].tgt) != (x, x):
                violations.append(Violation("MistypedIdentity", "law-category-unit",
                                            where=x, lhs=name,
                                            rhs=f"hom({x},{x})"))
            else:
                identities[x] = name
        for key in raw_ids:
            if key not in seen_obj:
                violations.append(Violation("DanglingId", "law-category-structure",
                                            where=str(key),
                                            detail="identity key is not an object"))

    if violations:
        raise CategoryValidationError(violations)

    comp = {}
    for item in raw.get("composition", ()):
        try:
            ids = item["first"], item["then"], item["equals"]
        except (KeyError, TypeError):
            ids = ()
        if not ids or not all(isinstance(i, str) for i in ids):
            violations.append(Violation(
                "MalformedEntry", "law-category-composition", where=repr(item),
                detail="composition ids must be strings" if ids else ""))
            continue
        f, g, h = ids
        if f not in by_id or g not in by_id or h not in by_id:
            violations.append(Violation("DanglingId", "law-category-composition",
                                        where=f"{g}∘{f}"))
            continue
        if by_id[f].tgt != by_id[g].src:
            violations.append(Violation("NotComposable", "law-category-composition",
                                        where=f"{g}∘{f}"))
            continue
        if (f, g) in comp and comp[(f, g)] != h:
            violations.append(Violation("ConflictingComposite",
                                        "law-category-composition",
                                        where=f"{g}∘{f}", lhs=comp[(f, g)], rhs=h))
            continue
        comp[(f, g)] = h
        want = (by_id[f].src, by_id[g].tgt)
        if (by_id[h].src, by_id[h].tgt) != want:
            violations.append(Violation("CompositeTypeMismatch",
                                        "law-category-composition",
                                        where=f"{g}∘{f}", lhs=h,
                                        rhs=f"hom{want}"))

    # Unit-law-forced composites may be omitted in input files.
    for m in morphs:
        comp.setdefault((identities[m.src], m.id), m.id)
        comp.setdefault((m.id, identities[m.tgt]), m.id)

    by_src = {}
    for m in morphs:
        by_src.setdefault(m.src, []).append(m)

    for f in morphs:
        for g in by_src.get(f.tgt, ()):
            if (f.id, g.id) not in comp:
                violations.append(Violation("MissingComposite",
                                            "law-category-composition",
                                            where=f"{g.id}∘{f.id}"))

    for m in morphs:
        left = comp.get((identities[m.src], m.id))
        if left is not None and left != m.id:
            violations.append(Violation("UnitLawViolation", "law-category-unit",
                                        where=m.id, lhs=left, rhs=m.id))
        right = comp.get((m.id, identities[m.tgt]))
        if right is not None and right != m.id:
            violations.append(Violation("UnitLawViolation", "law-category-unit",
                                        where=m.id, lhs=right, rhs=m.id))

    # Light's test; the docstring says why it covers every triple
    by_tgt = {}
    for m in morphs:
        by_tgt.setdefault(m.tgt, []).append(m)
    for g in _generators(morphs, by_id, by_src, comp):
        after = [(h.id, comp.get((g.id, h.id))) for h in by_src.get(g.tgt, ())]
        for f in by_tgt.get(g.src, ()):
            fg = comp.get((f.id, g.id))
            for h, gh in after:
                left = comp.get((fg, h))
                right = comp.get((f.id, gh))
                if left != right and None not in (left, right):
                    violations.append(Violation(
                        "NonAssociative", "law-category-assoc",
                        where=f"({f.id},{g.id},{h})", lhs=left, rhs=right))

    if violations:
        raise CategoryValidationError(violations)

    objects_sorted = tuple(sorted(objects))
    morphs_sorted = tuple(sorted(morphs, key=lambda m: m.id))
    return FinCategory(objects_sorted, morphs_sorted, identities, comp)


def _generators(morphs, by_id, by_src, comp) -> list:
    """Morphisms that generate every morphism under ``comp``: each one the
    earlier ones do not generate, taken by how many distinct composites it
    has with what follows it, most first, then in source order. The first
    reach the most, so the set is small: 5 of the 256 maps of a 4-set."""
    def reach(m):
        return -len({comp.get((m.id, h.id)) for h in by_src.get(m.tgt, ())})

    reached = set()  # closed under comp after each generator
    out_of, into = {}, {}
    gens = []
    for m in sorted(morphs, key=reach):
        if m.id in reached:
            continue
        gens.append(m)
        fresh = [m.id]
        while fresh:
            x = by_id[fresh.pop()]
            if x.id in reached:
                continue
            reached.add(x.id)
            out_of.setdefault(x.src, []).append(x.id)
            into.setdefault(x.tgt, []).append(x.id)
            fresh += [comp[x.id, y] for y in out_of.get(x.tgt, ())
                      if (x.id, y) in comp]
            fresh += [comp[y, x.id] for y in into.get(x.src, ())
                      if (y, x.id) in comp]
    return gens


def assemble_category(objects, morphisms, identities, compose_fn) -> FinCategory:
    """Build and fully validate a category from a composition rule.

    ``compose_fn(f, g)`` must return the id of g∘f for every composable
    pair of :class:`Morphism` values. Constructed categories go through the
    same validation as file input, so construction bugs fail loudly.
    """
    by_src = {}
    for m in morphisms:
        by_src.setdefault(m.src, []).append(m)
    entries = []
    for f in morphisms:
        for g in by_src.get(f.tgt, ()):
            entries.append({"first": f.id, "then": g.id,
                            "equals": compose_fn(f, g)})
    raw = {
        "objects": list(objects),
        "morphisms": list(morphisms),
        "identities": dict(identities),
        "composition": entries,
    }
    return validate_category(raw)


def opposite(cat: FinCategory) -> FinCategory:
    """The category with the same cells and all arrows reversed.

    The opposite of a valid category is valid, so it is built without
    revalidation, and it is built once: ``opposite(opposite(cat))`` is
    ``cat`` itself.
    """
    if cat._op is None:
        # g∘f in the opposite is f∘g in the original
        op = FinCategory(cat.objects,
                         [Morphism(m.id, m.tgt, m.src) for m in cat.morphisms],
                         cat.identities,
                         {(g, f): h for f, g, h in cat.composition_items()})
        op._op = cat
        cat._op = op
    return cat._op


# ---------------------------------------------------------------------------
# Functors


class _WeakEntry(weakref.ref):
    """A weak reference stored as ``table[key]``: once its referent dies,
    :func:`_drop_entry` removes it, unless the entry was replaced."""

    __slots__ = ("table", "key")


def _drop_entry(entry: _WeakEntry) -> None:
    _remove_dead_weakref(entry.table, entry.key)


class _Composite(weakref.ref):
    """``G._composed[id(F)]``: a weak reference to F that carries F∘G as
    ``value``. It holds F∘G strongly, unless F∘G is F or G itself, which
    it holds by a weak reference: held strongly, G would keep F alive or
    itself in a cycle. Once F dies, :func:`_forget_composite` removes the
    entry; ``owner`` refers to G weakly, so an entry keeps nothing alive
    but F∘G."""

    __slots__ = ("owner", "key", "value")


def _forget_composite(entry: _Composite) -> None:
    G = entry.owner()
    if G is not None:
        _remove_dead_weakref(G._composed, entry.key)


class Functor:
    """A functor between finite categories, as explicit total maps.

    Functors are hash-consed. Building a functor with the same maps as a
    live functor between the same two category objects returns that
    functor: the source's intern table holds every functor out of it
    weakly, keyed by the target's identity and the images in source
    order. So a functor is shared by everything that built it and must
    never be mutated, and two distinct functors between the same two
    category objects are unequal. Categories that are equal but distinct
    objects keep separate tables; functors over them compare by value.

    ``__new__`` checks every image and refuses a key that names no
    source object or morphism, then interns through :meth:`_interned`;
    ``__init__`` is left empty. The functor search calls ``_interned``
    directly, since it draws every image from the target.
    """

    __slots__ = ("source", "target", "object_map", "morphism_map", "_key", "_op",
                 "_composed", "__weakref__")

    def __new__(cls, source: FinCategory, target: FinCategory,
                object_map: dict, morphism_map: dict):
        oimages = tuple(map(object_map.get, source.objects))
        mimages = tuple(map(morphism_map.get, source._by_id))
        if not (target._object_ids.issuperset(oimages)
                and target._morphism_ids.issuperset(mimages)):
            for x, y in zip(source.objects, oimages):
                if y not in target._object_ids:
                    raise ComponentMistyped(f"object {x!r} has no valid image")
            for m, n in zip(source._by_id, mimages):
                if n not in target._morphism_ids:
                    raise ComponentMistyped(f"morphism {m!r} has no valid image")
        # every source id has a key, so a longer map has a key naming none
        if len(object_map) != len(oimages):
            x = next(x for x in object_map if x not in source._object_ids)
            raise ComponentMistyped(f"object map key {x!r} is no object of the source")
        if len(morphism_map) != len(mimages):
            m = next(m for m in morphism_map if m not in source._by_id)
            raise ComponentMistyped(
                f"morphism map key {m!r} is no morphism of the source")
        return cls._interned(source, target, oimages, mimages)

    @classmethod
    def _interned(cls, source: FinCategory, target: FinCategory,
                  oimages: tuple, mimages: tuple) -> Functor:
        """The live functor with these images, in source order, or a new
        one. The images are trusted to be ids of ``target``."""
        key = (id(target), oimages, mimages)
        table = source._functors
        entry = table.get(key)
        if entry is not None:
            F = entry()
            if F is not None:
                return F
        F = object.__new__(cls)
        F.source = source
        F.target = target
        F.object_map = dict(zip(source.objects, oimages))
        F.morphism_map = dict(zip(source._by_id, mimages))
        F._key = key[1:]
        F._op = None
        F._composed = None  # compose_functors(H, F): id(H) -> _Composite(H, H∘F)
        entry = _WeakEntry(F, _drop_entry)
        entry.table = table
        entry.key = key
        # setdefault and _remove_dead_weakref are each atomic, so threads
        # that build the same functor at once all get one object.
        while True:
            old = table.setdefault(key, entry)
            if old is entry:
                return F
            other = old()
            if other is not None:
                return other
            _remove_dead_weakref(table, key)

    def __init__(self, source: FinCategory, target: FinCategory,
                 object_map: dict, morphism_map: dict):
        pass

    def ob(self, x: str) -> str:
        return self.object_map[x]

    def mor(self, m: str) -> str:
        return self.morphism_map[m]

    def canonical_key(self):
        """The object and the morphism images, in source order. A source
        lists its objects and morphisms sorted by id, so of two functors
        out of equal categories the keys compare as their sorted maps do."""
        return self._key

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Functor):
            return NotImplemented
        if self.source is other.source and self.target is other.target:
            return False  # interned: equal maps would be the same object
        return (self.source == other.source and self.target == other.target
                and self.canonical_key() == other.canonical_key())

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        return f"Functor({self.object_map})"


def check_functor(F: Functor) -> list:
    """Report every functor-law violation; empty report means lawful."""
    out = []
    src, tgt = F.source, F.target
    for m in src.morphisms:
        n = tgt.morphism(F.mor(m.id))
        if (n.src, n.tgt) != (F.ob(m.src), F.ob(m.tgt)):
            out.append(Violation("SourceTargetMismatch", "law-functor",
                                 where=m.id, lhs=n.id,
                                 rhs=f"hom({F.ob(m.src)},{F.ob(m.tgt)})"))
    for x in src.objects:
        if F.mor(src.identity(x)) != tgt.identity(F.ob(x)):
            out.append(Violation("IdentityNotPreserved", "law-functor",
                                 where=x, lhs=F.mor(src.identity(x)),
                                 rhs=tgt.identity(F.ob(x))))
    for f, g in src.composable_pairs():
        fi, gi = F.mor(f), F.mor(g)
        if tgt.morphism(fi).tgt != tgt.morphism(gi).src:
            continue  # already reported as a source/target mismatch
        if F.mor(src.compose(f, g)) != tgt.compose(fi, gi):
            out.append(Violation("CompositionNotPreserved", "law-functor",
                                 where=f"({f},{g})",
                                 lhs=F.mor(src.compose(f, g)),
                                 rhs=tgt.compose(fi, gi)))
    return out


def identity_functor(cat: FinCategory) -> Functor:
    """The live identity functor of ``cat`` from its intern table, built
    only if there is none."""
    entry = cat._functors.get((id(cat), cat.objects, tuple(cat._by_id)))
    F = entry() if entry is not None else None
    if F is None:
        F = Functor(cat, cat, {x: x for x in cat.objects},
                    {m: m for m in cat._by_id})
    return F


def opposite_functor(F: Functor) -> Functor:
    """F^op: the same maps between the opposite categories, built once like
    :func:`opposite`."""
    if F._op is None:
        F._op = Functor(opposite(F.source), opposite(F.target),
                        F.object_map, F.morphism_map)
        F._op._op = F
    return F._op


def compose_functors(F: Functor, G: Functor) -> Functor:
    """F∘G: apply G first, then F.

    Memoised on G by the identity of F, so each composite is built once
    while both factors live. The memo holds F weakly and F∘G strongly,
    unless F∘G is F or G, and drops the entry as soon as F dies: it keeps
    F∘G, and so F's target, alive exactly while F and G are.
    """
    memo = G._composed
    if memo is None:
        memo = G._composed = {}
    entry = memo.get(id(F))
    if entry is not None and entry() is F:
        FG = entry.value
        return FG() if type(FG) is weakref.ref else FG
    if G.target is not F.source and G.target != F.source:
        raise CompositionTypeMismatch("functor composition: target/source differ")
    fob, fmor = F.object_map, F.morphism_map
    FG = Functor(G.source, F.target,
                 {x: fob[y] for x, y in G.object_map.items()},
                 {m: fmor[n] for m, n in G.morphism_map.items()})
    entry = _Composite(F, _forget_composite)
    entry.owner = weakref.ref(G)
    entry.key = id(F)
    entry.value = weakref.ref(FG) if FG is F or FG is G else FG
    memo[id(F)] = entry
    return FG


# ---------------------------------------------------------------------------
# Natural transformations


class NatTrans:
    """A transformation between parallel functors, one component per object.

    The constructor checks that the functors are parallel, that each base
    object has a component in its hom-set and that no key names anything
    else, and keeps the components in base-object order. :meth:`_typed`
    checks nothing: the searches and the pastings call it, since they
    draw every component from its hom-set in that order.
    """

    __slots__ = ("source", "target", "components", "_key", "_op")

    def __init__(self, source: Functor, target: Functor, components: dict):
        if source.source != target.source or source.target != target.target:
            raise TypeMismatch("transformation between non-parallel functors")
        morphisms = source.target._by_id
        tob = target.object_map
        comps = {}
        for x, a in source.object_map.items():
            c = components.get(x)
            m = morphisms.get(c)
            if m is None:
                raise ComponentMistyped(f"component at {x!r} missing")
            if m.src != a or m.tgt != tob[x]:
                raise ComponentMistyped(
                    f"component at {x!r} must lie in hom({a},{tob[x]}), got {c!r}")
            comps[x] = c
        if len(components) != len(comps):
            x = next(x for x in components if x not in comps)
            raise ComponentMistyped(f"component key {x!r} is no object of the base")
        self.source = source
        self.target = target
        self.components = comps
        self._key = None
        self._op = None

    @classmethod
    def _typed(cls, source: Functor, target: Functor, components: dict) -> NatTrans:
        """The transformation with these components, trusted to be keyed by
        the base objects in their order, each in its hom-set."""
        alpha = object.__new__(cls)
        alpha.source = source
        alpha.target = target
        alpha.components = components
        alpha._key = None
        alpha._op = None
        return alpha

    def at(self, x: str) -> str:
        return self.components[x]

    @property
    def base(self) -> FinCategory:
        return self.source.source

    @property
    def cod(self) -> FinCategory:
        return self.source.target

    def canonical_key(self):
        if self._key is None:
            self._key = tuple(sorted(self.components.items()))
        return self._key

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, NatTrans):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.components == other.components)

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        return f"NatTrans({self.components})"


def check_naturality(alpha: NatTrans) -> list:
    """Report every failing naturality square of the transformation."""
    out = []
    D = alpha.cod
    # Each composite is a table lookup by index.
    index, table, names = D._index, D._table, D.morphisms
    comps = alpha.components
    fmor, gmor = alpha.source.morphism_map, alpha.target.morphism_map
    for m in alpha.base.morphisms:
        lhs = table[index[comps[m.src]]][index[gmor[m.id]]]
        rhs = table[index[fmor[m.id]]][index[comps[m.tgt]]]
        if lhs < 0 or rhs < 0:
            # a functor maps m off its hom-set; compose names the pair
            D.compose(comps[m.src], gmor[m.id])
            D.compose(fmor[m.id], comps[m.tgt])
        if lhs != rhs:
            out.append(Violation("NaturalityViolation", "law-naturality",
                                 where=m.id, lhs=names[lhs].id,
                                 rhs=names[rhs].id))
    return out


def opposite_nat(alpha: NatTrans) -> NatTrans:
    """alpha^op: G^op → F^op for alpha: F → G, with the same components,
    built once like :func:`opposite`."""
    if alpha._op is None:
        alpha._op = NatTrans(opposite_functor(alpha.target),
                             opposite_functor(alpha.source), alpha.components)
        alpha._op._op = alpha
    return alpha._op


def identity_nat(F: Functor) -> NatTrans:
    return NatTrans._typed(F, F, identity_at(F))


# Pastings by components. A law check or a mate pastes whiskered
# transformations, but only ever reads the components of the result, so
# these compute the component dict alone, in base-object order, and build
# no functor or transformation; whisker_left, whisker_right and vcomp wrap
# them. They trust their inputs to compose: each caller pastes
# transformations it has typed already.


def identity_at(F: Functor) -> dict:
    """The components of the identity transformation of F."""
    ident = F.target.identities
    return {x: ident[y] for x, y in F.object_map.items()}


def vcomp_at(D: FinCategory, a: dict, b: dict) -> dict:
    """The components of the vertical composite of two transformations
    into ``D`` given by their components: ``a`` first, then ``b``."""
    compose = D.compose
    return {x: compose(f, b[x]) for x, f in a.items()}


def whisker_left_at(F: Functor, alpha: dict) -> dict:
    """The components of F α, from those of α: F(α_X)."""
    mor = F.morphism_map
    return {x: mor[f] for x, f in alpha.items()}


def whisker_right_at(alpha: dict, F: Functor) -> dict:
    """The components of α F, from those of α: α_{F X}."""
    return {x: alpha[y] for x, y in F.object_map.items()}


def vcomp(a: NatTrans, b: NatTrans) -> NatTrans:
    """Vertical composite, diagrammatic: ``a`` first, then ``b``."""
    if a.target != b.source:
        raise TypeMismatch("vertical composition: middle functors differ")
    return NatTrans._typed(a.source, b.target,
                           vcomp_at(a.cod, a.components, b.components))


def whisker_left(F: Functor, alpha: NatTrans) -> NatTrans:
    """F α, the functor applied after: components F(α_X)."""
    if F.source != alpha.cod:
        raise TypeMismatch("left whiskering: categories differ")
    return NatTrans._typed(compose_functors(F, alpha.source),
                           compose_functors(F, alpha.target),
                           whisker_left_at(F, alpha.components))


def whisker_right(alpha: NatTrans, F: Functor) -> NatTrans:
    """α F, the functor applied before: components α_{F X}."""
    if F.target != alpha.base:
        raise TypeMismatch("right whiskering: categories differ")
    return NatTrans._typed(compose_functors(alpha.source, F),
                           compose_functors(alpha.target, F),
                           whisker_right_at(alpha.components, F))


def hcomp(alpha: NatTrans, beta: NatTrans) -> NatTrans:
    """Horizontal composite of α: F→G over A→B and β: H→K over B→C.

    Returns H∘F → K∘G; by the interchange law the two whiskering orders
    agree, and tests check this exhaustively.
    """
    return vcomp(whisker_right(beta, alpha.source),
                 whisker_left(beta.target, alpha))


# ---------------------------------------------------------------------------
# Enumeration
#
# Functors and transformations are found by one backtracking search. The
# variables come in a fixed order, and each constraint is filed under the
# last variable it mentions, so it is checked as soon as all of its
# variables are assigned and a partial assignment that already breaks a
# law is never extended. The cap bounds the candidate values tried over
# the whole search, not the size of the product it prunes.


class _Budget:
    """Counts the candidate values tried; raises once the count passes the cap."""

    __slots__ = ("cap", "used")

    def __init__(self, cap: int):
        self.cap = cap
        self.used = 0

    def spend(self, n: int) -> None:
        self.used += n
        if self.used > self.cap:
            raise EnumerationCapExceeded(self.used, self.cap)


def _backtrack(domains, checks, budget: _Budget) -> list:
    """Every assignment of one value per variable that passes all checks.

    ``domains[i]`` lists the candidate values of variable ``i``;
    ``checks[i]`` holds predicates on the assignment list that mention
    variable ``i`` and no later one. Solutions are tuples, in the
    lexicographic order of domain positions. Every value of a domain is
    tried whenever its variable is reached, so the budget is charged one
    whole domain at a time. The search keeps its own stack, so the number
    of variables is not bounded by the recursion limit.
    """
    n = len(domains)
    if n == 0:
        return [()]
    sizes = [len(d) for d in domains]
    assign = [None] * n
    nxt = [0] * n  # per variable, the domain position to try next
    out = []
    budget.spend(sizes[0])
    # Charged locally and settled once at the end, or as soon as the
    # count passes the cap.
    cap = budget.cap
    start = used = budget.used
    last = n - 1
    i = 0
    while i >= 0:
        k = nxt[i]
        if k == sizes[i]:
            i -= 1
            continue
        nxt[i] = k + 1
        assign[i] = domains[i][k]
        for ok in checks[i]:
            if not ok(assign):
                break
        else:
            if i == last:
                out.append(tuple(assign))
            else:
                i += 1
                nxt[i] = 0
                used += sizes[i]
                if used > cap:
                    break
    budget.spend(used - start)
    return out


def enumerate_nat_trans(F: Functor, G: Functor, cap: int = DEFAULT_CAP) -> list:
    """All natural transformations F → G, canonically ordered.

    Components are chosen object by object in hom(F x, G x); the
    naturality square of a morphism is checked as soon as both of its
    components are chosen.
    """
    if F.source != G.source or F.target != G.target:
        raise TypeMismatch("transformation between non-parallel functors")
    C, D = F.source, F.target
    objs = C.objects
    # Components are target indices, so a composite is a table lookup.
    index, table, hom = D._index, D._table, D.index_hom()
    fob, gob = F.object_map, G.object_map
    domains = [hom.get((fob[x], gob[x]), ()) for x in objs]
    if not all(domains):
        return []
    fmor, gmor = F.morphism_map, G.morphism_map
    checks = [[] for _ in objs]
    for m, i, j in C.arrow_positions():
        fm, gm = index[fmor[m]], index[gmor[m]]
        # the square of m: G m ∘ alpha_src = alpha_tgt ∘ F m
        checks[max(i, j)].append(
            lambda a, i=i, j=j, fm=fm, gm=gm: table[a[i]][gm] == table[fm][a[j]])
    names = D.morphisms
    return [NatTrans._typed(F, G, {x: names[k].id for x, k in zip(objs, comps)})
            for comps in _backtrack(domains, checks, _Budget(cap))]


def _object_plan(cat: FinCategory) -> tuple:
    """Object checks for the object images of functors out of ``cat``.

    There is one check "hom(F i, F j) is inhabited" per pair of positions
    i != j joined by a morphism, filed under max(i, j). A check is left out
    when a path of checks already kept leads from i to j, since then it
    holds by composition. Pairs are decided level by level, and within a
    level the pair whose other end is nearest first, so a chain keeps only
    the checks (i, i + 1). A kept check on the path mentions no position
    above max(i, j), so it fires at the same level or earlier, and every
    partial assignment is pruned where it was with every check. Testing
    against all pairs instead of the kept ones would let two checks imply
    each other away. Returns the kept pairs, grouped by level.
    """
    pos = cat.positions()
    pairs = sorted({(pos[m.src], pos[m.tgt]) for m in cat.morphisms
                    if m.src != m.tgt}, key=lambda p: (max(p), -min(p), p))
    kept = {}  # i -> the j of each kept check (i, j)
    levels = [[] for _ in cat.objects]
    for i, j in pairs:
        seen, todo = {i}, [i]
        while todo:
            for k in kept.get(todo.pop(), ()):
                if k not in seen:
                    seen.add(k)
                    todo.append(k)
        if j not in seen:
            kept.setdefault(i, []).append(j)
            levels[max(i, j)].append((i, j))
    return tuple(map(tuple, levels))


def _morphism_plan(cat: FinCategory) -> tuple:
    """Search order and composition checks for the morphism images of
    functors out of ``cat``.

    Identities come first: their images are forced. Each freely chosen
    morphism is followed by every composite of the morphisms placed so
    far, whose check then fires at once. Pairs with an identity are left
    out of the checks, since the forced identity images satisfy them.

    Returns ``(checks, units, arrows, loops, where, ends)``: ``checks[i]``
    lists the positions ``(f, g, h)`` with f;g = h whose last position is
    ``i``; ``units`` holds the object position of each identity and
    ``arrows`` the positions of the source and target objects of each other
    morphism, in search order; ``loops`` holds the object positions whose
    identity is the composite of two other morphisms. ``where`` and
    ``ends`` are in source order: the search position of each morphism, and
    the positions of its source and target objects.
    """
    order = [m.id for m in cat.morphisms if cat.is_identity(m.id)]
    identities = set(order)
    triples = [(f, g, cat.compose(f, g)) for f, g in cat.composable_pairs()
               if f not in identities and g not in identities]
    placed = set(order)
    for m in cat.morphisms:
        if m.id in placed:
            continue
        order.append(m.id)
        placed.add(m.id)
        grew = True
        while grew:
            grew = False
            for f, g, h in triples:
                if h not in placed and f in placed and g in placed:
                    order.append(h)
                    placed.add(h)
                    grew = True
    pos = {m: i for i, m in enumerate(order)}
    checks = [[] for _ in order]
    for f, g, h in triples:
        i, j, k = pos[f], pos[g], pos[h]
        checks[max(i, j, k)].append((i, j, k))
    opos = cat.positions()
    cut = len(identities)
    units = tuple(opos[cat.src(m)] for m in order[:cut])
    arrows = tuple((opos[cat.src(m)], opos[cat.tgt(m)]) for m in order[cut:])
    loops = tuple(sorted({opos[cat.src(h)] for f, g, h in triples
                          if h in identities}))
    where = tuple(pos[m.id] for m in cat.morphisms)
    ends = tuple((opos[m.src], opos[m.tgt]) for m in cat.morphisms)
    return tuple(map(tuple, checks)), units, arrows, loops, where, ends


def _functor_plan(cat: FinCategory) -> tuple:
    """The object checks of :func:`_object_plan` followed by the morphism
    plan of :func:`_morphism_plan`, for functors out of ``cat``, as
    positions; built once per category."""
    if cat._functor_plan is None:
        cat._functor_plan = (_object_plan(cat),) + _morphism_plan(cat)
    return cat._functor_plan


def enumerate_functors(source: FinCategory, target: FinCategory,
                       cap: int = DEFAULT_CAP, jobs: int = 1) -> list:
    """All functors source → target, canonically ordered.

    Object images come first, keeping hom(F a, F b) inhabited for every
    source morphism a → b (checks that others imply are left out; see
    :func:`_object_plan`). Then, for each object map, morphism images are
    chosen in hom(F src, F tgt) with identities forced, and F(f;g) =
    F f ; F g is checked as soon as all three images are chosen. When
    every image is forced and hom(F x, F x) holds only the identity for
    each x whose identity is a composite, every check holds (each
    composite lands in a one-element hom-set), so the one solution is read
    off without a search. On a thin target that holds for every object
    map, so it is decided once per call. One budget counts the whole
    search, branch by branch over the image of the first object.

    Each result is interned from its images in source order by
    :meth:`Functor._interned`, unchecked, since every image is drawn from
    the target. ``jobs`` has no effect.
    """
    objs = source.objects
    tobjs = target.objects
    obj_plan, plan, units, arrows, loops, where, ends = _functor_plan(source)
    # Object images are target positions and morphism images target
    # indices, so every check is a table lookup.
    hom = target.index_hom()
    homs = [[hom.get((x, y), ()) for y in tobjs] for x in tobjs]
    obj_checks = [[lambda a, i=i, j=j: homs[a[i]][a[j]] != ()
                   for i, j in group] for group in obj_plan]
    table = target._table
    mor_checks = [[lambda a, f=f, g=g, h=h: table[a[f]][a[g]] == a[h]
                   for f, g, h in group] for group in plan]
    index = target._index
    unit = [index[target.identity(x)] for x in tobjs]
    names = [m.id for m in target.morphisms]
    # The image of a morphism when every image is forced: the one morphism
    # of hom(F src, F tgt), or the identity when F src = F tgt, since an
    # identity maps to one and a one-element hom(x, x) holds only id x.
    forced = [[names[h[0] if x != y else unit[x]] if h else None
               for y, h in enumerate(row)] for x, row in enumerate(homs)]
    n = len(where)
    thin = target.is_thin()
    budget = _Budget(cap)

    def functors_over(images):
        oimages = tuple(map(tobjs.__getitem__, images))
        domains = () if thin else [homs[images[a]][images[b]]
                                   for a, b in arrows]
        if thin or (set(map(len, domains)) <= {1}
                    and all(len(homs[images[a]][images[a]]) == 1
                            for a in loops)):
            # Every image is forced, so every check holds. Charged as
            # _backtrack would: one per variable, stopping at cap + 1.
            budget.spend(min(n, budget.cap + 1 - budget.used))
            found = [tuple([forced[images[a]][images[b]] for a, b in ends])]
        else:
            found = [tuple([names[ks[k]] for k in where]) for ks in _backtrack(
                [(unit[images[a]],) for a in units] + domains, mor_checks,
                budget)]
        return [Functor._interned(source, target, oimages, mimages)
                for mimages in found]

    def branch(first):
        domains = [(first,)] + [range(len(tobjs))] * (len(objs) - 1)
        return [F for images in _backtrack(domains, obj_checks, budget)
                for F in functors_over(images)]

    groups = pmap(branch, range(len(tobjs))) if objs else [functors_over(())]
    out = [F for group in groups for F in group]
    out.sort(key=lambda F: F.canonical_key())
    return out
