"""Built-in fixture corpus: the chain posets C2 and C3, the one-object
group category M(Z2), every closure/interior (co)monad on the chains, and
the unique distributive law from c2 to c1.

Everything validates on load; the corpus is the ground every derived
expected value in the test suite stands on.
"""

from __future__ import annotations

from .distlaw import DistributiveLaw, MixedDistributiveLaw
from .errors import UnTypableComponent
from .fincat import (
    FinCategory,
    Functor,
    NatTrans,
    compose_functors,
    identity_functor,
    validate_category,
)
from .monad import Comonad, Monad, identity_comonad, identity_monad


def chain_category(labels) -> FinCategory:
    """The poset category of a finite chain, in the given label order."""
    labels = list(labels)
    morphisms = []
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            morphisms.append({"id": f"f{a}{b}", "src": a, "tgt": b})
    comp = []
    for i, a in enumerate(labels):
        for j in range(i + 1, len(labels)):
            for k in range(j + 1, len(labels)):
                b, c = labels[j], labels[k]
                comp.append({"first": f"f{a}{b}", "then": f"f{b}{c}",
                             "equals": f"f{a}{c}"})
    return validate_category({"objects": labels, "morphisms": morphisms,
                              "composition": comp})


def c2() -> FinCategory:
    """2-chain a < b with the single arrow named f."""
    return validate_category({
        "objects": ["a", "b"],
        "morphisms": [{"id": "f", "src": "a", "tgt": "b"}],
        "composition": [],
    })


def c3() -> FinCategory:
    """3-chain 0 < 1 < 2 with arrows f01, f12 and composite f02."""
    return chain_category(["0", "1", "2"])


def m_z2() -> FinCategory:
    """One object g; morphisms e (identity) and s with s∘s = e."""
    return validate_category({
        "objects": ["g"],
        "morphisms": [
            {"id": "e", "src": "g", "tgt": "g"},
            {"id": "s", "src": "g", "tgt": "g"},
        ],
        "identities": {"g": "e"},
        "composition": [
            {"first": "s", "then": "s", "equals": "e"},
        ],
    })


def one_object() -> FinCategory:
    return validate_category({"objects": ["pt"], "morphisms": [],
                              "composition": []})


def empty_category() -> FinCategory:
    return validate_category({"objects": [], "morphisms": [],
                              "composition": []})


# ---------------------------------------------------------------------------
# Thin-category helpers (poset fixtures)


def thin_functor(source: FinCategory, target: FinCategory, object_map: dict) -> Functor:
    """The unique functor with the given object map between thin categories."""
    morphism_map = {}
    for m in source.morphisms:
        h = target.hom(object_map[m.src], object_map[m.tgt])
        if not h:
            raise UnTypableComponent(m.id, "object map is not monotone")
        morphism_map[m.id] = h[0]
    return Functor(source, target, object_map, morphism_map)


def thin_nat(F: Functor, G: Functor) -> NatTrans:
    """The unique transformation F -> G in a thin codomain, if typable."""
    comps = {}
    for x in F.source.objects:
        h = F.target.hom(F.ob(x), G.ob(x))
        if not h:
            raise UnTypableComponent(x, f"hom({F.ob(x)},{G.ob(x)}) empty")
        comps[x] = h[0]
    return NatTrans(F, G, comps)


def _thin_structure(kind, cat: FinCategory, object_map: dict):
    """The valid ``kind`` (Monad or Comonad) on a poset category with the
    given object map, each structure map the unique one of its shape."""
    E = thin_functor(cat, cat, object_map)
    maps = (thin_nat(*ends) for ends in kind.functor_ends(cat, E))
    return kind(cat, E, *maps).require_valid()


def closure_monad(cat: FinCategory, object_map: dict) -> Monad:
    """The monad carried by a closure operator on a poset category."""
    return _thin_structure(Monad, cat, object_map)


def interior_comonad(cat: FinCategory, object_map: dict) -> Comonad:
    """The comonad carried by an interior operator on a poset category."""
    return _thin_structure(Comonad, cat, object_map)


def thin_dist_law(S: Monad, T: Monad) -> DistributiveLaw:
    """The unique candidate law between poset monads, if typable."""
    phi = thin_nat(compose_functors(S.S, T.S), compose_functors(T.S, S.S))
    return DistributiveLaw(S, T, phi)


def thin_mixed_law(S: Monad, G: Comonad) -> MixedDistributiveLaw:
    psi = thin_nat(compose_functors(S.S, G.G), compose_functors(G.G, S.S))
    return MixedDistributiveLaw(S, G, psi)


# ---------------------------------------------------------------------------
# The corpus


class FixtureCorpus:
    """Named, validated fixture structures used by tests and ``selftest``."""

    def __init__(self):
        self.c2 = c2()
        self.c3 = c3()
        self.m_z2 = m_z2()
        self.one = one_object()
        self.empty = empty_category()

        self.categories = {
            "C2": self.c2, "C3": self.c3, "MZ2": self.m_z2,
            "ONE": self.one, "EMPTY": self.empty,
        }

        self.monads_c3 = {
            "id": identity_monad(self.c3),
            "c1": closure_monad(self.c3, {"0": "0", "1": "2", "2": "2"}),
            "c2": closure_monad(self.c3, {"0": "1", "1": "1", "2": "2"}),
            "c3": closure_monad(self.c3, {"0": "2", "1": "2", "2": "2"}),
        }
        self.monads_c2 = {
            "id": identity_monad(self.c2),
            "top": closure_monad(self.c2, {"a": "b", "b": "b"}),
        }
        self.comonads_c3 = {
            "id": identity_comonad(self.c3),
            "i1": interior_comonad(self.c3, {"0": "0", "1": "0", "2": "2"}),
            "i2": interior_comonad(self.c3, {"0": "0", "1": "1", "2": "1"}),
            "i3": interior_comonad(self.c3, {"0": "0", "1": "0", "2": "0"}),
        }
        self.comonads_c2 = {
            "id": identity_comonad(self.c2),
            "bot": interior_comonad(self.c2, {"a": "a", "b": "a"}),
        }

        # Both monad structures on the identity functor of M(Z2): the
        # plain one and the twist with mu = eta = s.
        self.monads_z2 = {
            "id": identity_monad(self.m_z2),
            "twist": Monad.from_components(
                self.m_z2, identity_functor(self.m_z2), {"g": "s"},
                {"g": "s"}).require_valid(),
        }

        self.law_c2_c1 = thin_dist_law(self.monads_c3["c2"], self.monads_c3["c1"])
        bad = self.law_c2_c1.check()
        if bad:
            raise AssertionError(f"fixture law is broken: {bad[0].describe()}")

    def all_monads(self):
        """(category name, monad name, monad) triples over the corpus."""
        out = []
        for name, m in self.monads_c2.items():
            out.append(("C2", name, m))
        for name, m in self.monads_c3.items():
            out.append(("C3", name, m))
        for name, m in self.monads_z2.items():
            out.append(("MZ2", name, m))
        return out

    def all_comonads(self):
        out = []
        for name, c in self.comonads_c2.items():
            out.append(("C2", name, c))
        for name, c in self.comonads_c3.items():
            out.append(("C3", name, c))
        return out


_corpus = None


def corpus() -> FixtureCorpus:
    global _corpus
    if _corpus is None:
        _corpus = FixtureCorpus()
    return _corpus
