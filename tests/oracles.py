"""Brute-force oracles, reference constructions and small test categories.

The oracles search the whole product space: every object map, then every
product of hom-sets, each candidate filtered by the law checkers of
:mod:`finmonad.fincat`. They are slow but plainly exhaustive, and the
tests hold the backtracking enumerators of ``fincat`` to them. The
comonad-side references build comonad laws, coalgebra categories,
coalgebra-side liftings and the vec psi_E action directly, where the
library reads them off the monad side on the opposite category. Then come the law and lifting
searches as written once per kind, before the library shared one search
between each pair, then the hom-isomorphism round trip with its two
AdjR enumerators as first written, before each cell was mapped once, then
one direction of the round trip as mapped before both directions shared
one pass and found composites by key, and
then the law checks and mates as first written, from whiskered
transformations, before the library compared them component by component,
then the composites of Mnd, Mnd• and CoMnd 1-cells as first written,
from two whiskered transformations and their vertical composite, and then
the monad search as first written, which builds a monad from every natural
(mu, eta) pair of every endofunctor and keeps the lawful ones, then the
algebra and Kleisli constructions and psi_K as first written, each naming
what lies over the base by hand, then
the monad lifting, the Kleisli extension and the comonad lifting as
written once per kind, before the library shared one psi image between
them, and last the functor search as first written on the backtracking
kernel, which searches the morphism images of every object map and keeps
every object check.
"""

from collections import namedtuple
from itertools import product

from hypothesis import assume
from hypothesis import strategies as st

from finmonad.adjunction import (
    Adjunction,
    CommutingSquareL,
    CommutingSquareR,
    induced_monad,
)
from finmonad.construct import (
    EmAlgebraCategory,
    _algebra_id,
    _algebra_morphism_id,
    _kleisli_id,
    em_category,
)
from finmonad.distlaw import (
    DistributiveLaw,
    MixedDistributiveLaw,
    untypable_objects,
)
from finmonad.errors import (
    BaseMismatch,
    ComponentMistyped,
    EnumerationCapExceeded,
    LawViolation,
    TwoCellLawViolation,
    TypeMismatch,
)
from finmonad.fincat import (
    DEFAULT_CAP,
    FinCategory,
    Functor,
    Morphism,
    NatTrans,
    _backtrack,
    _Budget,
    assemble_category,
    check_functor,
    check_naturality,
    compose_functors,
    enumerate_functors,
    enumerate_nat_trans,
    identity_functor,
    identity_nat,
    validate_category,
    vcomp,
    whisker_left,
    whisker_right,
)
from finmonad.fixtures import c3, chain_category, m_z2
from finmonad.monad import Comonad, Monad, check_monad_laws
from finmonad.report import Violation, entry
from finmonad.twofunctors import (
    AdjLOneCell,
    AdjLTwoCell,
    AdjROneCell,
    AdjRTwoCell,
    CoMndOneCell,
    CoMndTwoCell,
    KleisliExtension,
    LiftedComonad,
    LiftedMonad,
    MndBulletOneCell,
    MndBulletTwoCell,
    MndOneCell,
    MndTwoCell,
    _Flags,
    adjr_compose,
    bullet_compose,
    bullet_identity_cell,
    comnd_compose,
    comnd_identity_cell,
    enumerate_mnd_endocells,
    enumerate_mnd_two_cells,
    mnd_compose,
    mnd_identity_cell,
    phi_e_1cell,
    phi_e_2cell,
    psi_e_1cell,
    psi_e_2cell,
)

# ---------------------------------------------------------------------------
# Oracles


def brute_nat_trans(F, G) -> list:
    """Every natural F → G, from the full product of component choices."""
    objs = F.source.objects
    out = []
    for combo in product(*(F.target.hom(F.ob(x), G.ob(x)) for x in objs)):
        alpha = NatTrans(F, G, dict(zip(objs, combo)))
        if not check_naturality(alpha):
            out.append(alpha)
    return out


def ref_associativity_violations(raw: dict) -> list:
    """The triples (f, g, h) of a raw category with (f;g);h ≠ f;(g;h), as
    ``"(f,g,h)"``, by a sweep over every triple whose composites the table
    gives. ``raw`` lists every composite, those with an identity included."""
    after = {}  # after[f][g] is f;g
    for e in raw["composition"]:
        after.setdefault(e["first"], {})[e["then"]] = e["equals"]
    out = []
    for f, f_then in after.items():
        for g, fg in f_then.items():
            fg_then = after.get(fg, {})
            out += [f"({f},{g},{h})" for h, gh in after.get(g, {}).items()
                    if h in fg_then and gh in f_then
                    and fg_then[h] != f_then[gh]]
    return out


def brute_functors(source, target) -> list:
    """Every functor source → target: all object maps, all hom products."""
    ids = [m.id for m in source.morphisms]
    out = []
    for images in product(target.objects, repeat=len(source.objects)):
        omap = dict(zip(source.objects, images))
        choices = [target.hom(omap[m.src], omap[m.tgt])
                   for m in source.morphisms]
        for combo in product(*choices):
            F = Functor(source, target, omap, dict(zip(ids, combo)))
            if not check_functor(F):
                out.append(F)
    out.sort(key=lambda F: F.canonical_key())
    return out


# ---------------------------------------------------------------------------
# Categories


def _table(objects, morphisms, identities, compose):
    """Validated category from a cell list and a rule for g ∘ f."""
    comp = [{"first": f["id"], "then": g["id"],
             "equals": compose(f["id"], g["id"])}
            for f in morphisms for g in morphisms if f["tgt"] == g["src"]]
    return validate_category({"objects": objects, "morphisms": morphisms,
                              "identities": identities, "composition": comp})


def cyclic(n: int):
    """The one-object category of the group Z_n; ``r{k}`` rotates by k."""
    morphs = [{"id": f"r{k}", "src": "g", "tgt": "g"} for k in range(n)]
    return _table(["g"], morphs, {"g": "r0"},
                  lambda f, g: f"r{(int(f[1:]) + int(g[1:])) % n}")


def transformation_maps(n: int) -> list:
    """All maps {0..n-1} → {0..n-1}, as tuples of images."""
    return list(product(range(n), repeat=n))


def then(a: tuple, b: tuple) -> tuple:
    """The map that applies ``a`` first, then ``b``."""
    return tuple(b[i] for i in a)


def map_id(m: tuple) -> str:
    return "t" + "".join(map(str, m))


def transformation_monoid(n: int):
    """The one-object category of all self-maps of an n-element set."""
    maps = transformation_maps(n)
    by_id = {map_id(m): m for m in maps}
    morphs = [{"id": map_id(m), "src": "g", "tgt": "g"} for m in maps]
    return _table(["g"], morphs, {"g": map_id(tuple(range(n)))},
                  lambda f, g: map_id(then(by_id[f], by_id[g])))


def chain2_times_z2():
    """The 2-chain a < b times Z2: six morphisms, not thin."""
    base = {"ia": ("a", "a"), "ib": ("b", "b"), "f": ("a", "b")}
    morphs = [{"id": h + z, "src": s, "tgt": t}
              for h, (s, t) in base.items() for z in "es"]

    def compose(f, g):
        h = "f" if "f" in (f[:-1], g[:-1]) else f[:-1]
        return h + ("e" if f[-1] == g[-1] else "s")

    return _table(["a", "b"], morphs, {"a": "iae", "b": "ibe"}, compose)


def codiscrete(n: int):
    """The groupoid with n objects and exactly one morphism between any two."""
    objects = [str(i) for i in range(n)]
    morphs = [{"id": f"u{a}{b}", "src": a, "tgt": b}
              for a in objects for b in objects]
    return _table(objects, morphs, {a: f"u{a}{a}" for a in objects},
                  lambda f, g: f"u{f[1]}{g[2]}")


def discrete(n: int):
    """The category with n objects and their identities only."""
    objects = [str(i) for i in range(n)]
    return _table(objects, [{"id": f"i{a}", "src": a, "tgt": a} for a in objects],
                  {a: f"i{a}" for a in objects}, lambda f, g: f)


def split_idempotent():
    """The idempotent e on a split through b: u: a → b and v: b → a with
    v ∘ u = e and u ∘ v = id_b. Not thin, and u;v is not an identity."""
    morphs = [{"id": m, "src": s, "tgt": t} for m, s, t in
              (("ia", "a", "a"), ("e", "a", "a"), ("u", "a", "b"),
               ("v", "b", "a"), ("ib", "b", "b"))]
    rule = {("u", "v"): "e", ("v", "u"): "ib", ("e", "e"): "e",
            ("e", "u"): "u", ("v", "e"): "v"}
    return _table(["a", "b"], morphs, {"a": "ia", "b": "ib"},
                  lambda f, g: (g if f in ("ia", "ib") else
                                f if g in ("ia", "ib") else rule[f, g]))

def delta(sizes):
    """The category of the finite ordinals of the given sizes and the
    monotone maps between them: a full subcategory of the simplex category.

    Object ``n`` is {0, ..., n-1}; the map m → n with images
    (i_0, ..., i_{m-1}) is ``d{m}{n}_{i_0...i_{m-1}}``.
    """
    sizes = sorted(sizes)
    maps = {}
    for m in sizes:
        for n in sizes:
            for images in product(range(n), repeat=m):
                if all(a <= b for a, b in zip(images, images[1:])):
                    key = f"d{m}{n}_" + "".join(map(str, images))
                    maps[key] = (m, n, images)
    morphs = [{"id": k, "src": str(m), "tgt": str(n)}
              for k, (m, n, _) in maps.items()]
    identities = {str(n): f"d{n}{n}_" + "".join(map(str, range(n)))
                  for n in sizes}

    def compose(f, g):
        m, _, a = maps[f]
        _, n, b = maps[g]
        return f"d{m}{n}_" + "".join(str(b[i]) for i in a)

    return _table([str(n) for n in sizes], morphs, identities, compose)


# The small categories of the differential tests: thin and not, with and
# without invertible arrows.
DIFFERENTIAL = {
    "chain3": c3, "chain4": lambda: chain_category("abcd"),
    "z3": lambda: cyclic(3), "t2": lambda: transformation_monoid(2),
    "m_z2": m_z2, "c2xz2": chain2_times_z2, "g3": lambda: codiscrete(3),
    "g2": lambda: codiscrete(2), "split": split_idempotent,
}


@st.composite
def posets(draw, max_elements=4):
    """A random poset on up to ``max_elements`` elements, as a thin category.

    It is the reflexive-transitive closure of a random relation that only
    points up the index order, so antisymmetry comes for free.
    """
    n = draw(st.integers(min_value=0, max_value=max_elements))
    labels = [f"x{i}" for i in range(n)]
    below = {(labels[i], labels[j]): draw(st.booleans())
             for i in range(n) for j in range(i + 1, n)}
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    a, b, c = labels[i], labels[j], labels[k]
                    if below.get((a, b)) and below.get((b, c)) \
                            and not below.get((a, c)):
                        below[(a, c)] = True
                        changed = True
    le = {(a, b) for (a, b), v in below.items() if v}
    morphisms = [{"id": f"le_{a}_{b}", "src": a, "tgt": b} for a, b in sorted(le)]
    comp = []
    for a, b in sorted(le):
        for b2, c in sorted(le):
            if b2 == b:
                comp.append({"first": f"le_{a}_{b}", "then": f"le_{b}_{c}",
                             "equals": f"le_{a}_{c}"})
    return validate_category({"objects": labels, "morphisms": morphisms,
                              "composition": comp})


def finset_map_id(src: int, tgt: int, images: tuple) -> str:
    return f"f{src}{tgt}_" + "".join(map(str, images))


@st.composite
def finset_subcategories(draw, max_maps=3, max_morphisms=12):
    """The subcategory of FinSet on 2 or 3 sets of at most 3 elements that
    1 to ``max_maps`` random maps between them generate: the identities,
    the maps and every composite. Object ``s{i}`` is the i-th set; about a
    third of the draws are not thin, and a drawn map may be an identity or
    repeat another. A draw with more than ``max_morphisms`` morphisms is
    rejected, about 1 in 100 at the defaults: the searches take seconds on
    the largest, and some pass the default cap."""
    sizes = draw(st.lists(st.integers(0, 3), min_size=2, max_size=3))
    pairs = [(i, j) for i in range(len(sizes)) for j in range(len(sizes))
             if sizes[j] or not sizes[i]]
    maps = {(i, i, tuple(range(n))) for i, n in enumerate(sizes)}
    for _ in range(draw(st.integers(1, max_maps))):
        i, j = draw(st.sampled_from(pairs))
        maps.add((i, j, tuple(draw(st.integers(0, sizes[j] - 1))
                              for _ in range(sizes[i]))))
    grown = True
    while grown:
        grown = False
        for i, j, a in list(maps):
            for j2, k, b in list(maps):
                if j2 == j and (i, k, then(a, b)) not in maps:
                    maps.add((i, k, then(a, b)))
                    grown = True
    assume(len(maps) <= max_morphisms)
    by_id = {finset_map_id(*m): m for m in sorted(maps)}
    objects = [f"s{i}" for i in range(len(sizes))]
    morphisms = [{"id": f, "src": f"s{i}", "tgt": f"s{j}"}
                 for f, (i, j, _) in by_id.items()]
    identities = {f"s{i}": finset_map_id(i, i, tuple(range(n)))
                  for i, n in enumerate(sizes)}

    def compose(f, g):
        i, _, a = by_id[f]
        _, k, b = by_id[g]
        return finset_map_id(i, k, then(a, b))

    return _table(objects, morphisms, identities, compose)


# ---------------------------------------------------------------------------
# Comonad-side references
#
# The library reads comonads, coalgebra categories and coalgebra-side
# liftings off the monad side on the opposite category. These build them
# directly on the category itself, written out by hand; the duality tests
# hold the library to them.


def ref_check_comonad_laws(c) -> list:
    """Naturality of delta and epsilon, then the three comonad laws."""
    out = []
    for v in check_naturality(c.delta):
        out.append(Violation("ComultiplicationNotNatural", "law-naturality",
                             where=v.where, lhs=v.lhs, rhs=v.rhs))
    for v in check_naturality(c.epsilon):
        out.append(Violation("CounitNotNatural", "law-naturality",
                             where=v.where, lhs=v.lhs, rhs=v.rhs))
    # (delta G) ∘ delta = (G delta) ∘ delta
    _first_diff("ComonadCoassociativity", "law-comonad-coassoc",
                vcomp(c.delta, whisker_right(c.delta, c.G)),
                vcomp(c.delta, whisker_left(c.G, c.delta)), out)
    # (epsilon G) ∘ delta = id_G
    _first_diff("ComonadCounitLeft", "law-comonad-counit-left",
                vcomp(c.delta, whisker_right(c.epsilon, c.G)),
                identity_nat(c.G), out)
    # (G epsilon) ∘ delta = id_G
    _first_diff("ComonadCounitRight", "law-comonad-counit-right",
                vcomp(c.delta, whisker_left(c.G, c.epsilon)),
                identity_nat(c.G), out)
    return out


def _first_diff(kind, tag, lhs, rhs, out) -> None:
    for x in lhs.base.objects:
        if lhs.at(x) != rhs.at(x):
            out.append(Violation(kind, tag, where=x, lhs=lhs.at(x),
                                 rhs=rhs.at(x)))
            return


def comonad_candidates(cat) -> list:
    """Every (G, delta, epsilon) typed as a comonad, lawful or not."""
    out = []
    objs = cat.objects
    for G in brute_functors(cat, cat):
        GG = compose_functors(G, G)
        Id = identity_functor(cat)
        for deltas in product(*(cat.hom(G.ob(x), GG.ob(x)) for x in objs)):
            delta = NatTrans(G, GG, dict(zip(objs, deltas)))
            for epss in product(*(cat.hom(G.ob(x), x) for x in objs)):
                out.append(Comonad(cat, G, delta,
                                   NatTrans(G, Id, dict(zip(objs, epss)))))
    return out


def brute_comonads(cat) -> list:
    """Every lawful candidate, in canonical order."""
    found = [c for c in comonad_candidates(cat) if not ref_check_comonad_laws(c)]
    found.sort(key=lambda c: c.canonical_key())
    return found


def as_morphism(cat, f, src, tgt):
    """The morphism src → tgt over the base morphism f in an algebra or
    coalgebra category ``cat``, named by the id scheme, or None."""
    mid = _algebra_morphism_id(f, src, tgt)
    return mid if cat.has_morphism(mid) else None


class RefCoalgebraCategory:
    """Coalgebras (N, xi) of a comonad with the adjunction U ⊣ F (cofree)."""

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

    def carrier(self, obj):
        return self._carrier[obj]

    def structure(self, obj):
        return self._structure[obj]

    def coalgebra_id(self, carrier, xi):
        return self._by_pair[(carrier, xi)]

    def has_coalgebra(self, carrier, xi):
        return (carrier, xi) in self._by_pair

    def coalgebras_with_carrier(self, carrier):
        return [a for a in self.category.objects if self._carrier[a] == carrier]

    def cofree_coalgebra(self, x):
        return self._cofree[x]

    def underlying(self, morph):
        return self._underlying[morph]

    def as_coalgebra_morphism(self, f, src, tgt):
        mid = _algebra_morphism_id(f, src, tgt)
        return mid if self.category.has_morphism(mid) else None


def ref_em_coalgebra_category(c) -> RefCoalgebraCategory:
    """All coalgebras and coalgebra morphisms of a valid comonad."""
    c.require_valid()
    base = c.base
    G = c.G

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

    def comp(f, g):
        return _algebra_morphism_id(
            base.compose(underlying[f.id], underlying[g.id]), f.src, g.tgt)

    category = assemble_category(objects, morphisms, identities, comp)

    U = Functor(category, base,
                {a: carrier[a] for a in objects},
                {mm.id: underlying[mm.id] for mm in morphisms})

    cofree = {x: by_pair[(G.ob(x), c.delta.at(x))] for x in base.objects}
    F = Functor(base, category,
                cofree,
                {mm.id: _algebra_morphism_id(G.mor(mm.id), cofree[mm.src],
                                             cofree[mm.tgt])
                 for mm in base.morphisms})

    # U ⊣ F: the unit embeds each coalgebra into its cofree one via xi,
    # the counit is epsilon downstairs.
    unit = NatTrans(identity_functor(category), compose_functors(F, U),
                    {a: _algebra_morphism_id(structure[a], a, cofree[carrier[a]])
                     for a in objects})
    counit = NatTrans(compose_functors(U, F), identity_functor(base),
                      dict(c.epsilon.components))
    adj = Adjunction(U, F, unit, counit)

    return RefCoalgebraCategory(c, category, U, F, adj, carrier, structure,
                                underlying, by_pair, cofree)


def ref_colift_monad(ml, co=None) -> tuple:
    """(Shat, mu_hat, eta_hat): S lifted to the coalgebras of G through the
    CoMnd cells of the mixed law and the vec psi_E action."""
    ml.require_valid()
    co = co if co is not None else ref_em_coalgebra_category(ml.G)
    cell = CoMndOneCell(ml.G, ml.G, ml.S.S, ml.psi).require_valid()
    acell = ref_vec_psi_e_1cell(cell, co, co)
    comp_cell = comnd_compose(cell, cell)
    comp_acell = ref_vec_psi_e_1cell(comp_cell, co, co)
    id_cell = comnd_identity_cell(ml.G)
    id_acell = ref_vec_psi_e_1cell(id_cell, co, co)
    mu2 = CoMndTwoCell(comp_cell, cell, ml.S.mu).require_valid()
    eta2 = CoMndTwoCell(id_cell, cell, ml.S.eta).require_valid()
    mu_pair = ref_vec_psi_e_2cell(mu2, co, co, comp_acell, acell)
    eta_pair = ref_vec_psi_e_2cell(eta2, co, co, id_acell, acell)
    return acell.J, mu_pair.alpha, eta_pair.alpha


def ref_vec_psi_e_1cell(cell: CoMndOneCell, src_co: RefCoalgebraCategory = None,
                        dst_co: RefCoalgebraCategory = None) -> AdjLOneCell:
    """(P, pi) ↦ (P^pi, P, rho^P) between coalgebra adjunctions, written
    directly on coalgebras, where the library reads it off psi_E on the
    opposite category.

    P^pi sends a coalgebra (N, xi) to (P N, pi_N ∘ P xi). Note the
    direction: the coalgebra adjunction points out of the coalgebra
    category, so P^pi is the base-level functor of the square.
    """
    src_co = src_co if src_co is not None else ref_em_coalgebra_category(cell.src)
    dst_co = dst_co if dst_co is not None else ref_em_coalgebra_category(cell.dst)
    base = cell.dst.base
    obj_map = {}
    for a, carrier, xi in src_co.coalgebra_objects():
        structure = base.compose(cell.P.mor(xi), cell.pi.at(carrier))
        obj_map[a] = dst_co.coalgebra_id(cell.P.ob(carrier), structure)
    mor_map = {}
    for mm in src_co.category.morphisms:
        image = dst_co.as_coalgebra_morphism(cell.P.mor(src_co.underlying(mm.id)),
                                             obj_map[mm.src], obj_map[mm.tgt])
        if image is None:
            raise LawViolation([Violation(
                "LiftedImageNotCoalgebraMorphism", "law-coalgebra",
                where=mm.id)], context="vec_psi_e_1cell")
        mor_map[mm.id] = image
    Ppi = Functor(src_co.category, dst_co.category, obj_map, mor_map)
    return AdjLOneCell(src_co.adj, dst_co.adj, Ppi, cell.P)


def ref_vec_psi_e_2cell(t: CoMndTwoCell, src_co: RefCoalgebraCategory = None,
                        dst_co: RefCoalgebraCategory = None,
                        src_acell: AdjLOneCell = None,
                        dst_acell: AdjLOneCell = None) -> AdjLTwoCell:
    """theta ↦ (theta^pi, theta) with theta^pi having component theta_N at
    each coalgebra over N."""
    src_co = src_co if src_co is not None else ref_em_coalgebra_category(t.src_cell.src)
    dst_co = dst_co if dst_co is not None else ref_em_coalgebra_category(t.src_cell.dst)
    if src_acell is None:
        src_acell = ref_vec_psi_e_1cell(t.src_cell, src_co, dst_co)
    if dst_acell is None:
        dst_acell = ref_vec_psi_e_1cell(t.dst_cell, src_co, dst_co)
    comps = {}
    for a, carrier, _xi in src_co.coalgebra_objects():
        image = dst_co.as_coalgebra_morphism(t.theta.at(carrier),
                                             src_acell.J.ob(a), dst_acell.J.ob(a))
        if image is None:
            raise TwoCellLawViolation(
                f"component at {a} is not a coalgebra morphism")
        comps[a] = image
    alpha = NatTrans(src_acell.J, dst_acell.J, comps)
    return AdjLTwoCell(src_acell, dst_acell, alpha, t.theta)


def ref_coalgebra_lifting_violations(co, below, shat, mu_hat, eta_hat) -> list:
    """What a monad lifting to coalgebras must satisfy: U∘Shat = S∘U, mu_hat
    and eta_hat over mu and eta, and the monad laws upstairs."""
    bad = []
    if compose_functors(co.U, shat) != compose_functors(below.S, co.U):
        bad.append(Violation("LiftingSquareBroken", "Eq-1510081654",
                             detail="U∘Shat = S∘U fails"))
    if whisker_left(co.U, mu_hat) != whisker_right(below.mu, co.U):
        bad.append(Violation("MultiplicationNotOverBase", "law-comnd-2cell",
                             detail="U mu_hat = mu U fails"))
    if whisker_left(co.U, eta_hat) != whisker_right(below.eta, co.U):
        bad.append(Violation("UnitNotOverBase", "law-comnd-2cell",
                             detail="U eta_hat = eta U fails"))
    bad.extend(Monad(co.category, shat, mu_hat, eta_hat).check())
    return bad


def ref_extract_mixed_from_colifting(co, below, shat) -> NatTrans:
    """psi = U rho_S, rho_S the mate of the colifting square."""
    sq = CommutingSquareL(co.adj, co.adj, shat, below.S)
    return whisker_left(co.U, ref_mate_left(sq))


# ---------------------------------------------------------------------------
# Twin searches
#
# The library runs one law search for plain and mixed laws and one lifting
# search for monad and comonad liftings. These are the four searches as
# they were written before, one per kind; the enumeration tests hold the
# shared searches to them.


def ref_enumerate_dist_laws(S: Monad, T: Monad, cap: int = DEFAULT_CAP) -> list:
    """All distributive laws from S to T, canonically ordered.

    Candidates are generated only after a typability pre-pass; an
    untypable pair yields an empty list rather than an error.
    """
    S.require_valid()
    T.require_valid()
    if untypable_objects(S, T):
        return []
    cat = S.base
    objs = cat.objects
    choices = [cat.hom(S.S.ob(T.S.ob(x)), T.S.ob(S.S.ob(x))) for x in objs]
    estimate = 1
    for c in choices:
        estimate *= len(c)
        if estimate > cap:
            raise EnumerationCapExceeded(estimate, cap)

    src = compose_functors(S.S, T.S)
    tgt = compose_functors(T.S, S.S)

    def scan(first_choice):
        found = []
        rest = choices[1:] if objs else []
        for combo in product([first_choice], *rest):
            phi = NatTrans(src, tgt, dict(zip(objs, combo)))
            dl = DistributiveLaw(S, T, phi)
            if not dl.check():
                found.append(dl)
        return found

    if not objs:
        phi = NatTrans(src, tgt, {})
        dl = DistributiveLaw(S, T, phi)
        return [dl] if not dl.check() else []

    groups = [scan(first) for first in choices[0]]
    out = [dl for group in groups for dl in group]
    out.sort(key=lambda dl: dl.canonical_key())
    return out


def ref_enumerate_mixed_laws(S: Monad, G: Comonad,
                             cap: int = DEFAULT_CAP) -> list:
    """All mixed distributive laws from S to G, canonically ordered."""
    S.require_valid()
    G.require_valid()
    if untypable_objects(S, G):
        return []
    cat = S.base
    objs = cat.objects
    choices = [cat.hom(S.S.ob(G.G.ob(x)), G.G.ob(S.S.ob(x))) for x in objs]
    estimate = 1
    for c in choices:
        estimate *= len(c)
        if estimate > cap:
            raise EnumerationCapExceeded(estimate, cap)

    src = compose_functors(S.S, G.G)
    tgt = compose_functors(G.G, S.S)

    def scan(first_choice):
        found = []
        rest = choices[1:] if objs else []
        for combo in product([first_choice], *rest):
            psi = NatTrans(src, tgt, dict(zip(objs, combo)))
            ml = MixedDistributiveLaw(S, G, psi)
            if not ml.check():
                found.append(ml)
        return found

    if not objs:
        psi = NatTrans(src, tgt, {})
        ml = MixedDistributiveLaw(S, G, psi)
        return [ml] if not ml.check() else []

    groups = [scan(first) for first in choices[0]]
    out = [ml for group in groups for ml in group]
    out.sort(key=lambda ml: ml.canonical_key())
    return out


def ref_enumerate_liftings(S: Monad, T: Monad, cap: int = DEFAULT_CAP,
                           em: EmAlgebraCategory = None) -> list:
    """All monad liftings of T to the algebras of S, canonically ordered.

    The search space is one algebra structure on T(N) per algebra (N, chi);
    morphism images and the components of mu_hat/eta_hat are forced by the
    base structure, then everything is law-checked from scratch.
    """
    S.require_valid()
    T.require_valid()
    if S.base != T.base:
        raise BaseMismatch("monads live on different bases")
    em = em if em is not None else em_category(S)
    algebras = em.category.objects
    choice_lists = []
    for a in algebras:
        cs = em.algebras_with_carrier(T.S.ob(em.carrier(a)))
        if not cs:
            return []
        choice_lists.append(cs)

    estimate = 1
    for cs in choice_lists:
        estimate *= len(cs)
        if estimate > cap:
            raise EnumerationCapExceeded(estimate, cap)

    def try_assignment(assign) -> LiftedMonad:
        obj_map = dict(zip(algebras, assign))
        mor_map = {}
        for mm in em.category.morphisms:
            image = as_morphism(em.category, T.S.mor(em.underlying(mm.id)),
                                obj_map[mm.src], obj_map[mm.tgt])
            if image is None:
                return None
            mor_map[mm.id] = image
        that = Functor(em.category, em.category, obj_map, mor_map)
        if check_functor(that):
            return None
        mu_comps, eta_comps = {}, {}
        for a in algebras:
            n = em.carrier(a)
            mu_image = as_morphism(em.category, T.mu.at(n),
                                   that.ob(that.ob(a)), that.ob(a))
            eta_image = as_morphism(em.category, T.eta.at(n), a, that.ob(a))
            if mu_image is None or eta_image is None:
                return None
            mu_comps[a] = mu_image
            eta_comps[a] = eta_image
        mu_hat = NatTrans(compose_functors(that, that), that, mu_comps)
        eta_hat = NatTrans(identity_functor(em.category), that, eta_comps)
        upstairs = Monad(em.category, that, mu_hat, eta_hat)
        if upstairs.check():
            return None
        return LiftedMonad(S, em, T, that, mu_hat, eta_hat)

    if not algebras:
        lifted = try_assignment(())
        return [lifted] if lifted is not None else []

    def scan(first):
        found = []
        for rest in product(*choice_lists[1:]):
            lifted = try_assignment((first,) + rest)
            if lifted is not None:
                found.append(lifted)
        return found

    groups = [scan(first) for first in choice_lists[0]]
    out = [lm for group in groups for lm in group]
    out.sort(key=lambda lm: lm.canonical_key())
    return out


def ref_enumerate_comonad_liftings(S: Monad, G: Comonad, cap: int = DEFAULT_CAP,
                                   em: EmAlgebraCategory = None) -> list:
    """All comonad liftings of G to the algebras of S; dual search."""
    S.require_valid()
    G.require_valid()
    if S.base != G.base:
        raise BaseMismatch("monad and comonad live on different bases")
    em = em if em is not None else em_category(S)
    algebras = em.category.objects
    choice_lists = []
    for a in algebras:
        cs = em.algebras_with_carrier(G.G.ob(em.carrier(a)))
        if not cs:
            return []
        choice_lists.append(cs)

    estimate = 1
    for cs in choice_lists:
        estimate *= len(cs)
        if estimate > cap:
            raise EnumerationCapExceeded(estimate, cap)

    def try_assignment(assign) -> LiftedComonad:
        obj_map = dict(zip(algebras, assign))
        mor_map = {}
        for mm in em.category.morphisms:
            image = as_morphism(em.category, G.G.mor(em.underlying(mm.id)),
                                obj_map[mm.src], obj_map[mm.tgt])
            if image is None:
                return None
            mor_map[mm.id] = image
        ghat = Functor(em.category, em.category, obj_map, mor_map)
        if check_functor(ghat):
            return None
        d_comps, e_comps = {}, {}
        for a in algebras:
            n = em.carrier(a)
            d_image = as_morphism(em.category, G.delta.at(n),
                                  ghat.ob(a), ghat.ob(ghat.ob(a)))
            e_image = as_morphism(em.category, G.epsilon.at(n), ghat.ob(a), a)
            if d_image is None or e_image is None:
                return None
            d_comps[a] = d_image
            e_comps[a] = e_image
        delta_hat = NatTrans(ghat, compose_functors(ghat, ghat), d_comps)
        eps_hat = NatTrans(ghat, identity_functor(em.category), e_comps)
        upstairs = Comonad(em.category, ghat, delta_hat, eps_hat)
        if upstairs.check():
            return None
        return LiftedComonad(S, em, G, ghat, delta_hat, eps_hat)

    if not algebras:
        lifted = try_assignment(())
        return [lifted] if lifted is not None else []

    def scan(first):
        found = []
        for rest in product(*choice_lists[1:]):
            lifted = try_assignment((first,) + rest)
            if lifted is not None:
                found.append(lifted)
        return found

    groups = [scan(first) for first in choice_lists[0]]
    out = [lc for group in groups for lc in group]
    out.sort(key=lambda lc: lc.canonical_key())
    return out


# ---------------------------------------------------------------------------
# The hom-isomorphism round trip as first written
#
# This version maps every cell again wherever it is used, finds AdjR
# 2-cells by testing every (alpha, beta) pair and AdjR endocells by
# filtering every pair of endofunctors; the hom-iso tests hold the
# library's round trip and its two enumerators to it. The checked identity
# and vertical composite of Mnd and AdjR 2-cells come first, which the
# library's round trip finds by key instead, then the AdjR 2-cell
# conditions, built from whiskered transformations where the library
# compares components.


def mnd2_identity(cell: MndOneCell) -> MndTwoCell:
    return MndTwoCell(cell, cell, identity_nat(cell.P))


def mnd2_vcomp(a: MndTwoCell, b: MndTwoCell) -> MndTwoCell:
    if a.dst_cell != b.src_cell:
        raise TypeMismatch("Mnd 2-cells not composable")
    return MndTwoCell(a.src_cell, b.dst_cell, vcomp(a.theta, b.theta))


def adjr2_identity(cell: AdjROneCell) -> AdjRTwoCell:
    return AdjRTwoCell(cell, cell, identity_nat(cell.J), identity_nat(cell.K))


def adjr2_vcomp(a: AdjRTwoCell, b: AdjRTwoCell) -> AdjRTwoCell:
    if a.dst_cell != b.src_cell:
        raise TypeMismatch("AdjR 2-cells not composable")
    return AdjRTwoCell(a.src_cell, b.dst_cell,
                       vcomp(a.alpha, b.alpha), vcomp(a.beta, b.beta))


def ref_adjr_two_cell_conditions(src_cell: AdjROneCell, dst_cell: AdjROneCell,
                                 alpha: NatTrans, beta: NatTrans):
    """The two equivalent 2-cell conditions for candidate (alpha, beta):

    (a) beta L ∘ lambda = lambda' ∘ L̄ alpha
    (b) R̄ beta = alpha R
    """
    a_lhs = vcomp(src_cell.mate, whisker_right(beta, src_cell.dom.L))
    a_rhs = vcomp(whisker_left(dst_cell.cod.L, alpha), dst_cell.mate)
    cond_a = a_lhs.components == a_rhs.components
    b_lhs = whisker_left(src_cell.cod.R, beta)
    b_rhs = whisker_right(alpha, src_cell.dom.R)
    cond_b = b_lhs.components == b_rhs.components
    return cond_a, cond_b


def ref_enumerate_adjr_endocells(em: EmAlgebraCategory,
                                 cap: int = DEFAULT_CAP) -> list:
    """All AdjR 1-cells from the algebra adjunction to itself."""
    C = em.monad.base
    Js = enumerate_functors(C, C, cap=cap)
    Ks = enumerate_functors(em.category, em.category, cap=cap)
    cells = []
    for J in Js:
        JU = compose_functors(J, em.U)
        for K in Ks:
            if compose_functors(em.U, K) == JU:
                cells.append(AdjROneCell(em.adj, em.adj, J, K))
    cells.sort(key=lambda c: (c.J.canonical_key(), c.K.canonical_key()))
    return cells


def ref_enumerate_adjr_two_cells(src_cell: AdjROneCell, dst_cell: AdjROneCell,
                                 cap: int = DEFAULT_CAP) -> list:
    out = []
    for alpha in enumerate_nat_trans(src_cell.J, dst_cell.J, cap=cap):
        for beta in enumerate_nat_trans(src_cell.K, dst_cell.K, cap=cap):
            cond_a, cond_b = ref_adjr_two_cell_conditions(src_cell, dst_cell,
                                                          alpha, beta)
            if cond_a and cond_b:
                out.append(AdjRTwoCell(src_cell, dst_cell, alpha, beta))
    return out


def ref_hom_iso_roundtrip(S: Monad, cap: int = DEFAULT_CAP) -> list:
    """Verify that phi_E and psi_E restrict to mutually inverse functors
    between the endo hom-category at the algebra adjunction of S and the
    endo hom-category at (C, S), and that both directions are functorial.

    Returns report entries; every entry passing is the verified
    isomorphism of hom-categories.
    """
    em = em_category(S)
    mnd_cells = enumerate_mnd_endocells(S, cap=cap)
    adjr_cells = ref_enumerate_adjr_endocells(em, cap=cap)
    entries = []

    entries.append(entry("homiso/object-count", "Eq-1510071407",
                         len(mnd_cells) == len(adjr_cells),
                         witness={"mnd": len(mnd_cells),
                                  "adjr": len(adjr_cells)}))

    lands = roundtrip_a = True
    for c in adjr_cells:
        img = phi_e_1cell(c)
        if img.check() or not any(img == m for m in mnd_cells):
            lands = False
        if psi_e_1cell(img, em, em) != c:
            roundtrip_a = False
    entries.append(entry("homiso/phiE-lands-in-mnd", "Eq-1510071407", lands))
    entries.append(entry("homiso/psiE-after-phiE-is-identity", "Eq-1510071407",
                         roundtrip_a))

    lands = roundtrip_b = True
    psi_images = {}
    for i, c in enumerate(mnd_cells):
        acell = psi_e_1cell(c, em, em)
        psi_images[i] = acell
        if not any(acell == x for x in adjr_cells):
            lands = False
        if phi_e_1cell(acell) != c:
            roundtrip_b = False
    entries.append(entry("homiso/psiE-lands-in-adjr", "Eq-1510071407", lands))
    entries.append(entry("homiso/phiE-after-psiE-is-identity", "Eq-1510071407",
                         roundtrip_b,
                         detail="realizes the recovery phi = U lambda"))

    # 2-cells of both hom-categories, indexed by ordered 1-cell pairs
    mnd_two = {}
    for i, c in enumerate(mnd_cells):
        for j, c2 in enumerate(mnd_cells):
            mnd_two[(i, j)] = enumerate_mnd_two_cells(c, c2, cap=cap)
    adjr_two = {}
    for i, c in enumerate(adjr_cells):
        for j, c2 in enumerate(adjr_cells):
            adjr_two[(i, j)] = ref_enumerate_adjr_two_cells(c, c2, cap=cap)

    n_mnd2 = sum(len(v) for v in mnd_two.values())
    n_adjr2 = sum(len(v) for v in adjr_two.values())
    entries.append(entry("homiso/two-cell-count", "Eq-1510071407",
                         n_mnd2 == n_adjr2,
                         witness={"mnd": n_mnd2, "adjr": n_adjr2}))

    ok = True
    for pair, cells2 in adjr_two.items():
        for t in cells2:
            img = phi_e_2cell(t)
            if img.check():
                ok = False
                continue
            back = psi_e_2cell(img, em, em)
            if (back.alpha.components != t.alpha.components
                    or back.beta.components != t.beta.components):
                ok = False
    entries.append(entry("homiso/two-cell-roundtrip-adjr", "Eq-1510071407", ok))

    ok = True
    for pair, cells2 in mnd_two.items():
        for t in cells2:
            try:
                acell2 = psi_e_2cell(t, em, em)
            except TwoCellLawViolation:
                ok = False
                continue
            back = phi_e_2cell(acell2)
            if back.theta.components != t.theta.components:
                ok = False
    entries.append(entry("homiso/two-cell-roundtrip-mnd", "Eq-1510071407", ok))

    # functoriality: identities
    ok = True
    for i, c in enumerate(adjr_cells):
        ident = adjr2_identity(c)
        img = phi_e_2cell(ident)
        if img.theta.components != identity_nat(c.J).components:
            ok = False
    for i, c in enumerate(mnd_cells):
        ident = mnd2_identity(c)
        pair = psi_e_2cell(ident, em, em, psi_images[i], psi_images[i])
        if (pair.alpha.components != identity_nat(c.P).components
                or pair.beta.components != identity_nat(psi_images[i].K).components):
            ok = False
    entries.append(entry("homiso/identities-preserved", "Eq-1510071407", ok))

    # functoriality: vertical composition
    ok = True
    for (i, j), cells2 in adjr_two.items():
        for t1 in cells2:
            for k in range(len(adjr_cells)):
                for t2 in adjr_two[(j, k)]:
                    lhs = phi_e_2cell(adjr2_vcomp(t1, t2))
                    rhs = mnd2_vcomp(phi_e_2cell(t1), phi_e_2cell(t2))
                    if lhs.theta.components != rhs.theta.components:
                        ok = False
    for (i, j), cells2 in mnd_two.items():
        for t1 in cells2:
            for k in range(len(mnd_cells)):
                for t2 in mnd_two[(j, k)]:
                    lhs = psi_e_2cell(mnd2_vcomp(t1, t2), em, em)
                    p1 = psi_e_2cell(t1, em, em)
                    p2 = psi_e_2cell(t2, em, em)
                    rhs = adjr2_vcomp(p1, p2)
                    if (lhs.alpha.components != rhs.alpha.components
                            or lhs.beta.components != rhs.beta.components):
                        ok = False
    entries.append(entry("homiso/vcomp-preserved", "Eq-1510071407", ok))

    # 1-cell composition
    ok = True
    for c in adjr_cells:
        for c2 in adjr_cells:
            lhs = phi_e_1cell(adjr_compose(c, c2))
            rhs = mnd_compose(phi_e_1cell(c), phi_e_1cell(c2))
            if lhs != rhs:
                ok = False
    for i, c in enumerate(mnd_cells):
        for j, c2 in enumerate(mnd_cells):
            lhs = psi_e_1cell(mnd_compose(c, c2), em, em)
            rhs = adjr_compose(psi_images[i], psi_images[j])
            if lhs != rhs:
                ok = False
    entries.append(entry("homiso/one-cell-composition-preserved",
                         "Eq-1510071407", ok))
    return entries


# ---------------------------------------------------------------------------
# One direction of the hom-isomorphism round trip, as mapped before both
# directions shared one pass
#
# ref_map_side(a, b) maps each cell of a into b and each image back, and
# finds 1-cell composites by cell equality in a table that both directions
# fill on first read; the tests hold the library's _map_sides(a, b) to
# ref_map_side run both ways on sides of plain values.

# One side as this version reads it: its endo 1-cells; their 2-cells by
# ordered pair of positions; map1 and map2, the 1-cell and 2-cell actions
# into the other side, map2(t, src_image, dst_image) taking the images of
# t's ends; the 2-cell identity and vertical composite; 1-cell
# composition; key2, the components that decide 2-cell equality; and
# composites, the side's :func:`_composite_table`, which both directions
# fill and read.
RefSide = namedtuple("RefSide", "cells two map1 map2 identity vcomp compose key2 "
                     "composites")

_UNFILLED = object()


def _composite_table(n: int) -> list:
    """An empty n×n table of 1-cell composites: entry (i, j) becomes the
    position of compose(cells[i], cells[j]) among the cells, or None if it
    is none of them, when it is first read."""
    return [[_UNFILLED] * n for _ in range(n)]


def _positions(cells) -> dict:
    """The first position of each cell among ``cells``, keyed by equality."""
    at = {}
    for p, c in enumerate(cells):
        at.setdefault(c, p)
    return at


def ref_map_side(a: RefSide, b: RefSide) -> _Flags:
    """Map each 1-cell and each 2-cell of ``a`` into ``b`` once, and each
    image back once, and check that the images of the 1-cells are 1-cells
    of ``b``, that 1-cells and 2-cells come back to themselves, and that
    identities, vertical composites and 1-cell composites are preserved.

    The functoriality checks reuse the images. Each image's position among
    the cells of ``b`` is found once. A 1-cell composite is built once per
    side, in the side's table, and its position gives its image; a 2-cell
    composite or identity found in its row of ``a.two`` takes that row's
    image. A composite or image that is none of the enumerated cells is
    mapped and compared by value. A 2-cell whose image raises
    ComponentMistyped or TwoCellLawViolation fails every check that uses
    that image."""
    n = len(a.cells)
    images = [a.map1(c) for c in a.cells]
    backs = [b.map1(m) for m in images]
    a_at, b_at = _positions(a.cells), _positions(b.cells)
    image_at = [b_at.get(m) for m in images]

    def image2(t, i, j):
        try:
            return a.map2(t, images[i], images[j])
        except (ComponentMistyped, TwoCellLawViolation):
            return None

    two = True
    images2 = {}
    for (i, j), cells2 in a.two.items():
        images2[i, j] = row = [image2(t, i, j) for t in cells2]
        for t, m in zip(cells2, row):
            if m is None or a.key2(b.map2(m, backs[i], backs[j])) != a.key2(t):
                two = False

    def image_in_row(t, i, k):
        """The image of the 2-cell t from cell i to cell k."""
        key = a.key2(t)
        for u, m in zip(a.two[i, k], images2[i, k]):
            if a.key2(u) == key:
                return m
        return image2(t, i, k)

    # a composite of t1 in (i, j) and t2 in (j, k) maps between images i, k
    vcomp = True
    for (i, j), cells2 in a.two.items():
        for t1, m1 in zip(cells2, images2[i, j]):
            for k in range(n):
                for t2, m2 in zip(a.two[j, k], images2[j, k]):
                    lhs = image_in_row(a.vcomp(t1, t2), i, k)
                    if (m1 is None or m2 is None or lhs is None
                            or b.key2(lhs) != b.key2(b.vcomp(m1, m2))):
                        vcomp = False

    def identity_preserved(i):
        lhs = image_in_row(a.identity(a.cells[i]), i, i)
        return lhs is not None and b.key2(lhs) == b.key2(b.identity(images[i]))

    def composite_at(side, at, i, j):
        p = side.composites[i][j]
        if p is _UNFILLED:
            p = side.composites[i][j] = at.get(
                side.compose(side.cells[i], side.cells[j]))
        return p

    def compose_preserved(i, j):
        x, y = image_at[i], image_at[j]
        p = composite_at(a, a_at, i, j)
        z = None if p is None else image_at[p]
        if None not in (x, y, z):
            return z == composite_at(b, b_at, x, y)
        return (a.map1(a.compose(a.cells[i], a.cells[j]))
                == b.compose(images[i], images[j]))

    return _Flags(
        lands=None not in image_at,
        back=all(r == c for r, c in zip(backs, a.cells)),
        two=two,
        identities=all(identity_preserved(i) for i in range(n)),
        vcomp=vcomp,
        compose=all(compose_preserved(i, j) for i in range(n) for j in range(n)))


def ref_sides(*sides) -> tuple:
    """The records ref_map_side reads for side records of plain values,
    which are their own keys, so that each side's key functions are its
    constructors; each gets a composite table of its own, which both
    directions share."""
    return tuple(RefSide(s.cells, s.two, s.map1, s.map2, s.identity_key,
                         s.vcomp_key, s.compose_key, s.key2,
                         _composite_table(len(s.cells)))
                 for s in sides)


# ---------------------------------------------------------------------------
# Law checks and mates as first written
#
# Each side of each equation is a pasting of whiskered transformations,
# every intermediate one built as a NatTrans between its endpoint
# functors. The library evaluates the same pastings component by
# component; the tests hold its violation lists and its mates to these.
# The naturality check composes each square's sides by id, where the
# library reads the composition table by index.


def ref_check_naturality(alpha: NatTrans) -> list:
    """Every failing naturality square, each side composed by id."""
    out = []
    F, G = alpha.source, alpha.target
    D = alpha.cod
    for m in alpha.base.morphisms:
        lhs = D.compose(alpha.at(m.src), G.mor(m.id))
        rhs = D.compose(F.mor(m.id), alpha.at(m.tgt))
        if lhs != rhs:
            out.append(Violation("NaturalityViolation", "law-naturality",
                                 where=m.id, lhs=lhs, rhs=rhs))
    return out


def ref_check_monad_laws(m: Monad) -> list:
    """Empty report iff mu/eta are natural and all three monad laws hold."""
    out = []
    for v in check_naturality(m.mu):
        out.append(Violation("MultiplicationNotNatural", "law-naturality",
                             where=v.where, lhs=v.lhs, rhs=v.rhs))
    for v in check_naturality(m.eta):
        out.append(Violation("UnitNotNatural", "law-naturality",
                             where=v.where, lhs=v.lhs, rhs=v.rhs))
    # mu ∘ (mu S) = mu ∘ (S mu)
    _first_diff("MonadAssociativity", "law-monad-assoc",
                vcomp(whisker_right(m.mu, m.S), m.mu),
                vcomp(whisker_left(m.S, m.mu), m.mu), out)
    # mu ∘ (eta S) = id_S
    _first_diff("MonadUnitLeft", "law-monad-unit-left",
                vcomp(whisker_right(m.eta, m.S), m.mu), identity_nat(m.S), out)
    # mu ∘ (S eta) = id_S
    _first_diff("MonadUnitRight", "law-monad-unit-right",
                vcomp(whisker_left(m.S, m.eta), m.mu), identity_nat(m.S), out)
    return out


def ref_check_dist_law(S: Monad, T: Monad, phi: NatTrans) -> list:
    """Name each of the four axioms with pass/fail and the first failing object.

    Naturality of phi is checked first; a non-natural candidate is not a
    distributive law regardless of the diagrams.
    """
    out = []
    for v in check_naturality(phi):
        out.append(Violation("LawNotNatural", "law-naturality",
                             where=v.where, lhs=v.lhs, rhs=v.rhs))

    Sf, Tf = S.S, T.S
    # (i)  phi ∘ (mu^S T) = (T mu^S) ∘ (phi S) ∘ (S phi)
    lhs = vcomp(whisker_right(S.mu, Tf), phi)
    rhs = vcomp(whisker_left(Sf, phi),
                vcomp(whisker_right(phi, Sf), whisker_left(Tf, S.mu)))
    _first_diff("MultiplicationSquareS", "Eq-1510071248-i", lhs, rhs, out)
    # (ii) phi ∘ (eta^S T) = T eta^S
    lhs = vcomp(whisker_right(S.eta, Tf), phi)
    rhs = whisker_left(Tf, S.eta)
    _first_diff("UnitTriangleS", "Eq-1510071248-ii", lhs, rhs, out)
    # (iii) phi ∘ (S mu^T) = (mu^T S) ∘ (T phi) ∘ (phi T)
    lhs = vcomp(whisker_left(Sf, T.mu), phi)
    rhs = vcomp(whisker_right(phi, Tf),
                vcomp(whisker_left(Tf, phi), whisker_right(T.mu, Sf)))
    _first_diff("MultiplicationSquareT", "Eq-1510071249-i", lhs, rhs, out)
    # (iv) phi ∘ (S eta^T) = eta^T S
    lhs = vcomp(whisker_left(Sf, T.eta), phi)
    rhs = whisker_right(T.eta, Sf)
    _first_diff("UnitTriangleT", "Eq-1510071249-ii", lhs, rhs, out)
    return out


def ref_check_mixed_law(S: Monad, G: Comonad, psi: NatTrans) -> list:
    """Six reported instances: naturality plus the four mixed axioms."""
    out = []
    for v in check_naturality(psi):
        out.append(Violation("LawNotNatural", "law-naturality",
                             where=v.where, lhs=v.lhs, rhs=v.rhs))

    Sf, Gf = S.S, G.G
    # (i)  psi ∘ (mu^S G) = (G mu^S) ∘ (psi S) ∘ (S psi)
    lhs = vcomp(whisker_right(S.mu, Gf), psi)
    rhs = vcomp(whisker_left(Sf, psi),
                vcomp(whisker_right(psi, Sf), whisker_left(Gf, S.mu)))
    _first_diff("MultiplicationSquare", "Eq-1510081240-i", lhs, rhs, out)
    # (ii) psi ∘ (eta^S G) = G eta^S
    lhs = vcomp(whisker_right(S.eta, Gf), psi)
    rhs = whisker_left(Gf, S.eta)
    _first_diff("UnitTriangle", "Eq-1510081240-ii", lhs, rhs, out)
    # (iii) (delta^G S) ∘ psi = (G psi) ∘ (psi G) ∘ (S delta^G)
    lhs = vcomp(psi, whisker_right(G.delta, Sf))
    rhs = vcomp(whisker_left(Sf, G.delta),
                vcomp(whisker_right(psi, Gf), whisker_left(Gf, psi)))
    _first_diff("ComultiplicationSquare", "Eq-1510081242-i", lhs, rhs, out)
    # (iv) (epsilon^G S) ∘ psi = S epsilon^G
    lhs = vcomp(psi, whisker_right(G.epsilon, Sf))
    rhs = whisker_left(Sf, G.epsilon)
    _first_diff("CounitTriangle", "Eq-1510081242-ii", lhs, rhs, out)
    return out


def _ref_mnd_one_cell_sides(self):
    Sf, Tf, P, phi = self.src.S, self.dst.S, self.P, self.phi
    return ((vcomp(whisker_left(Tf, phi),
                   vcomp(whisker_right(phi, Sf), whisker_left(P, self.src.mu))),
             vcomp(whisker_right(self.dst.mu, P), phi)),
            (whisker_left(P, self.src.eta),
             vcomp(whisker_right(self.dst.eta, P), phi)))


def _ref_mnd_two_cell_sides(self):
    Sf, Tf = self.src_cell.src.S, self.src_cell.dst.S
    return ((vcomp(whisker_left(Tf, self.theta), self.dst_cell.phi),
             vcomp(self.src_cell.phi, whisker_right(self.theta, Sf))),)


def _ref_bullet_one_cell_sides(self):
    Sf, Tf, P, psi = self.src.S, self.dst.S, self.P, self.psi
    return ((vcomp(whisker_right(psi, Sf),
                   vcomp(whisker_left(Tf, psi), whisker_right(self.dst.mu, P))),
             vcomp(whisker_left(P, self.src.mu), psi)),
            (whisker_right(self.dst.eta, P),
             vcomp(whisker_left(P, self.src.eta), psi)))


def _ref_bullet_two_cell_sides(self):
    Sf, Tf = self.src_cell.src.S, self.src_cell.dst.S
    return ((vcomp(self.src_cell.psi, whisker_left(Tf, self.theta)),
             vcomp(whisker_right(self.theta, Sf), self.dst_cell.psi)),)


def _ref_comnd_one_cell_sides(self):
    Gf, Hf, P, pi = self.src.G, self.dst.G, self.P, self.pi
    return ((vcomp(pi, whisker_right(self.dst.delta, P)),
             vcomp(whisker_left(P, self.src.delta),
                   vcomp(whisker_right(pi, Gf), whisker_left(Hf, pi)))),
            (vcomp(pi, whisker_right(self.dst.epsilon, P)),
             whisker_left(P, self.src.epsilon)))


def _ref_comnd_two_cell_sides(self):
    Gf, Hf = self.src_cell.src.G, self.src_cell.dst.G
    return ((vcomp(self.src_cell.pi, whisker_left(Hf, self.theta)),
             vcomp(whisker_right(self.theta, Gf), self.dst_cell.pi)),)


_REF_SIDES = {
    MndOneCell: _ref_mnd_one_cell_sides,
    MndTwoCell: _ref_mnd_two_cell_sides,
    MndBulletOneCell: _ref_bullet_one_cell_sides,
    MndBulletTwoCell: _ref_bullet_two_cell_sides,
    CoMndOneCell: _ref_comnd_one_cell_sides,
    CoMndTwoCell: _ref_comnd_two_cell_sides,
}


def ref_cell_check(cell) -> list:
    """The law report of a Mnd, Mnd• or CoMnd 1- or 2-cell: naturality of
    its transformation, then the first failing object of each equation."""
    out = list(check_naturality(cell.nat))
    for (kind, tag), (lhs, rhs) in zip(cell.LAWS, _REF_SIDES[type(cell)](cell)):
        _first_diff(kind, tag, lhs, rhs, out)
    return out


def ref_triangles(L, R, unit: NatTrans, counit: NatTrans) -> list:
    """The triangle identities of a candidate adjunction L ⊣ R."""
    out = []
    # (counit L) ∘ (L unit) = id_L
    _first_diff("TriangleIdentityL", "law-triangle-left",
                vcomp(whisker_left(L, unit), whisker_right(counit, L)),
                identity_nat(L), out)
    # (R counit) ∘ (unit R) = id_R
    _first_diff("TriangleIdentityR", "law-triangle-right",
                vcomp(whisker_right(unit, R), whisker_left(R, counit)),
                identity_nat(R), out)
    return out


def ref_mate_right(sq: CommutingSquareR) -> NatTrans:
    """λ: L̄∘J → K∘L, computed as (ε̄ K L) ∘ (L̄ J η)."""
    LbarJ = compose_functors(sq.cod.L, sq.J)
    KL = compose_functors(sq.K, sq.dom.L)
    return vcomp(whisker_left(LbarJ, sq.dom.unit),
                 whisker_right(sq.cod.counit, KL))


def ref_mate_left(sq: CommutingSquareL) -> NatTrans:
    """ρ: J∘R → R̄∘K, computed as (R̄ K ε) ∘ (η̄ J R)."""
    JR = compose_functors(sq.J, sq.dom.R)
    RbarK = compose_functors(sq.cod.R, sq.K)
    return vcomp(whisker_right(sq.cod.unit, JR),
                 whisker_left(RbarK, sq.dom.counit))


def ref_adjl_two_cell_conditions(src_cell, dst_cell, alpha: NatTrans,
                                 beta: NatTrans):
    """(a) R̄ beta ∘ rho = rho' ∘ alpha R and (b) beta L = L̄ alpha."""
    a_lhs = vcomp(src_cell.mate, whisker_left(src_cell.cod.R, beta))
    a_rhs = vcomp(whisker_right(alpha, src_cell.dom.R), dst_cell.mate)
    cond_a = a_lhs.components == a_rhs.components
    b_lhs = whisker_right(beta, src_cell.dom.L)
    b_rhs = whisker_left(dst_cell.cod.L, alpha)
    cond_b = b_lhs.components == b_rhs.components
    return cond_a, cond_b


def ref_mnd_compose(outer: MndOneCell, inner: MndOneCell) -> MndOneCell:
    """outer ∘ inner; inner first."""
    if inner.dst != outer.src:
        raise TypeMismatch("Mnd 1-cells not composable")
    P = compose_functors(outer.P, inner.P)
    phi = vcomp(whisker_right(outer.phi, inner.P),
                whisker_left(outer.P, inner.phi))
    return MndOneCell(inner.src, outer.dst, P, phi)


def ref_bullet_compose(outer: MndBulletOneCell,
                       inner: MndBulletOneCell) -> MndBulletOneCell:
    if inner.dst != outer.src:
        raise TypeMismatch("Mnd• 1-cells not composable")
    P = compose_functors(outer.P, inner.P)
    psi = vcomp(whisker_left(outer.P, inner.psi),
                whisker_right(outer.psi, inner.P))
    return MndBulletOneCell(inner.src, outer.dst, P, psi)


def ref_comnd_compose(outer: CoMndOneCell, inner: CoMndOneCell) -> CoMndOneCell:
    if inner.dst != outer.src:
        raise TypeMismatch("CoMnd 1-cells not composable")
    P = compose_functors(outer.P, inner.P)
    pi = vcomp(whisker_left(outer.P, inner.pi),
               whisker_right(outer.pi, inner.P))
    return CoMndOneCell(inner.src, outer.dst, P, pi)


# ---------------------------------------------------------------------------
# The monad search as first written
#
# Every natural mu of every endofunctor S, paired with every natural eta,
# is built into a Monad and kept when check_monad_laws finds nothing; the
# cap bounds the product of the mu and eta choices over all S. The
# library searches mu with the laws checked as its components are fixed;
# the tests hold its lists, their order and the comonad side to this.


def ref_enumerate_monads(cat: FinCategory, cap: int = DEFAULT_CAP) -> list:
    """All monads on the category: deterministic, duplicate-free, sorted.

    Raises :class:`EnumerationCapExceeded` when the candidate space
    |endofunctors| x |mu choices| x |eta choices| exceeds the cap.
    """
    endos = enumerate_functors(cat, cat, cap=cap)

    estimate = 0
    for S in endos:
        mu_n = eta_n = 1
        for x in cat.objects:
            mu_n *= len(cat.hom(S.ob(S.ob(x)), S.ob(x)))
            eta_n *= len(cat.hom(x, S.ob(x)))
        estimate += mu_n * eta_n
        if estimate > cap:
            raise EnumerationCapExceeded(estimate, cap)

    Id = identity_functor(cat)

    def monads_on(S: Functor) -> list:
        found = []
        etas = enumerate_nat_trans(Id, S, cap=cap)
        for mu in enumerate_nat_trans(compose_functors(S, S), S, cap=cap):
            for eta in etas:
                m = Monad(cat, S, mu, eta)
                if not check_monad_laws(m):
                    found.append(m)
        return found

    groups = [monads_on(S) for S in endos]
    out = [m for group in groups for m in group]
    out.sort(key=lambda m: m.canonical_key())
    return out


# ---------------------------------------------------------------------------
# The algebra and Kleisli constructions and psi_K as first written
#
# Each construction names the morphisms of its category, its F or D and
# its counit by hand, and the Kleisli category looks a morphism up by its
# (underlying, source, target) triple, which psi_K names its images
# through. The library names everything over the base with one record;
# the construction tests hold its categories, functors, adjunctions and
# psi_K images to these.


class RefEmAlgebraCategory:
    """Algebras (X, chi) of a monad with the free/forgetful adjunction F ⊣ U."""

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

    def algebra_objects(self):
        """(object id, carrier, structure map) in canonical order."""
        return [(a, self._carrier[a], self._structure[a])
                for a in self.category.objects]

    def free_algebra(self, x):
        return self._free[x]

    def underlying(self, morph):
        return self._underlying[morph]


def ref_em_category(m: Monad, cap: int = DEFAULT_CAP) -> RefEmAlgebraCategory:
    """Enumerate all algebras and algebra morphisms of a valid monad."""
    m.require_valid()
    em = ref__em_category(m, cap, _algebra_morphism_id)
    if induced_monad(em.adj) != m:
        raise AssertionError("algebra adjunction does not induce its monad")
    return em


def ref__em_category(m: Monad, cap: int, name) -> RefEmAlgebraCategory:
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

    return RefEmAlgebraCategory(m, category, U, F, adj, carrier, structure,
                                underlying, free)


class RefKleisliCategory:
    """Same objects as the base; hom(X, Y) is hom_base(X, TY)."""

    def __init__(self, monad, category, D, V, adj, underlying, by_data):
        self.monad = monad
        self.category = category
        self.D = D
        self.V = V
        self.adj = adj
        self._underlying = underlying
        self._by_data = by_data

    def kleisli_id(self, y, src, tgt):
        return self._by_data[(y, src, tgt)]

    def underlying(self, morph):
        """(underlying base morphism, source object, target object)."""
        return self._underlying[morph]


def ref_kleisli_category(m: Monad) -> RefKleisliCategory:
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

    kl = RefKleisliCategory(m, category, D, V, adj, underlying, by_data)
    if induced_monad(adj) != m:
        raise AssertionError("Kleisli adjunction does not induce its monad")
    return kl


def ref_psi_k_1cell(cell: MndBulletOneCell, src_kl: RefKleisliCategory = None,
                    dst_kl: RefKleisliCategory = None) -> AdjLOneCell:
    """(P, psi) ↦ (P, P_psi, rho^P) between Kleisli adjunctions.

    P_psi fixes objects to P X and sends y♯: X → Y to (psi_Y ∘ P y)♯.
    """
    src_kl = src_kl if src_kl is not None else ref_kleisli_category(cell.src)
    dst_kl = dst_kl if dst_kl is not None else ref_kleisli_category(cell.dst)
    base = cell.dst.base
    obj_map = {x: cell.P.ob(x) for x in src_kl.category.objects}
    mor_map = {}
    for mm in src_kl.category.morphisms:
        y, x_src, y_tgt = src_kl.underlying(mm.id)
        under = base.compose(cell.P.mor(y), cell.psi.at(y_tgt))
        mor_map[mm.id] = dst_kl.kleisli_id(under, cell.P.ob(x_src),
                                           cell.P.ob(y_tgt))
    Ppsi = Functor(src_kl.category, dst_kl.category, obj_map, mor_map)
    return AdjLOneCell(src_kl.adj, dst_kl.adj, cell.P, Ppsi)


def ref_psi_k_2cell(t: MndBulletTwoCell, src_kl: RefKleisliCategory = None,
                    dst_kl: RefKleisliCategory = None,
                    src_acell: AdjLOneCell = None,
                    dst_acell: AdjLOneCell = None) -> AdjLTwoCell:
    """theta ↦ (theta, theta^psi) with theta^psi(X) = (eta^T_{Q X} ∘ theta_X)♯.

    The 2-cell laws of the result are re-checked by the AdjL constructor;
    a failure raises TwoCellLawViolation rather than being repaired.
    """
    src_kl = src_kl if src_kl is not None else ref_kleisli_category(t.src_cell.src)
    dst_kl = dst_kl if dst_kl is not None else ref_kleisli_category(t.src_cell.dst)
    if src_acell is None:
        src_acell = ref_psi_k_1cell(t.src_cell, src_kl, dst_kl)
    if dst_acell is None:
        dst_acell = ref_psi_k_1cell(t.dst_cell, src_kl, dst_kl)
    base = t.src_cell.dst.base
    eta = t.src_cell.dst.eta
    comps = {}
    for x in src_kl.category.objects:
        qx = t.dst_cell.P.ob(x)
        under = base.compose(t.theta.at(x), eta.at(qx))
        comps[x] = dst_kl.kleisli_id(under, t.src_cell.P.ob(x), qx)
    beta = NatTrans(src_acell.K, dst_acell.K, comps)
    return AdjLTwoCell(src_acell, dst_acell, t.theta, beta)


# ---------------------------------------------------------------------------
# Lifting and extension as written once per kind
#
# Each builds the psi image of a structure 1-cell and of its two structure
# 2-cells by hand; the library shares one construction between them. The
# tests hold its endofunctors and structure components to these.


def ref_lift_monad(dl: DistributiveLaw, em: EmAlgebraCategory = None) -> LiftedMonad:
    """Lift T to the algebras of S along a valid law phi: ST → TS.

    That is the psi_E image of the 1-cell (T, phi); mu_hat and eta_hat are
    the psi_E images of mu^T and eta^T as 2-cells.
    """
    dl.require_valid()
    em = em if em is not None else em_category(dl.S)
    cell = MndOneCell(dl.S, dl.S, dl.T.S, dl.phi).require_valid()
    acell = psi_e_1cell(cell, em, em)
    comp_cell = mnd_compose(cell, cell)
    comp_acell = psi_e_1cell(comp_cell, em, em)
    id_cell = mnd_identity_cell(dl.S)
    id_acell = psi_e_1cell(id_cell, em, em)
    mu2 = MndTwoCell(comp_cell, cell, dl.T.mu).require_valid()
    eta2 = MndTwoCell(id_cell, cell, dl.T.eta).require_valid()
    mu_pair = psi_e_2cell(mu2, em, em, comp_acell, acell)
    eta_pair = psi_e_2cell(eta2, em, em, id_acell, acell)
    return LiftedMonad(dl.S, em, dl.T, acell.K, mu_pair.beta, eta_pair.beta)


def ref_extend_monad(dl: DistributiveLaw,
                     kl: RefKleisliCategory = None) -> KleisliExtension:
    """Extend S to the Kleisli category of T along a valid law.

    Stilde is the psi_K image of the Mnd• 1-cell (S, phi); mu_tilde and
    eta_tilde are the psi_K images of mu^S and eta^S as 2-cells.
    """
    dl.require_valid()
    kl = kl if kl is not None else ref_kleisli_category(dl.T)
    cell = MndBulletOneCell(dl.T, dl.T, dl.S.S, dl.phi).require_valid()
    acell = ref_psi_k_1cell(cell, kl, kl)
    comp_cell = bullet_compose(cell, cell)
    comp_acell = ref_psi_k_1cell(comp_cell, kl, kl)
    id_cell = bullet_identity_cell(dl.T)
    id_acell = ref_psi_k_1cell(id_cell, kl, kl)
    mu2 = MndBulletTwoCell(comp_cell, cell, dl.S.mu).require_valid()
    eta2 = MndBulletTwoCell(id_cell, cell, dl.S.eta).require_valid()
    mu_pair = ref_psi_k_2cell(mu2, kl, kl, comp_acell, acell)
    eta_pair = ref_psi_k_2cell(eta2, kl, kl, id_acell, acell)
    return KleisliExtension(dl.S, dl.T, kl, acell.K, mu_pair.beta, eta_pair.beta)


def ref_comonad_lifting(ml: MixedDistributiveLaw, em: EmAlgebraCategory) -> tuple:
    """(Ghat, delta_hat, eps_hat) for a valid mixed law: the psi_E images of
    the 1-cell (G, psi) and of delta^G and epsilon^G as 2-cells."""
    cell = MndOneCell(ml.S, ml.S, ml.G.G, ml.psi).require_valid()
    acell = psi_e_1cell(cell, em, em)
    comp_cell = mnd_compose(cell, cell)
    comp_acell = psi_e_1cell(comp_cell, em, em)
    id_cell = mnd_identity_cell(ml.S)
    id_acell = psi_e_1cell(id_cell, em, em)
    delta2 = MndTwoCell(cell, comp_cell, ml.G.delta).require_valid()
    eps2 = MndTwoCell(cell, id_cell, ml.G.epsilon).require_valid()
    delta_pair = psi_e_2cell(delta2, em, em, acell, comp_acell)
    eps_pair = psi_e_2cell(eps2, em, em, acell, id_acell)
    return acell.K, delta_pair.beta, eps_pair.beta


# ---------------------------------------------------------------------------
# The functor search as first written on the backtracking kernel
#
# Every object map that passes every object check has its morphism images
# searched with every composition check, and the search plan is rebuilt
# on every call. The library takes forced images without a search, keeps
# only the object checks that others do not imply, and plans once per
# source; the tests hold its lists, their order and its cap verdicts and
# counts to this.


def _ref_morphism_plan(cat: FinCategory) -> tuple:
    """Search order and composition checks for the morphism images of
    functors out of ``cat``: identities first, then each freely chosen
    morphism followed by every composite of the morphisms placed so far.
    ``checks[i]`` lists the positions ``(f, g, h)`` with f;g = h whose last
    position is ``i``; pairs with an identity are left out."""
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
    return order, checks


def ref_enumerate_functors(source: FinCategory, target: FinCategory,
                           cap: int = DEFAULT_CAP) -> list:
    """All functors source → target, canonically ordered: object images
    keeping hom(F a, F b) inhabited for every source morphism a → b, then
    for each object map the morphism images, with identities forced and
    F(f;g) = F f ; F g checked as soon as all three images are chosen."""
    objs = source.objects
    tobjs = target.objects
    pos = source.positions()
    inhabited = set(target._hom)
    obj_checks = [[] for _ in objs]
    for i, j in sorted({(pos[m.src], pos[m.tgt]) for m in source.morphisms
                        if m.src != m.tgt}):
        obj_checks[max(i, j)].append(
            lambda a, i=i, j=j: (a[i], a[j]) in inhabited)

    order, plan = _ref_morphism_plan(source)
    table = target._table
    mor_checks = [[lambda a, f=f, g=g, h=h: table[a[f]][a[g]] == a[h]
                   for f, g, h in group] for group in plan]
    index = target._index
    hom = target.index_hom()
    ident = {x: (index[target.identity(x)],) for x in tobjs}
    ends = [(source.src(m), source.tgt(m), source.is_identity(m)) for m in order]
    names = [m.id for m in target.morphisms]

    def functors_over(images, budget):
        omap = dict(zip(objs, images))
        domains = [ident[omap[a]] if forced else hom.get((omap[a], omap[b]), ())
                   for a, b, forced in ends]
        return [Functor(source, target, omap,
                        {m: names[k] for m, k in zip(order, found)})
                for found in _backtrack(domains, mor_checks, budget)]

    def branch(first, budget):
        domains = [(first,)] + [tobjs] * (len(objs) - 1)
        return [F for images in _backtrack(domains, obj_checks, budget)
                for F in functors_over(images, budget)]

    budget = _Budget(cap)
    if objs:
        groups = [branch(first, budget) for first in tobjs]
    else:
        groups = [functors_over((), budget)]
    out = [F for group in groups for F in group]
    out.sort(key=lambda F: F.canonical_key())
    return out
