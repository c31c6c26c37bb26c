"""Brute-force oracles and small test categories.

The oracles search the whole product space: every object map, then every
product of hom-sets, each candidate filtered by the law checkers of
:mod:`finmonad.fincat`. They are slow but plainly exhaustive, and the
tests hold the backtracking enumerators of ``fincat`` to them.
"""

from itertools import product

from hypothesis import strategies as st

from finmonad.fincat import (
    Functor,
    NatTrans,
    check_functor,
    check_naturality,
    validate_category,
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


@st.composite
def posets(draw):
    """A random poset on up to four elements, as a thin category.

    It is the reflexive-transitive closure of a random relation that only
    points up the index order, so antisymmetry comes for free.
    """
    n = draw(st.integers(min_value=0, max_value=4))
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
