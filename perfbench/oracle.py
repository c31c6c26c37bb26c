"""Raw-table brute force: the benchmark's independent oracle.

Nothing here imports ``finmonad``. Categories are the JSON file format
(``objects``, ``morphisms``, ``identities``, ``composition`` with
``equals = then ∘ first``), always written out in full: every identity and
every composite is listed. The counters below enumerate functors, monads,
comonads and Mnd endo-1-cells straight from those tables, so the answers
stored in :mod:`workloads` can be re-derived without the code under test.
"""

from __future__ import annotations

import itertools


# ---------------------------------------------------------------------------
# Raw categories


def _category(objects, morphisms, identities, compose):
    """Full raw table from a cell list and a composition rule."""
    comp = []
    for f in morphisms:
        for g in morphisms:
            if f["tgt"] == g["src"]:
                comp.append({"first": f["id"], "then": g["id"],
                             "equals": compose(f["id"], g["id"])})
    return {"objects": list(objects), "morphisms": list(morphisms),
            "identities": dict(identities), "composition": comp}


def chain(n: int) -> dict:
    """The poset 0 < 1 < ... < n-1; the arrow i -> j is ``f{i}{j}``."""
    objs = [str(i) for i in range(n)]
    name = {(i, j): (f"id_{i}" if i == j else f"f{i}{j}")
            for i in range(n) for j in range(i, n)}
    morphs = [{"id": name[(i, j)], "src": str(i), "tgt": str(j)}
              for i in range(n) for j in range(i, n)]
    ends = {v: k for k, v in name.items()}
    return _category(objs, morphs, {str(i): name[(i, i)] for i in range(n)},
                     lambda f, g: name[(ends[f][0], ends[g][1])])


def cyclic(n: int) -> dict:
    """The one-object category of the group Z_n; ``r{k}`` is rotation by k."""
    morphs = [{"id": f"r{k}", "src": "g", "tgt": "g"} for k in range(n)]
    return _category(["g"], morphs, {"g": "r0"},
                     lambda f, g: f"r{(int(f[1:]) + int(g[1:])) % n}")


def transformation_monoid(n: int) -> dict:
    """The one-object category of all maps {0..n-1} -> {0..n-1}.

    ``t{m0}{m1}...`` is the map i -> m_i; composing applies ``first``, then
    ``then``.
    """
    maps = list(itertools.product(range(n), repeat=n))
    name = {m: "t" + "".join(map(str, m)) for m in maps}
    by_name = {v: k for k, v in name.items()}
    morphs = [{"id": name[m], "src": "g", "tgt": "g"} for m in maps]

    def compose(f, g):
        a, b = by_name[f], by_name[g]
        return name[tuple(b[a[i]] for i in range(n))]

    return _category(["g"], morphs, {"g": name[tuple(range(n))]}, compose)


def chain2_times_z2() -> dict:
    """The product of the 2-chain a < b with Z2: six morphisms, not thin."""
    base = {"ia": ("a", "a"), "ib": ("b", "b"), "f": ("a", "b")}
    morphs = [{"id": h + z, "src": s, "tgt": t}
              for h, (s, t) in base.items() for z in "es"]

    def compose(f, g):
        h = "f" if "f" in (f[:-1], g[:-1]) else f[:-1]
        return h + ("e" if f[-1] == g[-1] else "s")

    return _category(["a", "b"], morphs, {"a": "iae", "b": "ibe"}, compose)


# ---------------------------------------------------------------------------
# Table view


class Table:
    """Lookups over a raw category: ``comp(f, g)`` is g ∘ f."""

    def __init__(self, raw: dict):
        self.objects = list(raw["objects"])
        self.morphisms = [m["id"] for m in raw["morphisms"]]
        self.src = {m["id"]: m["src"] for m in raw["morphisms"]}
        self.tgt = {m["id"]: m["tgt"] for m in raw["morphisms"]}
        self.ident = dict(raw["identities"])
        self._comp = {(c["first"], c["then"]): c["equals"]
                      for c in raw["composition"]}
        self._hom = {}
        for m in self.morphisms:
            self._hom.setdefault((self.src[m], self.tgt[m]), []).append(m)

    def hom(self, a, b) -> list:
        return self._hom.get((a, b), [])

    def comp(self, f, g):
        return self._comp[(f, g)]

    def composable_pairs(self):
        return list(self._comp)

    def le(self, a, b) -> bool:
        return bool(self.hom(a, b))


# ---------------------------------------------------------------------------
# Functors, as (object map, morphism map) pairs


def functors(C: Table) -> list:
    """Every endofunctor of C, by backtracking over the raw tables."""
    out = []
    morphs = C.morphisms
    for images in itertools.product(C.objects, repeat=len(C.objects)):
        ob = dict(zip(C.objects, images))
        choices = []
        for m in morphs:
            if m == C.ident.get(C.src[m]) and C.src[m] == C.tgt[m]:
                choices.append([C.ident[ob[C.src[m]]]])
            else:
                choices.append(C.hom(ob[C.src[m]], ob[C.tgt[m]]))
        if any(not c for c in choices):
            continue
        for combo in itertools.product(*choices):
            mor = dict(zip(morphs, combo))
            if all(mor[C.comp(f, g)] == C.comp(mor[f], mor[g])
                   for f, g in C.composable_pairs()):
                out.append((ob, mor))
    return out


def _natural(C: Table, F, G, comps) -> bool:
    """comps: F -> G is natural (F, G are (ob, mor) pairs)."""
    return all(C.comp(F[1][m], comps[C.tgt[m]]) == C.comp(comps[C.src[m]], G[1][m])
               for m in C.morphisms)


def _compose(F, G):
    """F ∘ G: apply G first."""
    return ({x: F[0][y] for x, y in G[0].items()},
            {m: F[1][n] for m, n in G[1].items()})


def _identity(C: Table):
    return ({x: x for x in C.objects}, {m: m for m in C.morphisms})


def _transformations(C: Table, F, G) -> list:
    objs = C.objects
    out = []
    for combo in itertools.product(*(C.hom(F[0][x], G[0][x]) for x in objs)):
        comps = dict(zip(objs, combo))
        if _natural(C, F, G, comps):
            out.append(comps)
    return out


def monads(C: Table, endos=None) -> list:
    """Every (S, mu, eta) on C satisfying naturality and the monad laws."""
    endos = functors(C) if endos is None else endos
    Id = _identity(C)
    out = []
    for S in endos:
        SS = _compose(S, S)
        for mu in _transformations(C, SS, S):
            if not all(C.comp(S[1][mu[x]], mu[x]) == C.comp(mu[S[0][x]], mu[x])
                       for x in C.objects):
                continue
            for eta in _transformations(C, Id, S):
                if all(C.comp(eta[S[0][x]], mu[x]) == C.ident[S[0][x]]
                       and C.comp(S[1][eta[x]], mu[x]) == C.ident[S[0][x]]
                       for x in C.objects):
                    out.append((S, mu, eta))
    return out


def comonads(C: Table, endos=None) -> list:
    """Every (G, delta, eps) on C satisfying naturality and the comonad laws."""
    endos = functors(C) if endos is None else endos
    Id = _identity(C)
    out = []
    for G in endos:
        GG = _compose(G, G)
        for delta in _transformations(C, G, GG):
            if not all(C.comp(delta[x], delta[G[0][x]])
                       == C.comp(delta[x], G[1][delta[x]]) for x in C.objects):
                continue
            for eps in _transformations(C, G, Id):
                if all(C.comp(delta[x], eps[G[0][x]]) == C.ident[G[0][x]]
                       and C.comp(delta[x], G[1][eps[x]]) == C.ident[G[0][x]]
                       for x in C.objects):
                    out.append((G, delta, eps))
    return out


# ---------------------------------------------------------------------------
# Monads given by tables, and the Mnd hom-category at (C, S)


def thin_monad(C: Table, object_map: dict):
    """The closure-operator monad with the given object map on a poset."""
    def arrow(a, b):
        h = C.hom(a, b)
        if len(h) != 1:
            raise ValueError(f"not a monotone inflationary map at {a}->{b}")
        return h[0]
    S = (dict(object_map),
         {m: arrow(object_map[C.src[m]], object_map[C.tgt[m]])
          for m in C.morphisms})
    mu = {x: arrow(object_map[object_map[x]], object_map[x]) for x in C.objects}
    eta = {x: arrow(x, object_map[x]) for x in C.objects}
    return S, mu, eta


def mnd_endocells(C: Table, monad) -> tuple:
    """(#1-cells, #2-cells) of the endo hom-category at (C, S) in Mnd.

    A 1-cell is (P, phi: S P -> P S), natural, with phi . eta P = P eta and
    phi . mu P = P mu . phi S . S phi. A 2-cell (P, phi) -> (P', phi') is a
    natural theta: P -> P' with phi' . S theta = theta S . phi.
    """
    S, mu, eta = monad
    cells = []
    for P in functors(C):
        SP, PS = _compose(S, P), _compose(P, S)
        for phi in _transformations(C, SP, PS):
            ok = all(
                C.comp(eta[P[0][x]], phi[x]) == P[1][eta[x]]
                and C.comp(mu[P[0][x]], phi[x])
                == C.comp(C.comp(S[1][phi[x]], phi[S[0][x]]), P[1][mu[x]])
                for x in C.objects)
            if ok:
                cells.append((P, phi))
    two = 0
    for P, phi in cells:
        for Q, psi in cells:
            for theta in _transformations(C, P, Q):
                if all(C.comp(phi[x], theta[S[0][x]])
                       == C.comp(S[1][theta[x]], psi[x]) for x in C.objects):
                    two += 1
    return len(cells), two


# ---------------------------------------------------------------------------
# Poset facts


def law_exists(C: Table, s_map: dict, t_map: dict) -> bool:
    """On a poset a law S T -> T S exists iff S T x <= T S x pointwise.

    The same test with a comonad's object map as ``t_map`` decides mixed
    laws S G -> G S.
    """
    return all(C.le(s_map[t_map[x]], t_map[s_map[x]]) for x in C.objects)


def fixed_points(s_map: dict) -> int:
    """Algebras of a closure operator are its closed elements."""
    return sum(1 for x, y in s_map.items() if x == y)


def kleisli_morphisms(C: Table, s_map: dict) -> int:
    """|hom_K(x, y)| = |hom(x, S y)| summed over all pairs."""
    return sum(len(C.hom(x, s_map[y])) for x in C.objects for y in C.objects)


def poset_morphisms(C: Table, keep) -> int:
    """Arrows of the full subposet on the objects in ``keep``."""
    return sum(1 for a in keep for b in keep if C.le(a, b))
