"""The fixture-corpus acceptance suite behind the ``selftest`` command.

Each criterion function returns report entries; ``run_selftest`` strings
them together, then runs the suite a second time in the same process and
byte-compares the serialized results, so a nondeterministic enumeration,
or state that one pass leaves to the next, fails loudly.
"""

from __future__ import annotations

import json

from .adjunction import (
    CommutingSquareL,
    CommutingSquareR,
    identity_adjunction,
    induced_comonad,
    induced_monad,
)
from .construct import em_category, em_coalgebra_category, kleisli_category
from .distlaw import enumerate_mixed_laws, untypable_objects
from .fincat import (
    FinCategory,
    identity_functor,
    identity_nat,
    vcomp,
    whisker_left,
    whisker_right,
)
from .fixtures import FixtureCorpus, corpus
from .monad import enumerate_comonads, enumerate_monads
from .report import CheckEntry, VerificationReport, entry
from .twofunctors import (
    adjr_two_cell_agreement,
    enumerate_adjr_endocells,
    hom_iso_roundtrip,
    law_round_trips,
    mixed_round_trips,
)

_C3_MONAD_NAMES = ("id", "c1", "c2", "c3")


def _operator_count(cat: FinCategory, inflationary: bool) -> int:
    """Count monotone, idempotent self-maps that are inflationary (closure
    operators) or deflationary (interior operators) by raw table scan."""
    from itertools import product as _product

    objs = cat.objects
    count = 0
    for combo in _product(objs, repeat=len(objs)):
        f = dict(zip(objs, combo))
        if not all(cat.le(x, f[x]) if inflationary else cat.le(f[x], x)
                   for x in objs):
            continue
        if not all(f[f[x]] == f[x] for x in objs):
            continue
        if not all(not cat.le(x, y) or cat.le(f[x], f[y])
                   for x in objs for y in objs):
            continue
        count += 1
    return count


def criterion_1_fixture_enumeration(cor: FixtureCorpus) -> list:
    entries = []
    monads = enumerate_monads(cor.c3)
    entries.append(entry("criterion-1/monads-on-C3", "chk-enumeration",
                         len(monads) == 4, witness={"count": len(monads)}))
    oracle = _operator_count(cor.c3, inflationary=True)
    entries.append(entry("criterion-1/closure-operator-oracle",
                         "chk-enumeration", oracle == len(monads),
                         witness={"oracle": oracle}))
    comonads = enumerate_comonads(cor.c3)
    entries.append(entry("criterion-1/comonads-on-C3", "chk-enumeration",
                         len(comonads) == 4, witness={"count": len(comonads)}))
    oracle = _operator_count(cor.c3, inflationary=False)
    entries.append(entry("criterion-1/interior-operator-oracle",
                         "chk-enumeration", oracle == len(comonads),
                         witness={"oracle": oracle}))
    return entries


def _c3_pairs(cor: FixtureCorpus):
    for sn in _C3_MONAD_NAMES:
        for tn in _C3_MONAD_NAMES:
            yield sn, tn, cor.monads_c3[sn], cor.monads_c3[tn]


def criteria_2_to_4_laws(cor: FixtureCorpus) -> list:
    """Criteria 2 (counts), 3 (lifting round trips) and 4 (extensions, for
    the pairs that have a law) over the ordered pairs of monads on C3,
    each pair checked once; the entries come criterion by criterion."""
    counts, round_trips, joint = [], [], []
    for sn, tn, S, T in _c3_pairs(cor):
        r = law_round_trips(S, T)
        laws, lifts = r["laws"], r["liftings"]
        counts.append(entry(
            f"criterion-2/{sn}-to-{tn}/count-equality", "Thm-1705201918",
            laws == lifts, witness={"laws": laws, "liftings": lifts}))
        counts.append(entry(
            f"criterion-2/{sn}-to-{tn}/pointwise-criterion",
            "chk-pointwise-criterion", (laws > 0) == r["pointwise"],
            witness={"predicted": r["pointwise"], "found": laws}))
        round_trips.append(entry(
            f"criterion-3/{sn}-to-{tn}/extract-after-lift", "chk-round-trip",
            r["extract_after_lift"], witness={"laws": laws}))
        round_trips.append(entry(
            f"criterion-3/{sn}-to-{tn}/lift-after-extract", "chk-round-trip",
            r["lift_after_extract"], witness={"liftings": lifts}))
        if not laws:
            continue
        joint.append(entry(
            f"criterion-4/{sn}-to-{tn}/extension-roundtrip", "Thm-1501131518",
            r["extension_roundtrip"], witness={"laws": laws}))
        joint.append(entry(
            f"criterion-4/{sn}-to-{tn}/joint-compatibility",
            "chk-joint-compatibility", r["joint_compatibility"]))
    return counts + round_trips + joint


def criterion_5_mixed(cor: FixtureCorpus) -> list:
    entries = []
    cases = [("C2", cor.monads_c2, cor.comonads_c2),
             ("C3", cor.monads_c3, cor.comonads_c3)]
    for cat_name, monads, comonads in cases:
        for sn, S in sorted(monads.items()):
            for gn, G in sorted(comonads.items()):
                name = f"criterion-5/{cat_name}/{sn}-to-{gn}"
                unt = untypable_objects(S, G)
                if unt:
                    laws = enumerate_mixed_laws(S, G)
                    entries.append(entry(f"{name}/untypable-yields-zero",
                                         "chk-pointwise-criterion",
                                         len(laws) == 0,
                                         witness={"untypable_at": unt[0]}))
                    continue
                r = mixed_round_trips(S, G)
                entries.append(entry(f"{name}/count-equality", "Thm-1705222141",
                                     r["laws"] == r["liftings"],
                                     witness={"laws": r["laws"],
                                              "liftings": r["liftings"]}))
                entries.append(entry(f"{name}/mixed-roundtrips",
                                     "Thm-1501140312", r["mixed_roundtrips"]))
                entries.append(entry(f"{name}/mixed-compatibility",
                                     "Eq-1510081654", r["compatibility"]))
    return entries


def criterion_6_two_adjunction_sanity(cor: FixtureCorpus) -> list:
    entries = []
    ok_em = ok_kl = ok_mates = ok_triangles = True
    for cat_name, name, m in cor.all_monads():
        em = em_category(m)
        if induced_monad(em.adj) != m:
            ok_em = False
        kl = kleisli_category(m)
        if induced_monad(kl.adj) != m:
            ok_kl = False
        for adj in (em.adj, kl.adj, identity_adjunction(m.base)):
            left = vcomp(whisker_left(adj.L, adj.unit),
                         whisker_right(adj.counit, adj.L))
            right = vcomp(whisker_right(adj.unit, adj.R),
                          whisker_left(adj.R, adj.counit))
            if (left.components != identity_nat(adj.L).components
                    or right.components != identity_nat(adj.R).components):
                ok_triangles = False
            for square, side in ((CommutingSquareR, adj.L), (CommutingSquareL, adj.R)):
                sq = square(adj, adj, identity_functor(adj.base),
                            identity_functor(adj.upper))
                if sq.mate.components != identity_nat(side).components:
                    ok_mates = False
    entries.append(entry("criterion-6/induced-monad-of-algebra-adjunction",
                         "Eq-1510131206", ok_em))
    entries.append(entry("criterion-6/induced-monad-of-kleisli-adjunction",
                         "chk-kleisli-counit-identity", ok_kl))
    entries.append(entry("criterion-6/triangle-identities",
                         "law-triangle-left", ok_triangles))
    entries.append(entry("criterion-6/identity-square-mates", "chk-mate",
                         ok_mates))
    ok_co = True
    for cat_name, name, c in cor.all_comonads():
        co = em_coalgebra_category(c)
        if induced_comonad(co.adj) != c:
            ok_co = False
    entries.append(entry("criterion-6/induced-comonad-of-coalgebra-adjunction",
                         "Eq-1510131206", ok_co))
    return entries


def criterion_7_hom_isomorphism(cor: FixtureCorpus) -> list:
    entries = []
    for label, m in (("C2-id", cor.monads_c2["id"]),
                     ("C3-c1", cor.monads_c3["c1"])):
        for e in hom_iso_roundtrip(m):
            entries.append(CheckEntry(f"criterion-7/{label}/{e.check}", e.tag,
                                      e.status, e.witness, e.detail))
    return entries


def criterion_8_two_cell_equivalence(cor: FixtureCorpus) -> list:
    em = em_category(cor.monads_c3["c2"])
    cells = enumerate_adjr_endocells(em)
    stats = adjr_two_cell_agreement(cells)
    return [entry("criterion-8/adjr-two-cell-conditions-agree",
                  "chk-two-cell-agreement",
                  stats["checked"] > 0 and stats["agree"] == stats["checked"],
                  witness={"checked": stats["checked"],
                           "agree": stats["agree"]})]


def criteria_entries() -> list:
    cor = corpus()
    entries = []
    entries.extend(criterion_1_fixture_enumeration(cor))
    entries.extend(criteria_2_to_4_laws(cor))
    entries.extend(criterion_5_mixed(cor))
    entries.extend(criterion_6_two_adjunction_sanity(cor))
    entries.extend(criterion_7_hom_isomorphism(cor))
    entries.extend(criterion_8_two_cell_equivalence(cor))
    return entries


def _serialize_entries(entries) -> str:
    return json.dumps(
        [{"check": e.check, "tag": e.tag, "status": e.status,
          "witness": e.witness, "detail": e.detail} for e in entries],
        sort_keys=True, ensure_ascii=False)


def run_selftest(seed: int = 0) -> VerificationReport:
    entries = criteria_entries()
    # criterion 9: the reported pass against a second pass, which reads
    # every construction the first one built back from the memo
    other = _serialize_entries(criteria_entries())
    entries.append(entry("criterion-9/worker-count-determinism",
                         "chk-determinism", _serialize_entries(entries) == other))
    return VerificationReport("selftest", [], seed, entries)
