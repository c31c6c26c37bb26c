"""Acceptance suite: one test per criterion, each printing a pass/fail
line. Discrete structures get zero tolerance (exact equality); runtime
bounds are asserted with wall-clock measurements.
"""

import json
import subprocess
import sys
import time
from itertools import product

from finmonad.construct import em_category, em_coalgebra_category, kleisli_category
from finmonad.adjunction import (
    CommutingSquareL,
    CommutingSquareR,
    identity_adjunction,
    induced_comonad,
    induced_monad,
    mate_left,
    mate_right,
)
from finmonad.distlaw import enumerate_dist_laws, enumerate_mixed_laws, untypable_objects
from finmonad.fincat import identity_functor, identity_nat
from finmonad.monad import enumerate_comonads, enumerate_monads
from finmonad.selftest import (
    criterion_7_hom_isomorphism,
    criterion_8_two_cell_equivalence,
)
from finmonad.twofunctors import (
    check_joint_compatibility,
    check_mixed_compatibility,
    colift_monad,
    enumerate_comonad_liftings,
    enumerate_liftings,
    extend_monad,
    extract_dist_law,
    extract_from_extension,
    extract_mixed_from_colifting,
    extract_mixed_from_lifting,
    lift_comonad,
    lift_monad,
)

C3_NAMES = ("id", "c1", "c2", "c3")


def _report(name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, name


def _closure_maps(cat, inflationary=True):
    objs = cat.objects
    out = []
    for combo in product(objs, repeat=len(objs)):
        f = dict(zip(objs, combo))
        if inflationary and not all(cat.le(x, f[x]) for x in objs):
            continue
        if not inflationary and not all(cat.le(f[x], x) for x in objs):
            continue
        if not all(f[f[x]] == f[x] for x in objs):
            continue
        if not all(not cat.le(x, y) or cat.le(f[x], f[y])
                   for x in objs for y in objs):
            continue
        out.append(f)
    return out


def test_criterion_1_fixture_enumeration(cor):
    started = time.perf_counter()
    monads = enumerate_monads(cor.c3)
    comonads = enumerate_comonads(cor.c3)
    elapsed = time.perf_counter() - started
    closure_oracle = len(_closure_maps(cor.c3, inflationary=True))
    interior_oracle = len(_closure_maps(cor.c3, inflationary=False))
    ok = (len(monads) == 4 and len(comonads) == 4
          and closure_oracle == 4 and interior_oracle == 4
          and elapsed < 1.0)
    _report("criterion-1 fixture enumeration", ok,
            f"monads={len(monads)} comonads={len(comonads)} "
            f"oracles=({closure_oracle},{interior_oracle}) "
            f"time={elapsed:.3f}s<1s")


def test_criterion_2_bijection_counts(cor):
    started = time.perf_counter()
    ok = True
    for sn in C3_NAMES:
        for tn in C3_NAMES:
            S, T = cor.monads_c3[sn], cor.monads_c3[tn]
            laws = enumerate_dist_laws(S, T)
            lifts = enumerate_liftings(S, T)
            if len(laws) != len(lifts):
                ok = False
            predicted = all(cor.c3.le(S.S.ob(T.S.ob(x)), T.S.ob(S.S.ob(x)))
                            for x in cor.c3.objects)
            if (len(laws) > 0) != predicted:
                ok = False
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 30.0
    _report("criterion-2 bijection counts over 4x4 pairs", ok,
            f"time={elapsed:.3f}s<30s")


def test_criterion_3_round_trips(cor):
    ok = True
    for sn in C3_NAMES:
        for tn in C3_NAMES:
            S, T = cor.monads_c3[sn], cor.monads_c3[tn]
            em = em_category(S)
            for dl in enumerate_dist_laws(S, T):
                if extract_dist_law(lift_monad(dl, em)) != dl:
                    ok = False
            for lm in enumerate_liftings(S, T):
                if lift_monad(extract_dist_law(lm), em) != lm:
                    ok = False
    _report("criterion-3 round trips with exact component equality", ok)


def test_criterion_4_joint_characterization(cor):
    ok = True
    for sn in C3_NAMES:
        for tn in C3_NAMES:
            S, T = cor.monads_c3[sn], cor.monads_c3[tn]
            laws = enumerate_dist_laws(S, T)
            if not laws:
                continue
            em = em_category(S)
            kl = kleisli_category(T)
            for dl in laws:
                ke = extend_monad(dl, kl)
                if extract_from_extension(ke) != dl:
                    ok = False
                if not check_joint_compatibility(lift_monad(dl, em), ke):
                    ok = False
    _report("criterion-4 joint lifting/extension characterization", ok)


def test_criterion_5_mixed_case(cor):
    ok = True
    cases = [(cor.monads_c2, cor.comonads_c2),
             (cor.monads_c3, cor.comonads_c3)]
    for monads, comonads in cases:
        for S in monads.values():
            for G in comonads.values():
                laws = enumerate_mixed_laws(S, G)
                if untypable_objects(S, G):
                    if laws:
                        ok = False
                    continue
                if len(laws) != len(enumerate_comonad_liftings(S, G)):
                    ok = False
                for ml in laws:
                    lc = lift_comonad(ml)
                    cl = colift_monad(ml)
                    if extract_mixed_from_lifting(lc) != ml:
                        ok = False
                    if extract_mixed_from_colifting(cl) != ml:
                        ok = False
                    if not check_mixed_compatibility(lc, cl):
                        ok = False
    _report("criterion-5 mixed round trips on C2 and C3", ok)


def test_criterion_6_two_adjunction_sanity(cor):
    ok = True
    for _, _, m in cor.all_monads():
        em = em_category(m)
        kl = kleisli_category(m)
        if induced_monad(em.adj) != m or induced_monad(kl.adj) != m:
            ok = False
        for adj in (em.adj, kl.adj, identity_adjunction(m.base)):
            sq_r = CommutingSquareR(adj, adj, identity_functor(adj.base),
                                    identity_functor(adj.upper))
            if mate_right(sq_r).components != identity_nat(adj.L).components:
                ok = False
            sq_l = CommutingSquareL(adj, adj, identity_functor(adj.base),
                                    identity_functor(adj.upper))
            if mate_left(sq_l).components != identity_nat(adj.R).components:
                ok = False
    for _, _, c in cor.all_comonads():
        if induced_comonad(em_coalgebra_category(c).adj) != c:
            ok = False
    _report("criterion-6 induced (co)monads exact, identity mates identity", ok)


def test_criterion_7_hom_isomorphism(cor):
    started = time.perf_counter()
    entries = criterion_7_hom_isomorphism(cor)
    elapsed = time.perf_counter() - started
    ok = all(e.status == "pass" for e in entries) and elapsed < 60.0
    _report("criterion-7 hom-category isomorphism", ok,
            f"entries={len(entries)} time={elapsed:.3f}s<60s")


def test_criterion_8_two_cell_equivalence(cor):
    entries = criterion_8_two_cell_equivalence(cor)
    ok = all(e.status == "pass" for e in entries)
    witness = entries[0].witness
    ok = ok and witness["checked"] > 0 and witness["agree"] == witness["checked"]
    _report("criterion-8 AdjR 2-cell conditions agree on 100% of candidates",
            ok, f"checked={witness['checked']}")


def test_criterion_9_determinism():
    one = subprocess.run(
        [sys.executable, "-m", "finmonad.cli", "--format", "json",
         "selftest", "--jobs", "1"],
        capture_output=True, text=True)
    eight = subprocess.run(
        [sys.executable, "-m", "finmonad.cli", "--format", "json",
         "selftest", "--jobs", "8"],
        capture_output=True, text=True)
    ok = (one.returncode == 0 and eight.returncode == 0
          and one.stdout == eight.stdout)
    if ok:
        payload = json.loads(one.stdout)
        ok = payload["summary"]["failed"] == 0
    _report("criterion-9 selftest reports byte-identical across --jobs", ok)
