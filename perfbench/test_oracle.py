"""Checks of the benchmark itself: stored answers, answer checks, tracer.

    python3 -m pytest -q perfbench

The stored answers in ``workloads.py`` are re-derived here with the
raw-table brute force in ``oracle.py``, which does not import finmonad.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import workloads as W  # noqa: E402

C3 = oracle.Table(oracle.chain(3))


def _search_table(name):
    return oracle.Table(W.SEARCH_CATEGORIES[name]())


def _cli(name):
    for unit in W.CLI_UNITS:
        for op_name, argv, expect in unit:
            if op_name == name:
                return argv, expect
    raise KeyError(name)


def _fixture(name):
    with open(os.path.join(ROOT, "fixtures", name), encoding="utf-8") as fh:
        return json.load(fh)


# -- search -------------------------------------------------------------------


@pytest.mark.parametrize("kind,cat,expected", W.SEARCH_OPS)
def test_search_answers_match_brute_force(kind, cat, expected):
    C = _search_table(cat)
    endos = oracle.functors(C)
    found = {"functors": lambda: endos,
             "monads": lambda: oracle.monads(C, endos),
             "comonads": lambda: oracle.comonads(C, endos)}[kind]()
    assert len(found) == expected


def test_search_covers_every_category_kind():
    cats = {c for _, c, _ in W.SEARCH_OPS}
    assert cats == set(W.SEARCH_CATEGORIES)
    assert len(W.SEARCH_OPS) == 24


def test_cap_ladder_instance_is_t3():
    name, make = W.CAP_LADDER
    raw = make()
    assert name == "t3" and len(raw["morphisms"]) == 27


# -- roundtrip ----------------------------------------------------------------


def test_fixture_files_carry_the_workload_maps():
    for name in ("c1", "c2", "c3"):
        assert _fixture(f"{name}.json")["endofunctor"]["objects"] == W.C3_MONADS[name]
    for name in ("i1", "i2", "i3"):
        assert _fixture(f"{name}.json")["endofunctor"]["objects"] == W.C3_COMONADS[name]


@pytest.mark.parametrize("pair", sorted(W.LAWS))
def test_law_counts_follow_the_pointwise_criterion(pair):
    s, t = pair
    exists = oracle.law_exists(C3, W.C3_MONADS[s], W.C3_MONADS[t])
    assert W.LAWS[pair] == int(exists)


@pytest.mark.parametrize("pair", sorted(W.MIXED_LAWS))
def test_mixed_law_counts_follow_the_pointwise_criterion(pair):
    s, g = pair
    exists = oracle.law_exists(C3, W.C3_MONADS[s], W.C3_COMONADS[g])
    assert W.MIXED_LAWS[pair] == int(exists)


def test_algebra_counts_are_fixed_points():
    for name, omap in W.C3_MONADS.items():
        assert W.EM_OBJECTS[name] == oracle.fixed_points(omap)


def _corpus_monads():
    C2 = oracle.Table(_fixture("chain2.json"))
    Z2 = oracle.Table(_fixture("z2.json"))
    ident = ({"g": "g"}, {"e": "e", "s": "s"})
    return {
        ("C2", "id"): (C2, oracle.thin_monad(C2, {"a": "a", "b": "b"})),
        ("C2", "top"): (C2, oracle.thin_monad(C2, {"a": "b", "b": "b"})),
        **{("C3", n): (C3, oracle.thin_monad(C3, m))
           for n, m in W.C3_MONADS.items()},
        ("MZ2", "id"): (Z2, (ident, {"g": "e"}, {"g": "e"})),
        ("MZ2", "twist"): (Z2, (ident, {"g": "s"}, {"g": "s"})),
    }


@pytest.mark.parametrize("key", sorted(W.HOMISO))
def test_homiso_counts_match_brute_force(key):
    C, m = _corpus_monads()[key]
    assert oracle.mnd_endocells(C, m) == W.HOMISO[key]


# -- cli ----------------------------------------------------------------------


def test_cli_construction_answers():
    c1 = W.C3_MONADS["c1"]
    _, expect = _cli("kleisli-c1")
    assert expect["witness"]["kleisli/construction"] == {
        "objects": 3, "morphisms": oracle.kleisli_morphisms(C3, c1)}
    closed = [x for x, y in c1.items() if x == y]
    want = {"algebras": len(closed),
            "morphisms": oracle.poset_morphisms(C3, closed)}
    assert _cli("em-c1-dump")[1]["witness"]["em/construction"] == want
    assert _cli("validate-em-dump")[1]["witness"]["validate/category"] == {
        "objects": want["algebras"], "morphisms": want["morphisms"]}
    assert _cli("validate-chain3")[1]["witness"]["validate/category"] == {
        "objects": 3, "morphisms": len(C3.morphisms)}


def test_cli_law_answers():
    s, t = W.C3_MONADS["c2"], W.C3_MONADS["c1"]
    assert _fixture("law_c2_c1.json")["phi"] == W.LAW_PHI
    for x, c in W.LAW_PHI.items():
        assert (C3.src[c], C3.tgt[c]) == (s[t[x]], t[s[x]])
    assert W.LAWS[("c2", "c1")] == 1
    homiso = _cli("homiso-c3")[1]["witness"]
    cells, two = W.HOMISO[("C3", "c3")]
    assert homiso["homiso/object-count"]["mnd"] == cells
    assert homiso["homiso/two-cell-count"]["mnd"] == two
    homiso = _cli("homiso-top_c2")[1]["witness"]
    assert homiso["homiso/object-count"]["mnd"] == W.HOMISO[("C2", "top")][0]


def test_cli_rejection_inputs():
    assert not os.path.exists(os.path.join(HERE, "inputs", "missing.json"))
    with open(os.path.join(HERE, "inputs", "broken.json"), encoding="utf-8") as fh:
        with pytest.raises(ValueError):
            json.load(fh)
    assert set(W.KNOWN_DEFECTS) <= {n for u in W.CLI_UNITS for n, _, _ in u}


def test_check_report_catches_wrong_answers():
    import worker

    _, expect = _cli("monads-chain3")
    good = {"checks": [{"check": "monads/enumerate", "status": "pass",
                        "witness": {"count": 4}}]}
    out = json.dumps(good).encode()
    assert worker.check_report(expect, 0, out, b"") is None
    assert worker.check_report(expect, 1, out, b"") is not None
    assert worker.check_report(expect, 0, out, b"Traceback (most") is not None
    bad = json.dumps({"checks": [{"check": "monads/enumerate", "status": "pass",
                                  "witness": {"count": 5}}]}).encode()
    assert worker.check_report(expect, 0, bad, b"") is not None
    _, reject = _cli("reject-broken-json")
    named = {"checks": [{"check": "error", "status": "fail",
                         "witness": {"kind": "JSONDecodeError"}}]}
    assert worker.check_report(reject, 2, json.dumps(named).encode(), b"") is None
    assert worker.check_report(reject, 0, json.dumps(named).encode(), b"") is not None


def test_loop_scales_each_pass_to_the_reference_speed(monkeypatch):
    import time

    import worker

    def half_speed_reference():
        time.sleep(2 * worker.REF_MS / 1000.0)
        return 2 * worker.REF_MS

    assert worker.reference_ms() > 0
    monkeypatch.setattr(worker, "reference_ms", half_speed_reference)
    ran = []
    loop = worker.Loop([[worker.Op("noop", lambda: ran.append(1))]] * 10, 1)
    loop.run(0.0, 10)
    res = loop.summary()
    assert (loop.passes, len(ran), loop.failures) == (1, 10, {})
    assert res["ref_ms"] == 2 * worker.REF_MS
    for name in ("latency_p50_ms", "latency_p90_ms"):
        assert res[name] == pytest.approx(res["measured"][name] / 2)
    assert res["ops_per_s"] == pytest.approx(2 * res["measured"]["ops_per_s"])


# -- tracer -------------------------------------------------------------------


def test_tracer_counts_and_restores():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from finmonad import fincat, monad

    import tracer

    original = fincat.enumerate_functors
    C = fincat.validate_category(oracle.chain(3))
    t = tracer.Tracer()
    t.install()
    try:
        assert monad.enumerate_functors is not original
        found = monad.enumerate_monads(C)
    finally:
        t.uninstall()
    assert fincat.enumerate_functors is original
    assert monad.enumerate_functors is original
    stats = t.stats()
    assert stats["monad.enumerate_monads"]["results"] == len(found) == 4
    assert stats["fincat.enumerate_functors"]["results"] == 10
    assert stats["fincat.Functor"]["calls"] > 0
    for rec in stats.values():
        assert 0 <= rec["self_ms"] <= rec["ms"] + 1e-9
    names = set(tracer.all_metric_names())
    assert "fincat.FinCategory.__eq__.calls" in names
    assert t.span_count() == stats["monad.enumerate_monads"]["calls"] + \
        stats["fincat.enumerate_functors"]["calls"] + \
        stats["fincat.enumerate_nat_trans"]["calls"] + \
        stats["parallel.pmap"]["calls"]
