"""Transformations built unchecked, against the checked constructor.

``NatTrans._typed`` builds a transformation and checks nothing. Only the
searches and the pastings call it, since they draw every component from
its hom-set in base-object order. On the differential corpus and on the
fixture corpus, every transformation each of those call sites builds must
be accepted by the checked ``NatTrans(...)``, with the same components in
the same order. No file the CLI reads reaches the unchecked path: the
checked constructors refuse a key that names nothing, and loading every
fixture and every golden input never calls ``_typed``.
"""

import glob
import json
import os
import sys
from itertools import product

import pytest
from oracles import DIFFERENTIAL

from finmonad import jsonio
from finmonad.errors import FinMonadError
from finmonad.fincat import NatTrans, hcomp, identity_nat
from finmonad.monad import enumerate_comonads, enumerate_monads
from finmonad.twofunctors import hom_iso_roundtrip, law_round_trips, mixed_round_trips

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Every function that builds a transformation through NatTrans._typed;
# monads_on is the μ search inside enumerate_monads.
TYPED_SITES = {"enumerate_nat_trans", "identity_nat", "vcomp", "whisker_left",
               "whisker_right", "mate_right", "mate_left", "mnd_compose",
               "_push_compose", "monads_on", "_adjr_two_cells"}

CASES = list(DIFFERENTIAL) + ["corpus-C2", "corpus-C3", "corpus-MZ2"]
# The 27 round trips on codiscrete(3) take seconds and reach no call site
# that the other cases miss; its laws and liftings are still checked.
NO_HOM_ISO = {"g3"}


def _caller(frame) -> str:
    # before Python 3.12 a comprehension runs in a frame of its own
    while frame.f_code.co_name.startswith("<"):
        frame = frame.f_back
    return frame.f_code.co_name


@pytest.fixture
def built(monkeypatch):
    """(call site, transformation) for every call of NatTrans._typed."""
    seen = []
    typed = NatTrans._typed.__func__

    def record(cls, source, target, components):
        alpha = typed(cls, source, target, components)
        seen.append((_caller(sys._getframe(1)), alpha))
        return alpha

    monkeypatch.setattr(NatTrans, "_typed", classmethod(record))
    return seen


def _structures(name, cor) -> tuple:
    """The monads and comonads of one case: every one on a differential
    category, or the corpus ones on a corpus base."""
    if name in DIFFERENTIAL:
        cat = DIFFERENTIAL[name]()
        return enumerate_monads(cat), enumerate_comonads(cat)
    base = name[len("corpus-"):]
    return ([m for b, _, m in cor.all_monads() if b == base],
            [c for b, _, c in cor.all_comonads() if b == base])


@pytest.mark.parametrize("name", CASES)
def test_every_unchecked_transformation_passes_the_checked_constructor(name, cor,
                                                                       built):
    monads, comonads = _structures(name, cor)
    for m in monads:
        if name not in NO_HOM_ISO:
            hom_iso_roundtrip(m)
        identity_nat(m.endo)
        hcomp(m.unit, m.mult)
    for S, T in product(monads, repeat=2):
        law_round_trips(S, T)
    for S, G in product(monads, comonads):
        mixed_round_trips(S, G)
    for site, alpha in built:
        checked = NatTrans(alpha.source, alpha.target, alpha.components)
        assert list(checked.components.items()) == list(alpha.components.items()), site
    # only the corpus cases search no monad, and only the round trip
    # searches AdjR 2-cells
    expected = set(TYPED_SITES)
    if name not in DIFFERENTIAL:
        expected.discard("monads_on")
    if name in NO_HOM_ISO:
        expected.discard("_adjr_two_cells")
    assert {site for site, _ in built} == expected


def _input_files() -> list:
    return sorted(os.path.relpath(p, ROOT) for pattern in
                  ("fixtures/*.json", "tests/golden/inputs/*.json")
                  for p in glob.glob(os.path.join(ROOT, pattern)))


# the map field that tells each kind of file apart, and its reader
LOADERS = {"mu": jsonio.load_monad, "delta": jsonio.load_comonad,
           "phi": jsonio.load_dist_law, "psi": jsonio.load_mixed_law}


def _refuse_typed(monkeypatch):
    def refuse(cls, source, target, components):
        raise AssertionError("file input reached NatTrans._typed")

    monkeypatch.setattr(NatTrans, "_typed", classmethod(refuse))


@pytest.mark.parametrize("path", _input_files())
def test_loading_an_input_file_never_builds_unchecked(path, monkeypatch):
    _refuse_typed(monkeypatch)
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        raw = json.load(fh)
    load = next((f for field, f in LOADERS.items()
                 if isinstance(raw, dict) and field in raw), jsonio.load_category)
    try:
        load(os.path.join(ROOT, path))
    except FinMonadError:
        pass  # a bad input is refused by the checked path


def test_loading_a_mixed_law_never_builds_unchecked(cor, tmp_path, monkeypatch):
    """No fixture is a mixed law file, so one is written from the corpus."""
    from finmonad.distlaw import enumerate_mixed_laws

    law = enumerate_mixed_laws(cor.monads_c3["c1"], cor.comonads_c3["i1"])[0]
    path = tmp_path / "mixed.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(jsonio.mixed_law_to_raw(law), fh)
    _refuse_typed(monkeypatch)
    assert jsonio.load_mixed_law(str(path)) == law
