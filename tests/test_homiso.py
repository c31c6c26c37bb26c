"""The hom-isomorphism round trip against the version first written.

``hom_iso_roundtrip`` must return the oracle's entries item for item:
check, tag, status, witness and detail, in order. The AdjR endocell and
2-cell enumerators must return the oracle's lists in the oracle's order.
Both are held to the oracle on the fixture corpus, on the monads of Z3
and of T2, and the round trip on small random subcategories of FinSet; on
C2×Z2 and on the identity monad of the 4-chain, where the oracle takes
seconds, the round trip runs alone and must pass with the known counts.
The AdjR 2-cell conditions, compared component by component, must give
what the whiskered formulas give on every candidate pair. The keys the
round trip finds cells and composites by must tell cells apart exactly
as equality does, and key each composite and identity as the checked
constructor's cell. Each side's cells must be closed under composites
and identities, as the round trip's decision by position requires.
"""

from itertools import product

import pytest
from hypothesis import given, settings
from oracles import (
    adjr2_identity,
    adjr2_vcomp,
    chain2_times_z2,
    cyclic,
    discrete,
    finset_subcategories,
    mnd2_identity,
    mnd2_vcomp,
    ref_adjr_two_cell_conditions,
    ref_enumerate_adjr_endocells,
    ref_enumerate_adjr_two_cells,
    ref_hom_iso_roundtrip,
    transformation_monoid,
)

from finmonad.construct import em_category
from finmonad.errors import EnumerationCapExceeded, TypeMismatch
from finmonad.fincat import (
    NatTrans,
    compose_functors,
    enumerate_nat_trans,
    identity_functor,
)
from finmonad.fixtures import chain_category, corpus
from finmonad.monad import enumerate_monads, identity_monad
from finmonad.twofunctors import (
    MndOneCell,
    _Found,
    _hom_iso_sides,
    _map_sides,
    adjr_compose,
    adjr_two_cell_conditions,
    enumerate_adjr_endocells,
    enumerate_adjr_two_cells,
    enumerate_mnd_endocells,
    enumerate_mnd_two_cells,
    hom_iso_roundtrip,
    mnd_compose,
)

MONADS = [(f"{cat}-{name}", m) for cat, name, m in corpus().all_monads()]
MONADS += [(f"Z3-{i}", m) for i, m in enumerate(enumerate_monads(cyclic(3)))]
MONADS += [(f"T2-{i}", m)
           for i, m in enumerate(enumerate_monads(transformation_monoid(2)))]


def counts(entries, check) -> dict:
    return next(e.witness for e in entries if e.check == check)


def test_the_differential_corpus_has_its_known_size():
    assert len(MONADS) == 8 + 3 + 2


@pytest.mark.parametrize("m", [m for _, m in MONADS],
                         ids=[label for label, _ in MONADS])
def test_round_trip_entries_equal_the_oracles(m):
    entries = hom_iso_roundtrip(m)
    assert entries == ref_hom_iso_roundtrip(m)
    assert len(entries) == 11
    assert all(e.status == "pass" for e in entries)


@pytest.mark.parametrize("m", [m for _, m in MONADS],
                         ids=[label for label, _ in MONADS])
def test_adjr_enumerators_return_the_oracles_lists(m):
    em = em_category(m)
    cells = enumerate_adjr_endocells(em)
    assert cells == ref_enumerate_adjr_endocells(em)
    for c in cells:
        for c2 in cells:
            assert (enumerate_adjr_two_cells(c, c2)
                    == ref_enumerate_adjr_two_cells(c, c2))


@settings(max_examples=10, deadline=None)
@given(finset_subcategories(max_morphisms=6))
def test_round_trip_entries_equal_the_oracles_on_random_finset_subcategories(cat):
    """On small random subcategories of FinSet, some of them not thin,
    every monad's round trip equals the oracle's and passes."""
    for m in enumerate_monads(cat):
        entries = hom_iso_roundtrip(m)
        assert entries == ref_hom_iso_roundtrip(m)
        assert all(e.status == "pass" for e in entries), entries


def test_round_trip_on_the_monads_of_c2xz2():
    witnessed = []
    for m in enumerate_monads(chain2_times_z2()):
        entries = hom_iso_roundtrip(m)
        assert len(entries) == 11
        assert all(e.status == "pass" for e in entries), entries
        cells = counts(entries, "homiso/object-count")
        two = counts(entries, "homiso/two-cell-count")
        assert cells["mnd"] == cells["adjr"] and two["mnd"] == two["adjr"]
        witnessed.append((cells["mnd"], two["mnd"]))
    assert sorted(witnessed) == [(8, 48)] * 4 + [(12, 96)] * 4


def test_round_trip_on_the_identity_monad_of_the_4_chain():
    m = identity_monad(chain_category(["0", "1", "2", "3"]))
    entries = hom_iso_roundtrip(m)
    assert len(entries) == 11
    assert all(e.status == "pass" for e in entries), entries
    assert counts(entries, "homiso/object-count") == {"mnd": 35, "adjr": 35}
    assert counts(entries, "homiso/two-cell-count") == {"mnd": 490, "adjr": 490}


def test_round_trip_on_the_identity_monad_of_the_discrete_3_category():
    """Every endofunctor is a 1-cell; only pairs of equal ones have a
    transformation, so every other pair is skipped and holds no 2-cell."""
    entries = hom_iso_roundtrip(identity_monad(discrete(3)))
    assert all(e.status == "pass" for e in entries), entries
    assert counts(entries, "homiso/object-count") == {"mnd": 27, "adjr": 27}
    assert counts(entries, "homiso/two-cell-count") == {"mnd": 27, "adjr": 27}


# The corpus monads and two identity monads with many 1-cells.
SWEEP = MONADS[:8] + [("chain4-id", identity_monad(chain_category("abcd"))),
                      ("discrete3-id", identity_monad(discrete(3)))]


@pytest.mark.parametrize("m", [m for _, m in SWEEP], ids=[label for label, _ in SWEEP])
def test_each_side_holds_the_2_cells_of_every_ordered_pair(m):
    """The sweep searches the transformations of each pair of functors once
    for both sides, and skips a pair with an empty hom-set; each side must
    still hold what the two enumerators give on every ordered pair, with
    the same keys and the same lists in the same order."""
    for side, enumerate_two in zip(_hom_iso_sides(m), (enumerate_mnd_two_cells,
                                                       enumerate_adjr_two_cells)):
        dense = {(i, j): enumerate_two(c, c2)
                 for i, c in enumerate(side.cells) for j, c2 in enumerate(side.cells)}
        assert list(side.two.items()) == list(dense.items())


def test_adjr_2_cells_between_non_parallel_1_cells_are_refused():
    """Each beta is built unchecked from the hom-sets of K → K', so the
    public enumerator refuses 1-cells over two different adjunctions."""
    c, c2 = (enumerate_adjr_endocells(em_category(dict(MONADS)[label]))[0]
             for label in ("C3-id", "C3-c1"))
    with pytest.raises(TypeMismatch, match="non-parallel"):
        enumerate_adjr_two_cells(c, c2)


def test_mnd_2_cells_between_non_parallel_1_cells_are_refused():
    """An endocell of C3/c1 and one of C3/c2, either way round, are refused
    up front, whether or not some transformation P → Q exists."""
    c1, c2 = (enumerate_mnd_endocells(dict(MONADS)[label])
              for label in ("C3-c1", "C3-c2"))
    assert (len(c1), len(c2)) == (5, 7)
    for c, c2 in list(product(c1, c2)) + list(product(c2, c1)):
        with pytest.raises(TypeMismatch, match="non-parallel"):
            enumerate_mnd_two_cells(c, c2)


# Each cap below the least that passes on C3/id, with the count it raises
# with, measured before the sweep searched each pair's transformations once.
C3_ID_CAPS = [(0, 1), (1, 4), (5, 7), (10, 13), (89, 90)]


@pytest.mark.parametrize("cap, counted", C3_ID_CAPS)
def test_the_cap_verdicts_on_c3_id_are_pinned(cap, counted):
    m = dict(MONADS)["C3-id"]
    with pytest.raises(EnumerationCapExceeded) as exc:
        hom_iso_roundtrip(m, cap=cap)
    assert str(exc.value) == f"enumeration counted {counted} candidates, cap is {cap}"


def test_the_least_passing_cap_on_c3_id_is_pinned():
    entries = hom_iso_roundtrip(dict(MONADS)["C3-id"], cap=90)
    assert all(e.status == "pass" for e in entries)


# The checked constructors of each side's 1-cell composite, vertical
# composite and identity 2-cell, in the order _hom_iso_sides gives the sides.
CHECKED_CONSTRUCTORS = [(mnd_compose, mnd2_vcomp, mnd2_identity),
                        (adjr_compose, adjr2_vcomp, adjr2_identity)]


@pytest.mark.parametrize("m", [m for _, m in MONADS],
                         ids=[label for label, _ in MONADS])
def test_side_keys_agree_with_equality_and_the_checked_constructors(m):
    for side, (compose, vcomp, identity) in zip(_hom_iso_sides(m),
                                                CHECKED_CONSTRUCTORS):
        cells, key1, key2 = side.cells, side.key1, side.key2
        for c, c2 in product(cells, repeat=2):
            assert (key1(c) == key1(c2)) == (c == c2)
            assert side.compose_key(c, c2) == key1(compose(c, c2))
        for c in cells:
            assert side.identity_key(c) == key2(identity(c))
        for (i, j), row in side.two.items():
            for t, t2 in product(row, repeat=2):
                assert (key2(t) == key2(t2)) == (t == t2)
            for k in range(len(cells)):
                for t, t2 in product(row, side.two[j, k]):
                    assert side.vcomp_key(key2(t), key2(t2)) == key2(vcomp(t, t2))


@pytest.mark.parametrize("m", [m for _, m in MONADS],
                         ids=[label for label, _ in MONADS])
def test_the_enumerated_cells_are_closed_under_composites_and_identities(m):
    """Each side's cells form a category, so every 1-cell composite,
    identity 2-cell and vertical composite is found among them, and the
    round trip passes by position alone."""
    mnd, adjr = _hom_iso_sides(m)
    for side in (mnd, adjr):
        found = _Found(side)
        assert all(None not in row for row in found.comp1)
        assert None not in found.ident
        assert all(None not in row for row in found.vcomp)
    assert all(all(flags) for flags in _map_sides(adjr, mnd))


def test_a_missing_identity_2_cell_fails_identities_both_ways():
    """Without the identity 2-cell on the first Mnd endocell of C3/id, the
    Mnd side is no category: the identity there is none of its cells, and
    the AdjR identity maps to none of them."""
    mnd, adjr = _hom_iso_sides(dict(MONADS)["C3-id"])
    ident = mnd.identity_key(mnd.cells[0])
    row = [t for t in mnd.two[0, 0] if mnd.key2(t) != ident]
    assert len(row) == len(mnd.two[0, 0]) - 1
    to_mnd, to_adjr = _map_sides(adjr, mnd._replace(two={**mnd.two, (0, 0): row}))
    assert not to_mnd.identities and not to_adjr.identities


def test_mnd_keys_tell_apart_cells_that_differ_only_in_phi():
    """On every monad of the corpus a Mnd endocell's functor fixes its
    phi, so the enumerated cells cannot show that the key reads phi;
    these two cells on Z3, one lawless, share P = id."""
    m = identity_monad(cyclic(3))
    mnd, _ = _hom_iso_sides(m)
    P = identity_functor(m.base)
    SP = compose_functors(m.S, P)
    c, c2 = (MndOneCell(m, m, P, NatTrans(SP, SP, {"g": r})) for r in ("r0", "r1"))
    assert c != c2 and mnd.key1(c) != mnd.key1(c2)


# The non-thin bases, where some candidate pairs fail both conditions.
NON_THIN = [(label, m) for label, m in MONADS if label[:2] in ("MZ", "Z3", "T2")]


@pytest.mark.parametrize("m", [m for _, m in NON_THIN],
                         ids=[label for label, _ in NON_THIN])
def test_adjr_conditions_equal_the_whiskered_formulas(m):
    cells = enumerate_adjr_endocells(em_category(m))
    seen = set()
    for c, c2 in product(cells, repeat=2):
        for alpha in enumerate_nat_trans(c.J, c2.J):
            for beta in enumerate_nat_trans(c.K, c2.K):
                got = adjr_two_cell_conditions(c, c2, alpha, beta)
                assert got == ref_adjr_two_cell_conditions(c, c2, alpha, beta)
                seen.add(got)
    assert seen == {(True, True), (False, False)}

