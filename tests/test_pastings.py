"""Law checks, mates and 1-cell composites against the whiskered formulas
they replace.

Every law check evaluates each side of each equation component by
component. ``tests/oracles.py`` keeps the formulas as first written, with
every intermediate pasting built as a transformation between its endpoint
functors. Here each check must return the oracle's violation list (kind,
tag, where, lhs, rhs and detail, in order) on lawful and unlawful
candidates alike, each mate must equal the oracle's transformation, and
each composite of two Mnd, Mnd• or CoMnd endocells must equal the
oracle's cell.
"""

from itertools import product

import pytest
from oracles import (
    chain2_times_z2,
    cyclic,
    ref_adjl_two_cell_conditions,
    ref_bullet_compose,
    ref_cell_check,
    ref_check_comonad_laws,
    ref_check_dist_law,
    ref_check_mixed_law,
    ref_check_monad_laws,
    ref_comnd_compose,
    ref_mate_left,
    ref_mate_right,
    ref_mnd_compose,
    ref_triangles,
    transformation_monoid,
)

from finmonad.adjunction import (
    Adjunction,
    mate_left,
    mate_right,
)
from finmonad.construct import em_category
from finmonad.distlaw import check_dist_law, check_mixed_law
from finmonad.errors import LawViolation, TypeMismatch
from finmonad.fincat import (
    compose_functors,
    enumerate_functors,
    enumerate_nat_trans,
    identity_functor,
)
from finmonad.fixtures import corpus
from finmonad.monad import (
    Monad,
    check_comonad_laws,
    check_monad_laws,
    enumerate_comonads,
    enumerate_monads,
)
from finmonad.twofunctors import (
    CoMndOneCell,
    CoMndTwoCell,
    MndBulletOneCell,
    MndBulletTwoCell,
    MndOneCell,
    MndTwoCell,
    adjl_two_cell_conditions,
    bullet_compose,
    comnd_compose,
    enumerate_adjr_endocells,
    enumerate_mnd_endocells,
    mnd_compose,
    psi_e_1cell,
    psi_k_1cell,
    vec_psi_e_1cell,
)

# Laws on a poset always hold once typed, so the unlawful candidates come
# from the one-object Z3, T2 and M(Z2), and from C2×Z2, where a law can
# fail at both objects and only the first may be reported.
Z3, T2, C2Z2 = cyclic(3), transformation_monoid(2), chain2_times_z2()
NON_THIN = {"Z3": Z3, "T2": T2, "C2Z2": C2Z2}
COR = corpus()
MONADS = [(f"{cat}-{name}", m) for cat, name, m in COR.all_monads()]
MONADS += [(f"{cat}-{i}", m) for cat, C in NON_THIN.items()
           for i, m in enumerate(enumerate_monads(C))]
COMONADS = [(f"{cat}-{name}", c) for cat, name, c in COR.all_comonads()]
COMONADS += [(f"{cat}-{i}", c) for cat, C in NON_THIN.items()
             for i, c in enumerate(enumerate_comonads(C))]


def same_base_pairs(first, second):
    """(label, x, y) for every x, y of the two lists over one base."""
    return [(f"{a}/{b}", x, y) for (a, x), (b, y) in product(first, second)
            if x.base == y.base]


def monad_candidates(cat):
    """Every (S, mu, eta) typed as a monad on ``cat``, lawful or not."""
    Id = identity_functor(cat)
    for S in enumerate_functors(cat, cat):
        for mu, eta in product(enumerate_nat_trans(compose_functors(S, S), S),
                               enumerate_nat_trans(Id, S)):
            yield Monad(cat, S, mu, eta)


def test_the_corpus_has_its_known_size():
    assert (len(MONADS), len(COMONADS)) == (8 + 3 + 2 + 8, 6 + 3 + 2 + 8)


def test_monad_laws_equal_the_oracles_on_every_candidate():
    kinds = set()
    for cat in NON_THIN.values():
        for m in monad_candidates(cat):
            got = check_monad_laws(m)
            assert got == ref_check_monad_laws(m)
            kinds.update(v.kind for v in got)
    assert {"MonadAssociativity", "MonadUnitLeft", "MonadUnitRight"} <= kinds


def test_monad_and_comonad_laws_equal_the_oracles_on_the_corpus():
    for _, m in MONADS:
        assert check_monad_laws(m) == ref_check_monad_laws(m) == []
    for _, c in COMONADS:
        assert check_comonad_laws(c) == ref_check_comonad_laws(c) == []


LAW_PAIRS = same_base_pairs(MONADS, MONADS)
MIXED_PAIRS = same_base_pairs(MONADS, COMONADS)


@pytest.mark.parametrize("S, T", [(S, T) for _, S, T in LAW_PAIRS],
                         ids=[label for label, _, _ in LAW_PAIRS])
def test_dist_law_axioms_equal_the_oracles(S, T):
    for phi in enumerate_nat_trans(compose_functors(S.S, T.S),
                                   compose_functors(T.S, S.S)):
        assert check_dist_law(S, T, phi) == ref_check_dist_law(S, T, phi)


@pytest.mark.parametrize("S, G", [(S, G) for _, S, G in MIXED_PAIRS],
                         ids=[label for label, _, _ in MIXED_PAIRS])
def test_mixed_law_axioms_equal_the_oracles(S, G):
    for psi in enumerate_nat_trans(compose_functors(S.S, G.G),
                                   compose_functors(G.G, S.S)):
        assert check_mixed_law(S, G, psi) == ref_check_mixed_law(S, G, psi)


def test_the_law_candidates_fail_every_axiom_somewhere():
    """The candidates above are not all lawful: each axiom fails on some."""
    kinds = set()
    for _, S, T in LAW_PAIRS:
        for phi in enumerate_nat_trans(compose_functors(S.S, T.S),
                                       compose_functors(T.S, S.S)):
            kinds.update(v.kind for v in check_dist_law(S, T, phi))
    for _, S, G in MIXED_PAIRS:
        for psi in enumerate_nat_trans(compose_functors(S.S, G.G),
                                       compose_functors(G.G, S.S)):
            kinds.update(v.kind for v in check_mixed_law(S, G, psi))
    assert kinds >= {"MultiplicationSquareS", "UnitTriangleS",
                     "MultiplicationSquareT", "UnitTriangleT",
                     "MultiplicationSquare", "UnitTriangle",
                     "ComultiplicationSquare", "CounitTriangle"}


# (one-cell class, two-cell class, functor the transformation starts from,
# functor it ends at), for a cell (P, nat) from a structure with
# endofunctor E to one with endofunctor F
CELL_KINDS = {
    "Mnd": (MndOneCell, MndTwoCell, lambda E, F, P: (F, P), lambda E, F, P: (P, E)),
    "Mnd•": (MndBulletOneCell, MndBulletTwoCell,
             lambda E, F, P: (P, E), lambda E, F, P: (F, P)),
    "CoMnd": (CoMndOneCell, CoMndTwoCell,
              lambda E, F, P: (P, E), lambda E, F, P: (F, P)),
}


def cell_checks(kind, src, dst) -> tuple:
    """Hold the checks of every candidate 1-cell src → dst of ``kind``, and
    of every candidate 2-cell between two of them, to the oracle. Returns
    the violation kinds seen."""
    one, two, source, target = CELL_KINDS[kind]
    kinds, cells = set(), []
    for P in enumerate_functors(src.base, dst.base):
        F1 = compose_functors(*source(src.endo, dst.endo, P))
        F2 = compose_functors(*target(src.endo, dst.endo, P))
        for nat in enumerate_nat_trans(F1, F2):
            cell = one(src, dst, P, nat)
            got = cell.check()
            assert got == ref_cell_check(cell)
            kinds.update(v.kind for v in got)
            cells.append(cell)
    for c, c2 in product(cells, repeat=2):
        for theta in enumerate_nat_trans(c.P, c2.P):
            cell = two(c, c2, theta)
            got = cell.check()
            assert got == ref_cell_check(cell)
            kinds.update(v.kind for v in got)
    return kinds


def cell_pairs(pairs):
    """The pairs over one base, but only the endo pairs on C2×Z2, whose
    64 ordered pairs would add about ten seconds."""
    return [(label, x, y) for label, x, y in pairs
            if x.base != C2Z2 or x is y]


MONAD_CELL_PAIRS = cell_pairs(LAW_PAIRS)


@pytest.mark.parametrize("src, dst", [(S, T) for _, S, T in MONAD_CELL_PAIRS],
                         ids=[label for label, _, _ in MONAD_CELL_PAIRS])
def test_mnd_and_bullet_cell_laws_equal_the_oracles(src, dst):
    cell_checks("Mnd", src, dst)
    cell_checks("Mnd•", src, dst)


COMONAD_PAIRS = cell_pairs(same_base_pairs(COMONADS, COMONADS))


@pytest.mark.parametrize("src, dst", [(G, H) for _, G, H in COMONAD_PAIRS],
                         ids=[label for label, _, _ in COMONAD_PAIRS])
def test_comnd_cell_laws_equal_the_oracles(src, dst):
    cell_checks("CoMnd", src, dst)


def test_the_cell_candidates_fail_every_law_somewhere():
    kinds = set()
    for kind in ("Mnd", "Mnd•"):
        for _, S, T in LAW_PAIRS:
            if S.base in (Z3, T2):
                kinds |= cell_checks(kind, S, T)
    for _, G, H in COMONAD_PAIRS:
        if G.base in (Z3, T2):
            kinds |= cell_checks("CoMnd", G, H)
    assert kinds >= {"MndOneCellMultiplication", "MndOneCellUnit",
                     "MndTwoCellLaw", "MndBulletMultiplication",
                     "MndBulletUnit", "MndBulletTwoCellLaw",
                     "CoMndComultiplication", "CoMndCounit", "CoMndTwoCellLaw"}


@pytest.mark.parametrize("m", [m for _, m in MONADS],
                         ids=[label for label, _ in MONADS])
def test_triangles_equal_the_oracles_on_every_candidate(m):
    """Every unit and counit typed for the algebra adjunction of ``m``."""
    adj = em_category(m).adj
    L, R = adj.L, adj.R
    outcomes = set()
    for unit in enumerate_nat_trans(identity_functor(adj.base),
                                    compose_functors(R, L)):
        for counit in enumerate_nat_trans(compose_functors(L, R),
                                          identity_functor(adj.upper)):
            try:
                Adjunction(L, R, unit, counit)
                got = []
            except LawViolation as exc:
                got = list(exc.violations)
            assert got == ref_triangles(L, R, unit, counit)
            outcomes.add(bool(got))
    assert False in outcomes


def bullet_endocells(m) -> list:
    cells = []
    for P in enumerate_functors(m.base, m.base):
        for psi in enumerate_nat_trans(compose_functors(P, m.S),
                                       compose_functors(m.S, P)):
            cell = MndBulletOneCell(m, m, P, psi)
            if not cell.check():
                cells.append(cell)
    return cells


def comnd_endocells(c) -> list:
    cells = []
    for P in enumerate_functors(c.base, c.base):
        for pi in enumerate_nat_trans(compose_functors(P, c.G),
                                      compose_functors(c.G, P)):
            cell = CoMndOneCell(c, c, P, pi)
            if not cell.check():
                cells.append(cell)
    return cells


def test_mates_equal_the_oracles_on_the_squares_of_the_c3_id_hom_iso():
    m, c = COR.monads_c3["id"], COR.comonads_c3["id"]
    adjr = enumerate_adjr_endocells(em_category(m))
    adjl = [psi_k_1cell(cell) for cell in bullet_endocells(m)]
    adjl += [vec_psi_e_1cell(cell) for cell in comnd_endocells(c)]
    assert (len(adjr), len(adjl)) == (10, 20)
    for cell in adjr:
        assert mate_right(cell.square) == ref_mate_right(cell.square)
    for cell in adjl:
        assert mate_left(cell.square) == ref_mate_left(cell.square)


@pytest.mark.parametrize("S, T", [(S, T) for _, S, T in LAW_PAIRS],
                         ids=[label for label, _, _ in LAW_PAIRS])
def test_mates_equal_the_oracles_between_two_monads(S, T):
    """The squares psi_E and psi_K make of the lawful Mnd and Mnd• 1-cells
    S → T, between two algebra or two Kleisli adjunctions."""
    for P in enumerate_functors(S.base, T.base):
        for phi in enumerate_nat_trans(compose_functors(T.S, P),
                                       compose_functors(P, S.S)):
            cell = MndOneCell(S, T, P, phi)
            if not cell.check():
                sq = psi_e_1cell(cell).square
                assert mate_right(sq) == ref_mate_right(sq)
        for psi in enumerate_nat_trans(compose_functors(P, S.S),
                                       compose_functors(T.S, P)):
            cell = MndBulletOneCell(S, T, P, psi)
            if not cell.check():
                sq = psi_k_1cell(cell).square
                assert mate_left(sq) == ref_mate_left(sq)


NON_POSET = [(label, m) for label, m in MONADS if not label.startswith("C2-")]


@pytest.mark.parametrize("m", [m for _, m in NON_POSET],
                         ids=[label for label, _ in NON_POSET])
def test_adjl_conditions_equal_the_oracles_on_kleisli_endocells(m):
    cells = [psi_k_1cell(cell) for cell in bullet_endocells(m)]
    for cell in cells:
        assert mate_left(cell.square) == ref_mate_left(cell.square)
    for c, c2 in product(cells, repeat=2):
        for alpha in enumerate_nat_trans(c.J, c2.J):
            for beta in enumerate_nat_trans(c.K, c2.K):
                assert (adjl_two_cell_conditions(c, c2, alpha, beta)
                        == ref_adjl_two_cell_conditions(c, c2, alpha, beta))


def assert_composites_equal_the_oracle(compose, ref_compose, cells):
    """Every composite of two of ``cells`` is the oracle's cell: the same
    functor object, and a transformation between the same functors with the
    same components."""
    for outer, inner in product(cells, repeat=2):
        got, want = compose(outer, inner), ref_compose(outer, inner)
        assert got.P is want.P
        assert got.nat.source is want.nat.source
        assert got.nat.target is want.nat.target
        assert got.nat.components == want.nat.components
        assert got == want


@pytest.mark.parametrize("m", [m for _, m in MONADS],
                         ids=[label for label, _ in MONADS])
def test_mnd_and_bullet_composites_equal_the_oracles(m):
    assert_composites_equal_the_oracle(mnd_compose, ref_mnd_compose,
                                       enumerate_mnd_endocells(m))
    assert_composites_equal_the_oracle(bullet_compose, ref_bullet_compose,
                                       bullet_endocells(m))


@pytest.mark.parametrize("c", [c for _, c in COMONADS],
                         ids=[label for label, _ in COMONADS])
def test_comnd_composites_equal_the_oracles(c):
    assert_composites_equal_the_oracle(comnd_compose, ref_comnd_compose,
                                       comnd_endocells(c))


def test_composites_of_cells_that_do_not_meet_raise():
    S, T = COR.monads_c3["c1"], COR.monads_c3["c2"]
    G, H = COR.comonads_c3["i1"], COR.comonads_c3["i2"]
    for cells, compose, x, y in (
            (enumerate_mnd_endocells, mnd_compose, S, T),
            (bullet_endocells, bullet_compose, S, T),
            (comnd_endocells, comnd_compose, G, H)):
        with pytest.raises(TypeMismatch):
            compose(cells(x)[0], cells(y)[0])
