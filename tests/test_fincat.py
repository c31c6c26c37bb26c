"""Category/functor/transformation layer: validation, composition algebra,
whiskering, and the interchange law."""

import gc
import sys
import threading
import weakref
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    chain2_times_z2,
    cyclic,
    finset_subcategories,
    ref_associativity_violations,
    ref_check_naturality,
    transformation_monoid,
)

from finmonad.errors import (
    CategoryValidationError,
    ComponentMistyped,
    CompositionTypeMismatch,
)
from finmonad.fincat import (
    FinCategory,
    Functor,
    Morphism,
    NatTrans,
    assemble_category,
    check_functor,
    check_naturality,
    compose_functors,
    enumerate_functors,
    enumerate_nat_trans,
    hcomp,
    identity_functor,
    identity_nat,
    opposite,
    validate_category,
    vcomp,
    whisker_left,
    whisker_right,
)
from finmonad.fixtures import chain_category, thin_nat
from finmonad.jsonio import category_to_raw


def _kinds(excinfo):
    return {v.kind for v in excinfo.value.violations}


# -- validate_category --------------------------------------------------------


def test_two_chain_with_explicit_identities_is_valid():
    cat = validate_category({
        "objects": ["a", "b"],
        "morphisms": [
            {"id": "id_a", "src": "a", "tgt": "a"},
            {"id": "id_b", "src": "b", "tgt": "b"},
            {"id": "f", "src": "a", "tgt": "b"},
        ],
        "identities": {"a": "id_a", "b": "id_b"},
        "composition": [
            {"first": "id_a", "then": "f", "equals": "f"},
            {"first": "f", "then": "id_b", "equals": "f"},
        ],
    })
    assert cat.objects == ("a", "b")
    assert cat.compose("id_a", "f") == "f"


def test_unit_law_violation_is_reported():
    # composition entry claims f∘id_a = id_a
    with pytest.raises(CategoryValidationError) as excinfo:
        validate_category({
            "objects": ["a", "b"],
            "morphisms": [
                {"id": "id_a", "src": "a", "tgt": "a"},
                {"id": "id_b", "src": "b", "tgt": "b"},
                {"id": "f", "src": "a", "tgt": "b"},
            ],
            "identities": {"a": "id_a", "b": "id_b"},
            "composition": [
                {"first": "id_a", "then": "f", "equals": "id_a"},
                {"first": "f", "then": "id_b", "equals": "f"},
            ],
        })
    assert "UnitLawViolation" in _kinds(excinfo)


def test_three_chain_is_valid(cor):
    assert cor.c3.compose("f01", "f12") == "f02"
    assert cor.c3.identity("1") == "id_1"
    assert cor.c3.is_thin()


def test_missing_composite_is_reported():
    with pytest.raises(CategoryValidationError) as excinfo:
        validate_category({
            "objects": ["0", "1", "2"],
            "morphisms": [
                {"id": "f01", "src": "0", "tgt": "1"},
                {"id": "f12", "src": "1", "tgt": "2"},
                {"id": "f02", "src": "0", "tgt": "2"},
            ],
            "composition": [],
        })
    assert "MissingComposite" in _kinds(excinfo)


def test_non_associative_table_is_reported():
    # one object, three distinct endomorphisms with a deliberately skewed table
    raw = {
        "objects": ["x"],
        "morphisms": [
            {"id": "e", "src": "x", "tgt": "x"},
            {"id": "p", "src": "x", "tgt": "x"},
            {"id": "q", "src": "x", "tgt": "x"},
        ],
        "identities": {"x": "e"},
        "composition": [
            {"first": "p", "then": "p", "equals": "q"},
            {"first": "p", "then": "q", "equals": "p"},
            {"first": "q", "then": "p", "equals": "q"},
            {"first": "q", "then": "q", "equals": "q"},
        ],
    }
    with pytest.raises(CategoryValidationError) as excinfo:
        validate_category(raw)
    assert "NonAssociative" in _kinds(excinfo)


def test_dangling_ids_are_reported():
    with pytest.raises(CategoryValidationError) as excinfo:
        validate_category({
            "objects": ["a"],
            "morphisms": [{"id": "f", "src": "a", "tgt": "zzz"}],
        })
    assert "DanglingId" in _kinds(excinfo)


_ONE_LOOP = {"objects": ["a"],
             "morphisms": [{"id": "e", "src": "a", "tgt": "a"}],
             "identities": {"a": "e"},
             "composition": [{"first": "e", "then": "e", "equals": "e"}]}


@pytest.mark.parametrize("value", [None, 7, 1.5, True, ["e"], {"id": "e"}])
@pytest.mark.parametrize("field", ["id", "src", "tgt"])
def test_a_non_string_morphism_id_is_dangling(field, value):
    """Read as a string, ``null`` or ``7`` would name a morphism "None" or
    "7", or point it at an object of that name."""
    raw = {**_ONE_LOOP, "objects": ["a", str(value)],
           "morphisms": [{"id": "e", "src": "a", "tgt": "a", field: value}]}
    with pytest.raises(CategoryValidationError) as excinfo:
        validate_category(raw)
    [v] = excinfo.value.violations
    assert (v.kind, v.tag, v.detail) == ("DanglingId", "law-category-structure",
                                         "morphism ids must be strings")


@pytest.mark.parametrize("value", [None, 7, ["e"]])
@pytest.mark.parametrize("field", ["first", "then", "equals"])
def test_a_non_string_composition_id_is_malformed(field, value):
    raw = {**_ONE_LOOP, "morphisms": _ONE_LOOP["morphisms"]
           + [{"id": str(value), "src": "a", "tgt": "a"}],
           "composition": [{"first": "e", "then": "e", "equals": "e", field: value}]}
    with pytest.raises(CategoryValidationError) as excinfo:
        validate_category(raw)
    bad = [v for v in excinfo.value.violations if v.kind == "MalformedEntry"]
    assert [(v.tag, v.detail) for v in bad] == [
        ("law-category-composition", "composition ids must be strings")]


def test_morphism_values_with_string_ids_still_validate():
    """``assemble_category`` passes Morphism values, not raw entries."""
    e = Morphism("e", "a", "a")
    cat = assemble_category(["a"], [e], {"a": "e"}, lambda f, g: "e")
    assert cat == validate_category(_ONE_LOOP)
    assert cat.morphisms == (e,)


def test_validate_is_idempotent(cor):
    for cat in (cor.c2, cor.c3, cor.m_z2, cor.one, cor.empty):
        again = validate_category(category_to_raw(cat))
        assert again == cat


def test_empty_category_is_valid(cor):
    assert cor.empty.objects == ()
    assert cor.empty.morphisms == ()


def test_composition_of_non_composable_pair_raises(cor):
    with pytest.raises(CompositionTypeMismatch):
        cor.c3.compose("f12", "f01")  # wrong order: f12 first needs tgt 2 = src


def test_opposite_involution(cor):
    for cat in (cor.c2, cor.c3, cor.m_z2):
        assert opposite(opposite(cat)) == cat
    assert opposite(cor.c3).hom("2", "0") == ("f02",)


# -- functors ------------------------------------------------------------------


def test_identity_functor_is_lawful(cor):
    assert check_functor(identity_functor(cor.c3)) == []


def test_identity_functor_is_the_interned_one_and_kept_by_nothing(cor):
    """While an identity functor lives, identity_functor returns it; the
    category holds no strong reference to it."""
    Id = identity_functor(cor.c3)
    assert identity_functor(cor.c3) is Id
    assert Functor(cor.c3, cor.c3, Id.object_map, Id.morphism_map) is Id
    fresh = validate_category(category_to_raw(cor.c3))
    ref = weakref.ref(identity_functor(fresh))
    assert ref() is None


def test_non_monotone_object_map_reports_mismatch(cor):
    # a↦b, b↦a cannot send f anywhere type-correct
    F = Functor(cor.c2, cor.c2, {"a": "b", "b": "a"},
                {"f": "id_a", "id_a": "id_b", "id_b": "id_a"})
    kinds = {v.kind for v in check_functor(F)}
    assert "SourceTargetMismatch" in kinds


def test_functor_with_dangling_image_raises(cor):
    with pytest.raises(ComponentMistyped):
        Functor(cor.c2, cor.c2, {"a": "a", "b": "b"}, {"f": "nope",
                                                       "id_a": "id_a",
                                                       "id_b": "id_b"})


@pytest.mark.parametrize("object_map, morphism_map, message", [
    ({"b": "b"}, {}, "object 'a' has no valid image"),
    ({"a": "a", "b": "z"}, {}, "object 'b' has no valid image"),
    ({"a": "a", "b": "b"}, {"id_a": "id_a", "id_b": "nope"},
     "morphism 'f' has no valid image"),
    ({"a": "a", "b": "b"}, {"f": "f", "id_a": "id_a", "id_b": "nope"},
     "morphism 'id_b' has no valid image"),
    ({"a": "a", "b": "b", "c": "a"}, {"f": "f", "id_a": "id_a", "id_b": "id_b"},
     "object map key 'c' is no object of the source"),
    ({"a": "a", "b": "b"}, {"f": "f", "g": "f", "id_a": "id_a", "id_b": "id_b"},
     "morphism map key 'g' is no morphism of the source"),
], ids=["missing-object", "dangling-object", "missing-morphism",
        "dangling-morphism", "unknown-object-key", "unknown-morphism-key"])
def test_functor_names_its_first_bad_image(cor, object_map, morphism_map,
                                           message):
    """Objects are checked before morphisms, each in the source's order,
    and a key that names nothing in the source is refused after them."""
    with pytest.raises(ComponentMistyped) as exc:
        Functor(cor.c2, cor.c2, object_map, morphism_map)
    assert str(exc.value) == message


def test_compose_functors_object_map_matches_pointwise_oracle(cor):
    c1 = cor.monads_c3["c1"].S
    c2 = cor.monads_c3["c2"].S
    composed = compose_functors(c2, c1)
    oracle = {x: c2.object_map[c1.object_map[x]] for x in cor.c3.objects}
    assert composed.object_map == oracle
    assert composed.object_map == {"0": "1", "1": "2", "2": "2"}


def test_functor_equality_is_extensional(cor):
    Id = identity_functor(cor.c3)
    assert compose_functors(Id, Id) == Id
    c1 = cor.monads_c3["c1"].S
    assert Id != c1  # object maps differ at 1


def test_the_same_maps_give_the_same_functor(cor):
    c1 = cor.monads_c3["c1"].S
    assert Functor(cor.c3, cor.c3, dict(c1.object_map),
                   dict(c1.morphism_map)) is c1
    assert identity_functor(cor.c3) is identity_functor(cor.c3)
    Id = identity_functor(cor.c3)
    assert compose_functors(Id, c1) is c1
    assert compose_functors(c1, Id) is c1
    # the same maps into another target are another functor
    assert Functor(cor.c3, opposite(cor.c3), c1.object_map,
                   c1.morphism_map) is not c1


def test_distinct_functors_between_the_same_categories_are_unequal(cor):
    Id = identity_functor(cor.c3)
    for F in enumerate_functors(cor.c3, cor.c3):
        assert (F == Id) is (F is Id)


def test_functors_over_equal_but_distinct_categories_stay_equal(cor):
    """A category loaded twice keeps its own intern table; functors over
    the two copies are distinct objects that compare and hash by value."""
    again = validate_category(category_to_raw(cor.c3))
    assert again == cor.c3 and again is not cor.c3
    c1 = cor.monads_c3["c1"].S
    for source, target in ((again, again), (again, cor.c3), (cor.c3, again)):
        F = Functor(source, target, c1.object_map, c1.morphism_map)
        assert F is not c1
        assert F == c1 and c1 == F
        assert hash(F) == hash(c1)
    assert identity_functor(again) == identity_functor(cor.c3)
    assert identity_functor(again) != c1


def test_canonical_keys_order_functors_as_their_sorted_maps(cor):
    """A functor's canonical key is its images in source order. Sources
    list their objects and morphisms sorted, so the keys sort functors as
    their sorted maps do."""
    from finmonad.construct import em_category

    def sorted_maps(F):
        return (tuple(sorted(F.object_map.items())),
                tuple(sorted(F.morphism_map.items())))

    em = em_category(cor.monads_c3["c1"]).category
    for cat in (cor.c3, opposite(cor.c3), cor.m_z2, em):
        found = enumerate_functors(cat, cat)
        assert len(found) > 1
        assert all(a is b for a, b in zip(found, sorted(found, key=sorted_maps)))


def test_composition_is_memoised(cor):
    c1, c2 = cor.monads_c3["c1"].S, cor.monads_c3["c2"].S
    assert compose_functors(c2, c1) is compose_functors(c2, c1)
    assert compose_functors(c1, c2) is compose_functors(c1, c2)
    assert compose_functors(c2, c1) is not compose_functors(c1, c2)


def _fresh_chain(n: int):
    """A chain on n objects that no other test holds."""
    return chain_category([str(i) for i in range(n)])


def test_a_composite_lives_while_both_factors_live(monkeypatch):
    """The memo keeps F∘G while F and G live: a caller that drops it gets
    the same object back, and nothing is built again."""
    C = _fresh_chain(3)
    endos = enumerate_functors(C, C)
    # F∘G is neither factor and, once the list is dropped, held by no one
    F, G = next((F, G) for F, G in product(endos, repeat=2)
                if tuple(F.ob(G.ob(x)) for x in C.objects)
                not in (F._key[0], G._key[0]))
    del endos
    composite = weakref.ref(compose_functors(F, G))
    assert composite() is not F and composite() is not G
    gc.collect()
    assert composite() is not None
    built = []
    monkeypatch.setattr(Functor, "__init__", lambda self, *args: built.append(args))
    assert compose_functors(F, G) is composite()
    assert built == []


def test_idempotent_and_identity_composites_keep_no_factor_alive():
    """On a chain every monad is idempotent, S∘S = S, and S∘Id = Id∘S = S.
    A composite that is one of its factors is held weakly, so once the
    caller drops them the three non-identity monad functors are freed by
    reference counting alone; held strongly, each stayed alive through its
    own memo or the identity's."""
    from finmonad.monad import enumerate_monads

    C = _fresh_chain(3)
    Id = identity_functor(C)
    endos = [m.S for m in enumerate_monads(C)]
    assert len(endos) == 4 and sum(S is Id for S in endos) == 1
    refs = [weakref.ref(S) for S in endos if S is not Id]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for S in endos:
            assert compose_functors(S, S) is S
            assert compose_functors(S, Id) is S and compose_functors(Id, S) is S
        del endos, S
        assert [r() for r in refs] == [None] * 3
    finally:
        if was_enabled:
            gc.enable()


def test_a_dead_factor_leaves_the_memo_and_frees_its_target():
    """G's memo keeps F∘G, and so F's target, only while F lives: once the
    five functors F into per-run categories die, their targets are freed
    and G's memo is empty at once, with no sweep."""
    C = _fresh_chain(2)
    G = Functor(C, C, {"0": "1", "1": "1"}, {m: "id_1" for m in C._by_id})
    categories = _live(FinCategory)
    Fs = [Functor(C, _fresh_chain(2), {x: x for x in C.objects},
                  {m: m for m in C._by_id}) for _ in range(5)]
    for F in Fs:
        compose_functors(F, G)
    assert len(G._composed) == 5
    del Fs, F
    assert _live(FinCategory) == categories
    assert G._composed == {}


def test_mistyped_composition_still_raises(cor):
    Id2, Id3 = identity_functor(cor.c2), identity_functor(cor.c3)
    compose_functors(Id3, Id3)
    compose_functors(Id2, Id2)
    for F, G in ((Id2, Id3), (Id3, Id2)):
        for _ in range(2):
            with pytest.raises(CompositionTypeMismatch):
                compose_functors(F, G)


def test_threads_building_the_same_functors_get_one_object(cor):
    """Four threads, more than there are cores, build the same functors at
    once, many times over, on a fresh copy of C3 each round so that no
    functor of it is alive yet. Every thread must get the same object."""
    maps = [(dict(F.object_map), dict(F.morphism_map))
            for F in enumerate_functors(cor.c3, cor.c3)]
    raw = category_to_raw(cor.c3)
    n = 4
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(30):
            cat = validate_category(raw)
            barrier = threading.Barrier(n, timeout=30)
            built = [None] * n

            def build(k, cat=cat, barrier=barrier, built=built):
                barrier.wait()
                built[k] = [Functor(cat, cat, om, mm) for om, mm in maps]

            threads = [threading.Thread(target=build, args=(k,))
                       for k in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert all(got is not None for got in built)
            for got in built[1:]:
                assert all(a is b for a, b in zip(built[0], got))
    finally:
        sys.setswitchinterval(old)


def _live(cls) -> int:
    gc.collect()
    return sum(type(x) is cls for x in gc.get_objects())


def test_interning_and_the_composition_memo_keep_nothing_alive(cor):
    """Twenty more runs of the C3/id round trip and of one law op leave as
    many functors and categories alive as the first run did: neither the
    intern tables nor the composition memo hold a per-run value, and the
    memo does not grow with the runs. A memo that kept a composite after
    one of its factors died kept each run's algebra categories alive
    through the corpus functors."""
    from finmonad.construct import em_category, kleisli_category
    from finmonad.distlaw import enumerate_dist_laws
    from finmonad.twofunctors import (
        enumerate_liftings,
        extend_monad,
        extract_dist_law,
        extract_from_extension,
        hom_iso_roundtrip,
        lift_monad,
    )

    S, T = cor.monads_c3["c2"], cor.monads_c3["c1"]

    def run():
        assert all(e.status == "pass"
                   for e in hom_iso_roundtrip(cor.monads_c3["id"]))
        em, kl = em_category(S), kleisli_category(T)
        laws = enumerate_dist_laws(S, T)
        assert len(laws) == len(enumerate_liftings(S, T)) == 1
        for dl in laws:
            assert extract_dist_law(lift_monad(dl, em)) == dl
            assert extract_from_extension(extend_monad(dl, kl)) == dl

    def memo_entries():
        gc.collect()
        return sum(len(x._composed or ()) for x in gc.get_objects()
                   if type(x) is Functor)

    run()
    counts = (_live(Functor), _live(FinCategory))
    entries = memo_entries()
    for _ in range(20):
        run()
    assert (_live(Functor), _live(FinCategory)) == counts
    assert memo_entries() <= 2 * entries


# -- natural transformations ----------------------------------------------------


def test_identity_components_between_equal_functors_are_natural(cor):
    c1 = cor.monads_c3["c1"].S
    alpha = identity_nat(c1)
    assert check_naturality(alpha) == []


@pytest.mark.parametrize("name", ["Z3", "T2", "C2xZ2"])
def test_naturality_check_equals_composing_by_id(name):
    """Every transformation between endofunctors, natural or not: the same
    violations in the same order as the check that composes by id."""
    cat = {"Z3": lambda: cyclic(3), "T2": lambda: transformation_monoid(2),
           "C2xZ2": chain2_times_z2}[name]()
    endos = enumerate_functors(cat, cat)
    failing = 0
    for F in endos:
        for G in endos:
            homs = [cat.hom(F.ob(x), G.ob(x)) for x in cat.objects]
            for combo in product(*homs):
                alpha = NatTrans(F, G, dict(zip(cat.objects, combo)))
                found = check_naturality(alpha)
                assert found == ref_check_naturality(alpha)
                failing += bool(found)
    assert failing > 0


def test_naturality_check_of_a_mistyped_functor_raises(cor):
    F = Functor(cor.c3, cor.c3, {x: x for x in cor.c3.objects},
                {"id_0": "id_0", "id_1": "id_1", "id_2": "id_2",
                 "f01": "f12", "f12": "f12", "f02": "f02"})
    alpha = NatTrans(F, F, {x: cor.c3.identity(x) for x in cor.c3.objects})
    for check in (check_naturality, ref_check_naturality):
        with pytest.raises(CompositionTypeMismatch, match="not defined"):
            check(alpha)


def test_component_outside_hom_raises(cor):
    Id = identity_functor(cor.c3)
    with pytest.raises(ComponentMistyped):
        NatTrans(Id, Id, {"0": "f01", "1": "id_1", "2": "id_2"})


@pytest.mark.parametrize("components, message", [
    ({"0": "id_0", "2": "id_2"}, "component at '1' missing"),
    ({"0": "id_0", "1": "nope", "2": "f01"}, "component at '1' missing"),
    ({"0": "id_0", "1": "f01", "2": "f01"},
     "component at '1' must lie in hom(1,1), got 'f01'"),
    ({"0": "id_0", "1": "id_1", "2": "id_2", "3": "id_0"},
     "component key '3' is no object of the base"),
], ids=["missing", "dangling", "mistyped", "unknown-key"])
def test_transformation_names_its_first_bad_component(cor, components, message):
    Id = identity_functor(cor.c3)
    with pytest.raises(ComponentMistyped) as exc:
        NatTrans(Id, Id, components)
    assert str(exc.value) == message


def test_extensional_equality_of_transformations_built_differently(cor):
    c1 = cor.monads_c3["c1"].S
    alpha = identity_nat(c1)
    again = vcomp(alpha, alpha)
    assert alpha == again


def test_vcomp_unit_laws(cor):
    c1 = cor.monads_c3["c1"].S
    c3f = cor.monads_c3["c3"].S
    alpha = thin_nat(c1, c3f)
    assert vcomp(identity_nat(c1), alpha) == alpha
    assert vcomp(alpha, identity_nat(c3f)) == alpha


def test_whisker_by_identity_functor_is_identity(cor):
    c1 = cor.monads_c3["c1"].S
    c3f = cor.monads_c3["c3"].S
    alpha = thin_nat(c1, c3f)
    Id = identity_functor(cor.c3)
    assert whisker_left(Id, alpha).components == alpha.components
    assert whisker_right(alpha, Id).components == alpha.components


def test_interchange_law_exhaustive(cor):
    # alpha: c1 -> c3 and beta: c2 -> c3 (pointwise below, both typable)
    c1 = cor.monads_c3["c1"].S
    c2 = cor.monads_c3["c2"].S
    c3f = cor.monads_c3["c3"].S
    for F, G in [(c1, c3f), (c2, c3f), (c1, c1)]:
        alpha = thin_nat(F, G)
        for H, K in [(c2, c3f), (c1, c3f), (c3f, c3f)]:
            beta = thin_nat(H, K)
            one = vcomp(whisker_right(beta, F), whisker_left(K, alpha))
            other = vcomp(whisker_left(H, alpha), whisker_right(beta, G))
            assert one.components == other.components
            assert hcomp(alpha, beta).components == one.components


def test_whiskering_against_z2_twist(cor):
    # non-thin sanity: whiskering along the identity functor of M(Z2)
    Id = identity_functor(cor.m_z2)
    twist = NatTrans(Id, Id, {"g": "s"})
    assert check_naturality(twist) == []
    assert vcomp(twist, twist).components == {"g": "e"}


# -- enumeration -----------------------------------------------------------------


def test_enumerate_functors_counts(cor):
    # monotone self-maps of a chain: C(2n-1, n) of them
    assert len(enumerate_functors(cor.c2, cor.c2)) == 3
    assert len(enumerate_functors(cor.c3, cor.c3)) == 10
    # monoid endomorphisms of Z2: identity and collapse
    assert len(enumerate_functors(cor.m_z2, cor.m_z2)) == 2
    # empty cases
    assert len(enumerate_functors(cor.empty, cor.c3)) == 1
    assert len(enumerate_functors(cor.c3, cor.empty)) == 0


def test_enumerate_functors_matches_monotone_oracle(cor):
    found = {tuple(sorted(F.object_map.items()))
             for F in enumerate_functors(cor.c3, cor.c3)}
    objs = cor.c3.objects
    oracle = set()
    from itertools import product
    for combo in product(objs, repeat=3):
        f = dict(zip(objs, combo))
        if all(not cor.c3.le(x, y) or cor.c3.le(f[x], f[y])
               for x in objs for y in objs):
            oracle.add(tuple(sorted(f.items())))
    assert found == oracle


def test_enumerate_nat_trans_thin(cor):
    c1 = cor.monads_c3["c1"].S
    c3f = cor.monads_c3["c3"].S
    assert len(enumerate_nat_trans(c1, c3f)) == 1
    assert len(enumerate_nat_trans(c3f, c1)) == 0


def test_enumerate_functors_deterministic_across_jobs(cor):
    one = enumerate_functors(cor.c3, cor.c3, jobs=1)
    many = enumerate_functors(cor.c3, cor.c3, jobs=8)
    assert [F.canonical_key() for F in one] == [F.canonical_key() for F in many]


def _cyclic_monoid_raw(n):
    ids = [f"r{i:02d}" for i in range(n)]
    comp = [{"first": ids[i], "then": ids[j], "equals": ids[(i + j) % n]}
            for i in range(n) for j in range(n)]
    return {"objects": ["x"],
            "morphisms": [{"id": m, "src": "x", "tgt": "x"} for m in ids],
            "identities": {"x": ids[0]},
            "composition": comp}


def _changed(raw, i, equals):
    """``raw`` with the i-th entry of its composition table changed."""
    comp = [dict(e) for e in raw["composition"]]
    comp[i]["equals"] = equals
    return {**raw, "composition": comp}


def _next_id(raw, m):
    """The morphism after ``m`` in ``raw``'s list, the first after the last."""
    ids = [x["id"] for x in raw["morphisms"]]
    return ids[(ids.index(m) + 1) % len(ids)]


def test_associativity_is_decided_exactly_on_large_monoids():
    # Z60 has 216,000 composable triples and validates
    cat = validate_category(_cyclic_monoid_raw(60))
    assert len(cat.morphisms) == 60
    assert cat.compose("r01", "r59") == "r00"
    # T4, every map of a 4-element set, has 256³ composable triples; one
    # product changed (the 4-cycle squared) breaks 408 of them
    raw = category_to_raw(transformation_monoid(4))
    (i,) = [i for i, e in enumerate(raw["composition"])
            if (e["first"], e["then"]) == ("t1230", "t1230")]
    with pytest.raises(CategoryValidationError) as excinfo:
        validate_category(_changed(raw, i, _next_id(raw, "t2301")))
    assert _kinds(excinfo) == {"NonAssociative"}


def _assert_light_agrees(raw):
    """Validation refuses ``raw`` as non-associative iff some triple fails,
    and every triple it names fails."""
    failing = ref_associativity_violations(raw)
    try:
        validate_category(raw)
        named = []
    except CategoryValidationError as exc:
        named = [v.where for v in exc.violations if v.kind == "NonAssociative"]
    assert bool(named) == bool(failing), (named, failing)
    assert set(named) <= set(failing)


def test_light_agrees_with_every_triple_on_each_changed_product_of_t3():
    raw = category_to_raw(transformation_monoid(3))
    for i, e in enumerate(raw["composition"]):
        _assert_light_agrees(_changed(raw, i, _next_id(raw, e["equals"])))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([chain_category("abcd"), chain2_times_z2()]), st.data())
def test_light_agrees_with_every_triple_on_random_changed_products(cat, data):
    # any morphism, so the change may also break a unit law or a type
    raw = category_to_raw(cat)
    i = data.draw(st.integers(0, len(raw["composition"]) - 1))
    m = data.draw(st.sampled_from([m.id for m in cat.morphisms]))
    _assert_light_agrees(_changed(raw, i, m))


@settings(max_examples=60, deadline=None)
@given(finset_subcategories(), st.data())
def test_light_agrees_with_every_triple_on_finset_subcategories(cat, data):
    # the category itself, then with one product changed within its hom-set
    raw = category_to_raw(cat)
    assert ref_associativity_violations(raw) == []
    _assert_light_agrees(raw)
    i = data.draw(st.integers(0, len(raw["composition"]) - 1))
    h = cat.morphism(raw["composition"][i]["equals"])
    m = data.draw(st.sampled_from(cat.hom(h.src, h.tgt)))
    _assert_light_agrees(_changed(raw, i, m))
