"""JSON round trips for every file format plus the shipped fixture files."""

import copy
import json
import os
import pickle

import pytest

from finmonad import jsonio
from finmonad.errors import (
    BaseMismatch,
    CategoryValidationError,
    ComponentMistyped,
    FileFormatError,
    LawViolation,
    UnTypableComponent,
)
from finmonad.fincat import Morphism
from finmonad.monad import identity_comonad
from finmonad.report import CheckEntry, Violation

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def test_category_round_trip(cor, tmp_path):
    for cat in (cor.c2, cor.c3, cor.m_z2, cor.one, cor.empty):
        path = tmp_path / "cat.json"
        jsonio.dump_category(cat, str(path))
        assert jsonio.load_category(str(path)) == cat


def test_monad_round_trip(cor, tmp_path):
    for _, _, m in cor.all_monads():
        path = tmp_path / "monad.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(jsonio.monad_to_raw(m), fh, ensure_ascii=False)
        assert jsonio.load_monad(str(path)) == m


def test_comonad_round_trip(cor, tmp_path):
    for _, _, c in cor.all_comonads():
        path = tmp_path / "comonad.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(jsonio.comonad_to_raw(c), fh, ensure_ascii=False)
        assert jsonio.load_comonad(str(path)) == c


def test_law_round_trip_with_file_references(cor, tmp_path):
    s_path = tmp_path / "s.json"
    t_path = tmp_path / "t.json"
    with open(s_path, "w", encoding="utf-8") as fh:
        json.dump(jsonio.monad_to_raw(cor.law_c2_c1.S), fh, ensure_ascii=False)
    with open(t_path, "w", encoding="utf-8") as fh:
        json.dump(jsonio.monad_to_raw(cor.law_c2_c1.T), fh, ensure_ascii=False)
    law_path = tmp_path / "law.json"
    raw = {"S": "s.json", "T": "t.json",
           "phi": dict(cor.law_c2_c1.phi.components)}
    with open(law_path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh, ensure_ascii=False)
    dl = jsonio.load_dist_law(str(law_path))
    assert dl == cor.law_c2_c1


def test_mixed_law_round_trip(cor, tmp_path):
    from finmonad.distlaw import enumerate_mixed_laws

    ml = enumerate_mixed_laws(cor.monads_c3["c1"], cor.comonads_c3["i1"])[0]
    path = tmp_path / "mixed.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(jsonio.mixed_law_to_raw(ml), fh, ensure_ascii=False)
    assert jsonio.load_mixed_law(str(path)) == ml


def test_loading_lawless_monad_raises(cor, tmp_path):
    raw = jsonio.monad_to_raw(cor.monads_z2["twist"])
    raw["eta"] = {"g": "e"}  # breaks the unit law mu ∘ eta S = id
    path = tmp_path / "bad.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh, ensure_ascii=False)
    with pytest.raises(LawViolation):
        jsonio.load_monad(str(path))


def test_loading_lawless_comonad_raises(cor, tmp_path):
    raw = jsonio.comonad_to_raw(identity_comonad(cor.m_z2))
    raw["epsilon"] = {"g": "s"}  # breaks both counit laws
    path = tmp_path / "bad.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh, ensure_ascii=False)
    with pytest.raises(LawViolation) as exc:
        jsonio.load_comonad(str(path))
    assert str(exc.value) == ("comonad: ComonadCounitLeft at g s != e; "
                              "ComonadCounitRight at g s != e")


@pytest.mark.parametrize("load, to_raw, name, field, message", [
    ("load_monad", "monad_to_raw", "c1", "eta",
     "component at '1' must lie in hom(1,2), got 'id_1'"),
    ("load_comonad", "comonad_to_raw", "i1", "delta",
     "component at '1' must lie in hom(0,0), got 'id_1'"),
    ("load_comonad", "comonad_to_raw", "i1", "epsilon",
     "component at '1' must lie in hom(0,1), got 'id_1'"),
], ids=["monad-eta", "comonad-delta", "comonad-epsilon"])
def test_loading_mistyped_structure_raises(cor, tmp_path, load, to_raw, name,
                                           field, message):
    """A structure map's component outside its hom-set is refused, with the
    hom-set the map's direction asks for."""
    structure = {**cor.monads_c3, **cor.comonads_c3}[name]
    raw = getattr(jsonio, to_raw)(structure)
    raw[field]["1"] = "id_1"
    path = tmp_path / "mistyped.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh, ensure_ascii=False)
    with pytest.raises(ComponentMistyped) as exc:
        getattr(jsonio, load)(str(path))
    assert str(exc.value) == message


def test_loading_untypable_law_raises(cor, tmp_path):
    raw = {"S": jsonio.monad_to_raw(cor.monads_c3["c1"]),
           "T": jsonio.monad_to_raw(cor.monads_c3["c2"]),
           "phi": {}}
    path = tmp_path / "untypable.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh, ensure_ascii=False)
    with pytest.raises(UnTypableComponent):
        jsonio.load_dist_law(str(path))


@pytest.mark.parametrize("parse, second, message", [
    ("parse_dist_law", "T", "S and T are monads on different categories"),
    ("parse_mixed_law", "G", "S and G live on different categories")],
    ids=["law", "mixed"])
def test_a_law_file_over_two_categories_raises(cor, parse, second, message):
    other = (cor.monads_c2["id"] if second == "T" else cor.comonads_c2["id"])
    raw = {"S": jsonio.monad_to_raw(cor.monads_c3["c1"]),
           second: jsonio.monad_to_raw(other), "phi" if second == "T" else "psi": {}}
    with pytest.raises(BaseMismatch) as exc:
        getattr(jsonio, parse)(raw)
    assert str(exc.value) == message


@pytest.mark.parametrize("parse, to_raw, name, path, value, message", [
    ("parse_monad", "monad_to_raw", "c1", ("endofunctor", "morphisms", "f01"), 7,
     "invalid monad file: NonStringId at endofunctor.morphisms['f01']"),
    ("parse_monad", "monad_to_raw", "c1", ("endofunctor", "objects", "1"), None,
     "invalid monad file: NonStringId at endofunctor.objects['1']"),
    ("parse_monad", "monad_to_raw", "c1", ("mu", "1"), ["id_2"],
     "invalid monad file: NonStringId at mu['1']"),
    ("parse_comonad", "comonad_to_raw", "i1", ("epsilon", 1), "id_1",
     "invalid comonad file: NonStringId at epsilon[1]"),
    ("parse_dist_law", "dist_law_to_raw", "law_c2_c1", ("phi", "0"), 0,
     "invalid law file: NonStringId at phi['0']"),
], ids=["functor-image", "object-image", "list-component", "int-key", "law"])
def test_a_map_entry_that_is_not_a_string_id_raises(cor, parse, to_raw, name,
                                                   path, value, message):
    """Each map of a structure or law file holds ids: a number, null or list
    where a key or value goes is refused, naming the field and the key,
    rather than read as its string."""
    value_of = {**cor.monads_c3, **cor.comonads_c3, "law_c2_c1": cor.law_c2_c1}
    raw = getattr(jsonio, to_raw)(value_of[name])
    *fields, key = path
    target = raw
    for field in fields:
        target = target[field]
    if isinstance(key, str):
        target[key] = value
    else:
        target[key] = target.pop(str(key))
    with pytest.raises(FileFormatError) as exc:
        getattr(jsonio, parse)(raw)
    assert str(exc.value) == message + " (keys and values must be string ids)"


@pytest.mark.parametrize("parse, to_raw, name, path, message", [
    ("parse_monad", "monad_to_raw", "c1", ("endofunctor", "objects", "phantom"),
     "object map key 'phantom' is no object of the source"),
    ("parse_monad", "monad_to_raw", "c1", ("endofunctor", "morphisms", "nomorph"),
     "morphism map key 'nomorph' is no morphism of the source"),
    ("parse_monad", "monad_to_raw", "c1", ("mu", "nonexistent"),
     "component key 'nonexistent' is no object of the base"),
    ("parse_monad", "monad_to_raw", "c1", ("eta", "ghost"),
     "component key 'ghost' is no object of the base"),
    ("parse_comonad", "comonad_to_raw", "i1", ("delta", "ghost"),
     "component key 'ghost' is no object of the base"),
    ("parse_comonad", "comonad_to_raw", "i1", ("epsilon", "ghost"),
     "component key 'ghost' is no object of the base"),
    ("parse_dist_law", "dist_law_to_raw", "law_c2_c1", ("phi", "ghost"),
     "component key 'ghost' is no object of the base"),
    ("parse_mixed_law", "mixed_law_to_raw", "c1/i1", ("psi", "ghost"),
     "component key 'ghost' is no object of the base"),
], ids=["functor-object", "functor-morphism", "mu", "eta", "delta", "epsilon",
        "law", "mixed-law"])
def test_a_map_key_that_names_nothing_raises(cor, parse, to_raw, name, path,
                                             message):
    """A key of a structure or law map that names no object or morphism is
    refused, as a missing one is, rather than dropped."""
    from finmonad.distlaw import enumerate_mixed_laws

    value_of = {**cor.monads_c3, **cor.comonads_c3, "law_c2_c1": cor.law_c2_c1}
    if name == "c1/i1":
        value_of[name] = enumerate_mixed_laws(cor.monads_c3["c1"],
                                              cor.comonads_c3["i1"])[0]
    raw = getattr(jsonio, to_raw)(value_of[name])
    *fields, key = path
    target = raw
    for field in fields:
        target = target[field]
    target[key] = next(iter(target.values()))
    with pytest.raises(ComponentMistyped) as exc:
        getattr(jsonio, parse)(raw)
    assert str(exc.value) == message


def test_loading_broken_category_raises(tmp_path):
    path = tmp_path / "broken.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"objects": ["a"],
                   "morphisms": [{"id": "f", "src": "a", "tgt": "b"}]}, fh)
    with pytest.raises(CategoryValidationError):
        jsonio.load_category(str(path))


def test_shipped_fixture_files_match_the_corpus(cor):
    assert jsonio.load_category(os.path.join(FIXTURE_DIR, "chain3.json")) == cor.c3
    assert jsonio.load_category(os.path.join(FIXTURE_DIR, "chain2.json")) == cor.c2
    assert jsonio.load_category(os.path.join(FIXTURE_DIR, "z2.json")) == cor.m_z2
    for name, key in (("c1", "c1"), ("c2", "c2"), ("c3", "c3")):
        m = jsonio.load_monad(os.path.join(FIXTURE_DIR, f"{name}.json"))
        assert m == cor.monads_c3[key]
    assert (jsonio.load_monad(os.path.join(FIXTURE_DIR, "id_c3.json"))
            == cor.monads_c3["id"])
    for name in ("i1", "i2", "i3"):
        c = jsonio.load_comonad(os.path.join(FIXTURE_DIR, f"{name}.json"))
        assert c == cor.comonads_c3[name]
    dl = jsonio.load_dist_law(os.path.join(FIXTURE_DIR, "law_c2_c1.json"))
    assert dl == cor.law_c2_c1


def test_report_entries_enforce_the_tag_registry():
    with pytest.raises(ValueError):
        CheckEntry("x", "not-a-registered-tag", "pass")
    with pytest.raises(ValueError):
        Violation("Kind", "also-not-registered")
    with pytest.raises(ValueError):
        CheckEntry("x", "Eq-1510071248-i", "skip")
    CheckEntry("x", "Eq-1510071248-i", "pass")


@pytest.mark.parametrize("make, text", [
    (lambda: Morphism("f", "a", "b"), "Morphism(id='f', src='a', tgt='b')"),
    (lambda: Violation("K", "law-functor", where="x"),
     "Violation(kind='K', tag='law-functor', where='x', lhs='', rhs='', detail='')"),
    (lambda: CheckEntry("c", "law-functor", "fail", {"w": 1}),
     "CheckEntry(check='c', tag='law-functor', status='fail', witness={'w': 1}, detail='')"),
], ids=["Morphism", "Violation", "CheckEntry"])
def test_records_are_frozen_values(make, text):
    """Equal by their fields within one class, hashed and shown by them,
    copied and pickled whole, and never changed after construction."""
    r = make()
    assert repr(r) == text
    assert r == make() and r is not make()
    assert r != (r.tag if hasattr(r, "tag") else r.id)
    assert copy.copy(r) == pickle.loads(pickle.dumps(r)) == r
    if not isinstance(r, CheckEntry):  # a CheckEntry's witness may be a dict
        assert hash(r) == hash(make())
    for name in ("id", "tag"):
        if hasattr(r, name):
            with pytest.raises(AttributeError):
                setattr(r, name, "z")
            with pytest.raises(AttributeError):
                delattr(r, name)


def test_morphisms_order_by_id_then_ends():
    ms = [Morphism("g", "a", "b"), Morphism("f", "b", "c"), Morphism("f", "a", "c")]
    assert sorted(ms) == [ms[2], ms[1], ms[0]]
    assert Morphism("f", "a", "b") <= Morphism("f", "a", "b") < Morphism("f", "a", "c")
    with pytest.raises(TypeError):
        Morphism("f", "a", "b") < ("f", "a", "b")
