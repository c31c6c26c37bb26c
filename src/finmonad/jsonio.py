"""JSON file formats for categories, monads, comonads, and laws.

Category file:
    {"objects": [...],
     "morphisms": [{"id", "src", "tgt"}, ...],
     "identities": {obj: morph}?,            # optional, synthesized if absent
     "composition": [{"first", "then", "equals"}, ...]}   # equals = then∘first

Monad file:
    {"category": <path or inline category>,
     "endofunctor": {"objects": {x: y}, "morphisms": {f: g}},
     "mu": {obj: morph}, "eta": {obj: morph}}

Comonad file: same with "delta"/"epsilon".
Law file: {"S": <path or inline monad>, "T": <...>, "phi": {obj: morph}};
mixed law file: {"S": ..., "G": <comonad>, "psi": {...}}.

Nested "category"/"S"/... values given as strings are paths resolved
relative to the referring file. Every field shown is required and no
other field is allowed; a file of the wrong shape raises
:class:`FileFormatError`.
"""

from __future__ import annotations

import json
import os

from .errors import BaseMismatch, ComponentMistyped, FileFormatError, LawViolation
from .fincat import (
    FinCategory,
    Functor,
    NatTrans,
    compose_functors,
    check_functor,
    schema_violations,
    validate_category,
)
from .report import Violation


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise FileFormatError([Violation(
                "NestedTooDeeply", "chk-validation",
                detail="deeper than the JSON parser can read")], "JSON") from None


_REF = (str, dict)  # a path, or the object inline
_FIELDS = {
    "monad": {"category": _REF, "endofunctor": dict, "mu": dict, "eta": dict},
    "comonad": {"category": _REF, "endofunctor": dict, "delta": dict,
                "epsilon": dict},
    "law": {"S": _REF, "T": _REF, "phi": dict},
    "mixed law": {"S": _REF, "G": _REF, "psi": dict},
}


def _require_shape(raw, what: str) -> None:
    bad = schema_violations(raw, _FIELDS[what], what, "chk-validation")
    if bad:
        raise FileFormatError(bad, what)


def _id_map(raw: dict, field: str, what: str) -> dict:
    """The map ``field`` of a ``what`` file, whose keys and values are ids:
    an entry that is not a string pair raises FileFormatError naming the
    field and the key, as validate_category refuses a non-string id."""
    bad = [Violation("NonStringId", "chk-validation", where=f"{field}[{k!r}]",
                     detail="keys and values must be string ids")
           for k, v in raw.items() if not (isinstance(k, str) and isinstance(v, str))]
    if bad:
        raise FileFormatError(bad, what)
    return dict(raw)


def _resolve(value, base_dir: str):
    """A string is a path relative to the referring file; a dict is inline."""
    if isinstance(value, dict):
        return value, base_dir
    path = value if os.path.isabs(value) else os.path.join(base_dir, value)
    return _load_json(path), os.path.dirname(os.path.abspath(path))


# -- categories --------------------------------------------------------------


def category_to_raw(cat: FinCategory) -> dict:
    return {
        "objects": list(cat.objects),
        "morphisms": [{"id": m.id, "src": m.src, "tgt": m.tgt}
                      for m in cat.morphisms],
        "identities": dict(sorted(cat.identities.items())),
        "composition": [{"first": f, "then": g, "equals": h}
                        for f, g, h in cat.composition_items()],
    }


def parse_category(raw: dict) -> FinCategory:
    return validate_category(raw)


def load_category(path: str) -> FinCategory:
    return parse_category(_load_json(path))


def dump_category(cat: FinCategory, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(category_to_raw(cat), fh, indent=2, sort_keys=True,
                  ensure_ascii=False)
        fh.write("\n")


# -- functors and transformations against a known category -------------------


def parse_endofunctor(cat: FinCategory, raw: dict, what: str) -> Functor:
    """The endofunctor of a ``what`` file, checked to be a functor."""
    try:
        maps = [_id_map(raw[field], f"endofunctor.{field}", what)
                for field in ("objects", "morphisms")]
    except (KeyError, TypeError, AttributeError):
        raise ComponentMistyped("endofunctor needs objects/morphisms maps")
    F = Functor(cat, cat, *maps)
    bad = check_functor(F)
    if bad:
        raise LawViolation(bad, context="endofunctor")
    return F


def functor_to_raw(F: Functor) -> dict:
    return {"objects": dict(sorted(F.object_map.items())),
            "morphisms": dict(sorted(F.morphism_map.items()))}


# -- monads and comonads ------------------------------------------------------


def _parse_structure(kind, raw: dict, base_dir: str):
    """A valid ``kind`` (Monad or Comonad) read from its file."""
    _require_shape(raw, kind.CONTEXT)
    category, endofunctor, mult, unit = _FIELDS[kind.CONTEXT]
    cat_raw, _ = _resolve(raw[category], base_dir)
    cat = parse_category(cat_raw)
    E = parse_endofunctor(cat, raw[endofunctor], kind.CONTEXT)
    maps = [_id_map(raw[field], field, kind.CONTEXT) for field in (mult, unit)]
    return kind.from_components(cat, E, *maps).require_valid()


def _structure_to_raw(s) -> dict:
    category, endofunctor, mult, unit = _FIELDS[s.CONTEXT]
    return {
        category: category_to_raw(s.base),
        endofunctor: functor_to_raw(s.endo),
        mult: dict(sorted(s.mult.components.items())),
        unit: dict(sorted(s.unit.components.items())),
    }


def parse_monad(raw: dict, base_dir: str = ".") -> Monad:
    # imported here, so that loading a category never loads it
    from .monad import Monad

    return _parse_structure(Monad, raw, base_dir)


def load_monad(path: str) -> Monad:
    return parse_monad(_load_json(path), os.path.dirname(os.path.abspath(path)))


def parse_comonad(raw: dict, base_dir: str = ".") -> Comonad:
    from .monad import Comonad

    return _parse_structure(Comonad, raw, base_dir)


def load_comonad(path: str) -> Comonad:
    return parse_comonad(_load_json(path),
                         os.path.dirname(os.path.abspath(path)))


monad_to_raw = comonad_to_raw = _structure_to_raw


# -- laws ---------------------------------------------------------------------


def _parse_law(kind: str, raw: dict, base_dir: str):
    """The law of ``kind``, "law" or "mixed law", read from its file."""
    # imported here, so that loading a category or a monad never loads it
    from .distlaw import DistributiveLaw, MixedDistributiveLaw, require_typable

    _require_shape(raw, kind)
    first, second, nat = _FIELDS[kind]
    s_raw, s_dir = _resolve(raw[first], base_dir)
    e_raw, e_dir = _resolve(raw[second], base_dir)
    S = parse_monad(s_raw, s_dir)
    if kind == "law":
        law, E = DistributiveLaw, parse_monad(e_raw, e_dir)
        bases = "S and T are monads on different categories"
    else:
        law, E = MixedDistributiveLaw, parse_comonad(e_raw, e_dir)
        bases = "S and G live on different categories"
    if S.base != E.base:
        raise BaseMismatch(bases)
    require_typable(S, E)
    return law(S, E, NatTrans(compose_functors(S.S, E.endo),
                              compose_functors(E.endo, S.S),
                              _id_map(raw[nat], nat, kind)))


def parse_dist_law(raw: dict, base_dir: str = ".") -> DistributiveLaw:
    return _parse_law("law", raw, base_dir)


def load_dist_law(path: str) -> DistributiveLaw:
    return parse_dist_law(_load_json(path),
                          os.path.dirname(os.path.abspath(path)))


def parse_mixed_law(raw: dict, base_dir: str = ".") -> MixedDistributiveLaw:
    return _parse_law("mixed law", raw, base_dir)


def load_mixed_law(path: str) -> MixedDistributiveLaw:
    return parse_mixed_law(_load_json(path),
                           os.path.dirname(os.path.abspath(path)))


def _law_to_raw(law) -> dict:
    return {"S": monad_to_raw(law.S), law.SECOND: _structure_to_raw(law.second),
            law.NAT: dict(sorted(law.nat.components.items()))}


dist_law_to_raw = mixed_law_to_raw = _law_to_raw
