"""Violation records, check entries, and the verification report format.

Report JSON is byte-stable for identical inputs: entries are emitted in
deterministic order, dictionaries are serialized with sorted keys, and the
wall-clock duration is kept out of the JSON payload (text output shows it
instead).
"""

from __future__ import annotations

import json
from operator import attrgetter

SCHEMA_VERSION = "1"

# Registered diagram/law tags. Numeric tags mirror the labels of the source
# diagrams so a report line is traceable to the equation it checks; "law-"
# and "chk-" tags cover structural laws and artifact-level checks.
TAGS = frozenset({
    "Eq-1510071248-i", "Eq-1510071248-ii",
    "Eq-1510071249-i", "Eq-1510071249-ii",
    "Eq-1510081240-i", "Eq-1510081240-ii",
    "Eq-1510081242-i", "Eq-1510081242-ii",
    "Eq-1510081202", "Eq-1510081116", "Eq-1510081654",
    "Eq-1510071407", "Eq-1510131121", "Eq-1510131134", "Eq-1510131206",
    "Thm-1705201918", "Thm-1501131518", "Thm-1705222141", "Thm-1501140312",
    "law-category-structure", "law-category-composition",
    "law-category-unit", "law-category-assoc",
    "law-functor", "law-naturality",
    "law-monad-assoc", "law-monad-unit-left", "law-monad-unit-right",
    "law-comonad-coassoc", "law-comonad-counit-left", "law-comonad-counit-right",
    "law-triangle-left", "law-triangle-right",
    "law-mnd-1cell-mul", "law-mnd-1cell-unit", "law-mnd-2cell",
    "law-mndbullet-1cell-mul", "law-mndbullet-1cell-unit", "law-mndbullet-2cell",
    "law-comnd-1cell-comul", "law-comnd-1cell-counit", "law-comnd-2cell",
    "law-adjr-2cell", "law-adjl-2cell",
    "law-algebra", "law-coalgebra",
    "chk-enumeration", "chk-count-equality", "chk-round-trip",
    "chk-pointwise-criterion", "chk-joint-compatibility",
    "chk-kleisli-counit-identity", "chk-comparison", "chk-determinism",
    "chk-mate", "chk-two-cell-agreement", "chk-construction",
    "chk-validation",
})


class _Frozen:
    """A record whose fields are its class's ``__slots__``, read through
    ``_fields``, a property of their values in order that each subclass
    gets from its ``__slots__``. It is equal to a
    record of the same class with equal fields, hashed, shown, copied and
    pickled by them, and no field can be set or deleted once ``__init__``
    has set them all through ``_init``: what ``dataclass(frozen=True)``
    generates, without importing ``dataclasses`` at start-up."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = property(attrgetter(*cls.__slots__))

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self):
        return hash(self._fields)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._fields))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Violation(_Frozen):
    """One failed axiom instance: what law, where, and the two unequal sides."""

    __slots__ = ("kind", "tag", "where", "lhs", "rhs", "detail")

    def __init__(self, kind: str, tag: str, where: str = "", lhs: str = "",
                 rhs: str = "", detail: str = ""):
        if tag not in TAGS:
            raise ValueError(f"unregistered tag: {tag}")
        self._init(kind, tag, where, lhs, rhs, detail)

    def describe(self) -> str:
        bits = [self.kind]
        if self.where:
            bits.append(f"at {self.where}")
        if self.lhs or self.rhs:
            bits.append(f"{self.lhs} != {self.rhs}")
        if self.detail:
            bits.append(f"({self.detail})")
        return " ".join(bits)

    def as_witness(self) -> dict:
        out = {"kind": self.kind, "where": self.where}
        if self.lhs or self.rhs:
            out["lhs"] = self.lhs
            out["rhs"] = self.rhs
        if self.detail:
            out["detail"] = self.detail
        return out


class CheckEntry(_Frozen):
    """One line of a verification report."""

    __slots__ = ("check", "tag", "status", "witness", "detail")

    def __init__(self, check: str, tag: str, status: str, witness: object = None,
                 detail: str = ""):
        if tag not in TAGS:
            raise ValueError(f"unregistered tag: {tag}")
        if status not in ("pass", "fail"):
            raise ValueError(f"bad status: {status}")
        self._init(check, tag, status, witness, detail)


def entry(check: str, tag: str, ok: bool, witness=None, detail: str = "") -> CheckEntry:
    return CheckEntry(check, tag, "pass" if ok else "fail", witness, detail)


def entry_from_violations(check: str, tag: str, violations, witness=None) -> CheckEntry:
    """Summarize a checker's violation list as a single report entry.

    On failure the witness is the first violation (counterexample object and
    the two unequal morphism ids).
    """
    violations = list(violations)
    if violations:
        return CheckEntry(check, tag, "fail", violations[0].as_witness(),
                          f"{len(violations)} violation(s)")
    return CheckEntry(check, tag, "pass", witness)


class VerificationReport:
    """A command echo plus an ordered list of named check results."""

    def __init__(self, command: str, args=(), seed=None, entries=()):
        self.command = command
        self.args = list(args)
        self.seed = seed
        self.entries = list(entries)

    def add(self, *entries: CheckEntry) -> None:
        self.entries.extend(entries)

    def ok(self) -> bool:
        return all(e.status == "pass" for e in self.entries)

    @property
    def summary(self) -> dict:
        passed = sum(e.status == "pass" for e in self.entries)
        return {
            "total": len(self.entries),
            "passed": passed,
            "failed": len(self.entries) - passed,
        }

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "args": self.args,
            "seed": self.seed,
            "checks": [
                {
                    "check": e.check,
                    "tag": e.tag,
                    "status": e.status,
                    "witness": e.witness,
                    "detail": e.detail,
                }
                for e in self.entries
            ],
            "summary": self.summary,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2,
                          ensure_ascii=False) + "\n"

    def to_text(self, duration=None) -> str:
        head = f"# {self.command}"
        if self.args:
            head += " " + " ".join(self.args)
        lines = [head]
        for e in self.entries:
            mark = "PASS" if e.status == "pass" else "FAIL"
            line = f"[{mark}] {e.check} ({e.tag})"
            if e.witness is not None:
                line += " " + json.dumps(e.witness, sort_keys=True, ensure_ascii=False)
            if e.detail:
                line += f" {e.detail}"
            lines.append(line)
        s = self.summary
        lines.append(f"summary: {s['passed']}/{s['total']} passed")
        if duration is not None:
            lines.append(f"duration: {duration:.3f}s")
        return "\n".join(lines) + "\n"
