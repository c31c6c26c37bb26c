"""Command-line interface.

Exit codes: 0 all checks pass; 1 a law or round-trip check failed (report
emitted); 2 parse/validation/typability error; 3 enumeration cap exceeded.

Global flags: ``--format json|text``, ``--jobs N`` (a positive integer;
accepted; has no effect, as every search runs serially), ``--seed``
(affects sampled checks only, never enumeration order). JSON reports are
byte-stable across runs and ``--jobs`` values; the wall-clock duration
appears only in text output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

# Only what every command needs is imported here; each handler imports the
# modules it runs, so a command loads no module it does not use.
from . import jsonio
from .errors import (
    CategoryValidationError,
    EnumerationCapExceeded,
    FinMonadError,
)
from .fincat import DEFAULT_CAP
from .report import VerificationReport, entry, entry_from_violations


class _ValidationFailure(Exception):
    """Internal: a report that must be emitted with exit code 2."""

    def __init__(self, report):
        self.report = report
        super().__init__("validation failed")


def _report(args, name, positional) -> VerificationReport:
    return VerificationReport(name, [str(p) for p in positional], args.seed, [])


def _cmd_validate(args) -> VerificationReport:
    rep = _report(args, "validate", [args.file])
    try:
        cat = jsonio.load_category(args.file, seed=args.seed)
    except CategoryValidationError as exc:
        for v in exc.violations:
            rep.add(entry(f"validate/{v.kind}", v.tag, False,
                          witness=v.as_witness()))
        raise _ValidationFailure(rep)
    detail = ""
    if cat.assoc_sample is not None:
        checked, triples, seed = cat.assoc_sample
        detail = (f"associativity sampled: {checked} of {triples} "
                  f"composable triples, seed {seed}")
    rep.add(entry("validate/category", "chk-validation", True,
                  witness={"objects": len(cat.objects),
                           "morphisms": len(cat.morphisms)}, detail=detail))
    return rep


def _cmd_structures(args) -> VerificationReport:
    from . import monad

    rep = _report(args, args.command, [args.file])
    cat = jsonio.load_category(args.file, seed=args.seed)
    found = getattr(monad, args.search)(cat, cap=args.cap)
    rep.add(entry(f"{args.command}/enumerate", "chk-enumeration", True,
                  witness={"count": len(found),
                           "object_maps": [dict(sorted(m.endo.object_map.items()))
                                           for m in found]}))
    return rep


def _cmd_em(args) -> VerificationReport:
    from .adjunction import induced_monad
    from .construct import em_category

    rep = _report(args, "em", [args.file])
    m = jsonio.load_monad(args.file, seed=args.seed)
    em = em_category(m, cap=args.cap)
    rep.add(entry("em/construction", "chk-construction", True,
                  witness={"algebras": len(em.category.objects),
                           "morphisms": len(em.category.morphisms)}))
    rep.add(entry("em/induced-monad-recovers-input", "Eq-1510131206",
                  induced_monad(em.adj) == m))
    counit_ok = all(em.underlying(em.adj.counit.at(a)) == em.structure(a)
                    for a in em.category.objects)
    rep.add(entry("em/counit-components-are-structure-maps",
                  "chk-construction", counit_ok))
    if args.dump:
        jsonio.dump_category(em.category, args.dump)
    return rep


def _cmd_coem(args) -> VerificationReport:
    from .adjunction import induced_comonad
    from .construct import em_coalgebra_category

    rep = _report(args, "coem", [args.file])
    c = jsonio.load_comonad(args.file, seed=args.seed)
    co = em_coalgebra_category(c, cap=args.cap)
    rep.add(entry("coem/construction", "chk-construction", True,
                  witness={"coalgebras": len(co.category.objects),
                           "morphisms": len(co.category.morphisms)}))
    rep.add(entry("coem/induced-comonad-recovers-input", "Eq-1510131206",
                  induced_comonad(co.adj) == c))
    if args.dump:
        jsonio.dump_category(co.category, args.dump)
    return rep


def _cmd_kleisli(args) -> VerificationReport:
    from .adjunction import induced_monad
    from .construct import kleisli_category

    rep = _report(args, "kleisli", [args.file])
    m = jsonio.load_monad(args.file, seed=args.seed)
    kl = kleisli_category(m)
    rep.add(entry("kleisli/construction", "chk-construction", True,
                  witness={"objects": len(kl.category.objects),
                           "morphisms": len(kl.category.morphisms)}))
    rep.add(entry("kleisli/induced-monad-recovers-input",
                  "chk-kleisli-counit-identity", induced_monad(kl.adj) == m))
    if args.dump:
        jsonio.dump_category(kl.category, args.dump)
    return rep


def _cmd_law(args) -> VerificationReport:
    from . import distlaw

    load_law, load_second, enumerate_laws, tags, _ = args.law
    if args.law_command == "check":
        rep = _report(args, f"{args.command} check", [args.file])
        by_tag = {}
        for v in load_law(args.file, seed=args.seed).check():
            by_tag.setdefault(v.tag, []).append(v)
        for tag in tags:
            rep.add(entry_from_violations(f"{args.command}/{tag}", tag,
                                          by_tag.get(tag, [])))
        return rep
    rep = _report(args, f"{args.command} enumerate",
                  [args.s_file, args.second_file])
    S = jsonio.load_monad(args.s_file, seed=args.seed)
    second = load_second(args.second_file, seed=args.seed)
    laws = getattr(distlaw, enumerate_laws)(S, second, cap=args.cap)
    rep.add(entry(f"{args.command}/enumerate", "chk-enumeration", True,
                  witness={"count": len(laws),
                           "laws": [dict(sorted(law.nat.components.items()))
                                    for law in laws]}))
    return rep


# Per command that builds from one law: the tag of the law axioms it
# checks, the twofunctors builder and extractor, the (check, tag) of the
# entry for the built value and of the entry comparing the recovered law
# with the input, and the first entry's witness as its key and a map read
# off (built, recovered).
_BUILD_FROM_LAW = {
    "lift": ("Eq-1510071248-i", "lift_monad", "extract_dist_law",
             ("lifted-monad-valid", "Thm-1705201918"),
             ("recovery-equality", "Eq-1510081202"),
             ("functor", lambda lm, _: lm.that.object_map)),
    "extend": ("Eq-1510071249-i", "extend_monad", "extract_from_extension",
               ("extension-valid", "Eq-1510081116"),
               ("recovery-equality", "Thm-1501131518"),
               ("functor", lambda ke, _: ke.stilde.object_map)),
    "extract-em": ("Eq-1510071248-i", "lift_monad", "extract_dist_law",
                   ("extracted-law", "Eq-1510081202"),
                   ("round-trip", "chk-round-trip"),
                   ("phi", lambda _, law: law.phi.components)),
    "extract-kleisli": ("Eq-1510071249-i", "extend_monad",
                        "extract_from_extension",
                        ("extracted-law", "Eq-1510081116"),
                        ("round-trip", "chk-round-trip"),
                        ("phi", lambda _, law: law.phi.components)),
}


def _cmd_build_from_law(args) -> VerificationReport:
    from . import twofunctors

    (axioms_tag, build, extract, (built_check, built_tag),
     (recovered_check, recovered_tag), (key, read)) = _BUILD_FROM_LAW[args.command]
    rep = _report(args, args.command, [args.file])
    dl = jsonio.load_dist_law(args.file, seed=args.seed)
    violations = dl.check()
    rep.add(entry_from_violations(f"{args.command}/law-axioms", axioms_tag,
                                  violations))
    if violations:
        return rep
    built = getattr(twofunctors, build)(dl)
    recovered = getattr(twofunctors, extract)(built)
    rep.add(entry(f"{args.command}/{built_check}", built_tag, True,
                  witness={key: dict(sorted(read(built, recovered).items()))}))
    rep.add(entry(f"{args.command}/{recovered_check}", recovered_tag,
                  recovered == dl))
    return rep


def _cmd_roundtrip(args) -> VerificationReport:
    from .twofunctors import law_round_trips

    rep = _report(args, "roundtrip", [args.s_file, args.t_file])
    S = jsonio.load_monad(args.s_file, seed=args.seed)
    T = jsonio.load_monad(args.t_file, seed=args.seed)
    r = law_round_trips(S, T, cap=args.cap)
    rep.add(entry("roundtrip/count-equality", "Thm-1705201918",
                  r["laws"] == r["liftings"],
                  witness={"laws": r["laws"], "liftings": r["liftings"]}))
    rep.add(entry("roundtrip/extract-after-lift", "chk-round-trip",
                  r["extract_after_lift"], witness={"laws": r["laws"]}))
    rep.add(entry("roundtrip/lift-after-extract", "chk-round-trip",
                  r["lift_after_extract"], witness={"liftings": r["liftings"]}))
    rep.add(entry("roundtrip/extension-roundtrip", "Thm-1501131518",
                  r["extension_roundtrip"]))
    rep.add(entry("roundtrip/joint-compatibility", "chk-joint-compatibility",
                  r["joint_compatibility"]))
    if r["pointwise"] is not None:
        rep.add(entry("roundtrip/pointwise-criterion", "chk-pointwise-criterion",
                      (r["laws"] > 0) == r["pointwise"],
                      witness={"predicted": r["pointwise"]}))
    return rep


def _cmd_roundtrip_mixed(args) -> VerificationReport:
    from .twofunctors import mixed_round_trips

    rep = _report(args, "roundtrip-mixed", [args.s_file, args.g_file])
    S = jsonio.load_monad(args.s_file, seed=args.seed)
    G = jsonio.load_comonad(args.g_file, seed=args.seed)
    r = mixed_round_trips(S, G, cap=args.cap)
    rep.add(entry("roundtrip-mixed/count-equality", "Thm-1705222141",
                  r["laws"] == r["liftings"],
                  witness={"laws": r["laws"], "liftings": r["liftings"]}))
    rep.add(entry("roundtrip-mixed/mixed-roundtrips", "Thm-1501140312",
                  r["mixed_roundtrips"], witness={"laws": r["laws"]}))
    rep.add(entry("roundtrip-mixed/compatibility", "Eq-1510081654",
                  r["compatibility"]))
    return rep


def _cmd_homiso(args) -> VerificationReport:
    from .twofunctors import hom_iso_roundtrip

    rep = _report(args, "homiso", [args.file])
    m = jsonio.load_monad(args.file, seed=args.seed)
    rep.add(*hom_iso_roundtrip(m, cap=args.cap))
    return rep


def _cmd_selftest(args) -> VerificationReport:
    from .selftest import run_selftest

    return run_selftest(seed=args.seed)


def _at_least(least: int, what: str):
    """The type of a flag that takes an integer of ``least`` or more."""
    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < least:
            raise argparse.ArgumentTypeError(
                f"must be a {what} integer, got {text!r}")
        return int(text)
    return parse


def build_parser() -> argparse.ArgumentParser:
    # Global flags are accepted both before and after the subcommand; the
    # SUPPRESS defaults keep a trailing occurrence from clobbering a
    # leading one with the default value.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"),
                        default=argparse.SUPPRESS)
    common.add_argument("--jobs", type=_at_least(1, "positive"),
                        default=argparse.SUPPRESS,
                        help="accepted; has no effect")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for sampled checks (never affects "
                             "enumeration order)")
    capped = argparse.ArgumentParser(add_help=False)
    capped.add_argument("--cap", type=_at_least(0, "non-negative"),
                        default=DEFAULT_CAP,
                        help="most candidates an enumeration may try")

    parser = argparse.ArgumentParser(
        prog="finmonad",
        parents=[common],
        description="Monads, distributive laws, and their liftings over "
                    "finite categories, verified exhaustively.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="validate a category file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    for name, search in (("monads", "enumerate_monads"),
                         ("comonads", "enumerate_comonads")):
        p = sub.add_parser(name, parents=[common, capped],
                           help=f"enumerate {name} on a category")
        p.add_argument("file")
        p.set_defaults(func=_cmd_structures, search=search)

    for name, fn, what, parents in (("em", _cmd_em, "monad", [capped]),
                                    ("coem", _cmd_coem, "comonad", [capped]),
                                    ("kleisli", _cmd_kleisli, "monad", [])):
        p = sub.add_parser(name, parents=[common, *parents],
                           help=f"construct from a {what} file")
        p.add_argument("file")
        p.add_argument("--dump", metavar="OUT.json",
                       help="write the constructed category as JSON")
        p.set_defaults(func=fn)

    # Per law kind: the law loader, the loader of the second structure (T
    # or G), the name of the distlaw enumerator, the checked tags in report
    # order, and the name of the second structure's file.
    for name, what, law in (
            ("distlaw", "distributive laws",
             (jsonio.load_dist_law, jsonio.load_monad, "enumerate_dist_laws",
              ("law-naturality", "Eq-1510071248-i", "Eq-1510071248-ii",
               "Eq-1510071249-i", "Eq-1510071249-ii"), "t_file")),
            ("mixedlaw", "mixed laws",
             (jsonio.load_mixed_law, jsonio.load_comonad, "enumerate_mixed_laws",
              ("law-naturality", "Eq-1510081240-i", "Eq-1510081240-ii",
               "Eq-1510081242-i", "Eq-1510081242-ii"), "g_file"))):
        p = sub.add_parser(name, help=f"check or enumerate {what}")
        lsub = p.add_subparsers(dest="law_command", required=True)
        pc = lsub.add_parser("check", parents=[common])
        pc.add_argument("file")
        pe = lsub.add_parser("enumerate", parents=[common, capped])
        pe.add_argument("s_file")
        pe.add_argument("second_file", metavar=law[-1])
        for q in (pc, pe):
            q.set_defaults(func=_cmd_law, law=law)

    for name in _BUILD_FROM_LAW:
        p = sub.add_parser(name, parents=[common])
        p.add_argument("file", help="distributive law file")
        p.set_defaults(func=_cmd_build_from_law)

    p = sub.add_parser("roundtrip", parents=[common, capped],
                       help="enumerations, round trips, count equality, "
                            "joint compatibility")
    p.add_argument("s_file")
    p.add_argument("t_file")
    p.set_defaults(func=_cmd_roundtrip)

    p = sub.add_parser("roundtrip-mixed", parents=[common, capped])
    p.add_argument("s_file")
    p.add_argument("g_file")
    p.set_defaults(func=_cmd_roundtrip_mixed)

    p = sub.add_parser("homiso", parents=[common, capped],
                       help="verify the hom-category isomorphism")
    p.add_argument("file", help="monad file")
    p.set_defaults(func=_cmd_homiso)

    p = sub.add_parser("selftest", parents=[common],
                       help="run the fixture-corpus acceptance suite")
    p.set_defaults(func=_cmd_selftest)

    return parser


def _emit(report: VerificationReport, fmt: str, duration: float) -> None:
    if fmt == "json":
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.to_text(duration))


_PARSER = None


def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of the process and then reused."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    for name, default in (("format", "text"), ("seed", 0)):
        if not hasattr(args, name):
            setattr(args, name, default)
    started = time.perf_counter()
    try:
        report = args.func(args)
    except _ValidationFailure as exc:
        _emit(exc.report, args.format, time.perf_counter() - started)
        return 2
    except EnumerationCapExceeded as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (FinMonadError, OSError, json.JSONDecodeError,
            UnicodeDecodeError) as exc:
        rep = VerificationReport(args.command, [], args.seed, [
            entry("error", "chk-validation", False,
                  witness={"kind": type(exc).__name__, "message": str(exc)})])
        _emit(rep, args.format, time.perf_counter() - started)
        return 2
    _emit(report, args.format, time.perf_counter() - started)
    return 0 if report.ok() else 1


if __name__ == "__main__":
    sys.exit(main())
