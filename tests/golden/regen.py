"""Regenerate the golden CLI reports in this directory.

Run from the repository root:

    python tests/golden/regen.py

Every case runs ``finmonad.cli.main`` in-process with ``--format json``
and records its stdout, exit code, stderr (only when there is any) and,
for ``em``, ``coem`` and ``kleisli``, the ``--dump`` file. The files are
the reference for "the same behaviour": ``tests/test_golden.py`` re-runs
every case and compares bytes, and CI regenerates them and fails on any
difference, so a change to a report shows up as a diff of these files.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

CATEGORIES = ["chain2", "chain3", "z2"]
MONADS = {"chain3": ["c1", "c2", "c3", "id_c3"], "chain2": ["id_c2", "top_c2"]}
COMONADS = {"chain3": ["i1", "i2", "i3", "id_comonad_c3"]}
LAWS = ["law_c2_c1"]
# A comonad on the transformation monoid T2 whose delta is not natural and
# breaks coassociativity: pins the kinds, tags and sides of its violations.
BAD_COMONAD = "tests/golden/inputs/coassoc_broken_t2.json"
# Category files with a null morphism id and with numeric composition ids:
# both are refused, not read with their ids turned into strings.
BAD_IDS = ["nonstring_morphism_id", "nonstring_composition_id"]
# Monad and law files with a number or a list where a map holds an id: each
# is refused, not read with the value turned into a string.
BAD_MAPS = [(["em"], "nonstring_functor_image"), (["em"], "list_unit_component"),
            (["distlaw", "check"], "nonstring_law_component")]
# A monad file whose maps and a law file whose phi have keys that name no
# object or morphism: each is refused, not read with the extra keys dropped.
BAD_MAPS += [(["em"], "unknown_keys_monad"), (["distlaw", "check"], "unknown_key_law")]


def fx(name: str) -> str:
    return f"fixtures/{name}.json"


def _cases() -> list:
    """(case name, argv) pairs; argv paths are relative to the repo root."""
    everything = (CATEGORIES + [m for ms in MONADS.values() for m in ms]
                  + [g for gs in COMONADS.values() for g in gs] + LAWS)
    out = [(f"validate-{f}", ["validate", fx(f)]) for f in sorted(everything)]
    for cmd in ("monads", "comonads"):
        out += [(f"{cmd}-{c}", [cmd, fx(c)]) for c in CATEGORIES]
        # the smallest cap that passes on chain3, and one below it
        out += [(f"{cmd}-chain3-cap89", [cmd, fx("chain3"), "--cap", "89"]),
                (f"{cmd}-chain3-cap90", [cmd, fx("chain3"), "--cap", "90"])]
    for base, ms in sorted(MONADS.items()):
        for m in ms:
            out += [(f"em-{m}", ["em", fx(m)]),
                    (f"kleisli-{m}", ["kleisli", fx(m)]),
                    (f"homiso-{m}", ["homiso", fx(m)])]
        for s in ms:
            for t in ms:
                out += [(f"distlaw-enumerate-{s}-{t}",
                         ["distlaw", "enumerate", fx(s), fx(t)]),
                        (f"roundtrip-{s}-{t}", ["roundtrip", fx(s), fx(t)])]
        for g in COMONADS.get(base, []):
            for s in ms:
                out += [(f"mixedlaw-enumerate-{s}-{g}",
                         ["mixedlaw", "enumerate", fx(s), fx(g)]),
                        (f"roundtrip-mixed-{s}-{g}",
                         ["roundtrip-mixed", fx(s), fx(g)])]
    for gs in COMONADS.values():
        out += [(f"coem-{g}", ["coem", fx(g)]) for g in gs]
    out += [("em-c1-cap1", ["em", fx("c1"), "--cap", "1"]),
            ("coem-i1-cap1", ["coem", fx("i1"), "--cap", "1"]),
            ("roundtrip-mixed-c1-i1-cap1",
             ["roundtrip-mixed", fx("c1"), fx("i1"), "--cap", "1"]),
            ("distlaw-enumerate-c2-c1-cap0",
             ["distlaw", "enumerate", fx("c2"), fx("c1"), "--cap", "0"]),
            ("mixedlaw-enumerate-c1-i1-cap0",
             ["mixedlaw", "enumerate", fx("c1"), fx("i1"), "--cap", "0"]),
            ("coem-coassoc-broken", ["coem", BAD_COMONAD]),
            ("mixedlaw-enumerate-c1-coassoc-broken",
             ["mixedlaw", "enumerate", fx("c1"), BAD_COMONAD])]
    out += [(f"validate-{name.replace('_', '-')}",
             ["validate", f"tests/golden/inputs/{name}.json"]) for name in BAD_IDS]
    out += [("-".join(cmd + [name.replace("_", "-")]),
             cmd + [f"tests/golden/inputs/{name}.json"]) for cmd, name in BAD_MAPS]
    for law in LAWS:
        for cmd in ("lift", "extend", "extract-em", "extract-kleisli"):
            out.append((f"{cmd}-{law}", [cmd, fx(law)]))
        out.append((f"distlaw-check-{law}", ["distlaw", "check", fx(law)]))
    out.append(("selftest", ["selftest"]))
    return out


CASES = _cases()
DUMPS = ("em", "coem", "kleisli")


def run_case(argv: list) -> dict:
    """Run one case in-process from the repo root; its outputs as strings."""
    from finmonad.cli import main

    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        dump = os.path.join(tmp, "dump.json")
        full = ["--format", "json"] + list(argv)
        if argv[0] in DUMPS:
            full += ["--dump", dump]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            result["exit"] = main(full)
        result["stdout"] = out.getvalue()
        result["stderr"] = err.getvalue()
        if os.path.exists(dump):
            with open(dump, encoding="utf-8") as fh:
                result["dump"] = fh.read()
    return result


def golden_files(name: str, result: dict) -> dict:
    """File name -> expected content for one case."""
    files = {f"{name}.json": result["stdout"]}
    if result["stderr"]:
        files[f"{name}.stderr"] = result["stderr"]
    if "dump" in result:
        files[f"{name}.dump.json"] = result["dump"]
    return files


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    exits = {}
    keep = {"regen.py", "inputs", "exit_codes.json"}
    for name, argv in CASES:
        result = run_case(argv)
        exits[name] = result["exit"]
        for fname, content in golden_files(name, result).items():
            keep.add(fname)
            with open(os.path.join(HERE, fname), "w", encoding="utf-8",
                      newline="\n") as fh:
                fh.write(content)
    with open(os.path.join(HERE, "exit_codes.json"), "w", encoding="utf-8",
              newline="\n") as fh:
        json.dump(exits, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for fname in os.listdir(HERE):
        if fname not in keep and not fname.startswith("__"):
            os.remove(os.path.join(HERE, fname))
    print(f"{len(CASES)} cases written to {os.path.relpath(HERE, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
