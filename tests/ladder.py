"""The hom-iso ladder: how far the hom-category round trip reaches.

Run from the repository root:

    python tests/ladder.py [RUNG ...]

Each rung runs ``hom_iso_roundtrip`` on the identity monad of one
category in a fresh process: the chains on 4 and 5 objects and the
discrete categories on 3 and 4 objects, all four when no rung is named.
For each it prints the wall time of the round trip, the max RSS of its
process and whether every report entry passes. The exit code is 1 when
some entry fails on some rung, and 2 on an unknown rung. Timings are
printed, never checked. Only the standard library and ``src/finmonad``
are imported.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# rung -> (kind, number of objects)
RUNGS = {"chain4": ("chain", 4), "chain5": ("chain", 5),
         "discrete3": ("discrete", 3), "discrete4": ("discrete", 4)}


def run_rung(name: str) -> dict:
    """Run one rung in this process; its figures."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from finmonad.fincat import validate_category
    from finmonad.fixtures import chain_category
    from finmonad.monad import identity_monad
    from finmonad.twofunctors import hom_iso_roundtrip

    kind, n = RUNGS[name]
    labels = [str(i) for i in range(n)]
    if kind == "chain":
        cat = chain_category(labels)
    else:
        cat = validate_category({"objects": labels, "morphisms": [],
                                 "composition": []})
    monad = identity_monad(cat)
    start = time.perf_counter()
    entries = hom_iso_roundtrip(monad)
    seconds = time.perf_counter() - start
    return {"rung": name, "seconds": round(seconds, 3),
            # ru_maxrss is in KiB on Linux
            "max_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
            "entries": len(entries),
            "failed": [e.check for e in entries if e.status != "pass"]}


def main(argv: list) -> int:
    if argv[:1] == ["--rung"]:
        print(json.dumps(run_rung(argv[1])))
        return 0
    names = argv or list(RUNGS)
    unknown = [n for n in names if n not in RUNGS]
    if unknown:
        print(f"unknown rung(s) {unknown}; choose from {list(RUNGS)}", file=sys.stderr)
        return 2
    ok = True
    print(f"{'rung':<10} {'seconds':>8} {'max RSS MB':>10}  entries")
    for name in names:
        out = subprocess.run([sys.executable, os.path.abspath(__file__), "--rung", name],
                             capture_output=True, text=True, check=True)
        r = json.loads(out.stdout)
        verdict = "all pass" if not r["failed"] else "FAIL " + ", ".join(r["failed"])
        ok = ok and not r["failed"]
        print(f"{name:<10} {r['seconds']:>8.2f} {r['max_rss_mb']:>10.1f}  "
              f"{r['entries']} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
