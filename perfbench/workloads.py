"""The benchmark's workloads: fixed op lists with their expected answers.

Every expected answer is written here. Closed forms come first; the rest
are literals that ``test_oracle.py`` re-derives with the raw-table brute
force in :mod:`oracle`, so no oracle search runs while the benchmark
sets up or measures. Nothing here imports ``finmonad``.

The workload seed only permutes an op list; it never changes the list.
"""

from __future__ import annotations

from math import comb

import oracle

WORKLOADS = ("search", "roundtrip", "cli")

# ---------------------------------------------------------------------------
# search: brute-force enumeration on thin categories, one-object groups, a
# monoid that is not a group, and a non-thin product; every call at jobs=1.

SEARCH_CATEGORIES = {
    **{f"chain{n}": (lambda n=n: oracle.chain(n)) for n in range(3, 7)},
    **{f"z{n}": (lambda n=n: oracle.cyclic(n)) for n in range(2, 6)},
    "t2": lambda: oracle.transformation_monoid(2),
    "c2xz2": oracle.chain2_times_z2,
}

# Brute-force counts from the raw tables (checked by test_oracle.py).
_T2 = {"functors": 5, "monads": 2, "comonads": 2}
_C2XZ2 = {"functors": 12, "monads": 8, "comonads": 8}

# (kind, category, expected number of results)
SEARCH_OPS = (
    [("functors", f"chain{n}", comb(2 * n - 1, n)) for n in range(3, 7)]
    + [("functors", f"z{n}", n) for n in range(2, 6)]
    + [("functors", "t2", _T2["functors"]),
       ("functors", "c2xz2", _C2XZ2["functors"])]
    + [("monads", f"chain{n}", 2 ** (n - 1)) for n in range(3, 6)]
    + [("monads", f"z{n}", n) for n in range(2, 6)]
    + [("monads", "t2", _T2["monads"]), ("monads", "c2xz2", _C2XZ2["monads"])]
    + [("comonads", f"chain{n}", 2 ** (n - 1)) for n in range(3, 6)]
    + [("comonads", "t2", _T2["comonads"]),
       ("comonads", "c2xz2", _C2XZ2["comonads"])]
)

# Recorded once per invocation, untimed: the largest ladder rung, which
# exceeds the default enumeration cap when this benchmark was written.
CAP_LADDER = ("t3", lambda: oracle.transformation_monoid(3))

# ---------------------------------------------------------------------------
# roundtrip: the paper's equivalences on the built-in fixture corpus.

# Object maps of the corpus (co)monads on the chain C3 = 0 < 1 < 2.
C3_MONADS = {
    "id": {"0": "0", "1": "1", "2": "2"},
    "c1": {"0": "0", "1": "2", "2": "2"},
    "c2": {"0": "1", "1": "1", "2": "2"},
    "c3": {"0": "2", "1": "2", "2": "2"},
}
C3_COMONADS = {
    "id": {"0": "0", "1": "1", "2": "2"},
    "i1": {"0": "0", "1": "0", "2": "2"},
    "i2": {"0": "0", "1": "1", "2": "1"},
    "i3": {"0": "0", "1": "0", "2": "0"},
}

# Number of laws S T -> T S (= number of liftings of T to S-algebras).
# On a poset a law exists iff S T x <= T S x pointwise, and is then unique.
LAWS = {(s, t): 1 for s in C3_MONADS for t in C3_MONADS}
LAWS[("c1", "c2")] = 0

# Number of mixed laws S G -> G S (= number of comonad liftings).
MIXED_LAWS = {(s, g): 1 for s in C3_MONADS for g in C3_COMONADS}
for _pair in (("c1", "i2"), ("c2", "i1"), ("c2", "i3"), ("c3", "i2"),
              ("c3", "i3")):
    MIXED_LAWS[_pair] = 0

# Algebras of a closure operator are its closed elements.
EM_OBJECTS = {"id": 3, "c1": 2, "c2": 2, "c3": 1}

# (category, monad) -> (Mnd endo-1-cells, Mnd endo-2-cells); the hom-iso
# makes the AdjR side equal.
HOMISO = {
    ("C2", "id"): (3, 6),
    ("C2", "top"): (2, 3),
    ("C3", "id"): (10, 50),
    ("C3", "c1"): (5, 15),
    ("C3", "c2"): (7, 25),
    ("C3", "c3"): (6, 20),
    ("MZ2", "id"): (2, 4),
    ("MZ2", "twist"): (2, 4),
}
HOMISO_ENTRIES = 11

# ---------------------------------------------------------------------------
# cli: one `python -m finmonad.cli ... --format json` subprocess per op.
#
# Each op is (name, argv, expectation). Expectations:
#   {"exit": 0, "total": n, "witness": {check: witness}}  every check
#       passes, the report has n checks and the listed witnesses match;
#   {"exit": 2, "error": kind}  rejected with a report naming the error.
# The `@RUN@` placeholder is the benchmark's scratch directory.

F = "fixtures/"
INPUTS = "perfbench/inputs/"
LAW_PHI = {"0": "f12", "1": "id_2", "2": "id_2"}

CLI_UNITS = [
    [("validate-chain3", ["validate", F + "chain3.json"],
      {"exit": 0, "total": 1,
       "witness": {"validate/category": {"objects": 3, "morphisms": 6}}})],
    [("validate-z2", ["validate", F + "z2.json"],
      {"exit": 0, "total": 1,
       "witness": {"validate/category": {"objects": 1, "morphisms": 2}}})],
    [("monads-chain3", ["monads", F + "chain3.json"],
      {"exit": 0, "total": 1, "count": ("monads/enumerate", 2 ** 2)})],
    [("monads-z2", ["monads", F + "z2.json"],
      {"exit": 0, "total": 1, "count": ("monads/enumerate", 2)})],
    [("comonads-chain3", ["comonads", F + "chain3.json"],
      {"exit": 0, "total": 1, "count": ("comonads/enumerate", 2 ** 2)})],
    [("comonads-z2", ["comonads", F + "z2.json"],
      {"exit": 0, "total": 1, "count": ("comonads/enumerate", 2)})],
    [("kleisli-c1", ["kleisli", F + "c1.json"],
      {"exit": 0, "total": 2,
       "witness": {"kleisli/construction": {"objects": 3, "morphisms": 7}}})],
    # A write, then a read of what was written: always run back to back.
    [("em-c1-dump", ["em", F + "c1.json", "--dump", "@RUN@/em_c1.json"],
      {"exit": 0, "total": 3,
       "witness": {"em/construction": {"algebras": 2, "morphisms": 3}}}),
     ("validate-em-dump", ["validate", "@RUN@/em_c1.json"],
      {"exit": 0, "total": 1,
       "witness": {"validate/category": {"objects": 2, "morphisms": 3}}})],
    [("distlaw-check", ["distlaw", "check", F + "law_c2_c1.json"],
      {"exit": 0, "total": 5})],
    [("distlaw-enumerate", ["distlaw", "enumerate", F + "c2.json", F + "c1.json"],
      {"exit": 0, "total": 1,
       "witness": {"distlaw/enumerate": {"count": 1, "laws": [LAW_PHI]}}})],
    [("lift", ["lift", F + "law_c2_c1.json"], {"exit": 0, "total": 3})],
    [("extend", ["extend", F + "law_c2_c1.json"], {"exit": 0, "total": 3})],
    [("extract-em", ["extract-em", F + "law_c2_c1.json"],
      {"exit": 0, "total": 3,
       "witness": {"extract-em/extracted-law": {"phi": LAW_PHI}}})],
    [("extract-kleisli", ["extract-kleisli", F + "law_c2_c1.json"],
      {"exit": 0, "total": 3,
       "witness": {"extract-kleisli/extracted-law": {"phi": LAW_PHI}}})],
    [("roundtrip-top_c2", ["roundtrip", F + "top_c2.json", F + "top_c2.json"],
      {"exit": 0, "total": 6,
       "witness": {"roundtrip/count-equality": {"laws": 1, "liftings": 1}}})],
    [("roundtrip-c3", ["roundtrip", F + "c3.json", F + "c3.json"],
      {"exit": 0, "total": 6,
       "witness": {"roundtrip/count-equality": {"laws": 1, "liftings": 1}}})],
    [("roundtrip-mixed-c3-i1",
      ["roundtrip-mixed", F + "c3.json", F + "i1.json"],
      {"exit": 0, "total": 3,
       "witness": {"roundtrip-mixed/count-equality":
                   {"laws": MIXED_LAWS[("c3", "i1")], "liftings": 1}}})],
    [("roundtrip-mixed-c2-i1",
      ["roundtrip-mixed", F + "c2.json", F + "i1.json"],
      {"exit": 0, "total": 3,
       "witness": {"roundtrip-mixed/count-equality":
                   {"laws": MIXED_LAWS[("c2", "i1")], "liftings": 0}}})],
    [("homiso-top_c2", ["homiso", F + "top_c2.json"],
      {"exit": 0, "total": HOMISO_ENTRIES,
       "witness": {"homiso/object-count": {"mnd": 2, "adjr": 2},
                   "homiso/two-cell-count": {"mnd": 3, "adjr": 3}}})],
    [("homiso-c3", ["homiso", F + "c3.json"],
      {"exit": 0, "total": HOMISO_ENTRIES,
       "witness": {"homiso/object-count": {"mnd": 6, "adjr": 6},
                   "homiso/two-cell-count": {"mnd": 20, "adjr": 20}}})],
    [("selftest", ["selftest"], {"exit": 0, "total": 175})],
    # Bad input: exit 2 and a report that names the error.
    [("reject-broken-json", ["validate", INPUTS + "broken.json"],
      {"exit": 2, "error": "JSONDecodeError"})],
    [("reject-missing-file", ["validate", INPUTS + "missing.json"],
      {"exit": 2, "error": "FileNotFoundError"})],
    [("reject-non-associative", ["validate", INPUTS + "non_associative.json"],
      {"exit": 2, "error": "NonAssociative"})],
    [("reject-monad-as-category", ["validate", F + "c1.json"],
      {"exit": 2, "error": None})],
    [("reject-toplevel-list", ["validate", INPUTS + "toplevel_list.json"],
      {"exit": 2, "error": None})],
    [("reject-objects-string", ["validate", INPUTS + "objects_string.json"],
      {"exit": 2, "error": None})],
]

# Ops that fail at the commit this benchmark was written against, and why. They are counted as failed
# ops in every pass; a run is still `correct` when these are its only
# failures. A fix makes them pass, which is never an error.
KNOWN_DEFECTS = {
    "reject-toplevel-list":
        "a top-level JSON list raises AttributeError: traceback, exit 1",
    "reject-objects-string":
        '"objects": "ab" is read as the objects a and b: exit 0',
    "reject-monad-as-category":
        "a monad file PASSes validate as the empty category: exit 0",
}
