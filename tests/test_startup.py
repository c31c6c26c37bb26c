"""Start-up: ``import finmonad`` loads no submodule, and a CLI command loads
only the modules it runs. Each check runs in a fresh interpreter, since
this test process has already imported everything."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The package's public names, by defining module.
EXPORTS = {
    "adjunction": [
        "Adjunction", "CommutingSquareL", "CommutingSquareR",
        "comparison_functor_em", "comparison_functor_kleisli",
        "identity_adjunction", "induced_comonad", "induced_monad",
        "mate_left", "mate_right"],
    "construct": [
        "EmAlgebraCategory", "EmCoalgebraCategory", "KleisliCategory",
        "em_category", "em_coalgebra_category", "kleisli_category"],
    "distlaw": [
        "DistributiveLaw", "MixedDistributiveLaw", "check_dist_law",
        "check_mixed_law", "enumerate_dist_laws", "enumerate_mixed_laws",
        "untypable_objects"],
    "fincat": [
        "FinCategory", "Functor", "Morphism", "NatTrans", "check_functor",
        "check_naturality", "compose_functors", "enumerate_functors",
        "enumerate_nat_trans", "hcomp", "identity_functor",
        "identity_nat", "opposite", "validate_category", "vcomp",
        "whisker_left", "whisker_right"],
    "monad": [
        "Comonad", "Monad", "check_comonad_laws", "check_monad_laws",
        "enumerate_comonads", "enumerate_monads", "identity_comonad",
        "identity_monad"],
    "twofunctors": [
        "AdjLOneCell", "AdjLTwoCell", "AdjROneCell", "AdjRTwoCell",
        "CoalgebraLifting", "KleisliExtension", "LiftedComonad",
        "LiftedMonad", "MndBulletOneCell", "MndBulletTwoCell", "MndOneCell",
        "MndTwoCell", "MonadObjectInMnd", "check_joint_compatibility",
        "check_mixed_compatibility", "check_monad_object", "colift_monad",
        "enumerate_comonad_liftings", "enumerate_liftings", "extend_monad",
        "extract_dist_law", "extract_from_extension",
        "extract_mixed_from_colifting", "extract_mixed_from_lifting",
        "hom_iso_roundtrip", "lift_comonad", "lift_monad", "phi_e_1cell",
        "phi_e_2cell", "phi_k_1cell", "phi_k_2cell", "psi_e_1cell",
        "psi_e_2cell", "psi_k_1cell", "psi_k_2cell", "vec_phi_e_1cell",
        "vec_phi_e_2cell", "vec_psi_e_1cell", "vec_psi_e_2cell"],
}

# Run a command in process and print the modules it left loaded.
_CLI = """
import contextlib, io, json, sys
from finmonad import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:] + ["--format", "json"])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def fresh(code: str, *argv) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON value."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_finmonad_loads_no_submodule():
    out = fresh("import json, sys, finmonad; "
                "print(json.dumps(sorted(sys.modules)))")
    assert [m for m in out if m.startswith("finmonad.")] == []


def test_exports_are_the_defining_modules_objects():
    out = fresh("""
import importlib, json, finmonad
same = {name: getattr(finmonad, name) is getattr(
            importlib.import_module("finmonad." + module), name)
        for module, names in json.loads(%r).items() for name in names}
print(json.dumps({"all": finmonad.__all__, "same": same}))
""" % json.dumps(EXPORTS))
    names = [name for names in EXPORTS.values() for name in names]
    assert sorted(out["all"]) == sorted(names)
    assert len(out["all"]) == len(set(out["all"]))
    assert out["same"] == dict.fromkeys(names, True)


def test_unknown_name_raises_attribute_error():
    out = fresh("""
import json, finmonad
try:
    finmonad.no_such_name
except AttributeError as exc:
    print(json.dumps(str(exc)))
""")
    assert "no_such_name" in out


def test_validate_loads_only_the_modules_it_runs():
    out = fresh(_CLI, "validate", "fixtures/chain3.json")
    assert out["code"] == 0
    loaded = set(out["modules"])
    for name in ("twofunctors", "selftest", "fixtures", "construct",
                 "adjunction", "distlaw", "monad"):
        assert f"finmonad.{name}" not in loaded
    assert "concurrent.futures" not in loaded


@pytest.mark.parametrize("argv", [
    ["validate", "fixtures/chain3.json"], ["selftest"],
], ids=["validate", "selftest"])
def test_command_imports_neither_dataclasses_nor_inspect(argv):
    """The records are plain slotted classes, so no command pays for the
    stdlib ``dataclasses`` import or the ``inspect`` import it pulls in."""
    out = fresh(_CLI, *argv)
    assert out["code"] == 0
    assert {"dataclasses", "inspect"}.isdisjoint(out["modules"])


@pytest.mark.parametrize("argv, absent", [
    (["monads", "fixtures/chain3.json"], "finmonad.twofunctors"),
    (["lift", "fixtures/law_c2_c1.json"], "finmonad.selftest"),
    (["distlaw", "check", "fixtures/law_c2_c1.json"], "finmonad.twofunctors"),
], ids=["monads", "lift", "distlaw-check"])
def test_command_leaves_unused_modules_unloaded(argv, absent):
    out = fresh(_CLI, *argv)
    assert out["code"] == 0
    assert absent not in out["modules"]


@pytest.mark.parametrize("argv", [
    ["--jobs", "8", "selftest"], ["--jobs", "8", "monads", "fixtures/chain3.json"],
], ids=["selftest", "monads"])
def test_jobs_loads_no_thread_pool(argv):
    """Every search runs serially, so no ``--jobs`` loads the pool module."""
    out = fresh(_CLI, *argv)
    assert out["code"] == 0
    assert "concurrent.futures" not in out["modules"]
