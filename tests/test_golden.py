"""Golden CLI reports: every case of ``tests/golden/regen.py`` must reproduce
its stored stdout, exit code, stderr and ``--dump`` file byte for byte."""

import importlib.util
import json
import os

import pytest

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

_spec = importlib.util.spec_from_file_location(
    "golden_regen", os.path.join(GOLDEN, "regen.py"))
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

with open(os.path.join(GOLDEN, "exit_codes.json"), encoding="utf-8") as _fh:
    EXIT_CODES = json.load(_fh)


def test_every_case_has_a_stored_exit_code():
    assert sorted(EXIT_CODES) == sorted(name for name, _ in regen.CASES)


@pytest.mark.parametrize("name,argv", regen.CASES,
                         ids=[name for name, _ in regen.CASES])
def test_golden_report(name, argv, monkeypatch):
    monkeypatch.chdir(regen.ROOT)
    result = regen.run_case(argv)
    assert result["exit"] == EXIT_CODES[name]
    files = regen.golden_files(name, result)
    stored = sorted(f for f in os.listdir(GOLDEN)
                    if f.startswith(name + ".") and f[len(name) + 1:] in
                    ("json", "stderr", "dump.json"))
    assert stored == sorted(files)
    for fname, content in files.items():
        with open(os.path.join(GOLDEN, fname), "rb") as fh:
            assert content.encode("utf-8") == fh.read(), fname


def test_selftest_report_holds_when_its_constructions_are_read_back(
        monkeypatch):
    """The selftest corpus lives for the whole process, so a second
    in-process pass reads every algebra, coalgebra and Kleisli construction
    on it back from the first. Its report is the first pass's and the
    golden one, byte for byte."""
    from finmonad.construct import (
        em_category,
        em_coalgebra_category,
        kleisli_category,
    )
    from finmonad.fixtures import corpus

    def constructions(cor) -> list:
        return ([build(m) for _, _, m in cor.all_monads()
                 for build in (em_category, kleisli_category)]
                + [em_coalgebra_category(c) for _, _, c in cor.all_comonads()])

    monkeypatch.chdir(regen.ROOT)
    first = regen.run_case(["selftest"])
    built = constructions(corpus())
    second = regen.run_case(["selftest"])
    assert second == first
    assert second["exit"] == EXIT_CODES["selftest"]
    for fname, content in regen.golden_files("selftest", second).items():
        with open(os.path.join(GOLDEN, fname), "rb") as fh:
            assert content.encode("utf-8") == fh.read(), fname
    assert all(a is b for a, b in zip(constructions(corpus()), built))
