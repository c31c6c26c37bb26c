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
