"""Command surface: exit codes, report formats, determinism."""

import json
import os
import subprocess
import sys

import pytest

from finmonad import jsonio
from finmonad.cli import main

FIXTURE_DIR = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "fixtures"))


def fx(name: str) -> str:
    return os.path.join(FIXTURE_DIR, name)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_validate_ok(capsys):
    code, out = run_cli(["validate", fx("chain3.json")], capsys)
    assert code == 0
    assert "[PASS]" in out


def cyclic_monoid_file(tmp_path, n: int) -> str:
    """Z_n as a one-object category: n**3 composable triples."""
    ids = [f"r{i:02d}" for i in range(n)]
    path = tmp_path / f"z{n}.json"
    path.write_text(json.dumps({
        "objects": ["x"],
        "morphisms": [{"id": m, "src": "x", "tgt": "x"} for m in ids],
        "identities": {"x": ids[0]},
        "composition": [{"first": ids[i], "then": ids[j],
                         "equals": ids[(i + j) % n]}
                        for i in range(n) for j in range(n)]}),
        encoding="utf-8")
    return str(path)


def validate_entry(path, capsys, *flags) -> dict:
    code, out = run_cli(["--format", "json", *flags, "validate", path], capsys)
    assert code == 0
    (check,) = json.loads(out)["checks"]
    assert check["check"] == "validate/category"
    return check


def test_validate_says_when_associativity_was_sampled(tmp_path, capsys):
    # 216,000 composable triples, above ASSOC_EXHAUSTIVE_LIMIT
    from finmonad.fincat import ASSOC_EXHAUSTIVE_LIMIT, ASSOC_SAMPLE_SIZE

    assert 60 ** 3 > ASSOC_EXHAUSTIVE_LIMIT
    check = validate_entry(cyclic_monoid_file(tmp_path, 60), capsys,
                           "--seed", "5")
    assert check["detail"] == (
        f"associativity sampled: {ASSOC_SAMPLE_SIZE} of 216000 "
        "composable triples, seed 5")
    code, out = run_cli(["validate", cyclic_monoid_file(tmp_path, 60)], capsys)
    assert code == 0 and "of 216000 composable triples, seed 0" in out


def test_validate_is_silent_when_associativity_was_exhaustive(tmp_path,
                                                              capsys):
    # 58**3 = 195,112 triples, at most ASSOC_EXHAUSTIVE_LIMIT: all checked
    from finmonad.fincat import ASSOC_EXHAUSTIVE_LIMIT

    assert 58 ** 3 <= ASSOC_EXHAUSTIVE_LIMIT
    assert validate_entry(cyclic_monoid_file(tmp_path, 58), capsys)["detail"] == ""
    assert validate_entry(fx("chain3.json"), capsys)["detail"] == ""


def test_validate_broken_category_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({
        "objects": ["0", "1", "2"],
        "morphisms": [
            {"id": "f01", "src": "0", "tgt": "1"},
            {"id": "f12", "src": "1", "tgt": "2"},
            {"id": "f02", "src": "0", "tgt": "2"},
        ],
        "composition": [],
    }), encoding="utf-8")
    code, out = run_cli(["validate", str(path)], capsys)
    assert code == 2
    assert "MissingComposite" in out


def rejected_kinds(path, capsys) -> list:
    """Run ``validate`` on a file that must be refused; the error kinds."""
    code, out = run_cli(["--format", "json", "validate", str(path)], capsys)
    assert code == 2
    return [c["witness"]["kind"] for c in json.loads(out)["checks"]
            if c["status"] == "fail"]


def test_validate_rejects_a_top_level_list(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([{"objects": ["a"], "morphisms": [],
                                 "composition": []}]), encoding="utf-8")
    assert rejected_kinds(path, capsys) == ["NotAnObject"]


def test_validate_rejects_objects_given_as_a_string(tmp_path, capsys):
    path = tmp_path / "string.json"
    path.write_text(json.dumps({"objects": "ab", "morphisms": [],
                                "composition": []}), encoding="utf-8")
    assert rejected_kinds(path, capsys) == ["WrongFieldType"]


def test_validate_rejects_a_monad_file(capsys):
    kinds = rejected_kinds(fx("c1.json"), capsys)
    assert set(kinds) == {"UnknownField", "MissingField"}


def test_unparseable_file_exits_2(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json", encoding="utf-8")
    code, _ = run_cli(["validate", str(path)], capsys)
    assert code == 2


def error_report(args, capsys):
    """Run a command that must reject its input file; the error witness."""
    code, out = run_cli(["--format", "json"] + args, capsys)
    assert code == 2
    [check] = json.loads(out)["checks"]
    return check["witness"]


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_malformed_monad_files_are_named_errors(tmp_path, capsys):
    listed = write(tmp_path, "list.json", [1, 2])
    for cmd in (["em"], ["kleisli"], ["homiso"], ["distlaw", "enumerate"]):
        args = cmd + [listed] * (2 if cmd[-1] == "enumerate" else 1)
        witness = error_report(args, capsys)
        assert witness["kind"] == "FileFormatError"
        assert "NotAnObject" in witness["message"]
    with open(fx("c1.json"), encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["category"] = fx("chain3.json")
    raw["mu"] = [1]
    raw["extra"] = {}
    witness = error_report(["em", write(tmp_path, "mu.json", raw)], capsys)
    assert witness == {"kind": "FileFormatError", "message":
                       "invalid monad file: UnknownField at extra (not a monad "
                       "field); WrongFieldType at mu (must be an object)"}
    # a comonad file is not a monad file
    witness = error_report(["em", fx("i1.json")], capsys)
    assert "MissingField at mu" in witness["message"]


def test_malformed_comonad_files_are_named_errors(tmp_path, capsys):
    witness = error_report(["coem", write(tmp_path, "list.json", [1, 2])],
                           capsys)
    assert witness["kind"] == "FileFormatError"
    raw = {"category": 3, "endofunctor": {}, "delta": {}}
    witness = error_report(["coem", write(tmp_path, "c.json", raw)], capsys)
    assert witness["message"] == (
        "invalid comonad file: WrongFieldType at category (must be a path or "
        "an object); MissingField at epsilon (required field)")


def test_malformed_law_files_are_named_errors(tmp_path, capsys):
    raw = {"category": [1], "endofunctor": 3}
    path = write(tmp_path, "law.json", raw)
    for cmd in (["distlaw", "check"], ["lift"], ["extend"], ["extract-em"],
                ["extract-kleisli"]):
        witness = error_report(cmd + [path], capsys)
        assert witness["kind"] == "FileFormatError"
        assert witness["message"].startswith(
            "invalid law file: UnknownField at category")
        assert "MissingField at phi" in witness["message"]
    # a law whose S is a list
    raw = {"S": "list.json", "T": fx("c1.json"), "phi": {}}
    write(tmp_path, "list.json", [1])
    witness = error_report(["lift", write(tmp_path, "s.json", raw)], capsys)
    assert "invalid monad file: NotAnObject" in witness["message"]


def test_malformed_mixed_law_files_are_named_errors(tmp_path, capsys):
    witness = error_report(
        ["mixedlaw", "check", write(tmp_path, "list.json", [1, 2])], capsys)
    assert witness["message"] == ("invalid mixed law file: NotAnObject at list "
                                  "(a mixed law must be a JSON object)")
    raw = {"S": fx("c1.json"), "T": fx("i1.json"), "psi": {}}
    witness = error_report(["mixedlaw", "check", write(tmp_path, "m.json", raw)],
                           capsys)
    assert witness["message"] == (
        "invalid mixed law file: UnknownField at T (not a mixed law field); "
        "MissingField at G (required field)")


def test_non_utf8_file_exits_2(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{}")
    for cmd in ("validate", "em", "coem"):
        assert error_report([cmd, str(path)], capsys)["kind"] == \
            "UnicodeDecodeError"


def deeply_nested(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    return str(path)


def test_validate_rejects_deeply_nested_json(tmp_path, capsys):
    witness = error_report(["validate", deeply_nested(tmp_path)], capsys)
    assert witness["kind"] == "FileFormatError"
    assert "NestedTooDeeply" in witness["message"]


def test_em_rejects_deeply_nested_json(tmp_path, capsys):
    witness = error_report(["em", deeply_nested(tmp_path)], capsys)
    assert witness["kind"] == "FileFormatError"
    assert "NestedTooDeeply" in witness["message"]


def test_monads_command(capsys):
    code, out = run_cli(["--format", "json", "monads", fx("chain3.json")], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["checks"][0]["witness"]["count"] == 4


def test_em_command_with_dump(tmp_path, capsys):
    out_path = tmp_path / "em.json"
    code, _ = run_cli(["em", fx("c1.json"), "--dump", str(out_path)], capsys)
    assert code == 0
    dumped = jsonio.load_category(str(out_path))
    assert len(dumped.objects) == 2


def test_kleisli_and_coem_commands(capsys):
    code, _ = run_cli(["kleisli", fx("c2.json")], capsys)
    assert code == 0
    code, _ = run_cli(["coem", fx("i1.json")], capsys)
    assert code == 0


def test_distlaw_check_identity_law(tmp_path, capsys):
    raw = jsonio.dist_law_to_raw(_identity_law())
    path = tmp_path / "idlaw.json"
    path.write_text(json.dumps(raw, ensure_ascii=False), encoding="utf-8")
    code, out = run_cli(["distlaw", "check", str(path)], capsys)
    assert code == 0
    assert out.count("[PASS]") == 5


def _identity_law():
    from finmonad.distlaw import dist_law_from_components
    from finmonad.fixtures import c3
    from finmonad.monad import identity_monad

    cat = c3()
    S = identity_monad(cat)
    return dist_law_from_components(
        S, S, {x: cat.identity(x) for x in cat.objects})


def test_distlaw_check_failing_law_exits_1(tmp_path, capsys):
    # phi = s between the identity monads on M(Z2): typable, natural,
    # fails the unit axioms
    from finmonad.fixtures import m_z2
    from finmonad.monad import identity_monad

    cat = m_z2()
    S = identity_monad(cat)
    raw = {"S": jsonio.monad_to_raw(S), "T": jsonio.monad_to_raw(S),
           "phi": {"g": "s"}}
    path = tmp_path / "badlaw.json"
    path.write_text(json.dumps(raw, ensure_ascii=False), encoding="utf-8")
    code, out = run_cli(["distlaw", "check", str(path)], capsys)
    assert code == 1
    assert "[FAIL]" in out


def test_distlaw_check_untypable_exits_2(tmp_path, capsys):
    raw = {"S": jsonio.monad_to_raw(_monad("c1")),
           "T": jsonio.monad_to_raw(_monad("c2")), "phi": {}}
    path = tmp_path / "untypable.json"
    path.write_text(json.dumps(raw, ensure_ascii=False), encoding="utf-8")
    code, out = run_cli(["--format", "json", "distlaw", "check", str(path)],
                        capsys)
    assert code == 2
    assert "UnTypableComponent" in out


def _monad(name):
    from finmonad.fixtures import corpus

    return corpus().monads_c3[name]


def test_distlaw_enumerate_counts(capsys):
    code, out = run_cli(["--format", "json", "distlaw", "enumerate",
                         fx("c2.json"), fx("c1.json")], capsys)
    assert code == 0
    assert json.loads(out)["checks"][0]["witness"]["count"] == 1
    code, out = run_cli(["--format", "json", "distlaw", "enumerate",
                         fx("c1.json"), fx("c2.json")], capsys)
    assert code == 0
    assert json.loads(out)["checks"][0]["witness"]["count"] == 0


def test_mixedlaw_enumerate(capsys):
    code, out = run_cli(["--format", "json", "mixedlaw", "enumerate",
                         fx("c1.json"), fx("i1.json")], capsys)
    assert code == 0
    assert json.loads(out)["checks"][0]["witness"]["count"] == 1


def test_lift_extend_extract_commands(capsys):
    for cmd in ("lift", "extend", "extract-em", "extract-kleisli"):
        code, out = run_cli([cmd, fx("law_c2_c1.json")], capsys)
        assert code == 0, (cmd, out)
        assert "[FAIL]" not in out


def test_roundtrip_command(capsys):
    code, out = run_cli(["roundtrip", fx("c2.json"), fx("c1.json")], capsys)
    assert code == 0
    assert '"laws": 1' in out and '"liftings": 1' in out


def test_roundtrip_lifts_and_extends_each_law_once(capsys, monkeypatch):
    """One law and one lifting: the law is lifted and extended once, and
    the lifting's recovered law is lifted once more. The command's round
    trips call both functions through the globals of twofunctors, so
    patching them there counts the command's calls."""
    from finmonad import twofunctors

    calls = dict.fromkeys(("lift_monad", "extend_monad"), 0)
    for name in calls:
        original = getattr(twofunctors, name)

        def counted(*args, name=name, original=original, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(twofunctors, name, counted)
    code, _ = run_cli(["roundtrip", fx("c2.json"), fx("c1.json")], capsys)
    assert code == 0
    assert calls == {"lift_monad": 2, "extend_monad": 1}


@pytest.mark.parametrize("argv", [
    ["roundtrip", fx("c2.json"), fx("c1.json")],
    ["roundtrip-mixed", fx("c1.json"), fx("i1.json")],
], ids=["roundtrip", "roundtrip-mixed"])
def test_roundtrips_build_the_algebra_category_once(argv, capsys, monkeypatch):
    """One law: the algebra category of S is built once and shared by the
    lifting search and the lifts of the law. The command imports
    em_category from construct when it runs."""
    from finmonad import construct, twofunctors

    calls = []
    original = construct.em_category

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for module in (construct, twofunctors):
        monkeypatch.setattr(module, "em_category", counted)
    code, out = run_cli(argv, capsys)
    assert code == 0 and '"laws": 1' in out
    assert len(calls) == 1


def count_calls(monkeypatch, functions) -> dict:
    """Count the calls of each function, patched in every loaded finmonad
    module that holds it, by name."""
    calls = {}
    for fn in functions:
        calls[fn.__name__] = 0

        def counted(*args, fn=fn, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("finmonad."):
                for key, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, key, counted)
    return calls


def test_selftest_checks_each_law_pair_once(monkeypatch):
    """One pass of the selftest criteria enumerates the laws and the
    liftings of each of the 16 monad pairs on C3 once, and lifts each of
    their 15 laws once and each of their 15 liftings' recovered laws
    once."""
    from finmonad import distlaw, selftest, twofunctors

    calls = count_calls(monkeypatch, [distlaw.enumerate_dist_laws,
                                      twofunctors.enumerate_liftings,
                                      twofunctors.lift_monad])
    selftest.criteria_entries()
    assert calls == {"enumerate_dist_laws": 16, "enumerate_liftings": 16,
                     "lift_monad": 30}


@pytest.mark.parametrize("kwargs, passes", [
    ({}, [1, 2]), ({"jobs": 1}, [1, 2]), ({"jobs": 8}, [1, 2])])
def test_selftest_runs_the_criteria_twice(monkeypatch, capsys, kwargs,
                                          passes):
    """The reported pass is one side of the criterion-9 comparison and a
    second pass in the same process the other, whatever ``--jobs`` says."""
    from finmonad import selftest

    seen = []
    criteria_entries = selftest.criteria_entries

    def counted():
        seen.append(len(seen) + 1)
        return criteria_entries()

    monkeypatch.setattr(selftest, "criteria_entries", counted)
    argv = [arg for key, value in kwargs.items()
            for arg in (f"--{key}", str(value))]
    assert main([*argv, "selftest"]) == 0
    assert seen == passes
    assert "[PASS] criterion-9/worker-count-determinism" in \
        capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["monads", fx("chain3.json")], ["homiso", fx("c1.json")], ["selftest"],
], ids=["monads", "homiso", "selftest"])
def test_jobs_starts_no_thread(argv, monkeypatch, capsys):
    """Every search runs serially at any ``--jobs``: with threads unable to
    start, each command still passes at ``--jobs 8``."""
    import threading

    def refuse(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert main(["--jobs", "8", *argv]) == 0


def test_roundtrip_mixed_command(capsys):
    code, out = run_cli(["roundtrip-mixed", fx("c1.json"), fx("i1.json")],
                        capsys)
    assert code == 0


def test_homiso_command(capsys):
    code, out = run_cli(["homiso", fx("c1.json")], capsys)
    assert code == 0
    assert "[FAIL]" not in out


def test_cap_exceeded_exits_3(capsys):
    code, _ = run_cli(["monads", fx("chain3.json"), "--cap", "2"], capsys)
    assert code == 3


CAPPED_COMMANDS = [
    ["monads", fx("chain3.json")],
    ["comonads", fx("chain3.json")],
    ["em", fx("c1.json")],
    ["coem", fx("i1.json")],
    ["distlaw", "enumerate", fx("c2.json"), fx("c1.json")],
    ["mixedlaw", "enumerate", fx("c1.json"), fx("i1.json")],
    ["roundtrip", fx("c2.json"), fx("c1.json")],
    ["roundtrip-mixed", fx("c1.json"), fx("i1.json")],
    ["homiso", fx("c1.json")],
]


@pytest.mark.parametrize("cap", ["-1", "abc"])
@pytest.mark.parametrize("argv", CAPPED_COMMANDS, ids=[
    "monads", "comonads", "em", "coem", "distlaw-enumerate",
    "mixedlaw-enumerate", "roundtrip", "roundtrip-mixed", "homiso"])
def test_cap_must_be_a_non_negative_integer(argv, cap, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--cap", cap])
    assert exc.value.code == 2
    assert ("argument --cap: must be a non-negative integer, got "
            f"{cap!r}") in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["distlaw", "enumerate", fx("c2.json"), fx("c1.json")],
    ["mixedlaw", "enumerate", fx("c1.json"), fx("i1.json")],
], ids=["distlaw", "mixedlaw"])
def test_law_search_counts_the_candidates_it_tries(argv, capsys):
    """One candidate component per object of C3: the search tries three,
    where the product it replaced counted one."""
    assert main([*argv, "--cap", "2"]) == 3
    assert capsys.readouterr().err == (
        "error: enumeration counted 3 candidates, cap is 2\n")
    assert main([*argv, "--cap", "3"]) == 0


@pytest.mark.parametrize("cap", ["49", "60"])
def test_cap_exceeded_names_the_same_count_at_every_jobs(cap, capsys):
    """One budget counts the whole search at every ``--jobs``, so the
    message names the same count."""
    errs = []
    for jobs in ("1", "2", "8"):
        assert main(["monads", fx("chain3.json"), "--cap", cap,
                     "--jobs", jobs]) == 3
        errs.append(capsys.readouterr().err)
    assert errs == [f"error: enumeration counted {int(cap) + 1} candidates, "
                    f"cap is {cap}\n"] * 3


JOBS_COMMANDS = CAPPED_COMMANDS + [
    ["validate", fx("chain3.json")],
    ["kleisli", fx("c1.json")],
    ["distlaw", "check", fx("law_c2_c1.json")],
    ["mixedlaw", "check", fx("law_c2_c1.json")],
    *([cmd, fx("law_c2_c1.json")]
      for cmd in ("lift", "extend", "extract-em", "extract-kleisli")),
    ["selftest"],
]


@pytest.mark.parametrize("jobs", ["0", "-2", "abc"])
@pytest.mark.parametrize("argv", JOBS_COMMANDS, ids=[
    "-".join(w for w in argv if not w.endswith(".json"))
    for argv in JOBS_COMMANDS])
def test_jobs_must_be_a_positive_integer(argv, jobs, capsys):
    for flags in ([*argv, "--jobs", jobs], ["--jobs", jobs, *argv]):
        with pytest.raises(SystemExit) as exc:
            main(flags)
        assert exc.value.code == 2
        assert ("argument --jobs: must be a positive integer, got "
                f"{jobs!r}") in capsys.readouterr().err


def test_kleisli_takes_no_cap(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["kleisli", fx("c1.json"), "--cap", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap 5" in capsys.readouterr().err


def test_json_reports_are_byte_stable(capsys):
    _, first = run_cli(["--format", "json", "roundtrip",
                        fx("c2.json"), fx("c1.json")], capsys)
    _, second = run_cli(["--format", "json", "roundtrip",
                         fx("c2.json"), fx("c1.json")], capsys)
    assert first == second
    _, jobs8 = run_cli(["--format", "json", "roundtrip",
                        fx("c2.json"), fx("c1.json"), "--jobs", "8"], capsys)
    assert first == jobs8


def test_selftest_byte_identical_across_jobs():
    one = subprocess.run(
        [sys.executable, "-m", "finmonad.cli", "--format", "json",
         "selftest", "--jobs", "1"],
        capture_output=True, text=True)
    eight = subprocess.run(
        [sys.executable, "-m", "finmonad.cli", "--format", "json",
         "selftest", "--jobs", "8"],
        capture_output=True, text=True)
    assert one.returncode == 0 and eight.returncode == 0
    assert one.stdout == eight.stdout


def test_global_flags_accepted_in_both_positions(capsys):
    a, out_a = run_cli(["--format", "json", "validate", fx("chain2.json")],
                       capsys)
    b, out_b = run_cli(["validate", fx("chain2.json"), "--format", "json"],
                       capsys)
    assert a == b == 0
    assert out_a == out_b


def test_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    from finmonad import cli

    built = []
    build = cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    code, out = run_cli(["--format", "json", "validate", fx("chain2.json")],
                        capsys)
    assert code == 0 and json.loads(out)["command"] == "validate"
    bad = tmp_path / "list.json"
    bad.write_text("[1]", encoding="utf-8")
    code, out = run_cli(["em", str(bad)], capsys)
    # the second call sees none of the first call's flags
    assert code == 2 and "[FAIL]" in out
    assert len(built) == 1
