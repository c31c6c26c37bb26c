"""Input fuzzing: every command that loads a file answers any JSON with an
exit code of 0-3 and a report, never an exception. Two kinds of input are
tried: arbitrary JSON, and a fixture with one field, at any depth,
replaced by arbitrary JSON or deleted. Each command runs in process."""

import contextlib
import io
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from finmonad import cli, jsonio
from finmonad.distlaw import enumerate_mixed_laws

FIXTURES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "fixtures")


def fixture(name: str) -> dict:
    """A fixture file's JSON, with the files it names made absolute."""
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        raw = json.load(fh)
    return {k: os.path.join(FIXTURES, v) if isinstance(v, str) else v
            for k, v in raw.items()}


def mixed_law() -> dict:
    S = jsonio.load_monad(os.path.join(FIXTURES, "c1.json"))
    G = jsonio.load_comonad(os.path.join(FIXTURES, "i1.json"))
    law, = enumerate_mixed_laws(S, G)
    return {"S": os.path.join(FIXTURES, "c1.json"),
            "G": os.path.join(FIXTURES, "i1.json"),
            "psi": dict(sorted(law.psi.components.items()))}


# Per command: the arguments before the file, and the valid input that
# the mutations start from.
COMMANDS = {
    "validate": (["validate"], fixture("chain3.json")),
    "em": (["em"], fixture("c1.json")),
    "coem": (["coem"], fixture("i1.json")),
    "kleisli": (["kleisli"], fixture("c2.json")),
    "monads": (["monads"], fixture("chain2.json")),
    "distlaw-check": (["distlaw", "check"], fixture("law_c2_c1.json")),
    "mixedlaw-check": (["mixedlaw", "check"], mixed_law()),
    "lift": (["lift"], fixture("law_c2_c1.json")),
    "homiso": (["homiso"], fixture("id_c2.json")),
}
FIELDS = sorted({key for _, raw in COMMANDS.values() for key in raw}
                | {"objects", "morphisms", "identities", "composition", "id",
                   "src", "tgt", "first", "then", "equals"})

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=6),
                                     inner, max_size=5)),
    max_leaves=16)


def paths(value, prefix=()):
    """The path of every dict field and list item inside ``value``."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    out = []
    for key, inner in items:
        out.append(prefix + (key,))
        out.extend(paths(inner, prefix + (key,)))
    return out


def mutated(raw, path, replacement, delete: bool):
    """A deep copy of ``raw`` with the field at ``path`` replaced or deleted."""
    raw = json.loads(json.dumps(raw))
    *parents, last = path
    holder = raw
    for key in parents:
        holder = holder[key]
    if delete:
        del holder[last]
    else:
        holder[last] = replacement
    return raw


@st.composite
def mutants(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    raw = COMMANDS[command][1]
    path = draw(st.sampled_from(paths(raw)))
    return command, mutated(raw, path, draw(JSON), draw(st.booleans()))


def exit_code(tmp_path, command: str, raw) -> int:
    path = tmp_path / "input.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(COMMANDS[command][0] + [str(path), "--format", "json"])
    if code != 3:  # a cap verdict writes to stderr only
        json.loads(out.getvalue())
    return code


def fuzz(examples: int):
    return settings(max_examples=examples, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_the_unmutated_inputs_pass(tmp_path, command):
    assert exit_code(tmp_path, command, COMMANDS[command][1]) == 0


# Arbitrary JSON almost never gets past the shape checks of the loaders,
# so it gets fewer examples than the mutants of valid inputs.
@fuzz(100)
@given(command=st.sampled_from(sorted(COMMANDS)), raw=JSON)
def test_arbitrary_json_gets_an_exit_code(tmp_path, command, raw):
    assert exit_code(tmp_path, command, raw) in {0, 1, 2, 3}


@fuzz(200)
@given(mutant=mutants())
def test_a_fixture_with_one_field_changed_gets_an_exit_code(tmp_path, mutant):
    command, raw = mutant
    assert exit_code(tmp_path, command, raw) in {0, 1, 2, 3}
