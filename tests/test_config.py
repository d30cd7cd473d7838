"""The config schema: every shipped config loads, README's table lists
SCHEMA's keys and types, and one-key mutations of a shipped config exit 2
naming the key when they break its JSON type, and 0 when they do not."""

import contextlib
import functools
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twotier.cli import main
from twotier.config import SCHEMA, TYPES, load_config

ROOT = Path(__file__).resolve().parent.parent
# the fixtures, the benchmark's configs, and the decode and simulate golden
# configs (a golden report's name holds a second dot)
SHIPPED = sorted([*ROOT.glob("configs/*.json"), *ROOT.glob("perfbench/configs/*.json"),
                  *(path for path in ROOT.glob("tests/golden/*/*.json")
                    if path.name.count(".") == 1)])


def run(argv) -> tuple:
    """The exit code and the stderr of a twotier command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def test_the_shipped_configs_are_the_seventeen_known():
    assert len(SHIPPED) == 17


@pytest.mark.parametrize("path", SHIPPED, ids=lambda path: path.stem)
def test_every_shipped_config_loads(path):
    cfg = load_config(path)
    cfg.build_spec(cfg.build_field())
    cfg.decode_options()
    if "topology" in cfg.raw:
        cfg.topology()
        cfg.error_model()
        cfg.sim_params()


def schema_types() -> dict:
    """section.key -> the phrase of its JSON type, over every code kind."""
    types = {}
    for section, table in SCHEMA.items():
        for keys in table.values() if section == "code" else [table]:
            for key, (what, _) in keys.items():
                types[f"{section}.{key}" if section else key] = what
    return types


def test_readme_lists_the_schema():
    text = (ROOT / "README.md").read_text()
    section = text[text.index("\n## Configuration\n"):]
    section = section[:section.index("\n## ", 1)]
    rows = re.findall(r"^\| `([^`]+)` \| ([^|]+?) \|", section, flags=re.MULTILINE)
    assert len(rows) == len(set(rows))
    assert dict(rows) == schema_types()


@pytest.mark.parametrize("section, key", [("field", "p"), ("code", "alphas"), ("code", "kind"),
                                          ("topology", "edges"), ("", "field"), ("", "code")])
def test_a_present_section_holds_its_required_keys(tmp_path, section, key):
    """Whether or not the command reads the section; every command reads
    field and code."""
    raw = json.loads((ROOT / "configs" / "mv1.json").read_text())
    del (raw[section] if section else raw)[key]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    name = f"{section}.{key}" if section else key
    error = "code.kind must be one of gabidulin, kk, mv, got None" if key == "kind" else \
        f"missing {name}"
    assert run(["verify-lemmas", "--config", str(path)]) == (2, f"config error: {error}\n")


# -- one key at a time --------------------------------------------------------

VALUES = {bool: st.booleans(), int: st.integers(), float: st.floats(allow_nan=False,
                                                                      allow_infinity=False),
          str: st.text(max_size=4), list: st.lists(st.integers(), max_size=3),
          dict: st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
          type(None): st.none()}


# the JSON type each Python type is written as; a bool is not a number
JSON = {bool: "boolean", int: "integer", float: "number", str: "string", list: "array",
        dict: "object", type(None): "null"}


def admits(what, value) -> bool:
    """Whether a SCHEMA type holds the value, read from its Python types alone."""
    return JSON[type(value)] in {JSON[t] for t in TYPES[what]}


def table(raw: dict, section: str) -> dict:
    return SCHEMA["code"][raw["code"]["kind"]] if section == "code" else SCHEMA[section]


@functools.cache
def message(path) -> str:
    """A message of the config's code: all zeros."""
    cfg = load_config(path)
    return "0" * cfg.build_spec(cfg.build_field()).message_length


@st.composite
def mutations(draw):
    """(path, mutated config, what its error starts with, or None when it
    keeps its JSON types)."""
    path = draw(st.sampled_from(SHIPPED))
    raw = json.loads(path.read_text())
    section = draw(st.sampled_from(["", *(s for s in SCHEMA if s in raw)]))
    values = raw[section] if section else raw
    where = f"{section}." if section else ""
    keys = table(raw, section)
    how = draw(st.sampled_from(["wrong type", "unknown key", "well typed"]))
    if how == "unknown key":
        others = {key for kind in SCHEMA["code"].values() for key in kind} - keys.keys() \
            if section == "code" else set()
        key = draw(st.sampled_from(sorted(others)) if others and draw(st.booleans()) else
                   st.from_regex(r"[a-z_]{1,8}", fullmatch=True).filter(
                       lambda k: k not in keys and k not in SCHEMA))
        values[key] = draw(st.integers())
        return path, raw, f"unknown config key {where}{key}\n"
    if how == "wrong type":
        # a section itself, or one of its keys
        if section and draw(st.booleans()):
            raw[section] = draw(st.one_of(VALUES[int], VALUES[str], VALUES[list]))
            return path, raw, f"{section} must be an object, got "
        key = draw(st.sampled_from(sorted(keys)))
        what = keys[key][0]
        values[key] = draw(st.one_of(*VALUES.values()).filter(lambda v: not admits(what, v)))
        return path, raw, f"{where}{key} must be "
    # encode --message reads only field and code: any value of the right
    # JSON type elsewhere leaves the config one it runs
    if section in ("field", "code"):
        values, keys = raw, SCHEMA[""]
    key = draw(st.sampled_from(sorted(keys)))
    values[key] = draw(st.one_of(*(VALUES[t] for t in TYPES[keys[key][0]])))
    return path, raw, None


@settings(max_examples=200, deadline=None)
@given(mutations())
def test_a_mutated_key_is_named_or_runs(tmp_path_factory, mutation):
    """A value of the wrong JSON type or an unknown key, anywhere in a
    shipped config, exits 2 with a message naming the key, never 0 or a
    traceback; a well-typed value where encode does not read exits 0."""
    path, raw, error = mutation
    written = tmp_path_factory.getbasetemp() / "mutated.json"
    written.write_text(json.dumps(raw))
    if error is None:
        assert run(["encode", "--config", str(written), "--message", message(path)]) == (0, "")
    else:
        code, err = run(["verify-lemmas", "--config", str(written)])
        assert (code, err[:len("config error: ") + len(error)]) == (2, "config error: " + error)
