import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from twotier.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN_DECODE = Path(__file__).resolve().parent / "golden" / "decode"
SRC = Path(__file__).resolve().parent.parent / "src"


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def kk_config():
    return json.loads((CONFIGS / "kk_example.json").read_text())


# ---------------------------------------------------------------- verify-lemmas

def test_verify_lemmas_kk_fixture(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify-lemmas", "--config", str(CONFIGS / "kk_example.json"),
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["all_passed"]
    assert report["union"]["cardinality"] == 25
    assert report["union"]["min_distance"] == 1
    assert {c["lemma"] for c in report["checks"]} == {"L4", "L5", "L6"}


def test_verify_lemmas_mv1_fixture(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify-lemmas", "--config", str(CONFIGS / "mv1.json"),
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["union"]["min_distance"] == 3


def test_verify_lemmas_gabidulin_fixture(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify-lemmas", "--config", str(CONFIGS / "gabidulin_gf8.json"),
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert {c["lemma"] for c in report["checks"]} == {"L1", "L2", "L3"}


def test_verify_lemmas_csv(capsys):
    assert main(["verify-lemmas", "--config", str(CONFIGS / "kk_example.json"),
                 "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "lemma,claimed,measured,passed,normative"


def test_corrupted_alpha_set_is_config_error(tmp_path, capsys):
    cfg = kk_config()
    cfg["code"]["alphas"] = ["g^3", "g^3"]  # dependent rows
    code = main(["verify-lemmas", "--config", write_config(tmp_path, cfg)])
    assert code == 2
    assert "dependent" in capsys.readouterr().err


def test_zero_primitive_element_modulus_is_config_error(tmp_path, capsys):
    # over GF(3) the modulus x makes gamma = 0, which has no order
    cfg = kk_config()
    cfg["field"] = {"p": 3, "n": 1, "modulus": [0, 1]}
    assert main(["verify-lemmas", "--config", write_config(tmp_path, cfg)]) == 2
    assert "not primitive" in capsys.readouterr().err


def test_budget_exceeded_exit_code(tmp_path, capsys):
    cfg = kk_config()
    cfg["budgets"] = {"union": 4}
    assert main(["verify-lemmas", "--config", write_config(tmp_path, cfg)]) == 3


@pytest.mark.parametrize("key, value, message", [
    ("union", 1000.7, "budgets.union must be an integer, got 1000.7"),
    ("union", 0, "budgets.union must be at least 1, got 0"),
    ("codebook", "12", "budgets.codebook must be an integer, got '12'"),
    ("codebook", True, "budgets.codebook must be an integer, got True"),
    ("codebook", -3, "budgets.codebook must be at least 1, got -3")])
def test_budgets_must_be_positive_json_integers(tmp_path, capsys, key, value, message):
    """``"union": 1000.7`` and ``"codebook": "12"`` were cast and ran, and
    ``"codebook": true`` read as 1 and failed as a budget overrun (exit 3);
    each is now a configuration error naming the key."""
    cfg = kk_config()
    cfg["budgets"] = {key: value}
    assert main(["verify-lemmas", "--config", write_config(tmp_path, cfg)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value, message", [
    ("field", "p", "2", "field.p must be an integer, got '2'"),
    ("field", "n", 3.0, "field.n must be an integer, got 3.0"),
    ("code", "k", True, "code.k must be an integer, got True"),
    ("code", "L", "2", "code.L must be an integer, got '2'"),
    ("sim", "trails", 5, "unknown config key sim.trails"),
    (None, "name", 5, "name must be a string, got 5"),
    (None, "field", [2, 3], "field must be an object, got [2, 3]"),
    ("tier1", "mode", ["correct"], "tier1.mode must be a string, got ['correct']"),
    # a key of another kind's code
    ("code", "generators", ["g^1"], "unknown config key code.generators"),
    ("code", "kind", "rs", "code.kind must be one of gabidulin, kk, mv, got 'rs'"),
    # the topology is checked by every command, though only simulate reads it
    ("topology", "edges", None, "topology.edges must be a list, got None"),
    ("errors", "fixed_flips", "1", "errors.fixed_flips must be an integer or null, got '1'")])
def test_every_key_of_a_config_has_one_json_type(tmp_path, capsys, section, key, value, message):
    """Each of these was cast, or ignored, and exited 0."""
    cfg = json.loads((CONFIGS / "mv1.json").read_text())
    (cfg if section is None else cfg[section])[key] = value
    assert main(["verify-lemmas", "--config", write_config(tmp_path, cfg)]) == 2
    assert f"config error: {message}\n" in capsys.readouterr().err


def test_a_section_is_checked_for_semantics_only_where_it_is_read(tmp_path, capsys):
    """One verdict per config covers keys and JSON types; a topology with a
    cycle is refused by the command that runs it, not by verify-lemmas."""
    cfg = json.loads((CONFIGS / "mv1.json").read_text())
    cfg["topology"]["edges"] += [["a", "b"], ["b", "a"]]
    path = write_config(tmp_path, cfg)
    assert main(["verify-lemmas", "--config", path, "--out", str(tmp_path / "out.json")]) == 0
    assert main(["simulate", "--config", path]) == 2
    assert "topology: topology contains a cycle" in capsys.readouterr().err


@pytest.mark.parametrize("config, key, entry, message", [
    ("kk_example", "alphas", "٠١١", "cannot parse field element '٠١١' for GF(2^3)"),
    ("kk_example", "alphas", "g^+4", "cannot parse field element 'g^+4' for GF(2^3)"),
    ("kk_example", "alphas", [0, 1, 1.0],
     "field element coefficients must be integers, got [0, 1, 1.0]"),
    ("gabidulin_gf8", "generators", [False, True, True],
     "field element coefficients must be integers, got [False, True, True]"),
    ("gabidulin_gf8", "generators", "g^0_4", "cannot parse field element 'g^0_4' for GF(2^3)"),
    ("gabidulin_gf8", "generators", 111, "cannot parse field element 111 for GF(2^3)")])
def test_field_element_entries_are_ascii_digits_or_json_integers(tmp_path, capsys, config, key,
                                                                  entry, message):
    """Each entry once stood for the element it resembles (the first five
    for g^4, in place of the config's "g^4", and the number 111 for "111"),
    and verify-lemmas exited 0 with every check passed; it is now a
    configuration error naming the key and the entry's place."""
    cfg = json.loads((CONFIGS / f"{config}.json").read_text())
    cfg["code"][key][1] = entry
    assert main(["verify-lemmas", "--config", write_config(tmp_path, cfg)]) == 2
    assert f"config error: code.{key}[1]: {message}\n" in capsys.readouterr().err


@pytest.mark.parametrize("modulus", [[1, 1.5, 0, 1], ["1", "1", "0", "1"]])
def test_modulus_coefficients_are_json_integers(tmp_path, capsys, modulus):
    """Both once built x^3+x+1."""
    cfg = kk_config()
    cfg["field"]["modulus"] = modulus
    assert main(["verify-lemmas", "--config", write_config(tmp_path, cfg)]) == 2
    assert f"config error: field: modulus coefficients must be integers, got {modulus!r}" in \
        capsys.readouterr().err


def test_missing_config_file(capsys):
    assert main(["verify-lemmas", "--config", "/nonexistent.json"]) == 2


def test_malformed_json_config(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["verify-lemmas", "--config", str(path)]) == 2


# ---------------------------------------------------------------- encode/decode

def test_encode_decode_roundtrip(tmp_path):
    enc_out = tmp_path / "encoded.json"
    assert main(["encode", "--config", str(CONFIGS / "mv1.json"),
                 "--message", "1", "--out", str(enc_out)]) == 0
    encoded = json.loads(enc_out.read_text())
    assert encoded["rows"] == ["111111111"]

    packets = tmp_path / "packets.txt"
    packets.write_text("\n".join(encoded["rows"]) + "\n")
    dec_out = tmp_path / "decoded.json"
    assert main(["decode", "--config", str(CONFIGS / "mv1.json"),
                 "--packets", str(packets), "--out", str(dec_out)]) == 0
    decoded = json.loads(dec_out.read_text())
    assert decoded["chosen_message"] == "1"
    assert decoded["metric_value"] == 0
    assert decoded["verdicts"][0]["outcome"] == "valid"


def test_encode_csv_format(capsys):
    assert main(["encode", "--config", str(CONFIGS / "kk_example.json"),
                 "--message", "010", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "message,row,packet"
    assert len(lines) == 3  # two basis rows


def test_encode_without_message_uses_config_default(capsys):
    assert main(["encode", "--config", str(CONFIGS / "kk_example.json")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["message"] == "100"


def test_encode_config_message_is_not_a_json_number(tmp_path, capsys):
    """``"message": 100`` was read as the digit string "100"."""
    cfg = kk_config()
    cfg["message"] = 100
    assert main(["encode", "--config", write_config(tmp_path, cfg)]) == 2
    assert "message must be a digit string or a list of integers, got 100" in \
        capsys.readouterr().err


@pytest.mark.parametrize("message", [[1.5, 0, 0], [True, 0, 0], ["1", 0, 0], [0, 0, None]])
def test_encode_config_message_list_holds_json_integers(tmp_path, capsys, message):
    """``"message": [1.5, 0, 0]`` and ``[true, 0, 0]`` were cast and
    encoded message "100"; a list of anything but JSON integers is now a
    configuration error naming the message."""
    cfg = kk_config()
    cfg["message"] = message
    assert main(["encode", "--config", write_config(tmp_path, cfg)]) == 2
    assert f"message must list integers, got {message!r}" in capsys.readouterr().err


def test_encode_config_message_list_of_integers(tmp_path, capsys):
    cfg = kk_config()
    cfg["message"] = [0, 1, 0]
    assert main(["encode", "--config", write_config(tmp_path, cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["message"] == "010"


def test_encode_wrong_length_message(capsys):
    assert main(["encode", "--config", str(CONFIGS / "kk_example.json"),
                 "--message", "10"]) == 2


def test_encode_empty_message_is_config_error(capsys):
    """An empty --message is a bad message, not a missing one: it must not
    fall back to the config's message."""
    assert main(["encode", "--config", str(CONFIGS / "kk_example.json"),
                 "--message", ""]) == 2
    assert "cannot parse digit string ''" in capsys.readouterr().err


def test_encode_message_digits_are_ascii_decimal_digits(capsys):
    """Arabic-Indic digits pass str.isdigit and int() and once encoded
    message "100"."""
    assert main(["encode", "--config", str(CONFIGS / "kk_example.json"),
                 "--message", "\u0661\u0660\u0660"]) == 2
    assert "cannot parse digit string" in capsys.readouterr().err


def test_decode_corrupted_packet(tmp_path):
    packets = tmp_path / "packets.txt"
    packets.write_text("011111111\n")  # one flip of the C_1 generator
    dec_out = tmp_path / "decoded.json"
    assert main(["decode", "--config", str(CONFIGS / "mv1.json"),
                 "--packets", str(packets), "--out", str(dec_out)]) == 0
    decoded = json.loads(dec_out.read_text())
    assert decoded["verdicts"][0]["outcome"] == "corrected"
    assert decoded["chosen_message"] == "1"


def test_decode_empty_packet_file(tmp_path, capsys):
    packets = tmp_path / "empty.txt"
    packets.write_text("\n\n")
    assert main(["decode", "--config", str(CONFIGS / "mv1.json"),
                 "--packets", str(packets)]) == 2
    assert "no packets" in capsys.readouterr().err


def test_decode_wrong_packet_length(tmp_path):
    packets = tmp_path / "packets.txt"
    packets.write_text("101\n")
    assert main(["decode", "--config", str(CONFIGS / "mv1.json"),
                 "--packets", str(packets)]) == 2


def test_decode_digit_outside_base_field(tmp_path, capsys):
    packets = tmp_path / "packets.txt"
    packets.write_text("100100\n900100\n")  # 9 is not a GF(2) digit
    assert main(["decode", "--config", str(CONFIGS / "kk_example.json"),
                 "--packets", str(packets)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "900100" in err and "[0, 2)" in err


@pytest.mark.parametrize("section, key", [("tier1", "radius"), ("tier2", "list_radius")])
def test_negative_radius_is_config_error(tmp_path, capsys, section, key):
    # clean packets never reach the tier-1 correction or a tier-2 list, so
    # only a check at construction rejects the radius
    cfg = json.loads((CONFIGS / "mv1.json").read_text())
    cfg.setdefault(section, {})[key] = -1
    assert main(["decode", "--config", write_config(tmp_path, cfg),
                 "--packets", str(GOLDEN_DECODE / "mv1.clean.txt")]) == 2
    assert "must be nonnegative" in capsys.readouterr().err


def test_feedback_without_tier1_is_config_error(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "mv1.json").read_text())
    cfg["tier1"]["enabled"] = False
    cfg["tier2"]["list_radius"] = 1
    cfg["feedback"] = True
    assert main(["decode", "--config", write_config(tmp_path, cfg),
                 "--packets", str(GOLDEN_DECODE / "mv1.clean.txt")]) == 2
    assert "feedback requires tier 1" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    (None, "feedback", "no"), (None, "feedback", 1), (None, "feedback", None),
    ("tier1", "enabled", "false"), ("tier1", "enabled", 0),
    ("tier1", "allow_radius_override", "true"), ("tier1", "allow_radius_override", None)])
def test_decode_flags_must_be_json_booleans(tmp_path, capsys, section, key, value):
    """``"feedback": "no"`` once turned feedback on (bool("no") is True)."""
    cfg = json.loads((CONFIGS / "mv1.json").read_text())
    (cfg if section is None else cfg.setdefault(section, {}))[key] = value
    assert main(["decode", "--config", write_config(tmp_path, cfg),
                 "--packets", str(GOLDEN_DECODE / "mv1.clean.txt")]) == 2
    name = key if section is None else f"{section}.{key}"
    assert f"{name} must be true or false, got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("section, key", [("tier1", "radius"), ("tier2", "list_radius")])
@pytest.mark.parametrize("value", [1.5, 1.0, "1", True, False, [1]])
def test_decode_radii_must_be_json_integers(tmp_path, capsys, section, key, value):
    """``"list_radius": 1.5`` once became 1; a bool is not a radius."""
    cfg = json.loads((CONFIGS / "mv1.json").read_text())
    cfg.setdefault(section, {})[key] = value
    assert main(["decode", "--config", write_config(tmp_path, cfg),
                 "--packets", str(GOLDEN_DECODE / "mv1.clean.txt")]) == 2
    assert f"{section}.{key} must be an integer or null, got {value!r}" in \
        capsys.readouterr().err


def test_decode_options_take_json_booleans_integers_and_null(tmp_path):
    cfg = json.loads((CONFIGS / "mv1.json").read_text())
    cfg["tier1"].update(enabled=True, allow_radius_override=False, radius=1)
    cfg["tier2"]["list_radius"] = None
    cfg["feedback"] = False
    assert main(["decode", "--config", write_config(tmp_path, cfg),
                 "--packets", str(GOLDEN_DECODE / "mv1.clean.txt"),
                 "--out", str(tmp_path / "report.json")]) == 0


def test_decode_has_no_format_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decode", "--config", str(CONFIGS / "mv1.json"),
              "--packets", str(GOLDEN_DECODE / "mv1.clean.txt"), "--format", "csv"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_encode_all_exports_codebook(capsys):
    assert main(["encode", "--config", str(CONFIGS / "kk_example.json"), "--all"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "message,row,packet"
    assert len(lines) == 1 + 8 * 2  # eight codewords, two rows each


def test_verify_lemmas_dump_union(tmp_path):
    dump = tmp_path / "union.csv"
    assert main(["verify-lemmas", "--config", str(CONFIGS / "mv1.json"),
                 "--out", str(tmp_path / "r.json"), "--dump-union", str(dump)]) == 0
    lines = dump.read_text().splitlines()
    assert lines[0] == "vector,components"
    assert len(lines) == 4  # three union vectors
    assert lines[1] == "000000000,0;1"  # zero vector belongs to both components


# ---------------------------------------------------------------- simulate

def sim_config(tmp_path, trials=40):
    cfg = json.loads((CONFIGS / "mv1.json").read_text())
    cfg["sim"]["trials"] = trials
    return write_config(tmp_path, cfg)


def test_simulate_byte_identical_reruns(tmp_path):
    cfg = sim_config(tmp_path)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_seed_override_changes_report(tmp_path):
    cfg = sim_config(tmp_path)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--seed", "999", "--out", str(out2)]) == 0
    a, b = json.loads(out1.read_text()), json.loads(out2.read_text())
    assert a["seeds"]["base"] != b["seeds"]["base"]


def test_simulate_csv(tmp_path, capsys):
    cfg = sim_config(tmp_path, trials=10)
    assert main(["simulate", "--config", cfg, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("strategy,trials,successes")
    assert len(lines) == 4  # three strategies


def test_unknown_node_filter_mode_is_rejected_before_any_trial(tmp_path, capsys):
    # no strategy here filters at nodes, so only a check before the trials
    # sees the mode
    cfg = json.loads((CONFIGS / "mv1.json").read_text())
    cfg["sim"].update(node_filter_mode="bogus", strategies=["tier2-only", "two-tier"])
    assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
    assert "unknown tier-1 mode 'bogus'" in capsys.readouterr().err


def test_node_filter_mode_outside_the_tier1_modes_names_its_key(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "mv1.json").read_text())
    cfg["sim"]["node_filter_mode"] = "correct-and-erase"
    assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "sim.node_filter_mode: unknown tier-1 mode 'correct-and-erase'" in err
    assert "detect-only, correct, correct-or-erase" in err


def test_node_names_with_an_arrow_are_config_errors(tmp_path, capsys):
    """Edge (a->b, t) and edge (a, b->t) would both be named "a->b->t" and
    share every draw."""
    cfg = json.loads((CONFIGS / "mv1.json").read_text())
    cfg["topology"] = {"nodes": {"s": "source", "a": "intermediate", "a->b": "intermediate",
                                 "b->t": "intermediate", "t": "sink"},
                       "edges": [["s", "a"], ["s", "a->b"], ["a", "b->t"], ["a->b", "t"],
                                 ["b->t", "t"]]}
    assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
    assert "node names must not contain '->', got ['a->b', 'b->t']" in capsys.readouterr().err


def test_simulate_rejects_an_empty_or_string_strategy_list(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "mv1.json").read_text())
    cfg["sim"]["strategies"] = []
    assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
    assert "no strategies to run" in capsys.readouterr().err
    # a single name is not a list of one
    cfg["sim"]["strategies"] = "two-tier"
    assert main(["simulate", "--config", write_config(tmp_path, cfg, "string.json")]) == 2
    err = capsys.readouterr().err
    assert "strategies must be a list" in err and "'two-tier'" in err


def test_unhashable_or_mixed_strategy_names_are_config_errors(tmp_path, capsys):
    """A list or a number among the strategy names once raised a TypeError
    from forming or sorting the set of unknown names."""
    cfg = json.loads((CONFIGS / "mv1.json").read_text())
    cfg["sim"]["strategies"] = ["two-tier", ["two-tier"], 5, "x"]
    assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
    assert "unknown strategies [['two-tier'], 5, 'x']" in capsys.readouterr().err


@pytest.mark.parametrize("edge", [["s", "a", "zzz"], "sa", ["s"], ["s", 5], {"s": "a"}])
def test_an_edge_is_a_pair_of_node_names(tmp_path, capsys, edge):
    """``["s", "a", "zzz"]`` once lost its third name and ``"sa"`` became
    the edge (s, a)."""
    cfg = json.loads((CONFIGS / "mv1.json").read_text())
    cfg["topology"]["edges"][0] = edge
    assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
    assert f"topology.edges must list [from, to] pairs of node names, got {edge!r}" in \
        capsys.readouterr().err


def test_simulate_requires_topology(tmp_path, capsys):
    cfg = kk_config()
    cfg["sim"] = {"trials": 5}
    assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2


def test_fixed_flips_beyond_the_packet_length_is_rejected_before_any_draw(tmp_path, capsys):
    # at this probability no draw of the seeded run corrupts a packet, so only
    # a check before the draws sees that 100 flips cannot fit 9 digits
    cfg = json.loads((CONFIGS / "mv1.json").read_text())
    cfg["errors"] = {"corrupt_packet_prob": 0.0001, "fixed_flips": 100}
    assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
    assert "fixed_flips exceeds the packet length" in capsys.readouterr().err
    # flipping every digit of the packet still runs
    cfg["errors"] = {"corrupt_packet_prob": 1.0, "fixed_flips": 9}
    cfg["sim"]["trials"] = 20
    assert main(["simulate", "--config", write_config(tmp_path, cfg, "fit.json"),
                 "--out", str(tmp_path / "fit.report.json")]) == 0


@pytest.mark.parametrize("section, key, value, what", [
    ("sim", "trials", 10.5, "an integer"), ("sim", "trials", True, "an integer"),
    ("sim", "trials", "10", "an integer"),
    (None, "seed", 1.5, "an integer"), (None, "seed", True, "an integer"),
    (None, "seed", "7", "an integer"), (None, "seed", None, "an integer"),
    ("sim", "retry_full_rank", "false", "true or false"),
    ("sim", "retry_full_rank", 0, "true or false"),
    ("errors", "fixed_flips", 1.5, "an integer or null"),
    ("errors", "fixed_flips", "1", "an integer or null"),
    ("errors", "fixed_flips", True, "an integer or null"),
    ("errors", "injected_packets", 1.5, "an integer"),
    ("errors", "injected_packets", "1", "an integer"),
    ("errors", "injected_packets", False, "an integer"),
    ("errors", "bit_flip_prob", "0.1", "a number"), ("errors", "bit_flip_prob", True, "a number"),
    ("errors", "corrupt_packet_prob", "0.5", "a number"),
    ("errors", "corrupt_packet_prob", None, "a number"),
    ("errors", "injection_node", ["a"], "a node name or null"),
    ("errors", "injection_node", 5, "a node name or null"),
    ("sim", "node_filter_mode", ["x"], "a string"),
    ("sim", "node_filter_mode", None, "a string")])
def test_simulate_values_must_have_their_json_types(tmp_path, capsys, section, key, value, what):
    """``"trials": 10.5`` once ran 10 trials, ``"seed": 1.5`` seed 1,
    ``"retry_full_rank": "false"`` turned retries on, ``"fixed_flips":
    "1"`` or ``"corrupt_packet_prob": "0.5"`` were cast, and a list as the
    injection node raised a TypeError; each is now a configuration error
    naming the key."""
    cfg = json.loads((CONFIGS / "mv1.json").read_text())
    (cfg if section is None else cfg.setdefault(section, {}))[key] = value
    assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
    name = key if section is None else f"{section}.{key}"
    assert f"{name} must be {what}, got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [-5, 2**64 + 3])
def test_simulate_takes_json_numbers_booleans_and_any_integer_seed(tmp_path, seed):
    """Integer probabilities, a null fixed_flips, a JSON true, and seeds
    negative or past 64 bits all run."""
    cfg = json.loads((CONFIGS / "mv1.json").read_text())
    cfg["errors"] = {"corrupt_packet_prob": 1, "bit_flip_prob": 0, "fixed_flips": None,
                     "injected_packets": 1, "injection_node": "a"}
    cfg["sim"].update(trials=5, retry_full_rank=True)
    cfg["seed"] = seed
    out = tmp_path / "report.json"
    assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seeds"]["base"] == seed


# ---------------------------------------------------------------- analyze

def test_analyze_distances_csv(capsys):
    assert main(["analyze-distances", "--config", str(CONFIGS / "mv1.json"),
                 "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "code-id,component-id,distance,cardinality"
    assert lines[1] == "mv1-gf8-l1k1L2,union,3,3"
    assert "mv1-gf8-l1k1L2,1,9,2" in lines


def test_analyze_distances_json(capsys):
    assert main(["analyze-distances", "--config", str(CONFIGS / "mv2_uncompressed.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    union_row = next(r for r in report["table"] if r["component_id"] == "union")
    assert union_row["distance"] == 3
    assert union_row["cardinality"] == 25
    assert report["layout"] == "mv-uncompressed"


# ---------------------------------------------------------------- refusals

def mv1_config():
    return json.loads((CONFIGS / "mv1.json").read_text())


def gabidulin_config():
    return json.loads((CONFIGS / "gabidulin_gf8.json").read_text())


# one command on one mutated shipped config: (command, config, mutation,
# extra arguments, what the message names)
@pytest.mark.parametrize("command, config, edit, extra, message", [
    ("verify-lemmas", kk_config, lambda c: c["field"].update(n=0), [],
     "field: extension degree must be a positive integer, got 0"),
    ("verify-lemmas", mv1_config, lambda c: c["field"].update(modulus=[1, 1, 0, 0]), [],
     "field: modulus must be monic of degree n"),
    ("verify-lemmas", mv1_config, lambda c: c["field"].update(modulus=[1, 1, 1]), [],
     "field: modulus must be monic of degree n"),
    ("verify-lemmas", mv1_config, lambda c: c["field"].update(modulus=[1, 3, 0, 1]), [],
     "field: modulus coefficients must lie in [0, p)"),
    ("verify-lemmas", mv1_config, lambda c: c["field"].update(basis=[[1, 0, 0], [0, 1, 0]]), [],
     "field: basis must be a 3x3 matrix"),
    ("verify-lemmas", mv1_config,
     lambda c: c["field"].update(basis=[[1, 0, 0], [0, 1, 0], [0, 0, 2]]), [],
     "field: basis entries must lie in [0, 2)"),
    ("verify-lemmas", mv1_config,
     lambda c: c["field"].update(basis=[[1, 0, 0], [0, 1, 0], [1, 1, 0]]), [],
     "field: basis matrix is singular"),
    ("simulate", mv1_config, lambda c: c["topology"]["nodes"].update(t="intermediate"), [],
     "topology: need at least one sink"),
    ("simulate", mv1_config, lambda c: c["errors"].update(injected_packets=-1), [],
     "errors: injected_packets must be nonnegative"),
    ("verify-lemmas", mv1_config, lambda c: c["code"].update(L=0), [],
     "code: list size L must be at least 1"),
    ("verify-lemmas", gabidulin_config, lambda c: c["code"].update(generators=["g^3"]), [],
     "code: need 2 generators, got 1"),
    ("verify-lemmas", kk_config, lambda c: c["code"].update(alphas=["g^3"]), [],
     "code: need 2 alphas, got 1"),
    ("verify-lemmas", kk_config, lambda c: c["code"]["alphas"].__setitem__(0, [1, 0]), [],
     "code.alphas[0]: expected 3 coefficients, got 2"),
    ("simulate", mv1_config, lambda c: c["tier1"].update(mode="fix"), [],
     "tier1.mode: unknown tier-1 mode 'fix', not one of detect-only, correct, correct-or-erase"),
    ("decode", mv1_config, lambda c: c["tier2"].update(metric="hamming"),
     ["--packets", str(GOLDEN_DECODE / "mv1.clean.txt")],
     "tier2.metric: unknown tier-2 metric 'hamming', not one of injection, subspace"),
    ("decode", mv1_config, lambda c: c["tier1"].update(radius=-1),
     ["--packets", str(GOLDEN_DECODE / "mv1.clean.txt")],
     "tier1.radius: radius must be nonnegative"),
    ("decode", mv1_config, lambda c: c["tier2"].update(list_radius=-1),
     ["--packets", str(GOLDEN_DECODE / "mv1.clean.txt")],
     "tier2.list_radius: list radius must be nonnegative"),
    ("simulate", mv1_config, lambda c: c.update(feedback=True), [],
     "feedback: feedback requires a tier-2 list radius"),
    ("encode", kk_config, lambda c: c.pop("message"), [],
     "no message given (use --message or a 'message' config entry)"),
    ("encode", kk_config, lambda c: None, ["--message", "012"],
     "message digits must lie in [0, 2)"),
    ("decode", mv1_config, lambda c: None, ["--packets", "/nonexistent/packets.txt"],
     "cannot read packets file /nonexistent/packets.txt"),
], ids=["field-n-0", "modulus-not-monic", "modulus-length", "modulus-coefficient",
        "basis-shape", "basis-entry", "basis-singular", "no-sink", "injected-negative",
        "mv-L-0", "short-generators", "short-alphas", "alpha-coefficients", "tier1-mode",
        "tier2-metric", "tier1-radius", "tier2-list-radius", "feedback-no-list-radius",
        "encode-no-message", "encode-digit", "packets-unreadable"])
def test_config_reachable_refusals_exit_2(tmp_path, capsys, command, config, edit, extra,
                                          message):
    cfg = config()
    edit(cfg)
    assert main([command, "--config", write_config(tmp_path, cfg), *extra]) == 2
    assert f"config error: {message}" in capsys.readouterr().err


def test_a_config_holding_a_json_list_exits_2(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert main(["verify-lemmas", "--config", str(path)]) == 2
    assert f"config {path} must be a JSON object" in capsys.readouterr().err


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps the address space on Linux")
def test_a_size_memory_cannot_hold_exits_3(tmp_path):
    """10^8 injected packets per trial pass every budget, but their arrays
    need terabytes: under a 1 GiB address space the simulator's first
    allocation fails, and the command exits 3 with one line on stderr."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    cfg = mv1_config()
    cfg["errors"] = {"injected_packets": 100_000_000, "injection_node": "a"}
    env = os.environ | {"PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-m", "twotier", "simulate", "--config",
                           write_config(tmp_path, cfg)], capture_output=True, text=True,
                          env=env, preexec_fn=cap, timeout=120)
    assert done.returncode == 3, done.stderr
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("out of memory: ")
