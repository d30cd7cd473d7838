import json
from pathlib import Path

import pytest

from twotier.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN_DECODE = Path(__file__).resolve().parent / "golden" / "decode"


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


def test_encode_wrong_length_message(capsys):
    assert main(["encode", "--config", str(CONFIGS / "kk_example.json"),
                 "--message", "10"]) == 2


def test_encode_empty_message_is_config_error(capsys):
    """An empty --message is a bad message, not a missing one: it must not
    fall back to the config's message."""
    assert main(["encode", "--config", str(CONFIGS / "kk_example.json"),
                 "--message", ""]) == 2
    assert "cannot parse digit string ''" in capsys.readouterr().err


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
