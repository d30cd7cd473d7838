"""CLI reports on every shipped config, byte for byte against checked-in snapshots.

The snapshots under ``tests/golden/`` were written by the per-message
encoder and the dictionary-built union that the batched set-up replaced.
They hold the byte-identical report contract: the lemma checks, the
distance table, the codebook export and the union dump, whose provenance
lists every vector with its owning components.
"""

from pathlib import Path

import pytest

from twotier.cli import main

ROOT = Path(__file__).resolve().parent
CONFIGS = sorted((ROOT.parent / "configs").glob("*.json"))
GOLDEN = ROOT / "golden"


def run(args, out):
    assert main(args + ["--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
def test_verify_lemmas_and_union_dump(config, tmp_path):
    dump = tmp_path / "union.csv"
    report = run(["verify-lemmas", "--config", str(config), "--dump-union", str(dump)],
                 tmp_path / "report.json")
    assert report == (GOLDEN / f"{config.stem}.verify-lemmas.json").read_bytes()
    assert dump.read_bytes() == (GOLDEN / f"{config.stem}.union.csv").read_bytes()


@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
def test_analyze_distances(config, tmp_path):
    report = run(["analyze-distances", "--config", str(config)], tmp_path / "table.json")
    assert report == (GOLDEN / f"{config.stem}.analyze-distances.json").read_bytes()


@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
def test_encode_all(config, tmp_path):
    export = run(["encode", "--all", "--config", str(config)], tmp_path / "codebook.csv")
    assert export == (GOLDEN / f"{config.stem}.encode-all.csv").read_bytes()


def test_every_config_has_snapshots():
    for config in CONFIGS:
        for suffix in ("verify-lemmas.json", "union.csv", "analyze-distances.json",
                       "encode-all.csv"):
            assert (GOLDEN / f"{config.stem}.{suffix}").is_file()
