"""CLI reports on every shipped config, byte for byte against checked-in snapshots.

The snapshots under ``tests/golden/`` were written by the per-message
encoder and the dictionary-built union that the batched set-up replaced.
They hold the byte-identical report contract: the lemma checks, the
distance table, the codebook export and the union dump, whose provenance
lists every vector with its owning components.

The ``simulate`` snapshots were written by the blocked simulator with
its counter-based draws (see ``sim.SEED_DERIVATION``), and the
strategy-major reference in ``tests/oracles.py`` is checked against it on
those draws. Beside mv1 (GF(2)) at its config seed and at seed 7,
``simulate/mv2_gf729.json`` is a GF(3) experiment with offsets in
[1, p), per-digit flips, injected packets and intermediate nodes that
correct, ``simulate/mv2_gf729_wide.json`` is the same experiment with
42-digit packets, whose packed keys pass 64 bits, and
``simulate/mv1_blocks.json`` is mv1 over 2500 trials, three blocks the
last of which is partial, and ``simulate/mv1_feedback.json`` is mv1 with
tier 2 in list mode and list feedback, which runs the block step's
feedback pass. The ``decode`` snapshots were written by the decoder whose
audit deep-copied each pass. A packet file ``decode/<config>.<case>.txt``
is decoded under ``configs/<config>.json``, or under
``decode/<config>.json`` for the list-feedback variants, and its report
is ``decode/<config>.<case>.decode.json``. The ``gab-gf64-feedback``
reports (the GF(2^6) benchmark code: clean words, rank-1 and rank-2
errors, erased positions, and fewer kept positions than k) were written by
the rank decoder that ranked every codeword, before the syndrome tables
answered most of those decodes. The ``mv2_compressed-feedback`` reports,
the one GF(3) decode golden, were written by the decoder that formed a
member dict for each restricted union: a flipped packet corrected in both
passes, a member of another component's span that the first pass keeps
and the restricted union erases, and a word listing two codewords, whose
restricted union of 17 vectors has distance 3.
"""

from pathlib import Path

import pytest

from twotier.cli import main

ROOT = Path(__file__).resolve().parent
CONFIGS = sorted((ROOT.parent / "configs").glob("*.json"))
GOLDEN = ROOT / "golden"
PACKETS = sorted((GOLDEN / "decode").glob("*.txt"))


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


@pytest.mark.parametrize("seed", [None, 7], ids=["config-seed", "seed-7"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_simulate(seed, fmt, tmp_path):
    args = ["simulate", "--config", str(ROOT.parent / "configs" / "mv1.json"), "--format", fmt]
    if seed is not None:
        args += ["--seed", str(seed)]
    report = run(args, tmp_path / f"report.{fmt}")
    suffix = "" if seed is None else f"-seed{seed}"
    assert report == (GOLDEN / f"mv1.simulate{suffix}.{fmt}").read_bytes()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_simulate_over_gf3(fmt, tmp_path):
    config = GOLDEN / "simulate" / "mv2_gf729.json"
    report = run(["simulate", "--config", str(config), "--format", fmt], tmp_path / f"report.{fmt}")
    assert report == (GOLDEN / "simulate" / f"mv2_gf729.simulate.{fmt}").read_bytes()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_simulate_with_keys_past_64_bits(fmt, tmp_path):
    """GF(3) packets of 42 digits: ``linalg.pack_digits`` gives Python
    ints, so the block step keys its packets as objects."""
    config = GOLDEN / "simulate" / "mv2_gf729_wide.json"
    report = run(["simulate", "--config", str(config), "--format", fmt], tmp_path / f"report.{fmt}")
    assert report == (GOLDEN / "simulate" / f"mv2_gf729_wide.simulate.{fmt}").read_bytes()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_simulate_over_several_blocks(fmt, tmp_path):
    """mv1 over 2500 trials: two full blocks of ``sim.BLOCK_TRIALS`` and a
    partial one, through the entry point."""
    config = GOLDEN / "simulate" / "mv1_blocks.json"
    report = run(["simulate", "--config", str(config), "--format", fmt], tmp_path / f"report.{fmt}")
    assert report == (GOLDEN / "simulate" / f"mv1_blocks.simulate.{fmt}").read_bytes()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_simulate_with_list_feedback(fmt, tmp_path):
    """mv1 with list radius 1 and feedback: of its 300 trials, 290 sink
    words list a codeword and take the feedback pass."""
    config = GOLDEN / "simulate" / "mv1_feedback.json"
    report = run(["simulate", "--config", str(config), "--format", fmt], tmp_path / f"report.{fmt}")
    assert report == (GOLDEN / "simulate" / f"mv1_feedback.simulate.{fmt}").read_bytes()


@pytest.mark.parametrize("packets", PACKETS, ids=lambda path: path.stem)
def test_decode(packets, tmp_path):
    config = packets.name.split(".")[0]
    path = ROOT.parent / "configs" / f"{config}.json"
    if not path.is_file():
        path = GOLDEN / "decode" / f"{config}.json"
    report = run(["decode", "--config", str(path), "--packets", str(packets)],
                 tmp_path / "report.json")
    assert report == packets.with_suffix(".decode.json").read_bytes()


def test_every_config_has_snapshots():
    for config in CONFIGS:
        for suffix in ("verify-lemmas.json", "union.csv", "analyze-distances.json",
                       "encode-all.csv"):
            assert (GOLDEN / f"{config.stem}.{suffix}").is_file()
