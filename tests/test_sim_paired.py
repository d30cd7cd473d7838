"""The blocked simulator against the strategy-major reference.

``run_experiment`` runs its trials in blocks (``sim.TrialBlock``): each
block makes every trial's draws once, runs one network pass per filtering
flag for all its trials, and decodes its sink words as arrays
(``decoders._decode_block``): tier 1 once per distinct packet and tier 2
once per distinct input. ``oracles.reference_run_experiment`` runs one
strategy after another with fresh streams, its own network pass and
``two_tier_decode`` or ``tier2_subspace_decode`` on each sink word. The
reports must be equal, key order included, and a ``run_trial`` called on
its own must give the reference's outcome, over four topologies, channel
errors of every kind, the node-filter modes, decoders with tier 1 off, in
the subspace metric and with list feedback, strategy lists in any order,
with repeats, and blocks of any size.
"""

import contextlib
import functools
import json
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twotier import cli, config, decoders, sim
from twotier.codes import KKSpec, MVSpec, build_codebook
from twotier.decoders import CORRECT, CORRECT_OR_ERASE, DETECT_ONLY, DecodeOptions
from twotier.fields import FieldContext
from twotier.sim import (STRATEGIES, TWO_TIER, TWO_TIER_FILTER, CodeSetup, ErrorModel, Topology,
                         run_experiment, run_trial)
from twotier.union import build_union

import oracles

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

TOPOLOGIES = {
    "diamond": Topology(
        nodes=(("s", "source"), ("a", "intermediate"), ("b", "intermediate"), ("t", "sink")),
        edges=(("s", "a"), ("s", "b"), ("a", "t"), ("b", "t"))),
    "single-hop": Topology(nodes=(("s", "source"), ("t", "sink"), ("t2", "sink")),
                           edges=(("s", "t"), ("s", "t2"))),
    # two sinks; c forwards what both intermediates mixed
    "six-node": Topology(
        nodes=(("s", "source"), ("a", "intermediate"), ("b", "intermediate"),
               ("c", "intermediate"), ("t1", "sink"), ("t2", "sink")),
        edges=(("s", "a"), ("s", "b"), ("a", "c"), ("b", "c"), ("a", "t1"),
               ("c", "t1"), ("c", "t2"), ("b", "t2"))),
    # a sink that forwards, and a node with no in-edge: it sends (corrupted)
    # zero packets, and has an empty buffer unless packets are injected there
    "relay-sink": Topology(
        nodes=(("s", "source"), ("t1", "sink"), ("x", "intermediate"), ("t2", "sink")),
        edges=(("s", "t1"), ("t1", "t2"), ("x", "t2"), ("s", "t2"))),
}

OPTIONS = (DecodeOptions(), DecodeOptions(mode=CORRECT),
           DecodeOptions(list_radius=1, feedback=True), DecodeOptions(tier1_enabled=False),
           DecodeOptions(metric="subspace"))


def fresh_codebook(name):
    """mv1 (GF(2), one row), KK over GF(8) (two rows) and KK over GF(9) (p = 3),
    built anew: a union and a codebook that hold no verdict or result yet."""
    if name == "mv1":
        ctx = FieldContext(2, 3)
        spec = MVSpec(field=ctx, m=3, l=1, big_l=2, k=1, alphas=(ctx.gamma_pow(5),))
    elif name == "kk-gf8":
        ctx = FieldContext(2, 3)
        spec = KKSpec(field=ctx, l=2, k=1, alphas=(ctx.gamma_pow(3), ctx.gamma_pow(4)))
    else:
        ctx = FieldContext(3, 2, oracles.MOD_GF9)
        spec = KKSpec(field=ctx, l=1, k=1, alphas=(ctx.one,))
    cb = build_codebook(spec)
    return cb, build_union(cb)


# shared by the tests that read only reports, which no verdict or result kept changes
codebook = functools.cache(fresh_codebook)


@st.composite
def experiments(draw):
    topology = TOPOLOGIES[draw(st.sampled_from(sorted(TOPOLOGIES)))]
    cb, union = codebook(draw(st.sampled_from(("mv1", "kk-gf8", "kk-gf9"))))
    setup = CodeSetup(codebook=cb, union=union, options=draw(st.sampled_from(OPTIONS)))
    kind = draw(st.sampled_from(("fixed-flips", "bit-flips", "injection", "error-free")))
    prob = draw(st.sampled_from((0.3, 0.7, 1.0)))
    if kind == "fixed-flips":
        model = ErrorModel(corrupt_packet_prob=prob, fixed_flips=draw(st.integers(1, 2)))
    elif kind == "bit-flips":
        model = ErrorModel(corrupt_packet_prob=prob, bit_flip_prob=0.2)
    elif kind == "injection":
        node = draw(st.sampled_from([n for n, _ in topology.nodes]))
        model = ErrorModel(injected_packets=draw(st.integers(1, 2)), injection_node=node)
    else:
        model = ErrorModel()
    return {
        "args": (topology, setup, model, draw(st.integers(1, 6)), draw(st.integers(0, 10**6))),
        "strategies": tuple(draw(st.lists(st.sampled_from(STRATEGIES), min_size=1, max_size=4))),
        "kwargs": {"node_filter_mode": draw(st.sampled_from((DETECT_ONLY, CORRECT_OR_ERASE,
                                                              CORRECT))),
                   "retry_full_rank": kind == "error-free" or draw(st.booleans())},
    }


@SETTINGS
@given(experiments())
def test_run_experiment_matches_strategy_major_reference(exp):
    got = run_experiment(*exp["args"], exp["strategies"], **exp["kwargs"])
    want = oracles.reference_run_experiment(*exp["args"], exp["strategies"], **exp["kwargs"])
    assert json.dumps(got) == json.dumps(want)


@SETTINGS
@given(experiments())
def test_standalone_run_trial_matches_reference(exp):
    topology, setup, model, trials, seed = exp["args"]
    report = run_experiment(*exp["args"], exp["strategies"], **exp["kwargs"])
    for trial in range(trials):
        message = setup.codebook[oracles.sim_message(seed, trial, len(setup.codebook))].message
        for strategy in exp["strategies"]:
            got = run_trial(topology, setup, message, model, strategy, seed, trial,
                            **exp["kwargs"])
            want = oracles.reference_run_trial(topology, setup, message, model, strategy,
                                               seed, trial, **exp["kwargs"])
            assert (got.success, got.sink_success, got.verdict_counts, got.metric_values,
                    got.filtered_drops, got.rank_deficient, got.attempts,
                    got.deliveries) == want
            assert report["strategies"][strategy]["success_by_trial"][trial] == got.success


@SETTINGS
@given(experiments(), st.integers(1, 4))
def test_experiments_over_several_blocks_match_the_reference(exp, block_trials):
    with mock.patch.object(sim, "BLOCK_TRIALS", block_trials):
        got = run_experiment(*exp["args"], exp["strategies"], **exp["kwargs"])
    want = oracles.reference_run_experiment(*exp["args"], exp["strategies"], **exp["kwargs"])
    assert json.dumps(got) == json.dumps(want)


@pytest.mark.parametrize("topology, model, mode", [
    ("six-node", ErrorModel(corrupt_packet_prob=0.7, fixed_flips=1), DETECT_ONLY),
    ("diamond", ErrorModel(injected_packets=2, injection_node="a"), CORRECT_OR_ERASE),
], ids=["corrupt-six-node", "inject-diamond"])
def test_filtering_nodes_that_drop_some_packets_match_the_reference(topology, model, mode):
    """A filtering node that drops a packet and keeps a later one mixes the
    kept ones with the first coefficients of its edges, as the reference
    does with its shorter buffer."""
    cb, union = codebook("kk-gf8")
    args = (TOPOLOGIES[topology], CodeSetup(codebook=cb, union=union), model, 60, 11)
    got = run_experiment(*args, STRATEGIES, node_filter_mode=mode)
    assert json.dumps(got) == json.dumps(
        oracles.reference_run_experiment(*args, STRATEGIES, node_filter_mode=mode))
    assert got["strategies"]["two-tier+node-filter"]["filtered_drops"] > 0


@pytest.mark.parametrize("block_trials", (7, sim.BLOCK_TRIALS))
def test_retry_reruns_part_of_a_block(block_trials):
    """A clean channel with retry_full_rank: some trials of a block reach a
    sink rank-deficient and run again at the next attempt, the others keep
    their first pass."""
    cb, union = codebook("kk-gf8")
    setup = CodeSetup(codebook=cb, union=union)
    args = (TOPOLOGIES["diamond"], setup, ErrorModel(), 40, 5)
    kwargs = {"node_filter_mode": CORRECT_OR_ERASE, "retry_full_rank": True}
    with mock.patch.object(sim, "BLOCK_TRIALS", block_trials):
        got = run_experiment(*args, STRATEGIES, **kwargs)
    assert json.dumps(got) == json.dumps(
        oracles.reference_run_experiment(*args, STRATEGIES, **kwargs))
    for stats in got["strategies"].values():
        assert 0 < stats["rank_deficient_trials"] < 40


@pytest.mark.parametrize("name", ("mv1", "kk-gf8", "kk-gf9"))
@settings(SETTINGS, max_examples=20)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_decode_block_matches_two_tier_decode_word_by_word(name, k, seed):
    """The batched step gives each word what ``two_tier_decode`` gives it:
    the chosen codeword, the metric value and the outcomes of the verdicts
    it returns, on words of k mixes of a codeword's rows with digits
    changed, some packets zero, repeated across the block, and on a word
    of zero packets and one of packets outside the union. Every decoder of
    OPTIONS, tier 2 alone in either metric, and tier 1 at radius 0 decode
    the words in turn, twice, sharing the verdicts the union keeps and the
    results the codebook keeps. At radius 0 the
    zero word keeps only the zero vector, which is in every union, and the
    other keeps nothing: both scrub to zero rows."""
    cb, union = codebook(name)
    p, rng = cb.p, np.random.default_rng(seed)
    rows = cb.stack[rng.integers(len(cb), size=6)].astype(np.int64)
    n = rows.shape[2]
    pool = rng.integers(p, size=(6, k, rows.shape[1])) @ rows % p
    pool = np.where(rng.random(pool.shape) < 0.15, (pool + rng.integers(1, p, pool.shape)) % p,
                    pool)
    pool[rng.random((6, k)) < 0.2] = 0
    junk = [x for x in rng.integers(p, size=(64, n)).tolist() if tuple(x) not in union][:k]
    pool = np.concatenate([pool, np.zeros((1, k, n), dtype=np.int64), np.array([junk])])
    words = pool[np.concatenate([rng.integers(6, size=24), [6, 7, 6, 7]])]
    each_decoder = OPTIONS + (DecodeOptions(tier1_enabled=False, metric="subspace"),
                              DecodeOptions(mode=CORRECT, radius=0))
    for options in each_decoder * 2:
        chosen, metric, counts = decoders._decode_block(words, union, cb, options)
        for word, got in zip(words.tolist(), zip(chosen.tolist(), metric.tolist(),
                                                 counts.tolist())):
            out = decoders.two_tier_decode(word, union, cb, options)
            result = out.result
            assert got == (-1 if result.chosen is None else result.chosen,
                           -1 if result.metric_value is None else result.metric_value,
                           [sum(v.outcome == o for v in out.verdicts)
                            for o in decoders.TIER1_OUTCOMES]), options


@contextlib.contextmanager
def decoder_inputs():
    """Yields the calls of each block: each tier-1 run as (mode, radius,
    packet), each tier-2 run as (span basis, metric, list radius), and each
    ``two_tier_decode`` call."""
    blocks = []

    class MarkedBlock(sim.TrialBlock):
        def __init__(self, *args, **kwargs):
            blocks.append([])
            super().__init__(*args, **kwargs)

    tier1, tier2 = decoders.tier1_decode, decoders._subspace_body
    two_tier = decoders.two_tier_decode

    def logged_tier1(packet, union, radius, mode, **kwargs):
        blocks[-1].append(("tier1", mode, radius, tuple(packet)))
        return tier1(packet, union, radius, mode, **kwargs)

    def logged_tier2(span, codebook, metric, list_radius):
        blocks[-1].append(("tier2", span[0], metric, list_radius))
        return tier2(span, codebook, metric, list_radius)

    def logged_two_tier(*args, **kwargs):
        blocks[-1].append(("two_tier_decode",))
        return two_tier(*args, **kwargs)

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(sim, "TrialBlock", MarkedBlock))
        for name, fn in (("tier1_decode", logged_tier1), ("_subspace_body", logged_tier2),
                         ("two_tier_decode", logged_two_tier)):
            stack.enter_context(mock.patch.object(decoders, name, fn))
        # and under the name sim would import it by
        stack.enter_context(mock.patch.object(sim, "two_tier_decode", logged_two_tier,
                                              create=True))
        yield blocks


@pytest.mark.parametrize("block_trials", (16, sim.BLOCK_TRIALS))
def test_each_distinct_input_is_decoded_once_per_union_and_codebook(block_trials):
    """Tier 1 runs once per distinct packet in each mode, at the filtering
    nodes and at the sink, and tier 2 once per distinct input, whichever
    block, strategy or experiment meets it: the union keeps its verdicts
    and the codebook its results. With feedback off no ``two_tier_decode``
    runs, a block runs tier 2 fewer times than it has (trial, strategy,
    sink) decodes, and a second experiment on the same union and codebook
    decodes nothing, with the same report."""
    for options, tier1_keys in [
            # the filtering nodes detect only; the sink corrects within radius 1
            (DecodeOptions(), {(DETECT_ONLY, 0), (CORRECT_OR_ERASE, 1)}),
            # a detect-only verdict reads no radius: nodes and sink share one table
            (DecodeOptions(mode=DETECT_ONLY), {(DETECT_ONLY, 0)})]:
        cb, union = fresh_codebook("mv1")
        setup = CodeSetup(codebook=cb, union=union, options=options)
        args = (TOPOLOGIES["diamond"], setup, ErrorModel(corrupt_packet_prob=0.5, fixed_flips=1),
                64, 3)
        runs = []
        for _ in range(2):
            with mock.patch.object(sim, "BLOCK_TRIALS", block_trials), \
                    decoder_inputs() as blocks:
                report = run_experiment(*args)
            runs.append(blocks)
            assert report == oracles.reference_run_experiment(*args, STRATEGIES)
        blocks = runs[0]
        assert len(blocks) == len(runs[1]) == -(-64 // block_trials)
        calls = [c for block in blocks for c in block]
        assert max(Counter(calls).values()) == 1
        assert {c[0] for c in calls} == {"tier1", "tier2"}
        assert {c[1:3] for c in calls if c[0] == "tier1"} == tier1_keys
        assert max(Counter((c[1], c[3]) for c in calls if c[0] == "tier1").values()) == 1
        for block in blocks:
            assert len([c for c in block if c[0] == "tier2"]) < \
                min(block_trials, 64) * len(STRATEGIES)
        assert runs[1] == [[]] * len(blocks)    # the second experiment decodes nothing again
        assert len(union.verdicts) == len(tier1_keys) and len(cb.results) == 1


def _held(owner) -> int:
    """The entries an owner's tables hold as ``decoders.MEMO_ENTRIES``
    counts them: one per verdict, and one per result plus one per codeword
    its list holds."""
    return sum(1 + len(getattr(value, "list", None) or ())
               for table in owner.values() for value in table.values())


@pytest.mark.parametrize("entries", (0, 1, 7, 60))
def test_the_union_and_the_codebook_keep_at_most_memo_entries(entries, tmp_path):
    """With room for a few entries, each owner fills up to its budget and
    keeps nothing more, over every decoder of OPTIONS (list feedback
    included) and several experiments; the reports still equal the
    reference's, and the mv1 simulate golden, decoded under the same
    budget, is byte-identical."""
    cb, union = fresh_codebook("mv1")
    with mock.patch.object(decoders, "MEMO_ENTRIES", entries):
        for options in OPTIONS:
            setup = CodeSetup(codebook=cb, union=union, options=options)
            args = (TOPOLOGIES["six-node"], setup,
                    ErrorModel(corrupt_packet_prob=0.7, fixed_flips=1), 40, 5)
            kwargs = {"node_filter_mode": CORRECT_OR_ERASE}
            with mock.patch.object(sim, "BLOCK_TRIALS", 16):
                got = run_experiment(*args, STRATEGIES, **kwargs)
            assert json.dumps(got) == json.dumps(
                oracles.reference_run_experiment(*args, STRATEGIES, **kwargs))
            for owner in (union.verdicts, cb.results):
                assert owner.held == _held(owner) <= entries
        # the first decoder alone meets more distinct inputs than 60
        assert union.verdicts.held == cb.results.held == entries
        out = tmp_path / "report.json"
        assert cli.main(["simulate", "--config", str(ROOT.parent / "configs" / "mv1.json"),
                         "--out", str(out)]) == 0
    assert out.read_bytes() == (ROOT / "golden" / "mv1.simulate.json").read_bytes()


def test_a_tier2_list_counts_each_codeword_it_holds():
    """Under list feedback, the codebook counts a kept result as one entry
    plus one per listed codeword, so long lists fill the budget sooner."""
    cb, union = fresh_codebook("kk-gf8")
    setup = CodeSetup(codebook=cb, union=union, options=OPTIONS[2])
    run_experiment(TOPOLOGIES["diamond"], setup, ErrorModel(corrupt_packet_prob=0.7, fixed_flips=1),
                   30, 2)
    # tier 2 alone decodes in nearest mode, a table of its own
    nearest = len(cb.results[("injection", None)])
    lists = [r.list for r in cb.results[("injection", 1)].values()]
    assert max(map(len, lists)) > 1
    assert cb.results.held == _held(cb.results) == nearest + len(lists) + sum(map(len, lists))


@pytest.mark.parametrize("strategies", [(TWO_TIER, TWO_TIER_FILTER), (TWO_TIER_FILTER, TWO_TIER)],
                         ids=["sink-first", "nodes-first"])
@pytest.mark.parametrize("earlier", (False, True), ids=["fresh", "after-an-override-run"])
def test_filtering_nodes_never_read_verdicts_made_under_the_radius_override(strategies, earlier):
    """A sink decoding with allow_radius_override past the unique-decoding
    radius keeps its verdicts apart from the filtering nodes', which run
    without it, so the nodes raise as the reference's do, in either
    strategy order, also when an earlier experiment on the same union
    decoded every packet under the override. Once, the order in which
    the sink came first exited 0."""
    cb, union = fresh_codebook("mv1")
    options = DecodeOptions(mode=CORRECT, radius=2, allow_radius_override=True)
    setup = CodeSetup(codebook=cb, union=union, options=options)
    args = (TOPOLOGIES["diamond"], setup, ErrorModel(corrupt_packet_prob=0.5, fixed_flips=1),
            20, 1)
    if earlier:
        run_experiment(*args, (TWO_TIER,), node_filter_mode=CORRECT)
        assert union.verdicts[(CORRECT, 2, True)]
    for run in (oracles.reference_run_experiment, run_experiment):
        with pytest.raises(ValueError, match="exceeds the unique-decoding limit 1"):
            run(*args, strategies, node_filter_mode=CORRECT)


ROOT = Path(__file__).resolve().parent


@pytest.mark.parametrize("path, seed, golden", [
    ("configs/mv1.json", None, "mv1.simulate.json"),
    ("configs/mv1.json", 7, "mv1.simulate-seed7.json"),
    ("tests/golden/simulate/mv2_gf729.json", None, "simulate/mv2_gf729.simulate.json"),
    ("tests/golden/simulate/mv2_gf729_wide.json", None, "simulate/mv2_gf729_wide.simulate.json"),
], ids=["mv1", "mv1-seed-7", "mv2-gf729", "mv2-gf729-wide"])
def test_simulate_goldens_are_the_references_reports(path, seed, golden):
    """The checked-in simulate reports hold what the strategy-major
    reference draws, scalar by scalar, for their configs."""
    cfg = config.load_config(ROOT.parent / path)
    _, _, cb, union = cfg.build_all()
    setup = CodeSetup(codebook=cb, union=union, options=cfg.decode_options())
    params = cfg.sim_params()
    want = oracles.reference_run_experiment(
        cfg.topology(), setup, cfg.error_model(), params["trials"],
        cfg.seed if seed is None else seed, params["strategies"],
        node_filter_mode=params["node_filter_mode"], retry_full_rank=params["retry_full_rank"])
    got = json.loads((ROOT / "golden" / golden).read_text())
    assert (got["seeds"], got["strategies"]) == (want["seeds"], want["strategies"])
