import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twotier import sim
from twotier.codes import KKSpec, MVSpec, build_codebook
from twotier.decoders import DETECT_ONLY, DecodeOptions
from twotier.errors import BudgetError
from twotier.fields import FieldContext
from twotier.sim import (STRATEGIES, TIER2_ONLY, TWO_TIER, TWO_TIER_FILTER,
                         CodeSetup, ErrorModel, Topology, TrialBlock, draw_key,
                         run_experiment, run_trial, stream)
from twotier.union import build_union

import oracles


def mv1_setup():
    ctx = FieldContext(2, 3)
    spec = MVSpec(field=ctx, m=3, l=1, big_l=2, k=1, alphas=(ctx.gamma_pow(5),))
    cb = build_codebook(spec)
    return CodeSetup(codebook=cb, union=build_union(cb))


def diamond():
    return Topology(
        nodes=(("s", "source"), ("a", "intermediate"), ("b", "intermediate"), ("t", "sink")),
        edges=(("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")))


def single_hop():
    return Topology(nodes=(("s", "source"), ("t", "sink"), ("t2", "sink")),
                    edges=(("s", "t"), ("s", "t2")))


# ---------------------------------------------------------------- topology

def test_topology_accessors():
    topo = diamond()
    assert topo.source == "s"
    assert topo.sinks == ("t",)
    assert topo.out_edges("s") == (("s", "a"), ("s", "b"))
    assert topo.role("a") == "intermediate"


def test_topology_rejects_cycle():
    with pytest.raises(ValueError, match="cycle"):
        Topology(nodes=(("s", "source"), ("a", "intermediate"),
                        ("b", "intermediate"), ("t", "sink")),
                 edges=(("s", "a"), ("a", "b"), ("b", "a"), ("a", "t")))


def test_topology_rejects_two_sources():
    with pytest.raises(ValueError, match="source"):
        Topology(nodes=(("s", "source"), ("s2", "source"), ("t", "sink")),
                 edges=(("s", "t"), ("s2", "t")))


def test_topology_rejects_duplicate_node_names():
    with pytest.raises(ValueError, match="^duplicate node names$"):
        Topology(nodes=(("s", "source"), ("t", "intermediate"), ("t", "sink")),
                 edges=(("s", "t"),))


def test_topology_rejects_unreachable_sink():
    with pytest.raises(ValueError, match="reachable"):
        Topology(nodes=(("s", "source"), ("t", "sink"), ("t2", "sink")),
                 edges=(("s", "t"),))


def test_topology_rejects_unknown_node_and_source_inputs():
    with pytest.raises(ValueError, match="unknown"):
        Topology(nodes=(("s", "source"), ("t", "sink")), edges=(("s", "x"),))
    with pytest.raises(ValueError, match="in-degree"):
        Topology(nodes=(("s", "source"), ("t", "sink")),
                 edges=(("s", "t"), ("t", "s")))
    with pytest.raises(ValueError, match="role"):
        Topology(nodes=(("s", "source"), ("t", "relay")), edges=(("s", "t"),))


def test_topology_rejects_arrows_in_node_names():
    """An edge's draws are keyed by "u->v": with nodes a->b and b->t, the
    edges (a->b, t) and (a, b->t) would share that name and every draw."""
    with pytest.raises(ValueError, match=r"must not contain '->', got \['a->b', 'b->t'\]"):
        Topology(nodes=(("s", "source"), ("a", "intermediate"), ("a->b", "intermediate"),
                        ("b->t", "intermediate"), ("t", "sink")),
                 edges=(("s", "a"), ("s", "a->b"), ("a", "b->t"), ("a->b", "t"),
                        ("b->t", "t")))
    with pytest.raises(ValueError, match="must not contain '->'"):
        Topology(nodes=(("s->", "source"), ("t", "sink")), edges=(("s->", "t"),))


# ---------------------------------------------------------------- error model

def test_error_model_validation():
    with pytest.raises(ValueError):
        ErrorModel(bit_flip_prob=1.5)
    with pytest.raises(ValueError):
        ErrorModel(fixed_flips=0)
    with pytest.raises(ValueError):
        ErrorModel(injected_packets=1)
    assert ErrorModel().error_free
    assert ErrorModel(corrupt_packet_prob=0.5).error_free  # no flips configured
    assert not ErrorModel(corrupt_packet_prob=0.5, fixed_flips=1).error_free


def test_stream_determinism_and_separation():
    """A draw is a pure function of (seed, edge-or-node, purpose, trial,
    attempt, index): the same arguments give the same array, and another
    purpose, seed, trial or attempt gives other draws."""
    mix = draw_key(1, "s->a", "mix")
    a = stream(mix, range(4), 0, 3)
    assert a.shape == (4, 3) and a.dtype == np.uint64
    assert (a == stream(mix, range(4), 0, 3)).all()
    assert (stream(mix, [2, 3], 0, 3) == a[2:]).all()    # a trial's draws, whatever the block
    for other in (stream(draw_key(1, "s->a", "corrupt"), range(4), 0, 3),
                  stream(draw_key(2, "s->a", "mix"), range(4), 0, 3),
                  stream(draw_key(1, "s->b", "mix"), range(4), 0, 3),
                  stream(mix, range(4), 1, 3)):
        assert not (other == a).any()
    assert len(np.unique(a)) == a.size


NAMES = st.sampled_from(("", "s", "s->a", "a->t", "b|c", "n\u00e9ud"))
PURPOSES = st.sampled_from(("message", "mix", "corrupt", "flip", "order", "offset", "inject"))


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.integers(-2**70, 2**70), st.integers(2**64 - 2, 2**64 + 2)), NAMES,
       PURPOSES, st.lists(st.integers(0, 2**20 - 1), min_size=1, max_size=4),
       st.integers(0, 31), st.integers(0, 6), st.sampled_from((0, 1, 2, 3, 5, 7, 9, 2**20, 2**32)))
def test_block_draws_equal_the_scalar_oracle(seed, name, purpose, trials, attempt, count, below):
    """Every entry of a block draw is the scalar draw of its (trial, index),
    for seeds negative and past 64 bits, raw words and draws below any
    bound the counter takes."""
    assert draw_key(seed, name, purpose) == oracles.sim_key(seed, name, purpose)
    got = stream(draw_key(seed, name, purpose), trials, attempt, count, below)
    want = [[oracles.sim_draw(seed, name, purpose, t, attempt, j, below or None)
             for j in range(count)] for t in trials]
    assert got.shape == (len(trials), count)
    assert got.tolist() == want


@pytest.mark.parametrize("p", (2, 3, 5))
def test_digits_are_uniform(p):
    """10^5 digits below p: every digit's count within 5 sigma of n/p."""
    digits = stream(draw_key(11, "s->a", "mix"), range(10_000), 0, 10, p)
    counts = np.bincount(digits.ravel().astype(np.int64), minlength=p)
    n = digits.size
    sigma = math.sqrt(n * (1 / p) * (1 - 1 / p))
    assert len(counts) == p and (abs(counts - n / p) <= 5 * sigma).all(), counts


def test_rejected_draws_are_redrawn_exactly(monkeypatch):
    """Below 2^31 + 1 the multiply-shift rejects about half of the first
    draws; each is redrawn at the next retry, as the scalar oracle does,
    and the draws stay below the bound. Out of retries, BudgetError."""
    below, key = 2**31 + 1, draw_key(3, "s", "message")
    words = stream(key, range(8), 2, 16)
    rejected = ((words >> np.uint64(32)) * np.uint64(below) & np.uint64(0xFFFFFFFF)) < \
        np.uint64(2**32 % below)
    assert 0 < rejected.sum() < rejected.size
    got = stream(key, range(8), 2, 16, below)
    assert got.tolist() == [[oracles.sim_draw(3, "s", "message", t, 2, j, below)
                             for j in range(16)] for t in range(8)]
    assert (got < below).all()
    assert (got[~rejected] == ((words >> np.uint64(32)) * np.uint64(below) >>
                               np.uint64(32))[~rejected]).all()
    monkeypatch.setattr(sim, "RETRY_BITS", 0)
    with pytest.raises(BudgetError, match="rejected"):
        stream(key, range(8), 2, 16, below)


@pytest.mark.parametrize("trials, attempt, count, below", [
    ([2**20], 0, 1, 0), ([-1], 0, 1, 0), ([0], 32, 1, 0), ([0], -1, 1, 0),
    ([0], 0, 1, 2**32 + 1)])
def test_counter_fields_are_bounded(trials, attempt, count, below):
    """A trial, attempt or bound past its counter field raises, so two
    counters never wrap onto one value."""
    with pytest.raises(BudgetError):
        stream(draw_key(1, "s->a", "mix"), trials, attempt, count, below)


def test_a_trial_past_the_counter_field_is_refused():
    """An experiment's trials and attempts fit their fields; a trial that
    run_trial is given outside its field is refused."""
    assert sim.MAX_TRIALS <= 2**sim.TRIAL_BITS and sim.MAX_ATTEMPTS <= 2**sim.ATTEMPT_BITS
    with pytest.raises(BudgetError, match="trial"):
        run_trial(diamond(), mv1_setup(), (1,), ErrorModel(), TIER2_ONLY, 1, 2**20)


def test_a_wider_buffer_reads_the_same_first_coefficients():
    key = draw_key(5, "a->t", "mix")
    assert (stream(key, range(30), 0, 5, 3)[:, :2] == stream(key, range(30), 0, 2, 3)).all()


def gf9_setup():
    ctx = FieldContext(3, 2, oracles.MOD_GF9)
    cb = build_codebook(KKSpec(field=ctx, l=1, k=1, alphas=(ctx.one,)))
    return CodeSetup(codebook=cb, union=build_union(cb))


@pytest.mark.parametrize("flips", (1, 2, 3))
def test_fixed_flips_hit_distinct_positions(flips):
    """Every corrupted packet gets exactly `flips` nonzero offsets, each in
    [1, p), at positions the first `flips` of a random order."""
    setup = gf9_setup()
    model = ErrorModel(corrupt_packet_prob=0.6, fixed_flips=flips)
    block = TrialBlock(diamond(), setup, model, 8, range(300), [0] * 300,
                       node_filter_mode=DETECT_ONLY, retry_full_rank=False)
    _, offsets, _ = block._arrays(0, np.arange(300))
    hits = (offsets != 0).sum(axis=2)
    assert set(np.unique(hits).tolist()) == {0, flips}
    assert 0 < (hits == flips).mean() < 1
    assert offsets.max() < setup.p and offsets.min() >= 0
    positions = {tuple(np.flatnonzero(row)) for row in offsets.reshape(-1, setup.ambient_len)}
    assert len(positions) > 1


@pytest.mark.parametrize("model, purposes", [
    (ErrorModel(corrupt_packet_prob=0.5, fixed_flips=1), ("mix", "corrupt", "order", "offset")),
    (ErrorModel(), ("mix",)),
    (ErrorModel(corrupt_packet_prob=0.5, bit_flip_prob=0.2, injected_packets=2,
                injection_node="a"), ("mix", "corrupt", "flip", "offset")),
], ids=["fixed-flips", "clean", "bit-flips-and-injection"])
@pytest.mark.parametrize("code", ["mv1", "gf9"])
def test_stream_calls_per_block_follow_edges_and_purposes(monkeypatch, model, purposes, code):
    """A block calls `stream` once for the messages and once per (purpose,
    edge-or-node) of its first attempt, however many trials it holds and
    however many strategies read the draws; over GF(2) every offset is 1,
    and nothing draws it."""
    setup = mv1_setup() if code == "mv1" else gf9_setup()
    original, calls = sim.stream, []
    monkeypatch.setattr(sim, "stream", lambda *args: calls.append(args) or original(*args))
    edges = len(diamond().edges)
    channel = sum(1 for purpose in purposes if setup.p > 2 or purpose != "offset")
    want = 1 + edges * channel + (1 if model.injected_packets else 0)
    for trials in (3, 200):
        calls.clear()
        run_experiment(diamond(), setup, model, trials, 21)
        assert len(calls) == want
        assert {len(args[1]) for args in calls} == {trials}


# ---------------------------------------------------------------- trials

def test_error_free_trial_succeeds_everywhere():
    setup = mv1_setup()
    topo = diamond()
    model = ErrorModel()
    for strategy in STRATEGIES:
        outcome = run_trial(topo, setup, (1,), model, strategy, base_seed=3,
                            trial=0, retry_full_rank=True)
        assert outcome.success


def test_identical_seed_identical_outcome():
    setup = mv1_setup()
    topo = diamond()
    model = ErrorModel(corrupt_packet_prob=0.5, fixed_flips=1)
    a = run_trial(topo, setup, (1,), model, TWO_TIER, base_seed=5, trial=7)
    b = run_trial(topo, setup, (1,), model, TWO_TIER, base_seed=5, trial=7)
    assert a == b
    # a different trial index draws a different channel
    draws = [TrialBlock(topo, setup, model, 5, (trial,), (1,), node_filter_mode=DETECT_ONLY,
                        retry_full_rank=False)._arrays(0, np.arange(1))
             for trial in (7, 8)]
    assert any((x != y).any() for x, y in zip(*draws))


def test_conservation_sink_deliveries():
    setup = mv1_setup()
    topo = diamond()
    outcome = run_trial(topo, setup, (0,), ErrorModel(), TIER2_ONLY, 1, 0)
    in_degree = sum(1 for _, v in topo.edges if v == "t")
    assert outcome.deliveries == {"t": in_degree}


def test_unknown_strategy_and_message():
    setup = mv1_setup()
    with pytest.raises(ValueError, match="strategy"):
        run_trial(diamond(), setup, (1,), ErrorModel(), "magic", 1, 0)
    # run_experiment refused an unknown node-filter mode, and run_trial ran it
    with pytest.raises(ValueError, match="unknown tier-1 mode 'bogus'"):
        run_trial(diamond(), setup, (1,), ErrorModel(), TWO_TIER_FILTER, 1, 0,
                  node_filter_mode="bogus")
    # a digit outside [0, q), a negative one included, or a wrong length
    for message in ((7,), (1, 0), (-1,)):
        with pytest.raises(ValueError, match="message"):
            run_trial(diamond(), setup, message, ErrorModel(), TIER2_ONLY, 1, 0)
    with pytest.raises(ValueError, match="injection node"):
        run_trial(diamond(), setup, (1,),
                  ErrorModel(injected_packets=1, injection_node="zz"), TIER2_ONLY, 1, 0)


# ---------------------------------------------------------------- experiments

def test_error_free_experiment_all_strategies_succeed():
    report = run_experiment(diamond(), mv1_setup(), ErrorModel(), 100, 7,
                            retry_full_rank=True)
    for strategy in STRATEGIES:
        assert report["strategies"][strategy]["successes"] == 100


def test_report_reproducibility():
    setup = mv1_setup()
    model = ErrorModel(corrupt_packet_prob=0.5, fixed_flips=1)
    a = run_experiment(diamond(), setup, model, 50, 123)
    b = run_experiment(diamond(), setup, model, 50, 123)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_paired_dominance_single_hop():
    # with one corrupting hop, per-packet noise stays within the tier-1
    # radius, and two-tier wins or ties on every paired trial
    setup = mv1_setup()
    model = ErrorModel(corrupt_packet_prob=0.5, fixed_flips=1)
    report = run_experiment(single_hop(), setup, model, 300, 99,
                            strategies=(TIER2_ONLY, TWO_TIER))
    t2 = report["strategies"][TIER2_ONLY]["success_by_trial"]
    tt = report["strategies"][TWO_TIER]["success_by_trial"]
    assert all(y >= x for x, y in zip(t2, tt))
    assert sum(tt) > sum(t2)


def test_node_filter_drops_adversarial_packets():
    setup = mv1_setup()
    model = ErrorModel(injected_packets=2, injection_node="b")
    report = run_experiment(diamond(), setup, model, 200, 77)
    stats = report["strategies"][TWO_TIER_FILTER]
    assert stats["filtered_drops"] > 0
    assert stats["successes"] >= report["strategies"][TWO_TIER]["successes"]


def test_mixing_includes_zero_coefficients():
    # over GF(2) with one basis row, roughly half the mixed packets are zero;
    # the all-zero packet must stay a valid union member
    setup = mv1_setup()
    report = run_experiment(single_hop(), setup, ErrorModel(), 50, 11,
                            strategies=(TWO_TIER,))
    verdicts = report["strategies"][TWO_TIER]["tier1_verdicts"]
    assert verdicts["valid"] == 100  # every packet valid in a clean channel
    assert verdicts["rejected"] == 0


def test_trial_budget():
    with pytest.raises(BudgetError):
        run_experiment(diamond(), mv1_setup(), ErrorModel(), 2_000_000, 1)


def test_experiment_validation():
    with pytest.raises(ValueError):
        run_experiment(diamond(), mv1_setup(), ErrorModel(), 0, 1)
    with pytest.raises(ValueError):
        run_experiment(diamond(), mv1_setup(), ErrorModel(), 10, 1,
                       strategies=("bogus",))


def test_experiment_checks_the_error_model_before_any_draw(monkeypatch):
    """run_experiment rejects what run_trial rejects, with the same
    message, before it derives a single stream."""
    from twotier import sim
    setup = mv1_setup()
    models = (ErrorModel(injected_packets=1, injection_node="zz"),
              ErrorModel(corrupt_packet_prob=0.5, fixed_flips=setup.ambient_len + 1))
    for model in models:
        with pytest.raises(ValueError) as single:
            run_trial(diamond(), setup, (1,), model, TIER2_ONLY, 1, 0)
        seeded = []
        monkeypatch.setattr(sim, "stream", lambda *parts: seeded.append(parts))
        with pytest.raises(ValueError) as paired:
            run_experiment(diamond(), setup, model, 10, 1)
        monkeypatch.undo()
        assert str(paired.value) == str(single.value)
        assert seeded == []
    with pytest.raises(ValueError, match="no strategies"):
        run_experiment(diamond(), setup, ErrorModel(), 10, 1, strategies=())


def test_simulator_rejects_rank_codebooks():
    from twotier.codes import GabidulinSpec
    ctx = FieldContext(2, 3)
    spec = GabidulinSpec(field=ctx, n=2, k=1,
                         generators=(ctx.gamma_pow(3), ctx.gamma_pow(4)))
    cb = build_codebook(spec)
    with pytest.raises(ValueError, match="subspace"):
        CodeSetup(codebook=cb, union=build_union(cb))
