import json

import pytest

from twotier.codes import KKSpec, MVSpec, build_codebook
from twotier.decoders import DecodeOptions
from twotier.errors import BudgetError
from twotier.fields import FieldContext
from twotier.sim import (STRATEGIES, TIER2_ONLY, TWO_TIER, TWO_TIER_FILTER,
                         CodeSetup, ErrorModel, Topology, run_experiment,
                         run_trial, stream)
from twotier.union import build_union


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
    a = [stream(1, 0, "mix").random() for _ in range(3)]
    b = [stream(1, 0, "mix").random() for _ in range(3)]
    c = [stream(1, 0, "chan").random() for _ in range(3)]
    assert a == b
    assert a != c


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
    c = run_trial(topo, setup, (1,), model, TWO_TIER, base_seed=5, trial=8)
    assert a != c  # different trial index draws a different channel


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
