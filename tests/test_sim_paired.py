"""The trial-major simulator against the strategy-major reference.

``run_experiment`` runs each trial's strategies together and shares the
trial's draws and network passes between them (``sim.TrialDraws``).
``oracles.reference_run_experiment`` runs one strategy after another with
fresh streams and its own network pass each. The reports must be equal,
key order included, and a ``run_trial`` called on its own must give the
reference's outcome, over three topologies, channel errors of every kind,
the node-filter modes and strategy lists in any order, with repeats.
"""

import functools
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twotier.codes import KKSpec, MVSpec, build_codebook
from twotier.decoders import CORRECT, CORRECT_OR_ERASE, DETECT_ONLY, DecodeOptions
from twotier.fields import FieldContext
from twotier.sim import STRATEGIES, CodeSetup, ErrorModel, Topology, run_experiment, run_trial
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
}

OPTIONS = (DecodeOptions(), DecodeOptions(mode=CORRECT),
           DecodeOptions(list_radius=1, feedback=True))


@functools.cache
def codebook(name):
    """mv1 (GF(2), one row), KK over GF(8) (two rows) and KK over GF(9) (p = 3)."""
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
        message = setup.codebook[oracles.sim_stream(seed, trial, "message")
                                 .randrange(len(setup.codebook))].message
        for strategy in exp["strategies"]:
            got = run_trial(topology, setup, message, model, strategy, seed, trial,
                            **exp["kwargs"])
            want = oracles.reference_run_trial(topology, setup, message, model, strategy,
                                               seed, trial, **exp["kwargs"])
            assert (got.success, got.sink_success, got.verdict_counts, got.metric_values,
                    got.filtered_drops, got.rank_deficient, got.attempts,
                    got.deliveries) == want
            assert report["strategies"][strategy]["success_by_trial"][trial] == got.success
