"""Seeded simulator of random linear network coding over a DAG.

Every random draw comes from a named stream derived from
(base seed, trial, attempt, edge-or-node, purpose) via SHA-256, so a
report is a pure function of (config, seed). Channel corruption and
mixing use disjoint streams and never depend on the decoding strategy,
which makes per-trial comparisons between strategies paired.
"""

import graphlib
import hashlib
import random
from dataclasses import dataclass, field as dc_field

from . import linalg
from .codes import SUBSPACE
from .decoders import (CORRECTED, DETECT_ONLY, VALID, DecodeOptions,
                       default_radius, tier1_decode, tier2_subspace_decode,
                       two_tier_decode)
from .errors import BudgetError
from .union import UnionCode

TIER2_ONLY = "tier2-only"
TWO_TIER = "two-tier"
TWO_TIER_FILTER = "two-tier+node-filter"
STRATEGIES = (TIER2_ONLY, TWO_TIER, TWO_TIER_FILTER)

SOURCE = "source"
INTERMEDIATE = "intermediate"
SINK = "sink"

SEED_DERIVATION = "sha256(base|trial|attempt|edge-or-node|purpose) -> 64-bit stream seed"
MAX_TRIALS = 1_000_000


def stream(base_seed: int, *parts) -> random.Random:
    tag = f"{base_seed}|" + "|".join(str(p) for p in parts)
    digest = hashlib.sha256(tag.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


@dataclass(frozen=True)
class Topology:
    nodes: tuple    # ((name, role), ...) in declared order
    edges: tuple    # ((u, v), ...) in declared order

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple((str(n), str(r)) for n, r in self.nodes))
        object.__setattr__(self, "edges", tuple((str(u), str(v)) for u, v in self.edges))
        roles = dict(self.nodes)
        if len(roles) != len(self.nodes):
            raise ValueError("duplicate node names")
        bad = {r for r in roles.values()} - {SOURCE, INTERMEDIATE, SINK}
        if bad:
            raise ValueError(f"unknown node roles {sorted(bad)}")
        sources = [n for n, r in self.nodes if r == SOURCE]
        if len(sources) != 1:
            raise ValueError(f"need exactly one source, got {len(sources)}")
        if not any(r == SINK for _, r in self.nodes):
            raise ValueError("need at least one sink")
        for u, v in self.edges:
            if u not in roles or v not in roles:
                raise ValueError(f"edge ({u}, {v}) references unknown node")
        if any(v == sources[0] for _, v in self.edges):
            raise ValueError("source must have in-degree zero")
        graph = {n: [] for n, _ in self.nodes}
        for u, v in self.edges:
            graph[v].append(u)  # predecessors, as graphlib expects
        try:
            order = tuple(graphlib.TopologicalSorter(graph).static_order())
        except graphlib.CycleError as exc:
            raise ValueError("topology contains a cycle") from exc
        object.__setattr__(self, "_topo_order", order)
        reachable = {sources[0]}
        for u, v in sorted(self.edges, key=lambda e: order.index(e[0])):
            if u in reachable:
                reachable.add(v)
        for n, r in self.nodes:
            if r == SINK and n not in reachable:
                raise ValueError(f"sink {n} is not reachable from the source")

    @property
    def source(self) -> str:
        return next(n for n, r in self.nodes if r == SOURCE)

    @property
    def sinks(self):
        return tuple(n for n, r in self.nodes if r == SINK)

    def role(self, node: str) -> str:
        return dict(self.nodes)[node]

    def topo_order(self):
        return self._topo_order

    def out_edges(self, node: str):
        return tuple((u, v) for u, v in self.edges if u == node)


@dataclass(frozen=True)
class ErrorModel:
    bit_flip_prob: float = 0.0
    fixed_flips: int | None = None
    corrupt_packet_prob: float = 0.0
    injected_packets: int = 0
    injection_node: str | None = None

    def __post_init__(self):
        for name in ("bit_flip_prob", "corrupt_packet_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.fixed_flips is not None and self.fixed_flips < 1:
            raise ValueError("fixed_flips must be at least 1 when set")
        if self.injected_packets < 0:
            raise ValueError("injected_packets must be nonnegative")
        if self.injected_packets and self.injection_node is None:
            raise ValueError("injected_packets needs an injection_node")

    @property
    def error_free(self) -> bool:
        return (self.corrupt_packet_prob == 0.0 or
                (self.fixed_flips is None and self.bit_flip_prob == 0.0)) \
            and self.injected_packets == 0


@dataclass
class CodeSetup:
    """Prebuilt codebook, union, and decoder options shared across trials."""
    codebook: list
    union: UnionCode
    options: DecodeOptions = DecodeOptions()
    by_message: dict = dc_field(init=False)

    def __post_init__(self):
        if any(cw.kind != SUBSPACE for cw in self.codebook):
            raise ValueError("the simulator covers subspace-kind codes only")
        self.by_message = {cw.message: i for i, cw in enumerate(self.codebook)}

    @property
    def p(self) -> int:
        return self.union.p

    @property
    def ambient_len(self) -> int:
        return self.union.ambient_len


@dataclass
class TrialOutcome:
    success: bool
    sink_success: dict
    verdict_counts: dict
    metric_values: list
    filtered_drops: int
    rank_deficient: bool
    attempts: int
    deliveries: dict


def _corrupt(pkt, model: ErrorModel, rng: random.Random, p: int):
    if model.corrupt_packet_prob == 0.0 or rng.random() >= model.corrupt_packet_prob:
        return pkt
    pkt = list(pkt)
    if model.fixed_flips is not None:
        if model.fixed_flips > len(pkt):
            raise ValueError("fixed_flips exceeds the packet length")
        positions = rng.sample(range(len(pkt)), model.fixed_flips)
    else:
        positions = [i for i in range(len(pkt)) if rng.random() < model.bit_flip_prob]
    for i in positions:
        offset = 1 if p == 2 else rng.randrange(1, p)
        pkt[i] = (pkt[i] + offset) % p
    return tuple(pkt)


def run_trial(topology: Topology, setup: CodeSetup, message, error_model: ErrorModel,
              strategy: str, base_seed: int, trial: int, *,
              node_filter_mode: str = DETECT_ONLY,
              retry_full_rank: bool = False, max_attempts: int = 20) -> TrialOutcome:
    """One multicast: inject the codeword basis, mix, corrupt, decode at sinks."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if error_model.injection_node is not None and \
            error_model.injection_node not in dict(topology.nodes):
        raise ValueError(f"injection node {error_model.injection_node!r} is not in the topology")
    message = tuple(message)
    index = setup.by_message.get(message)
    if index is None:
        raise ValueError(f"message {message} is not in the codebook")
    rows = [tuple(r) for r in setup.codebook[index].rows]
    p = setup.p
    zero_packet = (0,) * setup.ambient_len

    attempts = 0
    rank_deficient = False
    while True:
        attempts += 1
        attempt = attempts - 1
        buffers = {topology.source: list(rows)}
        filtered_drops = 0
        deliveries = {}
        for node in topology.topo_order():
            buf = buffers.get(node, [])
            if error_model.injected_packets and error_model.injection_node == node:
                rng = stream(base_seed, trial, attempt, node, "inject")
                for _ in range(error_model.injected_packets):
                    buf.append(tuple(rng.randrange(p) for _ in range(setup.ambient_len)))
            if strategy == TWO_TIER_FILTER and topology.role(node) == INTERMEDIATE:
                if node_filter_mode == DETECT_ONLY:
                    radius = 0
                elif setup.options.radius is not None:
                    radius = setup.options.radius
                else:
                    radius = default_radius(setup.union.min_distance())
                kept = []
                for pkt in buf:
                    verdict = tier1_decode(pkt, setup.union, radius, node_filter_mode)
                    if verdict.outcome in (VALID, CORRECTED):
                        kept.append(verdict.vector)
                    else:
                        filtered_drops += 1
                buf = kept
            for edge in topology.out_edges(node):
                rng_mix = stream(base_seed, trial, attempt, f"{edge[0]}->{edge[1]}", "mix")
                if buf:
                    coeffs = [rng_mix.randrange(p) for _ in buf]
                    pkt = tuple(sum(c * row[i] for c, row in zip(coeffs, buf)) % p
                                for i in range(setup.ambient_len))
                else:
                    pkt = zero_packet
                rng_chan = stream(base_seed, trial, attempt, f"{edge[0]}->{edge[1]}", "chan")
                pkt = _corrupt(pkt, error_model, rng_chan, p)
                buffers.setdefault(edge[1], []).append(pkt)
            if node in topology.sinks:
                deliveries[node] = len(buffers.get(node, []))

        if not retry_full_rank or not error_model.error_free:
            break
        deficient = any(
            linalg.rank(buffers.get(s, [zero_packet]), p) < len(rows)
            for s in topology.sinks)
        if not deficient:
            break
        rank_deficient = True
        if attempts >= max_attempts:
            break

    sink_success = {}
    verdict_counts = {VALID: 0, CORRECTED: 0, "erased": 0, "rejected": 0}
    metric_values = []
    for sink in topology.sinks:
        packets = buffers.get(sink, [])
        if not packets:
            sink_success[sink] = False
            continue
        if strategy == TIER2_ONLY:
            result = tier2_subspace_decode(packets, setup.codebook, setup.options.metric)
        else:
            outcome = two_tier_decode(packets, setup.union, setup.codebook, setup.options)
            result = outcome.result
            for v in outcome.verdicts:
                verdict_counts[v.outcome] += 1
        if result.metric_value is not None:
            metric_values.append(result.metric_value)
        sink_success[sink] = (result.chosen is not None and
                              setup.codebook[result.chosen].message == message)
    return TrialOutcome(
        success=all(sink_success.values()) and bool(sink_success),
        sink_success=sink_success,
        verdict_counts=verdict_counts,
        metric_values=metric_values,
        filtered_drops=filtered_drops,
        rank_deficient=rank_deficient,
        attempts=attempts,
        deliveries=deliveries,
    )


def run_experiment(topology: Topology, setup: CodeSetup, error_model: ErrorModel,
                   trials: int, base_seed: int, strategies=STRATEGIES, *,
                   node_filter_mode: str = DETECT_ONLY,
                   retry_full_rank: bool = False, config_echo=None) -> dict:
    """Paired experiment: every strategy sees identical per-trial randomness."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if trials > MAX_TRIALS:
        raise BudgetError(f"{trials} trials exceed the limit {MAX_TRIALS}")
    strategies = tuple(strategies)
    for s in strategies:
        if s not in STRATEGIES:
            raise ValueError(f"unknown strategy {s!r}")

    messages = []
    for trial in range(trials):
        rng = stream(base_seed, trial, "message")
        messages.append(setup.codebook[rng.randrange(len(setup.codebook))].message)

    per_strategy = {}
    for strategy in strategies:
        success_by_trial = []
        verdict_counts = {VALID: 0, CORRECTED: 0, "erased": 0, "rejected": 0}
        metric_sum = 0
        metric_count = 0
        filtered_drops = 0
        rank_deficient_trials = 0
        for trial in range(trials):
            outcome = run_trial(topology, setup, messages[trial], error_model,
                                strategy, base_seed, trial,
                                node_filter_mode=node_filter_mode,
                                retry_full_rank=retry_full_rank)
            success_by_trial.append(1 if outcome.success else 0)
            for k, v in outcome.verdict_counts.items():
                verdict_counts[k] += v
            metric_sum += sum(outcome.metric_values)
            metric_count += len(outcome.metric_values)
            filtered_drops += outcome.filtered_drops
            rank_deficient_trials += 1 if outcome.rank_deficient else 0
        per_strategy[strategy] = {
            "trials": trials,
            "successes": sum(success_by_trial),
            "success_by_trial": success_by_trial,
            "tier1_verdicts": verdict_counts,
            "mean_tier2_metric": (metric_sum / metric_count) if metric_count else None,
            "filtered_drops": filtered_drops,
            "rank_deficient_trials": rank_deficient_trials,
        }

    return {
        "seeds": {"base": base_seed, "derivation": SEED_DERIVATION},
        "trials": trials,
        "strategies": per_strategy,
        "config": config_echo,
    }
