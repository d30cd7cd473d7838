"""Seeded simulator of random linear network coding over a DAG.

Every random draw comes from a named stream derived from
(base seed, trial, attempt, edge-or-node, purpose) via SHA-256, so a
report is a pure function of (config, seed). Channel corruption and
mixing use disjoint streams and never depend on the decoding strategy,
which makes per-trial comparisons between strategies paired. An experiment
therefore runs trial by trial, and the strategies of one trial share its
draws and, where intermediate nodes treat packets alike, its network pass
(:class:`TrialDraws`).
"""

import functools
import graphlib
import hashlib
import random
from dataclasses import dataclass

from . import linalg
from .codes import SUBSPACE, Codebook
from .decoders import (CORRECTED, DETECT_ONLY, ERASED, REJECTED, TIER1_MODES, VALID,
                       DecodeOptions, default_radius, tier1_decode, tier2_subspace_decode,
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
MAX_ATTEMPTS = 20       # network passes a trial makes at most when retry_full_rank reruns it


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

    # The simulator reads these on every node visit; they are built on
    # first use, so loading a topology costs no more.
    @functools.cached_property
    def sinks(self):
        return tuple(n for n, r in self.nodes if r == SINK)

    @functools.cached_property
    def _roles(self) -> dict:
        return dict(self.nodes)

    def role(self, node: str) -> str:
        return self._roles[node]

    def topo_order(self):
        return self._topo_order

    @functools.cached_property
    def _out_edges(self) -> dict:
        out = {n: [] for n, _ in self.nodes}
        for u, v in self.edges:
            out[u].append((u, v))
        return {n: tuple(edges) for n, edges in out.items()}

    def out_edges(self, node: str):
        return self._out_edges.get(node, ())


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
    codebook: Codebook
    union: UnionCode
    options: DecodeOptions = DecodeOptions()

    def __post_init__(self):
        if self.codebook.kind != SUBSPACE:
            raise ValueError("the simulator covers subspace-kind codes only")

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


def _verdict_counts() -> dict:
    """A zero count for each tier-1 outcome."""
    return dict.fromkeys((VALID, CORRECTED, ERASED, REJECTED), 0)


def _corruption(model: ErrorModel, rng: random.Random, p: int, n: int):
    """The (position, offset) pairs a channel adds to a length-n packet, or None.

    The draws never read the packet, so one edge's pattern serves every
    strategy's packet on that edge.
    """
    if model.corrupt_packet_prob == 0.0 or rng.random() >= model.corrupt_packet_prob:
        return None
    if model.fixed_flips is not None:
        positions = rng.sample(range(n), model.fixed_flips)
    else:
        positions = [i for i in range(n) if rng.random() < model.bit_flip_prob]
    return tuple((i, 1 if p == 2 else rng.randrange(1, p)) for i in positions)


def _corrupt(pkt, flips, p: int):
    if flips is None:
        return pkt
    pkt = list(pkt)
    for i, offset in flips:
        pkt[i] = (pkt[i] + offset) % p
    return tuple(pkt)


@dataclass
class _Network:
    buffers: dict
    filtered_drops: int
    attempts: int
    rank_deficient: bool
    deliveries: dict


class TrialDraws:
    """One trial's random draws and network passes, shared by every strategy.

    No draw depends on the strategy: injected packets are made per
    (attempt, node); a node that forwards k packets over an edge reads the
    first k draws of that edge's mix stream, which a filtering node with a
    shorter buffer shares as a prefix; the corruption pattern of an edge
    does not read the packet. The network itself depends on the strategy
    only through whether intermediate nodes filter, so ``networks`` holds
    at most two passes. One instance serves one trial of one experiment.
    """

    def __init__(self, base_seed: int, trial: int, p: int, n: int):
        self.base_seed = base_seed
        self.trial = trial
        self.p = p
        self.n = n
        self.networks = {}      # intermediate nodes filter -> _Network
        self.index = None       # the sent message's codebook index, once read
        self._inject = {}
        self._mix = {}
        self._chan = {}

    def injected(self, attempt: int, node: str, count: int):
        key = (attempt, node)
        if key not in self._inject:
            rng = stream(self.base_seed, self.trial, attempt, node, "inject")
            self._inject[key] = [tuple(rng.randrange(self.p) for _ in range(self.n))
                                 for _ in range(count)]
        return self._inject[key]

    def coefficients(self, attempt: int, edge: str, k: int):
        """The first k draws of the edge's mix stream."""
        key = (attempt, edge)
        entry = self._mix.get(key)
        if entry is None:
            entry = self._mix[key] = (stream(self.base_seed, self.trial, attempt, edge, "mix"), [])
        rng, coeffs = entry
        while len(coeffs) < k:
            coeffs.append(rng.randrange(self.p))
        return coeffs[:k]

    def corruption(self, attempt: int, edge: str, model: ErrorModel):
        key = (attempt, edge)
        if key not in self._chan:
            rng = stream(self.base_seed, self.trial, attempt, edge, "chan")
            self._chan[key] = _corruption(model, rng, self.p, self.n)
        return self._chan[key]


def _network(topology: Topology, setup: CodeSetup, rows, error_model: ErrorModel,
             draws: TrialDraws, filtering: bool, node_filter_mode: str,
             retry_full_rank: bool) -> _Network:
    """Inject the codeword basis, mix, corrupt; retry rank-deficient clean runs."""
    p = setup.p
    zero_packet = (0,) * setup.ambient_len
    radius = 0
    if filtering and node_filter_mode != DETECT_ONLY and \
            INTERMEDIATE in topology._roles.values():
        radius = setup.options.radius
        if radius is None:
            radius = default_radius(setup.union.min_distance())

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
                buf.extend(draws.injected(attempt, node, error_model.injected_packets))
            if filtering and topology.role(node) == INTERMEDIATE:
                kept = []
                for pkt in buf:
                    verdict = tier1_decode(pkt, setup.union, radius, node_filter_mode)
                    if verdict.outcome in (VALID, CORRECTED):
                        kept.append(verdict.vector)
                    else:
                        filtered_drops += 1
                buf = kept
            for edge in topology.out_edges(node):
                name = f"{edge[0]}->{edge[1]}"
                coeffs = draws.coefficients(attempt, name, len(buf))
                if buf:
                    pkt = tuple(sum(col) % p for col in
                                zip(*[[c * x for x in row] for c, row in zip(coeffs, buf)]))
                else:
                    pkt = zero_packet
                pkt = _corrupt(pkt, draws.corruption(attempt, name, error_model), p)
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
        if attempts >= MAX_ATTEMPTS:
            break
    return _Network(buffers, filtered_drops, attempts, rank_deficient, deliveries)


def run_trial(topology: Topology, setup: CodeSetup, message, error_model: ErrorModel,
              strategy: str, base_seed: int, trial: int, *,
              node_filter_mode: str = DETECT_ONLY,
              retry_full_rank: bool = False,
              draws: TrialDraws | None = None) -> TrialOutcome:
    """One multicast: inject the codeword basis, mix, corrupt, decode at sinks.

    `draws` carries this trial's draws and network passes from the other
    strategies of a paired experiment; without it the trial makes its own.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if error_model.injection_node is not None and \
            error_model.injection_node not in topology._roles:
        raise ValueError(f"injection node {error_model.injection_node!r} is not in the topology")
    if error_model.fixed_flips is not None and error_model.fixed_flips > setup.ambient_len:
        raise ValueError("fixed_flips exceeds the packet length")
    if draws is None:
        draws = TrialDraws(base_seed, trial, setup.p, setup.ambient_len)
    if draws.index is None:
        draws.index = setup.codebook.index(message)
    index = draws.index
    filtering = strategy == TWO_TIER_FILTER
    net = draws.networks.get(filtering)
    if net is None:
        rows = [tuple(r) for r in setup.codebook.stack[index].tolist()]
        net = draws.networks[filtering] = _network(
            topology, setup, rows, error_model, draws, filtering, node_filter_mode,
            retry_full_rank)

    sink_success = {}
    verdict_counts = _verdict_counts()
    metric_values = []
    for sink in topology.sinks:
        packets = net.buffers[sink]
        if strategy == TIER2_ONLY:
            result = tier2_subspace_decode(packets, setup.codebook, setup.options.metric)
        else:
            outcome = two_tier_decode(packets, setup.union, setup.codebook, setup.options)
            result = outcome.result
            for v in outcome.verdicts:
                verdict_counts[v.outcome] += 1
        if result.metric_value is not None:
            metric_values.append(result.metric_value)
        sink_success[sink] = result.chosen == index
    return TrialOutcome(
        success=all(sink_success.values()) and bool(sink_success),
        sink_success=sink_success,
        verdict_counts=verdict_counts,
        metric_values=metric_values,
        filtered_drops=net.filtered_drops,
        rank_deficient=net.rank_deficient,
        attempts=net.attempts,
        deliveries=dict(net.deliveries),
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
    if node_filter_mode not in TIER1_MODES:
        raise ValueError(f"unknown tier-1 mode {node_filter_mode!r}")

    strategies = tuple(dict.fromkeys(strategies))  # a repeat would report the same numbers
    per_strategy = {s: {"trials": trials, "successes": 0, "success_by_trial": [],
                        "tier1_verdicts": _verdict_counts(),
                        "mean_tier2_metric": None, "filtered_drops": 0,
                        "rank_deficient_trials": 0}
                    for s in strategies}
    metric_values = {s: [] for s in strategies}
    for trial in range(trials):
        rng = stream(base_seed, trial, "message")
        message = setup.codebook.message(rng.randrange(len(setup.codebook)))
        draws = TrialDraws(base_seed, trial, setup.p, setup.ambient_len)
        for strategy in strategies:
            outcome = run_trial(topology, setup, message, error_model,
                                strategy, base_seed, trial,
                                node_filter_mode=node_filter_mode,
                                retry_full_rank=retry_full_rank, draws=draws)
            stats = per_strategy[strategy]
            stats["success_by_trial"].append(1 if outcome.success else 0)
            for k, v in outcome.verdict_counts.items():
                stats["tier1_verdicts"][k] += v
            metric_values[strategy] += outcome.metric_values
            stats["filtered_drops"] += outcome.filtered_drops
            stats["rank_deficient_trials"] += 1 if outcome.rank_deficient else 0

    for strategy, stats in per_strategy.items():
        stats["successes"] = sum(stats["success_by_trial"])
        if metric_values[strategy]:
            stats["mean_tier2_metric"] = sum(metric_values[strategy]) / len(metric_values[strategy])

    return {
        "seeds": {"base": base_seed, "derivation": SEED_DERIVATION},
        "trials": trials,
        "strategies": per_strategy,
        "config": config_echo,
    }
