"""Seeded simulator of random linear network coding over a DAG.

Every random draw is a pure function of (base seed, edge-or-node, purpose,
trial, attempt, index), counter-based as in Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3" (SC11): SHA-256 gives a 64-bit key per (base
seed, edge-or-node, purpose), and a draw is the SplitMix64 finaliser of
``key + GAMMA * counter`` (mod 2^64), where the counter packs (trial,
attempt, retry, index) into the bit fields of one uint64. A report is then
a pure function of (config, seed), and :func:`stream` draws a whole block
of trials as one array. Channel corruption and mixing use disjoint keys and
never depend on the decoding strategy, which makes per-trial comparisons
between strategies paired.

An experiment runs in blocks of up to ``BLOCK_TRIALS`` trials
(:class:`TrialBlock`), and the strategies share what they can:

* per block and (purpose, edge-or-node), one :func:`stream` call makes
  every trial's first-attempt draws, whichever strategies read them;
* per block, one numpy network pass carries every trial's packets for each
  filtering flag (at most two passes, since the strategies differ in the
  network only by whether intermediate nodes filter);
* one tier-1 step scrubs the words at a filtering node and at a sink; per
  strategy and sink, one batched decode takes the block's sink words.

Tier 1 runs once per distinct packet and tier-1 setting, and tier 2 once
per distinct input and tier-2 setting, while their owners have room: the
union keeps its verdicts (``UnionCode.verdicts``) and the codebook its
results (``Codebook.results``) across blocks and experiments, up to
``decoders.MEMO_ENTRIES`` entries each. Each strategy's outcomes are kept
as arrays until the report is built.
"""

import dataclasses
import functools
import graphlib
import hashlib
from dataclasses import dataclass

import numpy as np

from . import decoders, linalg
from .codes import SUBSPACE, Codebook
from .decoders import DETECT_ONLY, TIER1_MODES, TIER1_OUTCOMES, DecodeOptions
from .errors import BudgetError
from .union import UnionCode

TIER2_ONLY = "tier2-only"
TWO_TIER = "two-tier"
TWO_TIER_FILTER = "two-tier+node-filter"
STRATEGIES = (TIER2_ONLY, TWO_TIER, TWO_TIER_FILTER)
# The defaults of the sim section's settings beside its trials, which
# config.SCHEMA, run_experiment and run_trial read
DEFAULTS = {"strategies": STRATEGIES, "node_filter_mode": DETECT_ONLY, "retry_full_rank": False}

SOURCE = "source"
INTERMEDIATE = "intermediate"
SINK = "sink"

MAX_TRIALS = 1_000_000
MAX_ATTEMPTS = 20       # network passes a trial makes at most when retry_full_rank reruns it
BLOCK_TRIALS = 1024     # trials whose draws, network passes and decodes run together

# The counter of a draw: bit fields of one uint64, high to low. MAX_TRIALS
# and MAX_ATTEMPTS fit their fields, and `stream` refuses what does not.
TRIAL_BITS, ATTEMPT_BITS, RETRY_BITS, INDEX_BITS = 20, 5, 7, 32
GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's odd increment: counter -> key + GAMMA * counter is 1-1
SEED_DERIVATION = ("key = sha256(base|edge-or-node|purpose)[:8]; draw = splitmix64(key + "
                   "0x9e3779b97f4a7c15 * (trial<<44 | attempt<<39 | retry<<32 | index))")


@functools.lru_cache(maxsize=256)
def draw_key(base_seed: int, name: str, purpose: str) -> int:
    """The 64-bit key of the draws of one (edge-or-node, purpose) under a
    base seed of any size: a handful of hashes per experiment."""
    digest = hashlib.sha256(f"{base_seed}|{name}|{purpose}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _splitmix(z):
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)


def stream(key: int, trials, attempt: int, count: int, below: int = 0):
    """Draws 0..count-1 of one key at one attempt for each of `trials`, as a
    (len(trials), count) uint64 array: entry (i, j) is the draw at index j
    of trial trials[i], whatever `count` is.

    With `below`, each draw is an exactly uniform integer in [0, below),
    by a 32-bit multiply-shift of its top 32 bits; the rare rejected one is
    drawn again at the next retry. BudgetError when a value does not fit
    its counter field, so no two draws share a counter.
    """
    trials = np.asarray(trials, dtype=np.int64).astype(np.uint64)  # a negative one wraps high
    if len(trials) and trials.max() >> TRIAL_BITS:
        raise BudgetError(f"trial numbers must lie in [0, 2^{TRIAL_BITS})")
    if not 0 <= attempt < 1 << ATTEMPT_BITS:
        raise BudgetError(f"attempt {attempt} outside [0, 2^{ATTEMPT_BITS})")
    if count > 1 << INDEX_BITS or below > 1 << 32:
        raise BudgetError(f"{count} draws below {below} exceed the 32-bit draw fields")
    counters = ((trials << (ATTEMPT_BITS + RETRY_BITS + INDEX_BITS) |
                 attempt << (RETRY_BITS + INDEX_BITS))[:, None] |
                np.arange(count, dtype=np.uint64))
    words = _splitmix(counters * GAMMA + key)
    if not below:
        return words
    words = (words >> 32) * below
    threshold = (1 << 32) % below       # 0 when below divides 2^32
    rejected = (words & 0xFFFFFFFF) < threshold
    retry = 0
    while rejected.any():
        retry += 1
        if retry >> RETRY_BITS:
            raise BudgetError(f"draws below {below} rejected {retry} times")
        redrawn = (_splitmix((counters[rejected] + (retry << INDEX_BITS)) * GAMMA + key) >> 32) \
            * below
        words[rejected] = redrawn
        rejected[rejected] = (redrawn & 0xFFFFFFFF) < threshold
    return words >> 32


def _unit(words):
    """Draws as floats in [0, 1): their top 53 bits, exactly."""
    return (words >> 11) * 2.0 ** -53


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
        joined = sorted(n for n in roles if "->" in n)
        if joined:
            # an edge's draws are keyed by its name "u->v", which must name one edge
            raise ValueError(f"node names must not contain '->', got {joined}")
        bad = {r for r in roles.values()} - {SOURCE, INTERMEDIATE, SINK}
        if bad:
            raise ValueError(f"unknown node roles {sorted(bad)}")
        sources = [n for n, r in self.nodes if r == SOURCE]
        if len(sources) != 1:
            raise ValueError(f"need exactly one source, got {len(sources)}")
        sinks = tuple(n for n, r in self.nodes if r == SINK)
        if not sinks:
            raise ValueError("need at least one sink")
        graph, out = {n: [] for n in roles}, {n: [] for n in roles}
        for u, v in self.edges:
            if u not in roles or v not in roles:
                raise ValueError(f"edge ({u}, {v}) references unknown node")
            graph[v].append(u)  # predecessors, as graphlib expects
            out[u].append((u, v))
        if graph[sources[0]]:
            raise ValueError("source must have in-degree zero")
        try:
            order = tuple(graphlib.TopologicalSorter(graph).static_order())
        except graphlib.CycleError as exc:
            raise ValueError("topology contains a cycle") from exc
        reachable = {sources[0]}
        for u, v in sorted(self.edges, key=lambda e: order.index(e[0])):
            if u in reachable:
                reachable.add(v)
        for n in sinks:
            if n not in reachable:
                raise ValueError(f"sink {n} is not reachable from the source")
        object.__setattr__(self, "roles", roles)       # node -> role
        object.__setattr__(self, "source", sources[0])
        object.__setattr__(self, "sinks", sinks)
        object.__setattr__(self, "_topo_order", order)
        object.__setattr__(self, "_out_edges", {n: tuple(e) for n, e in out.items()})

    def role(self, node: str) -> str:
        return self.roles[node]

    def topo_order(self):
        return self._topo_order

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


def _check_inputs(topology: Topology, setup: CodeSetup, error_model: ErrorModel, strategies,
                  node_filter_mode: str):
    """The checks that come before any draw."""
    unknown = [s for s in strategies if s not in STRATEGIES]
    if unknown:
        raise ValueError(f"unknown strategies {unknown}, a strategy being one of "
                         f"{', '.join(STRATEGIES)}")
    if node_filter_mode not in TIER1_MODES:
        raise ValueError(f"unknown tier-1 mode {node_filter_mode!r}")
    if error_model.injection_node is not None and \
            error_model.injection_node not in topology.roles:
        raise ValueError(f"injection node {error_model.injection_node!r} is not in the topology")
    if error_model.fixed_flips is not None and error_model.fixed_flips > setup.ambient_len:
        raise ValueError("fixed_flips exceeds the packet length")


@dataclass(frozen=True)
class _Layout:
    """Where a network pass keeps its packets: one (trials, slots, n) array.

    Each node's buffer is a run of slots: the codeword's rows at the
    source, otherwise one slot per in-edge in the order the packets
    arrive, then the injected packets. A node sends over its out-edges in
    `edges` order, which is the order of the nodes, and each packet goes
    straight to its slot at the edge's head.
    """
    edges: tuple        # edge names "u->v", in sending order
    mix: tuple          # coefficients each edge draws: its tail's buffer width
    width: int          # the widest buffer that sends
    slots: int
    source: int         # the slot of the source's first row
    injected: int       # packets injected per trial and attempt
    steps: tuple        # per node in order: (lo, hi, injects, filters, edges, heads)
    sinks: dict         # sink -> (lo, hi), in declared order


def _layout(topology: Topology, rows: int, error_model: ErrorModel) -> _Layout:
    order = topology.topo_order()
    sent = [e for u in order for e in topology.out_edges(u)]
    incoming = {v: [] for v in order}
    for e in sent:
        incoming[e[1]].append(e)
    injected = error_model.injected_packets
    inject_at = error_model.injection_node if injected else None
    bounds, head, slots = {}, {}, 0
    for v in order:
        lo = slots
        if v == topology.source:
            slots += rows
        for e in incoming[v]:
            head[e] = slots
            slots += 1
        if v == inject_at:
            slots += injected
        bounds[v] = (lo, slots)
    steps, first = [], 0
    for u in order:
        out = topology.out_edges(u)
        steps.append((*bounds[u], u == inject_at, topology.role(u) == INTERMEDIATE,
                      slice(first, first + len(out)), [head[e] for e in out]))
        first += len(out)
    mix = tuple(bounds[u][1] - bounds[u][0] for u, _ in sent)
    sinks = {v: bounds[v] for v in topology.sinks}
    return _Layout(edges=tuple(f"{u}->{v}" for u, v in sent), mix=mix,
                   width=max(mix, default=0), slots=slots,
                   source=bounds[topology.source][0], injected=injected, steps=tuple(steps),
                   sinks=sinks)


@dataclass
class _Network:
    packets: np.ndarray         # (trials, slots, n): every slot's packet
    filtered_drops: np.ndarray  # per trial, as are the others
    attempts: np.ndarray
    rank_deficient: np.ndarray


class TrialBlock:
    """A block of trials of one experiment, with their draws, network
    passes and decodes, shared by every strategy.

    No draw depends on the strategy. An edge draws as many mixing
    coefficients as its tail's buffer can hold, and a node that forwards
    k packets reads the first k of them, so a filtering node with a
    shorter buffer reads a prefix of the same draws; the corruption
    pattern of an edge does not read the packet; injected packets are made
    per (attempt, node). One :func:`stream` call per (purpose,
    edge-or-node) makes the first attempt's draws of every trial, which
    both passes read; a retry draws for the trials its pass reruns.
    The network depends on the strategy only through whether intermediate
    nodes filter, so ``networks`` holds at most two passes, each run for
    the whole block at once. ``decoders._tier1_block`` scrubs a filtering
    node's buffer and, in ``decoders._decode_block``, a sink's words,
    reading and filling the verdicts that the union keeps and the tier-2
    results that the codebook keeps, so a packet or an input met in an
    earlier block or experiment is not decoded again while they have room.
    One instance serves one block of one experiment and is dropped with it.
    """

    def __init__(self, topology: Topology, setup: CodeSetup, error_model: ErrorModel,
                 base_seed: int, trials, indices, *, node_filter_mode: str, retry_full_rank: bool):
        self.setup = setup
        self.error_model = error_model
        self.base_seed = base_seed
        self.trials = trials            # trial numbers: a range or a tuple
        self.indices = np.asarray(indices, dtype=np.int64)  # each trial's message index
        self.node_filter_mode = node_filter_mode
        self.retry_full_rank = retry_full_rank
        self.layout = _layout(topology, setup.codebook.stack.shape[1], error_model)
        self.networks = {}              # intermediate nodes filter -> _Network
        self._first = None              # the first attempt's draws, which every pass reads

    def _stream(self, name: str, purpose: str, trials, attempt: int, count: int, below: int = 0):
        return stream(draw_key(self.base_seed, name, purpose), trials, attempt, count, below)

    def _offsets(self, name: str, trials, attempt: int):
        """Each trial's corruption offsets on one edge, (trials, n): nonzero
        at the flipped positions of the packets the channel corrupts."""
        model, p, n = self.error_model, self.setup.p, self.setup.ambient_len
        hit = _unit(self._stream(name, "corrupt", trials, attempt, 1)) < model.corrupt_packet_prob
        if model.fixed_flips is None:
            flip = _unit(self._stream(name, "flip", trials, attempt, n)) < model.bit_flip_prob
        else:
            # the first fixed_flips positions of a random order: distinct ones
            order = np.argsort(self._stream(name, "order", trials, attempt, n), axis=1,
                               kind="stable")
            flip = np.zeros((len(trials), n), dtype=bool)
            np.put_along_axis(flip, order[:, :model.fixed_flips], True, axis=1)
        flip &= hit
        if p == 2:
            return flip
        return np.where(flip, self._stream(name, "offset", trials, attempt, n, p - 1) + 1, 0)

    def _arrays(self, attempt: int, positions):
        """Coefficients (trials, edges, width), corruption offsets
        (trials, edges, n) and injected packets (trials, injected, n) of the
        trials at `positions`."""
        lay, p, n = self.layout, self.setup.p, self.setup.ambient_len
        trials = np.asarray(self.trials)[positions]
        coeffs = np.zeros((len(trials), len(lay.edges), lay.width), dtype=np.int64)
        offsets = np.zeros((len(trials), len(lay.edges), n), dtype=np.int64)
        for e, (name, k) in enumerate(zip(lay.edges, lay.mix)):
            coeffs[:, e, :k] = self._stream(name, "mix", trials, attempt, k, p)
            if self.error_model.corrupt_packet_prob:
                offsets[:, e] = self._offsets(name, trials, attempt)
        injected = np.zeros((len(trials), 0, n), dtype=np.int64)
        if lay.injected:
            injected = self._stream(self.error_model.injection_node, "inject", trials, attempt,
                                    lay.injected * n, p).reshape(len(trials), lay.injected, n)
        return coeffs, offsets, injected

    def _pass(self, drawn, positions, radius):
        """One network pass of the trials at `positions` on their draws
        (`_arrays`), intermediate nodes filtering at tier-1 `radius` if it
        is set: every slot's packet and each trial's filtered drops."""
        lay, p, stack = self.layout, self.setup.p, self.setup.codebook.stack
        coeffs, offsets, injected = drawn
        packets = np.zeros((len(positions), lay.slots, self.setup.ambient_len), dtype=np.int64)
        packets[:, lay.source:lay.source + stack.shape[1]] = \
            stack[self.indices[positions]]
        drops = np.zeros(len(positions), dtype=np.int64)
        for lo, hi, injects, filters, edges, heads in lay.steps:
            if injects:
                packets[:, hi - lay.injected:hi] = injected
            buf = packets[:, lo:hi]
            if radius is not None and filters:
                # the slots past a trial's kept packets hold zeros, so they
                # add nothing, whatever coefficients they meet
                buf, kept, _, _ = decoders._tier1_block(buf, self.setup.union, radius,
                                                        self.node_filter_mode)
                drops += hi - lo - kept
            if heads:
                packets[:, heads] = (coeffs[:, edges, :hi - lo] @ buf + offsets[:, edges]) % p
        return packets, drops

    def network(self, filtering: bool) -> _Network:
        """The block's network pass with or without node filtering, run
        once: inject the codeword basis, mix, corrupt; rerun the trials
        whose clean run leaves a sink rank-deficient, at the next attempt."""
        if filtering in self.networks:
            return self.networks[filtering]
        setup, lay, radius = self.setup, self.layout, None
        if filtering:       # a node that only detects corrects nothing: radius 0
            radius = 0 if self.node_filter_mode == DETECT_ONLY else \
                decoders.tier1_radius(setup.options, setup.union)
        todo = np.arange(len(self.trials))
        if self._first is None:
            self._first = self._arrays(0, todo)
        packets, drops = self._pass(self._first, todo, radius)
        attempts = np.ones(len(todo), dtype=np.int64)
        deficient = np.zeros(len(todo), dtype=bool)
        if self.retry_full_rank and self.error_model.error_free:
            rows, current, attempt = setup.codebook.stack.shape[1], packets, 0
            while True:
                short = np.zeros(len(todo), dtype=bool)
                for lo, hi in lay.sinks.values():
                    short |= linalg.batched_rank(current[:, lo:hi], setup.p) < rows
                todo = todo[short]
                if not len(todo):
                    break
                deficient[todo] = True
                attempt += 1
                if attempt >= MAX_ATTEMPTS:
                    break
                current, drops[todo] = self._pass(self._arrays(attempt, todo), todo, radius)
                packets[todo] = current
                attempts[todo] = attempt + 1
        net = self.networks[filtering] = _Network(packets, drops, attempts, deficient)
        return net

    def decode_sinks(self, strategy: str):
        """(chosen, metric, counts) of the strategy over the block: each
        trial's codeword and tier-2 metric value at each sink, (trials,
        sinks) in declared order, -1 for none, and its tier-1
        outcome counts over the sinks, (trials, 4) in TIER1_OUTCOMES order.
        Tier 2 alone decodes the packets, nearest codeword only."""
        options = self.setup.options
        if strategy == TIER2_ONLY:
            options = dataclasses.replace(options, tier1_enabled=False, list_radius=None,
                                          feedback=False)
        packets = self.network(strategy == TWO_TIER_FILTER).packets
        chosen, metric, counts = zip(*(
            decoders._decode_block(packets[:, lo:hi], self.setup.union, self.setup.codebook,
                                   options)
            for lo, hi in self.layout.sinks.values()))
        return np.stack(chosen, axis=1), np.stack(metric, axis=1), sum(counts)


def run_trial(topology: Topology, setup: CodeSetup, message, error_model: ErrorModel,
              strategy: str, base_seed: int, trial: int, *,
              node_filter_mode: str = DEFAULTS["node_filter_mode"],
              retry_full_rank: bool = DEFAULTS["retry_full_rank"]) -> TrialOutcome:
    """One multicast: inject the codeword basis, mix, corrupt, decode at
    sinks; a :class:`TrialBlock` of one trial."""
    _check_inputs(topology, setup, error_model, (strategy,), node_filter_mode)
    index = setup.codebook.index(message)
    block = TrialBlock(topology, setup, error_model, base_seed, (trial,), (index,),
                       node_filter_mode=node_filter_mode, retry_full_rank=retry_full_rank)
    chosen, metric, counts = (a[0].tolist() for a in block.decode_sinks(strategy))
    net = block.network(strategy == TWO_TIER_FILTER)
    sink_success = {sink: c == index for sink, c in zip(block.layout.sinks, chosen)}
    return TrialOutcome(
        success=all(sink_success.values()),
        sink_success=sink_success,
        verdict_counts=dict(zip(TIER1_OUTCOMES, counts)),
        metric_values=[m for m in metric if m >= 0],
        filtered_drops=int(net.filtered_drops[0]),
        rank_deficient=bool(net.rank_deficient[0]),
        attempts=int(net.attempts[0]),
        deliveries={sink: hi - lo for sink, (lo, hi) in block.layout.sinks.items()},
    )


def run_experiment(topology: Topology, setup: CodeSetup, error_model: ErrorModel,
                   trials: int, base_seed: int, strategies=DEFAULTS["strategies"], *,
                   node_filter_mode: str = DEFAULTS["node_filter_mode"],
                   retry_full_rank: bool = DEFAULTS["retry_full_rank"], config_echo=None) -> dict:
    """Paired experiment: every strategy sees identical per-trial randomness.

    Trials run in blocks of up to ``BLOCK_TRIALS`` (:class:`TrialBlock`),
    and each block's outcomes are kept as arrays, per strategy, until the
    report is built.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if trials > MAX_TRIALS:
        raise BudgetError(f"{trials} trials exceed the limit {MAX_TRIALS}")
    strategies = tuple(strategies)
    if not strategies:
        raise ValueError("no strategies to run")
    _check_inputs(topology, setup, error_model, strategies, node_filter_mode)

    strategies = tuple(dict.fromkeys(strategies))  # a repeat would report the same numbers
    kept = {s: [] for s in strategies}      # per block: (success, counts, metric, drops, deficient)
    message_key = draw_key(base_seed, "", "message")
    for start in range(0, trials, BLOCK_TRIALS):
        block_trials = range(start, min(start + BLOCK_TRIALS, trials))
        indices = stream(message_key, block_trials, 0, 1, len(setup.codebook))[:, 0]
        block = TrialBlock(topology, setup, error_model, base_seed, block_trials, indices,
                           node_filter_mode=node_filter_mode, retry_full_rank=retry_full_rank)
        for strategy in strategies:
            chosen, metric, counts = block.decode_sinks(strategy)
            net = block.network(strategy == TWO_TIER_FILTER)
            kept[strategy].append(((chosen == block.indices[:, None]).all(axis=1), counts, metric,
                                   net.filtered_drops, net.rank_deficient))

    per_strategy = {}
    for strategy, blocks in kept.items():
        success, counts, metric, drops, deficient = map(np.concatenate, zip(*blocks))
        metric = metric[metric >= 0]
        per_strategy[strategy] = {
            "trials": trials,
            "successes": int(success.sum()),
            "success_by_trial": success.astype(np.int64).tolist(),
            "tier1_verdicts": dict(zip(TIER1_OUTCOMES, counts.sum(axis=0).tolist())),
            # an exact int sum over the count: a float sum could differ in the last digit
            "mean_tier2_metric": int(metric.sum()) / len(metric) if len(metric) else None,
            "filtered_drops": int(drops.sum()),
            "rank_deficient_trials": int(deficient.sum()),
        }

    return {
        "seeds": {"base": base_seed, "derivation": SEED_DERIVATION},
        "trials": trials,
        "strategies": per_strategy,
        "config": config_echo,
    }
