"""Workloads: inputs made from a seed, the phases that run them, and checks.

Every workload has three phases. Set-up loads the config and builds the
field, codebook and union (plus the simulator's CodeSetup). Verify runs
``verify_lemmas`` on the union just built. Work is a closed loop with one
client: it sends the next decode request, or the next chunk of simulated
trials, only after the previous one has returned.

The program only ever sees configs and packet lists; the randomness of the
requests comes from the benchmark's own seed.
"""

import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from twotier import config as tt_config
from twotier import decoders, sim
from twotier import union as tt_union

import checks

CONFIGS = Path(__file__).resolve().parent / "configs"

# Error rates stay low so that most requests cost the same: a packet that
# stays in the union off the sent subspace (or a rank error that tier 1
# erases) moves a decode's time by up to half, and a mix near half and half
# would make the median latency jump between seeds.
FLIP_PROB = 0.05       # subspace requests: chance a packet has one digit changed
INJECT_PROB = 0.2      # subspace requests: chance of one uniformly random extra packet
RANK_ERROR_PROB = 0.2  # rank-metric requests: chance of a rank-1 error
CHUNK_TRIALS = 50      # trials per run_experiment call in the simulator loop
REFERENCE_TRIALS = 200  # trials of the report that is rerun and digested


@dataclass(frozen=True)
class Workload:
    name: str
    config: str                 # file under configs/
    simulate: bool
    setup_reps: int             # untraced set-ups
    verify_reps: int            # verifies after each untraced set-up
    traced_ops_per_s: float     # requests (or chunks) per --seconds in a traced run
    digest_ops: int             # leading results covered by the output digest
    expected_cardinality: int | None = None


WORKLOADS = {w.name: w for w in (
    # |U| = (q^l-1)q^m+1 = 3 * 2^7 + 1 (L6)
    Workload("kk-decode", "kk-gf128.json", False, 3, 5, 0.3, 8, expected_cardinality=385),
    Workload("mv1-sim", "mv1.json", True, 101, 1, 4.0, 0),
    Workload("gab-list-feedback", "gab-gf64.json", False, 7, 5, 0.5, 16),
)}


@dataclass
class Built:
    cfg: object
    spec: object
    codebook: list
    union: object
    options: object
    sim_args: tuple = ()
    sim_kwargs: dict = field(default_factory=dict)


def build(path, simulate):
    """The set-up phase: everything a decode or a trial needs."""
    cfg = tt_config.load_config(path)
    _, spec, codebook, union = cfg.build_all()
    built = Built(cfg, spec, codebook, union, cfg.decode_options())
    if simulate:
        params = cfg.sim_params()
        code_setup = sim.CodeSetup(codebook=codebook, union=union, options=built.options)
        built.sim_args = (cfg.topology(), code_setup, cfg.error_model())
        built.sim_kwargs = {"strategies": params["strategies"],
                            "node_filter_mode": params["node_filter_mode"],
                            "retry_full_rank": params["retry_full_rank"],
                            "config_echo": cfg.echo()}
    return built


def verify(built, fresh=False):
    """The verify phase: the claim checks on the union just built.

    With `fresh`, on a new UnionCode over the same vectors and components,
    whose distance and matrix caches are unset as after a build.
    """
    union = built.union
    if fresh:
        union = tt_union.UnionCode(union.provenance, union.components, union.ambient_len,
                                   union.p)
    return tt_union.verify_lemmas(built.spec, union)


# ---------------------------------------------------------------- requests

def _random_vector(rng, p, n):
    return tuple(rng.randrange(p) for _ in range(n))


def subspace_request(rng, codebook, p):
    """r+2 random combinations of a codeword's r rows, with channel errors.

    Combinations are redrawn until they span the codeword. Each packet then
    has one digit changed with FLIP_PROB, and with INJECT_PROB one uniformly
    random packet joins at a random position.
    """
    index = rng.randrange(len(codebook))
    rows = codebook[index].rows
    width = len(rows[0])
    while True:
        packets = []
        for _ in range(len(rows) + 2):
            coeffs = [rng.randrange(p) for _ in rows]
            packets.append(tuple(sum(c * row[i] for c, row in zip(coeffs, rows)) % p
                                 for i in range(width)))
        if checks.gfp_rank(packets, p) == len(rows):
            break
    for j, pkt in enumerate(packets):
        if rng.random() < FLIP_PROB:
            pos = rng.randrange(width)
            pkt = list(pkt)
            pkt[pos] = (pkt[pos] + rng.randrange(1, p)) % p
            packets[j] = tuple(pkt)
    if rng.random() < INJECT_PROB:
        packets.insert(rng.randrange(len(packets) + 1), _random_vector(rng, p, width))
    return index, packets


def rank_request(rng, codebook, p):
    """A nonzero codeword's symbol rows; with RANK_ERROR_PROB one random
    nonzero vector is added to a random nonempty subset of positions (rank 1).

    The zero codeword is never sent: with feedback on, its decode raises (see
    zero_codeword_probe), and a workload must be one on which no operation
    fails. Each run probes that defect and prints what it found.
    """
    index = rng.randrange(len(codebook))
    while not any(map(any, codebook[index].rows)):
        index = rng.randrange(len(codebook))
    rows = [tuple(r) for r in codebook[index].rows]
    if rng.random() < RANK_ERROR_PROB:
        width = len(rows[0])
        error = (0,) * width
        while not any(error):
            error = _random_vector(rng, p, width)
        subset = []
        while not subset:
            subset = [i for i in range(len(rows)) if rng.random() < 0.5]
        for i in subset:
            rows[i] = tuple((a + e) % p for a, e in zip(rows[i], error))
    return index, rows


def make_request(rng, built):
    """(index of the codeword sent, packets received) for the built code."""
    make = rank_request if built.codebook[0].kind == "gabidulin" else subspace_request
    return make(rng, built.codebook, built.union.p)


def zero_codeword_probe(built):
    """What feedback decoding of the zero codeword does, or None if the
    workload decodes no rank-metric code with feedback.

    The list then holds the zero codeword alone, whose component is the
    single zero vector, so the restricted union has one vector and its
    min_distance raises ValueError: a defect of the program, left to a
    change of the program and kept out of the timed requests.
    """
    codebook = built.codebook
    if codebook[0].kind != "gabidulin" or not built.options.feedback:
        return None
    zero = next((cw for cw in codebook if not any(map(any, cw.rows))), None)
    if zero is None:
        return None
    try:
        decoders.two_tier_decode([tuple(r) for r in zero.rows], built.union, codebook,
                                 built.options)
    except ValueError as exc:
        return f"known defect still present: feedback decode of the zero codeword raises ValueError({exc})"
    return "feedback decode of the zero codeword no longer raises"


# ---------------------------------------------------------------- work

class Tally:
    """Timings, failures and checked outcomes of the work phase."""

    def __init__(self, digest_ops, tracer=None, scale=None):
        self.digest_ops = digest_ops
        self.tracer = tracer
        self.scale = scale      # wall seconds -> reported seconds (speed.Gauge.scale)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0          # decodes with no codeword or the wrong message
        self.latencies = []     # seconds per op: a decode, or a trial x strategy; scaled
        self.op_seconds = 0.0
        self.ops = 0
        self.results = []       # digested decode results
        self.successes = {}     # simulator: successes per strategy

    def decode(self, built, expected, packets):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.request = self.attempted
        t0 = time.perf_counter()
        try:
            outcome = decoders.two_tier_decode(packets, built.union, built.codebook,
                                               built.options)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return
        dt = time.perf_counter() - t0
        if self.scale is not None:
            dt = self.scale(dt)
        self.latencies.append(dt)
        self.op_seconds += dt
        self.ops += 1
        checks.check_decode(outcome, packets, built.codebook, built.union.p,
                            built.options.list_radius)
        res = outcome.result
        if res.chosen is None or \
                built.codebook[res.chosen].message != built.codebook[expected].message:
            self.wrong += 1
        if len(self.results) < self.digest_ops:
            self.results.append([res.chosen, res.metric_value, res.tie,
                                 None if res.list is None else list(res.list)])

    def chunk(self, built, base_seed):
        n = CHUNK_TRIALS * len(built.sim_kwargs["strategies"])
        self.attempted += n
        if self.tracer is not None:
            self.tracer.request = base_seed
        t0 = time.perf_counter()
        try:
            report = sim.run_experiment(*built.sim_args, CHUNK_TRIALS, base_seed,
                                        **built.sim_kwargs)
        except Exception:
            self.failed += n
            traceback.print_exc(file=sys.stderr)
            return
        dt = time.perf_counter() - t0
        if self.scale is not None:
            dt = self.scale(dt)
        self.latencies.append(dt / n)
        self.op_seconds += dt
        self.ops += n
        self.add_report(report, CHUNK_TRIALS)

    def add_report(self, report, trials):
        for name, stats in report["strategies"].items():
            checks.require(stats["trials"] == trials and
                           len(stats["success_by_trial"]) == trials and
                           stats["successes"] == sum(stats["success_by_trial"]),
                           f"inconsistent simulation report for {name}")
            self.successes[name] = self.successes.get(name, 0) + stats["successes"]

    def check_dominance(self):
        """Two-tier decoding succeeds at least as often as tier 2 alone."""
        if sim.TWO_TIER in self.successes and sim.TIER2_ONLY in self.successes:
            checks.require(self.successes[sim.TWO_TIER] >= self.successes[sim.TIER2_ONLY],
                           f"two-tier successes {self.successes[sim.TWO_TIER]} < "
                           f"tier2-only {self.successes[sim.TIER2_ONLY]}")


def chunk_seed(seed, index):
    return seed * 1_000_003 + index + 1


def reference_report(built, seed, tally):
    """Run one experiment twice on one seed; the reports must match byte for byte.

    Returns the report's SHA-256.
    """
    reports = [sim.run_experiment(*built.sim_args, REFERENCE_TRIALS, seed, **built.sim_kwargs)
               for _ in range(2)]
    digests = [checks.digest(r) for r in reports]
    checks.require(digests[0] == digests[1], "same-seed simulation reports differ")
    tally.add_report(reports[0], REFERENCE_TRIALS)
    return digests[0]
