"""Per-layer metrics and time accounting from one traced pass.

Times ending in ``_s`` are totals over the phase named in the comment,
``_ms`` and ``_us`` are means per call; counters cover the whole traced
pass (set-up, verify and work).
"""

from collections import defaultdict

from spans import ATTR, END, NAME, START

# name -> unit; BENCHMARK.json lists the same metrics in this order.
PER_LAYER = {
    "config.build_field_s": "s",                 # set-up
    "fields.mul_calls": "count",
    "fields.frobenius_calls": "count",
    "linpoly.evaluate_calls": "count",
    "codes.build_codebook_s": "s",               # set-up
    "codes.codewords": "count",
    "codes.us_per_codeword": "us",
    "union.build_s": "s",                        # set-up
    "union.span_vectors": "count",
    "union.cardinality": "count",
    "union.dedup_ratio": "ratio",
    "union.tracemalloc_peak_mib": "MiB",         # a separate untimed build
    "union.bytes_per_entry": "B",
    "union.min_distance_s": "s",                 # verify
    "union.component_min_distances_s": "s",      # verify
    "union.verify_lemmas_self_s": "s",           # verify
    "union.restrict_calls": "count",             # work
    "union.restrict_ms": "ms",
    "decoders.tier1_packets": "count",           # work
    "decoders.tier1_us_per_packet": "us",
    "decoders.tier1_valid": "count",
    "decoders.tier1_corrected": "count",
    "decoders.tier1_erased": "count",
    "decoders.tier1_rejected": "count",
    "decoders.tier2_passes": "count",            # work
    "decoders.tier2_ms_per_pass": "ms",
    "decoders.tier2_codewords_scanned": "count",
    "decoders.two_tier_self_ms": "ms",           # work
    "metrics.injection_distance_calls": "count",
    "metrics.injection_distance_s": "s",
    "metrics.rank_distance_calls": "count",
    "metrics.rank_distance_s": "s",
    "linalg.rref_calls": "count",
    "linalg.rref_s": "s",
    "sim.trials": "count",                       # work: trials x strategies
    "sim.run_trial_ms": "ms",
    "sim.run_trial_self_ms": "ms",
    "sim.stream_calls": "count",                 # work
    "sim.stream_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unaccounted_frac": "ratio",
}


def _mean(total, count, scale):
    return total / count * scale if count else 0.0


class PhaseView:
    """Spans of one phase grouped by name, with durations and self times."""

    def __init__(self, tracer, root, selfs):
        spans = tracer.spans
        self.wall = spans[root][END] - spans[root][START]
        self.unaccounted = selfs[root]
        self.spans = defaultdict(list)
        self.layer_self = defaultdict(float)
        accounted = self.unaccounted
        for i in tracer.subtree(root):
            if i == root:
                continue
            rec = spans[i]
            self.spans[rec[NAME]].append((rec[END] - rec[START], selfs[i], rec[ATTR]))
            self.layer_self[rec[NAME].split(".")[0]] += selfs[i]
            accounted += selfs[i]
        if abs(accounted - self.wall) > 1e-6:
            raise ValueError(f"self times add up to {accounted} s, phase took {self.wall} s")

    def count(self, name):
        return len(self.spans[name])

    def total(self, name):
        return sum((d for d, _, _ in self.spans[name]), 0.0)

    def self_total(self, name):
        return sum((s for _, s, _ in self.spans[name]), 0.0)

    def attrs(self, name):
        return [a for _, _, a in self.spans[name]]


def layer_metrics(tracer, roots, plain_walls, built, memory):
    """(metrics, phase views) of a traced pass; `roots` maps phase -> span index."""
    selfs = tracer.self_times()
    views = {phase: PhaseView(tracer, root, selfs) for phase, root in roots.items()}
    setup, verify, work = views["setup"], views["verify"], views["work"]
    calls, seconds = tracer.calls, tracer.seconds
    codewords = len(built.codebook)
    span_vectors = sum(built.union.p ** len(cw.rows) for cw in built.codebook)
    outcomes = work.attrs("decoders.tier1")
    traced_wall = sum(v.wall for v in views.values())
    plain_wall = sum(plain_walls.values())

    m = {
        "config.build_field_s": setup.total("config.build_field"),
        "fields.mul_calls": calls["fields.mul"],
        "fields.frobenius_calls": calls["fields.frobenius"],
        "linpoly.evaluate_calls": calls["linpoly.evaluate"],
        "codes.build_codebook_s": setup.total("codes.build_codebook"),
        "codes.codewords": codewords,
        "codes.us_per_codeword": _mean(setup.total("codes.build_codebook"), codewords, 1e6),
        "union.build_s": setup.total("union.build"),
        "union.span_vectors": span_vectors,
        "union.cardinality": built.union.cardinality,
        "union.dedup_ratio": built.union.cardinality / span_vectors,
        "union.tracemalloc_peak_mib": memory["peak_bytes"] / 2 ** 20,
        "union.bytes_per_entry": memory["retained_bytes"] / built.union.cardinality,
        "union.min_distance_s": verify.total("union.min_distance"),
        "union.component_min_distances_s": verify.total("union.component_min_distances"),
        "union.verify_lemmas_self_s": verify.self_total("union.verify_lemmas"),
        "union.restrict_calls": work.count("union.restrict"),
        "union.restrict_ms": _mean(work.total("union.restrict"),
                                   work.count("union.restrict"), 1e3),
        "decoders.tier1_packets": len(outcomes),
        "decoders.tier1_us_per_packet": _mean(work.total("decoders.tier1"), len(outcomes), 1e6),
        "decoders.tier1_valid": outcomes.count("valid"),
        "decoders.tier1_corrected": outcomes.count("corrected"),
        "decoders.tier1_erased": outcomes.count("erased"),
        "decoders.tier1_rejected": outcomes.count("rejected"),
        "decoders.tier2_passes": work.count("decoders.tier2"),
        "decoders.tier2_ms_per_pass": _mean(work.total("decoders.tier2"),
                                            work.count("decoders.tier2"), 1e3),
        "decoders.tier2_codewords_scanned": sum(work.attrs("decoders.tier2")),
        "decoders.two_tier_self_ms": _mean(work.self_total("decoders.two_tier_decode"),
                                           work.count("decoders.two_tier_decode"), 1e3),
        "metrics.injection_distance_calls": calls["metrics.injection_distance"],
        "metrics.injection_distance_s": seconds["metrics.injection_distance"],
        "metrics.rank_distance_calls": calls["metrics.rank_distance"],
        "metrics.rank_distance_s": seconds["metrics.rank_distance"],
        "linalg.rref_calls": calls["linalg.rref"],
        "linalg.rref_s": seconds["linalg.rref"],
        "sim.trials": work.count("sim.run_trial"),
        "sim.run_trial_ms": _mean(work.total("sim.run_trial"), work.count("sim.run_trial"), 1e3),
        "sim.run_trial_self_ms": _mean(work.self_total("sim.run_trial"),
                                       work.count("sim.run_trial"), 1e3),
        "sim.stream_calls": work.count("sim.stream"),
        "sim.stream_s": work.total("sim.stream"),
        "trace.overhead_frac": (traced_wall - plain_wall) / plain_wall,
        "trace.unaccounted_frac": sum(v.unaccounted for v in views.values()) / traced_wall,
    }
    if list(m) != list(PER_LAYER):
        raise ValueError("per-layer metrics do not match PER_LAYER")
    return m, views
