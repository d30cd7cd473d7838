"""Benchmark of the twotier toolkit: set-up, lemma verification, two-tier
decoding and simulation.

Run from the root of a source checkout; the package is imported from
``src/`` there, in one process with one thread:

    python3 perfbench/run.py --workload kk-decode --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, with every time scaled by the
speed reference of speed.py. ``--trace 1`` runs set-up,
verify and a fixed number of requests untraced, traced, and untraced
again, and prints the per-layer metrics, the tracing overhead and the time
no layer accounts for. ``--config PATH`` makes one such traced run on any config
instead of a named workload.

Every line but the last is for people. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics. A
failed output check prints it with correct false and exits with code 1.
"""

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
AD_HOC_REQUESTS = 3
VERIFY_INTERVAL_S = 0.02    # shortest timed verify interval

END_TO_END = {"setup_s": "s", "verify_s": "s", "op_p50_ms": "ms", "ops_per_s": "1/s",
              "peak_rss_mib": "MiB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="kk-decode, mv1-sim or gab-list-feedback")
    parser.add_argument("--seed", type=int, required=True, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the measured work phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--config", type=Path, default=None,
                        help="one traced run on this config instead of a workload")
    args = parser.parse_args(argv)
    if (args.workload is None) == (args.config is None):
        parser.error("give exactly one of --workload and --config")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """The twotier package of this checkout, or None with a message."""
    if not (SRC / "twotier" / "__init__.py").is_file():
        print(f"no twotier package under {SRC}", file=sys.stderr)
        return None
    sys.path.insert(0, str(SRC))
    import twotier
    if Path(twotier.__file__).resolve().parent != SRC / "twotier":
        print(f"twotier imported from {twotier.__file__}, not {SRC}", file=sys.stderr)
        return None
    return twotier


def emit(name, value, unit, note=""):
    print(f"{name} = {value:.6g} {unit}{'  ' + note if note else ''}")


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def tail_percentile(samples):
    """Highest of p99.9..p50 with at least ten samples beyond it, or None."""
    n = len(samples)
    for pct in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - pct / 100) >= 10:
            return pct, statistics.quantiles(samples, n=1000, method="inclusive")[
                round(pct * 10) - 1]
    return None


# ---------------------------------------------------------------- untraced

def run_untraced(wl, seed, seconds):
    """Set-ups, each followed by a verify and an equal slice of the work.

    Spreading the set-ups over the whole run keeps a few slow seconds on a
    shared machine from landing on all of them. Every timed interval is
    scaled by the speed reference measured around it (speed.py).
    """
    import speed
    import workloads
    path = workloads.CONFIGS / wl.config
    rng = random.Random(f"{wl.name}/{seed}")
    gauge = speed.Gauge()
    tally = workloads.Tally(wl.digest_ops, scale=gauge.scale)
    setup_times, verify_times, wall_setup, info = [], [], [], {}
    chunk_index = verifies = 0
    for rep in range(wl.setup_reps):
        built = None
        gc.collect()
        gauge.mark()
        t0 = time.perf_counter()
        built = workloads.build(path, wl.simulate)
        t1 = time.perf_counter()
        setup_times.append(gauge.scale(t1 - t0))
        wall_setup.append(t1 - t0)
        # The first verify fills the caches of the union the decodes use. A
        # timed interval repeats verify until it lasts VERIFY_INTERVAL_S, so
        # a sub-millisecond verify (mv1-sim) is not timed on its own.
        for again in range(wl.verify_reps):
            gc.collect()
            gauge.mark()
            results = []
            t1 = time.perf_counter()
            while True:
                results.append(workloads.verify(built, fresh=again > 0 or bool(results)))
                elapsed = time.perf_counter() - t1
                if elapsed >= VERIFY_INTERVAL_S:
                    break
            verify_times.append(gauge.scale(elapsed) / len(results))
            verifies += len(results)
            for lemmas in results:
                workloads.checks.check_lemmas(lemmas, wl.expected_cardinality,
                                              built.union.cardinality)
        if rep == 0:
            if wl.simulate:
                info["sim_report_sha256"] = workloads.reference_report(built, seed, tally)
            probe = workloads.zero_codeword_probe(built)
            if probe is not None:
                info["zero_codeword_probe"] = probe

        gauge.mark()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds / wl.setup_reps:
            if wl.simulate:
                tally.chunk(built, workloads.chunk_seed(seed, chunk_index))
                chunk_index += 1
            else:
                tally.decode(built, *workloads.make_request(rng, built))
    if wl.simulate:
        tally.check_dominance()
    else:
        info["decode_sha256"] = workloads.checks.digest(tally.results)
        info["decode_sha256_covers"] = len(tally.results)
    attempted = wl.setup_reps + verifies + tally.attempted
    if not tally.ops:
        raise workloads.checks.CheckFailed("no operation of the work phase completed")

    metrics = {
        "setup_s": statistics.median(setup_times),
        "verify_s": statistics.median(verify_times),
        "op_p50_ms": statistics.median(tally.latencies) * 1e3,
        "ops_per_s": tally.ops / tally.op_seconds,
        "peak_rss_mib": peak_rss_mib(),
    }
    for name, unit in END_TO_END.items():
        emit(name, metrics[name], unit)
    print(f"# times in reference seconds; {gauge.summary()}")
    print(f"# set-up and verify times (s): {' '.join(f'{t:.4g}' for t in setup_times[:9])}; "
          f"{' '.join(f'{t:.4g}' for t in verify_times[:15])}")
    print(f"# setup_s and verify_s: medians over {wl.setup_reps} set-ups and "
          f"{len(verify_times)} verify intervals of {verifies} verifies "
          f"(wall median {statistics.median(wall_setup):.6g} s); ops_per_s: ops over op time; "
          f"op = {'one trial x strategy' if wl.simulate else 'one decode request'}; "
          f"{len(tally.latencies)} latency samples")
    if wl.simulate:
        emit("sim_trials_per_s", metrics["ops_per_s"], "1/s", "(trials x strategies)")
        emit("trial_p50_ms", metrics["op_p50_ms"], "ms",
             f"(median over {len(tally.latencies)} chunks of {workloads.CHUNK_TRIALS} trials)")
        print(f"# successes per strategy: {json.dumps(tally.successes, sort_keys=True)}")
    else:
        emit("decode_p50_ms", metrics["op_p50_ms"], "ms")
        emit("decodes_per_s", metrics["ops_per_s"], "1/s")
        emit("decode_error_frac", tally.wrong / tally.ops, "ratio",
             f"({tally.wrong} of {tally.ops} decodes)")
    tail = tail_percentile(tally.latencies)
    if tail is None:
        print(f"# no percentile above the median has ten samples beyond it "
              f"(n={len(tally.latencies)})")
    else:
        emit(f"op_p{tail[0]:g}_ms", tail[1] * 1e3, "ms", f"(n={len(tally.latencies)})")
    emit("op_fail_frac", tally.failed / attempted, "ratio",
         f"({tally.failed} of {attempted} builds, verifies, decodes and trials)")
    return metrics, attempted, tally.failed, info


# ---------------------------------------------------------------- traced

@dataclass
class Pass:
    walls: dict         # phase -> wall seconds
    roots: dict         # phase -> span index (traced pass only)
    built: object
    tally: object
    info: dict
    outputs: object     # decode digest, or simulator successes per strategy


def run_pass(path, simulate, seed, ops, label, expected_cardinality, tracer=None,
             reference=False):
    """Set-up, verify and `ops` requests (or chunks), each phase timed."""
    import workloads
    gc.collect()
    walls, roots, info = {}, {}, {}
    tally = workloads.Tally(digest_ops=ops, tracer=tracer)

    def phase(name):
        return tracer.span(f"phase.{name}") if tracer is not None else nullcontext()

    t0 = time.perf_counter()
    with phase("setup") as roots["setup"]:
        built = workloads.build(path, simulate)
    t1 = time.perf_counter()
    with phase("verify") as roots["verify"]:
        lemmas = workloads.verify(built)
    t2 = time.perf_counter()
    walls["setup"], walls["verify"] = t1 - t0, t2 - t1
    workloads.checks.check_lemmas(lemmas, expected_cardinality, built.union.cardinality)
    probe = workloads.zero_codeword_probe(built) if reference else None
    if probe is not None:
        info["zero_codeword_probe"] = probe

    if simulate:
        if reference:
            info["sim_report_sha256"] = workloads.reference_report(built, seed, tally)
        earlier = dict(tally.successes)
        t0 = time.perf_counter()
        with phase("work") as roots["work"]:
            for index in range(ops):
                tally.chunk(built, workloads.chunk_seed(seed, index))
        walls["work"] = time.perf_counter() - t0
        outputs = {k: v - earlier.get(k, 0) for k, v in tally.successes.items()}
    else:
        rng = random.Random(f"{label}/{seed}")
        requests = [workloads.make_request(rng, built) for _ in range(ops)]
        t0 = time.perf_counter()
        with phase("work") as roots["work"]:
            for expected, packets in requests:
                tally.decode(built, expected, packets)
        walls["work"] = time.perf_counter() - t0
        outputs = info["decode_sha256"] = workloads.checks.digest(tally.results)
        info["decode_sha256_covers"] = len(tally.results)
    return Pass(walls, roots, built, tally, info, outputs)


def union_memory(built):
    """tracemalloc peak and retained bytes of one more union build, untraced."""
    import workloads
    gc.collect()
    tracemalloc.start()
    try:
        union = workloads.tt_union.build_union(built.codebook, built.cfg.union_budget)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    if union.cardinality != built.union.cardinality:
        raise workloads.checks.CheckFailed("a second union build differs from the first")
    return {"peak_bytes": peak, "retained_bytes": retained}


def run_traced(path, simulate, seed, ops, label, expected_cardinality):
    """An untraced pass, a traced pass and another untraced pass.

    The tracing overhead compares the traced pass with the mean of the two
    untraced passes around it, so a machine that speeds up or slows down
    during the run biases it less.
    """
    import layers
    import workloads
    from spans import Tracer

    args = (path, simulate, seed, ops, label, expected_cardinality)
    before = run_pass(*args, reference=True)
    before.built = None
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(*args, tracer=tracer)
    finally:
        tracer.close()
    memory = union_memory(traced.built)
    after = run_pass(*args)
    for plain in (before, after):
        workloads.checks.require(plain.outputs == traced.outputs,
                                 "traced and untraced passes gave different outputs")
    if simulate:
        # the reference report counts too: `before` includes it
        for name, count in before.tally.successes.items():
            traced.tally.successes[name] += count + after.tally.successes[name]
        traced.tally.check_dominance()
    plain_walls = {k: (before.walls[k] + after.walls[k]) / 2 for k in before.walls}
    metrics, views = layers.layer_metrics(tracer, traced.roots, plain_walls, traced.built,
                                          memory)
    info = before.info

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{label}-seed{seed}-spans.jsonl.gz"
    tracer.write(spans_path)

    for name, unit in layers.PER_LAYER.items():
        emit(name, metrics[name], unit)
    print(f"# traced pass: {ops} {'chunks' if simulate else 'requests'}; "
          f"spans written to {spans_path.relative_to(HERE.parent)}")
    for phase, view in views.items():
        layer_self = ", ".join(f"{k} {v:.4f}" for k, v in sorted(view.layer_self.items()))
        print(f"# phase {phase}: traced {view.wall:.4f} s, untraced {plain_walls[phase]:.4f} s, "
              f"overhead {view.wall - plain_walls[phase]:+.4f} s; self s by layer: {layer_self}; "
              f"unaccounted {view.unaccounted:.4f} s")
    work = views["work"]
    if work.count("decoders.tier2"):
        print(f"# tier-2 spans cover {work.total('decoders.tier2') / work.wall:.1%} "
              "of the work phase")
    if work.count("sim.run_trial"):
        share = (work.self_total("sim.run_trial") + work.total("sim.stream")) / \
            work.total("sim.run_trial")
        print(f"# sim self time plus sim.stream cover {share:.1%} of run_trial time")
    passes = (before, traced, after)
    # one build and one verify per pass
    attempted = sum(2 + p.tally.attempted for p in passes)
    return metrics, attempted, sum(p.tally.failed for p in passes), info


# ---------------------------------------------------------------- main

def metadata(seed, label):
    import numpy
    return {"workload": label, "seed": seed, "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "threads": {var: os.environ[var] for var in THREAD_VARS},
            "load": "one process, one thread, closed loop with one client"}


def main(argv=None):
    args = parse_args(argv)
    # one thread: pinned before numpy is first imported, with the package
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if import_program() is None:
        return 2
    import layers
    import workloads

    if args.config is not None:
        label, trace = args.config.stem, 1
    else:
        label, trace = args.workload, args.trace
        if label not in workloads.WORKLOADS:
            print(f"unknown workload {label!r}; choose from {sorted(workloads.WORKLOADS)}",
                  file=sys.stderr)
            return 2
    print(f"# meta {json.dumps(metadata(args.seed, label), sort_keys=True)}")

    try:
        if args.config is not None:
            cfg = workloads.tt_config.load_config(args.config)
            simulate = "topology" in cfg.raw
            result = run_traced(args.config, simulate, args.seed, AD_HOC_REQUESTS, label, None)
        elif trace:
            wl = workloads.WORKLOADS[label]
            ops = max(1, round(wl.traced_ops_per_s * args.seconds))
            result = run_traced(workloads.CONFIGS / wl.config, wl.simulate, args.seed, ops,
                                label, wl.expected_cardinality)
        else:
            result = run_untraced(workloads.WORKLOADS[label], args.seed, args.seconds)
    except workloads.checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1

    metrics, attempted, failed, info = result
    units = layers.PER_LAYER if trace else END_TO_END
    for key, value in info.items():
        print(f"# {key}: {value}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
