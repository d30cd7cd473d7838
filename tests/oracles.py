"""Independent brute-force reference implementations for the tests.

Nothing here imports the package under test: polynomial arithmetic is done
directly on coefficient lists, ranks by plain-python elimination, distances
by literal pairwise scans. Expected values in the tests are computed (or
were frozen) from these. Two exceptions call the package: the simulator
reference uses its decoders, and ``pack_vector``, at the end, packs one
vector with its batched packer (see there).
"""

import hashlib
import itertools
import math
import random


def poly_mul_mod(a, b, modulus, p):
    """Product of coefficient tuples (low-to-high) reduced mod a monic modulus."""
    n = len(modulus) - 1
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for i in range(2 * n - 2, n - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(n):
                prod[i - n + j] = (prod[i - n + j] - c * modulus[j]) % p
    return tuple(prod[:n])


def gf_pow(a, e, modulus, p):
    n = len(modulus) - 1
    result = tuple([1] + [0] * (n - 1))
    base = tuple(a)
    while e:
        if e & 1:
            result = poly_mul_mod(result, base, modulus, p)
        base = poly_mul_mod(base, base, modulus, p)
        e >>= 1
    return result


def naive_order(a, modulus, p):
    """Multiplicative order by successive powers."""
    n = len(modulus) - 1
    one = tuple([1] + [0] * (n - 1))
    acc = tuple(a)
    k = 1
    while acc != one:
        acc = poly_mul_mod(acc, a, modulus, p)
        k += 1
    return k


def _poly_mul(a, b, p):
    """Plain product of coefficient tuples (low-to-high), no reduction."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    return tuple(prod)


def modulus_verdict(modulus, p):
    """"reducible", "not primitive", or None for a primitive monic modulus.

    Reducible when some product of two monic polynomials of lower degree
    multiplies out to it. Otherwise x is walked through its powers by
    polynomial multiplication, at most p^n steps: primitive when 1 first
    recurs at step p^n - 1.
    """
    modulus = tuple(modulus)
    n = len(modulus) - 1
    for d in range(1, n):
        for left in itertools.product(range(p), repeat=d):
            for right in itertools.product(range(p), repeat=n - d):
                if _poly_mul(left + (1,), right + (1,), p) == modulus:
                    return "reducible"
    one = tuple([1] + [0] * (n - 1))
    x = ((-modulus[0]) % p,) if n == 1 else (0, 1) + (0,) * (n - 2)
    acc = x
    for k in range(1, p ** n):
        if acc == one:
            return None if k == p ** n - 1 else "not primitive"
        acc = poly_mul_mod(acc, x, modulus, p)
    return "not primitive"


def all_vectors(p, n):
    return [tuple(t) for t in itertools.product(range(p), repeat=n)]


def subfield_fixed_set(modulus, p, order):
    """All x with x^order == x, by enumeration."""
    n = len(modulus) - 1
    return {v for v in all_vectors(p, n) if gf_pow(v, order, modulus, p) == v}


def vadd(u, v, p):
    return tuple((a + b) % p for a, b in zip(u, v))


def scalar_mul(c, v, p):
    return tuple((c * x) % p for x in v)


def weight(v):
    return sum(1 for x in v if x)


def span(rows, p):
    """All GF(p)-combinations of the rows."""
    out = set()
    for coeffs in itertools.product(range(p), repeat=len(rows)):
        acc = (0,) * len(rows[0])
        for c, row in zip(coeffs, rows):
            acc = vadd(acc, scalar_mul(c, row, p), p)
        out.add(acc)
    return out


def naive_rank(rows, p):
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    n_cols = len(rows[0])
    r = 0
    for c in range(n_cols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c] % p:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def is_additively_closed(vectors, p):
    """True iff the set is a GF(p)-subspace (it then equals its own span)."""
    vecs = list(vectors)
    if not vecs:
        return False
    zero = tuple([0] * len(vecs[0]))
    if zero not in set(vecs):
        return False
    r = naive_rank(vecs, p)
    return len(set(vecs)) == p ** r


def naive_min_pairwise(vectors, p):
    vectors = sorted(set(vectors))
    best = None
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            d = sum(1 for a, b in zip(vectors[i], vectors[j]) if a != b)
            if best is None or d < best:
                best = d
    return best


def lin_eval(coeffs, x, modulus, p, q):
    """sum over i of coeffs[i] * x^(q^i), all as coefficient tuples."""
    n = len(modulus) - 1
    acc = (0,) * n
    for i, u in enumerate(coeffs):
        term = poly_mul_mod(u, gf_pow(x, q ** i, modulus, p), modulus, p)
        acc = vadd(acc, term, p)
    return acc


# moduli used throughout
MOD_GF8 = (1, 1, 0, 1)          # x^3 + x + 1 over GF(2)
MOD_GF9 = (2, 1, 1)             # x^2 + x + 2 over GF(3)
MOD_GF729 = (2, 1, 0, 0, 0, 0, 1)   # x^6 + x + 2 over GF(3)
MOD_GF625 = (2, 0, 2, 1, 1)     # x^4 + x^3 + 2x^2 + 2 over GF(5), primitive


def naive_rref(rows, p):
    """Nonzero rows of the reduced row echelon form, as a tuple of tuples."""
    rows = [[x % p for x in r] for r in rows]
    out = []
    n_cols = len(rows[0]) if rows else 0
    for c in range(n_cols):
        piv = next((i for i, r in enumerate(rows) if r[c]), None)
        if piv is None:
            continue
        row = rows.pop(piv)
        inv = pow(row[c], -1, p)
        row = [(x * inv) % p for x in row]
        rows = [[(x - r[c] * y) % p for x, y in zip(r, row)] for r in rows]
        out = [[(x - o[c] * y) % p for x, y in zip(o, row)] for o in out]
        out.append(row)
    return tuple(tuple(r) for r in out)


def iter_message_digits(q, length):
    """Every message of `length` base-q digits in lexicographic order,
    lowest digit varying fastest."""
    for index in range(q ** length):
        digits = []
        rest = index
        for _ in range(length):
            digits.append(rest % q)
            rest //= q
        yield tuple(digits)


def reference_restrict(provenance, wanted):
    """The dict-of-sets restriction: each vector whose owner set meets
    `wanted`, in the given order, with the owners inside `wanted`."""
    wanted = set(wanted)
    restricted = {}
    for vector, owners in provenance.items():
        kept = owners & wanted
        if kept:
            restricted[vector] = kept
    return restricted


def reference_spans(stack, p):
    """(vectors, ids, min_weights) of a stack's spans by Python enumeration:
    each distinct vector numbered at its first occurrence, codewords in
    order, each span in coefficient order."""
    width = len(stack[0][0])
    number, ids, min_weights = {}, [], []
    for rows in stack:
        row_ids = []
        for coeffs in itertools.product(range(p), repeat=len(rows)):
            acc = (0,) * width
            for c, row in zip(coeffs, rows):
                acc = vadd(acc, scalar_mul(c, row, p), p)
            row_ids.append(number.setdefault(acc, len(number)))
        rows_span = span(rows, p)
        assert {v for v, u in number.items() if u in row_ids} == rows_span
        ids.append(row_ids)
        min_weights.append(min((weight(v) for v in rows_span if any(v)), default=width + 1))
    return list(number), ids, min_weights



def reference_tier1(packet, vectors, p, radius, mode):
    """Tier 1's verdict on `packet` against the union `vectors`, a set of
    digit tuples, as a dict of the verdict's fields, from the weights of
    the differences. A member is valid, and detect-only rejects anything
    else. Otherwise a single nearest vector within the radius corrects,
    several erase in correct-or-erase mode and reject in correct mode, and
    beyond the radius correct mode rejects and the other erases."""
    def verdict(outcome, vector=None, flips=0, candidates=0):
        return {"outcome": outcome, "vector": vector, "flips": flips,
                "candidates": candidates}

    packet = tuple(packet)
    if packet in vectors:
        return verdict("valid", packet, 0, 1)
    if mode == "detect-only":
        return verdict("rejected")
    dists = {v: weight(vadd(packet, scalar_mul(p - 1, v, p), p)) for v in vectors}
    best = min(dists.values())
    nearest = [v for v, d in dists.items() if d == best]
    if best > radius:
        return verdict("rejected" if mode == "correct" else "erased")
    if len(nearest) == 1:
        return verdict("corrected", nearest[0], best, 1)
    return verdict("erased" if mode == "correct-or-erase" else "rejected",
                   candidates=len(nearest))


# ---------------------------------------------------------------- lemma checks
#
# The scalar lemma checks, one Python value per component: a component's
# distance is the least weight of a nonzero vector of its span, inf when
# the span is {0}, and the union is the set of every span vector.

def _lemma(lemma, description, claimed, measured, passed, normative=True):
    return {"lemma": lemma, "description": description, "claimed": claimed,
            "measured": measured, "passed": passed, "normative": normative}


def _fmt(value):
    return "inf" if value is math.inf else str(value)


def reference_lemmas(spec, codebook):
    """The lemma checks of `spec` on the union of every codeword of
    `codebook`, as the ``dataclasses.asdict`` dicts of ``verify_lemmas``.
    Only the spec's parameters and the codewords' rows are read."""
    p = spec.q
    spans = [span(cw.rows, p) for cw in codebook]
    dists = [min((weight(v) for v in s if any(v)), default=math.inf) for s in spans]
    union = set().union(*spans)
    ambient_len = len(next(iter(union)))
    d_union = naive_min_pairwise(union, p)
    kind = type(spec).__name__
    if kind == "GabidulinSpec":
        m, k = spec.m, spec.k
        bound = m - spec.n + k
        finite = [d for d in dists if d is not math.inf]
        mono_bound = m - spec.n + 1
        # a single-monomial message has exactly one nonzero block of m digits
        mono = [d for d, digits in zip(dists, iter_message_digits(p, m * k))
                if d is not math.inf and
                sum(any(digits[j * m:(j + 1) * m]) for j in range(k)) == 1]
        return [
            _lemma("L1", "union code minimum Hamming distance", "d_H(C_U) == 1",
                   _fmt(d_union), d_union == 1),
            _lemma("L2", "every nonzero component obeys the Singleton-type bound",
                   f"d_H(C) <= m-n+k = {bound}",
                   f"max d_H(C) = {_fmt(max(finite, default=math.inf))}",
                   all(d <= bound for d in finite)),
            _lemma("L3", "single-monomial components obey the tighter bound",
                   f"d_H(C_j) <= m-n+1 = {mono_bound}",
                   f"max over {len(mono)} components = {_fmt(max(mono, default=math.inf))}",
                   all(d <= mono_bound for d in mono)),
        ]
    q, m, l = spec.q, spec.m, spec.l
    d0 = dists[0]
    if kind == "KKSpec":
        bound = m - l + 1
        exact = (q ** l - 1) * q ** m + 1
        ambient = q ** ambient_len
        return [
            _lemma("L4", "union code minimum Hamming distance", "d_H(C_U) == 1",
                   _fmt(d_union), d_union == 1),
            _lemma("L5", "zero-message component has the smallest distance",
                   f"d_H(C_0) <= d_H(C) for all C, and d_H(C_0) <= m-l+1 = {bound}",
                   f"d_H(C_0) = {_fmt(d0)}" + (" (meets m-l+1)" if d0 == bound else ""),
                   all(d0 <= d for d in dists) and d0 <= bound),
            _lemma("L6", "union cardinality: exact count, below the ambient space",
                   f"|C_U| == (q^l-1)q^m+1 = {exact} and < q^{ambient_len} = {ambient}",
                   str(len(union)), len(union) == exact and len(union) < ambient),
        ]
    big_l = spec.big_l
    polynomial_basis = (spec.field.polynomial_basis and
                        (spec.layout_name == "uncompressed" or l == 1))
    bound7 = m * l - l + 1
    bound8 = m if l == 1 else min(m * l - l + 1, big_l)
    upper = (q ** l - 1) * q ** (big_l * m) + 1
    theoretic_ambient = q ** (l + big_l * m)
    return [
        _lemma("L7", "zero-message component has the smallest distance",
               f"d_H(C_0) <= d_H(C) for all C, and d_H(C_0) <= ml-l+1 = {bound7}",
               f"d_H(C_0) = {_fmt(d0)}" + (" (meets ml-l+1)" if d0 == bound7 else ""),
               all(d0 <= d for d in dists) and d0 <= bound7),
        _lemma("L8", "union distance bound" +
               ("" if polynomial_basis else " (non-polynomial-basis layout, informational)"),
               f"d_H(C_U) <= m = {bound8}" if l == 1 else
               f"d_H(C_U) <= min(ml-l+1, L) = {bound8}",
               _fmt(d_union), d_union <= bound8, polynomial_basis),
        _lemma("L9", "union cardinality below the ambient space",
               f"|C_U| <= (q^l-1)q^(Lm)+1 = {upper} and < q^(l+Lm) = {theoretic_ambient}",
               str(len(union)), len(union) <= upper and len(union) < theoretic_ambient),
    ]


# ---------------------------------------------------------------- simulator
#
# The strategy-major simulator that the trial-major one replaced: each
# strategy runs every trial with freshly derived streams and its own
# network pass. Streams and ranks are rebuilt here; the objects it takes
# (topology, code set-up, error model) and the decoders it calls are the
# package's, since what it checks is which draws each strategy sees.

def sim_stream(base_seed, *parts):
    """sha256(base|part|...) -> 64-bit seed of a random.Random."""
    tag = f"{base_seed}|" + "|".join(str(p) for p in parts)
    digest = hashlib.sha256(tag.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _reference_corrupt(pkt, model, rng, p):
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


def reference_run_trial(topology, setup, message, error_model, strategy, base_seed, trial,
                        *, node_filter_mode="detect-only", retry_full_rank=False,
                        max_attempts=20):
    """One multicast as (success, sink_success, verdict_counts, metric_values,
    filtered_drops, rank_deficient, attempts, deliveries)."""
    from twotier.decoders import (default_radius, tier1_decode, tier2_subspace_decode,
                                  two_tier_decode)

    roles = dict(topology.nodes)
    sinks = tuple(n for n, r in topology.nodes if r == "sink")
    source = next(n for n, r in topology.nodes if r == "source")
    message = tuple(message)
    index = next(i for i, cw in enumerate(setup.codebook) if cw.message == message)
    rows = [tuple(r) for r in setup.codebook[index].rows]
    p = setup.p
    zero_packet = (0,) * setup.ambient_len

    attempts = 0
    rank_deficient = False
    while True:
        attempts += 1
        attempt = attempts - 1
        buffers = {source: list(rows)}
        filtered_drops = 0
        deliveries = {}
        for node in topology.topo_order():
            buf = buffers.get(node, [])
            if error_model.injected_packets and error_model.injection_node == node:
                rng = sim_stream(base_seed, trial, attempt, node, "inject")
                for _ in range(error_model.injected_packets):
                    buf.append(tuple(rng.randrange(p) for _ in range(setup.ambient_len)))
            if strategy == "two-tier+node-filter" and roles[node] == "intermediate":
                if node_filter_mode == "detect-only":
                    radius = 0
                elif setup.options.radius is not None:
                    radius = setup.options.radius
                else:
                    radius = default_radius(setup.union.min_distance())
                kept = []
                for pkt in buf:
                    verdict = tier1_decode(pkt, setup.union, radius, node_filter_mode)
                    if verdict.outcome in ("valid", "corrected"):
                        kept.append(verdict.vector)
                    else:
                        filtered_drops += 1
                buf = kept
            for u, v in topology.edges:
                if u != node:
                    continue
                rng_mix = sim_stream(base_seed, trial, attempt, f"{u}->{v}", "mix")
                if buf:
                    coeffs = [rng_mix.randrange(p) for _ in buf]
                    pkt = tuple(sum(c * row[i] for c, row in zip(coeffs, buf)) % p
                                for i in range(setup.ambient_len))
                else:
                    pkt = zero_packet
                rng_chan = sim_stream(base_seed, trial, attempt, f"{u}->{v}", "chan")
                pkt = _reference_corrupt(pkt, error_model, rng_chan, p)
                buffers.setdefault(v, []).append(pkt)
            if node in sinks:
                deliveries[node] = len(buffers.get(node, []))

        if not retry_full_rank or not error_model.error_free:
            break
        if all(naive_rank(buffers.get(s, [zero_packet]), p) >= len(rows) for s in sinks):
            break
        rank_deficient = True
        if attempts >= max_attempts:
            break

    sink_success = {}
    verdict_counts = {"valid": 0, "corrected": 0, "erased": 0, "rejected": 0}
    metric_values = []
    for sink in sinks:
        packets = buffers.get(sink, [])
        if not packets:
            sink_success[sink] = False
            continue
        if strategy == "tier2-only":
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
    return (all(sink_success.values()) and bool(sink_success), sink_success, verdict_counts,
            metric_values, filtered_drops, rank_deficient, attempts, deliveries)


def reference_run_experiment(topology, setup, error_model, trials, base_seed, strategies,
                             *, node_filter_mode="detect-only", retry_full_rank=False,
                             config_echo=None):
    """The report of a paired experiment, one strategy after another."""
    messages = []
    for trial in range(trials):
        rng = sim_stream(base_seed, trial, "message")
        messages.append(setup.codebook[rng.randrange(len(setup.codebook))].message)

    per_strategy = {}
    for strategy in strategies:
        success_by_trial = []
        verdict_counts = {"valid": 0, "corrected": 0, "erased": 0, "rejected": 0}
        metric_sum = 0
        metric_count = 0
        filtered_drops = 0
        rank_deficient_trials = 0
        for trial in range(trials):
            (success, _, counts, metric_values, drops, deficient, _, _) = reference_run_trial(
                topology, setup, messages[trial], error_model, strategy, base_seed, trial,
                node_filter_mode=node_filter_mode, retry_full_rank=retry_full_rank)
            success_by_trial.append(1 if success else 0)
            for k, v in counts.items():
                verdict_counts[k] += v
            metric_sum += sum(metric_values)
            metric_count += len(metric_values)
            filtered_drops += drops
            rank_deficient_trials += 1 if deficient else 0
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
        "seeds": {"base": base_seed,
                  "derivation": "sha256(base|trial|attempt|edge-or-node|purpose) -> 64-bit stream seed"},
        "trials": trials,
        "strategies": per_strategy,
        "config": config_echo,
    }


def pack_vector(entries, layout, ctx) -> tuple:
    """Concatenate per-entry coordinate vectors; block widths fixed by layout.

    One vector through ``codes._pack`` as a block of one, so that the tests
    can check the batched packer entry by entry.
    """
    import numpy as np

    from twotier.codes import _pack

    entries = list(entries)
    if len(entries) != len(layout.blocks):
        raise ValueError(f"layout {layout.name} expects {len(layout.blocks)} entries, got {len(entries)}")
    for entry, block in zip(entries, layout.blocks):
        if entry.ctx != ctx:
            raise ValueError("entry from a different field context")
        if block.subfield_order is None and block.width != ctx.n:
            raise ValueError("full block width does not match field degree")
    blocks = [np.array([[entry.coeffs]], dtype=np.int64) for entry in entries]
    return tuple(_pack(blocks, layout, ctx)[0, 0].tolist())
