"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every expected constant below was either taken from the worked examples or
derived with the independent oracles in oracles.py before being frozen.
"""

import itertools
import json
import time

from twotier.codes import GabidulinSpec, KKSpec, MVSpec, build_codebook, encode
from twotier.decoders import (DecodeOptions, tier1_decode, tier2_subspace_decode,
                              two_tier_decode)
from twotier.fields import FieldContext
from twotier.metrics import rank_distance
from twotier.sim import (TIER2_ONLY, TWO_TIER, CodeSetup, ErrorModel, Topology,
                         run_experiment)
from twotier.union import build_union, component_min_distances, verify_lemmas

import oracles


def gf8():
    return FieldContext(2, 3)


def report(criterion, ok, details):
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {details}")
    assert ok, f"criterion {criterion}: {details}"


def elapsed_ok(t0, limit):
    return time.perf_counter() - t0 < limit


# ------------------------------------------------------------------ 1

def test_criterion_1_kk_worked_example():
    t0 = time.perf_counter()
    ctx = gf8()
    spec = KKSpec(field=ctx, l=2, k=1, alphas=(ctx.gamma_pow(3), ctx.gamma_pow(4)))
    cb = build_codebook(spec)
    uni = build_union(cb)

    c0 = encode(spec, ctx.zero.coeffs)
    c0_span = oracles.span(c0.rows, 2)
    expected_c0 = {(0,) * 6,
                   (1, 1, 0, 0, 0, 0),   # (g^3, 0)
                   (0, 1, 1, 0, 0, 0),   # (g^4, 0)
                   (1, 0, 1, 0, 0, 0)}   # (g^6, 0)
    d_c0 = component_min_distances(uni)[0]
    ok = (c0_span == expected_c0 and d_c0 == 2 and uni.min_distance() == 1
          and uni.cardinality == 25 and elapsed_ok(t0, 1.0))
    report(1, ok, f"C_0 span ok={c0_span == expected_c0}, d(C_0)={d_c0}, "
                  f"d(C_U)={uni.min_distance()}, |C_U|={uni.cardinality}")


# ------------------------------------------------------------------ 2

def test_criterion_2_mv_example_1():
    t0 = time.perf_counter()
    ctx = gf8()
    spec = MVSpec(field=ctx, m=3, l=1, big_l=2, k=1, alphas=(ctx.gamma_pow(5),))
    uni = build_union(build_codebook(spec))
    dists = component_min_distances(uni)
    ok = (dists[0] == 3 and dists[1] == 9 and uni.min_distance() == 3
          and elapsed_ok(t0, 1.0))
    report(2, ok, f"d(C_0)={dists[0]}, d(C_1)={dists[1]}, d(C_U)={uni.min_distance()}")


# ------------------------------------------------------------------ 3

def test_criterion_3_mv_example_2_both_layouts():
    t0 = time.perf_counter()
    ctx = FieldContext(3, 6)
    alphas = (ctx.gamma_pow(504), ctx.gamma_pow(294))
    measured = {}
    for layout in ("uncompressed", "compressed"):
        spec = MVSpec(field=ctx, m=3, l=2, big_l=5, k=1, alphas=alphas,
                      layout_name=layout)
        uni = build_union(build_codebook(spec))
        dists = component_min_distances(uni).tolist()
        measured[layout] = {
            "d_union": uni.min_distance(),
            "d_c0": dists[0],
            "d_others": sorted(set(dists[1:])),
        }
    matches = {layout: (m["d_union"] == 3 and m["d_c0"] == 3 and m["d_others"] == [9])
               for layout, m in measured.items()}
    status = "PASS" if any(matches.values()) else "EXPLORATORY-FAIL"
    print(f"CRITERION 3: {status} - measured per layout: {json.dumps(measured, sort_keys=True)}")
    assert any(matches.values()), f"neither layout reproduces (3, 3, 9): {measured}"
    assert elapsed_ok(t0, 10.0)


# ------------------------------------------------------------------ 4

def test_criterion_4_lemma_checks_by_enumeration():
    t0 = time.perf_counter()
    ctx8 = gf8()
    ctx9 = FieldContext(3, 2, oracles.MOD_GF9)
    ctx729 = FieldContext(3, 6)

    gab_specs = [
        GabidulinSpec(field=ctx8, n=2, k=1, generators=(ctx8.gamma_pow(3), ctx8.gamma_pow(4))),
        GabidulinSpec(field=ctx8, n=3, k=2, generators=(ctx8.one, ctx8.gamma, ctx8.gamma_pow(2))),
    ]
    kk_specs = [
        KKSpec(field=ctx8, l=2, k=1, alphas=(ctx8.gamma_pow(3), ctx8.gamma_pow(4))),
        KKSpec(field=ctx9, l=2, k=1, alphas=(ctx9.gamma, ctx9.gamma_pow(2))),
    ]
    mv_specs = [
        MVSpec(field=ctx8, m=3, l=1, big_l=2, k=1, alphas=(ctx8.gamma_pow(5),)),
        MVSpec(field=ctx729, m=3, l=2, big_l=5, k=1,
               alphas=(ctx729.gamma_pow(504), ctx729.gamma_pow(294))),
    ]

    failures = []
    for spec in gab_specs:
        uni = build_union(build_codebook(spec))
        checks = {c.lemma: c for c in verify_lemmas(spec, uni)}
        if not checks["L1"].passed or uni.min_distance() != 1:
            failures.append(f"L1 on {spec}")
        if not checks["L2"].passed:
            failures.append(f"L2 on {spec}")
    for spec in kk_specs:
        uni = build_union(build_codebook(spec))
        checks = {c.lemma: c for c in verify_lemmas(spec, uni)}
        if not checks["L4"].passed or uni.min_distance() != 1:
            failures.append(f"L4 on {spec}")
        exact = (spec.q ** spec.l - 1) * spec.q ** spec.m + 1
        if not checks["L6"].passed or uni.cardinality != exact:
            failures.append(f"L6 on {spec}")
    for spec in mv_specs:
        uni = build_union(build_codebook(spec))
        checks = {c.lemma: c for c in verify_lemmas(spec, uni)}
        bound = spec.m if spec.l == 1 else min(spec.m * spec.l - spec.l + 1, spec.big_l)
        if not checks["L8"].passed or uni.min_distance() > bound:
            failures.append(f"L8 on {spec}")
        if not checks["L9"].passed or \
                uni.cardinality >= spec.q ** (spec.l + spec.big_l * spec.m):
            failures.append(f"L9 on {spec}")
    ok = not failures and elapsed_ok(t0, 30.0)
    report(4, ok, f"2 Gabidulin + 2 KK + 2 MV instances; failures: {failures or 'none'}")


# ------------------------------------------------------------------ 5

def test_criterion_5_rs_style_constructions():
    t0 = time.perf_counter()
    ctx = FieldContext(5, 4, oracles.MOD_GF625)
    a0 = ctx.element((1, 1, 1, 1))   # (m, l) Reed-Solomon-style generator rows:
    a1 = ctx.element((0, 1, 2, 3))   # evaluations of 1 and x at 0, 1, 2, 3

    kk_spec = KKSpec(field=ctx, l=2, k=1, alphas=(a0, a1))
    kk_c0 = encode(kk_spec, ctx.zero.coeffs)
    d_kk = min(oracles.weight(v) for v in oracles.span(kk_c0.rows, 5) if any(v))
    kk_ok = d_kk == kk_spec.m - kk_spec.l + 1 == 3

    mv_spec = MVSpec(field=ctx, m=2, l=2, big_l=2, k=1, alphas=(a0, a1))
    mv_c0 = encode(mv_spec, (0,))
    d_mv = min(oracles.weight(v) for v in oracles.span(mv_c0.rows, 5) if any(v))
    mv_ok = d_mv == mv_spec.m * mv_spec.l - mv_spec.l + 1 == 3

    ok = kk_ok and mv_ok and elapsed_ok(t0, 10.0)
    report(5, ok, f"KK d(C_0)={d_kk} (want m-l+1=3); MV d(C_0)={d_mv} (want ml-l+1=3)")


# ------------------------------------------------------------------ 6

def test_criterion_6_mrd_property():
    t0 = time.perf_counter()
    ctx = gf8()
    gens = (ctx.one, ctx.gamma, ctx.gamma_pow(2))
    results = {}
    for n, k in ((2, 1), (3, 1), (3, 2)):
        spec = GabidulinSpec(field=ctx, n=n, k=k, generators=gens[:n])
        words = [[ctx.from_vector(r) for r in cw.rows] for cw in build_codebook(spec)]
        dmin = min(rank_distance(a, b)
                   for i, a in enumerate(words) for b in words[i + 1:])
        results[(n, k)] = dmin
    ok = all(d == n - k + 1 for (n, k), d in results.items()) and elapsed_ok(t0, 10.0)
    report(6, ok, f"min rank distances {results} vs n-k+1")


# ------------------------------------------------------------------ 7

def test_criterion_7_tier1_single_flip_soundness():
    t0 = time.perf_counter()
    ctx = gf8()
    spec = MVSpec(field=ctx, m=3, l=1, big_l=2, k=1, alphas=(ctx.gamma_pow(5),))
    uni = build_union(build_codebook(spec))
    assert uni.min_distance() == 3
    corrected = 0
    miscorrected = 0
    for v in uni.vectors:
        for pos in range(9):
            pkt = list(v)
            pkt[pos] ^= 1
            verdict = tier1_decode(tuple(pkt), uni, radius=1)
            if verdict.outcome == "corrected" and verdict.vector == v:
                corrected += 1
            else:
                miscorrected += 1
    total = uni.cardinality * 9
    ok = corrected == total == 27 and miscorrected == 0 and elapsed_ok(t0, 1.0)
    report(7, ok, f"{corrected}/{total} single-flip corruptions corrected, "
                  f"{miscorrected} miscorrections")


# ------------------------------------------------------------------ 8

def test_criterion_8_two_tier_dominance():
    t0 = time.perf_counter()
    ctx = gf8()
    spec = MVSpec(field=ctx, m=3, l=1, big_l=2, k=1, alphas=(ctx.gamma_pow(5),))
    cb = build_codebook(spec)
    setup = CodeSetup(codebook=cb, union=build_union(cb))
    topo = Topology(
        nodes=(("s", "source"), ("a", "intermediate"), ("b", "intermediate"), ("t", "sink")),
        edges=(("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")))
    model = ErrorModel(corrupt_packet_prob=0.5, fixed_flips=1)
    seed = 20240601
    rep = run_experiment(topo, setup, model, 1000, seed,
                         strategies=(TIER2_ONLY, TWO_TIER))
    rep2 = run_experiment(topo, setup, model, 1000, seed,
                          strategies=(TIER2_ONLY, TWO_TIER))
    identical = json.dumps(rep, sort_keys=True) == json.dumps(rep2, sort_keys=True)

    t2 = rep["strategies"][TIER2_ONLY]
    tt = rep["strategies"][TWO_TIER]
    strict_wins = sum(1 for x, y in zip(t2["success_by_trial"], tt["success_by_trial"])
                      if y > x)
    ok = (tt["successes"] >= t2["successes"] and strict_wins >= 10
          and identical and elapsed_ok(t0, 60.0))
    report(8, ok, f"two-tier {tt['successes']}/1000 vs tier2-only {t2['successes']}/1000, "
                  f"strict wins {strict_wins} (need >= 10), identical rerun {identical}")


# ------------------------------------------------------------------ 9

def test_criterion_9_feedback_restriction():
    t0 = time.perf_counter()
    ctx = gf8()
    spec = MVSpec(field=ctx, m=3, l=1, big_l=2, k=1, alphas=(ctx.gamma_pow(5),))
    cb = build_codebook(spec)
    uni = build_union(cb)

    restricted = uni.restrict({1})
    d_restricted = restricted.min_distance()
    radius = (d_restricted - 1) // 2

    v = cb[1].rows[0]
    corrupted = list(v)
    for pos in range(4):
        corrupted[pos] ^= 1
    corrupted = tuple(corrupted)

    # unrestricted tier 1 at radius 1 cannot correct 4 flips
    unres = tier1_decode(corrupted, uni, radius=1)
    # restricted tier 1 at radius 4 corrects them
    res = tier1_decode(corrupted, restricted, radius=radius)
    # the full feedback pipeline does the same end to end
    outcome = two_tier_decode([v, corrupted], uni, cb,
                              DecodeOptions(list_radius=0, feedback=True))
    ok = (d_restricted == 9 and radius == 4
          and unres.outcome != "corrected"
          and res.outcome == "corrected" and res.vector == v and res.flips == 4
          and outcome.result.chosen == 1
          and outcome.audit["feedback"]["tier1_radius"] == 4
          and elapsed_ok(t0, 1.0))
    report(9, ok, f"restricted d={d_restricted}, radius={radius}, "
                  f"unrestricted verdict={unres.outcome}, restricted verdict={res.outcome}")
