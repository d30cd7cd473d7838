import itertools
import random
from pathlib import Path

import pytest

from twotier.codes import GabidulinSpec, KKSpec, MVSpec, build_codebook
from twotier.config import load_config
from twotier.decoders import (CORRECT, CORRECT_OR_ERASE, DETECT_ONLY,
                              DecodeOptions, DecodeResult, default_radius,
                              tier1_decode, tier2_list_decode, tier2_rank_decode,
                              tier2_subspace_decode, two_tier_decode)
from twotier.fields import FieldContext, FieldElement
from twotier.metrics import hamming_distance, rank_distance
from twotier.union import build_union, owners

import oracles

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def gf8():
    return FieldContext(2, 3)


def mv1():
    ctx = gf8()
    spec = MVSpec(field=ctx, m=3, l=1, big_l=2, k=1, alphas=(ctx.gamma_pow(5),))
    cb = build_codebook(spec)
    return spec, cb, build_union(cb)


def kk():
    ctx = gf8()
    spec = KKSpec(field=ctx, l=2, k=1, alphas=(ctx.gamma_pow(3), ctx.gamma_pow(4)))
    cb = build_codebook(spec)
    return spec, cb, build_union(cb)


def gab(n=3, k=1):
    ctx = gf8()
    gens = [ctx.one, ctx.gamma, ctx.gamma_pow(2)][:n]
    spec = GabidulinSpec(field=ctx, n=n, k=k, generators=gens)
    cb = build_codebook(spec)
    return spec, cb, build_union(cb)


def flip(vec, positions):
    out = list(vec)
    for i in positions:
        out[i] ^= 1
    return tuple(out)


# ---------------------------------------------------------------- tier 1

def test_tier1_members_pass_unchanged():
    _, _, uni = mv1()
    for v in owners(uni):
        verdict = tier1_decode(v, uni, radius=1)
        assert verdict.outcome == "valid"
        assert verdict.vector == v
        assert verdict.flips == 0


def test_tier1_single_flip_corrections():
    _, _, uni = mv1()
    for v in owners(uni):
        for pos in range(9):
            verdict = tier1_decode(flip(v, [pos]), uni, radius=1)
            assert verdict.outcome == "corrected"
            assert verdict.vector == v
            assert verdict.flips == 1


def test_tier1_detect_only_rejects():
    _, _, uni = mv1()
    pkt = flip(next(iter(owners(uni))), [0])
    verdict = tier1_decode(pkt, uni, radius=1, mode=DETECT_ONLY)
    assert verdict.outcome == "rejected"
    assert verdict.vector is None


def test_tier1_beyond_radius():
    _, _, uni = mv1()
    v = next(v for v in owners(uni) if sum(v) == 3)
    pkt = flip(v, [0, 3])  # distance 2 from v, further from the others
    assert tier1_decode(pkt, uni, radius=1, mode=CORRECT_OR_ERASE).outcome == "erased"
    assert tier1_decode(pkt, uni, radius=1, mode=CORRECT,
                        allow_radius_override=True).outcome == "rejected"


def test_tier1_tie_handling():
    _, _, uni = mv1()
    vectors = list(owners(uni))
    # find a packet with two equally-near union vectors by scanning the ambient
    tie_pkt = None
    for bits in itertools.product((0, 1), repeat=9):
        dists = sorted(hamming_distance(bits, v) for v in vectors)
        if dists[0] == dists[1] and dists[0] > 0 and dists[0] <= 3:
            tie_pkt = bits
            radius = dists[0]
            break
    assert tie_pkt is not None
    erased = tier1_decode(tie_pkt, uni, radius=radius, mode=CORRECT_OR_ERASE,
                          allow_radius_override=True)
    assert erased.outcome == "erased"
    assert erased.candidates >= 2
    rejected = tier1_decode(tie_pkt, uni, radius=radius, mode=CORRECT,
                            allow_radius_override=True)
    assert rejected.outcome == "rejected"


def test_tier1_radius_enforcement():
    _, _, uni = mv1()  # d = 3, so the unique-decoding radius is 1
    pkt = flip(next(iter(owners(uni))), [0])
    with pytest.raises(ValueError, match="unique-decoding"):
        tier1_decode(pkt, uni, radius=2, mode=CORRECT)
    # override allows the experiment, erase mode does not enforce
    tier1_decode(pkt, uni, radius=2, mode=CORRECT, allow_radius_override=True)
    tier1_decode(pkt, uni, radius=2, mode=CORRECT_OR_ERASE)


def test_tier1_kk_radius_zero_membership_only():
    _, _, uni = kk()
    assert uni.min_distance() == 1
    assert default_radius(uni.min_distance()) == 0
    member = next(iter(owners(uni)))
    assert tier1_decode(member, uni, radius=0, mode=CORRECT).outcome == "valid"
    non_member = next(v for v in itertools.product((0, 1), repeat=6)
                      if tuple(v) not in uni)
    assert tier1_decode(non_member, uni, radius=0, mode=CORRECT).outcome == "rejected"


def test_tier1_length_mismatch():
    _, _, uni = mv1()
    with pytest.raises(ValueError, match="length"):
        tier1_decode((0, 1), uni, radius=1)


# ---------------------------------------------------------------- tier 2 subspace

def test_tier2_exact_codeword():
    _, cb, _ = mv1()
    for i, cw in enumerate(cb):
        result = tier2_subspace_decode(list(cw.rows), cb)
        assert result == DecodeResult(chosen=i, metric_value=0, tie=False)


def test_tier2_injected_packet_costs_one():
    _, cb, uni = kk()
    cw = cb[3]
    outside = next(v for v in itertools.product((0, 1), repeat=6)
                   if oracles.naive_rank(cw.rows + (v,), 2) == len(cw.rows) + 1)
    result = tier2_subspace_decode(list(cw.rows) + [outside], cb)
    assert result.metric_value == 1


def test_tier2_zero_span_ties_to_lowest_index():
    _, cb, _ = mv1()
    result = tier2_subspace_decode([(0,) * 9], cb)
    assert result.chosen == 0
    assert result.tie


def test_tier2_mv1_c1_generator():
    _, cb, _ = mv1()
    result = tier2_subspace_decode([cb[1].rows[0]], cb)
    assert result.chosen == 1
    assert result.metric_value == 0


def test_tier2_metric_flag():
    _, cb, _ = mv1()
    packets = [cb[1].rows[0]]
    inj = tier2_subspace_decode(packets, cb, metric="injection")
    sub = tier2_subspace_decode(packets, cb, metric="subspace")
    assert inj.chosen == sub.chosen == 1
    with pytest.raises(ValueError):
        tier2_subspace_decode(packets, cb, metric="euclid")
    with pytest.raises(ValueError):
        tier2_subspace_decode([], cb)


# ---------------------------------------------------------------- tier 2 list

def test_list_decode_radius_zero_singleton():
    _, cb, _ = mv1()
    result = tier2_list_decode([cb[1].rows[0]], cb, radius=0)
    assert result.list == (1,)
    assert result.chosen == 1


def test_list_decode_full_codebook_at_diameter():
    _, cb, _ = mv1()
    result = tier2_list_decode([cb[1].rows[0]], cb, radius=9)
    assert set(result.list) == {0, 1}
    assert result.list[0] == 1  # ascending distance


def test_list_decode_inclusive_radius():
    # at radius 1 the injection distance to both components is <= 1,
    # so the list keeps both, nearest first
    _, cb, _ = mv1()
    result = tier2_list_decode([cb[1].rows[0]], cb, radius=1, metric="injection")
    assert result.list == (1, 0)
    # the subspace metric doubles the gap and drops the wrong component
    result = tier2_list_decode([cb[1].rows[0]], cb, radius=1, metric="subspace")
    assert result.list == (1,)


def test_list_decode_empty_list_allowed():
    _, cb, _ = mv1()
    # a weight-2 packet is at injection distance 1 from everything only
    # when spans intersect; radius 0 on a non-codeword span is empty
    pkt = (1, 1, 0, 0, 0, 0, 0, 0, 0)
    result = tier2_list_decode([pkt], cb, radius=0)
    assert result.list == ()
    assert result.chosen is None


# ---------------------------------------------------------------- tier 2 rank

def test_rank_decode_identity():
    _, cb, _ = gab()
    for i, cw in enumerate(cb):
        result = tier2_rank_decode(list(cw.rows), cb)
        assert result.chosen == i and result.metric_value == 0


def test_rank_decode_corrects_all_rank_one_errors():
    ctx = gf8()
    spec, cb, _ = gab(n=3, k=1)  # d_r = 3 corrects rank-1 errors
    for i, cw in enumerate(cb):
        for beta_code in range(1, 8):
            beta = ctx.from_int(beta_code)
            for mask in itertools.product((0, 1), repeat=3):
                if not any(mask):
                    continue
                word = [ctx.from_vector(r) + (ctx.from_int(m) * beta)
                        for r, m in zip(cw.rows, mask)]
                result = tier2_rank_decode([s.to_vector() for s in word], cb)
                assert result.chosen == i
                assert not result.tie


def test_rank_decode_tie_flag():
    ctx = gf8()
    spec, cb, _ = gab(n=2, k=1)
    # brute-force search for an equidistant word
    found = False
    for codes in itertools.product(range(8), repeat=2):
        word = [ctx.from_int(c) for c in codes]
        dists = [rank_distance(word, [ctx.from_vector(r) for r in cw.rows]) for cw in cb]
        best = min(dists)
        if sum(1 for d in dists if d == best) > 1:
            result = tier2_rank_decode([s.to_vector() for s in word], cb)
            assert result.tie
            assert result.chosen == dists.index(best)
            found = True
            break
    assert found


def test_rank_decode_punctured_positions():
    _, cb, _ = gab(n=3, k=1)
    cw = cb[6]
    word = list(cw.rows)
    result = tier2_rank_decode(word, cb, positions=[0, 2])
    assert result.chosen == 6
    with pytest.raises(ValueError):
        tier2_rank_decode(word, cb, positions=[])


# ---------------------------------------------------------------- pipeline

def test_two_tier_equals_tier2_when_disabled():
    _, cb, uni = mv1()
    packets = [flip(cb[1].rows[0], [2]), (0,) * 9]
    outcome = two_tier_decode(packets, uni, cb, DecodeOptions(tier1_enabled=False))
    assert outcome.result == tier2_subspace_decode(packets, cb)
    assert outcome.verdicts == []


def test_two_tier_single_flip_exhaustive():
    _, cb, uni = mv1()
    t2_failures = 0
    for i, cw in enumerate(cb):
        for pos in range(9):
            pkt = flip(cw.rows[0], [pos])
            outcome = two_tier_decode([pkt], uni, cb)
            assert outcome.result.chosen == i
            if tier2_subspace_decode([pkt], cb).chosen != i:
                t2_failures += 1
    assert t2_failures > 0  # tier 2 alone is not reliable on corrupted packets


def test_two_tier_all_packets_rejected_is_failure():
    _, cb, uni = kk()
    non_member = next(v for v in itertools.product((0, 1), repeat=6)
                      if tuple(v) not in uni)
    outcome = two_tier_decode([non_member], uni, cb,
                              DecodeOptions(mode=CORRECT, radius=0))
    assert outcome.result.chosen is None
    assert outcome.result.metric_value is None


def test_two_tier_feedback_restores_radius():
    _, cb, uni = mv1()
    v = cb[1].rows[0]
    corrupted = flip(v, [0, 1, 2, 3])
    options = DecodeOptions(list_radius=0, feedback=True)
    outcome = two_tier_decode([v, corrupted], uni, cb, options)
    assert outcome.result.chosen == 1
    fb = outcome.audit["feedback"]
    assert fb["list"] == [1]
    assert fb["restricted_min_distance"] == 9
    assert fb["tier1_radius"] == 4
    # second tier-1 pass corrected the 4-flip packet
    assert [v.outcome for v in outcome.verdicts] == ["valid", "corrected"]
    assert outcome.verdicts[1].flips == 4
    # without feedback the corrupted packet stays erased
    plain = two_tier_decode([v, corrupted], uni, cb)
    assert [v.outcome for v in plain.verdicts] == ["valid", "erased"]


def test_feedback_requires_list_radius():
    with pytest.raises(ValueError):
        DecodeOptions(feedback=True)


def test_feedback_requires_tier1():
    # the feedback pass reruns tier 1 on the restricted union, so with tier 1
    # disabled it would not be tier 2 alone
    with pytest.raises(ValueError, match="feedback requires tier 1"):
        DecodeOptions(tier1_enabled=False, list_radius=1, feedback=True)
    assert not DecodeOptions(tier1_enabled=False, list_radius=1).feedback


def test_two_tier_rank_lane():
    ctx = gf8()
    spec, cb, uni = gab(n=3, k=1)
    cw = cb[5]
    packets = list(cw.rows)
    outcome = two_tier_decode(packets, uni, cb)
    assert outcome.result.chosen == 5
    assert outcome.result.metric_value == 0


def test_two_tier_rank_lane_with_erasure():
    # (2,1): each nonzero component spans only 4 of the 8 vectors, so its
    # restricted union has non-members that tier 1 rejects; the rank decoder
    # then works on the surviving position alone
    spec, cb, uni = gab(n=2, k=1)
    cw = cb[5]
    packets = list(cw.rows)
    restricted = uni.restrict({5})
    stray = next(v for v in itertools.product((0, 1), repeat=3)
                 if tuple(v) not in restricted)
    packets[1] = stray
    outcome = two_tier_decode(packets, restricted, cb,
                              DecodeOptions(mode=CORRECT, radius=0))
    assert outcome.result.chosen == 5  # decoded from the surviving position
    assert outcome.verdicts[1].outcome == "rejected"


def test_two_tier_rank_lane_decodes_corrected_packets():
    # n = k = 1: every vector of GF(2)^3 is a codeword's row, so tier 2 finds
    # the packet tier 1 hands it at distance 0; restricted to {000, 111},
    # tier 1 corrects 110 to 111, the row of the message with digits (1, 1, 1)
    ctx = gf8()
    spec = GabidulinSpec(field=ctx, n=1, k=1, generators=(ctx.one,))
    cb = build_codebook(spec)
    assert cb[7].rows == ((1, 1, 1),) and cb[3].rows == ((1, 1, 0),)
    restricted = build_union(cb).restrict({7})
    outcome = two_tier_decode([(1, 1, 0)], restricted, cb, DecodeOptions(radius=1))
    assert outcome.verdicts[0].outcome == "corrected"
    assert outcome.result == DecodeResult(chosen=7, metric_value=0, tie=False)


def test_restriction_never_decreases_radius():
    _, cb, uni = mv1()
    d = uni.min_distance()
    for subset in ({0}, {1}, {0, 1}):
        r = uni.restrict(subset)
        if r.cardinality >= 2:
            assert r.min_distance() >= d


def test_feedback_on_one_vector_restricted_union_keeps_first_pass():
    # the zero Gabidulin codeword lists only itself, and its component is
    # {0}: a restricted union without a minimum distance
    cfg = load_config(CONFIGS / "gabidulin_gf8.json")
    _, _, cb, uni = cfg.build_all()
    zero = cb[0]
    assert not any(map(any, zero.rows))
    options = DecodeOptions(list_radius=0, feedback=True)
    outcome = two_tier_decode(zero.rows, uni, cb, options)
    assert outcome.result == DecodeResult(chosen=0, metric_value=0, tie=False, list=(0,))
    assert outcome.audit["feedback"] == {
        "list": [0], "restricted_cardinality": 1,
        "skipped": "restricted union has fewer than two vectors"}
    assert outcome.audit["final"] == outcome.audit["first_pass"]
    assert [v.outcome for v in outcome.verdicts] == ["valid", "valid"]


# ---------------------------------------------------------------- input digits

def test_digits_outside_base_field_are_rejected():
    _, cb, uni = kk()
    bad = (9, 0, 0, 1, 0, 0)  # 9 is not a GF(2) digit
    good = cb[1].rows[0]
    for tier1 in (True, False):
        with pytest.raises(ValueError, match=r"\[0, 2\)"):
            two_tier_decode([good, bad], uni, cb, DecodeOptions(tier1_enabled=tier1))
    with pytest.raises(ValueError, match=r"\[0, 2\)"):
        two_tier_decode([good, (0, 0, 0, -1, 0, 0)], uni, cb)
    with pytest.raises(ValueError, match=r"\[0, 2\)"):
        tier2_subspace_decode([good, bad], cb)
    with pytest.raises(ValueError, match=r"\[0, 2\)"):
        tier2_list_decode([bad], cb, radius=1)
    for mode in (DETECT_ONLY, CORRECT, CORRECT_OR_ERASE):
        with pytest.raises(ValueError, match=r"\[0, 2\)"):
            tier1_decode(bad, uni, radius=0, mode=mode)
    # a digit 5 at a union vector's position 0 is not a flip of it
    _, _, _, gab_uni = load_config(CONFIGS / "gabidulin_gf8.json").build_all()
    member = next(iter(owners(gab_uni)))
    for mode in (DETECT_ONLY, CORRECT, CORRECT_OR_ERASE):
        with pytest.raises(ValueError, match=r"\[0, 2\)"):
            tier1_decode((5,) + member[1:], gab_uni, radius=1, mode=mode,
                         allow_radius_override=True)


def test_rank_decode_rejects_symbol_digits_outside_base_field():
    ctx = gf8()
    _, cb, _ = gab()
    word = [ctx.from_vector(r) for r in cb[3].rows]
    word[1] = FieldElement(ctx, (2, 0, 0))  # built around the digit check of ctx.element
    word = [s.to_vector() for s in word]
    with pytest.raises(ValueError, match=r"\[0, 2\)"):
        tier2_rank_decode(word, cb)
    # an erased position is not read
    assert tier2_rank_decode(word, cb, positions=[0, 2]).chosen == 3
