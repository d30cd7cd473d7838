import functools
import itertools
import random
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from twotier import decoders
from twotier.codes import Codebook, GabidulinSpec, KKSpec, MVSpec, build_codebook
from twotier.config import load_config
from twotier.decoders import (CORRECT, CORRECT_OR_ERASE, DETECT_ONLY, FAILURE, TIER1_MODES,
                              DecodeOptions, DecodeResult, default_radius,
                              tier1_decode, tier2_list_decode, tier2_rank_decode,
                              tier2_subspace_decode, two_tier_decode)
from twotier.fields import FieldContext, FieldElement
from twotier.metrics import hamming_distance, rank_distance
from twotier.union import build_union, owners

import oracles

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
PERFBENCH_CONFIGS = Path(__file__).resolve().parent.parent / "perfbench" / "configs"
GOLDEN_DECODE = Path(__file__).resolve().parent / "golden" / "decode"


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


def test_tier1_rejects_an_unknown_mode_and_a_negative_radius():
    _, _, uni = mv1()
    member = next(iter(owners(uni)))
    with pytest.raises(ValueError, match="unknown tier-1 mode 'bogus'"):
        tier1_decode(member, uni, radius=1, mode="bogus")
    # the radius is read only for a packet outside the union
    outside = flip(member, [0])
    assert outside not in uni
    for mode in (CORRECT, CORRECT_OR_ERASE):
        with pytest.raises(ValueError, match="radius must be nonnegative"):
            tier1_decode(outside, uni, radius=-1, mode=mode)


def test_a_members_verdict_is_made_once_of_python_ints():
    """Tier 1 answers a member from the union's member dict: its verdict is
    VALID with the member as its vector, 0 flips and 1 candidate, made on
    the member's first hit and kept there, and its vector holds Python ints
    also when that first packet held numpy ints. The dict keeps one entry
    per union vector."""
    _, _, uni = kk()
    members = list(owners(uni))
    first = tier1_decode(np.array(members[1]), uni, radius=0)
    assert first == decoders.PacketVerdict(decoders.VALID, members[1], 0, 1)
    assert [type(d) for d in first.vector] == [int] * len(members[1])
    for mode in TIER1_MODES:
        for packet in (members[1], list(members[1]), np.array(members[1], dtype=np.int8)):
            assert tier1_decode(packet, uni, radius=0, mode=mode) is first
    table = uni.__dict__["_members"]
    assert len(table) == uni.cardinality and table[members[1]] is first
    assert table[members[2]] == members[2]          # no hit yet, so no verdict
    # a non-member's verdict is not kept there
    outside = next(flip(m, [0]) for m in members if flip(m, [0]) not in uni)
    assert tier1_decode(outside, uni, radius=0).outcome == decoders.ERASED
    assert len(table) == uni.cardinality and outside not in table


def test_tier1_refuses_as_the_check_then_the_mode_do():
    """A member with an unknown mode raises the mode's error, before and
    after its verdict is kept; a packet that is no member raises the packet
    check's error first, whatever the mode, as does a packet whose digits
    cannot be hashed."""
    _, _, uni = kk()
    member = next(iter(owners(uni)))
    for _ in range(2):
        with pytest.raises(ValueError, match="^unknown tier-1 mode 'bogus'$"):
            tier1_decode(member, uni, radius=0, mode="bogus")
        tier1_decode(member, uni, radius=0)
    for bad in ((2,) + member[1:], (-1,) + member[1:], member[1:], member + (0,),
                (0.5,) + member[1:], ([0],) + member[1:]):
        try:
            oracles.reference_check_packets([bad], uni.p, uni.ambient_len)
            # the check reads a digit 0.5 as within [0, 2): then the mode
            expected = ValueError("unknown tier-1 mode 'bogus'")
        except Exception as exc:
            expected = exc
        with pytest.raises(Exception) as got:
            tier1_decode(bad, uni, radius=0, mode="bogus")
        assert type(got.value) is type(expected) and str(got.value) == str(expected)


def test_public_decode_checks_tier_2_input_once_and_each_non_member(monkeypatch):
    """On the KK benchmark code a two-tier decode runs ``_check_packets``
    once for tier 2 and once per packet that is not a union member, which
    tier 1 checks before it erases it: a member needs no check."""
    _, _, codebook, union = load_config(PERFBENCH_CONFIGS / "kk-gf128.json").build_all()
    calls = count_calls(monkeypatch, decoders, "_check_packets")
    rng = random.Random(30)
    for index in rng.sample(range(len(codebook)), 20):
        rows = [tuple(r) for r in codebook[index].rows]
        packets = rows + [tuple((a + b) % 2 for a, b in zip(*rows))]
        for flips in range(len(packets) + 1):
            word = [flip(p, [rng.randrange(len(p))]) if i < flips else p
                    for i, p in enumerate(packets)]
            outside = sum(p not in union for p in word)
            if outside == len(word):
                continue            # nothing reaches tier 2
            del calls[:]
            result = two_tier_decode(word, union, codebook)
            assert len(calls) == 1 + outside
            assert flips or (outside, result.result.chosen) == (0, index)


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


def test_tier2_entries_refuse_the_other_codebook_and_a_negative_radius():
    _, subspace, _ = kk()
    _, rank, _ = gab()
    for call, kind in ((lambda: tier2_rank_decode(list(rank[0].rows), subspace), "gabidulin"),
                       (lambda: tier2_subspace_decode(list(subspace[0].rows), rank), "subspace"),
                       (lambda: tier2_list_decode(list(subspace[0].rows), rank, 1), "subspace")):
        with pytest.raises(ValueError, match=f"^codebook is not a {kind} codebook$"):
            call()
    with pytest.raises(ValueError, match="^list radius must be nonnegative$"):
        tier2_list_decode(list(subspace[1].rows), subspace, -1)
    # every position, which a syndrome table serves, and two, which the scan does
    for positions in (None, [0, 1]):
        with pytest.raises(ValueError, match="^list radius must be nonnegative$"):
            tier2_rank_decode(list(rank[1].rows), rank, positions, list_radius=-1)


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


@pytest.mark.parametrize("positions", ([-1], "n", [0, 0]), ids=["negative", "n", "repeated"])
def test_rank_decode_rejects_positions_outside_the_word_or_repeated(positions):
    """A negative position once read the last row through Python's index,
    and a repeated one counted its row twice; both decoded codeword 5 of
    gabidulin_gf8 at distance 0 from its own rows."""
    _, _, cb, _ = load_config(CONFIGS / "gabidulin_gf8.json").build_all()
    n = cb.stack.shape[1]
    positions = [n] if positions == "n" else positions
    with pytest.raises(ValueError, match=rf"positions must be distinct positions in \[0, {n}\)"):
        tier2_rank_decode(cb[5].rows, cb, positions=positions)
    assert tier2_rank_decode(cb[5].rows, cb, positions=[0, n - 1]).chosen == 5


def test_rank_decode_rejects_a_word_of_the_wrong_length():
    _, cb, _ = gab(n=3, k=1)
    with pytest.raises(ValueError, match="word length 2 != code length 3"):
        tier2_rank_decode(cb[5].rows[:2], cb)


# ---------------------------------------------------------------- pipeline

def test_two_tier_equals_tier2_when_disabled():
    _, cb, uni = mv1()
    packets = [flip(cb[1].rows[0], [2]), (0,) * 9]
    outcome = two_tier_decode(packets, uni, cb, DecodeOptions(tier1_enabled=False))
    assert outcome.result == tier2_subspace_decode(packets, cb)
    assert outcome.verdicts == []


def test_two_tier_needs_a_packet():
    _, cb, uni = mv1()
    with pytest.raises(ValueError, match="no packets to decode"):
        two_tier_decode([], uni, cb)


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


def test_feedback_pass_that_drops_every_packet_fails_the_decode():
    # gab-gf64's full union is all of GF(2)^6, so only the feedback pass, on
    # the union restricted to the listed codeword, can drop every packet; the
    # rank lane is then left with no position and the decode fails
    cfg = load_config(PERFBENCH_CONFIGS / "gab-gf64.json")
    _, _, cb, uni = cfg.build_all()
    options = cfg.decode_options()
    assert (options.list_radius, options.feedback) == (1, True)
    # codeword 2650 with each row flipped in one bit
    packets = [(1, 1, 1, 0, 1, 1), (0, 0, 1, 0, 1, 0), (1, 0, 1, 1, 0, 1), (1, 0, 0, 1, 0, 1)]
    assert [hamming_distance(a, b) for a, b in zip(packets, cb[2650].rows)] == [1, 1, 1, 1]
    for mode in (CORRECT, CORRECT_OR_ERASE):
        outcome = two_tier_decode(packets, uni, cb, replace(options, mode=mode))
        feedback = outcome.audit["feedback"]
        assert feedback["list"] == [166] and feedback["tier1_radius"] == 0
        assert feedback["second_pass"] is None
        assert {v.outcome for v in outcome.verdicts} <= {"erased", "rejected"}
        assert outcome.result.chosen is None and outcome.result == FAILURE


# ---------------------------------------------------------------- feedback shortcut

FEEDBACK_CODES = ("gab-gf64", "gabidulin_gf8-feedback", "kk_example-feedback", "gf9-kk")


@functools.cache
def feedback_code(name):
    """(codebook, union, options) of a code decoded with list feedback:
    gab-gf64 (list radius 1), the two golden feedback configs, and a KK
    code over GF(3) (9 codewords in GF(3)^4)."""
    if name == "gf9-kk":
        ctx = FieldContext(3, 2, oracles.MOD_GF9)
        cb = build_codebook(KKSpec(field=ctx, l=2, k=1, alphas=(ctx.gamma, ctx.gamma_pow(2))))
        return cb, build_union(cb), DecodeOptions(list_radius=1, feedback=True)
    where = PERFBENCH_CONFIGS if name == "gab-gf64" else GOLDEN_DECODE
    cfg = load_config(where / f"{name}.json")
    _, _, cb, uni = cfg.build_all()
    return cb, uni, cfg.decode_options()


@st.composite
def feedback_requests(draw):
    """A codeword's rows sent clean, with a rank-1 error (one vector added,
    times a nonzero digit, to some rows), with digits changed, or with a
    row replaced by any vector (which tier 1 may erase); decoded in any
    tier-1 mode and, for a subspace code, either metric."""
    name = draw(st.sampled_from(FEEDBACK_CODES))
    codebook, union, options = feedback_code(name)
    p, width = codebook.p, codebook.stack.shape[2]
    packets = [tuple(r) for r in codebook[draw(st.integers(0, len(codebook) - 1))].rows]
    row = st.integers(0, len(packets) - 1)
    nonzero = st.integers(1, p - 1)
    vector = st.lists(st.integers(0, p - 1), min_size=width, max_size=width).map(tuple)
    kind = draw(st.sampled_from(("clean", "rank-1", "flips", "erasure")))
    if kind == "rank-1":
        error = draw(vector.filter(any))
        for i in draw(st.sets(row, min_size=1)):
            c = draw(nonzero)
            packets[i] = tuple((a + c * e) % p for a, e in zip(packets[i], error))
    elif kind == "flips":
        for _ in range(draw(st.integers(1, len(packets)))):
            i, at = draw(row), draw(st.integers(0, width - 1))
            digits = list(packets[i])
            digits[at] = (digits[at] + draw(nonzero)) % p
            packets[i] = tuple(digits)
    elif kind == "erasure":
        packets[draw(row)] = draw(vector)
    options = replace(options, mode=draw(st.sampled_from(TIER1_MODES)))
    if codebook.kind == "subspace":
        options = replace(options, metric=draw(st.sampled_from(("injection", "subspace"))))
    return name, packets, options


def test_feedback_shortcut_matches_the_rescanning_reference():
    """When the feedback pass keeps the first pass's word, two_tier_decode
    reads the second result off the first pass's list; the reference runs
    tier 2 again. Result, verdicts and the whole audit agree, and both
    branches, the same word and a changed one, are drawn."""
    branches = set()
    # the golden feedback packet files, and a gab-gf64 row with one bit
    # flipped that only the feedback pass corrects, at the same positions
    golden = [(path.name.split(".")[0], [tuple(map(int, line)) for line in
                                          path.read_text().split()])
              for path in sorted(GOLDEN_DECODE.glob("*-feedback.*.txt"))]
    gab = feedback_code("gab-gf64")[0]
    corrected = [(1, 0, 0, 1, 1, 1)] + [tuple(r) for r in gab[316].rows[1:]]
    examples = [(name, packets, feedback_code(name)[2]) for name, packets in golden]
    examples.append(("gab-gf64", corrected, feedback_code("gab-gf64")[2]))

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(request=feedback_requests())
    def check(request):
        name, packets, options = request
        codebook, union, _ = feedback_code(name)
        outcome = two_tier_decode(packets, union, codebook, options)
        result, verdicts, audit, same = oracles.reference_two_tier(packets, union, codebook,
                                                                   options)
        assert asdict(outcome.result) == asdict(result)
        assert outcome.verdicts == verdicts
        assert outcome.audit == audit
        branches.add(same)

    for request in examples:
        check = example(request=request)(check)
    check()
    assert len(examples) == 13
    assert {True, False} <= branches


def count_calls(monkeypatch, owner, name):
    """The argument tuples of every call of owner.name from here on."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_feedback_pass_ranks_again_only_for_a_changed_word(monkeypatch):
    """A clean gab-gf64 word runs tier 2 once: the feedback pass keeps every
    packet. With one bit of a row flipped, the feedback pass corrects that
    row and runs tier 2 a second time. Both words lie within the syndrome
    tables' radius at their positions, so neither ranks the codebook."""
    cb, uni, options = feedback_code("gab-gf64")
    passes = count_calls(monkeypatch, decoders, "_tier2_pass")
    ranked = count_calls(monkeypatch, Codebook, "batched_rank")
    clean = [tuple(r) for r in cb[316].rows]
    outcome = two_tier_decode(clean, uni, cb, options)
    assert outcome.audit["feedback"]["second_pass"] == {
        "chosen": 316, "metric_value": 0, "tie": False, "list": None}
    assert [v.outcome for v in outcome.verdicts] == ["valid"] * 4
    assert len(passes) == 1

    passes.clear()
    corrupt = [(1, 0, 0, 1, 1, 1)] + clean[1:]
    assert hamming_distance(corrupt[0], clean[0]) == 1
    outcome = two_tier_decode(corrupt, uni, cb, options)
    assert outcome.audit["feedback"]["tier1_radius"] == 1
    assert [v.outcome for v in outcome.verdicts] == ["corrected"] + ["valid"] * 3
    assert outcome.result == DecodeResult(chosen=316, metric_value=0, tie=False)
    assert len(passes) == 2
    assert ranked == []


def test_rank_decodes_the_syndrome_tables_leave_to_the_scan(monkeypatch):
    """On gab-gf64 (k = 2) all four positions have syndrome radius t = 1.
    A list radius of t + 1, a nearest decode with no codeword within t,
    and fewer positions than k each rank the codebook once, and agree with
    the per-codeword rank distances."""
    cb = feedback_code("gab-gf64")[0]
    clean = [tuple(r) for r in cb[316].rows]
    # a rank-2 error on every row: no codeword lies within 1 of the word
    far = [(1, 0, 0, 1, 1, 0), (1, 0, 0, 1, 0, 1), (0, 1, 1, 1, 0, 0), (1, 0, 0, 0, 1, 1)]
    ranked = count_calls(monkeypatch, Codebook, "batched_rank")
    for word, positions, list_radius in ((clean, None, 2), (far, None, None),
                                         (clean, [2], 1), (far, [1], None)):
        result = tier2_rank_decode(word, cb, positions, list_radius)
        assert len(ranked) == 1
        ranked.clear()
        kept = range(4) if positions is None else positions
        dists = [oracles.naive_rank([[(a - b) % 2 for a, b in zip(word[i], cw.rows[i])]
                                     for i in kept], 2) for cw in cb]
        best = min(dists)
        if list_radius is None:
            assert result == DecodeResult(dists.index(best), best, dists.count(best) > 1)
        else:
            listed = sorted((d, i) for i, d in enumerate(dists) if d <= list_radius)
            assert result.list == tuple(i for _, i in listed)
            assert (result.chosen, result.metric_value) == listed[0][::-1]
            assert result.tie == (len(listed) > 1 and listed[1][0] == listed[0][0])
    assert tier2_rank_decode(far, cb, list_radius=1) == DecodeResult(None, None, False, ())
    assert ranked == []


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
