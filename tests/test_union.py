import functools
import gc
import json
import random
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twotier import linalg
from twotier import union as tt_union
from twotier.cli import main
from twotier.codes import Codebook, GabidulinSpec, KKSpec, MVSpec, build_codebook
from twotier.config import load_config
from twotier.decoders import TIER1_MODES, tier1_decode
from twotier.errors import BudgetError
from twotier.fields import FieldContext
from twotier.union import (UnionCode, build_union, component_min_distances, owners,
                           verify_lemmas)

import oracles

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))


def gf8():
    return FieldContext(2, 3)


def kk_union():
    ctx = gf8()
    spec = KKSpec(field=ctx, l=2, k=1, alphas=(ctx.gamma_pow(3), ctx.gamma_pow(4)))
    cb = build_codebook(spec)
    return spec, cb, build_union(cb)


def mv1_union():
    ctx = gf8()
    spec = MVSpec(field=ctx, m=3, l=1, big_l=2, k=1, alphas=(ctx.gamma_pow(5),))
    cb = build_codebook(spec)
    return spec, cb, build_union(cb)


def gab_union(n=2, k=1):
    ctx = gf8()
    gens = [ctx.gamma_pow(3), ctx.gamma_pow(4), ctx.gamma_pow(5)][:n]
    spec = GabidulinSpec(field=ctx, n=n, k=k, generators=gens)
    cb = build_codebook(spec)
    return spec, cb, build_union(cb)


# ---------------------------------------------------------------- building

def test_zero_dimensional_component():
    spec, cb, _ = gab_union()
    zero = Codebook(spec, cb.stack[:1])  # zero message only
    uni = build_union(zero)
    assert set(owners(uni)) == {(0, 0, 0)}
    assert zero.ranks[uni.components[0]] == 0


def test_kk_union_cardinality_and_distance():
    spec, cb, uni = kk_union()
    assert uni.cardinality == 25  # (q^l - 1) q^m + 1
    assert uni.min_distance() == 1
    assert (0,) * 6 in uni
    # zero vector is in every component
    assert owners(uni)[(0,) * 6] == set(range(8))


def test_kk_union_matches_brute_force():
    spec, cb, uni = kk_union()
    brute = set()
    for cw in cb:
        brute |= oracles.span(cw.rows, 2)
    assert set(owners(uni)) == brute


def test_mv1_union_vectors():
    spec, cb, uni = mv1_union()
    g5 = (1, 1, 1)
    assert set(owners(uni)) == {(0,) * 9, g5 + (0, 0, 0) + (0, 0, 0), g5 * 3}
    assert uni.min_distance() == 3


def test_union_budget():
    spec, cb, _ = kk_union()
    with pytest.raises(BudgetError):
        build_union(cb, budget=16)


def test_component_min_distances():
    spec, cb, uni = kk_union()
    dists = component_min_distances(uni)
    assert dists[0] == 2  # zero-message component
    assert not dists.flags.writeable
    _, _, uni_mv = mv1_union()
    assert component_min_distances(uni_mv).tolist() == [3, 9]


def test_zero_component_distance_is_inf():
    spec, cb, _ = gab_union()
    uni = build_union(cb)
    # a {0} span reads ambient_len + 1, which only reports write as "inf"
    assert component_min_distances(uni)[0] == uni.ambient_len + 1


@pytest.mark.parametrize("p, width", [(2, 64), (2, 65), (2, 130), (3, 40), (3, 41)])
def test_union_over_wide_vectors_matches_enumeration(p, width):
    """A union whose vectors pack into uint64 or, past 64 bits, into
    Python ints (3^40 < 2^64 < 3^41): a hand-made stack with a repeated
    codeword, a shared row, a dependent row, a zero codeword and digits
    p - 1 at the top positions."""
    rng = np.random.default_rng(width)
    rows = 3 if p == 2 else 2
    first = rng.integers(0, p, size=(rows, width), dtype=np.int8)
    first[0, -2:] = p - 1
    shared = rng.integers(0, p, size=(rows, width), dtype=np.int8)
    shared[0] = first[0]
    dependent = rng.integers(0, p, size=(rows, width), dtype=np.int8)
    dependent[-1] = (dependent[0] + dependent[1]) % p
    stack = np.stack([first, shared, first, np.zeros_like(first), dependent])
    packed = linalg.pack_digits(stack, p)
    assert (packed.dtype == object) == (p ** width > 2 ** 64)
    spans = build_union(lent_codebook(stack, p)).provenance
    check_reference_spans(spans, stack, p)
    assert spans.ids[0].tolist() == spans.ids[2].tolist()


def lent_codebook(stack, p):
    """A Gabidulin codebook over any (N, rows, width) stack of GF(p)
    digits: the spec lends p only, and a Gabidulin codebook is not checked
    for dependent or repeated subspaces."""
    field = FieldContext(2, 3) if p == 2 else FieldContext(3, 6)
    spec = GabidulinSpec(field=field, n=1, k=1, generators=[field.one])
    return Codebook(spec, stack)


def check_reference_spans(spans, stack, p):
    vectors, ids, min_weights = oracles.reference_spans(stack.tolist(), p)
    assert spans.matrix.tolist() == [list(v) for v in vectors]
    assert spans.ids.tolist() == ids
    assert spans.min_weights.tolist() == min_weights


# widths on both sides of every dtype edge of a packed vector: 8, 16, 32
# and 64 bits over GF(2), and 3^5 < 2^8 < 3^6, 3^10 < 2^16 < 3^11,
# 3^20 < 2^32 < 3^21 and 3^40 < 2^64 < 3^41 over GF(3)
EDGE_WIDTHS = {2: (7, 8, 9, 16, 17, 32, 33, 63, 64, 65), 3: (5, 6, 10, 11, 20, 21, 40, 41)}
CODEWORD_KINDS = ("random", "repeat", "dependent", "zero row", "zero")


@st.composite
def span_stacks(draw):
    """(stack, p): one to five codewords of 1-6 rows over GF(2), or 1-3 over
    GF(3), each random, a repeat of an earlier one, random with one row a
    combination of the others (zero when it is alone), random with a zero
    row, or zero."""
    p = draw(st.sampled_from((2, 3)))
    rows = draw(st.integers(1, 6 if p == 2 else 3))
    width = draw(st.sampled_from(EDGE_WIDTHS[p]))
    kinds = draw(st.lists(st.sampled_from(CODEWORD_KINDS), min_size=1, max_size=5))
    return random_stack(p, rows, width, kinds, draw(st.integers(0, 2 ** 32 - 1))), p


def random_stack(p, rows, width, kinds, seed):
    """A stack of one codeword of each kind of ``CODEWORD_KINDS`` listed."""
    rng = np.random.default_rng(seed)
    stack = []
    for kind in kinds:
        matrix = rng.integers(0, p, size=(rows, width), dtype=np.int8)
        if kind == "repeat" and stack:
            matrix = stack[rng.integers(len(stack))].copy()
        elif kind == "dependent":
            matrix[-1] = rng.integers(0, p, size=rows - 1) @ matrix[:-1] % p
        elif kind == "zero row":
            matrix[rng.integers(rows)] = 0
        elif kind == "zero":
            matrix[:] = 0
        stack.append(matrix)
    return np.stack(stack)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=span_stacks())
def test_union_of_random_stacks_matches_enumeration(case):
    """``build_union``'s ``Spans`` against the Python enumeration, on random
    stacks whose vectors pack into each unsigned dtype and into Python ints:
    over GF(2) the spans are XORs of ``Codebook.table`` rows, otherwise
    packed digits of a matmul. Over GF(2) a build whose table was read
    beforehand gives the same arrays, dtype and bytes included."""
    stack, p = case
    spans = build_union(lent_codebook(stack, p)).provenance
    check_reference_spans(spans, stack, p)
    if p == 2:
        codebook = lent_codebook(stack, p)
        assert codebook.table.shape == stack.shape[1::-1]
        warm = build_union(codebook).provenance
        for name in ("matrix", "ids", "min_weights"):
            got, expected = getattr(warm, name), getattr(spans, name)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()


@st.composite
def rule_stacks(draw):
    """(stack, p, side): N codewords of `rows` rows and `width` digits over
    GF(p), of the kinds of ``span_stacks``, with N·p^rows one
    codeword below, at, or one codeword above p^width, the edge of
    ``_distinct_spans``' dense-table rule."""
    p = draw(st.sampled_from((2, 3)))
    rows = draw(st.integers(1, 3 if p == 2 else 2))
    width = rows + draw(st.integers(1, 4 if p == 2 else 2))
    side = draw(st.sampled_from((-1, 0, 1)))
    count = p ** (width - rows) + side
    kinds = draw(st.lists(st.sampled_from(CODEWORD_KINDS), min_size=count, max_size=count))
    return random_stack(p, rows, width, kinds, draw(st.integers(0, 2 ** 32 - 1))), p, side


def numbering_calls(mp):
    """The names of the numbering paths ``_distinct_spans`` takes, logged
    through `mp`, a pytest MonkeyPatch."""
    calls = []
    for name in ("_numbered_by_table", "_numbered_by_sort"):
        def logged(*args, _name=name, _real=getattr(tt_union, name)):
            calls.append(_name)
            return _real(*args)
        mp.setattr(tt_union, name, logged)
    return calls


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=rule_stacks())
def test_both_numbering_paths_match_enumeration(case):
    """On each side of p^width <= N·p^rows and at the edge, ``Spans``
    equals the Python enumeration, dtypes included; the dense table
    numbers the keys when the rule holds and the sort otherwise, and both
    give the same first positions and ids on the same keys."""
    stack, p, side = case
    codebook = lent_codebook(stack, p)
    with pytest.MonkeyPatch.context() as mp:
        calls = numbering_calls(mp)
        spans = tt_union._distinct_spans(codebook)
    assert calls == ["_numbered_by_table" if side >= 0 else "_numbered_by_sort"]
    check_reference_spans(spans, stack, p)
    assert (spans.matrix.dtype, spans.ids.dtype, spans.min_weights.dtype) == \
        (np.int16, np.int32, np.int16)
    assert spans.ids.shape == (len(stack), p ** stack.shape[1])
    coeffs = tt_union._span_coefficients(p, stack.shape[1])
    keys = tt_union._span_keys(codebook, coeffs)
    table = tt_union._numbered_by_table(keys, p ** stack.shape[2], len(coeffs))
    sort = tt_union._numbered_by_sort(keys)
    for got, expected in zip(table, sort):
        assert got.dtype == expected.dtype and got.tolist() == expected.tolist()


@pytest.mark.parametrize("name, path", [
    ("kk-gf128", "_numbered_by_table"), ("kk-gf256", "_numbered_by_table"),
    ("gab-gf64", "_numbered_by_table"), ("mv1", "_numbered_by_sort"),
    ("mv2_uncompressed", "_numbered_by_sort"), ("mv2_compressed", "_numbered_by_sort")])
def test_each_benchmark_config_takes_its_numbering_path(name, path):
    """The scaled KK and Gabidulin codes have at most N·p^rows possible
    keys (2^14, 2^16 and 2^6 of them), and mv1 and mv2, whose keys run to
    2^9, 3^21 and 3^36, more."""
    config = ROOT / "perfbench" / "configs" / f"{name}.json"
    if not config.exists():
        config = ROOT / "configs" / f"{name}.json"
    cfg = load_config(config)
    codebook = build_codebook(cfg.build_spec(cfg.build_field()))
    with pytest.MonkeyPatch.context() as mp:
        calls = numbering_calls(mp)
        tt_union._distinct_spans(codebook)
    assert calls == [path]


PACKET_KINDS = ("member", "near", "midpoint", "random")


@st.composite
def tier1_cases(draw):
    """(union, its vectors by span enumeration, packets): the full union of
    one to five random codewords over GF(2) or GF(3), or its restriction
    to drawn components, and packets that are members, members with one or
    two digits changed, midpoints between two members (equidistant when
    they differ in an even number of positions), or random."""
    p = draw(st.sampled_from((2, 3)))
    rows = draw(st.integers(1, 3 if p == 2 else 2))
    width = draw(st.integers(2, 6 if p == 2 else 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    stack = rng.integers(0, p, size=(draw(st.integers(1, 5)), rows, width), dtype=np.int8)
    uni = build_union(lent_codebook(stack, p))
    kept = draw(st.sets(st.integers(0, len(stack) - 1), min_size=1))
    if len(kept) < len(stack):
        uni = uni.restrict(kept)
    vectors = set().union(*(oracles.span(stack[i].tolist(), p) for i in kept))
    members = sorted(vectors)
    packets = []
    for kind in draw(st.lists(st.sampled_from(PACKET_KINDS), min_size=1, max_size=5)):
        packet = list(members[rng.integers(len(members))])
        if kind == "near":
            for at in rng.choice(width, size=rng.integers(1, 3), replace=False):
                packet[at] = int(rng.integers(p))
        elif kind == "midpoint" and len(members) > 1:
            other = members[rng.integers(len(members))]
            differ = [at for at in range(width) if packet[at] != other[at]]
            for at in rng.permutation(differ)[:len(differ) // 2]:
                packet[at] = other[at]
        elif kind == "random":
            packet = rng.integers(0, p, size=width).tolist()
        packets.append(tuple(packet))
    return uni, vectors, packets


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=tier1_cases())
def test_tier1_matches_the_reference(case):
    """Every field of ``tier1_decode``'s verdict, in every mode and at every
    radius from 0 to the width, against the scalar reference on the union
    formed by span enumeration: membership, nearest vectors, ties and
    packets beyond the radius."""
    uni, vectors, packets = case
    assert uni.cardinality == len(vectors)
    for packet in packets:
        for mode in TIER1_MODES:
            for radius in range(uni.ambient_len + 1):
                got = tier1_decode(packet, uni, radius, mode, allow_radius_override=True)
                assert asdict(got) == oracles.reference_tier1(packet, vectors, uni.p,
                                                              radius, mode)


def test_membership_set_is_formed_once_by_tier_1():
    """Only tier 1 asks membership: building, a fresh union, the lemma
    checks and a restriction form no set, and tier 1 forms it once. Only
    restrict reads the position array: building, a fresh union, the lemma
    checks and tier 1 form none, and a union's first restriction forms
    it once, int32 with one entry per codebook index."""
    _, spec, codebook, _ = load_config(ROOT / "configs" / "kk_example.json").build_all()
    uni = build_union(codebook)
    fresh = UnionCode(uni.provenance, uni.components[::-1], uni.ambient_len, uni.p)
    verify_lemmas(spec, fresh)
    for union in (uni, fresh):
        assert "_members" not in union.__dict__ and "_positions" not in union.__dict__
    fresh_restricted = fresh.restrict({1, 2})
    assert "_members" not in fresh.__dict__ and "_positions" in fresh.__dict__
    assert "_members" not in fresh_restricted.__dict__
    member, *others = owners(uni)
    assert tier1_decode(member, uni, radius=0).outcome == "valid"
    members = uni.__dict__["_members"]
    for vector in others:
        assert tier1_decode(vector, uni, radius=0).outcome == "valid"
    assert uni.__dict__["_members"] is members
    assert "_positions" not in uni.__dict__
    restricted = uni.restrict({1, 2})
    positions = uni.__dict__["_positions"]
    assert positions.dtype == np.int32 and positions.shape == (len(codebook),)
    assert uni.restrict({3, 2}).components.tolist() == [2, 3]
    assert uni.__dict__["_positions"] is positions
    assert uni.__dict__["_members"] is members
    assert "_members" not in fresh.__dict__
    for union in (fresh_restricted, restricted):
        assert "_members" not in union.__dict__ and "_positions" not in union.__dict__


def test_provenance_soundness_spot_check():
    spec, cb, uni = kk_union()
    rng = random.Random(21)
    owned = owners(uni)
    vectors = list(owned)
    for _ in range(30):
        v = rng.choice(vectors)
        for index in uni.components.tolist():
            claimed = index in owned[v]
            rows = cb[index].rows
            actual = oracles.naive_rank(rows + (v,), uni.p) == oracles.naive_rank(rows, uni.p)
            assert claimed == actual


# ---------------------------------------------------------------- restriction

def test_restrict_to_all_is_identity():
    spec, cb, uni = kk_union()
    full = uni.restrict(range(len(cb)))
    assert set(owners(full)) == set(owners(uni))
    assert full.min_distance() == uni.min_distance()


def test_restrict_to_single_component_is_that_code():
    spec, cb, uni = kk_union()
    only = uni.restrict({3})
    assert set(owners(only)) == oracles.span(cb[3].rows, 2)


def test_restrict_mv1_distance_grows():
    spec, cb, uni = mv1_union()
    restricted = uni.restrict({1})
    assert restricted.min_distance() == 9
    assert restricted.min_distance() >= uni.min_distance()


def test_restrict_monotone_and_contained():
    spec, cb, uni = kk_union()
    rng = random.Random(22)
    for _ in range(10):
        k = rng.randint(1, len(cb))
        subset = set(rng.sample(range(len(cb)), k))
        r = uni.restrict(subset)
        assert set(owners(r)) <= set(owners(uni))
        if r.cardinality >= 2:
            assert r.min_distance() >= uni.min_distance()


@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
def test_one_component_distance_is_its_min_weight(config):
    # a one-component union is a linear code: min_distance reads the
    # component's minimum weight from the span record instead of scanning
    _, _, codebook, uni = load_config(config).build_all()
    checked = 0
    for index in range(len(codebook)):
        only = uni.restrict({index})
        if only.cardinality < 2:
            continue
        assert only.min_distance() == oracles.naive_min_pairwise(list(owners(only)), uni.p)
        checked += 1
    assert checked >= len(codebook) - 1   # only a zero codeword spans one vector


@pytest.mark.parametrize(
    "config", CONFIGS + [ROOT / "perfbench" / "configs" / f"{name}.json"
                         for name in ("kk-gf128", "gab-gf64")],
    ids=lambda path: path.stem)
def test_full_union_distance_matches_pairwise_oracle(config):
    # the full union scans the span record's rows in first-occurrence order
    _, _, _, uni = load_config(config).build_all()
    assert uni.min_distance() == oracles.naive_min_pairwise(list(owners(uni)), uni.p)


def test_restrict_validation():
    spec, cb, uni = kk_union()
    with pytest.raises(ValueError):
        uni.restrict(set())
    with pytest.raises(ValueError):
        uni.restrict({99})


def test_restrict_an_already_restricted_union():
    spec, cb, uni = kk_union()
    first = uni.restrict({6, 1, 4, 3})
    twice = first.restrict([4, 1, 4])
    direct = uni.restrict({1, 4})
    assert owners(twice) == owners(direct)
    assert list(owners(twice)) == list(owners(direct))
    assert twice.components.tolist() == direct.components.tolist() == [1, 4]
    # components dropped by the first restriction are unknown to the second
    with pytest.raises(ValueError, match=r"unknown component indices \[0, 5\]"):
        first.restrict({0, 3, 5})
    with pytest.raises(ValueError, match="cannot restrict to an empty component list"):
        first.restrict(())


def test_restrict_keeps_component_order():
    spec, cb, uni = kk_union()
    shuffled = UnionCode(uni.provenance, uni.components[::-1], uni.ambient_len, uni.p)
    kept = shuffled.restrict({2, 7, 5})
    assert kept.components.tolist() == [7, 5, 2]
    assert kept.restrict({2, 7}).components.tolist() == [7, 2]


@functools.cache
def restrict_case(name, where=ROOT / "configs"):
    """(codebook, union, owner sets by span enumeration) of a config."""
    _, _, codebook, uni = load_config(where / f"{name}.json").build_all()
    provenance = {}
    for index, cw in enumerate(codebook):
        for v in oracles.span(cw.rows, uni.p):
            provenance.setdefault(v, set()).add(index)
    return codebook, uni, provenance


def check_restriction(got, provenance, wanted, order):
    """`got` is the reference restriction of `provenance` to `wanted`, its
    components in `order` (component indices, those outside `wanted` skipped)."""
    expected = oracles.reference_restrict(provenance, wanted)
    assert set(owners(got)) == set(expected)
    assert all((v in got) == (v in expected) for v in provenance)
    assert owners(got) == expected
    assert got.cardinality == len(expected)
    if len(expected) >= 2:
        assert got.min_distance() == oracles.naive_min_pairwise(expected, got.p)
    kept = [i for i in order if i in wanted]
    assert got.components.tolist() == kept
    weights = {i: [oracles.weight(v) for v, o in expected.items() if i in o and any(v)]
               for i in kept}
    dists = component_min_distances(got)
    assert len(dists) == len(kept)
    for index, d in zip(kept, dists.tolist()):
        assert d == min(weights[index], default=got.ambient_len + 1)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(("kk_example", "gabidulin_gf8", "mv2_compressed")),
       data=st.data())
def test_restrict_matches_the_dict_of_sets_reference(name, data):
    codebook, uni, provenance = restrict_case(name)
    first = data.draw(st.sets(st.integers(0, len(codebook) - 1), min_size=1))
    second = data.draw(st.sets(st.sampled_from(sorted(first)), min_size=1))
    reversed_union = UnionCode(uni.provenance, uni.components[::-1], uni.ambient_len, uni.p)
    for base in (uni, reversed_union):
        order = base.components.tolist()
        once = base.restrict(first)
        check_restriction(once, provenance, first, order)
        check_restriction(once.restrict(second), provenance, second, order)


@pytest.mark.parametrize("name, where", [(path.stem, path.parent) for path in CONFIGS] +
                         [("gab-gf64", ROOT / "perfbench" / "configs")],
                         ids=[path.stem for path in CONFIGS] + ["gab-gf64"])
def test_restrict_on_every_config_matches_the_reference(name, where):
    """Seeded restrictions, and restrictions of those, of every shipped
    config and the gab-gf64 benchmark code, in both component orders. An
    index outside the codebook, -1 or N, is unknown: it does not wrap."""
    codebook, uni, provenance = restrict_case(name, where)
    n = len(codebook)
    rng = random.Random(name)
    reversed_union = UnionCode(uni.provenance, uni.components[::-1], uni.ambient_len, uni.p)
    for base in (uni, reversed_union):
        order = base.components.tolist()
        for _ in range(8):
            first = set(rng.sample(range(n), rng.randint(1, min(n, 6))))
            second = set(rng.sample(sorted(first), rng.randint(1, len(first))))
            once = base.restrict(first)
            check_restriction(once, provenance, first, order)
            check_restriction(once.restrict(second), provenance, second, order)
            dropped = min(set(range(n)) - first, default=None)
            if dropped is not None:
                with pytest.raises(ValueError, match=rf"unknown component indices \[{dropped}\]"):
                    once.restrict(second | {dropped})
        for bad, unknown in (({-1}, "-1"), ({n}, str(n)), ({0, -1}, "-1"),
                             ({n - 1, n, -1}, f"-1, {n}")):
            with pytest.raises(ValueError, match=rf"unknown component indices \[{unknown}\]"):
                base.restrict(bad)


@pytest.mark.parametrize("name, where", [("kk_example", ROOT / "configs"),
                                         ("gab-gf64", ROOT / "perfbench" / "configs")])
def test_restrict_to_each_component_matches_the_reference(name, where):
    """A union of one component, every component in turn, holds the
    reference restriction's vectors in union order."""
    codebook, uni, provenance = restrict_case(name, where)
    order = list(map(tuple, uni.matrix.tolist()))
    for index in range(len(codebook)):
        got = uni.restrict({index})
        expected = oracles.reference_restrict(provenance, {index})
        assert list(map(tuple, got.matrix.tolist())) == [v for v in order if v in expected]
        assert got.components.tolist() == [index]


# |U| = (q^l-1)q^m+1 (L6) with q = 2, l = 2, m = 7 and 8
@pytest.mark.parametrize("config, cardinality, per_codeword",
                         (("kk-gf128", 385, 64), ("kk-gf256", 769, 32)))
def test_union_keeps_no_per_codeword_objects(config, cardinality, per_codeword):
    """The union keeps only arrays per codeword, 25-30 bytes each here
    (a dict of owner sets took 840-890); 32 bytes on GF(2^8) is 2 MiB."""
    cfg = load_config(ROOT / "perfbench" / "configs" / f"{config}.json")
    codebook = build_codebook(cfg.build_spec(cfg.build_field()))
    gc.collect()
    tracemalloc.start()
    try:
        uni = build_union(codebook)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert uni.cardinality == cardinality
    assert retained / len(codebook) <= per_codeword


# ---------------------------------------------------------------- lemma checks

def test_gabidulin_lemmas_pass():
    for n, k in ((2, 1), (3, 2)):
        spec, cb, uni = gab_union(n, k)
        checks = {c.lemma: c for c in verify_lemmas(spec, uni)}
        assert checks["L1"].passed and checks["L1"].measured == "1"
        assert checks["L2"].passed
        assert checks["L3"].passed


def test_kk_lemmas_pass():
    spec, cb, uni = kk_union()
    checks = {c.lemma: c for c in verify_lemmas(spec, uni)}
    assert checks["L4"].passed
    assert checks["L5"].passed
    assert checks["L6"].passed
    assert "25" in checks["L6"].claimed


def test_mv_lemmas_pass():
    spec, cb, uni = mv1_union()
    checks = {c.lemma: c for c in verify_lemmas(spec, uni)}
    assert checks["L7"].passed
    assert checks["L8"].passed and checks["L8"].normative
    assert checks["L9"].passed


# Two MV shapes break the L9 bound once k > m, both with l=2, L=1 and the
# uncompressed layout. Over GF(3^2) with modulus x^2+x+2, m=1 and alphas
# 1+x and 1, it fails from k=2: row 0 is not divided by its alpha, so with
# a Frobenius term in u the tail u(alpha_0) leaves GF(q^m). Over GF(3^4)
# with modulus x^4+x^3+2, m=2 and alphas g^3 and g^40, it fails from k=3.
# Whether the code or the bound is wrong is open; the check stays normative.
# Each shape: (config with k left out, bound, [(k, |U|, L9 passes)]).
L9_CASES = (
    ({"field": {"p": 3, "n": 2, "modulus": [2, 1, 1]},
      "code": {"kind": "mv", "m": 1, "l": 2, "L": 1, "alphas": ["11", "10"],
               "layout": "uncompressed"}},
     25, [(2, 49, False), (1, 25, True)]),
    ({"field": {"p": 3, "n": 4, "modulus": [2, 0, 0, 1, 1]},
      "code": {"kind": "mv", "m": 2, "l": 2, "L": 1, "alphas": ["g^3", "g^40"],
               "layout": "uncompressed"}},
     73, [(3, 169, False), (2, 61, True), (1, 25, True)]),
)


def test_mv_l9_counterexample_is_reported_failed(tmp_path):
    for shape, (case, bound, runs) in enumerate(L9_CASES):
        for k, cardinality, passed in runs:
            path = tmp_path / f"shape{shape}-k{k}.json"
            path.write_text(json.dumps({**case, "code": {**case["code"], "k": k}}))
            _, spec, codebook, uni = load_config(path).build_all()
            check_reference_lemmas(spec, codebook, uni)
            l9 = {c.lemma: c for c in verify_lemmas(spec, uni)}["L9"]
            assert l9.normative and l9.passed is passed
            assert l9.measured == str(cardinality)
            assert f"(q^l-1)q^(Lm)+1 = {bound}" in l9.claimed
            assert main(["verify-lemmas", "--config", str(path),
                         "--out", str(tmp_path / f"shape{shape}-k{k}.report.json")]) == \
                (0 if passed else 1)


def check_reference_lemmas(spec, codebook, uni):
    """verify_lemmas on `uni`, a union of every codeword of `codebook`, and on
    the same union with its components reversed, against the scalar checks."""
    expected = oracles.reference_lemmas(spec, codebook)
    reversed_union = UnionCode(uni.provenance, uni.components[::-1], uni.ambient_len, uni.p)
    for union in (uni, reversed_union):
        checks = verify_lemmas(spec, union)
        assert [asdict(c) for c in checks] == expected
        assert all(type(c.passed) is bool for c in checks)


@pytest.mark.parametrize(
    "config", CONFIGS + [ROOT / "perfbench" / "configs" / f"{name}.json"
                         for name in ("gab-gf64", "kk-gf128", "mv1")],
    ids=lambda path: str(path.relative_to(ROOT)))
def test_lemmas_match_the_reference(config):
    _, spec, codebook, uni = load_config(config).build_all()
    check_reference_lemmas(spec, codebook, uni)


# primitive moduli, lowest coefficient first, of the fields of the drawn codes
SMALL_FIELDS = {(2, 2): (1, 1, 1), (2, 3): (1, 1, 0, 1), (2, 4): (1, 1, 0, 0, 1),
                (2, 5): (1, 0, 1, 0, 0, 1), (3, 2): (2, 1, 1), (3, 3): (1, 2, 0, 1)}


@st.composite
def small_evaluation_specs(draw):
    """A Gabidulin or KK spec over a field of SMALL_FIELDS with at most 2^10
    messages and 2^14 span vectors, k >= 2 where that fits. Its points are
    powers of gamma taken in a drawn order, each kept when it is independent
    of those kept before."""
    p, m = draw(st.sampled_from(sorted(SMALL_FIELDS)))
    ctx = FieldContext(p, m, SMALL_FIELDS[p, m])
    k = draw(st.integers(1, max(j for j in range(1, m + 1) if p ** (m * j) <= 2 ** 10)))
    size = draw(st.integers(k, max(s for s in range(k, m + 1) if p ** (m * k + s) <= 2 ** 14)))
    points = []
    for e in draw(st.permutations(range(p ** m - 1))):
        point = ctx.gamma_pow(e)
        if oracles.naive_rank([x.coeffs for x in points + [point]], p) > len(points):
            points.append(point)
        if len(points) == size:
            break
    if draw(st.booleans()):
        return GabidulinSpec(field=ctx, n=size, k=k, generators=points)
    return KKSpec(field=ctx, l=size, k=k, alphas=points)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=small_evaluation_specs())
def test_lemmas_of_small_random_codes_match_the_reference(spec):
    codebook = build_codebook(spec)
    check_reference_lemmas(spec, codebook, build_union(codebook))


@pytest.mark.parametrize("name, kept, lemma", (("kk_example", {1, 2}, "L5"), ("mv1", {1}, "L7")))
def test_lemmas_without_the_zero_component_raise(name, kept, lemma):
    _, spec, _, uni = load_config(ROOT / "configs" / f"{name}.json").build_all()
    with pytest.raises(ValueError, match=rf"{lemma} .*zero-message component 0"):
        verify_lemmas(spec, uni.restrict(kept))


def test_lemmas_of_an_unknown_spec_type_raise():
    _, _, uni = kk_union()
    with pytest.raises(TypeError, match="^unsupported spec type object$"):
        verify_lemmas(object(), uni)


def test_mv_compressed_layout_l8_informational():
    ctx = FieldContext(3, 6)
    spec = MVSpec(field=ctx, m=3, l=2, big_l=5, k=1,
                  alphas=(ctx.gamma_pow(504), ctx.gamma_pow(294)),
                  layout_name="compressed")
    uni = build_union(build_codebook(spec))
    checks = {c.lemma: c for c in verify_lemmas(spec, uni)}
    assert not checks["L8"].normative
    assert checks["L7"].normative and checks["L9"].normative


def test_non_polynomial_basis_marks_l8_informational():
    poly = gf8()
    b = [poly.gamma_pow(5).coeffs, poly.gamma_pow(3).coeffs, poly.gamma_pow(6).coeffs]
    ctx = FieldContext(2, 3, basis=b)
    spec = MVSpec(field=ctx, m=3, l=1, big_l=2, k=1, alphas=(ctx.gamma_pow(5),))
    uni = build_union(build_codebook(spec))
    checks = {c.lemma: c for c in verify_lemmas(spec, uni)}
    assert not checks["L8"].normative
    # in the normal basis the generator row packs with weight 3, not 9
    assert component_min_distances(uni)[1] == 3


def test_component_vectors_are_spans():
    spec, cb, uni = mv1_union()
    owned = owners(uni)
    for index in uni.components.tolist():
        assert {v for v, o in owned.items() if index in o} == oracles.span(cb[index].rows, 2)
