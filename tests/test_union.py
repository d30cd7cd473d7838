import math
import random
from pathlib import Path

import pytest

from twotier import metrics
from twotier.codes import Codebook, GabidulinSpec, KKSpec, MVSpec, build_codebook
from twotier.config import load_config
from twotier.errors import BudgetError
from twotier.fields import FieldContext
from twotier.union import (UnionCode, build_union, component_min_distances,
                           component_vectors, verify_lemmas)

import oracles

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


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
    uni = build_union(Codebook(spec, cb.stack[:1]))  # zero message only
    assert set(uni.vectors) == {(0, 0, 0)}
    assert uni.components[0].dimension == 0


def test_kk_union_cardinality_and_distance():
    spec, cb, uni = kk_union()
    assert uni.cardinality == 25  # (q^l - 1) q^m + 1
    assert uni.min_distance() == 1
    assert (0,) * 6 in uni
    # zero vector is in every component
    assert uni.provenance[(0,) * 6] == set(range(8))


def test_kk_union_matches_brute_force():
    spec, cb, uni = kk_union()
    brute = set()
    for cw in cb:
        brute |= oracles.span(cw.rows, 2)
    assert set(uni.vectors) == brute


def test_mv1_union_vectors():
    spec, cb, uni = mv1_union()
    g5 = (1, 1, 1)
    assert set(uni.vectors) == {(0,) * 9, g5 + (0, 0, 0) + (0, 0, 0), g5 * 3}
    assert uni.min_distance() == 3


def test_union_budget():
    spec, cb, _ = kk_union()
    with pytest.raises(BudgetError):
        build_union(cb, budget=16)


def test_component_min_distances():
    spec, cb, uni = kk_union()
    dists = dict(component_min_distances(uni))
    assert dists[0] == 2  # zero-message component
    _, _, uni_mv = mv1_union()
    mv_dists = dict(component_min_distances(uni_mv))
    assert mv_dists == {0: 3, 1: 9}


def test_zero_component_distance_is_inf():
    spec, cb, _ = gab_union()
    uni = build_union(cb)
    dists = dict(component_min_distances(uni))
    assert dists[0] is math.inf


def test_provenance_soundness_spot_check():
    from twotier import linalg
    spec, cb, uni = kk_union()
    rng = random.Random(21)
    vectors = list(uni.vectors)
    for _ in range(30):
        v = rng.choice(vectors)
        for comp in uni.components:
            claimed = comp.index in uni.provenance[v]
            actual = linalg.in_row_space(comp.rows, v, uni.p)
            assert claimed == actual


# ---------------------------------------------------------------- restriction

def test_restrict_to_all_is_identity():
    spec, cb, uni = kk_union()
    full = uni.restrict(range(len(cb)))
    assert set(full.vectors) == set(uni.vectors)
    assert full.min_distance() == uni.min_distance()


def test_restrict_to_single_component_is_that_code():
    spec, cb, uni = kk_union()
    only = uni.restrict({3})
    assert set(only.vectors) == oracles.span(cb[3].rows, 2)


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
        assert set(r.vectors) <= set(uni.vectors)
        if r.cardinality >= 2:
            assert r.min_distance() >= uni.min_distance()


@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
def test_one_component_distance_is_its_min_weight(config):
    # a one-component union is a linear code: min_distance skips the
    # closure test and the pairwise scan and takes the minimum weight
    _, _, codebook, uni = load_config(config).build_all()
    checked = 0
    for index in range(len(codebook)):
        only = uni.restrict({index})
        if only.cardinality < 2:
            continue
        assert only.min_distance() == metrics.min_distance(only.vectors, only.p)
        checked += 1
    assert checked >= len(codebook) - 1   # only a zero codeword spans one vector


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
    assert twice.provenance == direct.provenance
    assert list(twice.provenance) == list(direct.provenance)
    assert twice.components == direct.components == (uni.components[1], uni.components[4])
    # components dropped by the first restriction are unknown to the second
    with pytest.raises(ValueError, match=r"unknown component indices \[0, 5\]"):
        first.restrict({0, 3, 5})
    with pytest.raises(ValueError, match="cannot restrict to an empty component list"):
        first.restrict(())


def test_restrict_keeps_component_order():
    spec, cb, uni = kk_union()
    shuffled = UnionCode(uni.provenance, uni.components[::-1], uni.ambient_len, uni.p)
    kept = shuffled.restrict({2, 7, 5})
    assert [c.index for c in kept.components] == [7, 5, 2]
    assert [c.index for c in kept.restrict({2, 7}).components] == [7, 2]


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
    dists = dict(component_min_distances(uni))
    assert dists[1] == 3


def test_component_vectors_are_spans():
    spec, cb, uni = mv1_union()
    for comp in uni.components:
        assert set(component_vectors(uni, comp.index)) == oracles.span(comp.rows, 2)
