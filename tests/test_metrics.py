import random

import numpy as np
import pytest

from twotier.codes import GabidulinSpec, build_codebook
from twotier.fields import FieldContext
from twotier.metrics import (Subspace, hamming_distance, injection_distance,
                             pairwise_min_distance, rank_distance, rank_over_base,
                             subspace_distance)
from twotier.union import build_union

import oracles
from oracles import is_additively_closed


def gf8():
    return FieldContext(2, 3)


# ---------------------------------------------------------------- hamming

def test_hamming_basics():
    assert hamming_distance((1, 1, 1, 0, 0, 0), (1, 1, 1, 0, 0, 0)) == 0
    assert hamming_distance((1, 1, 1, 0, 0, 0), (0, 0, 0, 0, 0, 0)) == 3
    assert hamming_distance((1, 2), (2, 2)) == 1
    assert hamming_distance((1, 0, 2, 0), (0, 0, 0, 0)) == oracles.weight((1, 0, 2, 0)) == 2
    with pytest.raises(ValueError):
        hamming_distance((1, 0), (1, 0, 0))


# ---------------------------------------------------------------- rank

def test_rank_over_base():
    ctx = gf8()
    assert rank_over_base([ctx.zero, ctx.zero]) == 0
    assert rank_over_base([ctx.gamma_pow(3), ctx.gamma_pow(3)]) == 1
    assert rank_over_base([ctx.gamma_pow(3), ctx.gamma_pow(4)]) == 2


def test_rank_distance():
    ctx = gf8()
    x = [ctx.gamma, ctx.zero]
    assert rank_distance(x, x) == 0
    # difference rows (gamma, -gamma) are base-field dependent: rank 1
    assert rank_distance([ctx.gamma, ctx.zero], [ctx.zero, ctx.gamma]) == 1
    # difference rows (gamma, gamma^2) are independent: rank 2
    assert rank_distance([ctx.gamma, ctx.zero], [ctx.zero, ctx.gamma_pow(2)]) == 2
    with pytest.raises(ValueError):
        rank_distance([ctx.gamma], [ctx.gamma, ctx.zero])


def test_rank_bounds():
    ctx = gf8()
    rng = random.Random(4)
    for _ in range(200):
        x = [ctx.from_int(rng.randrange(8)) for _ in range(3)]
        r = rank_over_base(x)
        assert r <= min(len(x), 3)
        nonzero = sum(1 for s in x if s)
        assert r <= nonzero


# ---------------------------------------------------------------- subspaces

def test_subspace_canonical_form():
    u = Subspace.from_rows([(1, 1, 0), (1, 0, 1), (0, 1, 1)], 2)
    assert u.dim == 2  # third row is the sum of the first two
    v = Subspace.from_rows([(0, 1, 1), (1, 1, 0)], 2)
    assert u == v
    assert oracles.naive_rank(u.basis + ((1, 0, 1),), 2) == u.dim
    assert oracles.naive_rank(u.basis + ((1, 1, 1),), 2) == u.dim + 1


def test_subspace_distance_cases():
    u = Subspace.from_rows([(1, 0)], 2)
    v = Subspace.from_rows([(0, 1)], 2)
    assert subspace_distance(u, u) == 0
    assert subspace_distance(u, v) == 2
    assert injection_distance(u, u) == 0
    assert injection_distance(u, v) == 1
    w = Subspace.from_rows([(1, 0), (0, 1)], 2)
    assert subspace_distance(u, w) == 1  # containment, dims 1 and 2
    with pytest.raises(ValueError):
        subspace_distance(u, Subspace.from_rows([(1, 0, 0)], 2))


def random_subspace(rng, ambient, p, max_rows=3):
    rows = [tuple(rng.randrange(p) for _ in range(ambient))
            for _ in range(rng.randint(1, max_rows))]
    return Subspace.from_rows(rows, p, ambient)


def test_equal_dim_subspace_vs_injection():
    rng = random.Random(12)
    for _ in range(200):
        u = random_subspace(rng, 4, 2)
        v = random_subspace(rng, 4, 2)
        if u.dim == v.dim:
            assert subspace_distance(u, v) == 2 * injection_distance(u, v)


def test_metric_axioms_random():
    rng = random.Random(13)
    subs = [random_subspace(rng, 4, 3) for _ in range(12)]
    for d in (subspace_distance, injection_distance):
        for u in subs:
            assert d(u, u) == 0
            for v in subs:
                assert d(u, v) == d(v, u)
                assert (d(u, v) == 0) == (u == v)
                for w in subs:
                    assert d(u, w) <= d(u, v) + d(v, w)
    # hamming triangle inequality on random vectors
    vecs = [tuple(rng.randrange(3) for _ in range(6)) for _ in range(15)]
    for x in vecs:
        for y in vecs:
            for z in vecs:
                assert hamming_distance(x, z) <= hamming_distance(x, y) + hamming_distance(y, z)
    ctx = gf8()
    words = [[ctx.from_int(rng.randrange(8)) for _ in range(2)] for _ in range(10)]
    for x in words:
        for y in words:
            assert rank_distance(x, y) == rank_distance(y, x)
            for z in words:
                assert rank_distance(x, z) <= rank_distance(x, y) + rank_distance(y, z)


# ---------------------------------------------------------------- min distance

def test_min_distance_requires_two_vectors():
    # the zero Gabidulin codeword spans {0}: a union of one vector
    ctx = gf8()
    spec = GabidulinSpec(field=ctx, n=2, k=1, generators=(ctx.one, ctx.gamma))
    only_zero = build_union(build_codebook(spec)).restrict({0})
    assert only_zero.cardinality == 1
    with pytest.raises(ValueError, match="fewer than two"):
        only_zero.min_distance()


def pairwise(vectors):
    return pairwise_min_distance(np.array(sorted(vectors), dtype=np.int16))


def test_min_distance_linear_shortcut_agrees_with_pairwise():
    rng = random.Random(14)
    for p in (2, 3):
        for _ in range(20):
            rows = [tuple(rng.randrange(p) for _ in range(5)) for _ in range(2)]
            code = sorted(oracles.span(rows, p))
            if len(code) < 2:
                continue
            assert is_additively_closed(code, p)
            assert pairwise(code) == oracles.naive_min_pairwise(code, p)
            assert pairwise(code) == min(oracles.weight(v) for v in code if any(v))


def test_min_distance_nonlinear_set():
    rng = random.Random(15)
    for _ in range(20):
        vecs = {tuple(rng.randrange(2) for _ in range(6)) for _ in range(8)}
        if len(vecs) < 2:
            continue
        assert pairwise(vecs) == oracles.naive_min_pairwise(vecs, 2)


def test_closure_check_rejects_non_subspace():
    assert not is_additively_closed([(1, 0), (0, 1)], 2)       # no zero
    assert not is_additively_closed([(0, 0), (1, 0), (0, 1)], 2)  # misses (1,1)
    assert is_additively_closed([(0, 0), (1, 0), (0, 1), (1, 1)], 2)
