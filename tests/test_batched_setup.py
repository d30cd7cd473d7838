"""The batched set-up against brute-force references, message by message.

``build_codebook`` encodes every message at once with GF(p)-linear maps,
reduces all bases in one batched RREF, and ``build_union`` keys every span
vector and groups owners from one sort. These properties rebuild each
codeword from ``oracles.lin_eval`` on coefficient tuples, each basis with
``oracles.naive_rref``, and the union by walking every span in order,
and require identical results: on every shipped config, the two scaled
benchmark configs, a GF(3^6) Gabidulin code, a non-polynomial basis, MV
compressed (subfield coordinates) and an MV code over GF(2^17).
"""

import functools
import itertools
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twotier import codes, linalg
from twotier.codes import GabidulinSpec, KKSpec, MVSpec, build_codebook, encode
from twotier.config import load_config
from twotier.fields import FieldContext
from twotier.metrics import Subspace
from twotier.union import build_union, component_min_distances, owners

import oracles

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = tuple(sorted(p.stem for p in (ROOT / "configs").glob("*.json")))
SCALED = ("kk-gf128", "gab-gf64")
SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

# x^17 + x^3 + 1: irreducible, and primitive because 2^17 - 1 is prime
MOD_GF2_17 = (1, 0, 0, 1) + (0,) * 13 + (1,)


def gf2_17_mv():
    ctx = FieldContext(2, 17, MOD_GF2_17)
    return MVSpec(field=ctx, m=17, l=1, big_l=2, k=1, alphas=(ctx.gamma_pow(5),))


def gf729_gabidulin():
    ctx = FieldContext(3, 6)
    return GabidulinSpec(field=ctx, n=2, k=1, generators=(ctx.one, ctx.gamma))


def skew_specs():
    """A Gabidulin and a KK code whose packets use a non-polynomial basis."""
    ctx = FieldContext(2, 3, basis=[[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    return (GabidulinSpec(field=ctx, n=3, k=1,
                          generators=(ctx.one, ctx.gamma, ctx.gamma_pow(2))),
            KKSpec(field=ctx, l=2, k=1, alphas=(ctx.gamma_pow(3), ctx.gamma_pow(4))))


@functools.cache
def case(name):
    """(spec, codebook, union) of a named case."""
    if name in SHIPPED:
        spec = load_config(ROOT / "configs" / f"{name}.json").build_all()[1]
    elif name in SCALED:
        spec = load_config(ROOT / "perfbench" / "configs" / f"{name}.json").build_all()[1]
    elif name == "gf729-gabidulin":
        spec = gf729_gabidulin()
    elif name == "gf2^17-mv":
        spec = gf2_17_mv()
    else:
        spec = dict(zip(("skew-gabidulin", "skew-kk"), skew_specs()))[name]
    codebook = build_codebook(spec)
    return spec, codebook, build_union(codebook)


@functools.cache
def case_owners(name):
    """The owner sets of a named case's union."""
    return owners(case(name)[2])


CASES = SHIPPED + SCALED + ("gf729-gabidulin", "skew-gabidulin", "skew-kk", "gf2^17-mv")
SMALL = SHIPPED + ("gf729-gabidulin", "skew-gabidulin", "skew-kk", "gf2^17-mv")


# ---------------------------------------------------------------- reference encoder

def message_digits(spec, index):
    length = spec.k if isinstance(spec, MVSpec) else spec.field.n * spec.k
    return tuple(index // spec.q ** i % spec.q for i in range(length))


def combine(coeffs, rows, p):
    acc = (0,) * len(rows[0])
    for c, row in zip(coeffs, rows):
        acc = oracles.vadd(acc, oracles.scalar_mul(c, row, p), p)
    return acc


def solve_by_search(target, rows, p):
    """The coefficients c with sum c_i rows_i == target, by trying them all."""
    hits = [c for c in itertools.product(range(p), repeat=len(rows))
            if combine(c, rows, p) == tuple(target)]
    assert len(hits) == 1
    return hits[0]


def coordinates(ctx, a):
    """Packet coordinates of a coefficient tuple: the basis, if any, by search."""
    return tuple(a) if ctx.basis is None else solve_by_search(a, ctx.basis, ctx.p)


def subfield_coordinates(ctx, a, order):
    """Coordinates in the RREF basis of the fixed set of x -> x^order, by search."""
    fixed = oracles.subfield_fixed_set(ctx.modulus, ctx.p, order)
    assert tuple(a) in fixed
    return solve_by_search(a, oracles.naive_rref(sorted(fixed), ctx.p), ctx.p)


def reference_codeword(spec, digits):
    """(rows, symbol coefficients or None) of one message, from the oracles only."""
    ctx, p = spec.field, spec.q
    mod = ctx.modulus
    if isinstance(spec, MVSpec):
        u = [(d,) + (0,) * (ctx.n - 1) for d in digits]
        rows = []
        for i, alpha in enumerate(spec.alphas):
            inverse = oracles.gf_pow(alpha.coeffs, ctx.size - 2, mod, p)
            entries, value = [alpha.coeffs], alpha.coeffs
            for _ in range(spec.big_l):
                value = oracles.lin_eval(u, value, mod, p, p)
                entries.append(value if i == 0 else oracles.poly_mul_mod(value, inverse, mod, p))
            row = ()
            for entry, block in zip(entries, spec.layout.blocks):
                row += (coordinates(ctx, entry) if block.subfield_order is None
                        else subfield_coordinates(ctx, entry, block.subfield_order))
            rows.append(row)
        return tuple(rows), None
    m = ctx.n
    u = [digits[j * m:(j + 1) * m] for j in range(spec.k)]
    if isinstance(spec, GabidulinSpec):
        symbols = tuple(oracles.lin_eval(u, g.coeffs, mod, p, p) for g in spec.generators)
        return tuple(coordinates(ctx, s) for s in symbols), symbols
    return tuple(coordinates(ctx, a.coeffs) + coordinates(ctx, oracles.lin_eval(u, a.coeffs, mod, p, p))
                 for a in spec.alphas), None


# ---------------------------------------------------------------- codewords

@st.composite
def codewords(draw):
    name = draw(st.sampled_from(CASES))
    spec, codebook, _ = case(name)
    return spec, codebook, draw(st.integers(0, len(codebook) - 1))


@SETTINGS
@given(drawn=codewords())
def test_codeword_matches_reference(drawn):
    spec, codebook, index = drawn
    cw = codebook[index]
    digits = message_digits(spec, index)
    rows, symbols = reference_codeword(spec, digits)
    assert cw.message == digits
    assert cw.rows == rows
    assert codebook.stack[index].tolist() == [list(r) for r in rows]
    rank = oracles.naive_rank(rows, spec.q)
    assert int(codebook.ranks[index]) == rank
    if symbols is None:
        assert cw.kind == codes.SUBSPACE
        subspace = Subspace.from_rows(cw.rows, spec.q)
        assert subspace.basis == oracles.naive_rref(rows, spec.q)
        assert (subspace.ambient_len, subspace.p) == (len(rows[0]), spec.q)
        assert rank == len(rows)
    else:
        assert cw.kind == codes.GABIDULIN
        assert tuple(spec.field.from_vector(r).coeffs for r in cw.rows) == symbols
    # encoding one message is a block of one through the same encoder
    assert encode(spec, digits) == cw


@pytest.mark.parametrize("name", CASES)
def test_codebook_in_message_order(name):
    spec, codebook, _ = case(name)
    assert isinstance(codebook, codes.Codebook)
    assert len(codebook) == spec.message_count()
    assert [cw.message for cw in itertools.islice(codebook, 50)] == list(itertools.islice(
        oracles.iter_message_digits(spec.q, spec.message_length), 50))
    assert codebook.stack.dtype == np.int8
    assert codebook.stack.shape == (len(codebook),) + np.shape(codebook[0].rows)


# ---------------------------------------------------------------- union

def reference_provenance(codebook, p):
    """Every span vector in first-occurrence order with its owner set."""
    provenance = {}
    for index, cw in enumerate(codebook):
        for coeffs in itertools.product(range(p), repeat=len(cw.rows)):
            provenance.setdefault(combine(coeffs, cw.rows, p), set()).add(index)
    return provenance


@pytest.mark.parametrize("name", SMALL + ("gab-gf64",))
def test_provenance_matches_spans(name):
    spec, codebook, union = case(name)
    expected = reference_provenance(codebook, spec.q)
    assert list(owners(union)) == list(expected)
    assert owners(union) == expected
    assert union.components.tolist() == list(range(len(codebook)))
    assert codebook.ranks.tolist() == [oracles.naive_rank(cw.rows, spec.q) for cw in codebook]
    assert (union.ambient_len, union.p) == (len(codebook[0].rows[0]), spec.q)


@pytest.mark.parametrize("name", SMALL + ("gab-gf64",))
def test_component_distances_match_span_scan(name):
    spec, codebook, union = case(name)
    expected = []
    for index, cw in enumerate(codebook):
        weights = [oracles.weight(v) for v in oracles.span(cw.rows, spec.q) if any(v)]
        expected.append((index, min(weights, default=math.inf)))
    assert component_min_distances(union) == expected
    restricted = union.restrict({0, len(codebook) - 1})
    assert component_min_distances(restricted) == [expected[0], expected[-1]][:len(restricted.components)]


@SETTINGS
@given(index=st.integers(0, 16383), coeffs=st.lists(st.integers(0, 1), min_size=2, max_size=2))
def test_scaled_kk_provenance(index, coeffs):
    """On the 16384-codeword code, a span vector lists exactly its owners."""
    spec, codebook, union = case("kk-gf128")
    vector = combine(coeffs, codebook[index].rows, 2)
    owned = case_owners("kk-gf128")[vector]
    assert index in owned
    for other in random.Random(index).sample(range(len(codebook)), 20):
        inside = oracles.naive_rank(codebook[other].rows + (vector,), 2) == 2
        assert (other in owned) == inside


# ---------------------------------------------------------------- chunking

def snapshot(codebook, union):
    return (list(codebook), codebook.stack.tolist(), codebook.ranks.tolist(),
            [(v, sorted(o)) for v, o in owners(union).items()], union.components.tolist())


@pytest.mark.parametrize("chunk", (1, 3))
@pytest.mark.parametrize("name", SMALL + ("gab-gf64",))
def test_chunk_size_does_not_change_results(name, chunk, monkeypatch):
    spec, codebook, union = case(name)
    monkeypatch.setattr(codes, "SETUP_CHUNK", chunk)
    rebuilt = build_codebook(spec)
    assert snapshot(rebuilt, build_union(rebuilt)) == snapshot(codebook, union)


# ---------------------------------------------------------------- errors

def gf8():
    return FieldContext(2, 3)


def test_dependent_rows_raise_at_the_first_message():
    ctx = gf8()
    spec = KKSpec(field=ctx, l=2, k=1, alphas=(ctx.gamma_pow(3), ctx.gamma_pow(4)))
    object.__setattr__(spec, "alphas", (ctx.gamma, ctx.gamma))   # past the spec's own check
    with pytest.raises(ValueError, match=re.escape(
            "codeword for message (0, 0, 0) has dependent basis rows")):
        build_codebook(spec)


def test_duplicate_subspace_raises_at_the_first_repeat():
    ctx = gf8()
    spec = KKSpec(field=ctx, l=1, k=1, alphas=(ctx.gamma,))
    object.__setattr__(spec, "k", 2)    # k > l: values no longer pin the message down
    # the first message, in message order, whose subspace an earlier one has
    seen, expected = {}, None
    for digits in oracles.iter_message_digits(spec.q, spec.message_length):
        basis = oracles.naive_rref(reference_codeword(spec, digits)[0], 2)
        if basis in seen:
            expected = f"messages {seen[basis]} and {digits} map to the same subspace"
            break
        seen[basis] = digits
    assert expected is not None
    with pytest.raises(ValueError, match=re.escape(expected)):
        build_codebook(spec)


def test_mv_malformed_alphas_raise_with_the_first_failure():
    ctx = FieldContext(3, 6)
    with pytest.raises(ValueError, match=re.escape(
            "alpha set malformed: u^(1)(alpha_1)/alpha_1 is outside GF(3^3) for message (0, 1)")):
        MVSpec(field=ctx, m=3, l=2, big_l=1, k=2, alphas=(ctx.gamma, ctx.gamma_pow(2)))


@SETTINGS
@given(a=st.integers(0, 728), b=st.integers(0, 8), skew=st.booleans())
def test_pack_vector_matches_reference(a, b, skew):
    """One message's packing is the batched packer on a block of one."""
    basis = [tuple(int(j in (i, i + 1)) for j in range(6)) for i in range(6)] if skew else None
    ctx = FieldContext(3, 6, basis=basis)
    layout = codes.PacketLayout("mixed", (codes.BlockSpec(6), codes.BlockSpec(2, 9)))
    x = ctx.from_int(a)
    y = ctx.element(sorted(oracles.subfield_fixed_set(ctx.modulus, 3, 9))[b])
    assert oracles.pack_vector((x, y), layout, ctx) == (
        coordinates(ctx, x.coeffs) + subfield_coordinates(ctx, y.coeffs, 9))
    with pytest.raises(ValueError, match=re.escape(f"{ctx.gamma} is not in the subfield of order 9")):
        oracles.pack_vector((x, ctx.gamma), layout, ctx)


# ---------------------------------------------------------------- kernels

@st.composite
def digit_stacks(draw, max_rows=4, max_width=7):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    n, rows, width = draw(st.integers(1, 6)), draw(st.integers(1, max_rows)), draw(st.integers(1, max_width))
    flat = draw(st.lists(st.integers(0, p - 1), min_size=n * rows * width, max_size=n * rows * width))
    return p, np.array(flat, dtype=np.int8).reshape(n, rows, width)


@SETTINGS
@given(drawn=digit_stacks())
def test_batched_rref_matches_reference(drawn):
    p, stack = drawn
    reduced, ranks = linalg.batched_rref(stack, p)
    for matrix, red, rank in zip(stack.tolist(), reduced.tolist(), ranks.tolist()):
        basis = oracles.naive_rref(matrix, p)
        assert rank == len(basis)
        assert tuple(map(tuple, red[:rank])) == basis
        assert not any(map(any, red[rank:]))


@SETTINGS
@given(p=st.sampled_from((2, 3, 5, 7)), width=st.integers(1, 100), seed=st.integers(0, 1000))
def test_packed_keys_group_equal_vectors(p, width, seed):
    """Keys span one or more int64 words; equal keys mean equal vectors.

    The vectors differ from one base vector in a single digit, at every
    position, so a digit a key drops or a word that overflows shows.
    """
    rng = np.random.default_rng(seed)
    base = rng.integers(0, p, size=width)
    distinct = np.vstack([base, (base + np.eye(width, dtype=np.int64)) % p])
    picks = rng.integers(0, len(distinct), size=3 * len(distinct))
    vectors = distinct[picks]
    order, starts = linalg.sorted_runs(linalg.pack_keys(vectors, p))
    runs = np.split(order, starts[1:])
    assert sorted(order.tolist()) == list(range(len(vectors)))
    for run in runs:
        assert run.tolist() == sorted(run.tolist())     # stable: ascending within a run
        assert (vectors[run] == vectors[run[0]]).all()
    firsts = [vectors[run[0]].tolist() for run in runs]
    assert len({tuple(v) for v in firsts}) == len(firsts)


@SETTINGS
@given(a=st.integers(0, 728), c=st.integers(0, 728), i=st.integers(0, 7))
def test_linear_maps_match_field_arithmetic(a, c, i):
    ctx = FieldContext(3, 6)
    x, y = ctx.from_int(a), ctx.from_int(c)
    digits = np.array(x.coeffs)
    assert tuple(digits @ ctx.mul_matrix(y) % 3) == oracles.poly_mul_mod(
        x.coeffs, y.coeffs, ctx.modulus, 3)
    assert tuple(digits @ ctx.frobenius_matrix(i) % 3) == oracles.gf_pow(
        x.coeffs, 3 ** i, ctx.modulus, 3)


def test_linear_maps_above_the_table_limit():
    ctx = gf2_17_mv().field
    x = ctx.gamma_pow(12345)
    y = ctx.gamma_pow(777)
    assert tuple(np.array(x.coeffs) @ ctx.mul_matrix(y) % 2) == (x * y).coeffs
    assert tuple(np.array(x.coeffs) @ ctx.frobenius_matrix(3) % 2) == (x ** 8).coeffs


def test_equal_but_distinct_contexts_still_mix():
    a, b = FieldContext(2, 3), FieldContext(2, 3)
    assert a is not b and a == b
    assert a.gamma == b.gamma
    assert (a.gamma * b.gamma).coeffs == (a.gamma ** 2).coeffs
    with pytest.raises(ValueError, match="distinct field contexts"):
        _ = a.gamma + FieldContext(2, 3, basis=[[1, 1, 0], [0, 1, 1], [0, 0, 1]]).gamma
