"""The batched tier-2 kernels against per-codeword reference scans.

Tier 2 computes every codeword's distance in one ``Codebook.batched_rank``
call: ``linalg.packed_rank`` on the table of distinct bit-packed rows over
GF(2), and ``linalg.batched_rank`` on int16 digits otherwise. These
properties rebuild each distance one codeword at a time with
``metrics.injection_distance``, ``subspace_distance`` and
``rank_distance``, pick from them as a plain sorted scan would, and require
the same ``DecodeResult`` on every shipped fixture and on a hand-made code
whose rows are wider than one int64, with the kernel's chunk size at its
default and small enough to split each codebook. The packed kernel is also
checked against ``oracles.naive_rank`` and the int16 kernel at every word
boundary, and the GF(2) subspace lane against calls to ``linalg.rref``.
"""

import functools
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twotier import linalg
from twotier.codes import Codebook, GabidulinSpec, build_codebook
from twotier.config import load_config
from twotier.decoders import (DecodeOptions, DecodeResult, tier2_list_decode,
                              tier2_rank_decode, tier2_subspace_decode, two_tier_decode)
from twotier.fields import FieldContext
from twotier.metrics import Subspace, injection_distance, rank_distance, subspace_distance

import oracles

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BENCH_CONFIGS = CONFIGS.parent / "perfbench" / "configs"
SUBSPACE_FIXTURES = ("kk_example", "mv1", "mv2_uncompressed", "mv2_compressed")
CHUNKS = (linalg.RANK_CHUNK, 1, 3)
REFERENCE = {"injection": injection_distance, "subspace": subspace_distance}
SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@functools.cache
def fixture(name, where=CONFIGS):
    """(spec, codebook) of a config."""
    _, spec, codebook, _ = load_config(where / f"{name}.json").build_all()
    return spec, codebook


def fixture_codebook(name, where=CONFIGS):
    return fixture(name, where)[1]


@functools.cache
def rank_fixtures():
    """(spec, codebook) of the shipped Gabidulin fixture, one with a
    non-polynomial packet basis (coordinates are still GF(p)-linear) and one
    over GF(3)."""
    skew = FieldContext(2, 3, basis=[[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    gf729 = FieldContext(3, 6)
    specs = (GabidulinSpec(field=skew, n=3, k=1,
                           generators=[skew.one, skew.gamma, skew.gamma_pow(2)]),
             GabidulinSpec(field=gf729, n=2, k=1, generators=[gf729.one, gf729.gamma]))
    return (fixture("gabidulin_gf8"),) + tuple((spec, build_codebook(spec)) for spec in specs)


def reference_select(dists, list_radius):
    """Selection as a scan: nearest first, ties to the lowest index."""
    if list_radius is None:
        best = min(dists)
        hits = [i for i, d in enumerate(dists) if d == best]
        return DecodeResult(chosen=hits[0], metric_value=best, tie=len(hits) > 1)
    hits = sorted((d, i) for i, d in enumerate(dists) if d <= list_radius)
    lst = tuple(i for _, i in hits)
    if not lst:
        return DecodeResult(chosen=None, metric_value=None, tie=False, list=lst)
    tie = len(hits) > 1 and hits[0][0] == hits[1][0]
    return DecodeResult(chosen=lst[0], metric_value=hits[0][0], tie=tie, list=lst)


def packed_table(stack):
    """(keys, ids) of an (N, rows, width) GF(2) digit stack, built as
    ``Codebook.table`` builds them."""
    bits = linalg.pack_bits(np.asarray(stack).transpose(1, 0, 2))
    keys, ids = np.unique(bits.ravel(), return_inverse=True)
    return keys, ids.reshape(bits.shape)


def packed_basis(rows):
    """``linalg.packed_basis`` of GF(2) digit rows, of which there may be none."""
    return linalg.packed_basis(linalg.pack_bits(rows)) if rows else ()


def assert_plain(result):
    """Fields are Python ints and bools, so reports serialise as before."""
    for value in (result.chosen, result.metric_value):
        assert value is None or type(value) is int
    assert type(result.tie) is bool
    assert result.list is None or all(type(i) is int for i in result.list)


@st.composite
def subspace_requests(draw):
    name = draw(st.sampled_from(SUBSPACE_FIXTURES))
    codebook = fixture_codebook(name)
    p = codebook.p
    width = codebook.stack.shape[2]
    rows = codebook[draw(st.integers(0, len(codebook) - 1))].rows
    digit = st.integers(0, p - 1)
    packets = []
    # up to three more packets than rows: zero, in the sent span, or anywhere
    for _ in range(draw(st.integers(1, len(rows) + 3))):
        kind = draw(st.sampled_from(("zero", "span", "random")))
        if kind == "zero":
            packets.append((0,) * width)
        elif kind == "span":
            coeffs = draw(st.lists(digit, min_size=len(rows), max_size=len(rows)))
            packets.append(tuple(sum(c * r[i] for c, r in zip(coeffs, rows)) % p
                                 for i in range(width)))
        else:
            packets.append(tuple(draw(st.lists(digit, min_size=width, max_size=width))))
    metric = draw(st.sampled_from(("injection", "subspace")))
    list_radius = draw(st.sampled_from((None, 0, 1, 2)))
    return codebook, packets, metric, list_radius


@st.composite
def rank_requests(draw):
    spec, codebook = draw(st.sampled_from(rank_fixtures()))
    ctx, n = spec.field, spec.n
    sent = [ctx.from_vector(r) for r in codebook[draw(st.integers(0, len(codebook) - 1))].rows]
    error = ctx.from_int(draw(st.integers(0, ctx.size - 1)))
    mask = draw(st.lists(st.integers(0, ctx.p - 1), min_size=n, max_size=n))
    word = [s + ctx.from_int(m) * error for s, m in zip(sent, mask)]
    positions = draw(st.one_of(st.none(), st.sets(st.integers(0, n - 1), min_size=1)))
    list_radius = draw(st.sampled_from((None, 0, 1, 2)))
    return codebook, word, positions, list_radius


@pytest.mark.parametrize("chunk", CHUNKS)
@SETTINGS
@given(request=subspace_requests())
def test_subspace_lane_matches_per_codeword_scan(chunk, request):
    codebook, packets, metric, list_radius = request
    p = codebook.p
    received = Subspace.from_rows(packets, p, codebook.stack.shape[2])
    dists = [REFERENCE[metric](received, Subspace.from_rows(cw.rows, p)) for cw in codebook]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "RANK_CHUNK", chunk)
        if list_radius is None:
            result = tier2_subspace_decode(packets, codebook, metric)
        else:
            result = tier2_list_decode(packets, codebook, list_radius, metric)
    assert result == reference_select(dists, list_radius)
    assert_plain(result)


@pytest.mark.parametrize("chunk", CHUNKS)
@SETTINGS
@given(request=rank_requests())
def test_rank_lane_matches_per_codeword_scan(chunk, request):
    codebook, word, positions, list_radius = request
    kept = range(len(word)) if positions is None else sorted(positions)
    ctx = word[0].ctx
    dists = [rank_distance([word[i] for i in kept], [ctx.from_vector(cw.rows[i]) for i in kept])
             for cw in codebook]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "RANK_CHUNK", chunk)
        result = tier2_rank_decode([s.to_vector() for s in word], codebook, positions,
                                   list_radius)
    assert result == reference_select(dists, list_radius)
    assert_plain(result)


@SETTINGS
@given(data=st.data())
def test_batched_rank_matches_naive_rank(data):
    p = data.draw(st.sampled_from((2, 3, 5, 7)))
    count = data.draw(st.integers(0, 9))
    rows = data.draw(st.integers(0, 4))
    width = data.draw(st.integers(1, 6))
    digit = st.integers(0, p - 1)

    def matrix(n_rows):
        return [tuple(data.draw(st.lists(digit, min_size=width, max_size=width)))
                for _ in range(n_rows)]

    stack = [matrix(rows) for _ in range(count)]
    offset = matrix(rows)
    basis_rows = matrix(data.draw(st.integers(0, 3)))
    basis = linalg.rref(basis_rows, p) if basis_rows else None
    a = oracles.naive_rank(basis_rows, p) if basis_rows else 0
    chunk = data.draw(st.integers(1, 4))
    arr = np.array(stack, dtype=np.int8).reshape(count, rows, width)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "RANK_CHUNK", chunk)
        plain = linalg.batched_rank(arr, p)
        shifted = linalg.batched_rank(arr, p, offset=np.array(offset).reshape(rows, width),
                                      basis=basis)
    assert plain.tolist() == [oracles.naive_rank(m, p) for m in stack]
    expected = []
    for m in stack:
        diff = [tuple((o - x) % p for o, x in zip(orow, mrow)) for orow, mrow in zip(offset, m)]
        expected.append(oracles.naive_rank(basis_rows + diff, p) - a)
    assert shifted.tolist() == expected


def test_codebook_stack_is_built_once_and_kept():
    codebook = fixture_codebook("kk_example")
    assert isinstance(codebook, Codebook)
    stack = codebook.stack
    assert stack.shape == (8, 2, 6) and stack.dtype == np.int8
    assert codebook.stack is stack
    assert [tuple(map(tuple, m)) for m in stack.tolist()] == [cw.rows for cw in codebook]


# ---------------------------------------------------------------- bit-packed GF(2) kernel

# one word holds 63 digits, so these widths put rows on both sides of
# every word boundary up to three words
PACKED_WIDTHS = (1, 62, 63, 64, 126, 127, 130)


@st.composite
def gf2_rows(draw, count, width, earlier=()):
    """`count` GF(2) rows: random or sparse at the word edges, zero below a
    drawn word (so that rows share bits there and leads fall in later
    words), zero, or the sum of rows drawn before (so that ranks drop)."""
    edges = {0, 1, 61, 62, 63, 64, 125, 126, 127, 128, width - 1}
    rows = []
    for _ in range(count):
        pool = list(earlier) + rows
        kind = draw(st.sampled_from(("random", "zero", "sparse", "sum") if pool
                                    else ("random", "zero", "sparse")))
        low = 63 * draw(st.integers(0, (width - 1) // 63))
        if kind == "random":
            row = [0] * low + draw(st.lists(st.integers(0, 1), min_size=width - low,
                                            max_size=width - low))
        elif kind == "zero":
            row = [0] * width
        elif kind == "sparse":
            ones = draw(st.sets(st.sampled_from(sorted(c for c in edges if low <= c < width)),
                                min_size=1, max_size=3))
            row = [int(c in ones) for c in range(width)]
        else:
            picked = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
            row = [sum(col) % 2 for col in zip(*picked)]
        rows.append(tuple(row))
    return rows


@pytest.mark.parametrize("chunk", CHUNKS)
@SETTINGS
@given(data=st.data())
def test_packed_rank_matches_naive_rank_and_int16_kernel(chunk, data):
    width = data.draw(st.sampled_from(PACKED_WIDTHS))
    rows = data.draw(st.integers(1, 6))
    count = data.draw(st.integers(1, 7))
    first = data.draw(gf2_rows(rows, width))
    stack = [first] + [data.draw(gf2_rows(rows, width, first)) for _ in range(count - 1)]
    positions = data.draw(st.one_of(
        st.none(), st.lists(st.integers(0, rows - 1), min_size=1, max_size=rows,
                            unique=True).map(sorted)))
    kept = range(rows) if positions is None else positions
    offset = data.draw(st.one_of(st.none(), gf2_rows(len(kept), width, first)))
    basis_rows = data.draw(gf2_rows(data.draw(st.integers(0, 4)), width, first))
    basis = linalg.rref(basis_rows, 2) if basis_rows else None

    arr = np.array(stack, dtype=np.int8)
    words = linalg.pack_keys(arr.transpose(1, 0, 2), 2)
    assert words.shape == (rows, count, -(-width // 63))
    keys, ids = packed_table(arr)
    picked = ids if positions is None else ids[positions]
    packed_offset = None if offset is None else linalg.pack_bits(offset)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "RANK_CHUNK", chunk)
        packed = linalg.packed_rank(keys, picked, packed_offset, packed_basis(basis_rows))
        int16 = linalg.batched_rank(arr[:, list(kept), :], 2, offset, basis)
    a = oracles.naive_rank(basis_rows, 2)
    expected = []
    for m in stack:
        sub = [m[i] for i in kept]
        if offset is not None:
            sub = [tuple(o ^ x for o, x in zip(orow, mrow)) for orow, mrow in zip(offset, sub)]
        expected.append(oracles.naive_rank(basis_rows + sub, 2) - a)
    assert packed.tolist() == expected
    assert int16.tolist() == expected


@pytest.mark.parametrize("width, ones, rank", [
    (64, [{63}, {63}], 1),                       # lead in the second word
    (64, [{0, 63}, {63}, {0}], 2),               # leads on both sides of a word edge
    (130, [{0, 126}, {63, 126}, {0, 63}], 2),
    (130, [{129}, {126, 129}, {126}, {62, 63}], 3),
])
def test_packed_rank_across_word_edges(width, ones, rank):
    """Hand-picked matrices whose pivots (highest set bits) and cancelling
    row sums straddle the 63-digit word edges, where a packed row stops
    being one int64."""
    matrix = [[int(c in row) for c in range(width)] for row in ones]
    keys, ids = packed_table(np.array([matrix], dtype=np.int8))
    assert oracles.naive_rank(matrix, 2) == rank
    assert linalg.packed_rank(keys, ids).tolist() == [rank]


@functools.cache
def wide_codebook():
    """A hand-made GF(2) subspace code whose rows are 130 digits wide, so
    that a packed row is a Python int: 8 codewords of 3 random rows, all
    sharing their first row (the spec only lends GF(2) and 3-digit messages)."""
    spec, _ = fixture("kk_example")
    stack = np.random.default_rng(5).integers(0, 2, size=(8, 3, 130), dtype=np.int8)
    stack[:, 0] = stack[0, 0]
    return Codebook(spec, stack)


@pytest.mark.parametrize("chunk", CHUNKS)
def test_wide_rows_match_per_codeword_scan(chunk):
    codebook = wide_codebook()
    keys, ids = codebook.table
    assert keys.dtype == object and len(keys) == 1 + 2 * len(codebook)
    rng = random.Random(chunk)
    for _ in range(30):
        rows = codebook[rng.randrange(len(codebook))].rows
        packets = [[sum(rng.randrange(2) * r[c] for r in rows) % 2 for c in range(130)]
                   for _ in range(rng.randint(1, 5))]
        for pkt in packets:
            if rng.random() < 0.5:
                pkt[rng.randrange(130)] ^= 1
        metric = rng.choice(("injection", "subspace"))
        list_radius = rng.choice((None, 0, 1, 2))
        received = Subspace.from_rows(packets, 2, 130)
        dists = [REFERENCE[metric](received, Subspace.from_rows(cw.rows, 2)) for cw in codebook]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "RANK_CHUNK", chunk)
            if list_radius is None:
                result = tier2_subspace_decode(packets, codebook, metric)
            else:
                result = tier2_list_decode(packets, codebook, list_radius, metric)
        assert result == reference_select(dists, list_radius)


def test_gf2_tier2_builds_no_received_rref():
    """Over GF(2) the received packets are echelonised as packed ints by the
    kernel's own elimination: no decode calls ``linalg.rref``."""
    rng = random.Random(11)
    built = {name: load_config(CONFIGS / f"{name}.json").build_all()[2:]
             for name in ("kk_example", "gabidulin_gf8")}
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "rref", lambda *args, rref=linalg.rref: calls.append(1) or rref(*args))
        for codebook, union in built.values():
            for index in range(len(codebook)):
                rows = [list(r) for r in codebook[index].rows]
                rows[rng.randrange(len(rows))][rng.randrange(len(rows[0]))] ^= 1
                for options in (DecodeOptions(), DecodeOptions(tier1_enabled=False),
                                DecodeOptions(list_radius=1, feedback=True)):
                    two_tier_decode(rows, union, codebook, options)
                if codebook.kind == "subspace":
                    tier2_subspace_decode(rows, codebook)
                    tier2_list_decode(rows, codebook, 1, "subspace")
                else:
                    tier2_rank_decode(rows, codebook, [0])
    assert calls == []


def test_codebook_words_are_built_once_and_read_only():
    """The packed rows of a GF(2) codebook, ``Codebook.table``: its distinct
    rows and where each codeword's rows are in them."""
    spec, book = fixture("kk_example")
    codebook = Codebook(spec, book.stack)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "pack_bits",
                   lambda *args, pack=linalg.pack_bits: calls.append(1) or pack(*args))
        table = codebook.table
        assert codebook.table is table
    assert len(calls) == 1
    keys, ids = table
    assert ids.shape == (2, 8) and keys.dtype == np.int64
    assert keys.tolist() == sorted(set(keys.tolist()))
    for array in table:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1
    assert linalg.unpack_keys(keys[ids][..., None], 2, 6).transpose(1, 0, 2).tolist() == \
        codebook.stack.tolist()


def test_gf2_gabidulin_ranks_are_unchanged():
    books = [(spec, book) for spec, book in rank_fixtures() if book.p == 2]
    books.append(fixture("gab-gf64", BENCH_CONFIGS))
    for spec, book in books:
        fresh = Codebook(spec, book.stack)
        assert fresh.ranks.tolist() == [oracles.naive_rank(cw.rows, 2) for cw in book]
        assert fresh.ranks.tolist() == linalg.batched_rank(book.stack, 2).tolist()


def test_packed_and_int16_kernels_agree_on_benchmark_codes():
    """Seeded requests in the shape the benchmark sends: a few combinations
    of a codeword's rows with single-digit errors, and Gabidulin rows with a
    rank-1 error on a subset of positions."""
    rng = random.Random(2024)
    kk = fixture_codebook("kk-gf128", BENCH_CONFIGS)
    width = kk.stack.shape[2]
    for _ in range(12):
        rows = kk[rng.randrange(len(kk))].rows
        packets = [[sum(rng.randrange(2) * r[c] for r in rows) % 2 for c in range(width)]
                   for _ in range(len(rows) + 2)]
        for pkt in packets:
            if rng.random() < 0.3:
                pkt[rng.randrange(width)] ^= 1
        received = linalg.rref(packets, 2)
        assert kk.batched_rank(basis=kk.basis_of(packets)[0]).tolist() == \
            linalg.batched_rank(kk.stack, 2, basis=received).tolist()
    gab = fixture_codebook("gab-gf64", BENCH_CONFIGS)
    n, m = gab.stack.shape[1:]
    for _ in range(12):
        sent = gab[rng.randrange(len(gab))].rows
        error = [rng.randrange(2) for _ in range(m)]
        word = [tuple(d ^ (e & mask) for d, e in zip(row, error))
                for row, mask in zip(sent, [rng.randrange(2) for _ in range(n)])]
        positions = sorted(rng.sample(range(n), rng.randint(1, n)))
        received = [word[i] for i in positions]
        assert gab.batched_rank(positions, offset=received).tolist() == \
            linalg.batched_rank(gab.stack[:, positions, :], 2, offset=received).tolist()
