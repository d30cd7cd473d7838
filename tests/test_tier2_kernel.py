"""The tier-2 lanes against per-codeword reference scans.

The rank lane answers a word within the unique-decoding radius of its
kept positions from their syndrome table, and otherwise computes every
codeword's distance in one ``Codebook.batched_rank`` call:
``linalg.packed_rank`` on the codebook's bit-packed rows, in the narrowest
unsigned dtype that holds one, over GF(2), and ``linalg.batched_rank`` on
int16 digits otherwise. The subspace
lane finds the union vectors in the received space, by looking each of its
vectors up over GF(2) when there are no more of them than union vectors,
and otherwise by ranking the union's nonzero vectors against it as
one-row matrices, and counts their owners through the owner index of the
codebook's ``union.Spans``. These properties rebuild
each distance one codeword at a time with ``metrics.injection_distance``,
``subspace_distance`` and ``rank_distance``, pick from them as a plain
sorted scan would, and require the same ``DecodeResult`` on every shipped
fixture, on the GF(2^7) KK benchmark code, on GF(2) and GF(3) codes whose
vectors have many owners and on a hand-made code whose rows are wider than
64 bits, with the kernel's chunk size at its default and small enough to
split each array. The syndrome tables are drawn on words at each rank
distance up to one past their radius, with too few positions, refused for
a shared syndrome, and over their error budget, and must rank the
codebook exactly where they cannot answer. The packed kernel is also
checked against
``oracles.naive_rank`` and the int16 kernel at every dtype and word
boundary, the GF(2) subspace lane against calls to ``linalg.rref``, the
GF(2) packet check, which packs as it checks, against
``oracles.reference_check_packets``, and the subspace lane against reading
``Codebook.table`` or forming the owner index more than once per codebook.
"""

import functools
import itertools
import random
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from twotier import decoders, linalg, union
from twotier.codes import SETUP_CHUNK, Codebook, GabidulinSpec, build_codebook
from twotier.config import load_config
from twotier.decoders import (DecodeOptions, DecodeResult, tier2_list_decode,
                              tier2_rank_decode, tier2_subspace_decode, two_tier_decode)
from twotier.errors import BudgetError
from twotier.fields import FieldContext
from twotier.metrics import Subspace, injection_distance, rank_distance, subspace_distance

import oracles

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BENCH_CONFIGS = CONFIGS.parent / "perfbench" / "configs"
SUBSPACE_FIXTURES = ("kk_example", "mv1", "mv2_uncompressed", "mv2_compressed")
# the subspace lane's drawn codes: the fixtures and two codes whose vectors
# have many owners (the KK benchmark code takes explicit requests only, as
# its per-codeword reference scan takes most of a second)
SUBSPACE_SOURCES = SUBSPACE_FIXTURES + ("gf2-owners", "gf3-owners")
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
def many_owner_codebook(p, width):
    """Every 2-dimensional subspace of GF(p)^width as a codeword, each from
    a random basis of it, in a seeded random order: over GF(2) at width 5,
    155 codewords, and each nonzero vector has 15 owners; over GF(3) at
    width 4, 130 codewords, and 13 owners. The spec lends only the kind,
    the field size and a message length."""
    rng = random.Random(p * width)
    seen, stack = set(), []
    for pair in itertools.combinations(itertools.product(range(p), repeat=width), 2):
        span = frozenset(oracles.span(pair, p))
        if len(span) == p * p and span not in seen:
            seen.add(span)
            basis = rng.sample(sorted(span), 2)
            while oracles.naive_rank(basis, p) < 2:
                basis = rng.sample(sorted(span), 2)
            stack.append(basis)
    rng.shuffle(stack)
    length = next(n for n in itertools.count(1) if p ** n >= len(stack))
    spec = SimpleNamespace(kind="subspace", q=p, message_length=length)
    return Codebook(spec, np.array(stack, dtype=np.int8))


def source_codebook(name):
    """The codebook of a name in ``SUBSPACE_SOURCES``, or of "kk-gf128"."""
    if name.endswith("-owners"):
        return many_owner_codebook(*{"gf2-owners": (2, 5), "gf3-owners": (3, 4)}[name])
    if name == "kk-gf128":
        return fixture_codebook(name, BENCH_CONFIGS)
    return fixture_codebook(name)


@functools.cache
def codeword_spaces(codebook):
    """The ``metrics.Subspace`` of every codeword, the reference scan's operands."""
    return tuple(Subspace.from_rows(cw.rows, codebook.p) for cw in codebook)


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
    """The (rows, N) packed rows of an (N, rows, width) GF(2) digit stack,
    as ``Codebook.table`` holds them."""
    return linalg.pack_digits(np.asarray(stack).transpose(1, 0, 2), 2)


def narrowest(width, p=2):
    """The dtype ``pack_digits`` packs `width` base-p digits into."""
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
        if p ** width <= 256 ** np.dtype(dtype).itemsize:
            return np.dtype(dtype)
    return np.dtype(object)


def unpacked(packed, width):
    """The digit rows of packed ints, by Python shifts: (...) -> (..., width) lists."""
    if isinstance(packed, list):
        return [unpacked(x, width) for x in packed]
    return [(packed >> c) & 1 for c in range(width)]


def packed_basis(rows):
    """``linalg.packed_basis`` of GF(2) digit rows, of which there may be none."""
    return linalg.packed_basis(linalg.pack_digits(rows, 2)) if rows else ()


def assert_plain(result):
    """Fields are Python ints and bools, so reports serialise as before."""
    for value in (result.chosen, result.metric_value):
        assert value is None or type(value) is int
    assert type(result.tie) is bool
    assert result.list is None or all(type(i) is int for i in result.list)


@st.composite
def subspace_requests(draw):
    codebook = source_codebook(draw(st.sampled_from(SUBSPACE_SOURCES)))
    p = codebook.p
    width = codebook.stack.shape[2]
    rows = codebook[draw(st.integers(0, len(codebook) - 1))].rows
    digit = st.integers(0, p - 1)
    packets = []
    # up to two more packets than the ambient dimension, so the received
    # space runs from {0} to the whole ambient space: zero, in the sent
    # span, anywhere (in the union or outside it) or a unit vector
    for _ in range(draw(st.integers(1, width + 2))):
        kind = draw(st.sampled_from(("zero", "span", "random", "unit")))
        if kind == "zero":
            packets.append((0,) * width)
        elif kind == "span":
            coeffs = draw(st.lists(digit, min_size=len(rows), max_size=len(rows)))
            packets.append(tuple(sum(c * r[i] for c, r in zip(coeffs, rows)) % p
                                 for i in range(width)))
        elif kind == "random":
            packets.append(tuple(draw(st.lists(digit, min_size=width, max_size=width))))
        else:
            at = draw(st.integers(0, width - 1))
            packets.append(tuple(int(i == at) for i in range(width)))
    metric = draw(st.sampled_from(("injection", "subspace")))
    # radii below a codeword's dimension and at or above it, up to one
    # that lists every codeword
    list_radius = draw(st.sampled_from((None, 0, 1, 2, 3, 5, 2 * width)))
    return codebook, packets, metric, list_radius


def explicit_requests():
    """Received spaces at both ends, {0} (all-zero packets) and the whole
    ambient space (unit vectors), nearest and with a radius that lists
    every codeword; a packet outside the union; and the KK benchmark code."""
    requests = []
    for name in ("kk_example", "gf2-owners", "gf3-owners"):
        codebook = source_codebook(name)
        width = codebook.stack.shape[2]
        units = [tuple(int(i == at) for i in range(width)) for at in range(width)]
        for packets in ([(0,) * width] * 2, units):
            for metric, list_radius in (("injection", None), ("subspace", 2 * width),
                                        ("injection", 1)):
                requests.append((codebook, packets, metric, list_radius))
    # kk_example's union holds 25 of the 64 vectors, and not this one
    requests.append((source_codebook("kk_example"), [(1, 1, 1, 1, 1, 1)], "injection", None))
    # a request in the benchmark's shape on its code: combinations of a
    # codeword's rows, one with a digit changed
    kk = source_codebook("kk-gf128")
    first, second = kk[5].rows
    packets = [first, tuple(a ^ b for a, b in zip(first, second)), second]
    packets[2] = packets[2][:3] + (1 - packets[2][3],) + packets[2][4:]
    requests += [(kk, packets, "injection", None), (kk, packets, "subspace", 28)]
    return requests


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


def with_examples(requests):
    """The hypothesis test with each request as an explicit example too."""
    def decorate(test):
        for request in requests:
            test = example(request=request)(test)
        return test
    return decorate


@pytest.mark.parametrize("chunk", CHUNKS)
@SETTINGS
@given(request=subspace_requests())
@with_examples(explicit_requests())
def test_subspace_lane_matches_per_codeword_scan(chunk, request):
    codebook, packets, metric, list_radius = request
    received = Subspace.from_rows(packets, codebook.p, codebook.stack.shape[2])
    dists = [REFERENCE[metric](received, space) for space in codeword_spaces(codebook)]
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

# a packed row is the narrowest of uint8 to uint64 that holds its width, so
# these widths put rows on both sides of every dtype boundary; above 64
# digits it is a Python int, made of 64-bit words, and the widths also
# straddle 63-digit edges up to three of them.
PACKED_WIDTHS = (1, 8, 9, 16, 17, 32, 33, 62, 63, 64, 65, 126, 127, 130)


@st.composite
def gf2_rows(draw, count, width, earlier=()):
    """`count` GF(2) rows: random or sparse at the word edges, zero below a
    drawn word (so that rows share bits there and leads fall in later
    words), zero, or the sum of rows drawn before (so that ranks drop)."""
    edges = {0, 1, 7, 8, 15, 16, 31, 32, 61, 62, 63, 64, 125, 126, 127, 128, width - 1}
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
    table = packed_table(arr)
    assert table.shape == (rows, count) and table.dtype == narrowest(width)
    assert unpacked(table.tolist(), width) == arr.transpose(1, 0, 2).tolist()
    picked = table if positions is None else table[positions]
    packed_offset = None if offset is None else linalg.pack_digits(offset, 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "RANK_CHUNK", chunk)
        packed = linalg.packed_rank(picked, packed_offset, packed_basis(basis_rows))
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
    row sums straddle 63-digit edges, bit 63 (the
    top bit of a uint64, where a signed compare would fail) and 64 bits,
    above which a packed row is a Python int."""
    matrix = [[int(c in row) for c in range(width)] for row in ones]
    assert oracles.naive_rank(matrix, 2) == rank
    assert linalg.packed_rank(packed_table(np.array([matrix], dtype=np.int8))).tolist() == [rank]


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
    table = codebook.table
    assert table.dtype == object and table.shape == (3, len(codebook))
    assert unpacked(table.tolist(), 130) == codebook.stack.transpose(1, 0, 2).tolist()
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


# the digits a GF(2) packet is drawn from: both digits, and a negative one,
# one too large, a bool and a float, which the check must read as the
# least-and-greatest check does
CHECK_DIGITS = (-1, 0, 1, 2, True, 0.5)
# how a drawn row reaches the check
ROW_FORMS = {"tuple": tuple, "list": list,
             "int8": lambda d: np.array(d, dtype=np.int8),
             "int64": lambda d: np.array(d, dtype=np.int64),
             "numpy ints": lambda d: tuple(np.int64(x) for x in d)}


@settings(SETTINGS, max_examples=200)
@given(data=st.data())
def test_gf2_check_packs_as_the_least_and_greatest_check_reads(data):
    """``decoders._check_packets`` over GF(2), at widths on both sides of
    64 bits: where ``oracles.reference_check_packets`` accepts the rows, it
    returns their ``linalg.pack_digits`` integers, and otherwise it raises
    the same exception with the same message."""
    width = data.draw(st.integers(1, 130), label="width")
    rows = []
    for _ in range(data.draw(st.integers(1, 4), label="rows")):
        length = data.draw(st.sampled_from((width, width, width, width - 1, width + 1)))
        digits = data.draw(st.lists(st.sampled_from((0, 1)), min_size=length, max_size=length))
        for _ in range(data.draw(st.sampled_from((0, 0, 0, 1, 2))) if digits else 0):
            digits[data.draw(st.integers(0, len(digits) - 1))] = \
                data.draw(st.sampled_from(CHECK_DIGITS))
        form = data.draw(st.sampled_from(sorted(ROW_FORMS)))
        event(form)
        rows.append(ROW_FORMS[form](digits))
    try:
        oracles.reference_check_packets(rows, 2, width)
    except Exception as exc:        # the check must raise as the reference does
        event(f"refused: {type(exc).__name__}")
        with pytest.raises(Exception) as got:
            decoders._check_packets(rows, 2, width)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return
    event("accepted")
    assert decoders._check_packets(rows, 2, width) == linalg.pack_digits(rows, 2).tolist()


def kk_gf128_requests(codebook, count, seed, spread=0):
    """Benchmark-shaped packets for the KK benchmark code: a few
    combinations of a codeword's rows, some with a digit changed, and
    `spread` random packets, which make the received space larger."""
    rng = random.Random(seed)
    width = codebook.stack.shape[2]
    requests = []
    for _ in range(count):
        rows = codebook[rng.randrange(len(codebook))].rows
        packets = [[sum(rng.randrange(2) * r[c] for r in rows) % 2 for c in range(width)]
                   for _ in range(len(rows) + 2)]
        for pkt in packets:
            if rng.random() < 0.3:
                pkt[rng.randrange(width)] ^= 1
        packets += [[rng.randrange(2) for _ in range(width)] for _ in range(spread)]
        requests.append(packets)
    return requests


def test_kk_subspace_lane_ranks_union_vectors_not_the_table():
    """A subspace decode of the 16,384-codeword KK benchmark code hands
    ``linalg.packed_rank`` no block of ``Codebook.table``: nearest, list,
    two-tier and feedback decodes. A received space with fewer vectors
    than the union (|U| = 385) has each vector looked up, so the kernel
    sees nothing; a larger one has the union's nonzero vectors ranked
    against it, as one-row matrices. Both give the injection distances
    of ``oracles.scan_ranks``, the whole-table scan."""
    _, _, codebook, union_code = load_config(BENCH_CONFIGS / "kk-gf128.json").build_all()
    b = codebook.stack.shape[1]
    requests = {spread: kk_gf128_requests(codebook, 8, 3 + spread, spread) for spread in (0, 10)}
    nearest = {}
    for spread, batch in requests.items():
        for i, packets in enumerate(batch):
            a = oracles.naive_rank(packets, 2)
            dists = (oracles.scan_ranks(codebook, packets) + max(a, b) - b).tolist()
            nearest[spread, i] = reference_select(dists, None)
    shapes = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "packed_rank",
                   lambda packed, *args, rank=linalg.packed_rank, **kwargs:
                   shapes.append(packed.shape) or rank(packed, *args, **kwargs))
        for spread, batch in requests.items():
            for i, packets in enumerate(batch):
                assert tier2_subspace_decode(packets, codebook) == nearest[spread, i]
                # numpy digits pack as Python ints too (int8 would overflow at 2^7)
                int8 = [np.array(packet, dtype=np.int8) for packet in packets]
                assert tier2_subspace_decode(int8, codebook) == nearest[spread, i]
                tier2_list_decode(packets, codebook, 1, "subspace")
                for options in (DecodeOptions(), DecodeOptions(list_radius=1, feedback=True)):
                    two_tier_decode(packets, union_code, codebook, options)
            if spread == 0:
                assert shapes == []
    assert shapes and set(shapes) == {(1, union_code.cardinality - 1)}


def count_owner_indices(mp):
    """Calls of ``union._owner_index``, counted from now on."""
    calls = []
    mp.setattr(union, "_owner_index",
               lambda *args, index=union._owner_index: calls.append(1) or index(*args))
    return calls


def test_owner_index_is_formed_once_per_codebook():
    """The set-up forms no owner index, so the union keeps no more per
    codeword; the first subspace tier-2 decode forms it on the codebook's
    one ``Spans`` record, which the union shares, and later decodes and
    union builds read it."""
    with pytest.MonkeyPatch.context() as mp:
        calls = count_owner_indices(mp)
        for name, where in (("kk_example", CONFIGS), ("mv1", CONFIGS),
                            ("mv2_uncompressed", CONFIGS), ("kk-gf128", BENCH_CONFIGS)):
            _, _, codebook, union_code = load_config(where / f"{name}.json").build_all()
            assert codebook.spans is union_code.provenance
            assert union.build_union(codebook).provenance is codebook.spans
            assert calls == [] and "owner_index" not in codebook.spans.__dict__
            rows = [list(r) for r in codebook[1].rows]
            for options in (DecodeOptions(), DecodeOptions(tier1_enabled=False),
                            DecodeOptions(list_radius=1, feedback=True)):
                for _ in range(3):
                    two_tier_decode(rows, union_code, codebook, options)
            tier2_list_decode(rows, codebook, 1)
            assert union.build_union(codebook).provenance is codebook.spans
            assert len(calls) == 1
            calls.clear()


def test_owner_index_lists_each_vectors_owners():
    """Against ``union.owners``, the per-vector owner sets of the dump: the
    index lists, in ascending order, exactly the codewords whose span holds
    each vector."""
    for name, where in (("kk_example", CONFIGS), ("mv2_compressed", CONFIGS),
                        ("kk-gf128", BENCH_CONFIGS)):
        _, _, codebook, union_code = load_config(where / f"{name}.json").build_all()
        starts, owners = union_code.provenance.owner_index
        assert owners.dtype == np.int32 and not owners.flags.writeable
        assert len(owners) == codebook.spans.ids.size
        assert [owners[lo:hi].tolist() for lo, hi in zip(starts, starts[1:])] == \
            [sorted(owned) for owned in union.owners(union_code).values()]


def test_gabidulin_never_forms_the_owner_index():
    """The rank lane reads no owner index: a Gabidulin set-up and its
    decodes, with and without list feedback, never form one."""
    with pytest.MonkeyPatch.context() as mp:
        calls = count_owner_indices(mp)
        for name, where in (("gabidulin_gf8", CONFIGS), ("gab-gf64", BENCH_CONFIGS)):
            _, _, codebook, union_code = load_config(where / f"{name}.json").build_all()
            for index in range(1, min(len(codebook), 20)):
                rows = [list(r) for r in codebook[index].rows]
                rows[0][0] ^= 1
                for options in (DecodeOptions(), DecodeOptions(tier1_enabled=False),
                                DecodeOptions(list_radius=1, feedback=True)):
                    two_tier_decode(rows, union_code, codebook, options)
                tier2_rank_decode(rows, codebook, list_radius=2)
            assert "owner_index" not in codebook.spans.__dict__
    assert calls == []


def test_direct_subspace_decode_forms_the_span_record_within_the_budget():
    """A tier-2 call on a codebook that no union was built from forms its
    ``Spans`` record, which ``build_union`` then shares; past the default
    union budget it raises BudgetError, and forms nothing."""
    spec, book = fixture("kk_example")
    codebook = Codebook(spec, book.stack)
    assert codebook.spans is None
    packets = [codebook[3].rows[0]]
    assert tier2_subspace_decode(packets, codebook) == tier2_subspace_decode(packets, book)
    spans = codebook.spans
    assert spans is not None and union.build_union(codebook).provenance is spans
    with pytest.raises(BudgetError):
        union.build_union(codebook, budget=8 * 4 - 1)
    # 65 codewords of 20 independent GF(2) rows: 65 * 2^20 span vectors,
    # just past the default budget of 2^26
    rng = np.random.default_rng(7)
    stack = []
    while len(stack) < 65:
        rows = rng.integers(0, 2, size=(20, 24), dtype=np.int8)
        if oracles.naive_rank(rows.tolist(), 2) == 20:
            stack.append(rows)
    large = Codebook(spec, np.array(stack))
    assert len(large) * 2 ** 20 > union.DEFAULT_UNION_BUDGET
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(union, "_distinct_spans", lambda *args: pytest.fail("spans formed"))
        with pytest.raises(BudgetError):
            tier2_subspace_decode([tuple(stack[0][0])], large)
    assert large.spans is None


def test_subspace_decode_reads_a_union_built_past_the_default_budget(monkeypatch):
    """The union budget is checked where the span record is formed: a union
    built under a budget above ``DEFAULT_UNION_BUDGET`` leaves a record that
    tier 2 decodes on, while a codebook with no union still raises."""
    spec, book = fixture("kk_example")
    total = len(book) * 2 ** book.stack.shape[1]
    monkeypatch.setattr(union, "DEFAULT_UNION_BUDGET", total - 1)
    with pytest.raises(BudgetError):
        tier2_subspace_decode([book[3].rows[0]], Codebook(spec, book.stack))
    codebook = Codebook(spec, book.stack)
    spans = union.build_union(codebook, budget=total).provenance
    assert union.spans_of(codebook, budget=1) is spans
    for packets in ([book[3].rows[0]], list(book[5].rows), [(0,) * book.stack.shape[2]]):
        for metric in ("injection", "subspace"):
            assert tier2_subspace_decode(packets, codebook, metric) == \
                tier2_subspace_decode(packets, book, metric)
            assert tier2_list_decode(packets, codebook, 1, metric) == \
                tier2_list_decode(packets, book, 1, metric)


def test_codebook_words_are_built_once_and_read_only():
    """The packed rows of a GF(2) codebook, ``Codebook.table``: one
    read-only (rows, N) array in the narrowest unsigned dtype, built once
    (by the subspace check of a subspace codebook, else on first use),
    whose column n unpacks to codeword n's rows."""
    for name, where, dtype in (("kk_example", CONFIGS, np.uint8),
                               ("mv1", CONFIGS, np.uint16),
                               ("gab-gf64", BENCH_CONFIGS, np.uint8),
                               ("kk-gf128", BENCH_CONFIGS, np.uint16)):
        spec, book = fixture(name, where)
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "pack_digits",
                       lambda *args, pack=linalg.pack_digits: calls.append(1) or pack(*args))
            codebook = Codebook(spec, book.stack)
            table = codebook.table
            built = len(calls)
            assert codebook.table is table
        n, rows, width = codebook.stack.shape
        assert built == -(-n // SETUP_CHUNK) and len(calls) == built
        assert isinstance(table, np.ndarray)
        assert table.shape == (rows, n) and table.dtype == dtype == narrowest(width)
        assert table.flags.c_contiguous and not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1
        assert unpacked(table.tolist(), width) == codebook.stack.transpose(1, 0, 2).tolist()


def test_union_set_up_builds_the_table_the_decodes_use():
    """``build_union`` leaves a GF(2) codebook holding its packed table, and
    a decode uses that same array: no decode builds it."""
    for name, where in (("kk_example", CONFIGS), ("gabidulin_gf8", CONFIGS),
                        ("gab-gf64", BENCH_CONFIGS), ("kk-gf128", BENCH_CONFIGS)):
        _, _, codebook, union = load_config(where / f"{name}.json").build_all()
        assert "table" in codebook.__dict__
        table = codebook.__dict__["table"]
        rows = [list(r) for r in codebook[1].rows]
        rows[0][0] ^= 1
        for options in (DecodeOptions(), DecodeOptions(tier1_enabled=False)):
            two_tier_decode(rows, union, codebook, options)
        assert codebook.__dict__["table"] is table


@SETTINGS
@given(rows=st.integers(1, 4), width=st.sampled_from(PACKED_WIDTHS),
       seed=st.integers(0, 2 ** 32 - 1))
def test_packed_rref_is_a_canonical_basis(rows, width, seed):
    """``linalg.packed_rref`` of random GF(2) matrices, against span
    enumeration and ``oracles.naive_rank``: each column spans what its
    matrix spans, has a zero row exactly when the rows are dependent, and
    holds each pivot (a highest set bit) in its own row only, in increasing
    order, so matrices with one span (rows reversed, or mixed by an
    invertible map) get one column. ``pack_words`` joins a column's rows
    into the integer ``pack_digits`` makes of their digits side by side."""
    rng = np.random.default_rng(seed)
    stack = rng.integers(0, 2, size=(6, rows, width), dtype=np.int8)
    stack[1] = stack[0, ::-1]
    stack[2] = stack[0]
    stack[2, :-1] ^= stack[0, 1:]               # row i plus row i + 1
    if rows > 1:
        stack[3, -1] = stack[3, 0]
    stack[4, rng.integers(rows)] = 0
    reduced = linalg.packed_rref(packed_table(stack))
    assert reduced.shape == (rows, len(stack)) and reduced.dtype == narrowest(width)
    columns = reduced.T.tolist()
    for matrix, column in zip(stack.tolist(), columns):
        nonzero = [x for x in column if x]
        assert column == sorted(column)
        assert (len(nonzero) < rows) == (oracles.naive_rank(matrix, 2) < rows)
        for x in nonzero:
            assert [y for y in nonzero if y >> (x.bit_length() - 1) & 1] == [x]
        assert oracles.span(unpacked(column, width), 2) == oracles.span(matrix, 2)
    assert columns[0] == columns[1] == columns[2]
    keys = linalg.pack_words(reduced.T, 2, width)
    assert keys.dtype == narrowest(rows * width)
    assert keys.tolist() == linalg.pack_digits(
        np.array(unpacked(columns, width)).reshape(len(stack), -1), 2).tolist()


@pytest.mark.parametrize("width", sorted({0} | set(PACKED_WIDTHS) | {24, 128}))
def test_pack_bits_is_the_narrowest_unsigned_dtype(width):
    """``pack_digits`` over GF(2) and GF(3): digit c weighs p^c, in uint8 to
    uint64 or Python ints above 64 bits, for an empty width, each side of
    every dtype edge and a list input, of lists or of tuples. Over GF(2)
    digit c is bit c."""
    for p in (2, 3):
        digits = np.random.default_rng(width).integers(0, p, size=(3, 5, width), dtype=np.int8)
        digits[0, 0] = p - 1                    # the largest vector of its width
        packed = linalg.pack_digits(digits, p)
        assert packed.shape == (3, 5) and packed.dtype == narrowest(width, p)
        assert packed.tolist() == [[sum(d * p ** c for c, d in enumerate(row)) for row in matrix]
                                   for matrix in digits.tolist()]
        assert packed[0, 0] == p ** width - 1
        assert linalg.pack_digits(digits[0].tolist(), p).tolist() == packed[0].tolist()
        assert linalg.pack_digits([tuple(row) for row in digits[0].tolist()], p).tolist() == \
            packed[0].tolist()


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
        assert oracles.scan_ranks(kk, packets).tolist() == \
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


# ---------------------------------------------------------------- syndrome tables

SYNDROME_CODES = ("gab-gf64", "gabidulin_gf8", "skew-gabidulin", "gf729-gabidulin",
                  "gf27-gabidulin")


@functools.cache
def syndrome_code(name):
    """(spec, codebook) of a Gabidulin code the syndrome tables are drawn
    on: the GF(2^6) benchmark code (k = 2, radius 1 on all four positions),
    the shipped GF(2^3) fixture, the non-polynomial basis and GF(3^6) codes
    of ``rank_fixtures``, and a GF(3^3) code with n = 3, k = 1 (radius 1
    over GF(3))."""
    if name == "gab-gf64":
        return fixture(name, BENCH_CONFIGS)
    if name == "gf27-gabidulin":
        gf27 = FieldContext(3, 3, [1, 2, 0, 1])      # x^3 + 2x + 1
        spec = GabidulinSpec(field=gf27, n=3, k=1,
                             generators=[gf27.one, gf27.gamma, gf27.gamma_pow(2)])
        return spec, build_codebook(spec)
    return rank_fixtures()[SYNDROME_CODES.index(name) - 1]


def counted_ranks(monkeypatch):
    """A list that grows by one on each ``Codebook.batched_rank`` call, the
    scan, from here on."""
    calls = []
    batched_rank = Codebook.batched_rank
    monkeypatch.setattr(Codebook, "batched_rank",
                        lambda *args, **kwargs: calls.append(1) or batched_rank(*args, **kwargs))
    return calls


@functools.cache
def codeword_symbols(spec, codebook):
    """Every codeword's rows as field elements, the reference scan's operands."""
    return tuple(tuple(map(spec.field.from_vector, cw.rows)) for cw in codebook)


def rank_error(draw, rows, cols, rank, p):
    """A rows x cols digit matrix of rank exactly `rank`: U V with U = [I; X]
    and V = [I | Y], rows and columns permuted."""
    def digits(shape):
        count = shape[0] * shape[1]
        drawn = draw(st.lists(st.integers(0, p - 1), min_size=count, max_size=count))
        return np.array(drawn, dtype=np.int64).reshape(shape)

    left = np.vstack([np.eye(rank, dtype=np.int64), digits((rows - rank, rank))])
    right = np.hstack([np.eye(rank, dtype=np.int64), digits((rank, cols - rank))])
    error = left @ right % p
    error = error[draw(st.permutations(range(rows)))][:, draw(st.permutations(range(cols)))]
    assert oracles.naive_rank(error.tolist(), p) == rank
    return error


@st.composite
def syndrome_requests(draw, name):
    """A word at rank distance 0 to t + 1 from a codeword at the positions P,
    any digits elsewhere, with |P| anywhere from 1 (below k when k > 1) to
    n, and list radius None, 0 to t, or t + 1; t = floor((|P| - k) / 2)."""
    spec, codebook = syndrome_code(name)
    p, n, m, k = codebook.p, spec.n, spec.field.n, spec.k
    # all n positions half the time, where t is largest
    size = n if draw(st.booleans()) else draw(st.integers(1, n))
    positions = sorted(draw(st.permutations(range(n)))[:size])
    radius = max((len(positions) - k) // 2, 0)
    rank = draw(st.integers(0, min(radius + 1, len(positions))))
    sent = codebook[draw(st.integers(0, len(codebook) - 1))].rows
    word = [tuple(draw(st.lists(st.integers(0, p - 1), min_size=m, max_size=m)))
            for _ in range(n)]
    error = rank_error(draw, len(positions), m, rank, p)
    for i, e in zip(positions, error.tolist()):
        word[i] = tuple((a + b) % p for a, b in zip(sent[i], e))
    list_radius = draw(st.sampled_from((None,) + tuple(range(radius + 2))))
    given = len(positions) < n or draw(st.booleans())
    return spec, codebook, word, positions if given else None, list_radius


@pytest.mark.parametrize("name", SYNDROME_CODES)
@settings(SETTINGS, max_examples=25)
@given(data=st.data())
def test_syndrome_tables_match_per_codeword_scan(name, data):
    """Every field of ``tier2_rank_decode`` against the per-codeword
    ``metrics.rank_distance`` scan, on p = 2, p = 3 and a non-polynomial
    basis. The codebook is ranked exactly when the table cannot answer:
    fewer positions than k, a list radius above t, or a nearest decode with
    no codeword within t."""
    spec, codebook, word, positions, list_radius = data.draw(syndrome_requests(name))
    kept = range(len(word)) if positions is None else positions
    ctx = spec.field
    received = [ctx.from_vector(word[i]) for i in kept]
    dists = [rank_distance(received, [symbols[i] for i in kept])
             for symbols in codeword_symbols(spec, codebook)]
    size, k = len(kept), spec.k
    radius = (size - k) // 2
    scans = size < k or (min(dists) > radius if list_radius is None else list_radius > radius)
    event(f"p = {codebook.p}, t = {radius}: {'scan' if scans else 'table'}")
    with pytest.MonkeyPatch.context() as mp:
        calls = counted_ranks(mp)
        result = tier2_rank_decode(word, codebook, positions, list_radius)
    assert result == reference_select(dists, list_radius)
    assert_plain(result)
    assert len(calls) == scans


def linear_codebook(generator, p, n, m):
    """The GF(p)-linear code of a (length, n·m) generator as a Gabidulin
    codebook: message i encodes its base-p digits, lowest first."""
    length = len(generator)
    digits = np.array([[i // p ** j % p for j in range(length)] for i in range(p ** length)])
    stack = (digits @ np.asarray(generator) % p).astype(np.int8).reshape(-1, n, m)
    spec = SimpleNamespace(kind="gabidulin", q=p, message_length=length)
    return Codebook(spec, stack)


def test_syndrome_collision_falls_back_to_the_scan():
    """A linear code at rank distance 2 on gab-gf64's four positions, with
    radius t = 1 taken from n and k as for an MRD code: two errors of rank 1
    share a syndrome, so the table is refused and every decode ranks the
    codebook, with the scan's result. The same construction on gab-gf64's
    own generator answers from the table."""
    spec, gab = fixture("gab-gf64", BENCH_CONFIGS)
    generator = gab.stack[[2 ** i for i in range(12)]].reshape(12, 24).astype(np.int64)
    weak = generator.copy()
    weak[0] = 0
    weak[0, [0, 7]] = 1                  # a codeword of rank 2: bit 0 of rows 0 and 1
    rng = random.Random(21)
    for generator, tabled in ((generator, True), (weak, False)):
        codebook = linear_codebook(generator, 2, 4, 6)
        if tabled:
            assert np.array_equal(codebook.stack, gab.stack)
        else:
            assert oracles.naive_rank(codebook[1].rows, 2) == 2
        symbols = codeword_symbols(spec, codebook)
        for _ in range(4):
            sent = codebook[rng.randrange(len(codebook))].rows
            error = [rng.randrange(2) for _ in range(6)]
            word = [tuple(a ^ (b & mask) for a, b in zip(row, error))
                    for row, mask in zip(sent, [rng.randrange(2) for _ in range(4)])]
            received = [spec.field.from_vector(row) for row in word]
            dists = [rank_distance(received, s) for s in symbols]
            with pytest.MonkeyPatch.context() as mp:
                calls = counted_ranks(mp)
                result = tier2_rank_decode(word, codebook, list_radius=1)
            assert result == reference_select(dists, 1)
            assert len(calls) == (0 if tabled else 1)


def test_position_sets_over_the_error_budget_keep_the_scan(monkeypatch):
    """A GF(2^5) code with n = 5, k = 1 has t = 2 on all five positions:
    145,112 errors of rank <= 2, past ``SYNDROME_ERRORS``, so a word at rank
    distance 2 is decoded by the scan, as is a gab-gf64 word once the
    budget is below its table's 946 errors; both match the per-codeword
    reference."""
    gf32 = FieldContext(2, 5, [1, 0, 1, 0, 0, 1])        # x^5 + x^2 + 1
    spec = GabidulinSpec(field=gf32, n=5, k=1, generators=[gf32.gamma_pow(i) for i in range(5)])
    wide = (spec, build_codebook(spec))
    ranked = counted_ranks(monkeypatch)
    rng = random.Random(5)
    gab_spec, gab = fixture("gab-gf64", BENCH_CONFIGS)
    # a codebook of its own: the tables are kept per codebook
    for (spec, codebook), budget in ((wide, decoders.SYNDROME_ERRORS),
                                     ((gab_spec, Codebook(gab_spec, gab.stack)), 945)):
        monkeypatch.setattr(decoders, "SYNDROME_ERRORS", budget)
        n, m = codebook.stack.shape[1:]
        for list_radius in (None, 1, 2):
            sent = codebook[rng.randrange(1, len(codebook))].rows
            error = np.array([[1] + [0] * (n - 1), [0, 1] + [0] * (n - 2)]).T @ \
                np.array([[rng.randrange(2) for _ in range(m)] for _ in range(2)]) % 2
            word = [tuple(((np.array(row) + e) % 2).tolist()) for row, e in zip(sent, error)]
            received = [spec.field.from_vector(row) for row in word]
            dists = [rank_distance(received, symbols)
                     for symbols in codeword_symbols(spec, codebook)]
            ranked.clear()
            result = tier2_rank_decode(word, codebook, list_radius=list_radius)
            assert result == reference_select(dists, list_radius)
            assert ranked == [1]


def test_syndrome_tables_of_one_codebook_share_the_error_budget(monkeypatch):
    """On the GF(2^5) code with n = 5, k = 1, three positions have t = 1 and
    1 + 7 * 31 = 218 errors. With room for one such table and a little
    more, the first three-position set gets its table and the second
    keeps the scan; decodes at the first stay on its table."""
    gf32 = FieldContext(2, 5, [1, 0, 1, 0, 0, 1])        # x^5 + x^2 + 1
    spec = GabidulinSpec(field=gf32, n=5, k=1, generators=[gf32.gamma_pow(i) for i in range(5)])
    codebook = build_codebook(spec)
    monkeypatch.setattr(decoders, "SYNDROME_ERRORS", 2 * 218 - 1)
    ranked = counted_ranks(monkeypatch)
    word = [tuple(row) for row in codebook[9].rows]
    for positions, scans in (([0, 1, 2], 0), ([2, 3, 4], 1), ([0, 1, 2], 0), ([3, 4], 0)):
        ranked.clear()
        assert tier2_rank_decode(word, codebook, positions) == DecodeResult(9, 0, False)
        assert len(ranked) == scans
    assert sorted(len(t.errors) for t in codebook.syndromes.values() if t) == [1, 218]
