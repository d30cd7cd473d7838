import gc
import random
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings

from twotier.codes import (BlockSpec, Codebook, GabidulinSpec, KKSpec, MVSpec, PacketLayout,
                           build_codebook, encode)
from twotier.config import load_config
from twotier.errors import BudgetError
from twotier.fields import FieldContext
from twotier.linpoly import LinearizedPoly
from twotier.metrics import Subspace

import oracles
from test_union import random_stack, span_stacks

BENCH_CONFIGS = Path(__file__).resolve().parent.parent / "perfbench" / "configs"


def gf8():
    return FieldContext(2, 3)


def gab_spec(ctx=None, n=2, k=1):
    ctx = ctx or gf8()
    gens = [ctx.gamma_pow(3), ctx.gamma_pow(4), ctx.gamma_pow(5)][:n]
    return GabidulinSpec(field=ctx, n=n, k=k, generators=gens)


def kk_spec(ctx=None):
    ctx = ctx or gf8()
    return KKSpec(field=ctx, l=2, k=1, alphas=(ctx.gamma_pow(3), ctx.gamma_pow(4)))


def mv1_spec(ctx=None):
    ctx = ctx or gf8()
    return MVSpec(field=ctx, m=3, l=1, big_l=2, k=1, alphas=(ctx.gamma_pow(5),))


# ---------------------------------------------------------------- gabidulin

def symbols(ctx, cw):
    """The Gabidulin symbols of a codeword, one per row."""
    return tuple(ctx.from_vector(r) for r in cw.rows)


def test_gabidulin_encode_zero_and_identity():
    spec = gab_spec()
    ctx = spec.field
    zero_cw = encode(spec, ctx.zero.coeffs)
    assert all(s == ctx.zero for s in symbols(ctx, zero_cw))
    one_cw = encode(spec, ctx.one.coeffs)
    assert symbols(ctx, one_cw) == spec.generators


def test_gabidulin_encode_example():
    spec = gab_spec()
    ctx = spec.field
    cw = encode(spec, ctx.gamma.coeffs)
    assert symbols(ctx, cw) == (ctx.gamma_pow(4), ctx.gamma_pow(5))


def test_gabidulin_component_matrix():
    spec = gab_spec()
    ctx = spec.field
    cw = encode(spec, ctx.one.coeffs)
    assert cw.rows == ((1, 1, 0), (0, 1, 1))
    zero = encode(spec, ctx.zero.coeffs)
    assert zero.rows == ((0, 0, 0), (0, 0, 0))


def test_gabidulin_encoding_linear():
    spec = gab_spec(n=3, k=2)
    ctx = spec.field
    rng = random.Random(8)
    for _ in range(50):
        u = tuple(ctx.from_int(rng.randrange(8)) for _ in range(2))
        v = tuple(ctx.from_int(rng.randrange(8)) for _ in range(2))
        s = tuple(a + b for a, b in zip(u, v))
        left = symbols(ctx, encode(spec, s[0].coeffs + s[1].coeffs))
        right = tuple(a + b for a, b in zip(symbols(ctx, encode(spec, u[0].coeffs + u[1].coeffs)),
                                            symbols(ctx, encode(spec, v[0].coeffs + v[1].coeffs))))
        assert left == right


def test_gabidulin_spec_validation():
    ctx = gf8()
    with pytest.raises(ValueError, match="dependent"):
        GabidulinSpec(field=ctx, n=2, k=1, generators=(ctx.gamma, ctx.gamma))
    with pytest.raises(ValueError):
        GabidulinSpec(field=ctx, n=4, k=1,
                      generators=(ctx.one, ctx.gamma, ctx.gamma_pow(2), ctx.gamma_pow(3)))
    with pytest.raises(ValueError):
        GabidulinSpec(field=ctx, n=2, k=3, generators=(ctx.gamma_pow(3), ctx.gamma_pow(4)))


def test_gabidulin_mrd_smoke():
    # minimum pairwise rank distance is n-k+1 on the worked instance
    from twotier.metrics import rank_distance
    spec = gab_spec()
    words = [symbols(spec.field, cw) for cw in build_codebook(spec)]
    dmin = min(rank_distance(a, b) for i, a in enumerate(words) for b in words[i + 1:])
    assert dmin == spec.n - spec.k + 1 == 2


# ---------------------------------------------------------------- kk

def test_kk_encode_examples():
    spec = kk_spec()
    ctx = spec.field
    g = ctx.gamma_pow
    # u(x) = x: rows pair each alpha with itself
    cw1 = encode(spec, ctx.one.coeffs)
    assert cw1.rows == (g(3).to_vector() + g(3).to_vector(),
                        g(4).to_vector() + g(4).to_vector())
    # u(x) = gamma x
    cwg = encode(spec, ctx.gamma.coeffs)
    assert cwg.rows == (g(3).to_vector() + g(4).to_vector(),
                        g(4).to_vector() + g(5).to_vector())
    # u = 0: all value blocks zero
    cw0 = encode(spec, ctx.zero.coeffs)
    assert cw0.rows == (g(3).to_vector() + (0, 0, 0),
                        g(4).to_vector() + (0, 0, 0))


def test_kk_zero_component_span():
    spec = kk_spec()
    ctx = spec.field
    cw0 = encode(spec, ctx.zero.coeffs)
    span = oracles.span(cw0.rows, 2)
    expected = {(0,) * 6,
                ctx.gamma_pow(3).to_vector() + (0, 0, 0),
                ctx.gamma_pow(4).to_vector() + (0, 0, 0),
                ctx.gamma_pow(6).to_vector() + (0, 0, 0)}
    assert span == expected


def test_spec_points_from_another_field_are_refused():
    ctx, other = gf8(), FieldContext(2, 3, (1, 0, 1, 1))
    with pytest.raises(ValueError, match="^alpha from a different field context$"):
        KKSpec(field=ctx, l=2, k=1, alphas=(ctx.gamma_pow(3), other.gamma))
    with pytest.raises(ValueError, match="^generator from a different field context$"):
        GabidulinSpec(field=ctx, n=2, k=1, generators=(other.one, ctx.gamma))


def test_kk_subspace_dimension_and_distinctness():
    spec = kk_spec()
    cb = build_codebook(spec)
    assert len(cb) == 8
    subspaces = [Subspace.from_rows(cw.rows, spec.q) for cw in cb]
    assert len({u.basis for u in subspaces}) == 8
    assert all(u.dim == spec.l for u in subspaces)


# rows over GF(2) of width 6 for a KK code over GF(8) with l = 2
A = ((1, 0, 0, 0, 1, 0), (0, 1, 0, 0, 0, 1))
A2 = ((1, 1, 0, 0, 1, 1), (0, 1, 0, 0, 0, 1))     # the span of A, other rows
B = ((0, 0, 1, 1, 0, 0), (0, 1, 0, 0, 0, 0))
D = ((1, 0, 0, 1, 0, 0), (1, 0, 0, 1, 0, 0))      # dependent rows
DEPENDENT = "codeword for message {} has dependent basis rows"
SAME = "messages {} and {} map to the same subspace"


@pytest.mark.parametrize("stack, error", [
    ((B, A), None),
    ((A, D, A2), DEPENDENT.format((1, 0, 0))),
    ((A, A2, D), SAME.format((0, 0, 0), (1, 0, 0))),
    ((B, A, D, A2), DEPENDENT.format((0, 1, 0))),
    ((B, A, A2, D), SAME.format((1, 0, 0), (0, 1, 0))),
    # the second D is dependent and repeats the first: the first D is named
    ((A, D, D), DEPENDENT.format((1, 0, 0))),
])
def test_subspace_codebook_names_the_first_offender(stack, error):
    """On a hand-made stack: the first message, in message order, whose rows
    are dependent or whose subspace an earlier message has."""
    stack = np.array(stack, dtype=np.int8)
    assert first_offender(stack, 2, kk_spec().message_length) == error
    check_subspace_refusal(kk_spec(), stack, error)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=span_stacks())
@example(case=(random_stack(2, 2, 65, ("random", "repeat", "repeat"), 1), 2))
@example(case=(random_stack(3, 2, 41, ("random", "random", "repeat"), 2), 3))
def test_subspace_codebook_names_the_first_offender_on_random_stacks(case):
    """The hand-made cases' rule on random stacks of repeated, dependent,
    zero-row, zero and random codewords, over GF(2) and GF(3), packed on
    both sides of 64 bits, against the refusal the oracles owe. The
    examples repeat a subspace in keys past 64 bits, once over each field."""
    stack, p = case
    if p == 2:
        spec = kk_spec()
    else:
        ctx = FieldContext(3, 6)
        spec = KKSpec(field=ctx, l=2, k=1, alphas=(ctx.one, ctx.gamma))
    check_subspace_refusal(spec, stack, first_offender(stack, p, spec.message_length))


def first_offender(stack, p, length):
    """The refusal a subspace check owes a stack, by ``oracles.naive_rank``
    and ``oracles.naive_rref``: the first codeword, in message order, whose
    rows are dependent or whose reduced basis an earlier one has, named by
    messages of `length` base-p digits; None when no codeword offends."""
    def message(i):
        return tuple(i // p ** d % p for d in range(length))
    seen = {}
    for i, rows in enumerate(stack.tolist()):
        if oracles.naive_rank(rows, p) < len(rows):
            return DEPENDENT.format(message(i))
        basis = oracles.naive_rref(rows, p)
        if basis in seen:
            return SAME.format(message(seen[basis]), message(i))
        seen[basis] = i
    return None


def check_subspace_refusal(spec, stack, error):
    if error is None:
        assert Codebook(spec, stack).ranks.tolist() == [stack.shape[1]] * len(stack)
        return
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        Codebook(spec, stack)


def test_codebook_index_is_message_arithmetic():
    spec = kk_spec()
    cb = build_codebook(spec)
    assert not cb.stack.flags.writeable
    assert [cb.index(cw.message) for cw in cb] == list(range(len(cb)))
    assert cb[-1] == cb[len(cb) - 1]
    with pytest.raises(IndexError):
        cb[len(cb)]
    # a wrong length, a digit outside [0, q), negative ones included, or a
    # message past the end of a shorter book
    for book, message in ((cb, (0, 0)), (cb, (0, 0, 0, 0)), (cb, (2, 0, 0)),
                          (cb, (-1, 0, 0)), (cb, (0, 0, -1)),
                          (Codebook(spec, cb.stack[:1]), (1, 0, 0))):
        with pytest.raises(ValueError, match="not in the codebook"):
            book.index(message)
    # a digit that is not an integer is refused, not truncated or read as
    # a fraction of a message index
    mv1 = build_codebook(mv1_spec())
    for book, message in ((cb, (1.5, 0, 0)), (cb, (0, 0, 0.0)), (mv1, (0.5,))):
        with pytest.raises(ValueError, match="must be integers"):
            book.index(message)


def test_codebook_keeps_no_per_codeword_objects():
    """The row stack and its packed table are all a codebook keeps: 33
    bytes per codeword here."""
    cfg = load_config(BENCH_CONFIGS / "kk-gf128.json")
    spec = cfg.build_spec(cfg.build_field())
    gc.collect()
    tracemalloc.start()
    try:
        codebook = build_codebook(spec)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(codebook) == 16384
    assert retained / len(codebook) <= 100


def test_kk_spec_validation():
    ctx = gf8()
    with pytest.raises(ValueError):
        KKSpec(field=ctx, l=2, k=1, alphas=(ctx.gamma, ctx.gamma))
    with pytest.raises(ValueError):
        KKSpec(field=ctx, l=4, k=1,
               alphas=(ctx.one, ctx.gamma, ctx.gamma_pow(2), ctx.gamma_pow(3)))
    with pytest.raises(ValueError):  # k > l is rejected as an assumption of the build
        KKSpec(field=ctx, l=1, k=2, alphas=(ctx.gamma,))


# ---------------------------------------------------------------- mv

def test_mv1_encode_paper_rows():
    spec = mv1_spec()
    cw0 = encode(spec, (0,))
    cw1 = encode(spec, (1,))
    g5 = (1, 1, 1)
    assert cw0.rows == (g5 + (0, 0, 0) + (0, 0, 0),)
    assert cw1.rows == (g5 + g5 + g5,)


def test_mv_zero_message_rows():
    ctx = FieldContext(3, 6)
    spec = MVSpec(field=ctx, m=3, l=2, big_l=5, k=1,
                  alphas=(ctx.gamma_pow(504), ctx.gamma_pow(294)))
    cw = encode(spec, (0,))
    for alpha, row in zip(spec.alphas, cw.rows):
        assert row[:6] == alpha.to_vector()
        assert not any(row[6:])


def test_mv_subfield_validation_catches_bad_alphas():
    # with k = 2, u(x) = x^3 gives ratio alpha^2, which escapes GF(27)
    # for alpha = gamma (only exponents divisible by 28 stay inside)
    ctx = FieldContext(3, 6)
    spec = MVSpec(field=ctx, m=3, l=2, big_l=1, k=2, alphas=(ctx.gamma, ctx.gamma_pow(2)))
    with pytest.raises(ValueError, match="malformed"):
        build_codebook(spec)
    with pytest.raises(ValueError, match="malformed"):
        encode(spec, (0, 1))


def test_mv_spec_validation():
    ctx729 = FieldContext(3, 6)
    with pytest.raises(ValueError, match="divide"):
        # l = 3 does not divide q - 1 = 2
        MVSpec(field=ctx729, m=2, l=3, big_l=2, k=1,
               alphas=(ctx729.one, ctx729.gamma, ctx729.gamma_pow(2)))
    ctx = gf8()
    with pytest.raises(ValueError):
        MVSpec(field=ctx, m=2, l=1, big_l=2, k=1, alphas=(ctx.gamma,))  # m*l != degree
    with pytest.raises(ValueError):
        MVSpec(field=ctx, m=3, l=1, big_l=2, k=1, alphas=(ctx.gamma,), layout_name="weird")


def test_mv_compressed_layout_mv2():
    ctx = FieldContext(3, 6)
    spec = MVSpec(field=ctx, m=3, l=2, big_l=5, k=1,
                  alphas=(ctx.gamma_pow(504), ctx.gamma_pow(294)), layout_name="compressed")
    cw = encode(spec, (1,))
    assert len(cw.rows[0]) == 6 + 5 * 3
    # ratio row tail blocks are the GF(27) coordinates of 1: (1, 0, 0)
    assert cw.rows[1][6:9] == (1, 0, 0)


def test_mv_compressed_rejects_non_subfield_first_row():
    # q=5, m=2, l=2: alpha_0 = (1,1,1,1) is not fixed by x -> x^25,
    # so the first row cannot be emitted in compressed width
    ctx = FieldContext(5, 4, oracles.MOD_GF625)
    a0 = ctx.element((1, 1, 1, 1))
    a1 = ctx.element((0, 1, 2, 3))
    assert a0.coeffs not in oracles.subfield_fixed_set(oracles.MOD_GF625, 5, 25)
    spec = MVSpec(field=ctx, m=2, l=2, big_l=2, k=1, alphas=(a0, a1),
                  layout_name="compressed")
    with pytest.raises(ValueError, match="not in the subfield"):
        encode(spec, (1,))


# ---------------------------------------------------------------- packing

def test_pack_vector_examples():
    ctx = gf8()
    kk_layout = PacketLayout.kk(3)
    assert oracles.pack_vector((ctx.zero, ctx.zero), kk_layout, ctx) == (0,) * 6
    assert oracles.pack_vector((ctx.gamma_pow(5), ctx.zero), kk_layout, ctx) == (1, 1, 1, 0, 0, 0)
    mv_layout = PacketLayout.mv(2, 3, 1, 2, compressed=False)
    packed = oracles.pack_vector((ctx.gamma_pow(5),) * 3, mv_layout, ctx)
    assert len(packed) == 9 and sum(packed) == 9


def test_pack_vector_errors():
    ctx = gf8()
    layout = PacketLayout.kk(3)
    with pytest.raises(ValueError, match="entries"):
        oracles.pack_vector((ctx.one,), layout, ctx)
    bad = PacketLayout("bad", (BlockSpec(2),))
    with pytest.raises(ValueError, match="width"):
        oracles.pack_vector((ctx.one,), bad, ctx)


# ---------------------------------------------------------------- codebooks

def test_codebook_sizes_and_order():
    assert len(build_codebook(mv1_spec())) == 2
    cb = build_codebook(kk_spec())
    assert len(cb) == 8
    assert [cw.message for cw in cb] == list(oracles.iter_message_digits(
        2, kk_spec().message_length))
    # lowest coefficient varies fastest
    assert cb[1].message == (1, 0, 0)
    assert cb[2].message == (0, 1, 0)


def test_codebook_budget():
    with pytest.raises(BudgetError):
        build_codebook(kk_spec(), budget=4)


def test_degenerate_message_space_rejected():
    ctx = gf8()
    with pytest.raises(ValueError):
        KKSpec(field=ctx, l=2, k=0, alphas=(ctx.gamma_pow(3), ctx.gamma_pow(4)))
    with pytest.raises(ValueError):
        MVSpec(field=ctx, m=3, l=1, big_l=2, k=0, alphas=(ctx.gamma_pow(5),))
    with pytest.raises(ValueError):
        GabidulinSpec(field=ctx, n=2, k=0, generators=(ctx.gamma_pow(3), ctx.gamma_pow(4)))


def test_encode_message_digits_roundtrip():
    for spec in (gab_spec(), kk_spec(), mv1_spec()):
        length = spec.message_length
        digits = tuple([1] + [0] * (length - 1))
        cw = encode(spec, digits)
        assert cw.message == digits
        assert encode(spec, np.array(digits)).message == digits
        # encode(spec, (1.5, 0, ...)) once encoded message (1, 0, ...)
        for bad in ((1.5,) + digits[1:], (0.5,) + digits[1:]):
            with pytest.raises(ValueError, match="must be integers"):
                encode(spec, bad)


def test_mv_subfield_membership_row_invariant():
    # every ratio entry of every message passes the subfield test
    ctx = FieldContext(3, 6)
    spec = MVSpec(field=ctx, m=3, l=2, big_l=5, k=1,
                  alphas=(ctx.gamma_pow(504), ctx.gamma_pow(294)))
    fixed = oracles.subfield_fixed_set(oracles.MOD_GF729, 3, 27)
    for digits in oracles.iter_message_digits(3, spec.message_length):
        poly = LinearizedPoly(tuple(ctx.element([d] + [0] * 5) for d in digits), 3)
        value = spec.alphas[1]
        for _ in range(spec.big_l):
            value = poly.evaluate(value)
            assert (value / spec.alphas[1]).coeffs in fixed
