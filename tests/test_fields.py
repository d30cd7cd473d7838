import itertools
import math
import random
import re

import pytest

from twotier.fields import FieldContext, format_element, parse_element

import oracles


def gf8():
    return FieldContext(2, 3)


def gf729():
    return FieldContext(3, 6)


# ---------------------------------------------------------------- construction

def test_builtin_moduli():
    assert gf8().modulus == (1, 1, 0, 1)
    assert gf729().modulus == (2, 1, 0, 0, 0, 0, 1)


def test_reducible_modulus_rejected():
    # x^3 + 1 = (x + 1)(x^2 + x + 1) over GF(2)
    with pytest.raises(ValueError, match="reducible"):
        FieldContext(2, 3, (1, 0, 0, 1))


def test_irreducible_but_not_primitive_rejected():
    # x^4 + x^3 + x^2 + x + 1 is irreducible over GF(2) but x has order 5
    with pytest.raises(ValueError, match="not primitive"):
        FieldContext(2, 4, (1, 1, 1, 1, 1))


def test_every_small_modulus_matches_the_oracle():
    # every monic modulus of a small field: accepted exactly when primitive,
    # and rejected for the reason the brute-force oracle finds
    for p, top in ((2, 5), (3, 3), (5, 2), (7, 2)):
        for n in range(1, top + 1):
            for tail in itertools.product(range(p), repeat=n):
                modulus = tail + (1,)
                verdict = oracles.modulus_verdict(modulus, p)
                if verdict is None:
                    assert FieldContext(p, n, modulus).modulus == modulus
                else:
                    with pytest.raises(ValueError, match=f"modulus .* is {verdict}"):
                        FieldContext(p, n, modulus)
        # the modulus x makes x itself zero
        assert oracles.modulus_verdict((0, 1), p) == "not primitive"


def test_non_desk_scale_rejected():
    with pytest.raises(ValueError):
        FieldContext(11, 2, (1, 0, 1))
    with pytest.raises(ValueError):
        FieldContext(7, 11)  # 7^11 > 2^30
    with pytest.raises(ValueError):
        FieldContext(4, 2, (1, 0, 1))  # not prime


@pytest.mark.parametrize("modulus", [(1, 1.5, 0, 1), ("1", "1", "0", "1"), (1, None, 0, 1),
                                     (True, True, False, True)])
def test_modulus_coefficients_must_be_integers(modulus):
    """``[1, 1.5, 0, 1]``, ``["1", "1", "0", "1"]`` and ``[true, true,
    false, true]`` were cast and built x^3+x+1."""
    with pytest.raises(ValueError, match="modulus coefficients must be integers"):
        FieldContext(2, 3, modulus)


def test_missing_builtin_modulus():
    with pytest.raises(ValueError, match="no built-in modulus"):
        FieldContext(5, 4)


def test_prime_field_gf2():
    ctx = FieldContext(2, 1, (1, 1))
    assert ctx.gamma == ctx.one
    assert (ctx.one + ctx.one) == ctx.zero


# ---------------------------------------------------------------- arithmetic

def test_add_identity_and_characteristic():
    ctx = gf8()
    g = ctx.gamma
    assert g + ctx.zero == g
    assert g + g == ctx.zero
    big = gf729()
    a = big.element((1, 1, 0, 0, 0, 0))
    b = big.element((2, 2, 0, 0, 0, 0))
    assert a + b == big.zero


def test_mul_examples():
    ctx = gf8()
    a = ctx.gamma_pow(3)
    assert a * ctx.one == a
    assert ctx.gamma_pow(3) * ctx.gamma_pow(4) == ctx.one          # gamma has order 7
    assert ctx.gamma * ctx.gamma_pow(2) == ctx.element((1, 1, 0))  # x^3 = x + 1


def test_mul_matches_polynomial_oracle():
    ctx = gf729()
    rng = random.Random(11)
    for _ in range(200):
        a = ctx.from_int(rng.randrange(729))
        b = ctx.from_int(rng.randrange(729))
        expect = oracles.poly_mul_mod(a.coeffs, b.coeffs, oracles.MOD_GF729, 3)
        assert (a * b).coeffs == expect


def test_inverse():
    ctx = gf8()
    assert ctx.one.inverse() == ctx.one
    assert ctx.gamma_pow(3).inverse() == ctx.gamma_pow(4)
    with pytest.raises(ZeroDivisionError):
        ctx.zero.inverse()
    big = gf729()
    for k in (1, 17, 100, 511, 727):
        assert big.gamma_pow(k).inverse() == big.gamma_pow(728 - k)


def test_frobenius():
    ctx = gf8()
    g = ctx.gamma
    assert g.frobenius(0, 2) == g
    assert g.frobenius(1, 2) == g * g
    assert ctx.gamma_pow(3).frobenius(1, 2) == ctx.gamma_pow(6)
    with pytest.raises(ValueError):
        g.frobenius(1, 4)  # GF(4) is not a subfield of GF(8)


def test_frobenius_additive_and_fixes_subfield():
    ctx = gf729()
    rng = random.Random(5)
    for _ in range(100):
        a = ctx.from_int(rng.randrange(729))
        b = ctx.from_int(rng.randrange(729))
        assert (a + b).frobenius(1, 3) == a.frobenius(1, 3) + b.frobenius(1, 3)
    for c in range(3):
        e = ctx.element([c, 0, 0, 0, 0, 0])
        assert e.frobenius(1, 3) == e


def test_frobenius_full_order():
    ctx = gf729()
    rng = random.Random(6)
    for _ in range(50):
        a = ctx.from_int(rng.randrange(729))
        assert a.frobenius(6, 3) == a


MOD_GF64 = (1, 1, 0, 0, 0, 0, 1)   # x^6 + x + 1 over GF(2)


@pytest.mark.parametrize("modulus, p, order", [
    (oracles.MOD_GF729, 3, 27),
    (oracles.MOD_GF729, 3, 3),
    (oracles.MOD_GF729, 3, 9),
    (oracles.MOD_GF625, 5, 5),
    (oracles.MOD_GF625, 5, 25),
    (MOD_GF64, 2, 2),
    (MOD_GF64, 2, 4),
    (MOD_GF64, 2, 8),
], ids=["gf729-27", "gf729-3", "gf729-9", "gf625-5", "gf625-25", "gf64-2", "gf64-4", "gf64-8"])
def test_subfield_membership_against_enumeration(modulus, p, order):
    ctx = FieldContext(p, len(modulus) - 1, modulus)
    fixed = oracles.subfield_fixed_set(modulus, p, order)
    assert len(fixed) == order
    members = oracles.span(ctx.subfield_basis(order), p)
    assert members == fixed
    # concrete members and non-members: gamma^k lies in GF(order) exactly
    # when k is a multiple of (p^n - 1) / (order - 1)
    step = (ctx.size - 1) // (order - 1)
    for k in (step, 18 * step, 8, 294):
        assert (ctx.gamma_pow(k).coeffs in members) == (k % step == 0)


def test_subfield_trivial_members():
    ctx = gf8()
    members = oracles.span(ctx.subfield_basis(2), 2)
    assert members == oracles.subfield_fixed_set(oracles.MOD_GF8, 2, 2)
    assert ctx.zero.coeffs in members
    assert ctx.one.coeffs in members
    assert ctx.gamma.coeffs not in members
    with pytest.raises(ValueError):
        ctx.subfield_basis(4)


def test_to_vector():
    ctx = gf8()
    assert ctx.zero.to_vector() == (0, 0, 0)
    assert ctx.gamma_pow(5).to_vector() == (1, 1, 1)
    assert ctx.gamma_pow(3).to_vector() == (1, 1, 0)


def test_to_vector_bijection_and_linearity():
    ctx = gf8()
    seen = {ctx.from_int(c).to_vector() for c in range(8)}
    assert len(seen) == 8
    rng = random.Random(3)
    for _ in range(100):
        a = ctx.from_int(rng.randrange(8))
        b = ctx.from_int(rng.randrange(8))
        s = tuple((x + y) % 2 for x, y in zip(a.to_vector(), b.to_vector()))
        assert (a + b).to_vector() == s


def test_element_order():
    ctx = gf8()
    assert oracles.naive_order(ctx.one.coeffs, oracles.MOD_GF8, 2) == 1
    assert oracles.naive_order(ctx.gamma.coeffs, oracles.MOD_GF8, 2) == 7
    assert oracles.naive_order((0, 1, 0), oracles.MOD_GF8, 2) == 7
    big = gf729()
    assert oracles.naive_order(big.gamma.coeffs, oracles.MOD_GF729, 3) == 728
    # gamma^k has order 728 / gcd(728, k) when gamma is primitive
    for k in (2, 4, 7, 13):
        a = big.gamma_pow(k)
        assert oracles.naive_order(a.coeffs, oracles.MOD_GF729, 3) == 728 // math.gcd(728, k)


def test_field_axioms_random_triples():
    for ctx in (gf8(), gf729()):
        rng = random.Random(42)
        size = ctx.size
        for _ in range(10_000):
            a = ctx.from_int(rng.randrange(size))
            b = ctx.from_int(rng.randrange(size))
            c = ctx.from_int(rng.randrange(size))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            if a:
                assert a * a.inverse() == ctx.one


def test_context_mixing_rejected():
    a = gf8().gamma
    b = gf729().gamma
    with pytest.raises(ValueError, match="context"):
        a + b  # noqa: B018


@pytest.mark.parametrize("call, error, message", [
    (lambda ctx: ctx.from_vector((1, 0)), ValueError, "expected 3 coordinates, got 2"),
    (lambda ctx: ctx.from_int(8), ValueError, "code 8 out of range for field of size 8"),
    (lambda ctx: ctx.from_int(-1), ValueError, "code -1 out of range for field of size 8"),
    (lambda ctx: ctx.validate_subfield(1), ValueError, "1 is not a power of 2"),
    (lambda ctx: ctx.validate_subfield(6), ValueError, "6 is not a power of 2"),
    (lambda ctx: ctx.gamma + 1, TypeError, "expected FieldElement, got int"),
    (lambda ctx: ctx.zero ** -1, ZeroDivisionError, "inverse of zero field element"),
    (lambda ctx: ctx.gamma.frobenius(-1, 2), ValueError, "frobenius exponent must be nonnegative"),
], ids=["coordinates", "code-past-end", "code-negative", "subfield-below-p", "subfield-not-power",
        "not-an-element", "zero-inverse-power", "frobenius-negative"])
def test_element_refusals_name_their_cause(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(gf8())


def test_pow_handles_large_and_negative_exponents():
    ctx = gf8()
    g = ctx.gamma
    assert g ** 700 == ctx.gamma_pow(700 % 7)
    assert g ** -1 == g.inverse()
    assert ctx.zero ** 0 == ctx.one
    assert ctx.zero ** 5 == ctx.zero


# ---------------------------------------------------------------- serialization

def test_format_and_parse_roundtrip():
    ctx = gf729()
    for code in (0, 1, 5, 100, 728):
        a = ctx.from_int(code)
        assert parse_element(ctx, format_element(a)) == a


def test_change_of_basis_representation():
    # gamma^5 and its squares form a normal basis of GF(8)
    poly = gf8()
    b = [poly.gamma_pow(5).coeffs, poly.gamma_pow(3).coeffs, poly.gamma_pow(6).coeffs]
    ctx = FieldContext(2, 3, basis=b)
    g5 = ctx.gamma_pow(5)
    assert g5.coeffs == (1, 1, 1)        # arithmetic stays in polynomial coordinates
    assert g5.to_vector() == (1, 0, 0)   # representation uses the custom basis
    for code in range(8):
        a = ctx.from_int(code)
        assert ctx.from_vector(a.to_vector()) == a
    # representation is still GF(p)-linear
    rng = random.Random(1)
    for _ in range(50):
        a = ctx.from_int(rng.randrange(8))
        c = ctx.from_int(rng.randrange(8))
        s = tuple((x + y) % 2 for x, y in zip(a.to_vector(), c.to_vector()))
        assert (a + c).to_vector() == s


@pytest.mark.parametrize("basis", [None, [(1, 1, 0), (0, 1, 1), (0, 0, 1)]])
@pytest.mark.parametrize("coords", [[1, 0.5, True], ["1", "0", "1"], [1, 0, 2], [1, 0, -1]])
def test_from_vector_reads_integer_coordinates_in_range_only(coords, basis):
    """The first two were read with int() as (1, 0, 1); with a basis, the
    last two were reduced mod 2."""
    ctx = FieldContext(2, 3, basis=basis)
    with pytest.raises(ValueError, match="coordinates must be integers|must lie in"):
        ctx.from_vector(coords)


def test_singular_basis_rejected():
    with pytest.raises(ValueError, match="singular"):
        FieldContext(2, 3, basis=[(1, 1, 0), (0, 1, 1), (1, 0, 1)])


@pytest.mark.parametrize("p, n, modulus", [(2, 3, None), (3, 2, oracles.MOD_GF9)])
def test_every_basis_matrix_is_refused_or_inverted(p, n, modulus):
    """Over every n x n matrix B, the field takes B as a basis exactly when
    B has full rank, and then maps a vector to its coordinates and back."""
    for entries in itertools.product(range(p), repeat=n * n):
        basis = [entries[i * n:(i + 1) * n] for i in range(n)]
        if oracles.naive_rank(basis, p) < n:
            with pytest.raises(ValueError, match="singular"):
                FieldContext(p, n, modulus, basis)
            continue
        ctx = FieldContext(p, n, modulus, basis)
        for coords in itertools.product(range(p), repeat=n):
            assert ctx.from_vector(coords).to_vector() == coords


@pytest.mark.parametrize("basis", [[(1, 0, 0), (0, 1.0, 0), (0, 0, 1)],
                                   [(1, 0, 0), ("0", "1", "0"), (0, 0, 1)],
                                   [1, 0, 0]])
def test_basis_entries_must_be_integers(basis):
    with pytest.raises(ValueError, match="basis entries must be integers"):
        FieldContext(2, 3, basis=basis)


def test_parse_gamma_powers():
    ctx = gf8()
    assert parse_element(ctx, "g") == ctx.gamma
    assert parse_element(ctx, "g^5") == ctx.element((1, 1, 1))
    assert parse_element(ctx, "110") == ctx.gamma_pow(3)
    assert parse_element(ctx, [0, 1, 1]) == ctx.gamma_pow(4)
    with pytest.raises(ValueError):
        parse_element(ctx, "21")  # wrong length
    with pytest.raises(ValueError):
        parse_element(ctx, "201")  # digit out of range


@pytest.mark.parametrize("entry", ["١١٠", "１１０", [1, 0.5, 0], [True, 0, 1], ["1", 1, 0], 110,
                                   "g^٣", "g^1_0", "g^ 3", "g^+3",
                                   " 1 1", "g^3.0", "g^", "g^-", "g3"])
def test_parse_element_reads_ascii_digits_and_integer_coefficients_only(entry):
    """Each but the last five was read as an element: "١١٠" (Arabic-Indic
    digits) and "１１０" (fullwidth) as 110, [1, 0.5, 0] as 100, [True, 0,
    1] as 101, ["1", 1, 0] as 110, the number 110 as "110", and "g^٣", "g^1_0"
    (int() skips underscores, so gamma^10), "g^ 3" and "g^+3" as gamma^3."""
    with pytest.raises(ValueError, match="cannot parse field element|must be integers"):
        parse_element(gf8(), entry)


def test_parse_element_keeps_negative_powers_and_padding():
    ctx = gf8()
    assert parse_element(ctx, "g^-1") == ctx.gamma.inverse() == parse_element(ctx, "g^6")
    assert parse_element(ctx, "g^10") == ctx.gamma_pow(3)
    assert parse_element(ctx, " 110 ") == parse_element(ctx, (1, 1, 0)) == ctx.gamma_pow(3)
