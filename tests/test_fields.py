import itertools
import math
import random

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


def test_subfield_membership_against_enumeration():
    ctx = gf729()
    fixed = oracles.subfield_fixed_set(oracles.MOD_GF729, 3, 27)
    assert len(fixed) == 27
    members = oracles.span(ctx.subfield_basis(27), 3)
    assert members == fixed
    # concrete members and non-members
    assert ctx.gamma_pow(28).coeffs in members
    assert ctx.gamma_pow(504).coeffs in members
    assert ctx.gamma_pow(8).coeffs not in members
    assert ctx.gamma_pow(294).coeffs not in members


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


def test_singular_basis_rejected():
    with pytest.raises(ValueError, match="singular"):
        FieldContext(2, 3, basis=[(1, 1, 0), (0, 1, 1), (1, 0, 1)])


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
