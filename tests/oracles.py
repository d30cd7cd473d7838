"""Independent brute-force reference implementations for the tests.

Nothing here imports the package under test: polynomial arithmetic is done
directly on coefficient lists, ranks by plain-python elimination, distances
by literal pairwise scans. Expected values in the tests are computed (or
were frozen) from these.
"""

import itertools


def poly_mul_mod(a, b, modulus, p):
    """Product of coefficient tuples (low-to-high) reduced mod a monic modulus."""
    n = len(modulus) - 1
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for i in range(2 * n - 2, n - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(n):
                prod[i - n + j] = (prod[i - n + j] - c * modulus[j]) % p
    return tuple(prod[:n])


def gf_pow(a, e, modulus, p):
    n = len(modulus) - 1
    result = tuple([1] + [0] * (n - 1))
    base = tuple(a)
    while e:
        if e & 1:
            result = poly_mul_mod(result, base, modulus, p)
        base = poly_mul_mod(base, base, modulus, p)
        e >>= 1
    return result


def naive_order(a, modulus, p):
    """Multiplicative order by successive powers."""
    n = len(modulus) - 1
    one = tuple([1] + [0] * (n - 1))
    acc = tuple(a)
    k = 1
    while acc != one:
        acc = poly_mul_mod(acc, a, modulus, p)
        k += 1
    return k


def all_vectors(p, n):
    return [tuple(t) for t in itertools.product(range(p), repeat=n)]


def subfield_fixed_set(modulus, p, order):
    """All x with x^order == x, by enumeration."""
    n = len(modulus) - 1
    return {v for v in all_vectors(p, n) if gf_pow(v, order, modulus, p) == v}


def vadd(u, v, p):
    return tuple((a + b) % p for a, b in zip(u, v))


def scalar_mul(c, v, p):
    return tuple((c * x) % p for x in v)


def weight(v):
    return sum(1 for x in v if x)


def span(rows, p):
    """All GF(p)-combinations of the rows."""
    out = set()
    for coeffs in itertools.product(range(p), repeat=len(rows)):
        acc = (0,) * len(rows[0])
        for c, row in zip(coeffs, rows):
            acc = vadd(acc, scalar_mul(c, row, p), p)
        out.add(acc)
    return out


def naive_rank(rows, p):
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    n_cols = len(rows[0])
    r = 0
    for c in range(n_cols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c] % p:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def naive_min_pairwise(vectors, p):
    vectors = sorted(set(vectors))
    best = None
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            d = sum(1 for a, b in zip(vectors[i], vectors[j]) if a != b)
            if best is None or d < best:
                best = d
    return best


def lin_eval(coeffs, x, modulus, p, q):
    """sum over i of coeffs[i] * x^(q^i), all as coefficient tuples."""
    n = len(modulus) - 1
    acc = (0,) * n
    for i, u in enumerate(coeffs):
        term = poly_mul_mod(u, gf_pow(x, q ** i, modulus, p), modulus, p)
        acc = vadd(acc, term, p)
    return acc


# moduli used throughout
MOD_GF8 = (1, 1, 0, 1)          # x^3 + x + 1 over GF(2)
MOD_GF9 = (2, 1, 1)             # x^2 + x + 2 over GF(3)
MOD_GF729 = (2, 1, 0, 0, 0, 0, 1)   # x^6 + x + 2 over GF(3)
MOD_GF625 = (2, 0, 2, 1, 1)     # x^4 + x^3 + 2x^2 + 2 over GF(5), primitive


def naive_rref(rows, p):
    """Nonzero rows of the reduced row echelon form, as a tuple of tuples."""
    rows = [[x % p for x in r] for r in rows]
    out = []
    n_cols = len(rows[0]) if rows else 0
    for c in range(n_cols):
        piv = next((i for i, r in enumerate(rows) if r[c]), None)
        if piv is None:
            continue
        row = rows.pop(piv)
        inv = pow(row[c], -1, p)
        row = [(x * inv) % p for x in row]
        rows = [[(x - r[c] * y) % p for x, y in zip(r, row)] for r in rows]
        out = [[(x - o[c] * y) % p for x, y in zip(o, row)] for o in out]
        out.append(row)
    return tuple(tuple(r) for r in out)
