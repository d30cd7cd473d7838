"""Exact arithmetic in GF(p) and extension fields GF(p^n) in polynomial basis.

An element is a length-n coefficient vector over GF(p), low-order
coefficient first, reduced modulo a monic irreducible polynomial.
Constructing a :class:`FieldContext` validates that the modulus is
irreducible (trial division, feasible at desk scale) and primitive: the
residue class of x must generate the whole multiplicative group. Every
context therefore carries a primitive element ``gamma``. Element arithmetic
works on the coefficients alone, with one path for every field size:
schoolbook multiplication reduced modulo the modulus, and square-and-multiply
for powers and inverses.

Batched work (encoding a whole message space) needs no elements at all:
multiplication by a fixed element and the Frobenius map are GF(p)-linear,
so :meth:`FieldContext.mul_matrix` and :meth:`FieldContext.frobenius_matrix`
turn them into matrices that act on whole arrays of coefficient vectors.

Elements serialize as base-p digit strings, low-order digit first
(``"110"`` is 1 + x in GF(2^3)); configuration may also give elements as
powers of gamma (``"g^3"``).
"""

import functools
import itertools
import operator
import re

import numpy as np

from . import linalg

# Desk scale: digit-string serialization and trial-division validation
# both assume a single-digit prime base.
DESK_PRIMES = (2, 3, 5, 7)
MAX_FIELD_SIZE = 2 ** 30

# Moduli named in the shipped example configurations: x^3+x+1 over GF(2)
# and x^6+x+2 over GF(3). Anything else must be supplied explicitly.
BUILTIN_MODULI = {
    (2, 3): (1, 1, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
}


def integers(values, what: str) -> tuple:
    """`values` as a tuple of ints; ValueError naming `what` on one that is
    not an integer, a bool included (a Python int, but not a JSON integer)."""
    try:
        items = tuple(values)       # read once, should `values` be an iterator
        if any(isinstance(v, bool) for v in items):
            raise TypeError
        return tuple(map(operator.index, items))
    except TypeError:
        raise ValueError(f"{what} must be integers, got {values!r}") from None


def _factorize(m: int):
    factors = set()
    d = 2
    while d * d <= m:
        while m % d == 0:
            factors.add(d)
            m //= d
        d += 1
    if m > 1:
        factors.add(m)
    return sorted(factors)


class FieldContext:
    """GF(p^n) with a fixed monic primitive modulus.

    Arithmetic always runs on polynomial-basis coefficients. An optional
    change-of-basis matrix (rows = basis elements in polynomial
    coordinates) switches the representation that ``to_vector`` emits,
    which is what packet layouts and Hamming weights see.
    """

    def __init__(self, p: int, n: int, modulus=None, basis=None):
        if p not in DESK_PRIMES:
            raise ValueError(f"base characteristic must be a prime in {DESK_PRIMES}, got {p}")
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"extension degree must be a positive integer, got {n}")
        if p ** n > MAX_FIELD_SIZE:
            raise ValueError(f"field size {p}^{n} exceeds the desk-scale limit 2^30")
        if modulus is None:
            modulus = BUILTIN_MODULI.get((p, n))
            if modulus is None:
                raise ValueError(f"no built-in modulus for GF({p}^{n}); supply one")
        modulus = integers(modulus, "modulus coefficients")
        if len(modulus) != n + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree n, coefficients low-to-high")
        if any(not 0 <= c < p for c in modulus):
            raise ValueError("modulus coefficients must lie in [0, p)")

        self.p = p
        self.n = n
        self.size = p ** n
        self.modulus = modulus

        if n > 1 and not self._is_irreducible():
            raise ValueError(f"modulus {modulus} is reducible over GF({p})")

        self.zero = FieldElement(self, (0,) * n)
        self.one = FieldElement(self, tuple([1] + [0] * (n - 1)))
        if n == 1:
            gamma = (-modulus[0]) % p
            self.gamma = FieldElement(self, (gamma,))
        else:
            self.gamma = FieldElement(self, tuple([0, 1] + [0] * (n - 2)))

        self._subfield_bases = {}
        self.basis = None
        self._to_basis = None
        self._from_basis = None
        self._check_primitive()
        if basis is not None:
            self._install_basis(basis)

    def _install_basis(self, basis):
        rows = tuple(integers(row, "basis entries") for row in basis)
        if len(rows) != self.n or any(len(r) != self.n for r in rows):
            raise ValueError(f"basis must be a {self.n}x{self.n} matrix")
        if any(not 0 <= c < self.p for row in rows for c in row):
            raise ValueError(f"basis entries must lie in [0, {self.p})")
        # coords c with sum c_i b_i = a solve c @ B = a, so c = a @ B^-1;
        # reducing [B | I] gives [I | B^-1], its pivots the columns 0..n-1,
        # exactly when B is invertible
        mat = linalg.as_array(rows, self.p)
        red, pivots = linalg.rref(np.hstack([mat, np.eye(self.n, dtype=np.int64)]), self.p)
        if pivots != tuple(range(self.n)):
            raise ValueError("basis matrix is singular")
        self.basis = rows
        self._from_basis = mat
        self._to_basis = red[:, self.n:]

    @property
    def polynomial_basis(self) -> bool:
        return self.basis is None

    def from_vector(self, coords) -> "FieldElement":
        """Element whose representation coordinates are the given vector."""
        coords = integers(coords, "field element coordinates")
        if len(coords) != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {len(coords)}")
        if any(not 0 <= c < self.p for c in coords):
            raise ValueError(f"coordinates must lie in [0, {self.p})")
        if self.basis is None:
            return self.element(coords)
        poly = (np.array(coords, dtype=np.int64) @ self._from_basis) % self.p
        return FieldElement(self, tuple(int(x) for x in poly))

    # -- construction checks -------------------------------------------

    def _is_irreducible(self) -> bool:
        p, n = self.p, self.n
        for d in range(1, n // 2 + 1):
            for tail in itertools.product(range(p), repeat=d):
                divisor = tail + (1,)
                rem = list(self.modulus)
                for i in range(n, d - 1, -1):
                    c = rem[i]
                    if c:
                        for j in range(d + 1):
                            rem[i - d + j] = (rem[i - d + j] - c * divisor[j]) % p
                if not any(rem):
                    return False
        return True

    def _check_primitive(self):
        # gamma has order p^n - 1 iff gamma^(p^n - 1) = 1 (which fails only
        # for gamma = 0, a degree-1 modulus x) and no maximal proper divisor
        # of p^n - 1 already gives 1
        order = self.size - 1
        one, gamma = self.one.coeffs, self.gamma.coeffs
        if (self._pow_coeffs(gamma, order) != one or
                any(self._pow_coeffs(gamma, order // f) == one for f in _factorize(order))):
            raise ValueError(f"modulus {self.modulus} is not primitive")

    # -- coefficient arithmetic ----------------------------------------

    def _mul_coeffs(self, a, b):
        p, n = self.p, self.n
        prod = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        mod = self.modulus
        for i in range(2 * n - 2, n - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(n):
                    prod[i - n + j] = (prod[i - n + j] - c * mod[j]) % p
        return tuple(prod[:n])

    def _pow_coeffs(self, a, e):
        result = self.one.coeffs
        base = a
        while e:
            if e & 1:
                result = self._mul_coeffs(result, base)
            base = self._mul_coeffs(base, base)
            e >>= 1
        return result

    # -- element constructors ------------------------------------------

    def element(self, coeffs) -> "FieldElement":
        coeffs = integers(coeffs, "field element coefficients")
        if len(coeffs) != self.n:
            raise ValueError(f"expected {self.n} coefficients, got {len(coeffs)}")
        if any(not 0 <= c < self.p for c in coeffs):
            raise ValueError(f"coefficients must lie in [0, {self.p})")
        return FieldElement(self, coeffs)

    def from_int(self, code: int) -> "FieldElement":
        """Element whose base-p digits (low first) are the digits of code."""
        if not 0 <= code < self.size:
            raise ValueError(f"code {code} out of range for field of size {self.size}")
        coeffs = []
        for _ in range(self.n):
            coeffs.append(code % self.p)
            code //= self.p
        return FieldElement(self, tuple(coeffs))

    def gamma_pow(self, k: int) -> "FieldElement":
        return FieldElement(self, self._pow_coeffs(self.gamma.coeffs, k % (self.size - 1)))

    # -- GF(p)-linear maps ----------------------------------------------
    #
    # Multiplication by a fixed element and the Frobenius map x -> x^p are
    # GF(p)-linear on coefficient vectors. Batched work (encoding a whole
    # message space) applies them to arrays of coefficient vectors as (n, n)
    # matrices M over GF(p), with coeffs(f(a)) = coeffs(a) @ M mod p. Each
    # matrix costs n coefficient products, whatever the field size.

    def mul_matrix(self, c: "FieldElement") -> np.ndarray:
        """Matrix of a -> a * c."""
        return self._matrix_of(lambda a: self._mul_coeffs(a, c.coeffs))

    def frobenius_matrix(self, i: int) -> np.ndarray:
        """Matrix of a -> a^(p^i)."""
        out = np.eye(self.n, dtype=np.int64)
        for _ in range(i):
            out = out @ self._frobenius % self.p
        return out

    @functools.cached_property
    def _frobenius(self) -> np.ndarray:
        return self._matrix_of(lambda a: self._pow_coeffs(a, self.p))

    def _matrix_of(self, fn) -> np.ndarray:
        unit = [tuple(int(i == j) for i in range(self.n)) for j in range(self.n)]
        return np.array([fn(e) for e in unit], dtype=np.int64)

    # -- subfields -------------------------------------------------------

    def validate_subfield(self, order: int) -> int:
        """Check GF(order) embeds as a subfield; returns its degree over GF(p)."""
        if order < self.p:
            raise ValueError(f"{order} is not a power of {self.p}")
        t = 0
        m = order
        while m % self.p == 0:
            m //= self.p
            t += 1
        if m != 1 or t == 0:
            raise ValueError(f"{order} is not a power of {self.p}")
        if self.n % t != 0:
            raise ValueError(f"GF({order}) is not a subfield of GF({self.p}^{self.n})")
        return t

    def subfield_basis(self, order: int):
        """Canonical GF(p)-basis of the fixed set of x -> x^order."""
        t = self.validate_subfield(order)
        cached = self._subfield_bases.get(order)
        if cached is not None:
            return cached
        # kernel of the GF(p)-linear map x -> x^order - x, whose matrix is
        # F - I for F that of x -> x^order: the x with (F - I)^T x = 0
        shifted = self.frobenius_matrix(t) - np.eye(self.n, dtype=np.int64)
        basis = linalg.basis_rows(linalg.kernel_basis(shifted.T, self.p), self.p)
        if len(basis) != t:
            raise AssertionError("subfield dimension mismatch")
        self._subfield_bases[order] = basis
        return basis

    # -- plumbing --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FieldContext):
            return NotImplemented
        return ((self.p, self.n, self.modulus, self.basis) ==
                (other.p, other.n, other.modulus, other.basis))

    def __hash__(self):
        return hash((self.p, self.n, self.modulus, self.basis))

    def __repr__(self):
        return f"FieldContext(GF({self.p}^{self.n}), modulus={list(self.modulus)})"


class FieldElement:
    """Immutable element of a FieldContext; supports +, -, *, /, **."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldContext, coeffs: tuple):
        self.ctx = ctx
        self.coeffs = coeffs

    def _check(self, other):
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        # identity first: FieldContext.__eq__ compares four fields
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ValueError("elements from distinct field contexts")

    def __add__(self, other):
        self._check(other)
        p = self.ctx.p
        return FieldElement(self.ctx, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        p = self.ctx.p
        return FieldElement(self.ctx, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        self._check(other)
        return FieldElement(self.ctx, self.ctx._mul_coeffs(self.coeffs, other.coeffs))

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __pow__(self, e: int):
        ctx = self.ctx
        if not any(self.coeffs):
            if e == 0:
                return ctx.one
            if e < 0:
                raise ZeroDivisionError("inverse of zero field element")
            return ctx.zero
        return FieldElement(ctx, ctx._pow_coeffs(self.coeffs, e % (ctx.size - 1)))

    def inverse(self) -> "FieldElement":
        if not any(self.coeffs):
            raise ZeroDivisionError("inverse of zero field element")
        return self ** (self.ctx.size - 2)

    def frobenius(self, i: int, q: int) -> "FieldElement":
        """Raise to q^i, the i-th Frobenius power over the subfield GF(q)."""
        if i < 0:
            raise ValueError("frobenius exponent must be nonnegative")
        self.ctx.validate_subfield(q)
        return self ** (q ** i)

    def to_vector(self) -> tuple:
        """Representation coordinate vector over GF(p), low order first.

        Polynomial-basis coefficients unless the context carries a
        change-of-basis matrix.
        """
        ctx = self.ctx
        if ctx.basis is None:
            return self.coeffs
        return tuple((np.array(self.coeffs, dtype=np.int64) @ ctx._to_basis % ctx.p).tolist())

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return (self.ctx is other.ctx or self.ctx == other.ctx) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.coeffs, self.ctx.p, self.ctx.n))

    def __repr__(self):
        return f"GF({self.ctx.p}^{self.ctx.n}):{format_element(self)}"


def format_element(a: FieldElement) -> str:
    """Base-p digit string, low-order digit first."""
    return "".join(str(c) for c in a.coeffs)


def parse_element(ctx: FieldContext, text) -> FieldElement:
    """Parse a string of n ASCII digits, low-order first, a gamma power
    like "g", "g^3" or "g^-1" with an ASCII decimal exponent, or a
    sequence of n integer coefficients."""
    if isinstance(text, (list, tuple)):
        return ctx.element(text)
    s = text.strip() if isinstance(text, str) else ""
    power = re.fullmatch(r"g(?:\^(-?[0-9]+))?", s)
    if power:
        return ctx.gamma if power[1] is None else ctx.gamma_pow(int(power[1]))
    if len(s) != ctx.n or not re.fullmatch(r"[0-9]*", s):
        raise ValueError(f"cannot parse field element {text!r} for GF({ctx.p}^{ctx.n})")
    return ctx.element([int(ch) for ch in s])
