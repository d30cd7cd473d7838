"""Encoders for Gabidulin, KK, and MV codes and their packet representations.

A codeword of a subspace code is carried on the wire as the set of GF(q)
combinations of its generator rows; this module produces those rows, packed
into base-field coordinate vectors according to an explicit block layout.
"""

import functools
import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import linalg
from .errors import BudgetError
from .fields import FieldContext, FieldElement
from .linpoly import LinearizedPoly
from .metrics import Subspace

DEFAULT_CODEBOOK_BUDGET = 1 << 20

GABIDULIN = "gabidulin"
SUBSPACE = "subspace"


# ---------------------------------------------------------------- layouts

@dataclass(frozen=True)
class BlockSpec:
    width: int
    subfield_order: int | None = None  # None: full-field polynomial coordinates


@dataclass(frozen=True)
class PacketLayout:
    name: str
    blocks: tuple

    @property
    def width(self) -> int:
        return sum(b.width for b in self.blocks)

    @classmethod
    def gabidulin(cls, m: int) -> "PacketLayout":
        return cls("gabidulin", (BlockSpec(m),))

    @classmethod
    def kk(cls, m: int) -> "PacketLayout":
        return cls("kk", (BlockSpec(m), BlockSpec(m)))

    @classmethod
    def mv(cls, q: int, m: int, l: int, big_l: int, compressed: bool) -> "PacketLayout":
        degree = m * l
        if compressed:
            tail = tuple(BlockSpec(m, q ** m) for _ in range(big_l))
            return cls("mv-compressed", (BlockSpec(degree),) + tail)
        return cls("mv-uncompressed", tuple(BlockSpec(degree) for _ in range(big_l + 1)))


def pack_vector(entries, layout: PacketLayout, ctx: FieldContext) -> tuple:
    """Concatenate per-entry coordinate vectors; block widths fixed by layout."""
    entries = list(entries)
    if len(entries) != len(layout.blocks):
        raise ValueError(f"layout {layout.name} expects {len(layout.blocks)} entries, got {len(entries)}")
    out = []
    for entry, block in zip(entries, layout.blocks):
        if entry.ctx != ctx:
            raise ValueError("entry from a different field context")
        if block.subfield_order is None:
            if block.width != ctx.n:
                raise ValueError("full block width does not match field degree")
            out.extend(entry.to_vector())
        else:
            out.extend(ctx.subfield_coords(entry, block.subfield_order))
    return tuple(out)


# ---------------------------------------------------------------- codewords

@dataclass(frozen=True)
class Codeword:
    kind: str
    message: tuple                 # base-field digit vector of the message
    rows: tuple                    # packed generator rows over GF(q)
    symbols: tuple | None = None   # Gabidulin symbol sequence over GF(q^m)
    subspace: Subspace | None = None


class Codebook(tuple):
    """The codewords of one code in message order, as an immutable sequence.

    Tier-2 decoding reads every codeword's rows at once from :attr:`stack`,
    which is built on first use and kept with the codebook.
    """

    @functools.cached_property
    def kind(self) -> str | None:
        """The kind every codeword shares; None for an empty or mixed codebook."""
        kinds = {cw.kind for cw in self}
        return kinds.pop() if len(kinds) == 1 else None

    @functools.cached_property
    def stack(self) -> np.ndarray:
        """(N, rows, width) int8 array of the codewords' packed rows.

        Subspace codewords must have independent rows, so that each one's
        dimension is the row count.
        """
        if any(cw.subspace is not None and cw.subspace.dim != len(cw.rows) for cw in self):
            raise ValueError("codeword rows are linearly dependent")
        return np.array([cw.rows for cw in self], dtype=np.int8)


def component_matrix(codeword: Codeword) -> tuple:
    """Base-field generator matrix of the codeword's component code."""
    return codeword.rows


# ---------------------------------------------------------------- specs

def _independent_over_base(elements, p: int) -> bool:
    return linalg.rank([e.to_vector() for e in elements], p) == len(elements)


@dataclass(frozen=True)
class GabidulinSpec:
    field: FieldContext
    n: int
    k: int
    generators: tuple

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        m = self.field.n
        if not 1 <= self.n <= m:
            raise ValueError(f"need 1 <= n <= m, got n={self.n}, m={m}")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}")
        if len(self.generators) != self.n:
            raise ValueError(f"need {self.n} generators, got {len(self.generators)}")
        if any(g.ctx != self.field for g in self.generators):
            raise ValueError("generator from a different field context")
        if not _independent_over_base(self.generators, self.q):
            raise ValueError("generators are linearly dependent over the base field")

    @property
    def q(self) -> int:
        return self.field.p

    @property
    def m(self) -> int:
        return self.field.n

    @property
    def kind(self) -> str:
        return GABIDULIN

    @property
    def layout(self) -> PacketLayout:
        return PacketLayout.gabidulin(self.m)

    def message_count(self) -> int:
        return self.q ** (self.m * self.k)

    def encode(self, u) -> Codeword:
        return gabidulin_encode(self, u)


@dataclass(frozen=True)
class KKSpec:
    field: FieldContext
    l: int
    k: int
    alphas: tuple

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(self.alphas))
        m = self.field.n
        if not 1 <= self.l <= m:
            raise ValueError(f"need 1 <= l <= m, got l={self.l}, m={m}")
        # k <= l is an implementation assumption: values on the alphas pin
        # down the codeword only when the polynomial degree stays below l.
        if not 1 <= self.k <= self.l:
            raise ValueError(f"need 1 <= k <= l, got k={self.k}")
        if len(self.alphas) != self.l:
            raise ValueError(f"need {self.l} alphas, got {len(self.alphas)}")
        if any(a.ctx != self.field for a in self.alphas):
            raise ValueError("alpha from a different field context")
        if not _independent_over_base(self.alphas, self.q):
            raise ValueError("alphas are linearly dependent over the base field")

    @property
    def q(self) -> int:
        return self.field.p

    @property
    def m(self) -> int:
        return self.field.n

    @property
    def kind(self) -> str:
        return SUBSPACE

    @property
    def layout(self) -> PacketLayout:
        return PacketLayout.kk(self.m)

    def message_count(self) -> int:
        return self.q ** (self.m * self.k)

    def encode(self, u) -> Codeword:
        return kk_encode(self, u)


@dataclass(frozen=True)
class MVSpec:
    field: FieldContext
    m: int
    l: int
    big_l: int
    k: int
    alphas: tuple
    layout_name: str = "uncompressed"
    validate_messages: bool = dc_field(default=True, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(self.alphas))
        q = self.q
        if self.m < 1 or self.l < 1 or self.m * self.l != self.field.n:
            raise ValueError(f"need m*l == field degree, got m={self.m}, l={self.l}, degree={self.field.n}")
        if (q - 1) % self.l != 0:
            raise ValueError(f"l={self.l} must divide q-1={q - 1}")
        if self.big_l < 1:
            raise ValueError("list size L must be at least 1")
        if self.k < 1:
            raise ValueError("message length k must be at least 1")
        if self.layout_name not in ("uncompressed", "compressed"):
            raise ValueError(f"unknown layout {self.layout_name!r}")
        if len(self.alphas) != self.l:
            raise ValueError(f"need {self.l} alphas, got {len(self.alphas)}")
        if any(a.ctx != self.field for a in self.alphas):
            raise ValueError("alpha from a different field context")
        if not _independent_over_base(self.alphas, q):
            raise ValueError("alphas are linearly dependent over the base field")
        if self.validate_messages:
            self._validate_subfield_membership()

    def _validate_subfield_membership(self):
        """Every ratio row entry must land in GF(q^m), for every message."""
        order = self.q ** self.m
        for digits in iter_message_digits(self):
            poly = self._poly(digits)
            for i in range(1, self.l):
                alpha = self.alphas[i]
                value = alpha
                for j in range(1, self.big_l + 1):
                    value = poly.evaluate(value)
                    if not (value / alpha).in_subfield(order):
                        raise ValueError(
                            f"alpha set malformed: u^({j})(alpha_{i})/alpha_{i} is outside "
                            f"GF({self.q}^{self.m}) for message {digits}")

    def _poly(self, digits) -> LinearizedPoly:
        coeffs = [self.field.element([d] + [0] * (self.field.n - 1)) for d in digits]
        return LinearizedPoly(tuple(coeffs), self.q)

    @property
    def q(self) -> int:
        return self.field.p

    @property
    def kind(self) -> str:
        return SUBSPACE

    @property
    def layout(self) -> PacketLayout:
        return PacketLayout.mv(self.q, self.m, self.l, self.big_l,
                               compressed=self.layout_name == "compressed")

    def message_count(self) -> int:
        return self.q ** self.k

    def encode(self, u) -> Codeword:
        return mv_encode(self, u)


# ---------------------------------------------------------------- encoders

def gabidulin_encode(spec: GabidulinSpec, u) -> Codeword:
    """Codeword symbols are the linearized polynomial evaluated at the generators."""
    u = tuple(u)
    if len(u) != spec.k:
        raise ValueError(f"message length must be {spec.k}, got {len(u)}")
    if any(not isinstance(c, FieldElement) or c.ctx != spec.field for c in u):
        raise ValueError("message symbols must live in the code's field")
    poly = LinearizedPoly(u, spec.q)
    symbols = tuple(poly.evaluate(g) for g in spec.generators)
    rows = tuple(s.to_vector() for s in symbols)
    digits = tuple(itertools.chain.from_iterable(c.coeffs for c in u))
    return Codeword(kind=GABIDULIN, message=digits, rows=rows, symbols=symbols)


def kk_encode(spec: KKSpec, u) -> Codeword:
    """Basis rows pair each alpha with the polynomial value at that alpha."""
    u = tuple(u)
    if len(u) != spec.k:
        raise ValueError(f"message length must be {spec.k}, got {len(u)}")
    if any(not isinstance(c, FieldElement) or c.ctx != spec.field for c in u):
        raise ValueError("message symbols must live in the code's field")
    poly = LinearizedPoly(u, spec.q)
    layout = spec.layout
    rows = tuple(pack_vector((a, poly.evaluate(a)), layout, spec.field) for a in spec.alphas)
    digits = tuple(itertools.chain.from_iterable(c.coeffs for c in u))
    return Codeword(kind=SUBSPACE, message=digits, rows=rows,
                    subspace=Subspace.from_rows(rows, spec.q, layout.width))


def mv_encode(spec: MVSpec, u) -> Codeword:
    """First row carries iterated values at alpha_0; later rows carry ratios."""
    digits = tuple(int(c) for c in u)
    if len(digits) != spec.k:
        raise ValueError(f"message length must be {spec.k}, got {len(digits)}")
    if any(not 0 <= d < spec.q for d in digits):
        raise ValueError(f"message digits must lie in [0, {spec.q})")
    poly = spec._poly(digits)
    layout = spec.layout
    rows = []
    for i, alpha in enumerate(spec.alphas):
        entries = [alpha]
        value = alpha
        for _ in range(spec.big_l):
            value = poly.evaluate(value)
            entries.append(value if i == 0 else value / alpha)
        rows.append(pack_vector(entries, layout, spec.field))
    rows = tuple(rows)
    return Codeword(kind=SUBSPACE, message=digits, rows=rows,
                    subspace=Subspace.from_rows(rows, spec.q, layout.width))


# ---------------------------------------------------------------- codebooks

def message_digit_length(spec) -> int:
    if isinstance(spec, MVSpec):
        return spec.k
    return spec.field.n * spec.k


def iter_message_digits(spec):
    """Messages in lexicographic order, lowest coefficient varying fastest."""
    length = message_digit_length(spec)
    q = spec.q
    for index in range(q ** length):
        digits = []
        rest = index
        for _ in range(length):
            digits.append(rest % q)
            rest //= q
        yield tuple(digits)


def encode_message_digits(spec, digits) -> Codeword:
    if isinstance(spec, MVSpec):
        return mv_encode(spec, digits)
    m = spec.field.n
    u = [spec.field.element(digits[j * m:(j + 1) * m]) for j in range(spec.k)]
    if isinstance(spec, GabidulinSpec):
        return gabidulin_encode(spec, u)
    return kk_encode(spec, u)


def build_codebook(spec, budget: int = DEFAULT_CODEBOOK_BUDGET) -> Codebook:
    """One codeword per message, in deterministic message order."""
    count = spec.message_count()
    if count > budget:
        raise BudgetError(f"message space of size {count} exceeds the budget {budget}")
    codebook = []
    seen_subspaces = {}
    for digits in iter_message_digits(spec):
        cw = encode_message_digits(spec, digits)
        if cw.kind == SUBSPACE:
            if cw.subspace.dim != len(cw.rows):
                raise ValueError(f"codeword for message {digits} has dependent basis rows")
            prev = seen_subspaces.get(cw.subspace.basis)
            if prev is not None:
                raise ValueError(f"messages {prev} and {digits} map to the same subspace")
            seen_subspaces[cw.subspace.basis] = digits
        codebook.append(cw)
    return Codebook(codebook)


def codebook_csv_rows(codebook):
    """(message digits, row index, packed row digits) triples for export."""
    for cw in codebook:
        msg = "".join(str(d) for d in cw.message)
        for i, row in enumerate(cw.rows):
            yield msg, i, "".join(str(d) for d in row)
