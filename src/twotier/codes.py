"""Encoders for Gabidulin, KK, and MV codes and their packet representations.

A codeword of a subspace code is carried on the wire as the set of GF(q)
combinations of its generator rows; this module produces those rows, packed
into base-field coordinate vectors according to an explicit block layout.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import BudgetError
from .fields import FieldContext, FieldElement, integers

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


# ---------------------------------------------------------------- codewords

class Memos(dict):
    """Tables of results that ``decoders`` keeps for the object owning
    them, one per decoder setting, each mapping an input's key to its
    result. ``held`` counts the entries they hold, which
    ``decoders.MEMO_ENTRIES`` bounds."""
    held = 0


@dataclass(frozen=True)
class Codeword:
    """One codeword: its message digits and its packed rows over GF(q)."""
    kind: str
    message: tuple                 # base-field digit vector of the message
    rows: tuple                    # packed generator rows over GF(q)


class Codebook:
    """The codewords of one code in message order, held as one array.

    :attr:`stack` is the read-only (N, rows, width) int8 array of every
    codeword's packed rows; over GF(2), :attr:`table` holds the same rows
    as one integer each, and the codebook keeps no other form of them.
    :attr:`spans` is its ``union.Spans`` record, None until
    ``union.spans_of`` forms it for the union or for subspace tier 2.
    Message i has the base-p digits of i, lowest first, so ``codebook[i]``
    builds its :class:`Codeword` on demand and :meth:`index` is arithmetic.
    Rank-metric tier 2 ranks every codeword's rows at once with
    :meth:`batched_rank`, and the union takes its component dimensions from
    :attr:`ranks`. A subspace codebook is checked on construction: every
    codeword's rows are independent and no two span the same subspace.
    :attr:`syndromes` maps a sorted tuple of positions to the rank
    decoder's syndrome table there (None where it scans), each formed by
    ``decoders`` on the first decode at those positions and freed with
    the codebook. :attr:`results` holds the simulator's subspace tier-2
    results on this codebook.
    """

    def __init__(self, spec, stack):
        self.kind = spec.kind
        self.p = spec.q
        self._length = spec.message_length
        self.stack = stack.view()
        self.stack.flags.writeable = False
        self.spans = None
        self.syndromes = {}
        if self.kind == SUBSPACE:
            _check_subspaces(self)

    def __len__(self) -> int:
        return len(self.stack)

    def __getitem__(self, index: int) -> Codeword:
        index = range(len(self))[index]     # IndexError past either end
        return Codeword(self.kind, self.message(index),
                        tuple(map(tuple, self.stack[index].tolist())))

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def message(self, index: int) -> tuple:
        """The digits of message `index`: its base-p digits, lowest first."""
        return tuple(index // self.p ** i % self.p for i in range(self._length))

    def index(self, message) -> int:
        """The index of the message's codeword: its digits read in base p, lowest first."""
        digits = integers(message, "message digits")
        if len(digits) == self._length and all(0 <= d < self.p for d in digits):
            index = sum(d * self.p ** i for i, d in enumerate(digits))
            if index < len(self):
                return index
        raise ValueError(f"message {digits} is not in the codebook")

    @functools.cached_property
    def results(self) -> Memos:
        """(metric, list radius) -> {input's key: its tier-2 result}, the key
        a ``linalg.packed_basis`` over GF(2), otherwise the kept rows'
        ``linalg.pack_digits`` keys; formed on first use and filled by
        ``decoders._decode_block`` under ``decoders.MEMO_ENTRIES``."""
        return Memos()

    @functools.cached_property
    def table(self) -> np.ndarray:
        """The read-only (rows, N) array of a GF(2) codebook's rows, packed
        by ``linalg.pack_digits``: column n holds the rows of codeword n, in
        the narrowest unsigned dtype that holds a row. It is built once, in
        set-up: by the subspace check of a subspace codebook, and otherwise
        by ``union.build_union``, so that no decode builds it."""
        # packed per block of codewords, which bounds pack_digits' padded copy
        table = np.concatenate([linalg.pack_digits(self.stack[start:start + SETUP_CHUNK], 2)
                                for start in range(0, len(self), SETUP_CHUNK)]).T.copy()
        table.flags.writeable = False
        return table

    @functools.cached_property
    def ranks(self) -> np.ndarray:
        """GF(p) rank of each codeword's rows."""
        if self.kind == SUBSPACE:
            # the constructor admits only independent subspace rows
            return np.full(len(self), self.stack.shape[1])
        return self.batched_rank()

    def batched_rank(self, positions=None, offset=None) -> np.ndarray:
        """``linalg.batched_rank`` of every codeword's rows, or of its rows at
        `positions` only. Over GF(2) it is ``linalg.packed_rank`` on
        :attr:`table`, and the offset rows are packed here."""
        if self.p == 2:
            packed = self.table if positions is None else self.table[positions]
            if offset is not None:
                offset = linalg.pack_digits(offset, 2)
            return linalg.packed_rank(packed, offset)
        stack = self.stack if positions is None else self.stack[:, positions, :]
        return linalg.batched_rank(stack, self.p, offset)


# ---------------------------------------------------------------- specs

def _checked_points(field: FieldContext, points, count: int, noun: str) -> tuple:
    """The generators or alphas of a spec as a tuple, checked: `count`
    elements of `field`, linearly independent over its base field."""
    points = tuple(points)
    if len(points) != count:
        raise ValueError(f"need {count} {noun}s, got {len(points)}")
    if any(x.ctx != field for x in points):
        raise ValueError(f"{noun} from a different field context")
    if linalg.rank([x.to_vector() for x in points], field.p) != count:
        raise ValueError(f"{noun}s are linearly dependent over the base field")
    return points


class _Spec:
    """What every code spec shares: its base field GF(q), and messages of
    ``message_length`` base-q digits, lowest first."""

    @property
    def q(self) -> int:
        return self.field.p

    def message_count(self) -> int:
        return self.q ** self.message_length

    def _stacks(self, count: int):
        """The (N, rows, width) packed stacks of messages 0 … count - 1, in
        blocks of ``SETUP_CHUNK`` messages: each block's digits through
        :meth:`_blocks` and ``_pack``."""
        for start in range(0, count, SETUP_CHUNK):
            digits = message_digits(self, np.arange(start, min(start + SETUP_CHUNK, count)))
            yield _pack(self._blocks(digits), self.layout, self.field)


class _EvaluationSpec(_Spec):
    """What Gabidulin and KK codes share. A message is the k coefficients in
    GF(q^m) of u(x) = sum_i u_i x^(q^i), and the code evaluates u at its
    points: a Gabidulin code at its generators, and a KK code lifts the
    Gabidulin code on its alphas."""

    @property
    def m(self) -> int:
        return self.field.n

    @property
    def message_length(self) -> int:
        return self.m * self.k

    def _checked(self, size: str, count: int, noun: str, points) -> tuple:
        """The points, checked, after 1 <= k <= count <= m, where `size`
        names count in the messages."""
        if not 1 <= count <= self.m:
            raise ValueError(f"need 1 <= {size} <= m, got {size}={count}, m={self.m}")
        if not 1 <= self.k <= count:
            raise ValueError(f"need 1 <= k <= {size}, got k={self.k}")
        return _checked_points(self.field, points, count, noun)

    @functools.cached_property
    def _values_map(self):
        """(k*m, points*m) matrix over GF(p) taking message digits to the
        coefficients of u at every point."""
        return np.vstack([np.hstack([self.field.mul_matrix(x ** self.q ** i) for x in self._points])
                          for i in range(self.k)])

    def _values(self, messages):
        """u at every point: (N, points, m) coefficients."""
        return (messages @ self._values_map % self.q).reshape(
            len(messages), len(self._points), self.m)

    def _blocks(self, messages):
        return self._lift(self._values(messages))

    def _stacks(self, count: int):
        """As for every spec, but by translating one block. u is GF(q)-linear
        in the message digits, and for a block of q^t messages the digits of
        message base + r, with base a multiple of q^t and r < q^t, are those
        of base beside those of r; so its values are those of base plus
        those of r. The first block's values are formed once, and every
        other block costs its base's values and one broadcast add in int8,
        an XOR over GF(2)."""
        block = 1
        while block * self.q <= min(SETUP_CHUNK, count):
            block *= self.q
        first = self._values(message_digits(self, np.arange(block))).astype(np.int8)
        for base in range(0, count, block):
            values = first
            if base:
                shift = self._values(message_digits(self, [base])).astype(np.int8)
                values = first ^ shift if self.q == 2 else (first + shift) % self.q
            yield _pack(self._lift(values), self.layout, self.field)


@dataclass(frozen=True)
class GabidulinSpec(_EvaluationSpec):
    field: FieldContext
    n: int
    k: int
    generators: tuple

    def __post_init__(self):
        object.__setattr__(self, "generators",
                           self._checked("n", self.n, "generator", self.generators))

    @property
    def kind(self) -> str:
        return GABIDULIN

    @property
    def layout(self) -> PacketLayout:
        return PacketLayout.gabidulin(self.m)

    @property
    def _points(self) -> tuple:
        return self.generators

    def _lift(self, values):
        """The symbols, one row each: [(N, n, m) coefficients]."""
        return [values]


@dataclass(frozen=True)
class KKSpec(_EvaluationSpec):
    field: FieldContext
    l: int
    k: int
    alphas: tuple

    def __post_init__(self):
        # k <= l is an implementation assumption: values on the alphas pin
        # down the codeword only when the polynomial degree stays below l.
        object.__setattr__(self, "alphas", self._checked("l", self.l, "alpha", self.alphas))

    @property
    def kind(self) -> str:
        return SUBSPACE

    @property
    def layout(self) -> PacketLayout:
        return PacketLayout.kk(self.m)

    @property
    def _points(self) -> tuple:
        return self.alphas

    def _lift(self, values):
        """Row j is (alpha_j, u(alpha_j)): two (N, l, m) coefficient arrays."""
        alphas = np.array([[a.coeffs for a in self.alphas]], dtype=values.dtype)
        return [np.repeat(alphas, len(values), axis=0), values]


@dataclass(frozen=True)
class MVSpec(_Spec):
    field: FieldContext
    m: int
    l: int
    big_l: int
    k: int
    alphas: tuple
    layout_name: str = "uncompressed"

    def __post_init__(self):
        if self.m < 1 or self.l < 1 or self.m * self.l != self.field.n:
            raise ValueError(f"need m*l == field degree, got m={self.m}, l={self.l}, degree={self.field.n}")
        if (self.q - 1) % self.l != 0:
            raise ValueError(f"l={self.l} must divide q-1={self.q - 1}")
        if self.big_l < 1:
            raise ValueError("list size L must be at least 1")
        if self.k < 1:
            raise ValueError("message length k must be at least 1")
        if self.layout_name not in ("uncompressed", "compressed"):
            raise ValueError(f"unknown layout {self.layout_name!r}")
        object.__setattr__(self, "alphas", _checked_points(self.field, self.alphas, self.l, "alpha"))

    @functools.cached_property
    def _poly_maps(self):
        """(k, n*n): row i is the matrix of x -> x^(q^i), flattened."""
        return np.array([self.field.frobenius_matrix(i).ravel() for i in range(self.k)])

    @functools.cached_property
    def _ratio_maps(self):
        """(l, n, n): the identity for row 0, then the matrix of x -> x / alpha_i."""
        return np.array([np.eye(self.field.n, dtype=np.int64)] +
                        [self.field.mul_matrix(a.inverse()) for a in self.alphas[1:]])

    def _blocks(self, messages):
        """L+1 (N, l, n) coefficient arrays: row i is alpha_i, then
        u^(j)(alpha_i) for j = 1..L, divided by alpha_i in every row but the first.

        u(x) = sum_i d_i x^(q^i) has the message digits d_i as coefficients,
        so each message's u is one (n, n) matrix over GF(p). A ratio outside
        GF(q^m) means a malformed alpha set: ValueError at the first such
        message of the block.
        """
        n, p = self.field.n, self.q
        u = (messages @ self._poly_maps % p).reshape(len(messages), n, n)
        value = np.array([a.coeffs for a in self.alphas])
        blocks = [np.repeat(value[None], len(messages), axis=0)]
        for _ in range(self.big_l):
            value = value @ u % p
            blocks.append(value)
        if self.l > 1:
            ratios = np.stack(blocks[1:], axis=2) @ self._ratio_maps % p     # (N, l, L, n)
            # every ratio must lie in GF(q^m), and x does exactly when x^(q^m) = x
            x = ratios[:, 1:]
            outside = (x @ self.field.frobenius_matrix(self.m) % p != x).any(axis=3)
            if outside.any():
                first, i, j = (int(v) for v in np.unravel_index(outside.argmax(), outside.shape))
                raise ValueError(
                    f"alpha set malformed: u^({j + 1})(alpha_{i + 1})/alpha_{i + 1} is outside "
                    f"GF({p}^{self.m}) for message {tuple(messages[first].tolist())}")
            blocks[1:] = [ratios[:, :, j] for j in range(self.big_l)]
        return blocks

    @property
    def kind(self) -> str:
        return SUBSPACE

    @property
    def layout(self) -> PacketLayout:
        return PacketLayout.mv(self.q, self.m, self.l, self.big_l,
                               compressed=self.layout_name == "compressed")

    @property
    def message_length(self) -> int:
        return self.k


# ---------------------------------------------------------------- encoders
#
# One batched encoder serves every code. A block of N messages, as an
# (N, length) digit array, becomes one (N, rows, n) array of polynomial
# coefficients per layout block: every field operation involved is
# GF(p)-linear for a fixed message (see FieldContext.mul_matrix), so it is
# a matrix product. The blocks are packed into the (N, rows, width) digit
# stack of the rows, which is all a Codebook keeps; a subspace codebook's
# rows are checked through one batched GF(p) reduction per block. Encoding
# a single message is a block of one. A codebook of a KK or Gabidulin
# code, whose values are linear in the message, forms one block's values
# and translates them for every other block (_EvaluationSpec._stacks).

# Bounds the set-up's array temporaries whatever the message count. It is
# the most messages per encoder block: an MV block holds this many, and a
# KK or Gabidulin block the largest power of q that is at most this, so
# that every block is whole. It is also the codewords per block wherever
# the set-up forms per-codeword temporaries: in Codebook.table, the
# subspace check and union._distinct_spans.
SETUP_CHUNK = 1024


def _pack(blocks, layout: PacketLayout, ctx: FieldContext):
    """(N, rows, width) int8 packed rows of per-block (N, rows, n) coefficients."""
    parts, outside = [], {}
    for j, (coeffs, block) in enumerate(zip(blocks, layout.blocks)):
        if block.subfield_order is None:
            parts.append(coeffs if ctx.basis is None else coeffs @ ctx._to_basis % ctx.p)
            continue
        # the canonical subfield basis is in RREF, so an element's
        # coordinates are its coefficients at the pivots
        basis = np.array(ctx.subfield_basis(block.subfield_order), dtype=np.int64)
        sub = coeffs[:, :, (basis != 0).argmax(axis=1)]
        outside[j] = (sub @ basis % ctx.p != coeffs).any(axis=2)
        parts.append(sub)
    if any(mask.any() for mask in outside.values()):
        # the first entry outside, in message, row, block order
        where = np.zeros(blocks[0].shape[:2] + (len(blocks),), dtype=bool)
        for j, mask in outside.items():
            where[:, :, j] = mask
        n, i, j = np.unravel_index(where.argmax(), where.shape)
        element = FieldElement(ctx, tuple(blocks[j][n, i].tolist()))
        raise ValueError(f"{element} is not in the subfield "
                         f"of order {layout.blocks[j].subfield_order}")
    return np.concatenate(parts, axis=2).astype(np.int8)


def encode(spec, digits) -> Codeword:
    """The codeword of one message, given as its ``spec.message_length``
    base-q digits, lowest first: a block of one through the batched encoder."""
    digits = integers(digits, "message digits")
    if len(digits) != spec.message_length:
        raise ValueError(f"message length must be {spec.message_length}, got {len(digits)}")
    if any(not 0 <= d < spec.q for d in digits):
        raise ValueError(f"message digits must lie in [0, {spec.q})")
    stack = _pack(spec._blocks(np.array([digits], dtype=np.int64)), spec.layout, spec.field)
    return Codeword(spec.kind, digits, tuple(map(tuple, stack[0].tolist())))


# ---------------------------------------------------------------- codebooks

def message_digits(spec, indices) -> np.ndarray:
    """(len(indices), length) base-q digits of the messages with these
    indices, lowest first."""
    indices = np.asarray(indices, dtype=np.int64)
    return indices[:, None] // spec.q ** np.arange(spec.message_length) % spec.q


def build_codebook(spec, budget: int = DEFAULT_CODEBOOK_BUDGET) -> Codebook:
    """One codeword per message, in deterministic message order."""
    count = spec.message_count()
    if count > budget:
        raise BudgetError(f"message space of size {count} exceeds the budget {budget}")
    return Codebook(spec, np.concatenate(list(spec._stacks(count))))


def _check_subspaces(codebook: Codebook):
    """ValueError at the first message, in message order, whose rows are
    dependent or whose subspace an earlier message already has.

    Subspaces are compared by one integer per codeword, its reduced basis
    packed. Over GF(2) that is ``linalg.packed_rref`` of the codewords'
    packed rows, :attr:`Codebook.table`, joined by ``linalg.pack_words``;
    otherwise the ``linalg.pack_digits`` of its ``batched_rref``.
    """
    stack, p = codebook.stack, codebook.p
    if p == 2:
        bases = linalg.packed_rref(codebook.table)
        dependent = (bases == 0).any(axis=0)
        keys = linalg.pack_words(bases.T, 2, stack.shape[2])
    else:
        keys, ranks = [], []
        for start in range(0, len(stack), SETUP_CHUNK):
            bases, block_ranks = linalg.batched_rref(stack[start:start + SETUP_CHUNK], p)
            keys.append(linalg.pack_digits(bases.reshape(len(bases), -1), p))
            ranks.append(block_ranks)
        keys = np.concatenate(keys)
        dependent = np.concatenate(ranks) != stack.shape[1]
    ranked = np.sort(keys)
    if not (dependent.any() or (ranked[1:] == ranked[:-1]).any()):
        return
    # only a refusal locates its offender: message i repeats an earlier
    # subspace unless it is the first message with its key
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    first = first[inverse]
    index = np.flatnonzero(dependent | (first != np.arange(len(keys))))[0]
    message = codebook[index].message
    if dependent[index]:
        raise ValueError(f"codeword for message {message} has dependent basis rows")
    earlier = codebook[first[index]].message
    raise ValueError(f"messages {earlier} and {message} map to the same subspace")


def codebook_csv_rows(codebook):
    """(message digits, row index, packed row digits) triples for export."""
    for cw in codebook:
        msg = "".join(str(d) for d in cw.message)
        for i, row in enumerate(cw.rows):
            yield msg, i, "".join(str(d) for d in row)
