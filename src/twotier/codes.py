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
from .fields import FieldContext, FieldElement

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


# ---------------------------------------------------------------- codewords

@dataclass(frozen=True)
class Codeword:
    """One codeword: its message digits and its packed rows over GF(q)."""
    kind: str
    message: tuple                 # base-field digit vector of the message
    rows: tuple                    # packed generator rows over GF(q)


class Codebook:
    """The codewords of one code in message order, held as one array.

    :attr:`stack` is the read-only (N, rows, width) int8 array of every
    codeword's packed rows, and the only form the codebook is kept in.
    Message i has the base-p digits of i, lowest first, so ``codebook[i]``
    builds its :class:`Codeword` on demand and :meth:`index` is arithmetic.
    Tier-2 decoding ranks every codeword's rows at once with
    :meth:`batched_rank`, and the union takes its component dimensions from
    :attr:`ranks`. A subspace codebook is checked on construction: every
    codeword's rows are independent and no two span the same subspace.
    """

    def __init__(self, spec, stack):
        self.kind = spec.kind
        self.p = spec.q
        self._length = spec.message_length
        self.stack = stack.view()
        self.stack.flags.writeable = False
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
        digits = tuple(message)
        if len(digits) == self._length and all(0 <= d < self.p for d in digits):
            index = sum(d * self.p ** i for i, d in enumerate(digits))
            if index < len(self):
                return index
        raise ValueError(f"message {digits} is not in the codebook")

    @functools.cached_property
    def table(self) -> tuple:
        """(keys, ids), read-only and built on first use: the distinct rows of
        a GF(2) codebook, packed by ``linalg.pack_bits``, and the (rows, N)
        array that puts ``keys[ids[i, n]]`` at row i of codeword n. The
        bit-packed tier-2 kernel reduces each distinct row once."""
        # packed per block of codewords: pack_bits widens its digits to int64
        rows = self.stack.transpose(1, 0, 2)
        packed = np.concatenate([linalg.pack_bits(rows[:, start:start + SETUP_CHUNK])
                                 for start in range(0, len(self), SETUP_CHUNK)], axis=1)
        keys, ids = np.unique(packed.ravel(), return_inverse=True)
        ids = ids.reshape(packed.shape)
        keys.flags.writeable = ids.flags.writeable = False
        return keys, ids

    @functools.cached_property
    def ranks(self) -> np.ndarray:
        """GF(p) rank of each codeword's rows."""
        if self.kind == SUBSPACE:
            # the constructor admits only independent subspace rows
            return np.full(len(self), self.stack.shape[1])
        return self.batched_rank()

    def basis_of(self, rows) -> tuple:
        """(basis, a): a basis of the span of digit rows, in the form
        :meth:`batched_rank` takes, and its rank a. Over GF(2) it is a
        ``linalg.packed_basis``, so no RREF is built; otherwise an ``rref``."""
        if self.p == 2:
            basis = linalg.packed_basis(linalg.pack_bits(rows))
            return basis, len(basis)
        basis = linalg.rref(rows, self.p)
        return basis, len(basis[1])

    def batched_rank(self, positions=None, offset=None, basis=None) -> np.ndarray:
        """``linalg.batched_rank`` of every codeword's rows, or of its rows at
        `positions` only, with `basis` from :meth:`basis_of`. Over GF(2) it
        is ``linalg.packed_rank`` on :attr:`table`, and the offset rows are
        packed here."""
        if self.p == 2:
            keys, ids = self.table
            if positions is not None:
                ids = ids[positions]
            if offset is not None:
                offset = linalg.pack_bits(offset)
            return linalg.packed_rank(keys, ids, offset, basis or ())
        stack = self.stack if positions is None else self.stack[:, positions, :]
        return linalg.batched_rank(stack, self.p, offset, basis)


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

    def _blocks(self, messages):
        """The symbols, one row each: [(N, n, m) coefficients]."""
        return [self._values(messages)]


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

    def _blocks(self, messages):
        """Row j is (alpha_j, u(alpha_j)): two (N, l, m) coefficient arrays."""
        alphas = np.array([[a.coeffs for a in self.alphas]])
        return [np.repeat(alphas, len(messages), axis=0), self._values(messages)]


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
        self._validate_subfield_membership()

    def _validate_subfield_membership(self):
        """Every ratio row entry must land in GF(q^m), for every message."""
        if self.l == 1:
            return      # only rows after the first carry ratios
        # x lies in GF(q^m) exactly when x^(q^m) = x
        frobenius = self.field.frobenius_matrix(self.m)
        count = self.message_count()
        for start in range(0, count, SETUP_CHUNK):
            messages = message_digits(self, np.arange(start, min(start + SETUP_CHUNK, count)))
            ratios = np.stack(self._blocks(messages)[1:], axis=2)[:, 1:]     # (N, l-1, L, n)
            outside = (ratios @ frobenius % self.q != ratios).any(axis=3)
            if outside.any():
                n, i, j = (int(x) for x in np.unravel_index(outside.argmax(), outside.shape))
                raise ValueError(
                    f"alpha set malformed: u^({j + 1})(alpha_{i + 1})/alpha_{i + 1} is outside "
                    f"GF({self.q}^{self.m}) for message {tuple(messages[n].tolist())}")

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
        so each message's u is one (n, n) matrix over GF(p).
        """
        n, p = self.field.n, self.q
        u = (messages @ self._poly_maps % p).reshape(len(messages), n, n)
        value = np.array([a.coeffs for a in self.alphas])
        blocks = [np.repeat(value[None], len(messages), axis=0)]
        for _ in range(self.big_l):
            value = value @ u % p
            blocks.append(value)
        if self.l > 1:
            ratios = np.stack(blocks[1:], axis=2) @ self._ratio_maps % p
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
# a single message is a block of one.

# Messages per encoder block, and codewords per span block in
# union.build_union: bounds the set-up's array temporaries whatever the
# message count.
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
    digits = tuple(int(d) for d in digits)
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
    stack = np.concatenate([
        _pack(spec._blocks(message_digits(spec, np.arange(start, min(start + SETUP_CHUNK, count)))),
              spec.layout, spec.field)
        for start in range(0, count, SETUP_CHUNK)])
    return Codebook(spec, stack)


def _check_subspaces(codebook: Codebook):
    """ValueError at the first message, in message order, whose rows are
    dependent or whose subspace an earlier message already has.

    Subspaces are compared by the packed keys of their RREF bases.
    """
    stack, p = codebook.stack, codebook.p
    keys, ranks = [], []
    for start in range(0, len(stack), SETUP_CHUNK):
        bases, block_ranks = linalg.batched_rref(stack[start:start + SETUP_CHUNK], p)
        keys.append(linalg.pack_keys(bases.reshape(len(bases), -1), p))
        ranks.append(block_ranks)
    keys = np.concatenate(keys)
    dependent = np.concatenate(ranks) != stack.shape[1]
    # the stable sort puts the first message with each subspace at the
    # start of its run; every other message repeats an earlier subspace
    order, starts = linalg.sorted_runs(keys)
    repeated = np.ones(len(order), dtype=bool)
    repeated[order[starts]] = False
    offenders = np.flatnonzero(dependent | repeated)
    if not len(offenders):
        return
    index = offenders[0]
    message = codebook[index].message
    if dependent[index]:
        raise ValueError(f"codeword for message {message} has dependent basis rows")
    first = np.flatnonzero((keys == keys[index]).all(axis=1))[0]
    raise ValueError(f"messages {codebook[first].message} and {message} map to the same subspace")


def codebook_csv_rows(codebook):
    """(message digits, row index, packed row digits) triples for export."""
    for cw in codebook:
        msg = "".join(str(d) for d in cw.message)
        for i, row in enumerate(cw.rows):
            yield msg, i, "".join(str(d) for d in row)
