"""The union code: every packet that is valid for some codeword.

Built by exact enumeration of each component code's span, deduplicated
into one read-only :class:`Spans` record per codebook. A union over some
of the components is that shared record plus the array of their codebook
indices. The union of linear codes is generally nonlinear, so distance
work goes through the pairwise path in :mod:`twotier.metrics`.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import codes, linalg, metrics
from .codes import Codebook, GabidulinSpec, KKSpec, MVSpec
from .errors import BudgetError

DEFAULT_UNION_BUDGET = 1 << 26


@dataclass(frozen=True, eq=False)
class Spans:
    """The distinct span vectors of a codebook, shared by every union over it.

    Vector u is the u-th distinct one in order of first occurrence
    (codewords in order, each span in coefficient order), held as row u of
    the int16 ``matrix``: the one stored form of a union vector. Row i of
    the int32 ``ids`` lists the vectors of codeword i's span, in
    coefficient order, and ``min_weights[i]`` is the least weight of a
    nonzero one (width + 1 when the span is {0}). The arrays are read-only.
    """
    matrix: np.ndarray
    ids: np.ndarray
    min_weights: np.ndarray


class UnionCode:
    """The valid packets of some components of a codebook, with hashed membership.

    ``provenance`` is the codebook's :class:`Spans` and ``components`` the
    read-only int array of the member codebook indices, in union order.
    ``matrix`` holds the union's vectors as int16 rows, in the
    first-occurrence order of the whole codebook's union; a union with
    every component shares the record's. Tier 1 asks ``in``, which tests
    a set of the row tuples formed on first use, and :meth:`nearest`.
    """

    def __init__(self, provenance: Spans, components, ambient_len: int, p: int):
        self.provenance = provenance
        self.components = np.asarray(components).view()
        self.components.flags.writeable = False
        self.ambient_len = ambient_len
        self.p = p
        self._min_distance = None
        if len(self.components) == len(provenance.ids):
            self.matrix = provenance.matrix
        else:
            self.matrix = provenance.matrix[np.unique(provenance.ids[self.components])]

    @property
    def cardinality(self) -> int:
        return len(self.matrix)

    @functools.cached_property
    def _members(self) -> frozenset:
        return frozenset(map(tuple, self.matrix.tolist()))

    def __contains__(self, vector) -> bool:
        return tuple(vector) in self._members

    def nearest(self, packet) -> tuple[int, list]:
        """The least Hamming distance from `packet` (digits in [0, p)) to a
        union vector, and every union vector at that distance, as digit
        tuples in union order."""
        dists = np.count_nonzero(self.matrix != np.array(packet, dtype=np.int16), axis=1)
        best = dists.min()
        return int(best), list(map(tuple, self.matrix[dists == best].tolist()))

    def min_distance(self) -> int:
        if self.cardinality < 2:
            raise ValueError("degenerate union: fewer than two valid packets")
        if self._min_distance is None:
            if len(self.components) == 1:
                # the vectors are then one component's span, a linear code
                self._min_distance = int(self.provenance.min_weights[self.components[0]])
            else:
                # the rows are distinct span vectors
                self._min_distance = metrics.pairwise_min_distance(self.matrix)
        return self._min_distance

    def restrict(self, indices) -> "UnionCode":
        """Union over the listed components only; distance never decreases."""
        wanted = set(indices)
        if not wanted:
            raise ValueError("cannot restrict to an empty component list")
        # membership over the codebook's indices; one outside them is unknown
        listed = np.zeros(len(self.provenance.ids), dtype=bool)
        listed[np.array([i for i in wanted if 0 <= i < len(listed)], dtype=np.intp)] = True
        kept = self.components[listed[self.components]]
        unknown = wanted.difference(kept.tolist())
        if unknown:
            raise ValueError(f"unknown component indices {sorted(unknown)}")
        return UnionCode(self.provenance, kept, self.ambient_len, self.p)


def build_union(codebook: Codebook, budget: int = DEFAULT_UNION_BUDGET) -> UnionCode:
    """Every span vector of every codeword, deduplicated, in order of first
    occurrence (codewords in order, each span in coefficient order)."""
    if not codebook:
        raise ValueError("empty codebook")
    stack, p = codebook.stack, codebook.p
    total = len(stack) * p ** stack.shape[1]
    if total > budget:
        raise BudgetError(f"union enumeration of {total} vectors exceeds the budget {budget}")
    return UnionCode(_distinct_spans(codebook), np.arange(len(stack), dtype=np.int32),
                     stack.shape[2], p)


def _distinct_spans(codebook: Codebook) -> Spans:
    """The :class:`Spans` of the GF(p) row spans of a codebook's codewords.

    Every span vector is first one ``linalg.pack_digits`` integer, key
    ``i * p^rows + j`` for codeword i and coefficient vector j. Over GF(2)
    they are XORs of the packed rows of ``Codebook.table`` (which this
    builds, if the subspace check has not); otherwise they are formed and
    packed per block of ``codes.SETUP_CHUNK`` codewords. Only the integers
    are kept, and one sort of them numbers the distinct vectors.
    """
    stack, p = codebook.stack, codebook.p
    coeffs = _span_coefficients(p, stack.shape[1])
    if p == 2:
        keys = _xor_spans(codebook.table)
    else:
        keys = np.concatenate([
            linalg.pack_digits(coeffs @ stack[start:start + codes.SETUP_CHUNK].astype(np.int64)
                               % p, p).ravel()
            for start in range(0, len(stack), codes.SETUP_CHUNK)])
    order, starts = linalg.sorted_runs(keys)
    del keys                                        # freed before the ids are formed
    # the stable sort puts each vector's first occurrence at the start of
    # its run, so run r holds vector number[r], its rank by first occurrence
    first = order[starts]
    by_first = np.argsort(first)
    number = np.argsort(by_first).astype(np.int32)
    ids = np.empty(len(order), dtype=np.int32)
    ids[order] = np.repeat(number, np.diff(starts, append=len(order)))
    ids = ids.reshape(len(stack), -1)
    # each distinct vector formed again at its first occurrence, entry
    # (codeword, coefficients) of the spans
    codeword, at = np.divmod(first[by_first], len(coeffs))
    matrix = (coeffs[at, None, :] @ stack[codeword] % p)[:, 0].astype(np.int16)
    weights = np.count_nonzero(matrix, axis=1).astype(np.int16)
    weights[weights == 0] = stack.shape[2] + 1      # the zero vector sets no minimum
    min_weights = weights[ids].min(axis=1)
    for array in (matrix, ids, min_weights):
        array.flags.writeable = False
    return Spans(matrix, ids, min_weights)


def _xor_spans(table) -> np.ndarray:
    """The span vectors of the GF(2) codewords whose packed rows are the
    columns of the (rows, N) `table`, as a 1-D array in its dtype: entry
    ``i * 2^rows + j`` is codeword i's span vector for coefficient vector
    j of ``_span_coefficients``, whose digit r is bit rows - 1 - r of j.

    Vector j is vector j - low plus one row, where low is j's lowest set
    bit, so each costs one XOR, in the table's dtype.
    """
    rows = len(table)
    # one contiguous row per coefficient vector, as writing columns is far
    # slower, and one transpose into codeword order at the end
    spans = np.zeros((2 ** rows, table.shape[1]), dtype=table.dtype)
    for j in range(1, len(spans)):
        low = j & -j
        np.bitwise_xor(spans[j ^ low], table[rows - low.bit_length()], out=spans[j])
    return spans.T.ravel()


@functools.cache
def _span_coefficients(p: int, rows: int) -> np.ndarray:
    """Every GF(p) coefficient vector of length `rows`, in lexicographic
    order (shared: read-only)."""
    coeffs = np.array(list(itertools.product(range(p), repeat=rows)), dtype=np.int64)
    coeffs.flags.writeable = False
    return coeffs


def owners(union: UnionCode) -> dict:
    """Each vector of the union, in union order, with the set of its
    components whose span holds it."""
    spans = union.provenance
    sets = {u: set() for u in range(len(spans.matrix))}
    for index, row in zip(union.components.tolist(), spans.ids[union.components].tolist()):
        for u in row:
            sets[u].add(index)
    vectors = spans.matrix.tolist()
    return {tuple(vectors[u]): owned for u, owned in sets.items() if owned}


def component_min_distances(union: UnionCode) -> np.ndarray:
    """Each component's minimum Hamming distance (components are linear),
    aligned with ``union.components``: a read-only gather of the span
    record's ``min_weights``, so ``ambient_len + 1`` for a {0} span."""
    dists = union.provenance.min_weights[union.components]
    dists.flags.writeable = False
    return dists


# ---------------------------------------------------------------- lemma checks

@dataclass
class LemmaCheck:
    lemma: str
    description: str
    claimed: str
    measured: str
    passed: bool
    normative: bool = True


def _fmt(value, ambient_len: int) -> str:
    """A distance as a report writes it: the {0}-span value ambient_len + 1 is "inf"."""
    return "inf" if value > ambient_len else str(value)


def _fmt_max(dists, ambient_len: int) -> str:
    return _fmt(dists.max() if len(dists) else ambient_len + 1, ambient_len)


def verify_lemmas(spec, union: UnionCode):
    """Executable forms of the distance and cardinality claims, reductions
    over the :func:`component_min_distances` array.

    Failures become report entries, not exceptions. A KK or MV union
    without the zero-message component 0 raises ValueError.
    """
    if isinstance(spec, GabidulinSpec):
        return _verify_gabidulin(spec, union)
    if isinstance(spec, KKSpec):
        return _verify_kk(spec, union)
    if isinstance(spec, MVSpec):
        return _verify_mv(spec, union)
    raise TypeError(f"unsupported spec type {type(spec).__name__}")


def _union_distance_is_one(lemma: str, union: UnionCode) -> LemmaCheck:
    """L1 and L4: the union of the components has distance exactly 1."""
    d_union = union.min_distance()
    return LemmaCheck(
        lemma=lemma, description="union code minimum Hamming distance",
        claimed="d_H(C_U) == 1", measured=str(d_union), passed=d_union == 1)


def _zero_component_is_weakest(lemma: str, union: UnionCode, bound: int, name: str):
    """L5 and L7: the zero-message component has the least distance, at most `bound`."""
    dists = component_min_distances(union)
    at = union.components.argmin()      # indices are nonnegative: 0 is the least
    if union.components[at] != 0:
        raise ValueError(f"{lemma} needs the zero-message component 0, not in the union")
    d0 = int(dists[at])
    return LemmaCheck(
        lemma=lemma, description="zero-message component has the smallest distance",
        claimed=f"d_H(C_0) <= d_H(C) for all C, and d_H(C_0) <= {name} = {bound}",
        measured=f"d_H(C_0) = {_fmt(d0, union.ambient_len)}" + (f" (meets {name})" if d0 == bound else ""),
        passed=bool(d0 == dists.min()) and d0 <= bound)


def _verify_gabidulin(spec: GabidulinSpec, union: UnionCode):
    dists = component_min_distances(union)
    nonzero = dists <= union.ambient_len
    bound = spec.m - spec.n + spec.k
    mono_bound = spec.m - spec.n + 1
    # the single-monomial messages c x^[j], 0 < c < q^m and j < k, have indices c q^(mj)
    block = spec.q ** spec.m
    single = np.zeros(len(union.provenance.min_weights), dtype=bool)
    single[np.arange(1, block) * block ** np.arange(spec.k)[:, None]] = True
    finite, mono = dists[nonzero], dists[nonzero & single[union.components]]
    return [
        _union_distance_is_one("L1", union),
        LemmaCheck(
            lemma="L2", description="every nonzero component obeys the Singleton-type bound",
            claimed=f"d_H(C) <= m-n+k = {bound}",
            measured=f"max d_H(C) = {_fmt_max(finite, union.ambient_len)}",
            passed=bool((finite <= bound).all())),
        LemmaCheck(
            lemma="L3", description="single-monomial components obey the tighter bound",
            claimed=f"d_H(C_j) <= m-n+1 = {mono_bound}",
            measured=f"max over {len(mono)} components = {_fmt_max(mono, union.ambient_len)}",
            passed=bool((mono <= mono_bound).all())),
    ]


def _verify_kk(spec: KKSpec, union: UnionCode):
    q, m, l = spec.q, spec.m, spec.l
    exact = (q ** l - 1) * q ** m + 1
    ambient = q ** union.ambient_len
    card = union.cardinality
    return [
        _union_distance_is_one("L4", union),
        _zero_component_is_weakest("L5", union, m - l + 1, "m-l+1"),
        LemmaCheck(
            lemma="L6", description="union cardinality: exact count, below the ambient space",
            claimed=f"|C_U| == (q^l-1)q^m+1 = {exact} and < q^{union.ambient_len} = {ambient}",
            measured=str(card), passed=card == exact and card < ambient),
    ]


def _verify_mv(spec: MVSpec, union: UnionCode):
    q, m, l, big_l = spec.q, spec.m, spec.l, spec.big_l
    polynomial_basis = (spec.field.polynomial_basis and
                        (spec.layout_name == "uncompressed" or l == 1))
    l7 = _zero_component_is_weakest("L7", union, m * l - l + 1, "ml-l+1")
    d_union = union.min_distance()
    bound8 = m if l == 1 else min(m * l - l + 1, big_l)
    upper = (q ** l - 1) * q ** (big_l * m) + 1
    theoretic_ambient = q ** (l + big_l * m)
    card = union.cardinality
    return [
        l7,
        LemmaCheck(
            lemma="L8",
            description="union distance bound" + ("" if polynomial_basis else " (non-polynomial-basis layout, informational)"),
            claimed=(f"d_H(C_U) <= m = {bound8}" if l == 1 else f"d_H(C_U) <= min(ml-l+1, L) = {bound8}"),
            measured=str(d_union), passed=d_union <= bound8, normative=polynomial_basis),
        LemmaCheck(
            lemma="L9", description="union cardinality below the ambient space",
            claimed=f"|C_U| <= (q^l-1)q^(Lm)+1 = {upper} and < q^(l+Lm) = {theoretic_ambient}",
            measured=str(card), passed=card <= upper and card < theoretic_ambient),
    ]
