"""The union code: every packet that is valid for some codeword.

Built by exact enumeration of each component code's span, deduplicated
into one read-only :class:`Spans` record per codebook, which the codebook
keeps (:func:`spans_of`). A union over some of the components is that
shared record plus the array of their codebook indices. The union of
linear codes is generally nonlinear, so distance work goes through the
pairwise path in :mod:`twotier.metrics`.
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
    """The distinct span vectors of a codebook over GF(p), shared by every
    union over it and by tier 2.

    Vector u is the u-th distinct one in order of first occurrence
    (codewords in order, each span in coefficient order), held as row u of
    the int16 ``matrix``: the one stored form of a union vector. Vector 0
    is the zero vector, codeword 0's first. Row i of the int32 ``ids``
    lists the vectors of codeword i's span, in coefficient order, and
    ``min_weights[i]`` is the least weight of a nonzero one (width + 1 when
    the span is {0}). The arrays are read-only. Subspace tier 2 reads
    :meth:`meeting`, whose owner index is formed on its first call.
    """
    matrix: np.ndarray
    ids: np.ndarray
    min_weights: np.ndarray
    p: int

    @functools.cached_property
    def owner_index(self) -> tuple:
        """(starts, owners), formed on first use: ``owners[starts[u]:starts[u + 1]]``
        are the codewords whose span holds vector u, ascending, as
        read-only int32. It has one entry per entry of ``ids``, N·p^rows in
        all, as a codeword's span holds each of its vectors once.
        ``starts`` is a list of Python ints."""
        return _owner_index(self.ids, len(self.matrix))

    @functools.cached_property
    def _keys(self) -> dict:
        """Over GF(2): each vector's ``linalg.pack_digits`` integer, as a
        Python int, mapped to its number."""
        return {key: u for u, key in enumerate(linalg.pack_digits(self.matrix, 2).tolist())}

    @functools.cached_property
    def _probes(self) -> np.ndarray:
        """The nonzero vectors as one-row matrices for the rank kernels: a
        (1, |U| - 1) array of ``linalg.pack_digits`` rows over GF(2), in
        the dtype of ``Codebook.table``, otherwise an int16 digit stack."""
        if self.p == 2:
            return linalg.pack_digits(self.matrix[1:], 2)[None, :]
        return self.matrix[1:, None, :]

    @functools.cached_property
    def _rank_by_count(self) -> np.ndarray:
        """Entry c is rows - log_p(c + 1) where c + 1 is a power of p: the
        rank against V of a codeword owning c nonzero vectors of V."""
        powers = [1]
        while powers[-1] < self.ids.shape[1]:
            powers.append(powers[-1] * self.p)
        ranks = np.zeros(powers[-1], dtype=np.int64)
        ranks[np.array(powers) - 1] = np.arange(len(powers))[::-1]
        return ranks

    def meeting(self, basis) -> tuple:
        """(codewords, ranks) for the space V spanned by `basis` (a
        ``linalg.packed_basis`` over GF(2), otherwise an ``rref``): the
        codewords whose span U meets V outside 0, ascending, and the rank
        of each one's rows reduced against V, rows - dim(U ∩ V). Every
        other codeword has rank rows.

        Each of the p^dim - 1 nonzero vectors of U ∩ V is a union vector
        that U owns, so a codeword's count among the owners of the union
        vectors in V gives its dimension, and only those owners are read.
        Over GF(2), when V has no more vectors than the union, each vector
        of V is looked up; otherwise the union's nonzero vectors are
        ranked against V as one-row matrices, and those of rank 0 lie in it.
        """
        if self.p == 2 and 2 ** len(basis) <= len(self.matrix):
            vectors = [0]
            for b in basis:
                vectors += [v ^ b for v in vectors]
            keys = self._keys
            hits = [keys[v] for v in vectors[1:] if v in keys]
        else:
            if self.p == 2:
                ranks = linalg.packed_rank(self._probes, basis=basis)
            else:
                ranks = linalg.batched_rank(self._probes, self.p, basis=basis)
            hits = ((ranks == 0).nonzero()[0] + 1).tolist()
        # few numpy calls, and array methods over module functions: the
        # arrays are small, so a request costs about a fixed price per call
        starts, owners = self.owner_index
        touched = np.concatenate([owners[:0]] + [owners[starts[u]:starts[u + 1]] for u in hits])
        touched.sort()
        # each codeword's run in the sorted owners: its start, and the end
        bounds = np.empty(len(touched) + 1, dtype=bool)
        bounds[0] = bounds[-1] = True
        np.not_equal(touched[1:], touched[:-1], out=bounds[1:-1])
        bounds = bounds.nonzero()[0]
        return touched[bounds[:-1]], self._rank_by_count[bounds[1:] - bounds[:-1]]


def _owner_index(ids: np.ndarray, count: int) -> tuple:
    """``Spans.owner_index`` of the (N, p^rows) span ids of `count` vectors,
    from one stable sort of the ids, which lists each vector's entries in
    codeword order."""
    flat = ids.ravel()
    # at most 12 bytes per entry at once, 4 kept: the int64 order, divided
    # in place, beside the owners; then bincount's int64 copy of the ids
    order = np.argsort(flat, kind="stable")
    order //= ids.shape[1]
    owners = order.astype(np.int32)
    del order
    owners.flags.writeable = False
    starts = [0] + np.cumsum(np.bincount(flat, minlength=count)).tolist()
    return starts, owners


class UnionCode:
    """The valid packets of some components of a codebook, with hashed membership.

    ``provenance`` is the codebook's :class:`Spans` and ``components`` the
    read-only int array of the member codebook indices, in union order.
    ``matrix`` holds the union's vectors as int16 rows, in the
    first-occurrence order of the whole codebook's union; a union with
    every component shares the record's. Tier 1 looks packets up in
    ``_members``, formed on its first call, and asks :meth:`nearest`.
    :meth:`restrict` reads each listed index's position in ``components``
    from an int32 array over the codebook's indices, 4 B per index, formed
    on the union's first restriction, so a restriction costs the length
    of its list, not N. :attr:`verdicts` holds the simulator's tier-1
    verdicts on this union.
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
        elif len(self.components) == 1:
            # one span's ids, ascending: a set of a few Python ints is
            # about twice as fast as np.unique
            ids = provenance.ids[self.components[0]].tolist()
            self.matrix = provenance.matrix[sorted(set(ids))]
        else:
            self.matrix = provenance.matrix[np.unique(provenance.ids[self.components])]

    @property
    def cardinality(self) -> int:
        return len(self.matrix)

    @functools.cached_property
    def verdicts(self) -> codes.Memos:
        """(mode, radius, allow_radius_override) -> {packet's
        ``linalg.pack_digits`` key: its verdict}, formed on first use and
        filled by ``decoders._tier1_block`` under ``decoders.MEMO_ENTRIES``;
        freed with the union, and a restriction starts with none."""
        return codes.Memos()

    @functools.cached_property
    def _members(self) -> dict:
        """Each member's row tuple of Python ints -> itself, until tier 1's
        first hit on it puts its VALID verdict there, without a lock."""
        return {row: row for row in map(tuple, self.matrix.tolist())}

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

    @functools.cached_property
    def _positions(self) -> np.ndarray:
        """Each codebook index's position in ``components``, or -1 when
        absent: int32, 4 B per codebook index, formed on the first
        :meth:`restrict`."""
        at = np.full(len(self.provenance.ids), -1, dtype=np.int32)
        at[self.components] = np.arange(len(self.components), dtype=np.int32)
        return at

    def restrict(self, indices) -> "UnionCode":
        """Union over the listed components only, in union order; distance
        never decreases."""
        wanted = set(indices)
        if not wanted:
            raise ValueError("cannot restrict to an empty component list")
        # an index outside the codebook's, negative or not, is unknown
        at = self._positions
        found = {i: int(at[i]) if 0 <= i < len(at) else -1 for i in wanted}
        unknown = sorted(i for i, k in found.items() if k < 0)
        if unknown:
            raise ValueError(f"unknown component indices {unknown}")
        kept = self.components[sorted(found.values())]
        return UnionCode(self.provenance, kept, self.ambient_len, self.p)


def build_union(codebook: Codebook, budget: int = DEFAULT_UNION_BUDGET) -> UnionCode:
    """Every span vector of every codeword, deduplicated, in order of first
    occurrence (codewords in order, each span in coefficient order).
    BudgetError when the N·p^rows span vectors exceed the budget, whether
    the codebook's record exists or not."""
    _check_budget(codebook, budget)
    return UnionCode(spans_of(codebook, budget), np.arange(len(codebook), dtype=np.int32),
                     codebook.stack.shape[2], codebook.p)


def spans_of(codebook: Codebook, budget: int | None = None) -> Spans:
    """The codebook's :class:`Spans`, kept as ``codebook.spans``. Formed on
    first use, under the budget (``DEFAULT_UNION_BUDGET`` when None): a
    record that exists is returned whatever the budget, so tier 2 decodes
    on a union built under a larger one."""
    if codebook.spans is None:
        _check_budget(codebook, DEFAULT_UNION_BUDGET if budget is None else budget)
        codebook.spans = _distinct_spans(codebook)
    return codebook.spans


def _check_budget(codebook: Codebook, budget: int):
    """ValueError on an empty codebook; BudgetError when its N·p^rows span
    vectors exceed the budget."""
    if not codebook:
        raise ValueError("empty codebook")
    stack, p = codebook.stack, codebook.p
    total = len(stack) * p ** stack.shape[1]
    if total > budget:
        raise BudgetError(f"union enumeration of {total} vectors exceeds the budget {budget}")


def _distinct_spans(codebook: Codebook) -> Spans:
    """The :class:`Spans` of the GF(p) row spans of a codebook's codewords.

    Every span vector is first one ``linalg.pack_digits`` integer, key
    ``i * p^rows + j`` for codeword i and coefficient vector j. Over GF(2)
    they are XORs of the packed rows of ``Codebook.table`` (which this
    builds, if the subspace check has not); otherwise they are formed and
    packed per block of ``codes.SETUP_CHUNK`` codewords. Only the integers
    are kept, and the distinct ones are numbered in order of first
    occurrence in one of two ways, by one rule: where p^width <= N·p^rows,
    that is, where a table of every possible key is no longer than the
    keys the build already holds, through a dense table of each key's
    first position; otherwise, as for the GF(3) codes whose keys run to
    3^21 and beyond, by one stable sort of the keys.
    """
    stack, p = codebook.stack, codebook.p
    coeffs = _span_coefficients(p, stack.shape[1])
    # the keys are passed on unnamed, so the sort frees them before the ids form
    if p ** stack.shape[2] <= len(stack) * len(coeffs):
        first, ids = _numbered_by_table(_span_keys(codebook, coeffs), p ** stack.shape[2],
                                        len(coeffs))
    else:
        first, ids = _numbered_by_sort(_span_keys(codebook, coeffs))
    ids = ids.reshape(len(stack), -1)
    # each distinct vector formed again at its first occurrence, entry
    # (codeword, coefficients) of the spans
    codeword, at = np.divmod(first, len(coeffs))
    matrix = (coeffs[at, None, :] @ stack[codeword] % p)[:, 0].astype(np.int16)
    weights = np.count_nonzero(matrix, axis=1).astype(np.int16)
    weights[weights == 0] = stack.shape[2] + 1      # the zero vector sets no minimum
    # per block of codewords, so that no (N, p^rows) weight array forms: the
    # weights of its ids, then a minimum over their p^rows columns, one at
    # a time, as .min(axis=1) is slow over so few columns
    min_weights = np.empty(len(stack), dtype=np.int16)
    for start in range(0, len(stack), codes.SETUP_CHUNK):
        block = weights[ids[start:start + codes.SETUP_CHUNK]]
        least = min_weights[start:start + codes.SETUP_CHUNK]
        least[:] = block[:, 0]
        for column in range(1, block.shape[1]):
            np.minimum(least, block[:, column], out=least)
    for array in (matrix, ids, min_weights):
        array.flags.writeable = False
    return Spans(matrix, ids, min_weights, p)


def _span_keys(codebook: Codebook, coeffs) -> np.ndarray:
    """The ``linalg.pack_digits`` key of every span vector, codewords in
    order and each span in the order of `coeffs`, as one 1-D array."""
    stack, p = codebook.stack, codebook.p
    if p == 2:
        return _xor_spans(codebook.table)
    return np.concatenate([
        linalg.pack_digits(coeffs @ stack[start:start + codes.SETUP_CHUNK].astype(np.int64) % p,
                           p).ravel()
        for start in range(0, len(stack), codes.SETUP_CHUNK)])


def _numbered_by_table(keys, size: int, per: int) -> tuple:
    """(first, ids) of keys below `size`: the position of each distinct
    key's first occurrence, ascending, and each key's number in that
    order, as int32. ``np.minimum.at`` writes each key's first position
    into a table of `size` entries, per block of ``codes.SETUP_CHUNK``
    codewords of `per` keys each, which bounds the positions' temporary."""
    table = np.full(size, len(keys), dtype=np.int64)
    step = codes.SETUP_CHUNK * per
    for start in range(0, len(keys), step):
        chunk = keys[start:start + step]
        np.minimum.at(table, chunk, np.arange(start, start + len(chunk)))
    present = np.flatnonzero(table < len(keys))
    present = present[np.argsort(table[present])]      # in order of first occurrence
    number = np.empty(size, dtype=np.int32)
    number[present] = np.arange(len(present), dtype=np.int32)
    return table[present], number[keys]


def _numbered_by_sort(keys) -> tuple:
    """``_numbered_by_table`` of keys of any size, from one stable sort."""
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    del keys                                        # freed before the ids are formed
    new = np.ones(len(ranked), dtype=bool)
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    del ranked
    starts = new.nonzero()[0]
    # the stable sort puts each vector's first occurrence at the start of
    # its run, so run r holds vector number[r], its rank by first occurrence
    first = order[starts]
    by_first = np.argsort(first)
    number = np.argsort(by_first).astype(np.int32)
    ids = np.empty(len(order), dtype=np.int32)
    ids[order] = np.repeat(number, np.diff(starts, append=len(order)))
    return first[by_first], ids


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
