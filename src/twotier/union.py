"""The union code: every packet that is valid for some codeword.

Built by exact enumeration of each component code's span, deduplicated
into one read-only :class:`Spans` record per codebook. A union over some
of the components is that shared record plus the array of their codebook
indices. The union of linear codes is generally nonlinear, so distance
work goes through the pairwise path in :mod:`twotier.metrics`.
"""

import functools
import itertools
import math
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
    (codewords in order, each span in coefficient order). It is held as the
    tuple ``vectors[u]``, for hashed membership, and as row u of the int16
    ``matrix``, for the nearest-vector scan. Row i of the int32 ``ids``
    lists the vectors of codeword i's span, in coefficient order, and
    ``min_weights[i]`` is the least weight of a nonzero one (width + 1
    when the span is {0}). The arrays are read-only.
    """
    vectors: tuple
    matrix: np.ndarray
    ids: np.ndarray
    min_weights: np.ndarray


class UnionCode:
    """The valid packets of some components of a codebook, with constant-time membership.

    ``provenance`` is the codebook's :class:`Spans` and ``components`` the
    read-only int array of the member codebook indices, in union order.
    Its ``vectors`` (tuples) and ``matrix`` (their int16 rows, for scan
    decoding) keep the first-occurrence order of the whole codebook's
    union; a union with every component shares the record's.
    """

    def __init__(self, provenance: Spans, components, ambient_len: int, p: int):
        self.provenance = provenance
        self.components = np.asarray(components).view()
        self.components.flags.writeable = False
        self.ambient_len = ambient_len
        self.p = p
        self._min_distance = None
        if len(self.components) == len(provenance.ids):
            self.vectors, self.matrix = provenance.vectors, provenance.matrix
        else:
            ids = np.unique(provenance.ids[self.components])
            self.vectors = tuple(map(provenance.vectors.__getitem__, ids.tolist()))
            self.matrix = provenance.matrix[ids]
        self._members = frozenset(self.vectors)

    @property
    def cardinality(self) -> int:
        return len(self.vectors)

    def __contains__(self, vector) -> bool:
        return tuple(vector) in self._members

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
        kept = self.components[np.isin(self.components, list(wanted))]
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
    return UnionCode(_distinct_spans(stack, p), np.arange(len(stack), dtype=np.int32),
                     stack.shape[2], p)


def _distinct_spans(stack, p: int) -> Spans:
    """The :class:`Spans` of the GF(p) row spans of a stack of matrices.

    Spans are formed and keyed per block of ``codes.SETUP_CHUNK``
    matrices, and only their int64 keys are kept.
    """
    coeffs = _span_coefficients(p, stack.shape[1])
    keys = np.concatenate([
        linalg.pack_keys((coeffs @ stack[start:start + codes.SETUP_CHUNK].astype(np.int64) % p)
                         .reshape(-1, stack.shape[2]), p)
        for start in range(0, len(stack), codes.SETUP_CHUNK)])
    order, starts = linalg.sorted_runs(keys)
    # the stable sort puts each vector's first occurrence at the start of
    # its run, so run r holds vector number[r], its rank by first occurrence
    first = order[starts]
    by_first = np.argsort(first)
    number = np.argsort(by_first)
    ids = np.empty(len(order), dtype=np.int32)
    ids[order] = np.repeat(number, np.diff(starts, append=len(order)))
    matrix = linalg.unpack_keys(keys[first[by_first]], p, stack.shape[2]).astype(np.int16)
    ids = ids.reshape(len(stack), -1)
    weights = np.count_nonzero(matrix, axis=1).astype(np.int16)
    weights[weights == 0] = stack.shape[2] + 1      # the zero vector sets no minimum
    min_weights = weights[ids].min(axis=1)
    for array in (matrix, ids, min_weights):
        array.flags.writeable = False
    return Spans(tuple(map(tuple, matrix.tolist())), matrix, ids, min_weights)


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
    sets = {u: set() for u in range(len(spans.vectors))}
    for index, row in zip(union.components.tolist(), spans.ids[union.components].tolist()):
        for u in row:
            sets[u].add(index)
    return {spans.vectors[u]: owned for u, owned in sets.items() if owned}


def component_min_distances(union: UnionCode):
    """Per-component minimum weight (components are linear); inf for {0}.

    One gather of the components' entries in the span record's
    ``min_weights``.
    """
    best = union.provenance.min_weights[union.components]
    return [(index, d if d <= union.ambient_len else math.inf)
            for index, d in zip(union.components.tolist(), best.tolist())]


# ---------------------------------------------------------------- lemma checks

@dataclass
class LemmaCheck:
    lemma: str
    description: str
    claimed: str
    measured: str
    passed: bool
    normative: bool = True


def _fmt(value) -> str:
    return "inf" if value is math.inf else str(value)


def verify_lemmas(spec, union: UnionCode):
    """Executable forms of the distance and cardinality claims.

    Failures become report entries, not exceptions.
    """
    if isinstance(spec, GabidulinSpec):
        return _verify_gabidulin(spec, union)
    if isinstance(spec, KKSpec):
        return _verify_kk(spec, union)
    if isinstance(spec, MVSpec):
        return _verify_mv(spec, union)
    raise TypeError(f"unsupported spec type {type(spec).__name__}")


def _verify_gabidulin(spec: GabidulinSpec, union: UnionCode):
    checks = []
    d_union = union.min_distance()
    checks.append(LemmaCheck(
        lemma="L1", description="union code minimum Hamming distance",
        claimed="d_H(C_U) == 1", measured=_fmt(d_union), passed=d_union == 1))

    dists = component_min_distances(union)
    bound = spec.m - spec.n + spec.k
    finite = [d for _, d in dists if d is not math.inf]
    worst = max(finite, default=math.inf)
    checks.append(LemmaCheck(
        lemma="L2", description="every nonzero component obeys the Singleton-type bound",
        claimed=f"d_H(C) <= m-n+k = {bound}", measured=f"max d_H(C) = {_fmt(worst)}",
        passed=all(d <= bound for d in finite)))

    mono_bound = spec.m - spec.n + 1
    # a single-monomial message has exactly one nonzero block of m digits
    blocks = codes.message_digits(spec, union.components).reshape(-1, spec.k, spec.m)
    single = blocks.any(axis=2).sum(axis=1) == 1
    mono = [d for (_, d), one in zip(dists, single.tolist()) if one and d is not math.inf]
    checks.append(LemmaCheck(
        lemma="L3", description="single-monomial components obey the tighter bound",
        claimed=f"d_H(C_j) <= m-n+1 = {mono_bound}",
        measured=f"max over {len(mono)} components = {_fmt(max(mono, default=math.inf))}",
        passed=all(d <= mono_bound for d in mono)))
    return checks


def _verify_kk(spec: KKSpec, union: UnionCode):
    checks = []
    q, m, l = spec.q, spec.m, spec.l
    d_union = union.min_distance()
    checks.append(LemmaCheck(
        lemma="L4", description="union code minimum Hamming distance",
        claimed="d_H(C_U) == 1", measured=_fmt(d_union), passed=d_union == 1))

    dists = dict(component_min_distances(union))
    d0 = dists[0]
    bound = m - l + 1
    others_ok = all(d0 <= d for d in dists.values())
    checks.append(LemmaCheck(
        lemma="L5", description="zero-message component has the smallest distance",
        claimed=f"d_H(C_0) <= d_H(C) for all C, and d_H(C_0) <= m-l+1 = {bound}",
        measured=f"d_H(C_0) = {_fmt(d0)}" + (" (meets m-l+1)" if d0 == bound else ""),
        passed=others_ok and d0 <= bound))

    exact = (q ** l - 1) * q ** m + 1
    ambient = q ** union.ambient_len
    card = union.cardinality
    checks.append(LemmaCheck(
        lemma="L6", description="union cardinality: exact count, below the ambient space",
        claimed=f"|C_U| == (q^l-1)q^m+1 = {exact} and < q^{union.ambient_len} = {ambient}",
        measured=str(card), passed=card == exact and card < ambient))
    return checks


def _verify_mv(spec: MVSpec, union: UnionCode):
    checks = []
    q, m, l, big_l = spec.q, spec.m, spec.l, spec.big_l
    polynomial_basis = (spec.field.polynomial_basis and
                        (spec.layout_name == "uncompressed" or l == 1))

    dists = dict(component_min_distances(union))
    d0 = dists[0]
    bound7 = m * l - l + 1
    others_ok = all(d0 <= d for d in dists.values())
    checks.append(LemmaCheck(
        lemma="L7", description="zero-message component has the smallest distance",
        claimed=f"d_H(C_0) <= d_H(C) for all C, and d_H(C_0) <= ml-l+1 = {bound7}",
        measured=f"d_H(C_0) = {_fmt(d0)}" + (" (meets ml-l+1)" if d0 == bound7 else ""),
        passed=others_ok and d0 <= bound7))

    d_union = union.min_distance()
    bound8 = m if l == 1 else min(m * l - l + 1, big_l)
    checks.append(LemmaCheck(
        lemma="L8",
        description="union distance bound" + ("" if polynomial_basis else " (non-polynomial-basis layout, informational)"),
        claimed=(f"d_H(C_U) <= m = {bound8}" if l == 1 else f"d_H(C_U) <= min(ml-l+1, L) = {bound8}"),
        measured=_fmt(d_union), passed=d_union <= bound8, normative=polynomial_basis))

    upper = (q ** l - 1) * q ** (big_l * m) + 1
    theoretic_ambient = q ** (l + big_l * m)
    card = union.cardinality
    checks.append(LemmaCheck(
        lemma="L9", description="union cardinality below the ambient space",
        claimed=f"|C_U| <= (q^l-1)q^(Lm)+1 = {upper} and < q^(l+Lm) = {theoretic_ambient}",
        measured=str(card), passed=card <= upper and card < theoretic_ambient))
    return checks
