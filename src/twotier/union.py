"""The union code: every packet that is valid for some codeword.

Built by exact enumeration of each component code's span, deduplicated,
with per-vector provenance recording which components contain it. The
union of linear codes is generally nonlinear, so distance work goes
through the pairwise path in :mod:`twotier.metrics`.
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


@dataclass(frozen=True)
class Component:
    index: int
    rows: tuple
    dimension: int
    message: tuple


class UnionCode:
    """Deduplicated valid-packet set with constant-time membership."""

    def __init__(self, provenance: dict, components: tuple, ambient_len: int, p: int):
        self.provenance = provenance
        self.components = components
        self.ambient_len = ambient_len
        self.p = p
        self._min_distance = None
        self._matrix = None

    @property
    def vectors(self):
        return self.provenance.keys()

    @property
    def cardinality(self) -> int:
        return len(self.provenance)

    def __contains__(self, vector) -> bool:
        return tuple(vector) in self.provenance

    def min_distance(self) -> int:
        if self.cardinality < 2:
            raise ValueError("degenerate union: fewer than two valid packets")
        if self._min_distance is None:
            if len(self.components) == 1:
                # the vectors are then one component's span, a linear code
                self._min_distance = metrics.min_weight(self.vectors)
            else:
                self._min_distance = metrics.min_distance(self.vectors, self.p)
        return self._min_distance

    def as_matrix(self):
        """(vector list, numpy matrix) in one fixed order, for scan decoding."""
        if self._matrix is None:
            ordered = sorted(self.provenance)
            self._matrix = (ordered, np.array(ordered, dtype=np.int16))
        return self._matrix

    def restrict(self, indices) -> "UnionCode":
        """Union over the listed components only; distance never decreases."""
        wanted = set(indices)
        if not wanted:
            raise ValueError("cannot restrict to an empty component list")
        unknown = wanted - self._positions.keys()
        if unknown:
            raise ValueError(f"unknown component indices {sorted(unknown)}")
        provenance = {}
        for vector, owners in self.provenance.items():
            kept = owners & wanted
            if kept:
                provenance[vector] = kept
        order = sorted(map(self._positions.__getitem__, wanted))
        components = tuple(self.components[i] for i in order)
        return UnionCode(provenance, components, self.ambient_len, self.p)

    @functools.cached_property
    def _positions(self) -> dict:
        """Component index -> position in :attr:`components`."""
        return {c.index: i for i, c in enumerate(self.components)}


def build_union(codebook: Codebook, budget: int = DEFAULT_UNION_BUDGET) -> UnionCode:
    """Every span vector of every codeword, deduplicated, in order of first
    occurrence (codewords in order, each span in coefficient order)."""
    if not codebook:
        raise ValueError("empty codebook")
    stack, p = codebook.stack, codebook.p
    total = len(stack) * p ** stack.shape[1]
    if total > budget:
        raise BudgetError(f"union enumeration of {total} vectors exceeds the budget {budget}")

    vectors, owners, bounds, first_seen = _distinct_spans(stack, p)
    # one int object per codeword, shared by its component and every set
    # that holds it
    ids = list(range(len(stack)))
    owners = list(map(ids.__getitem__, owners))
    provenance = {}
    for u in first_seen:
        provenance[tuple(vectors[u])] = set(owners[bounds[u]:bounds[u + 1]])
    components = tuple(map(Component, ids, [tuple(map(tuple, m)) for m in stack.tolist()],
                           codebook.ranks.tolist(), map(tuple, codebook.messages().tolist())))
    return UnionCode(provenance, components, stack.shape[2], p)


def _distinct_spans(stack, p: int):
    """(vectors, owners, bounds, first_seen) of the GF(p) row spans of a stack of matrices.

    ``vectors`` lists each distinct span vector once, in key order; the
    matrices whose span holds vector u are ``owners[bounds[u]:bounds[u + 1]]``,
    in ascending order, and ``first_seen`` lists the u in order of first
    occurrence (matrices in order, each span in coefficient order). Spans
    are formed and keyed per block of ``codes.SETUP_CHUNK`` matrices, and
    only their int64 keys are kept.
    """
    coeffs = _span_coefficients(p, stack.shape[1])
    per = len(coeffs)
    keys = np.concatenate([
        linalg.pack_keys((coeffs @ stack[start:start + codes.SETUP_CHUNK].astype(np.int64) % p)
                         .reshape(-1, stack.shape[2]), p)
        for start in range(0, len(stack), codes.SETUP_CHUNK)])
    order, starts = linalg.sorted_runs(keys)
    # the stable sort puts each vector's first occurrence at the start of
    # its run, and its owners after it in ascending order
    first = order[starts]
    vectors = linalg.unpack_keys(keys[first], p, stack.shape[2])
    return (vectors.tolist(), (order // per).tolist(), starts.tolist() + [len(order)],
            np.argsort(first).tolist())


@functools.cache
def _span_coefficients(p: int, rows: int) -> np.ndarray:
    """Every GF(p) coefficient vector of length `rows`, in lexicographic
    order (shared: read-only)."""
    coeffs = np.array(list(itertools.product(range(p), repeat=rows)), dtype=np.int64)
    coeffs.flags.writeable = False
    return coeffs


def component_vectors(union: UnionCode, index: int):
    return [v for v, owners in union.provenance.items() if index in owners]


def component_min_distances(union: UnionCode):
    """Per-component minimum weight (components are linear); inf for {0}.

    One pass over the union: each nonzero vector's weight lowers the
    minimum of every component that owns it.
    """
    best = {comp.index: math.inf for comp in union.components}
    for vector, owners in union.provenance.items():
        weight = metrics.hamming_weight(vector)
        if weight:
            for index in owners:
                if weight < best[index]:
                    best[index] = weight
    return list(best.items())


# ---------------------------------------------------------------- lemma checks

@dataclass
class LemmaCheck:
    lemma: str
    description: str
    claimed: str
    measured: str
    passed: bool
    normative: bool = True

    def as_dict(self):
        return {"lemma": self.lemma, "description": self.description,
                "claimed": self.claimed, "measured": self.measured,
                "passed": self.passed, "normative": self.normative}


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

    dists = dict(component_min_distances(union))
    bound = spec.m - spec.n + spec.k
    finite = {i: d for i, d in dists.items() if d is not math.inf}
    worst = max(finite.values(), default=math.inf)
    checks.append(LemmaCheck(
        lemma="L2", description="every nonzero component obeys the Singleton-type bound",
        claimed=f"d_H(C) <= m-n+k = {bound}", measured=f"max d_H(C) = {_fmt(worst)}",
        passed=all(d <= bound for d in finite.values())))

    mono_bound = spec.m - spec.n + 1
    mono = []
    for comp in union.components:
        chunks = [comp.message[j * spec.m:(j + 1) * spec.m] for j in range(spec.k)]
        nonzero = [c for c in chunks if any(c)]
        if len(nonzero) == 1:
            d = dists[comp.index]
            if d is not math.inf:
                mono.append(d)
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
