"""Hamming, rank, subspace, and injection metrics, plus minimum distance.

Vectors are tuples of GF(p) digits. Subspaces are canonical reduced
row echelon bases, so two equal subspaces compare equal structurally.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg


@dataclass(frozen=True)
class Subspace:
    basis: tuple          # RREF rows, no zero rows
    ambient_len: int
    p: int

    @classmethod
    def from_rows(cls, rows, p: int, ambient_len=None) -> "Subspace":
        rows = [tuple(r) for r in rows]
        if ambient_len is None:
            if not rows:
                raise ValueError("cannot infer ambient length from no rows")
            ambient_len = len(rows[0])
        if any(len(r) != ambient_len for r in rows):
            raise ValueError("rows of unequal length")
        basis = linalg.basis_rows(rows, p) if rows else ()
        return cls(basis=basis, ambient_len=ambient_len, p=p)

    @property
    def dim(self) -> int:
        return len(self.basis)


def hamming_distance(x, y) -> int:
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    return sum(1 for a, b in zip(x, y) if a != b)


def rank_over_base(symbols) -> int:
    """GF(q)-rank of a vector of extension-field symbols (rows = coordinates)."""
    symbols = list(symbols)
    if not symbols:
        return 0
    p = symbols[0].ctx.p
    return linalg.rank([s.to_vector() for s in symbols], p)


def rank_distance(x, y) -> int:
    x, y = list(x), list(y)
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    return rank_over_base([a - b for a, b in zip(x, y)])


def _check_pair(u: Subspace, v: Subspace):
    if u.ambient_len != v.ambient_len or u.p != v.p:
        raise ValueError("subspaces from different ambient spaces")


def _sum_dim(u: Subspace, v: Subspace) -> int:
    if not u.basis:
        return v.dim
    if not v.basis:
        return u.dim
    return linalg.rank(list(u.basis) + list(v.basis), u.p)


def subspace_distance(u: Subspace, v: Subspace) -> int:
    """dim(U+V) - dim(U intersect V)."""
    _check_pair(u, v)
    s = _sum_dim(u, v)
    inter = u.dim + v.dim - s
    return s - inter


def injection_distance(u: Subspace, v: Subspace) -> int:
    """max(dim U, dim V) - dim(U intersect V)."""
    _check_pair(u, v)
    s = _sum_dim(u, v)
    inter = u.dim + v.dim - s
    return max(u.dim, v.dim) - inter


def pairwise_min_distance(matrix: np.ndarray) -> int:
    """Minimum Hamming distance between the rows of a matrix of at least
    two distinct rows, one row against all later rows at a time."""
    best = matrix.shape[1] + 1
    for i in range(len(matrix) - 1):
        d = int(np.count_nonzero(matrix[i + 1:] != matrix[i], axis=1).min())
        if d < best:
            best = d
            if best == 1:
                break
    return best
