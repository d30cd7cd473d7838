"""Row reduction and rank over prime fields GF(p).

Matrices are numpy integer arrays with entries reduced mod p. Pivoting is
deterministic (first nonzero entry in column order) so reduced bases are
reproducible across runs.
"""

import functools

import numpy as np

# Matrix rows per elimination block in batched_rank and packed_rank. It
# bounds the kernels' temporaries to a few copies of one block, whatever the
# stack size.
RANK_CHUNK = 1 << 15


def as_array(rows, p: int) -> np.ndarray:
    mat = np.array(rows, dtype=np.int64)
    if mat.ndim == 1:
        mat = mat.reshape(1, -1)
    return mat % p


def rref(rows, p: int):
    """Reduced row echelon form; returns (matrix, pivot column tuple)."""
    mat = as_array(rows, p).copy()
    n_rows, n_cols = mat.shape
    pivots = []
    r = 0
    for c in range(n_cols):
        if r >= n_rows:
            break
        hit = None
        for i in range(r, n_rows):
            if mat[i, c]:
                hit = i
                break
        if hit is None:
            continue
        if hit != r:
            mat[[r, hit]] = mat[[hit, r]]
        inv = pow(int(mat[r, c]), -1, p)
        mat[r] = (mat[r] * inv) % p
        for i in range(n_rows):
            if i != r and mat[i, c]:
                mat[i] = (mat[i] - mat[i, c] * mat[r]) % p
        pivots.append(c)
        r += 1
    return mat, tuple(pivots)


def rank(rows, p: int) -> int:
    mat = as_array(rows, p)
    if mat.size == 0:
        return 0
    _, pivots = rref(mat, p)
    return len(pivots)


def batched_rank(stack, p: int, offset=None, basis=None) -> np.ndarray:
    """Rank over GF(p) of every matrix in an (N, rows, width) stack of digits in [0, p).

    Each matrix M is first replaced by ``offset - M`` when an offset matrix
    is given, and then reduced against ``basis``, an ``rref`` result
    (matrix, pivots) of rank a, so that the rank returned is
    ``rank([basis; M]) - a``. Returns an int64 array of N ranks.
    """
    stack = np.asarray(stack)
    ranks = np.empty(len(stack), dtype=np.int64)
    inverse = _inverses(p)
    if offset is not None:
        offset = np.asarray(offset, dtype=np.int16)[:, None, :]
    red, pivots = ((), ()) if basis is None else basis
    red = np.asarray(red, dtype=np.int16)
    per = _per_block(stack.shape[1])
    for start in range(0, len(stack), per):
        # (rows, n, width): each row of the n matrices is one contiguous slab
        block = stack[start:start + per].transpose(1, 0, 2).astype(np.int16, order="C")
        if offset is not None:
            block = _mod(offset - block, p)
        # M - M[:, P] @ R, one pivot at a time: row k of the RREF is zero in
        # every other pivot column, so each step clears its own column only
        for k, col in enumerate(pivots):
            block = _mod(block - block[:, :, col, None] * red[k], p)
        ranks[start:start + block.shape[1]] = _eliminate(block, p, inverse)
    return ranks


def packed_rank(keys, ids, offset=None, basis=()) -> np.ndarray:
    """``batched_rank`` over GF(2) of N matrices whose rows are packed ints.

    Row i of matrix n is ``keys[ids[i, n]]``, a ``pack_bits`` row, so that
    adding two rows is an XOR; a table of distinct rows lets each be
    reduced against the basis once. `offset` is one packed row per matrix
    row, and `basis` a ``packed_basis`` of rank a, so that the rank returned
    is ``rank([basis; M ^ offset]) - a``. Returns an int64 array of N ranks.
    """
    ids = np.asarray(ids)
    rows, n = ids.shape
    ranks = np.empty(n, dtype=np.int64)
    # reducing against the basis is linear, so the offset is reduced apart
    keys = _xor_min(np.array(keys), basis)
    if offset is not None:
        offset = _xor_min(np.array(offset), basis)[:, None]
    per = _per_block(rows)
    for start in range(0, n, per):
        block = keys.take(ids[:, start:start + per])
        if offset is not None:
            block ^= offset
        # summing as int16 (a rank fits) is twice as fast as count_nonzero
        ranks[start:start + block.shape[1]] = (_echelon(block) != 0).sum(axis=0, dtype=np.int16)
    return ranks


def packed_basis(rows) -> tuple:
    """A basis of the span of packed GF(2) rows, for ``packed_rank``: the
    nonzero rows of their ``_echelon``, so its length is their rank."""
    return tuple(x for x in _echelon(np.array(rows)[:, None])[:, 0].tolist() if x)


def _echelon(block):
    """Reduces each row of a (rows, n) block of packed GF(2) rows against
    the rows before it, in place, and returns the block.

    A row's pivot is its highest set bit. Each reduced row is clear of the
    pivots of the rows before it, so its own pivot is new unless it is
    zero, and the nonzero rows of each column are independent.
    """
    for i in range(1, len(block)):
        _xor_min(block[i], block[:i])
    return block


def _xor_min(x, rows):
    """Reduces the array x in place by each row in turn, and returns it:
    x ^ b where that is smaller than x, which is where x has b's highest
    set bit. A zero row changes nothing, so no pivot is looked up or masked."""
    for b in rows:
        np.minimum(x, x ^ b, out=x)
    return x


def _per_block(rows: int) -> int:
    """Matrices of `rows` rows per kernel block: RANK_CHUNK rows, and at
    least one matrix."""
    return max(1, RANK_CHUNK // max(rows, 1))


@functools.cache
def _inverses(p: int) -> np.ndarray:
    """inverse[x] is x^-1 in GF(p), and inverse[0] = 0 (shared: read-only)."""
    return _read_only(np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=np.int16))


def _eliminate(block, p: int, inverse) -> np.ndarray:
    """Ranks of a (rows, n, width) int16 block of n matrices; overwrites the block.

    Row i is reduced against the rows before it, each of which is stored
    normalised (leading digit 1) and reduced against its own predecessors,
    so one pass in row order clears every earlier pivot column. A dependent
    row becomes zero and clears nothing. The last row is only tested.
    """
    rows, n, _ = block.shape
    at = np.arange(n)
    lead = np.zeros((rows, n), dtype=np.intp)
    rank = np.zeros(n, dtype=np.int64)
    for i in range(rows):
        x = block[i]
        for j in range(i):
            x = _mod(x - x[at, lead[j]][:, None] * block[j], p)
        nonzero = x != 0
        rank += nonzero.any(axis=1)
        if i + 1 < rows:
            lead[i] = nonzero.argmax(axis=1)
            block[i] = _mod(x * inverse[x[at, lead[i]]][:, None], p)
    return rank


def batched_rref(stack, p: int):
    """RREF over GF(p) of every matrix in an (N, rows, width) stack of digits in [0, p).

    Returns (reduced, ranks): an (N, rows, width) int16 stack whose first
    rank rows of each matrix are the nonzero rows of its ``rref``, in pivot
    order, followed by zero rows, and an array of N ranks.
    """
    # (rows, n, width): each row of the n matrices is one slab, reduced in place
    block = np.asarray(stack).transpose(1, 0, 2).astype(np.int16)
    rows, n, width = block.shape
    inverse = _inverses(p)
    at = np.arange(n)
    lead, found = [], []
    # As in _eliminate, row i is reduced against the normalised rows before
    # it; then its own pivot column is cleared from them, so the rows seen
    # so far are always reduced against each other. A dependent row becomes
    # zero, normalises to zero and clears nothing.
    for i in range(rows):
        x = block[i]
        for j in range(i):
            x = _mod(x - x[at, lead[j]][:, None] * block[j], p)
        lead.append((x != 0).argmax(axis=1))
        pivot = x[at, lead[i]]
        found.append(pivot != 0)
        if p != 2:
            # over GF(2) every pivot is already 1, or the row is zero
            x = _mod(x * inverse[pivot][:, None], p)
        for j in range(i):
            block[j] = _mod(block[j] - block[j][at, lead[i]][:, None] * x, p)
        block[i] = x
    if rows > 1:
        # rows in pivot order, zero rows last
        order = np.argsort(np.where(found, lead, width), axis=0, kind="stable")
        block = block[order, at]
    return block.transpose(1, 0, 2), sum(found)


@functools.cache
def _word_radix(p: int) -> np.ndarray:
    """Powers of p for the most base-p digits whose value fits in an int64
    (shared: read-only)."""
    per = 1
    while p ** (per + 1) <= 2 ** 63:
        per += 1
    return _read_only(p ** np.arange(per, dtype=np.int64))


def pack_keys(digits, p: int) -> np.ndarray:
    """int64 keys of the digit vectors along the last axis: (..., width) -> (..., words).

    Each word holds as many base-p digits as fit, low first, so two
    vectors are equal exactly when their keys are.
    """
    radix = _word_radix(p)
    per, width = len(radix), digits.shape[-1]
    keys = np.empty(digits.shape[:-1] + (-(-width // per),), dtype=np.int64)
    for w, start in enumerate(range(0, width, per)):
        keys[..., w] = digits[..., start:start + per] @ radix[:width - start]
    return keys


def pack_bits(digits) -> np.ndarray:
    """Packed GF(2) rows of the digit vectors along the last axis: (..., width) -> (...).

    Digit c is bit c of one integer, so that adding two rows is an XOR of
    their integers: int64 up to 63 digits, Python ints (dtype object) above.
    """
    words = pack_keys(np.asarray(digits), 2)
    packed = words[..., 0]
    if words.shape[-1] > 1:
        packed = packed.astype(object)
        for w in range(1, words.shape[-1]):
            packed |= words[..., w].astype(object) << 63 * w
    return packed


def unpack_keys(keys, p: int, width: int) -> np.ndarray:
    """The digit vectors of width `width` that ``pack_keys`` turned into `keys`."""
    digits = keys[..., None] // _word_radix(p) % p
    return digits.reshape(keys.shape[:-1] + (-1,))[..., :width]


def sorted_runs(keys):
    """(order, starts) of an (M, words) key array.

    ``order`` sorts the keys stably, so equal keys keep their original
    order; ``starts`` are the positions in it where a run of equal keys
    begins.
    """
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    new = np.ones(len(ranked), dtype=bool)
    new[1:] = ranked[1:, 0] != ranked[:-1, 0]
    for word in range(1, keys.shape[1]):
        new[1:] |= ranked[1:, word] != ranked[:-1, word]
    return order, new.nonzero()[0]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _mod(x, p: int):
    """x mod p for an integer array; numpy divides a small-int array by a
    scalar many times faster than it takes the remainder."""
    return x - p * (x // p)


def basis_rows(rows, p: int):
    """Nonzero RREF rows as a tuple of int tuples (canonical basis)."""
    mat, pivots = rref(rows, p)
    return tuple(tuple(int(x) for x in mat[i]) for i in range(len(pivots)))


def kernel_basis(mat, p: int):
    """Basis of the right kernel {x : mat @ x = 0} as row tuples."""
    a = as_array(mat, p)
    red, pivots = rref(a, p)
    n_cols = a.shape[1]
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * n_cols
        v[fc] = 1
        for i, c in enumerate(pivots):
            v[c] = int(-red[i, fc]) % p
        basis.append(tuple(v))
    return basis
