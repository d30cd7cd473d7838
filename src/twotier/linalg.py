"""Row reduction and rank over prime fields GF(p).

Matrices are numpy integer arrays with entries reduced mod p. Pivoting is
deterministic (first nonzero entry in column order) so reduced bases are
reproducible across runs. A digit vector packs into one integer,
``pack_digits``: its digits read in base p, lowest first, in the narrowest
unsigned dtype that holds them, so that sorting and comparing vectors is
sorting and comparing integers, and over GF(2) adding two is an XOR.
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
        ranks[start:start + block.shape[1]] = _forward(block, p)[1].sum(axis=0)
    return ranks


def packed_rank(packed, offset=None, basis=()) -> np.ndarray:
    """``batched_rank`` over GF(2) of N matrices whose rows are packed ints.

    Column n of the (rows, N) array `packed` holds the ``pack_digits`` rows
    of matrix n, so that adding two rows is an XOR. `offset` is one packed
    row per matrix row, and `basis` a ``packed_basis`` of rank a, so that
    the rank returned is ``rank([basis; M ^ offset]) - a``. The offset and
    basis rows are in the dtype of `packed`, or Python ints that fit it.
    Returns an int64 array of N ranks.
    """
    rows, n = packed.shape
    ranks = np.empty(n, dtype=np.int64)
    if offset is not None:
        offset = offset[:, None]
    per = _per_block(rows)
    for start in range(0, n, per):
        block = packed[:, start:start + per]
        block = block.copy() if offset is None else block ^ offset
        _xor_min(block, basis)
        # summing as int16 (a rank fits) is twice as fast as count_nonzero
        ranks[start:start + block.shape[1]] = (_echelon(block) != 0).sum(axis=0, dtype=np.int16)
    return ranks


def packed_basis(rows) -> tuple:
    """A basis of the span of packed GF(2) rows, for ``packed_rank``: the
    nonzero rows of their ``_echelon``, as Python ints, so its length is
    their rank. A few rows are echelonised faster one int at a time than
    as numpy columns."""
    basis = []
    for x in rows:
        x = int(x)
        for b in basis:
            x = min(x, x ^ b)
        if x:
            basis.append(x)
    return tuple(basis)


def span_basis(rows, p: int) -> tuple:
    """(basis, a): the ``rref`` of digit rows over GF(p), p odd, the basis
    of their span that ``batched_rank`` takes, and its rank a. Over GF(2)
    the ``packed_basis`` of their ``pack_digits`` integers serves."""
    basis = rref(rows, p)
    return basis, len(basis[1])


def packed_rref(packed) -> np.ndarray:
    """The reduced echelon form over GF(2) of N matrices whose rows are
    packed ints, the columns of the (rows, N) array `packed`.

    Returns a new (rows, N) array: column n holds the rows of matrix n
    reduced so that each pivot (a highest set bit, as in ``_echelon``) is
    set in its own row only, in increasing order, so zero rows come first.
    Two columns are equal exactly when their rows span the same space, and
    a column has a zero row exactly when its rows are dependent.
    """
    block = _echelon(packed.copy())
    # Back substitution, last row first: row i is clear of the pivots
    # before it (_echelon) and after it (cleared already), so clearing its
    # pivot from the rows before it disturbs no other pivot.
    for i in range(len(block) - 1, 0, -1):
        _xor_min(block[:i], block[i:i + 1])
    # a sorting network: each pass carries the largest of the rows left to the end
    for end in range(len(block) - 1, 0, -1):
        for i in range(end):
            low = np.minimum(block[i], block[i + 1])
            np.maximum(block[i], block[i + 1], out=block[i + 1])
            block[i] = low
    return block


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


def _forward(block, p: int):
    """Forward elimination of a (rows, n, width) int16 block of n matrices, in place.

    Row i is reduced against the rows before it, each of which is stored
    normalised (leading digit 1) and reduced against its own predecessors,
    so one pass in row order clears every earlier pivot column: each row is
    zero at the pivot of every row before it. A dependent row becomes zero
    and clears nothing. Returns (lead, found), (rows, n) arrays of each
    row's pivot column and whether the row is nonzero.
    """
    rows, n, _ = block.shape
    inverse = _inverses(p)
    at = np.arange(n)
    lead = np.zeros((rows, n), dtype=np.intp)
    found = np.zeros((rows, n), dtype=bool)
    for i in range(rows):
        x = block[i]
        for j in range(i):
            x = _mod(x - x[at, lead[j]][:, None] * block[j], p)
        lead[i] = (x != 0).argmax(axis=1)
        pivot = x[at, lead[i]]
        found[i] = pivot != 0
        if p != 2:
            # over GF(2) every pivot is already 1, or the row is zero
            x = _mod(x * inverse[pivot][:, None], p)
        block[i] = x
    return lead, found


def batched_rref(stack, p: int):
    """RREF over GF(p) of every matrix in an (N, rows, width) stack of digits in [0, p).

    Returns (reduced, ranks): an (N, rows, width) int16 stack whose first
    rank rows of each matrix are the nonzero rows of its ``rref``, in pivot
    order, followed by zero rows, and an array of N ranks.
    """
    # (rows, n, width): each row of the n matrices is one slab, reduced in place
    block = np.asarray(stack).transpose(1, 0, 2).astype(np.int16)
    rows, n, width = block.shape
    lead, found = _forward(block, p)
    at = np.arange(n)
    # Back substitution, last pivot first: row i is zero at the pivots
    # before it (forward) and after it (cleared already), so clearing its
    # pivot column from the rows before it disturbs no other pivot column.
    for i in range(rows - 1, 0, -1):
        for j in range(i):
            block[j] = _mod(block[j] - block[j][at, lead[i]][:, None] * block[i], p)
    if rows > 1:
        # rows in pivot order, zero rows last
        order = np.argsort(np.where(found, lead, width), axis=0, kind="stable")
        block = block[order, at]
    return block.transpose(1, 0, 2), found.sum(axis=0)


@functools.cache
def _powers(p: int) -> np.ndarray:
    """uint64 powers of p for the most base-p digits whose value fits in
    one uint64 (shared: read-only)."""
    per = 1
    while p ** (per + 1) <= 2 ** 64:
        per += 1
    return _read_only(p ** np.arange(per, dtype=np.uint64))


def pack_digits(digits, p: int) -> np.ndarray:
    """The digit vectors along the last axis as integers: (..., width) -> (...).

    A vector d becomes sum_c d_c p^c, so two vectors are equal exactly when
    their integers are, and over GF(2) digit c is bit c, so that adding two
    rows is an XOR of their integers. The integers are of the narrowest
    unsigned dtype that holds p^width - 1, uint8 to uint64, and Python ints
    (dtype object) above 64 bits.
    """
    digits = np.asarray(digits)
    shape, width = digits.shape[:-1], digits.shape[-1]
    itemsize = _itemsize(p ** width)
    if p == 2:
        # each row padded with zeros to whole items, or to whole 64-bit
        # words, so that one flat packbits puts every row in its own item
        padded = np.zeros(shape + (8 * (itemsize or -(-width // 64) * 8),), dtype=np.uint8)
        padded[..., :width] = digits
        octets = np.packbits(padded, bitorder="little")
        if itemsize:
            return octets.view(f"<u{itemsize}").astype(f"u{itemsize}", copy=False).reshape(shape)
        words, per = octets.view("<u8").reshape(shape + (-1,)), 64
    else:
        powers = _powers(p)
        if itemsize:
            return (digits.astype(np.uint64) @ powers[:width]).astype(f"u{itemsize}", copy=False)
        per = len(powers)
        words = np.stack([digits[..., start:start + per].astype(np.uint64) @ powers[:width - start]
                          for start in range(0, width, per)], axis=-1)
    # above 64 bits: the words of `per` digits each, summed as Python ints
    return pack_words(words, p, per)


def pack_words(words, p: int, per: int) -> np.ndarray:
    """The integers along the last axis as one integer each: (..., count) -> (...).

    Each word holds `per` base-p digits, lowest word first, so the result
    is ``pack_digits`` of the words' digits side by side, in the same
    dtype: sum_w words_w p^(per w).
    """
    count = words.shape[-1]
    itemsize = _itemsize(p ** (per * count))
    if itemsize:
        packed = np.zeros(words.shape[:-1], dtype=np.uint64)
        for w in range(count):
            packed += words[..., w].astype(np.uint64) * np.uint64(p ** (per * w))
        return packed.astype(f"u{itemsize}", copy=False)
    packed = words[..., 0].astype(object)
    for w in range(1, count):
        packed += words[..., w].astype(object) * p ** (per * w)
    return packed


def _itemsize(count: int):
    """Bytes of the narrowest unsigned dtype, up to 8, that holds
    count - 1, or None when none does."""
    return next((n for n in (1, 2, 4, 8) if 256 ** n >= count), None)


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
