"""Dense linear algebra over GF(2) on plain 0/1 arrays.

Every public function takes matrices as 2-D and vectors as 1-D uint8 0/1
arrays (anything np.asarray turns into one) and returns plain uint8 arrays;
it raises ValueError on a matrix that is not 2-D and leaves its arguments
untouched.  Internally rows are packed into runs of 64-bit words
(little-endian bit order within a row), so row elimination is a
word-parallel XOR.  This is the substrate for OSD solves, code dimension
and residual classification, where matrices with a few thousand columns
get reduced over and over.
"""

from __future__ import annotations

import numpy as np

_ONE = np.uint64(1)


class Infeasible(Exception):
    """Raised when a linear system has no solution over GF(2)."""


def _pack_bits(a: np.ndarray) -> np.ndarray:
    """Pack a (rows, cols) 0/1 array into (rows, words) uint64."""
    a = np.ascontiguousarray(a, dtype=np.uint8) & 1
    rows, cols = a.shape
    words = (cols + 63) // 64
    out = np.zeros((rows, words * 8), dtype=np.uint8)
    if cols:
        b = np.packbits(a, axis=1, bitorder="little")
        out[:, : b.shape[1]] = b
    return np.ascontiguousarray(out).view(np.uint64)


def _unpack_bits(data: np.ndarray, cols: int) -> np.ndarray:
    """Inverse of _pack_bits; returns a (rows, cols) uint8 array."""
    rows = data.shape[0]
    if cols == 0:
        return np.zeros((rows, 0), dtype=np.uint8)
    as_bytes = np.ascontiguousarray(data).view(np.uint8)
    return np.unpackbits(as_bytes, axis=1, bitorder="little")[:, :cols].copy()


def _column_bits(data: np.ndarray, c: int) -> np.ndarray:
    return (data[:, c >> 6] >> np.uint64(c & 63)) & _ONE


def _eliminate(data, cols, col_order=None, aug=None):
    """In-place Gauss-Jordan sweep; returns [(pivot_row, pivot_col), ...].

    Pivot search walks columns in col_order (default: ascending) and always
    takes the topmost available row, so the reduction is deterministic.
    """
    m = data.shape[0]
    pivots = []
    r = 0
    order = range(cols) if col_order is None else col_order
    for c in order:
        if r == m:
            break
        colbits = _column_bits(data, c)
        cand = np.nonzero(colbits[r:])[0]
        if cand.size == 0:
            continue
        p = r + int(cand[0])
        if p != r:
            data[[r, p]] = data[[p, r]]
            if aug is not None:
                aug[[r, p]] = aug[[p, r]]
        mask = _column_bits(data, c).astype(bool)
        mask[r] = False
        if mask.any():
            data[mask] ^= data[r]
            if aug is not None:
                aug[mask] ^= aug[r]
        pivots.append((r, c))
        r += 1
    return pivots


# _eliminate_batch takes as many trials as keep its packed matrices within
# 4 MiB, so large codes do not hold a chunk's worth of copies at once.
_BATCH_BYTES = 1 << 22


def _eliminate_batch(rows, cols, nz_rows, nz_cols, S, orders):
    """Greedy-column solve of one block of trials, vectorized over the block.

    Each trial gets its own copy of M (built from M's nonzeros) with the
    columns permuted into its order, stored word-major: planes[b, k, i] is
    word k of row i, and the last plane holds the syndrome bits, so one XOR
    updates matrix and syndrome together.  Step r pivots every trial at
    once.  A column that was passed over is zero in rows r.. (it depends on
    the pivots above), so the trial's next pivot column is the lowest set
    bit in the OR of rows r.. .  That column is a pivot exactly when it is
    independent of the columns before it in the order, and x is unique on
    that basis, so the result equals solve_selected whatever row pivots.
    Every trial permutes the columns of the same M, so all of them run out
    of pivots at the same step, rank(M).  Returns (B, cols) uint8.
    """
    B = S.shape[0]
    w = (cols + 63) // 64
    pos = np.empty_like(orders)  # pos[b, c]: where column c sits in trial b's order
    np.put_along_axis(pos, orders, np.arange(cols), axis=1)
    nz_pos = pos[:, nz_cols]
    planes = np.zeros((B, w + 1, rows), dtype=np.uint64)
    # Each nonzero sets a distinct bit of its word, so adding the bits ORs them.
    words = (np.arange(B)[:, None] * (w + 1) + (nz_pos >> 6)) * rows + nz_rows
    np.add.at(planes.reshape(-1), words.ravel(), (_ONE << (nz_pos & 63).astype(np.uint64)).ravel())
    planes[:, w] = S & 1
    trials = np.arange(B)
    # Step r's pivot column is bit pivot_bit[b, r] of word pivot_word[b, r].
    pivot_word = np.empty((B, min(rows, cols)), dtype=np.intp)
    pivot_bit = np.empty((B, min(rows, cols)), dtype=np.uint64)
    r = 0
    while r < pivot_word.shape[1]:
        rest = np.bitwise_or.reduce(planes[:, :w, r:], axis=2)
        k = (rest != 0).argmax(axis=1)
        word = rest[trials, k]
        if not word.all():
            if word.any():
                raise RuntimeError("trials of one matrix reached different ranks")
            break
        bit = word & (0 - word)
        has = (planes[trials, k] & bit[:, None]) != 0
        p = r + has[:, r:].argmax(axis=1)
        # Clear the column from every row (the pivot row too), then swap
        # the saved pivot row into row r.
        pivot_row = planes[trials, :, p]
        planes ^= pivot_row[:, :, None] * has[:, None, :]
        planes[trials, :, p] = planes[:, :, r]
        planes[:, :, r] = pivot_row
        pivot_word[:, r] = k
        pivot_bit[:, r] = bit
        r += 1
    # Rows r.. of the reduced matrix are zero, so their syndrome bits must be too.
    if planes[:, w, r:].any():
        raise Infeasible("syndrome outside the column space")
    pivot_pos = 64 * pivot_word[:, :r] + np.bitwise_count(pivot_bit[:, :r] - _ONE)
    x = np.zeros((B, cols), dtype=np.uint8)
    x[trials[:, None], np.take_along_axis(orders, pivot_pos, axis=1)] = planes[:, w, :r]
    return x


def _matrix(M) -> np.ndarray:
    """M as a 2-D uint8 array; raises ValueError for any other shape."""
    a = np.asarray(M, dtype=np.uint8)
    if a.ndim != 2:
        raise ValueError("expected a 2-D 0/1 matrix")
    return a


def _reduce(M):
    """(packed RREF of M, pivot columns in ascending row order, column count)."""
    a = _matrix(M)
    data = _pack_bits(a)
    return data, [c for _, c in _eliminate(data, a.shape[1])], a.shape[1]


def row_reduce(M):
    """Reduced row-echelon form of M plus its pivot columns.

    Returns (reduced, pivot_cols): reduced is a uint8 array of M's shape
    whose first len(pivot_cols) rows are the pivot rows, and pivot_cols is
    in ascending row order.  The row space is preserved.
    """
    data, pivot_cols, cols = _reduce(M)
    return _unpack_bits(data, cols), pivot_cols


def rank(M) -> int:
    """GF(2) rank of M."""
    return len(_reduce(M)[1])


def solve_selected(M, s, col_order) -> np.ndarray:
    """Solve M·x = s with x supported on a greedily chosen column set.

    Columns are tried in col_order (a permutation of M's columns); the
    first maximal independent set wins and all other bits of x stay zero.
    s has one bit per row of M; returns x as a (cols,) uint8 array.
    Raises Infeasible when s is outside the column space.  This serial form
    is the reference that solve_selected_batch is tested against.
    """
    a = _matrix(M)
    rows, cols = a.shape
    s = np.asarray(s, dtype=np.uint8)
    if s.shape != (rows,):
        raise ValueError("syndrome length does not match row count")
    col_order = np.asarray(list(col_order), dtype=np.int64)
    if not np.array_equal(np.sort(col_order), np.arange(cols)):
        raise ValueError("col_order must be a permutation of the columns")
    aug = s & 1
    pivots = _eliminate(_pack_bits(a), cols, col_order=col_order, aug=aug)
    if aug[len(pivots):].any():
        raise Infeasible("syndrome outside the column space")
    x = np.zeros(cols, dtype=np.uint8)
    for r, c in pivots:
        x[c] = aug[r]
    return x


def solve_selected_batch(M, S, col_orders) -> np.ndarray:
    """solve_selected for a batch: row b of the result solves M·x = S[b]
    with x supported on the greedy column set of col_orders[b].

    S is (B, rows) 0/1 and col_orders is (B, cols), each row a permutation
    of the columns.  Returns (B, cols) uint8, equal row by row to
    solve_selected.  Raises Infeasible when any syndrome is outside the
    column space.
    """
    a = _matrix(M)
    rows, cols = a.shape
    S = np.asarray(S, dtype=np.uint8)
    orders = np.asarray(col_orders, dtype=np.intp)
    if S.ndim != 2 or S.shape[1] != rows:
        raise ValueError("syndrome batch does not match the row count")
    B = S.shape[0]
    if orders.shape != (B, cols):
        raise ValueError("need one column order per syndrome")
    if not (np.sort(orders, axis=1) == np.arange(cols)).all():
        raise ValueError("each col_order must be a permutation of the columns")
    nz_rows, nz_cols = np.nonzero(a & 1)
    block = max(1, _BATCH_BYTES // max(1, 8 * ((cols + 63) // 64 + 1) * rows))
    out = np.empty((B, cols), dtype=np.uint8)
    for lo in range(0, B, block):
        hi = min(lo + block, B)
        out[lo:hi] = _eliminate_batch(rows, cols, nz_rows, nz_cols, S[lo:hi], orders[lo:hi])
    return out


def kernel_basis(M) -> np.ndarray:
    """Basis of {v : M·v = 0} as the rows of a (cols - rank(M), cols) array."""
    reduced, pivot_cols = row_reduce(M)
    cols = reduced.shape[1]
    free = np.setdiff1d(np.arange(cols), pivot_cols)
    basis = np.zeros((free.shape[0], cols), dtype=np.uint8)
    basis[np.arange(free.shape[0]), free] = 1
    # Free column f's vector sets f and, on each pivot column, the pivot row's bit f.
    basis[:, np.array(pivot_cols, dtype=np.intp)] = reduced[: len(pivot_cols), free].T
    return basis


class RowSpanReducer:
    """Precomputed RREF of a matrix for repeated row-span membership tests."""

    def __init__(self, M):
        data, self.pivot_cols, self.cols = _reduce(M)
        self.rank = len(self.pivot_cols)
        self._pivot_rows = data[: self.rank].copy()

    def contains_batch(self, bits: np.ndarray) -> np.ndarray:
        """(batch,) bool: whether each row of a (batch, cols) 0/1 array lies
        in the row span."""
        bits = np.asarray(bits)
        if bits.ndim != 2 or bits.shape[1] != self.cols:
            raise ValueError("vector length does not match column count")
        w = _pack_bits(bits)
        for i, c in enumerate(self.pivot_cols):
            mask = _column_bits(w, c).astype(bool)
            if mask.any():
                w[mask] ^= self._pivot_rows[i]
        return ~w.any(axis=1) if w.shape[1] else np.ones(bits.shape[0], dtype=bool)
