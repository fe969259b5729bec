"""Bit-packed dense linear algebra over GF(2).

Rows are stored as runs of 64-bit words (little-endian bit order within a
row), so row elimination is a word-parallel XOR.  This is the substrate for
syndrome math, OSD solves, code dimension and residual classification, where
matrices with a few thousand columns get reduced over and over.

All public operations leave their arguments untouched.
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


class BitVector:
    """Fixed-length bit vector packed into uint64 words."""

    __slots__ = ("length", "words")

    def __init__(self, length: int, words: np.ndarray):
        self.length = length
        self.words = words

    @classmethod
    def from_array(cls, a) -> "BitVector":
        a = np.atleast_1d(np.asarray(a, dtype=np.uint8))
        return cls(a.shape[0], _pack_bits(a[None, :])[0])

    @classmethod
    def zeros(cls, length: int) -> "BitVector":
        return cls(length, np.zeros((length + 63) // 64, dtype=np.uint64))

    def to_array(self) -> np.ndarray:
        return _unpack_bits(self.words[None, :], self.length)[0]

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(f"bit {i} out of range for length {self.length}")
        return int((self.words[i >> 6] >> np.uint64(i & 63)) & _ONE)

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.length != other.length:
            raise ValueError("length mismatch in XOR")
        return BitVector(self.length, self.words ^ other.words)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitVector)
            and self.length == other.length
            and bool(np.array_equal(self.words, other.words))
        )

    def is_zero(self) -> bool:
        return not self.words.any()

    def weight(self) -> int:
        return int(np.bitwise_count(self.words).sum())

    def __repr__(self) -> str:
        return f"BitVector({''.join(map(str, self.to_array()))})"


class BitMatrix:
    """Dense GF(2) matrix with word-packed rows."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: np.ndarray):
        self.rows = rows
        self.cols = cols
        self.data = data  # (rows, ceil(cols/64)) uint64

    @classmethod
    def from_array(cls, a) -> "BitMatrix":
        a = np.asarray(a, dtype=np.uint8)
        if a.ndim != 2:
            raise ValueError("expected a 2-D array")
        return cls(a.shape[0], a.shape[1], _pack_bits(a))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols, np.zeros((rows, (cols + 63) // 64), dtype=np.uint64))

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls.from_array(np.eye(n, dtype=np.uint8))

    def to_array(self) -> np.ndarray:
        return _unpack_bits(self.data, self.cols)

    def copy(self) -> "BitMatrix":
        return BitMatrix(self.rows, self.cols, self.data.copy())

    def get(self, r: int, c: int) -> int:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"({r}, {c}) out of range for {self.rows}x{self.cols}")
        return int((self.data[r, c >> 6] >> np.uint64(c & 63)) & _ONE)

    def row(self, r: int) -> BitVector:
        return BitVector(self.cols, self.data[r].copy())

    def mul_vector(self, v: BitVector) -> BitVector:
        """Matrix-vector product M·v over GF(2)."""
        if v.length != self.cols:
            raise ValueError("vector length does not match column count")
        bits = np.bitwise_count(self.data & v.words[None, :]).sum(axis=1) & 1
        return BitVector.from_array(bits.astype(np.uint8))

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"


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


def row_reduce(M: BitMatrix):
    """Reduced row-echelon form of M plus its pivot columns.

    Returns (reduced, pivot_cols) with pivot columns in ascending row order;
    the row space is preserved and M itself is not modified.
    """
    data = M.data.copy()
    pivots = _eliminate(data, M.cols)
    return BitMatrix(M.rows, M.cols, data), [c for _, c in pivots]


def rank(M: BitMatrix) -> int:
    """GF(2) rank of M."""
    data = M.data.copy()
    return len(_eliminate(data, M.cols))


def in_row_span(M: BitMatrix, v: BitVector) -> bool:
    """True iff v is a GF(2) combination of the rows of M."""
    return RowSpanReducer(M).contains(v)


def solve_selected(M: BitMatrix, s: BitVector, col_order) -> BitVector:
    """Solve M·x = s with x supported on a greedily chosen column set.

    Columns are tried in col_order (a permutation of range(M.cols)); the
    first maximal independent set wins and all other bits of x stay zero.
    Raises Infeasible when s is outside the column space.  This serial form
    is the reference that solve_selected_batch is tested against.
    """
    if s.length != M.rows:
        raise ValueError("syndrome length does not match row count")
    col_order = np.asarray(list(col_order), dtype=np.int64)
    if not np.array_equal(np.sort(col_order), np.arange(M.cols)):
        raise ValueError("col_order must be a permutation of the columns")
    data = M.data.copy()
    aug = s.to_array()
    pivots = _eliminate(data, M.cols, col_order=col_order, aug=aug)
    nrank = len(pivots)
    if aug[nrank:].any():
        raise Infeasible("syndrome outside the column space")
    x = np.zeros(M.cols, dtype=np.uint8)
    for r, c in pivots:
        x[c] = aug[r]
    return BitVector.from_array(x)


def solve_selected_batch(M: BitMatrix, S, col_orders) -> np.ndarray:
    """solve_selected for a batch: row b of the result solves M·x = S[b]
    with x supported on the greedy column set of col_orders[b].

    S is (B, rows) 0/1 and col_orders is (B, cols), each row a permutation
    of the columns.  Returns (B, cols) uint8, equal row by row to
    solve_selected.  Raises Infeasible when any syndrome is outside the
    column space.
    """
    S = np.asarray(S, dtype=np.uint8)
    orders = np.asarray(col_orders, dtype=np.intp)
    if S.ndim != 2 or S.shape[1] != M.rows:
        raise ValueError("syndrome batch does not match the row count")
    B = S.shape[0]
    if orders.shape != (B, M.cols):
        raise ValueError("need one column order per syndrome")
    if not (np.sort(orders, axis=1) == np.arange(M.cols)).all():
        raise ValueError("each col_order must be a permutation of the columns")
    nz_rows, nz_cols = np.nonzero(M.to_array())
    block = max(1, _BATCH_BYTES // max(1, 8 * (M.data.shape[1] + 1) * M.rows))
    out = np.empty((B, M.cols), dtype=np.uint8)
    for a in range(0, B, block):
        b = min(a + block, B)
        out[a:b] = _eliminate_batch(M.rows, M.cols, nz_rows, nz_cols, S[a:b], orders[a:b])
    return out


def kernel_basis(M: BitMatrix) -> list[BitVector]:
    """Basis of {v : M·v = 0}; contains cols - rank(M) vectors."""
    reduced, pivot_cols = row_reduce(M)
    arr = reduced.to_array()
    pivot_set = set(pivot_cols)
    free_cols = [c for c in range(M.cols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        v = np.zeros(M.cols, dtype=np.uint8)
        v[fc] = 1
        for r, pc in enumerate(pivot_cols):
            v[pc] = arr[r, fc]
        basis.append(BitVector.from_array(v))
    return basis


class RowSpanReducer:
    """Precomputed RREF of a matrix for repeated row-span membership tests."""

    def __init__(self, M: BitMatrix):
        reduced, pivot_cols = row_reduce(M)
        self.cols = M.cols
        self.pivot_cols = pivot_cols
        self.pivot_rows = reduced.data[: len(pivot_cols)].copy()
        self.rank = len(pivot_cols)

    def contains(self, v: BitVector) -> bool:
        return bool(self.contains_batch(v.to_array()[None, :])[0])

    def contains_batch(self, bits: np.ndarray) -> np.ndarray:
        """Vectorized membership test for a (batch, cols) 0/1 array."""
        bits = np.asarray(bits)
        if bits.ndim != 2 or bits.shape[1] != self.cols:
            raise ValueError("vector length does not match column count")
        w = _pack_bits(bits)
        for i, c in enumerate(self.pivot_cols):
            mask = _column_bits(w, c).astype(bool)
            if mask.any():
                w[mask] ^= self.pivot_rows[i]
        return ~w.any(axis=1) if w.shape[1] else np.ones(bits.shape[0], dtype=bool)
