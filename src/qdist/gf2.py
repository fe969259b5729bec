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


def _eliminate(data, cols):
    """In-place Gauss-Jordan sweep; returns [(pivot_row, pivot_col), ...].

    Pivot search walks columns in ascending order and always takes the
    topmost available row, so the reduction is deterministic.
    """
    m = data.shape[0]
    pivots = []
    r = 0
    for c in range(cols):
        if r == m:
            break
        colbits = _column_bits(data, c)
        cand = np.nonzero(colbits[r:])[0]
        if cand.size == 0:
            continue
        p = r + int(cand[0])
        if p != r:
            data[[r, p]] = data[[p, r]]
        mask = _column_bits(data, c).astype(bool)
        mask[r] = False
        if mask.any():
            data[mask] ^= data[r]
        pivots.append((r, c))
        r += 1
    return pivots


# SelectedSolver.block_trials gives how many trials keep their working set
# (SelectedSolver.trial_bytes each, plus what the caller adds) within 2 MiB;
# a caller that solves in blocks of that many keeps memory from growing
# with the batch.  That is below the 2.25 MiB of a full-width BP workspace
# (decoder._WIDTH_BYTES): freeing that one large allocation raises glibc's
# mmap and trim thresholds to its size, so a block's arrays come from the
# heap and return to it instead of faulting in fresh pages on every call.
_BATCH_BYTES = 1 << 21


def _step_bytes(rows, cols):
    """Bytes per trial of _eliminate_batch's step work: one XOR operand the
    size of the trial's planes, and its pivot records."""
    return 8 * (cols // 64 + 1) * rows + 16 * min(rows, cols)


def _eliminate_batch(rows, cols, nz_rows, nz_cols, S, orders, pos):
    """Greedy-column solve of one block of trials, vectorized over the block.

    Each trial gets its own copy of [M | s] (M built from its nonzeros)
    with M's columns permuted into its order (pos[b, c] is where column c
    sits in trial b's order) and s as column `cols`, last in every order.
    Rows are packed word-major: planes[j, k, i] is word k of row i in slot
    j, so one XOR updates matrix and syndrome together.  Step r pivots every
    running trial at once.  A column that was passed over is zero in rows
    r.. (it depends on the pivots above), so a trial's next pivot column is
    the lowest set bit in the OR of rows r.. .  That column is a pivot
    exactly when it is independent of the columns before it in the order,
    and x is unique on that basis, so the result equals solve_selected
    whatever row pivots.  Each step stores only the pivot's word index and
    bit; the positions in the order are computed once, after the loop.

    A trial stops at the first step whose syndrome bits in rows r.. are all
    zero.  Every later pivot row would carry syndrome bit 0, so its XORs
    could not change the coefficients already on the pivots.  Its slot is
    swapped past the running ones, which later steps alone touch, and all
    coefficients are read off at the end.  Every trial permutes the columns
    of the same M, so the running ones run out of pivots in M at the same
    step, rank(M), and slot 0 alone tells when: if its next pivot would be
    s itself, every running syndrome is outside M's column space, and the
    solve raises Infeasible.  Returns (B, cols) uint8.
    """
    B = S.shape[0]
    w = cols // 64 + 1  # words per row of [M | s]
    planes = np.zeros((B, w, rows), dtype=np.uint64)
    # The (trial, nonzero) word and bit indices are built for as many trials
    # at a time as fit in the bytes that the steps' XOR operand and pivot
    # records take later, so they do not raise the block's peak memory.
    part = max(1, B * _step_bytes(rows, cols) // (16 * max(1, nz_cols.shape[0])))
    for lo in range(0, B, part):
        nz_pos = pos[lo : lo + part].take(nz_cols, axis=1)  # C order, so ravel copies nothing
        # Each nonzero sets a distinct bit of its word, so adding the bits ORs them.
        words = nz_pos >> 6  # built in place, which keeps OSD's peak memory low
        words += np.arange(lo, lo + nz_pos.shape[0])[:, None] * w
        words *= rows
        words += nz_rows
        bits = np.bitwise_and(nz_pos, 63, out=nz_pos).view(np.uint64)  # nz_pos >= 0
        np.left_shift(_ONE, bits, out=bits)
        np.add.at(planes.reshape(-1), words.ravel(), bits.ravel())
    s_word, s_bit = cols >> 6, _ONE << np.uint64(cols & 63)
    planes[:, s_word] |= (S & 1).astype(np.uint64) * s_bit
    slots = np.arange(B)
    slot_words = slots * w  # flat index of each slot's first word in a (B, w) array
    trial = slots.copy()  # slot j holds trial[j]; slots :running are still running
    # Step r's pivot in slot j is bit pivot_bit[j, r] of word pivot_k[j, r].
    pivot_k = np.empty((B, min(rows, cols)), dtype=np.intp)
    pivot_bit = np.empty((B, min(rows, cols)), dtype=np.uint64)
    running = B
    r = 0
    while True:
        rest = np.bitwise_or.reduce(planes[:running, :, r:], axis=2)
        unsolved = rest[:, s_word] & s_bit
        if np.count_nonzero(unsolved) < running:
            go = np.flatnonzero(unsolved)
            running = go.size
            if not running:
                break
            # Swap the stopped slots below the new end with running ones past it.
            holes, movers = np.flatnonzero(unsolved[:running] == 0), go[go >= running]
            dst, src = np.concatenate([holes, movers]), np.concatenate([movers, holes])
            planes[dst] = planes[src]
            pivot_k[dst, :r] = pivot_k[src, :r]
            pivot_bit[dst, :r] = pivot_bit[src, :r]
            trial[dst] = trial[src]
            rest[holes] = rest[movers]
            rest = rest[:running]
        block = planes[:running]
        k = (rest != 0).argmax(axis=1)
        at = k + slot_words[:running]
        bit = rest.take(at)
        bit &= 0 - bit
        if k[0] == s_word and bit[0] == s_bit:
            raise Infeasible("syndrome outside the column space")
        col = block.reshape(-1, rows).take(at, axis=0)
        col &= bit[:, None]
        has = col.astype(bool)
        p = has[:, r:].argmax(axis=1)
        p += r
        # Clear the column from every row (the pivot row too), then swap
        # the saved pivot row into row r.
        run = slots[:running]
        pivot_row = block[run, :, p]
        block ^= pivot_row[:, :, None] * has[:, None, :]
        block[run, :, p] = block[:, :, r]
        block[:, :, r] = pivot_row
        pivot_k[:running, r] = k
        pivot_bit[:running, r] = bit
        r += 1
    # A trial that stopped at step r' has syndrome bits 0 in rows r'.., so
    # each set bit in rows :r is the coefficient of a pivot it found.
    j, i = np.nonzero(planes[:, s_word, :r] & s_bit)
    at = 64 * pivot_k[j, i] + np.bitwise_count(pivot_bit[j, i] - _ONE)
    x = np.zeros((B, cols), dtype=np.uint8)
    x[trial[j], orders[trial[j], at]] = 1
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
    is the reference that SelectedSolver.solve_batch is tested against.
    """
    a = _matrix(M)
    rows, cols = a.shape
    s = np.asarray(s, dtype=np.uint8)
    if s.shape != (rows,):
        raise ValueError("syndrome length does not match row count")
    col_order = np.asarray(list(col_order), dtype=np.int64)
    if not np.array_equal(np.sort(col_order), np.arange(cols)):
        raise ValueError("col_order must be a permutation of the columns")
    # Reduce [M | s] with M's columns in col_order: s is solvable iff its
    # column is no pivot, and then x on each pivot is the pivot row's s bit.
    data, pivot_cols, _ = _reduce(np.hstack([a[:, col_order], s[:, None]]))
    if pivot_cols and pivot_cols[-1] == cols:
        raise Infeasible("syndrome outside the column space")
    x = np.zeros(cols, dtype=np.uint8)
    x[col_order[pivot_cols]] = _column_bits(data[: len(pivot_cols)], cols)
    return x


class SelectedSolver:
    """M's nonzero layout, built once, for repeated batched greedy solves on M.

    solve_batch eliminates its whole batch together, and each trial leaves
    at the first pivot step that leaves its syndrome solved, so a batch
    costs about what its slowest trials need.  Its memory grows with the
    batch: a caller bounds it by passing at most block_trials() trials.
    """

    def __init__(self, M):
        a = _matrix(M)
        self.rows, self.cols = a.shape
        # Row-major nonzeros, as np.nonzero gives them; it is several times
        # slower on a 2-D array than flatnonzero on a flat bool view.
        self.nz_rows, self.nz_cols = np.divmod(np.flatnonzero((a & 1).view(bool)), max(self.cols, 1))
        self.nz_rows.setflags(write=False)
        self.nz_cols.setflags(write=False)
        # Bytes per trial in a block at _eliminate_batch's peak: the planes,
        # a step's XOR operand and the pivot records (or the indices that
        # build the planes, in as many bytes), pos and the result row.
        self.trial_bytes = 8 * (self.cols // 64 + 1) * self.rows + _step_bytes(self.rows, self.cols) + 9 * self.cols

    def block_trials(self, extra_bytes: int = 0) -> int:
        """Trials per solve_batch call that keep its working set, with
        extra_bytes per trial of the caller's, within _BATCH_BYTES."""
        return max(1, _BATCH_BYTES // (self.trial_bytes + extra_bytes))

    def solve_batch(self, S, col_orders) -> np.ndarray:
        """Row b of the result solves M·x = S[b] with x supported on the
        greedy column set of col_orders[b].

        S is (B, rows) 0/1 and col_orders is (B, cols), each row a
        permutation of the columns.  Returns (B, cols) uint8, equal row by
        row to solve_selected.  Raises Infeasible when any syndrome is
        outside the column space.
        """
        rows, cols = self.rows, self.cols
        S = np.asarray(S, dtype=np.uint8)
        orders = np.asarray(col_orders, dtype=np.intp)
        if S.ndim != 2 or S.shape[1] != rows:
            raise ValueError("syndrome batch does not match the row count")
        B = S.shape[0]
        if orders.shape != (B, cols):
            raise ValueError("need one column order per syndrome")
        if not B:
            return np.zeros((0, cols), dtype=np.uint8)
        # pos[b, c]: where column c sits in order b.  It stays -1 for a
        # column that an order leaves out, as a repeated entry does, and
        # everywhere if an entry is out of range.
        pos = np.full((B, cols), -1, dtype=np.intp)
        if not orders.size or (orders.min() >= 0 and orders.max() < cols):
            np.put_along_axis(pos, orders, np.arange(cols), axis=1)
        if (pos < 0).any():
            raise ValueError("each col_order must be a permutation of the columns")
        return _eliminate_batch(rows, cols, self.nz_rows, self.nz_cols, S, orders, pos)


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
        # The rows are fully reduced: a row's coefficient on pivot i is its bit in pivot column i.
        coef = bits[:, self.pivot_cols] & 1 != 0
        for i in np.flatnonzero(coef.any(axis=0)).tolist():
            np.bitwise_xor(w, self._pivot_rows[i], out=w, where=coef[:, i, None])
        return ~w.any(axis=1) if w.shape[1] else np.ones(bits.shape[0], dtype=bool)
