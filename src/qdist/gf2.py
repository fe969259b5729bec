"""Dense linear algebra over GF(2) on plain 0/1 arrays.

Every public function takes matrices as 2-D and vectors as 1-D uint8 0/1
arrays (anything np.asarray turns into one) and returns plain uint8 arrays;
it raises ValueError on a matrix that is not 2-D and leaves its arguments
untouched.  Internally, everything runs on Python ints, one per row or
column with bit i for its column or row i (_int_rows packs them and
_bit_rows unpacks them), so each XOR is one integer operation however wide
the vector.  Row elimination (rank, row_reduce, kernel_basis,
solve_selected, RowSpanReducer) inserts each row into a basis keyed by
lowest set bit, then back-reduces once; RowSpanReducer.contains_batch
reduces each candidate the same way against the fully reduced rows.
OSD-0's greedy solve (SelectedSolver) inserts a trial's columns into an
XOR basis one at a time, so its trials stop as soon as they are solved.
This is the substrate for OSD solves, code dimension and residual
classification.
"""

from __future__ import annotations

import numpy as np


class Infeasible(Exception):
    """Raised when a linear system has no solution over GF(2)."""


def _int_rows(a: np.ndarray) -> list[int]:
    """Row i of a (rows, cols) 0/1 array as one Python int whose bit c is column c."""
    width = (a.shape[1] + 7) // 8
    packed = np.packbits(a & 1, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(packed[i * width : (i + 1) * width], "little") for i in range(a.shape[0])]


def _bit_rows(ints, cols: int) -> np.ndarray:
    """Inverse of _int_rows: a (len(ints), cols) uint8 0/1 array whose row i
    holds bits 0..cols-1 of ints[i]."""
    width = (cols + 7) // 8
    packed = np.frombuffer(b"".join(v.to_bytes(width, "little") for v in ints), dtype=np.uint8)
    return np.unpackbits(packed.reshape(len(ints), width), axis=1, count=cols, bitorder="little")


def _matrix(M) -> np.ndarray:
    """M as a 2-D uint8 array; raises ValueError for any other shape."""
    a = np.asarray(M, dtype=np.uint8)
    if a.ndim != 2:
        raise ValueError("expected a 2-D 0/1 matrix")
    return a


def _clear(v: int, basis: dict, pivots: int) -> int:
    """v with each of its bits in `pivots` cleared by XOR with basis[that bit].

    Each basis[p] named by `pivots` must hold bit p and no other bit of
    `pivots`, so every XOR clears one bit without setting another.
    """
    held = v & pivots
    while held:
        low = held & -held
        v ^= basis[low]
        held ^= low
    return v


def _reduce(a: np.ndarray) -> tuple[list[int], list[int]]:
    """(RREF pivot rows of the 2-D array a as Python ints, their pivot
    columns), both in ascending pivot column order.

    Each row, as a Python int, is inserted into a basis keyed by lowest set
    bit, its leading column: while its lowest bit is a key, it XORs that
    key's vector.  Back-reduction then runs from the highest key down, so
    every vector a row XORs with is already fully reduced and clears one of
    the row's pivot bits without setting another.  The RREF is unique, so
    neither the row order nor the pivot search order changes the result.
    """
    basis = {}
    for v in _int_rows(a):
        while v:
            low = v & -v
            p = basis.get(low)
            if p is None:
                basis[low] = v
                break
            v ^= p
    keys = sorted(basis)
    above = 0  # the pivot bits of the keys reduced so far
    for key in reversed(keys):
        basis[key] = _clear(basis[key], basis, above)
        above |= key
    return [basis[key] for key in keys], [key.bit_length() - 1 for key in keys]


def row_reduce(M):
    """Reduced row-echelon form of M plus its pivot columns.

    Returns (reduced, pivot_cols): reduced is a uint8 array of M's shape
    whose first len(pivot_cols) rows are the pivot rows, and pivot_cols is
    in ascending row order.  The row space is preserved.
    """
    a = _matrix(M)
    pivot_rows, pivot_cols = _reduce(a)
    reduced = np.zeros(a.shape, dtype=np.uint8)
    reduced[: len(pivot_cols)] = _bit_rows(pivot_rows, a.shape[1])
    return reduced, pivot_cols


def rank(M) -> int:
    """GF(2) rank of M."""
    return len(_reduce(_matrix(M))[1])


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
    pivot_rows, pivot_cols = _reduce(np.hstack([a[:, col_order], s[:, None]]))
    if pivot_cols and pivot_cols[-1] == cols:
        raise Infeasible("syndrome outside the column space")
    x = np.zeros(cols, dtype=np.uint8)
    x[col_order[pivot_cols]] = [v >> cols & 1 for v in pivot_rows]
    return x


class SelectedSolver:
    """M's columns as Python ints, built once, for repeated greedy solves on M.

    solve_batch solves one trial at a time by column insertion into an XOR
    basis.  Bit i of a column's int is its row i, and bit rows + c tags
    column c, so every basis vector carries the columns it is a sum of.
    Basis vectors are keyed by their lowest set bit, which is always a row
    bit and differs between any two of them, so a vector reduces to zero
    rows exactly when it lies in their span.  In a trial's order, a column
    whose rows reduce to zero depends on the pivots before it and is
    skipped; any other becomes a pivot.  The syndrome's residual is kept
    reduced the same way, again whenever a new pivot's key is its lowest
    bit, and the trial stops once its rows are zero: its tags are then x,
    the unique solution on the pivots so far, and every later pivot's
    coefficient is zero.  Its memory does not grow with the batch.
    """

    def __init__(self, M):
        a = _matrix(M)
        self.rows, self.cols = a.shape
        # Column c's rows, with its tag bit rows + c.
        self.columns = tuple(v | 1 << (self.rows + c) for c, v in enumerate(_int_rows(a.T)))

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
        # Every column must appear in every order, and no entry may fall
        # outside the columns: one max over the entries read as unsigned,
        # where a negative one (which would index from the end) is huge.
        seen = np.zeros((B, cols), dtype=bool)
        if orders.size and orders.view(np.uintp).max() < cols:
            seen[np.arange(B)[:, None], orders] = True
        if not seen.all():
            raise ValueError("each col_order must be a permutation of the columns")
        columns = self.columns
        row_bits = (1 << rows) - 1
        xs = []
        for b, r in enumerate(_int_rows(S)):
            low = r & -r
            basis = {}
            for c in memoryview(orders[b]) if r else ():  # a zero syndrome scans no column
                v = columns[c]
                lb = v & -v
                p = basis.get(lb)
                while p is not None:
                    v ^= p
                    lb = v & -v
                    p = basis.get(lb)
                if lb > row_bits:
                    continue  # its rows reduced to zero: it depends on the pivots
                basis[lb] = v
                if lb == low:
                    r ^= v
                    low = r & -r
                    p = basis.get(low)
                    while p is not None:
                        r ^= p
                        low = r & -r
                        p = basis.get(low)
                    if low > row_bits:
                        break
            else:
                if r:  # the order ran out with rows left in the residual
                    raise Infeasible("syndrome outside the column space")
            xs.append(r >> rows)
        return _bit_rows(xs, cols)


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
        a = _matrix(M)
        pivot_rows, self.pivot_cols = _reduce(a)
        self.cols = a.shape[1]
        self.rank = len(self.pivot_cols)
        # The fully reduced rows keyed by their pivot bit, in ascending order.
        self._rows = {1 << c: v for c, v in zip(self.pivot_cols, pivot_rows)}
        self._pivots = sum(self._rows)

    def contains_batch(self, bits: np.ndarray) -> np.ndarray:
        """(batch,) bool: whether each row of a (batch, cols) 0/1 array lies
        in the row span.  A row lies in it iff clearing its pivot bits
        against the reduced rows leaves nothing."""
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.ndim != 2 or bits.shape[1] != self.cols:
            raise ValueError("vector length does not match column count")
        rows, pivots = self._rows, self._pivots
        return np.array([not _clear(v, rows, pivots) for v in _int_rows(bits)], dtype=bool)
