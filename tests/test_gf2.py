"""GF(2) layer tests: every nontrivial result is checked against an
independent brute-force oracle (exhaustive row-span enumeration or direct
multiplication), never against the implementation under test."""

import numpy as np
import pytest

from qdist import gf2


def span_set(rows):
    """All 2^r GF(2) combinations of the given rows, as byte tuples."""
    rows = np.asarray(rows, dtype=np.uint8)
    out = set()
    for mask in range(1 << rows.shape[0]):
        acc = np.zeros(rows.shape[1], dtype=np.uint8)
        for i in range(rows.shape[0]):
            if (mask >> i) & 1:
                acc ^= rows[i]
        out.add(acc.tobytes())
    return out


def brute_rank(rows):
    return int(np.log2(len(span_set(rows))))


def test_rank_identity_and_zero():
    assert gf2.rank(gf2.BitMatrix.identity(3)) == 3
    assert gf2.rank(gf2.BitMatrix.zeros(4, 6)) == 0


def test_rank_against_enumeration_oracle():
    rng = np.random.default_rng(7)
    for _ in range(30):
        a = rng.integers(0, 2, size=(6, 8), dtype=np.uint8)
        assert gf2.rank(gf2.BitMatrix.from_array(a)) == brute_rank(a)


def test_rank_wide_matrix_crosses_word_boundary():
    rng = np.random.default_rng(11)
    a = rng.integers(0, 2, size=(8, 200), dtype=np.uint8)
    assert gf2.rank(gf2.BitMatrix.from_array(a)) == brute_rank(a)


def test_row_reduce_identity():
    r, pivots = gf2.row_reduce(gf2.BitMatrix.identity(4))
    assert np.array_equal(r.to_array(), np.eye(4, dtype=np.uint8))
    assert pivots == [0, 1, 2, 3]


def test_row_reduce_duplicate_rows():
    m = gf2.BitMatrix.from_array([[1, 1], [1, 1]])
    r, pivots = gf2.row_reduce(m)
    assert np.array_equal(r.to_array(), [[1, 1], [0, 0]])
    assert pivots == [0]


def test_row_reduce_preserves_row_space():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.integers(0, 2, size=(5, 7), dtype=np.uint8)
        m = gf2.BitMatrix.from_array(a)
        r, _ = gf2.row_reduce(m)
        assert span_set(a) == span_set(r.to_array())
        # Input untouched.
        assert np.array_equal(m.to_array(), a)


def test_in_row_span_trivial_cases():
    m = gf2.BitMatrix.identity(3)
    span = gf2.RowSpanReducer(m)
    assert span.contains(gf2.BitVector.zeros(3))
    assert span.contains(gf2.BitVector.from_array([1, 0, 1]))


def test_in_row_span_against_enumeration():
    rng = np.random.default_rng(13)
    for _ in range(40):
        a = rng.integers(0, 2, size=(4, 6), dtype=np.uint8)
        v = rng.integers(0, 2, size=6, dtype=np.uint8)
        expected = v.tobytes() in span_set(a)
        got = gf2.RowSpanReducer(gf2.BitMatrix.from_array(a)).contains(gf2.BitVector.from_array(v))
        assert got == expected


def test_in_row_span_contains_every_row():
    rng = np.random.default_rng(17)
    a = rng.integers(0, 2, size=(6, 9), dtype=np.uint8)
    span = gf2.RowSpanReducer(gf2.BitMatrix.from_array(a))
    for row in a:
        assert span.contains(gf2.BitVector.from_array(row))


def test_in_row_span_closed_under_xor():
    rng = np.random.default_rng(19)
    for _ in range(20):
        a = rng.integers(0, 2, size=(5, 8), dtype=np.uint8)
        m = gf2.BitMatrix.from_array(a)
        members = list(span_set(a))
        i, j = rng.integers(0, len(members), size=2)
        v = np.frombuffer(members[i], dtype=np.uint8)
        w = np.frombuffer(members[j], dtype=np.uint8)
        assert gf2.RowSpanReducer(m).contains(gf2.BitVector.from_array(v ^ w))


def test_in_row_span_length_mismatch():
    with pytest.raises(ValueError):
        gf2.RowSpanReducer(gf2.BitMatrix.identity(3)).contains(gf2.BitVector.zeros(4))


def test_solve_selected_trivial():
    m = gf2.BitMatrix.identity(3)
    x = gf2.solve_selected(m, gf2.BitVector.from_array([0, 1, 1]), range(3))
    assert np.array_equal(x.to_array(), [0, 1, 1])
    z = gf2.solve_selected(m, gf2.BitVector.zeros(3), [2, 0, 1])
    assert z.is_zero()


def test_solve_selected_random_residual_check():
    rng = np.random.default_rng(23)
    for _ in range(30):
        while True:
            a = rng.integers(0, 2, size=(5, 9), dtype=np.uint8)
            m = gf2.BitMatrix.from_array(a)
            if gf2.rank(m) == 5:
                break
        s = rng.integers(0, 2, size=5, dtype=np.uint8)
        order = rng.permutation(9)
        x = gf2.solve_selected(m, gf2.BitVector.from_array(s), order)
        xa = x.to_array()
        assert np.array_equal((a @ xa) % 2, s)
        # Support lies in the first greedily independent columns of the order.
        selected = []
        for c in order:
            cand = a[:, selected + [int(c)]]
            if gf2.rank(gf2.BitMatrix.from_array(cand.T)) > len(selected):
                selected.append(int(c))
            if len(selected) == 5:
                break
        assert set(np.nonzero(xa)[0]) <= set(selected)


def test_solve_selected_infeasible():
    m = gf2.BitMatrix.from_array([[1, 1], [1, 1]])
    with pytest.raises(gf2.Infeasible):
        gf2.solve_selected(m, gf2.BitVector.from_array([1, 0]), [0, 1])


def _solve_each(a, S, orders):
    m = gf2.BitMatrix.from_array(a)
    return np.array([gf2.solve_selected(m, gf2.BitVector.from_array(s), o).to_array()
                     for s, o in zip(S, orders)], dtype=np.uint8).reshape(len(S), a.shape[1])


def test_solve_selected_batch_matches_serial_on_dependent_rows(monkeypatch):
    # Products of random (rows x r) and (r x cols) matrices: rank <= r <
    # rows except in the square case, some wider than one 64-bit word.
    # Syndromes are images of random vectors, so every system is feasible,
    # and each trial has its own column order.  A 4 KiB block limit splits
    # the larger batches into several blocks.
    monkeypatch.setattr(gf2, "_BATCH_BYTES", 1 << 12)
    rng = np.random.default_rng(37)
    for rows, cols, r, B in [(6, 9, 4, 300), (12, 20, 7, 40), (10, 70, 6, 40), (24, 130, 17, 40), (5, 5, 5, 40)]:
        a = (rng.integers(0, 2, (rows, r)) @ rng.integers(0, 2, (r, cols)) % 2).astype(np.uint8)
        m = gf2.BitMatrix.from_array(a)
        assert gf2.rank(m) <= r
        S = (rng.integers(0, 2, (B, cols)) @ a.T % 2).astype(np.uint8)
        orders = np.argsort(rng.random((B, cols)), axis=1)
        got = gf2.solve_selected_batch(m, S, orders)
        assert got.shape == (B, cols) and got.dtype == np.uint8
        assert np.array_equal(got, _solve_each(a, S, orders))
        assert np.array_equal(got @ a.T % 2, S)


def test_solve_selected_batch_edge_cases():
    rng = np.random.default_rng(41)
    a = rng.integers(0, 2, (8, 12), dtype=np.uint8)
    a[7] = a[0] ^ a[1]  # a dependent row
    m = gf2.BitMatrix.from_array(a)
    # B = 0.
    empty = gf2.solve_selected_batch(m, np.zeros((0, 8), np.uint8), np.zeros((0, 12), np.intp))
    assert empty.shape == (0, 12)
    # B = 1.
    order = rng.permutation(12)
    s = a[:, 3] ^ a[:, 5]
    one = gf2.solve_selected_batch(m, s[None, :], order[None, :])
    assert np.array_equal(one, _solve_each(a, s[None, :], order[None, :]))
    # An all-zero syndrome solves to zero.
    zero = gf2.solve_selected_batch(m, np.zeros((3, 8), np.uint8), np.tile(order, (3, 1)))
    assert not zero.any()
    # An all-zero matrix has rank 0: zero syndromes only.
    z = gf2.BitMatrix.zeros(3, 5)
    assert not gf2.solve_selected_batch(z, np.zeros((2, 3), np.uint8), np.tile(np.arange(5), (2, 1))).any()
    with pytest.raises(gf2.Infeasible):
        gf2.solve_selected_batch(z, np.array([[0, 1, 0]], np.uint8), np.arange(5)[None, :])


def test_solve_selected_batch_infeasible_and_bad_input():
    a = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=np.uint8)
    m = gf2.BitMatrix.from_array(a)
    orders = np.tile(np.arange(3), (2, 1))
    # Rows 0 and 1 of M are equal, so bits 0 and 1 of a reachable syndrome
    # are too; the second syndrome breaks that.
    S = np.array([[1, 1, 1], [1, 0, 0]], dtype=np.uint8)
    with pytest.raises(gf2.Infeasible):
        gf2.solve_selected_batch(m, S, orders)
    with pytest.raises(ValueError):
        gf2.solve_selected_batch(m, S[:, :2], orders)
    with pytest.raises(ValueError):
        gf2.solve_selected_batch(m, S, orders[:1])
    with pytest.raises(ValueError):
        gf2.solve_selected_batch(m, S, np.array([[0, 0, 1], [0, 1, 2]]))


def test_kernel_basis_trivial_cases():
    assert gf2.kernel_basis(gf2.BitMatrix.identity(4)) == []
    basis = gf2.kernel_basis(gf2.BitMatrix.from_array([[1, 1]]))
    assert len(basis) == 1
    assert np.array_equal(basis[0].to_array(), [1, 1])


def test_kernel_basis_rank_nullity_and_annihilation():
    rng = np.random.default_rng(29)
    for _ in range(20):
        a = rng.integers(0, 2, size=(4, 7), dtype=np.uint8)
        m = gf2.BitMatrix.from_array(a)
        basis = gf2.kernel_basis(m)
        assert len(basis) == 7 - gf2.rank(m)
        for v in basis:
            assert not ((a @ v.to_array()) % 2).any()
        # Basis vectors are independent.
        stacked = np.vstack([v.to_array() for v in basis]) if basis else np.zeros((0, 7), np.uint8)
        assert gf2.rank(gf2.BitMatrix.from_array(stacked)) == len(basis)


def test_empty_matrices_are_legal():
    assert gf2.rank(gf2.BitMatrix.zeros(0, 5)) == 0
    assert gf2.rank(gf2.BitMatrix.zeros(3, 0)) == 0
    assert len(gf2.kernel_basis(gf2.BitMatrix.zeros(0, 4))) == 4
    assert gf2.kernel_basis(gf2.BitMatrix.zeros(3, 0)) == []


def test_rank_preserved_by_row_reduce():
    rng = np.random.default_rng(31)
    for _ in range(10):
        a = rng.integers(0, 2, size=(6, 10), dtype=np.uint8)
        m = gf2.BitMatrix.from_array(a)
        r, pivots = gf2.row_reduce(m)
        assert gf2.rank(r) == gf2.rank(m) == len(pivots)


def test_bit_accessors():
    m = gf2.BitMatrix.from_array([[0, 1, 0], [1, 0, 1]])
    assert m.get(0, 1) == 1 and m.get(1, 2) == 1 and m.get(0, 0) == 0
    with pytest.raises(IndexError):
        m.get(0, 3)
    v = gf2.BitVector.from_array(m.to_array()[1])
    assert v[0] == 1 and v[1] == 0
    with pytest.raises(IndexError):
        v[3]
