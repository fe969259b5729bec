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
    assert gf2.rank(np.eye(3, dtype=np.uint8)) == 3
    assert gf2.rank(np.zeros((4, 6), np.uint8)) == 0


def test_rank_against_enumeration_oracle():
    rng = np.random.default_rng(7)
    for _ in range(30):
        a = rng.integers(0, 2, size=(6, 8), dtype=np.uint8)
        assert gf2.rank(a) == brute_rank(a)


def test_rank_wide_matrix_crosses_word_boundary():
    rng = np.random.default_rng(11)
    a = rng.integers(0, 2, size=(8, 200), dtype=np.uint8)
    assert gf2.rank(a) == brute_rank(a)


def test_row_reduce_identity():
    r, pivots = gf2.row_reduce(np.eye(4, dtype=np.uint8))
    assert np.array_equal(r, np.eye(4, dtype=np.uint8))
    assert pivots == [0, 1, 2, 3]


def test_row_reduce_duplicate_rows():
    r, pivots = gf2.row_reduce([[1, 1], [1, 1]])
    assert np.array_equal(r, [[1, 1], [0, 0]])
    assert pivots == [0]


def test_row_reduce_preserves_row_space():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.integers(0, 2, size=(5, 7), dtype=np.uint8)
        r, _ = gf2.row_reduce(a)
        assert r.shape == a.shape and r.dtype == np.uint8
        assert span_set(a) == span_set(r)


def test_in_row_span_trivial_cases():
    span = gf2.RowSpanReducer(np.eye(3, dtype=np.uint8))
    assert span.contains_batch([[0, 0, 0], [1, 0, 1]]).all()
    assert span.contains_batch(np.zeros((0, 3), np.uint8)).shape == (0,)


def test_in_row_span_against_enumeration():
    rng = np.random.default_rng(13)
    for _ in range(40):
        a = rng.integers(0, 2, size=(4, 6), dtype=np.uint8)
        v = rng.integers(0, 2, size=6, dtype=np.uint8)
        expected = v.tobytes() in span_set(a)
        got = gf2.RowSpanReducer(a).contains_batch(v[None, :])
        assert got.tolist() == [expected]


def test_in_row_span_contains_every_row():
    rng = np.random.default_rng(17)
    a = rng.integers(0, 2, size=(6, 9), dtype=np.uint8)
    assert gf2.RowSpanReducer(a).contains_batch(a).all()


def test_in_row_span_closed_under_xor():
    rng = np.random.default_rng(19)
    for _ in range(20):
        a = rng.integers(0, 2, size=(5, 8), dtype=np.uint8)
        members = list(span_set(a))
        i, j = rng.integers(0, len(members), size=2)
        v = np.frombuffer(members[i], dtype=np.uint8)
        w = np.frombuffer(members[j], dtype=np.uint8)
        assert gf2.RowSpanReducer(a).contains_batch((v ^ w)[None, :])[0]


def test_in_row_span_length_mismatch():
    with pytest.raises(ValueError):
        gf2.RowSpanReducer(np.eye(3, dtype=np.uint8)).contains_batch(np.zeros((1, 4), np.uint8))


def test_solve_selected_trivial():
    m = np.eye(3, dtype=np.uint8)
    x = gf2.solve_selected(m, [0, 1, 1], range(3))
    assert x.dtype == np.uint8 and np.array_equal(x, [0, 1, 1])
    z = gf2.solve_selected(m, np.zeros(3, np.uint8), [2, 0, 1])
    assert z.shape == (3,) and not z.any()


def test_solve_selected_random_residual_check():
    rng = np.random.default_rng(23)
    for _ in range(30):
        while True:
            a = rng.integers(0, 2, size=(5, 9), dtype=np.uint8)
            if gf2.rank(a) == 5:
                break
        s = rng.integers(0, 2, size=5, dtype=np.uint8)
        order = rng.permutation(9)
        xa = gf2.solve_selected(a, s, order)
        assert np.array_equal((a @ xa) % 2, s)
        # Support lies in the first greedily independent columns of the order.
        selected = []
        for c in order:
            cand = a[:, selected + [int(c)]]
            if gf2.rank(cand.T) > len(selected):
                selected.append(int(c))
            if len(selected) == 5:
                break
        assert set(np.nonzero(xa)[0]) <= set(selected)


def test_solve_selected_infeasible():
    with pytest.raises(gf2.Infeasible):
        gf2.solve_selected([[1, 1], [1, 1]], [1, 0], [0, 1])


def _solve_each(a, S, orders):
    return np.array([gf2.solve_selected(a, s, o) for s, o in zip(S, orders)],
                    dtype=np.uint8).reshape(len(S), a.shape[1])


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
        assert gf2.rank(a) <= r
        S = (rng.integers(0, 2, (B, cols)) @ a.T % 2).astype(np.uint8)
        orders = np.argsort(rng.random((B, cols)), axis=1)
        got = gf2.solve_selected_batch(a, S, orders)
        assert got.shape == (B, cols) and got.dtype == np.uint8
        assert np.array_equal(got, _solve_each(a, S, orders))
        assert np.array_equal(got @ a.T % 2, S)


def test_solve_selected_batch_edge_cases():
    rng = np.random.default_rng(41)
    a = rng.integers(0, 2, (8, 12), dtype=np.uint8)
    a[7] = a[0] ^ a[1]  # a dependent row
    # B = 0.
    empty = gf2.solve_selected_batch(a, np.zeros((0, 8), np.uint8), np.zeros((0, 12), np.intp))
    assert empty.shape == (0, 12)
    # B = 1.
    order = rng.permutation(12)
    s = a[:, 3] ^ a[:, 5]
    one = gf2.solve_selected_batch(a, s[None, :], order[None, :])
    assert np.array_equal(one, _solve_each(a, s[None, :], order[None, :]))
    # An all-zero syndrome solves to zero.
    zero = gf2.solve_selected_batch(a, np.zeros((3, 8), np.uint8), np.tile(order, (3, 1)))
    assert not zero.any()
    # An all-zero matrix has rank 0: zero syndromes only.
    z = np.zeros((3, 5), np.uint8)
    assert not gf2.solve_selected_batch(z, np.zeros((2, 3), np.uint8), np.tile(np.arange(5), (2, 1))).any()
    with pytest.raises(gf2.Infeasible):
        gf2.solve_selected_batch(z, np.array([[0, 1, 0]], np.uint8), np.arange(5)[None, :])


def test_solve_selected_batch_infeasible_and_bad_input():
    m = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=np.uint8)
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
    assert gf2.kernel_basis(np.eye(4, dtype=np.uint8)).shape == (0, 4)
    basis = gf2.kernel_basis([[1, 1]])
    assert basis.dtype == np.uint8 and np.array_equal(basis, [[1, 1]])


def test_kernel_basis_rank_nullity_and_annihilation():
    rng = np.random.default_rng(29)
    for _ in range(20):
        a = rng.integers(0, 2, size=(4, 7), dtype=np.uint8)
        basis = gf2.kernel_basis(a)
        assert basis.shape == (7 - gf2.rank(a), 7)
        assert not (basis @ a.T % 2).any()
        # Basis vectors are independent.
        assert gf2.rank(basis) == len(basis)


def test_empty_matrices_are_legal():
    assert gf2.rank(np.zeros((0, 5), np.uint8)) == 0
    assert gf2.rank(np.zeros((3, 0), np.uint8)) == 0
    assert np.array_equal(gf2.kernel_basis(np.zeros((0, 4), np.uint8)), np.eye(4))
    assert gf2.kernel_basis(np.zeros((3, 0), np.uint8)).shape == (0, 0)


def test_rank_preserved_by_row_reduce():
    rng = np.random.default_rng(31)
    for _ in range(10):
        a = rng.integers(0, 2, size=(6, 10), dtype=np.uint8)
        r, pivots = gf2.row_reduce(a)
        assert gf2.rank(r) == gf2.rank(a) == len(pivots)


def test_array_contract():
    # Every public entry point takes plain 0/1 arrays: a matrix that is not
    # 2-D is a ValueError, and no input array is ever written to.  Inputs are
    # wider than one 64-bit word, and the system is feasible.
    rng = np.random.default_rng(43)
    a = rng.integers(0, 2, (12, 150), dtype=np.uint8)
    S = (rng.integers(0, 2, (5, 150)) @ a.T % 2).astype(np.uint8)
    orders = np.argsort(rng.random((5, 150)), axis=1)
    v = rng.integers(0, 2, (4, 150), dtype=np.uint8)
    inputs = (a, S, orders, v)
    saved = [x.copy() for x in inputs]
    calls = [
        lambda m: gf2.rank(m),
        lambda m: gf2.row_reduce(m),
        lambda m: gf2.kernel_basis(m),
        lambda m: gf2.solve_selected(m, S[0], orders[0]),
        lambda m: gf2.solve_selected_batch(m, S, orders),
        lambda m: gf2.RowSpanReducer(m).contains_batch(v),
    ]
    for call in calls:
        call(a)
        for bad in (a[0], a[None, :, :]):
            with pytest.raises(ValueError, match="2-D"):
                call(bad)
        for x, y in zip(inputs, saved):
            assert np.array_equal(x, y)
    with pytest.raises(ValueError):
        gf2.RowSpanReducer(a).contains_batch(v[0])  # one vector needs a batch axis
