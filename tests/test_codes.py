"""Construction tests: parameters, commutation, published lengths and
weight-limited exhaustive distances for every family."""

import numpy as np
import pytest

from qdist import codes, estimator, gf2, pauli


def test_repetition_shapes_and_rank():
    cyc = codes.repetition(3, cyclic=True)
    rows = {tuple(r) for r in cyc.h}
    assert rows == {(1, 1, 0), (0, 1, 1), (1, 0, 1)}
    chain = codes.repetition(3, cyclic=False)
    assert {tuple(r) for r in chain.h} == {(1, 1, 0), (0, 1, 1)}
    for n in (2, 4, 7):
        assert gf2.rank(codes.repetition(n, True).h) == n - 1
    with pytest.raises(ValueError):
        codes.repetition(1)


def test_surface_family_parameters():
    assert (codes.planar_surface(2).n, codes.planar_surface(2).k) == (5, 1)
    assert (codes.planar_surface(3).n, codes.planar_surface(3).k) == (13, 1)
    assert (codes.toric(2).n, codes.toric(2).k) == (8, 2)
    assert (codes.toric(3).n, codes.toric(3).k) == (18, 2)
    assert (codes.xzzx_surface(3).n, codes.xzzx_surface(3).k) == (13, 1)
    for family in (codes.planar_surface, codes.toric, codes.xzzx_surface):
        with pytest.raises(ValueError):
            family(1)


@pytest.mark.parametrize("family,L,expected", [
    (codes.planar_surface, 2, 2),
    (codes.planar_surface, 3, 3),
    (codes.toric, 2, 2),
    (codes.toric, 3, 3),
    (codes.xzzx_surface, 2, 2),
    (codes.xzzx_surface, 3, 3),
])
def test_surface_family_brute_distance(family, L, expected):
    result = estimator.brute_force_distance(family(L), expected + 1)
    assert result.found_distance == expected


def test_ztgre_parameters():
    for L in range(1, 8):
        code = codes.ztgre(L)
        assert code.n == 2**L
        assert code.k == 2 ** (L - 1)
        assert not code.hx.any()  # pure Z-type generators
    with pytest.raises(ValueError):
        codes.ztgre(0)


def test_ztgre_minimum_logical_x_weight_small():
    # Exhaustive: the X-distance equals the kernel distance of the Z checks.
    for L, expected in ((2, 2), (3, 4)):
        code = codes.ztgre(L)
        result = estimator.brute_force_distance(code, 1)
        # Full distance is 1 (bare Z on some qubit is logical).
        assert result.found_distance == 1
        # Minimum X-type logical: enumerate X supports exhaustively.
        n = code.n
        best = None
        for mask in range(1, 1 << n):
            ex = np.array([(mask >> i) & 1 for i in range(n)], np.uint8)
            if ((code.hz @ ex) % 2).any():
                continue
            w = int(ex.sum())
            best = w if best is None else min(best, w)
        assert best == expected


def test_hypergraph_product_reproduces_planar_parameters():
    for L in (2, 3, 4):
        rep = codes.repetition(L, cyclic=False)
        code = codes.hypergraph_product(rep, rep)
        assert code.n == L * L + (L - 1) * (L - 1)
        assert code.k == 1


def test_hypergraph_product_random_inputs_commute():
    rng = np.random.default_rng(41)
    for _ in range(25):
        h1 = rng.integers(0, 2, size=(rng.integers(1, 4), rng.integers(2, 5)), dtype=np.uint8)
        h2 = rng.integers(0, 2, size=(rng.integers(1, 4), rng.integers(2, 5)), dtype=np.uint8)
        code = codes.hypergraph_product(codes.ClassicalCode(h1), codes.ClassicalCode(h2))
        assert codes.validate(code).passed


def test_hypergraph_product_degenerate_block():
    h1 = np.array([[1, 1, 0], [0, 1, 1]], np.uint8)
    empty = codes.ClassicalCode(np.zeros((0, 4), np.uint8))
    code = codes.hypergraph_product(codes.ClassicalCode(h1), empty)
    assert code.n == 3 * 4 + 2 * 0
    assert codes.validate(code).passed


def test_xyz_product_random_inputs_commute():
    rng = np.random.default_rng(43)
    for _ in range(15):
        cs = []
        for _ in range(3):
            h = rng.integers(0, 2, size=(rng.integers(1, 3), rng.integers(2, 4)), dtype=np.uint8)
            cs.append(codes.ClassicalCode(h))
        code = codes.xyz_product(*cs)
        assert codes.validate(code).passed
        n1, n2, n3 = (c.n for c in cs)
        m1, m2, m3 = (c.m for c in cs)
        assert code.n == n1 * n2 * n3 + m1 * m2 * n3 + m1 * n2 * m3 + n1 * m2 * m3


@pytest.mark.parametrize("params,N", [
    ((2, 2, 2), 32),
    ((3, 3, 3), 108),
    ((4, 4, 4), 256),
    ((5, 5, 5), 500),
    ((2, 3, 4), 96),
    ((3, 4, 5), 240),
    ((4, 5, 6), 480),
])
def test_chamon_published_lengths(params, N):
    code = codes.chamon(*params)
    assert code.n == N == 4 * params[0] * params[1] * params[2]


def test_chamon_rejects_short_blocks():
    with pytest.raises(ValueError):
        codes.chamon(1, 2, 2)


SUITE = [
    lambda: codes.planar_surface(2),
    lambda: codes.planar_surface(3),
    lambda: codes.toric(2),
    lambda: codes.toric(3),
    lambda: codes.xzzx_surface(2),
    lambda: codes.xzzx_surface(3),
    lambda: codes.ztgre(2),
    lambda: codes.ztgre(4),
    lambda: codes.chamon(2, 2, 2),
    lambda: codes.chamon(2, 3, 4),
]


@pytest.mark.parametrize("make", SUITE)
def test_every_constructor_validates(make):
    assert codes.validate(make()).passed


def test_validate_catches_corruption():
    code = codes.planar_surface(3)
    hx = code.hx.copy()
    hx[0, 0] ^= 1
    broken = codes.StabilizerCode("broken", hx, code.hz)
    report = codes.validate(broken)
    assert not report.passed
    assert any("anticommute" in f for f in report.failures)


def test_decoupled_parity_check_blocks():
    hx = np.eye(2, dtype=np.uint8)
    hz = np.zeros_like(hx)
    hd = codes.decoupled_parity_check(hx, hz)
    assert np.array_equal(hd, np.hstack([hz, hx, hx]))
    m = np.array([[1, 0, 1], [0, 1, 1]], np.uint8)
    hd2 = codes.decoupled_parity_check(m, m)
    assert not hd2[:, 6:].any()  # XOR block vanishes when Hx == Hz


def test_logical_basis_pairing():
    for make in (lambda: codes.planar_surface(2), lambda: codes.toric(2), lambda: codes.ztgre(2)):
        code = make()
        logicals = codes.logical_basis(code)
        assert len(logicals) == 2 * code.k
        for idx, l in enumerate(logicals):
            # Commutes with every generator, outside the stabilizer span.
            assert code.syndrome(l).is_zero()
            assert not code.in_stabilizer_group(l)
        for i in range(code.k):
            xi, zi = logicals[2 * i], logicals[2 * i + 1]
            assert not pauli.commutes(xi, zi)
            for j in range(code.k):
                if i == j:
                    continue
                xj, zj = logicals[2 * j], logicals[2 * j + 1]
                assert pauli.commutes(xi, xj) and pauli.commutes(xi, zj)
                assert pauli.commutes(zi, zj) and pauli.commutes(zi, xj)


def test_logical_basis_weights_planar2():
    code = codes.planar_surface(2)
    for l in codes.logical_basis(code):
        assert pauli.weight(l) >= 2


def test_logical_basis_requires_logical_qubits():
    code = codes.css_code("two-qubit-k0", np.array([[1, 1]], np.uint8), np.array([[1, 1]], np.uint8))
    assert code.k == 0
    with pytest.raises(ValueError):
        codes.logical_basis(code)


def test_serialization_round_trip(tmp_path):
    code = codes.toric(2)
    path = tmp_path / "toric2.code"
    codes.save(code, path)
    loaded = codes.load(path)
    assert loaded.n == code.n and loaded.k == code.k
    assert np.array_equal(loaded.hx, code.hx)
    assert np.array_equal(loaded.hz, code.hz)


def test_serialization_rejects_corruption(tmp_path):
    code = codes.planar_surface(2)
    text = codes.dumps(code)
    lines = text.splitlines()
    # Declared k disagrees with what the generators give.
    assert lines[3] == "k 1"
    with pytest.raises(ValueError):
        codes.loads("\n".join(lines[:3] + ["k 0"] + lines[4:]))
    # A generator of the wrong length.
    with pytest.raises(ValueError):
        codes.loads("\n".join(lines[:4] + [lines[4] + "X"] + lines[5:]))
    # An anticommuting generator pair: single X and single Z on one qubit.
    bad = [codes._FORMAT_HEADER, "name bad", "n 2", "k 0", "XI", "ZI"]
    with pytest.raises(ValueError):
        codes.loads("\n".join(bad))
    with pytest.raises(ValueError):
        codes.loads("not a code file")


def test_make_registry():
    assert codes.make("toric", (2,)).n == 8
    with pytest.raises(ValueError):
        codes.make("nope", (2,))
    with pytest.raises(ValueError):
        codes.make("chamon", (2,))
