"""Pauli representation tests, including the symplectic/decoupled syndrome
equivalence that the whole decoding pipeline rests on."""

import numpy as np
import pytest

from qdist import codes, pauli


def random_pauli(rng, n):
    return pauli.SymplecticPauli.from_arrays(
        rng.integers(0, 2, n, dtype=np.uint8), rng.integers(0, 2, n, dtype=np.uint8)
    )


def test_decoupled_of_xyz_string():
    p = pauli.from_string("XYZ")
    d = pauli.to_decoupled(p)
    assert d.dtype == np.uint8
    assert np.array_equal(d, [1, 0, 0, 0, 0, 1, 0, 1, 0])


def test_decoupled_identity_is_zero():
    d = pauli.to_decoupled(pauli.SymplecticPauli.identity(5))
    assert not d.any()
    assert d.shape == (15,)


def test_round_trip_random():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        p = random_pauli(rng, 17)
        d = pauli.to_decoupled(p)
        assert d.reshape(3, 17).sum(axis=0).max() <= 1  # one-hot per qubit
        assert pauli.to_symplectic(d) == p


def test_xor_collapse_of_raw_triples():
    # (0,0,1) -> Y, (1,1,0) -> Y, (1,0,1) -> Z  (products modulo phase)
    assert pauli.to_string(pauli.to_symplectic(np.array([0, 0, 1], np.uint8))) == "Y"
    assert pauli.to_string(pauli.to_symplectic(np.array([1, 1, 0], np.uint8))) == "Y"
    assert pauli.to_string(pauli.to_symplectic(np.array([1, 0, 1], np.uint8))) == "Z"


def test_weight():
    assert pauli.weight(pauli.from_string("IXYZ")) == 3
    assert pauli.weight(pauli.SymplecticPauli.identity(9)) == 0
    assert pauli.weight(pauli.from_string("Y" * 6)) == 6


def test_commutation_basics():
    x = pauli.from_string("X")
    z = pauli.from_string("Z")
    assert not pauli.commutes(x, z)
    assert pauli.commutes(pauli.from_string("XX"), pauli.from_string("ZZ"))
    rng = np.random.default_rng(9)
    for _ in range(50):
        p = random_pauli(rng, 8)
        assert pauli.commutes(p, p)


def test_commutes_size_mismatch():
    with pytest.raises(ValueError):
        pauli.commutes(pauli.from_string("X"), pauli.from_string("XX"))


def test_symplectic_form_is_bilinear():
    rng = np.random.default_rng(21)
    for _ in range(200):
        a, b, c = (random_pauli(rng, 10) for _ in range(3))
        bc = pauli.mul(b, c)
        assert pauli.symplectic_form(a, bc) == (
            pauli.symplectic_form(a, b) ^ pauli.symplectic_form(a, c)
        )
        assert pauli.symplectic_form(a, b) == pauli.symplectic_form(b, a)


def test_mul():
    x = pauli.from_string("X")
    z = pauli.from_string("Z")
    assert pauli.to_string(pauli.mul(x, z)) == "Y"
    rng = np.random.default_rng(2)
    for _ in range(100):
        p = random_pauli(rng, 6)
        q = random_pauli(rng, 6)
        assert pauli.weight(pauli.mul(p, p)) == 0
        assert pauli.weight(pauli.mul(p, q)) <= pauli.weight(p) + pauli.weight(q)


def test_syndrome_symplectic_small_code():
    # Z1Z2, Z2Z3 on three qubits; X on qubit 0 flips only the first check.
    hz = np.array([[1, 1, 0], [0, 1, 1]], np.uint8)
    code = codes.StabilizerCode("zz_chain", np.zeros_like(hz), hz)
    s = code.syndrome(pauli.from_string("XII"))
    assert np.array_equal(s.bits, [1, 0])
    assert code.syndrome(pauli.SymplecticPauli.identity(3)).is_zero()


def test_syndrome_matches_commutation_oracle():
    rng = np.random.default_rng(33)
    code = codes.toric(3)
    for _ in range(50):
        e = random_pauli(rng, code.n)
        s = code.syndrome(e)
        for i in range(code.num_generators):
            assert s.bits[i] == (0 if pauli.commutes(code.generator(i), e) else 1)


def test_syndrome_decoupled_single_y_column():
    code = codes.xzzx_surface(2)
    xor_block = code.hx ^ code.hz
    for q in range(code.n):
        d = np.zeros(3 * code.n, np.uint8)
        d[2 * code.n + q] = 1
        s = pauli.syndrome_decoupled(code.hd, d)
        assert np.array_equal(s.bits, xor_block[:, q])


@pytest.mark.parametrize("make", [
    lambda: codes.planar_surface(3),
    lambda: codes.toric(2),
    lambda: codes.xzzx_surface(3),
    lambda: codes.ztgre(3),
    lambda: codes.chamon(2, 2, 2),
])
def test_representation_equivalence(make):
    code = make()
    rng = np.random.default_rng(code.n)
    for _ in range(500):
        e = random_pauli(rng, code.n)
        s1 = code.syndrome(e)
        s2 = pauli.syndrome_decoupled(code.hd, pauli.to_decoupled(e))
        assert s1 == s2


@pytest.mark.parametrize("make", [
    lambda: codes.toric(3),
    lambda: codes.chamon(3, 3, 3),  # dependent generators, non-CSS
    lambda: codes.ztgre(5),  # Z-only checks
    lambda: codes.xzzx_surface(3),
])
def test_batched_syndromes_match_decoupled_reference(make):
    code = make()
    rng = np.random.default_rng(code.n + 1)
    ex = rng.integers(0, 2, (300, code.n), dtype=np.uint8)
    ez = rng.integers(0, 2, (300, code.n), dtype=np.uint8)
    ez[:100] = 0  # pure-X rows, as a pure-X sweep samples them
    S = code.syndromes(ex, ez)
    assert S.shape == (300, code.num_generators) and S.dtype == np.uint8
    for b in range(300):
        d = pauli.to_decoupled(pauli.SymplecticPauli.from_arrays(ex[b], ez[b]))
        assert np.array_equal(S[b], pauli.syndrome_decoupled(code.hd, d).bits)

    assert code.syndromes(ex[:0], ez[:0]).shape == (0, code.num_generators)
    one = code.syndromes(ex[:1], ez[:1])
    assert one.shape == (1, code.num_generators) and np.array_equal(one[0], S[0])
    assert np.array_equal(code.syndrome(pauli.SymplecticPauli.from_arrays(ex[0], ez[0])).bits, S[0])

    with pytest.raises(ValueError):
        code.syndromes(ex[:, 1:], ez[:, 1:])  # width n - 1
    with pytest.raises(ValueError):
        code.syndromes(ex, ez[:, 1:])
    with pytest.raises(ValueError):
        code.syndromes(ex[0], ez[0])  # one Pauli needs a batch axis
    with pytest.raises(ValueError):
        code.syndrome(pauli.from_string("X" * (code.n + 1)))


def test_string_round_trip():
    s = "IXYZXIZY"
    assert pauli.to_string(pauli.from_string(s)) == s
    with pytest.raises(ValueError):
        pauli.from_string("IXQ")
