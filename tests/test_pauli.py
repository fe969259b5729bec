"""Pauli representation tests, including the symplectic/decoupled syndrome
equivalence that the whole decoding pipeline rests on."""

import copy
import pickle

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
    a, b, c = rng.integers(0, 2, (3, 200, 20), dtype=np.uint8)  # [x | z] rows, n = 10
    ab = pauli.symplectic_product(a, b)
    assert ab.shape == (200,) and ab.dtype == np.uint8
    assert np.array_equal(pauli.symplectic_product(a, b ^ c), ab ^ pauli.symplectic_product(a, c))
    assert np.array_equal(pauli.symplectic_product(b, a), ab)
    # Broadcast against one row, and the integer formula row by row.
    assert np.array_equal(pauli.symplectic_product(a, b[0]), [(x[:10] @ b[0, 10:] + x[10:] @ b[0, :10]) % 2 for x in a])
    with pytest.raises(ValueError):
        pauli.symplectic_product(a[:, :18], b)


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
            generator = pauli.SymplecticPauli.from_arrays(code.hx[i], code.hz[i])
            assert s.bits[i] == (0 if pauli.commutes(generator, e) else 1)


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


@pytest.mark.parametrize("text, message", [
    ("Xı", "'ı' at position 1"),  # dotless i upper-cases to I
    ("Xß", "'ß' at position 1"),  # sharp s upper-cases to SS
    ("ixq", "'q' at position 2"),
    ("X Z", "' ' at position 1"),
], ids=["dotless_i", "sharp_s", "lower_case_q", "space"])
def test_from_string_takes_ascii_paulis_only(text, message):
    with pytest.raises(ValueError, match=message):
        pauli.from_string(text)


def test_from_string_takes_lower_case_and_surrounding_whitespace():
    assert pauli.to_string(pauli.from_string(" ixyz\n")) == "IXYZ"
    assert pauli.from_string("") == pauli.SymplecticPauli.identity(0)


def test_rows_parse_and_format_through_one_table():
    rng = np.random.default_rng(4)
    ex, ez = rng.integers(0, 2, (2, 6, 11), dtype=np.uint8)
    rows = pauli.format_rows(ex, ez)
    assert rows == [pauli.to_string(pauli.SymplecticPauli.from_arrays(x, z)) for x, z in zip(ex, ez)]
    got_x, got_z = pauli.parse_rows(rows, 11)
    assert got_x.dtype == got_z.dtype == np.uint8
    assert np.array_equal(got_x, ex) and np.array_equal(got_z, ez)
    assert [r.shape for r in pauli.parse_rows([], 4)] == [(0, 4), (0, 4)]
    with pytest.raises(ValueError, match="'Q' at position 1"):
        pauli.parse_rows(["XX", "XQ", "Q?"], 2)
    with pytest.raises(ValueError, match="length"):
        pauli.parse_rows(["XX", "XXQ"], 2)


def test_symplectic_pauli_is_immutable_and_owns_its_bits():
    ex = np.array([1, 0, 1], np.uint8)
    ez = np.array([0, 1, 1], np.uint8)
    p = pauli.SymplecticPauli(3, ex, ez)
    # The constructor copies: changing the inputs leaves p as it was.
    ex[0] = 0
    ez[:] = 0
    assert pauli.to_string(p) == "XZY"
    for name in ("n", "ex", "ez"):
        with pytest.raises(AttributeError):
            setattr(p, name, np.zeros(3, np.uint8))
    with pytest.raises(ValueError):
        p.ex[0] = 0  # the rows are read-only
    assert pauli.to_string(p) == "XZY"
    assert p.ex.dtype == np.uint8 and p.ex.shape == p.ez.shape == (3,)
    # __eq__ compares qubit count and bits.
    assert p == pauli.from_string("XZY")
    assert p != pauli.from_string("XZZ")
    assert p != pauli.from_string("XZYI")
    assert p != "XZY"
    assert pauli.SymplecticPauli.identity(3) == pauli.from_string("III")
    # Pickling and copying go through the constructor.
    assert pickle.loads(pickle.dumps(p)) == p
    assert copy.deepcopy(p) == p and copy.copy(p) == p


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 85])
def test_symplectic_pauli_packed_round_trip(n):
    # The bits are stored eight to a byte; lengths on and off a byte
    # boundary must read back exactly, and compare, pickle and lock the same.
    rng = np.random.default_rng(n)
    ex = rng.integers(0, 2, n, dtype=np.uint8)
    ez = rng.integers(0, 2, n, dtype=np.uint8)
    p = pauli.SymplecticPauli.from_arrays(ex, ez)
    for got, want in ((p.ex, ex), (p.ez, ez)):
        assert got.dtype == np.uint8 and got.shape == (n,)
        assert np.array_equal(got, want)
        assert not got.flags.writeable
        if n:
            with pytest.raises(ValueError):
                got[0] ^= 1
    assert p.n == n and len(p._bits) == 2 * ((n + 7) // 8)
    assert p == pauli.SymplecticPauli(n, ex.copy(), ez.copy())
    assert pickle.loads(pickle.dumps(p)) == p
    if n:
        flipped = ez.copy()
        flipped[-1] ^= 1  # the last bit of the last byte
        assert p != pauli.SymplecticPauli.from_arrays(ex, flipped)
        assert p != pauli.SymplecticPauli.from_arrays(ez, ex) or np.array_equal(ex, ez)
