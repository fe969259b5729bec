"""Pauli operators as rows of bits: one alphabet, one product, one collapse.

A phase-free n-qubit Pauli is a pair of 0/1 vectors (ex | ez); m of them are
two (m, n) uint8 arrays, as StabilizerCode keeps its hx and hz.  Its
symplectic row is [ex | ez], and its decoupled form is a (3n,) uint8 array of
three n-bit blocks (x' | z' | y').  Each rule has one batched implementation,
which the one-Pauli functions call on one row:
- PAULI_CHARS, indexed by 2*ez + ex: parse_rows reads strings through its
  inverse, and format_rows writes them by lookup (from_string, to_string);
- symplectic_product on [x | z] rows (commutes, codes.logical_basis);
- collapse, (..., 3n) decoupled bits to (ex, ez) (to_symplectic, the sweep).
StabilizerCode.syndromes computes syndromes from the symplectic form, and
syndrome_decoupled (Hd times the decoupled vector) is the reference it is
tested against: the decoder works on Hd, so the two must agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PAULI_CHARS = np.frombuffer(b"IXZY", np.uint8)  # ASCII bytes, index = 2*ez + ex
# ASCII byte -> its index in PAULI_CHARS, upper or lower case; 4 for any other byte.
_INDEX = np.full(128, 4, np.uint8)
_INDEX[PAULI_CHARS] = _INDEX[PAULI_CHARS | 0x20] = np.arange(4)


class SymplecticPauli:
    """n-qubit Pauli as (ex | ez) bit arrays; phases are dropped.

    Immutable: the constructor packs ex and ez, eight bits to a byte (little
    bit order), into one bytes object of 2 * ceil(n / 8) bytes: ex's bytes,
    then ez's.  The ex and ez properties unpack them into new read-only
    (n,) uint8 arrays.  Packed bytes hold the bits because callers keep
    Paulis by the thousand (errors and estimates): at n = 85 the bytes
    object takes 55 bytes, against 203 for one byte per bit and more for an
    ndarray of its own.
    """

    __slots__ = ("n", "_bits")

    def __init__(self, n: int, ex, ez):
        bits = np.empty((2, n), dtype=np.uint8)
        bits[0], bits[1] = ex, ez
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_bits", np.packbits(bits, axis=1, bitorder="little").tobytes())

    def __setattr__(self, name, value):
        raise AttributeError(f"SymplecticPauli is immutable; cannot set {name!r}")

    def __reduce__(self):
        # Pickle and copy through the constructor, which __setattr__ allows.
        return type(self), (self.n, self.ex, self.ez)

    def _row(self, r: int) -> np.ndarray:
        w = (self.n + 7) // 8
        row = np.unpackbits(np.frombuffer(self._bits, np.uint8, w, r * w), count=self.n, bitorder="little")
        row.flags.writeable = False
        return row

    @property
    def ex(self) -> np.ndarray:
        return self._row(0)

    @property
    def ez(self) -> np.ndarray:
        return self._row(1)

    @classmethod
    def identity(cls, n: int) -> "SymplecticPauli":
        return cls(n, 0, 0)

    @classmethod
    def from_arrays(cls, ex, ez) -> "SymplecticPauli":
        ex = np.asarray(ex, dtype=np.uint8) & 1
        ez = np.asarray(ez, dtype=np.uint8) & 1
        if ex.shape != ez.shape or ex.ndim != 1:
            raise ValueError("ex and ez must be equal-length 1-D arrays")
        return cls(ex.shape[0], ex, ez)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SymplecticPauli)
            and self.n == other.n
            and self._bits == other._bits
        )

    def __repr__(self) -> str:
        return f"SymplecticPauli({to_string(self)!r})"

    def __str__(self) -> str:
        return to_string(self)


@dataclass(frozen=True)
class Syndrome:
    """One bit per stabilizer generator row."""

    bits: np.ndarray

    def is_zero(self) -> bool:
        return not self.bits.any()

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and bool(np.array_equal(self.bits, other.bits))


def to_decoupled(p: SymplecticPauli) -> np.ndarray:
    """(3n,) one-hot bits (x' | z' | y'): each qubit's X, Z or Y bit."""
    y = p.ex & p.ez
    return np.concatenate([p.ex ^ y, p.ez ^ y, y])


def collapse(d) -> tuple[np.ndarray, np.ndarray]:
    """(ex, ez) of 0/1 decoupled bits (x' | z' | y'): (..., 3n) -> two (..., n).

    Per qubit x = x' ^ y' and z = z' ^ y', so bits that are not one-hot
    collapse to the phase-free product of their Paulis, with its syndrome."""
    d = np.asarray(d, dtype=np.uint8)
    n = d.shape[-1] // 3
    return d[..., :n] ^ d[..., 2 * n :], d[..., n : 2 * n] ^ d[..., 2 * n :]


def to_symplectic(d) -> SymplecticPauli:
    """Collapse one 3n-bit decoupled vector back to a Pauli."""
    return SymplecticPauli.from_arrays(*collapse(d))


def weight(p: SymplecticPauli) -> int:
    """Number of qubits acted on nontrivially."""
    return int(np.count_nonzero(p.ex | p.ez))


def symplectic_product(a, b) -> np.ndarray:
    """a_x·b_z + a_z·b_x mod 2 of [x | z] 0/1 rows, broadcast over the
    leading axes: (..., 2n) and (..., 2n) -> (...) uint8, 0 where they
    commute."""
    a, b = np.asarray(a, dtype=np.uint8), np.asarray(b, dtype=np.uint8)
    if a.shape[-1] != b.shape[-1] or a.shape[-1] % 2:
        raise ValueError("qubit count mismatch")
    n = a.shape[-1] // 2
    return np.bitwise_xor.reduce(a & np.concatenate([b[..., n:], b[..., :n]], axis=-1), axis=-1)


def commutes(a: SymplecticPauli, b: SymplecticPauli) -> bool:
    """True iff the symplectic product of a and b vanishes."""
    return not symplectic_product(np.concatenate([a.ex, a.ez]), np.concatenate([b.ex, b.ez]))


def mul(a: SymplecticPauli, b: SymplecticPauli) -> SymplecticPauli:
    """Phase-free group product: componentwise XOR."""
    if a.n != b.n:
        raise ValueError("qubit count mismatch")
    return SymplecticPauli(a.n, a.ex ^ b.ex, a.ez ^ b.ez)


def syndrome_decoupled(hd: np.ndarray, d) -> Syndrome:
    """s = Hd·e mod 2 on the 3n-bit decoupled vector."""
    bits = np.asarray(d, dtype=np.uint8)
    if hd.shape[1] != bits.shape[0]:
        raise ValueError("decoupled matrix width does not match vector length")
    return Syndrome(((hd.astype(np.int64) @ bits) & 1).astype(np.uint8))


def parse_rows(rows, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(ex, ez), two (m, n) uint8 arrays, from m 'IXYZ' strings of n
    characters (qubit 0 leftmost; ASCII only, either case).  ValueError names
    a wrong length, or else the first other character and its position."""
    if any(len(row) != n for row in rows):
        raise ValueError(f"Pauli string length does not match n = {n}")
    # One '?' byte per non-ASCII character keeps bytes and characters aligned.
    idx = _INDEX[np.frombuffer("".join(rows).encode("ascii", "replace"), np.uint8)].reshape(len(rows), n)
    bad = np.argwhere(idx == 4)
    if bad.size:
        row, at = bad[0]
        raise ValueError(f"invalid Pauli character {rows[row][at]!r} at position {at}")
    return idx & 1, idx >> 1


def format_rows(ex, ez) -> list[str]:
    """One 'IXYZ' string per row of two (m, n) 0/1 arrays, qubit 0 leftmost."""
    idx = 2 * np.asarray(ez, dtype=np.uint8) + np.asarray(ex, dtype=np.uint8)
    return [row.tobytes().decode("ascii") for row in PAULI_CHARS[idx]]


def from_string(s: str) -> SymplecticPauli:
    """Parse an 'IXYZ' string, qubit 0 leftmost, without surrounding space."""
    s = s.strip()
    ex, ez = parse_rows([s], len(s))
    return SymplecticPauli(len(s), ex[0], ez[0])


def to_string(p: SymplecticPauli) -> str:
    """Format as an 'IXYZ' string, qubit 0 leftmost."""
    return format_rows(p.ex[None], p.ez[None])[0]
