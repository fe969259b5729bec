"""Pauli operators in symplectic and decoupled binary form.

A phase-free n-qubit Pauli is a pair of bit vectors (ex | ez).  Its
decoupled form is a plain (3n,) uint8 0/1 array of three n-bit blocks
(x' | z' | y'); to_decoupled sets at most one bit per qubit, and
to_symplectic collapses any 3n-bit vector back, one-hot or not.  Syndromes
are computed from the symplectic form, in batches, by
StabilizerCode.syndromes.  syndrome_decoupled (Hd times the decoupled
vector) is the reference it is tested against: the decoder works on Hd, so
the two must agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PAULI_CHARS = "IXZY"  # index = 2*ez + ex


@dataclass(frozen=True)
class SymplecticPauli:
    """n-qubit Pauli as (ex | ez) bit arrays; phases are dropped."""

    n: int
    ex: np.ndarray
    ez: np.ndarray

    @classmethod
    def identity(cls, n: int) -> "SymplecticPauli":
        return cls(n, np.zeros(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8))

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
            and bool(np.array_equal(self.ex, other.ex))
            and bool(np.array_equal(self.ez, other.ez))
        )

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


def to_symplectic(d) -> SymplecticPauli:
    """Collapse a 3n-bit decoupled vector back to (ex | ez).

    The vector need not be one-hot: per qubit the XOR map x = a^c, z = b^c
    resolves non-canonical triples to the phase-free Pauli product, which is
    exactly syndrome-preserving.
    """
    bits = np.asarray(d, dtype=np.uint8) & 1
    n = bits.shape[0] // 3
    a, b, c = bits[:n], bits[n : 2 * n], bits[2 * n :]
    return SymplecticPauli.from_arrays(a ^ c, b ^ c)


def weight(p: SymplecticPauli) -> int:
    """Number of qubits acted on nontrivially."""
    return int(np.count_nonzero(p.ex | p.ez))


def commutes(a: SymplecticPauli, b: SymplecticPauli) -> bool:
    """True iff the symplectic product a.ex·b.ez + a.ez·b.ex vanishes mod 2."""
    return symplectic_form(a, b) == 0


def symplectic_form(a: SymplecticPauli, b: SymplecticPauli) -> int:
    if a.n != b.n:
        raise ValueError("qubit count mismatch")
    return int((int(np.dot(a.ex, b.ez)) + int(np.dot(a.ez, b.ex))) & 1)


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


def from_string(s: str) -> SymplecticPauli:
    """Parse an 'IXYZ' string, qubit 0 leftmost."""
    s = s.strip().upper()
    n = len(s)
    ex = np.zeros(n, dtype=np.uint8)
    ez = np.zeros(n, dtype=np.uint8)
    for i, ch in enumerate(s):
        if ch == "X":
            ex[i] = 1
        elif ch == "Z":
            ez[i] = 1
        elif ch == "Y":
            ex[i] = 1
            ez[i] = 1
        elif ch != "I":
            raise ValueError(f"invalid Pauli character {ch!r} at position {i}")
    return SymplecticPauli(n, ex, ez)


def to_string(p: SymplecticPauli) -> str:
    """Format as an 'IXYZ' string, qubit 0 leftmost."""
    idx = p.ex + 2 * p.ez
    return "".join(PAULI_CHARS[i] for i in idx)
