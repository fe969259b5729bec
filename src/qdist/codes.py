"""Stabilizer code constructions and characterization.

Families covered: repetition-code check matrices, planar/toric/XZZX
surface codes, the rate-1/2 Z-type recursive Tanner-graph expansion family,
the hypergraph product, the three-fold XYZ product and its Chamon
specialization from cyclic repetition codes.

Generator matrices are kept as dense uint8 (Hx | Hz) blocks; the qubit count
stays small enough (N <= ~1000) that dense storage is the simple and fast
choice.  Dependent generator rows are legal; the logical dimension k is
always recomputed by GF(2) rank.  A built code is read-only: its Hx, Hz, Hd
and generator-matrix arrays reject writes, so k, the syndrome table and the
stabilizer reducer derived from them never go stale.
"""

from __future__ import annotations

import numpy as np

from . import gf2, pauli


def repetition(n: int, cyclic: bool = False) -> np.ndarray:
    """(m, n) uint8 repetition-code parity checks: length-n chain or n-cycle."""
    if n < 2:
        raise ValueError("repetition code needs n >= 2")
    rows = n if cyclic else n - 1
    h = np.zeros((rows, n), dtype=np.uint8)
    for i in range(rows):
        h[i, i] = 1
        h[i, (i + 1) % n] = 1
    return h


class StabilizerCode:
    """Stabilizer code defined by generator blocks (Hx | Hz).

    Rows are generators; row i applies X where hx[i] is set and Z where
    hz[i] is set (both set = Y).  k is computed from the GF(2) rank of the
    2n-column binary generator matrix, never assumed: one elimination gives
    both that rank and the stabilizer reducer.
    """

    def __init__(self, name: str, hx: np.ndarray, hz: np.ndarray):
        hx = np.asarray(hx, dtype=np.uint8) & 1
        hz = np.asarray(hz, dtype=np.uint8) & 1
        if hx.shape != hz.shape:
            raise ValueError("Hx and Hz must have identical shapes")
        self.name = name
        self.hx = hx
        self.hz = hz
        self.n = hx.shape[1]
        self._generator_matrix = np.hstack([hx, hz])
        # Row i: the columns of [ex | ez] generator i checks, padded with 2n (kept zero).
        rows, cols = np.divmod(np.flatnonzero(np.hstack([hz, hx]).view(bool)), 2 * self.n)
        slot = np.arange(rows.shape[0]) - np.searchsorted(rows, rows)
        self._syndrome_table = np.full((hx.shape[0], slot.max(initial=-1) + 1), 2 * self.n, dtype=np.intp)
        self._syndrome_table[rows, slot] = cols
        self._stabilizer_reducer = gf2.RowSpanReducer(self._generator_matrix)
        self.k = self.n - self._stabilizer_reducer.rank
        self.hd = decoupled_parity_check(hx, hz)
        for a in (self.hx, self.hz, self.hd, self._generator_matrix):
            a.setflags(write=False)

    @property
    def num_generators(self) -> int:
        return self.hx.shape[0]

    def generator_matrix(self) -> np.ndarray:
        """Generators as rows of the 2n-column (Hx | Hz) binary matrix."""
        return self._generator_matrix

    def stabilizer_reducer(self) -> gf2.RowSpanReducer:
        """RREF of the generator matrix for coset-membership tests."""
        return self._stabilizer_reducer

    def syndromes(self, ex: np.ndarray, ez: np.ndarray) -> np.ndarray:
        """Syndromes of a batch of Paulis: row b is (Hx·ez[b] + Hz·ex[b]) mod 2.

        ex and ez are (B, n) 0/1 arrays; returns (B, m) uint8.  Each bit XORs
        the bits its generator checks, gathered batch-minor through a padded
        column table: no BLAS call, whose threads cost more to wake than this.
        """
        ex, ez = np.asarray(ex), np.asarray(ez)
        if ex.ndim != 2 or ex.shape != ez.shape or ex.shape[1] != self.n:
            raise ValueError(f"expected two (B, {self.n}) arrays ex and ez")
        bits = np.concatenate([ex.T, ez.T, np.zeros((1, ex.shape[0]), np.uint8)], dtype=np.uint8, casting="unsafe")
        s = np.bitwise_xor.reduce(bits[self._syndrome_table], axis=1)
        s &= 1
        return s.T.copy()

    def syndrome(self, e: pauli.SymplecticPauli) -> pauli.Syndrome:
        return pauli.Syndrome(self.syndromes(e.ex[None, :], e.ez[None, :])[0])

    def __repr__(self) -> str:
        return f"StabilizerCode({self.name}: [[{self.n}, {self.k}]])"


def decoupled_parity_check(hx: np.ndarray, hz: np.ndarray) -> np.ndarray:
    """Three-block check matrix (Hz | Hx | Hx xor Hz) over the 3n bit layout."""
    return np.hstack([hz, hx, hx ^ hz]).astype(np.uint8)


# ---------------------------------------------------------------------------
# Surface-code family (via the hypergraph product of repetition codes)
# ---------------------------------------------------------------------------


def hypergraph_product(h1: np.ndarray, h2: np.ndarray, name: str = "hgp") -> StabilizerCode:
    """CSS product of two classical codes, given by their (m, n) uint8
    parity-check matrices.

    Qubit blocks: (n1*n2) then (m1*m2).  X checks are
    [1 (x) H2 , H1^T (x) 1], Z checks are [H1 (x) 1 , 1 (x) H2^T].
    """
    (m1, n1), (m2, n2) = h1.shape, h2.shape
    hx_css = np.hstack([
        np.kron(np.eye(n1, dtype=np.uint8), h2),
        np.kron(h1.T, np.eye(m2, dtype=np.uint8)),
    ]).astype(np.uint8)
    hz_css = np.hstack([
        np.kron(h1, np.eye(n2, dtype=np.uint8)),
        np.kron(np.eye(m1, dtype=np.uint8), h2.T),
    ]).astype(np.uint8)
    return css_code(name, hx_css, hz_css)


def css_code(name: str, hx_css: np.ndarray, hz_css: np.ndarray) -> StabilizerCode:
    """Stack pure-X and pure-Z check blocks into one generator matrix;
    raises ValueError when an X check anticommutes with a Z check."""
    hx_css = np.asarray(hx_css, dtype=np.uint8)
    hz_css = np.asarray(hz_css, dtype=np.uint8)
    if hz_css.shape[1] != hx_css.shape[1]:
        raise ValueError("X and Z blocks must act on the same qubit count")
    hx = np.vstack([hx_css, np.zeros_like(hz_css)])
    hz = np.vstack([np.zeros_like(hx_css), hz_css])
    code = StabilizerCode(name, hx, hz)
    failures = validate(code)
    if failures:
        raise ValueError("CSS blocks do not commute: " + "; ".join(failures))
    return code


def planar_surface(L: int) -> StabilizerCode:
    """[[L^2 + (L-1)^2, 1]] planar surface code on an L x L lattice."""
    if L < 2:
        raise ValueError("planar surface code needs L >= 2")
    rep = repetition(L, cyclic=False)
    return hypergraph_product(rep, rep, name=f"planar_surface_{L}")


def toric(L: int) -> StabilizerCode:
    """[[2L^2, 2]] toric code on a periodic L x L lattice."""
    if L < 2:
        raise ValueError("toric code needs L >= 2")
    rep = repetition(L, cyclic=True)
    return hypergraph_product(rep, rep, name=f"toric_{L}")


def xzzx_surface(L: int) -> StabilizerCode:
    """Planar surface layout with every check in XZZX form.

    Obtained by a Hadamard on the second qubit block of the planar surface
    code, which swaps the X/Z roles of those columns; parameters and distance
    are unchanged.
    """
    if L < 2:
        raise ValueError("XZZX surface code needs L >= 2")
    base = planar_surface(L)
    split = L * L  # first qubit block size
    hx = base.hx.copy()
    hz = base.hz.copy()
    hx[:, split:], hz[:, split:] = base.hz[:, split:], base.hx[:, split:]
    return StabilizerCode(f"xzzx_surface_{L}", hx, hz)


# ---------------------------------------------------------------------------
# Z-type Tanner-graph recursive expansion
# ---------------------------------------------------------------------------


def ztgre_cross_template(level: int) -> list[tuple[int, int]]:
    """Cross-edge template applied at the given expansion level.

    At level L the graph is two copies of the level L-1 graph, each with
    2^(L-2) checks and 2^(L-1) variables.  The template lists (check j,
    variable j) pairs: variable j of each copy joins check j of the other
    copy, for j up to the per-copy check count.  Kept as explicit data so
    the expansion rule is auditable; the published minimum-weight table for
    this family is the regression that locks it down.
    """
    half_checks = 1 << (level - 2)
    return [(j, j) for j in range(half_checks)]


def ztgre(L: int) -> StabilizerCode:
    """Rate-1/2 Z-type code on N = 2^L qubits from recursive graph doubling.

    All generators are Z-type, so the code corrects only X and Y errors; the
    minimum logical-X weight equals the distance of the classical kernel code.
    """
    if L < 1:
        raise ValueError("recursion depth must be >= 1")
    h = np.ones((1, 2), dtype=np.uint8)
    for level in range(2, L + 1):
        mh, nh = h.shape
        cross = np.zeros((mh, nh), dtype=np.uint8)
        for chk, var in ztgre_cross_template(level):
            cross[chk, var] = 1
        h = np.vstack([np.hstack([h, cross]), np.hstack([cross, h])])
    hz = h
    hx = np.zeros_like(hz)
    return StabilizerCode(f"ztgre_{L}", hx, hz)


# ---------------------------------------------------------------------------
# XYZ product and the Chamon specialization
# ---------------------------------------------------------------------------


def _kron3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.kron(np.kron(a, b), c).astype(np.uint8)


def xyz_product(h1: np.ndarray, h2: np.ndarray, h3: np.ndarray, name: str = "xyz") -> StabilizerCode:
    """Non-CSS three-fold product of classical codes, given by their (m, n)
    uint8 parity-check matrices.

    Qubit blocks A, B, C, D of sizes n1n2n3, m1m2n3, m1n2m3, n1m2m3; four
    generator row blocks with X/Y/Z tensor placements.  A Pauli tensor over a
    binary matrix M drops M into the ex block for X, the ez block for Z and
    both for Y.
    """
    (m1, n1), (m2, n2), (m3, n3) = h1.shape, h2.shape, h3.shape
    i = lambda d: np.eye(d, dtype=np.uint8)  # noqa: E731

    sizes = [n1 * n2 * n3, m1 * m2 * n3, m1 * n2 * m3, n1 * m2 * m3]

    def zeros(rows, cols):
        return np.zeros((rows, cols), dtype=np.uint8)

    # Row block 1: X on A, Y on B, Z on C, I on D.
    s_x = _kron3(h1, i(n2), i(n3))
    s_y = _kron3(i(m1), h2.T, i(n3))
    s_z = _kron3(i(m1), i(n2), h3.T)
    rows_s = s_x.shape[0]
    ex_s = [s_x, s_y, zeros(rows_s, sizes[2]), zeros(rows_s, sizes[3])]
    ez_s = [zeros(rows_s, sizes[0]), s_y, s_z, zeros(rows_s, sizes[3])]

    # Row block 2: Y on A, X on B, I on C, Z on D.
    t_y = _kron3(i(n1), h2, i(n3))
    t_x = _kron3(h1.T, i(m2), i(n3))
    t_z = _kron3(i(n1), i(m2), h3.T)
    rows_t = t_y.shape[0]
    ex_t = [t_y, t_x, zeros(rows_t, sizes[2]), zeros(rows_t, sizes[3])]
    ez_t = [t_y, zeros(rows_t, sizes[1]), zeros(rows_t, sizes[2]), t_z]

    # Row block 3: Z on A, I on B, X on C, Y on D.
    u_z = _kron3(i(n1), i(n2), h3)
    u_x = _kron3(h1.T, i(n2), i(m3))
    u_y = _kron3(i(n1), h2.T, i(m3))
    rows_u = u_z.shape[0]
    ex_u = [zeros(rows_u, sizes[0]), zeros(rows_u, sizes[1]), u_x, u_y]
    ez_u = [u_z, zeros(rows_u, sizes[1]), zeros(rows_u, sizes[2]), u_y]

    # Row block 4: I on A, Z on B, Y on C, X on D.
    v_z = _kron3(i(m1), i(m2), h3)
    v_y = _kron3(i(m1), h2, i(m3))
    v_x = _kron3(h1, i(m2), i(m3))
    rows_v = v_z.shape[0]
    ex_v = [zeros(rows_v, sizes[0]), zeros(rows_v, sizes[1]), v_y, v_x]
    ez_v = [zeros(rows_v, sizes[0]), v_z, v_y, zeros(rows_v, sizes[3])]

    hx = np.vstack([np.hstack(b) for b in (ex_s, ex_t, ex_u, ex_v)])
    hz = np.vstack([np.hstack(b) for b in (ez_s, ez_t, ez_u, ez_v)])
    return StabilizerCode(name, hx, hz)


def chamon(n1: int, n2: int, n3: int) -> StabilizerCode:
    """XYZ product of three cyclic repetition codes; N = 4*n1*n2*n3."""
    if min(n1, n2, n3) < 2:
        raise ValueError("Chamon code needs every block length >= 2")
    return xyz_product(
        repetition(n1, cyclic=True),
        repetition(n2, cyclic=True),
        repetition(n3, cyclic=True),
        name=f"chamon_{n1}_{n2}_{n3}",
    )


# ---------------------------------------------------------------------------
# Validation and logical operators
# ---------------------------------------------------------------------------


def validate(code: StabilizerCode) -> list[str]:
    """Check that every pair of generators commutes.

    Returns a message naming the first anticommuting pair, or an empty list
    when the code is valid.  The generators' own syndromes form the
    symmetric (m, m) matrix of their symplectic products.  Commutation is
    the only check: k and Hd need none, because the constructor derives both
    from Hx and Hz and a built code's arrays are read-only.
    """
    bad = np.argwhere(code.syndromes(code.hx, code.hz))
    if bad.size:
        i, j = map(int, bad[0])
        return [f"generators {i} and {j} anticommute"]
    return []


def logical_basis(code: StabilizerCode) -> list[pauli.SymplecticPauli]:
    """2k logical operators, paired as (X1, Z1, ..., Xk, Zk).

    Each commutes with every generator and lies outside the generator span;
    pair j anticommutes internally and commutes with every other pair
    (symplectic Gram-Schmidt over the centralizer kernel).
    """
    if code.k == 0:
        raise ValueError("code has no logical qubits")
    # Centralizer: vectors v = (vx|vz) with Hx·vz + Hz·vx = 0, i.e. kernel
    # of the half-swapped generator matrix.
    kernel = gf2.kernel_basis(np.hstack([code.hz, code.hx]))
    # Keep kernel vector i iff it is independent of the generators and of
    # kernel vectors 0..i-1: its column of [G; kernel]^T is a pivot column.
    g = code.generator_matrix()
    _, pivot_cols = gf2.row_reduce(np.vstack([g, kernel]).T)
    pivot_cols = np.array(pivot_cols, dtype=np.intp)
    pool = kernel[pivot_cols[pivot_cols >= g.shape[0]] - g.shape[0]]
    if pool.shape[0] != 2 * code.k:
        raise RuntimeError("centralizer quotient has unexpected dimension")

    # Pair the first vector u with the first one it anticommutes with, then
    # make every other vector commute with both: w += <w, partner> u + <w, u> partner.
    pairs = np.empty_like(pool)
    for i in range(0, pairs.shape[0], 2):
        u, rest = pool[0], pool[1:]
        with_u = pauli.symplectic_product(rest, u)
        hits = np.flatnonzero(with_u)
        if not hits.size:
            raise RuntimeError("symplectic pairing failed on the quotient")
        partner = rest[hits[0]]
        pairs[i], pairs[i + 1] = u, partner
        keep = np.arange(rest.shape[0]) != hits[0]
        pool, with_u = rest[keep], with_u[keep]
        pool ^= (pauli.symplectic_product(pool, partner)[:, None] & u) ^ (with_u[:, None] & partner)
    return [pauli.SymplecticPauli.from_arrays(v[: code.n], v[code.n :]) for v in pairs]


# ---------------------------------------------------------------------------
# Text serialization
# ---------------------------------------------------------------------------

_FORMAT_HEADER = "# qdist stabilizer code v1"


def dumps(code: StabilizerCode) -> str:
    """Serialize: header, name/n/k lines, one generator per line as a Pauli string.

    Raises ValueError for a name that would not read back unchanged: empty,
    with surrounding whitespace, or spanning more than one line.
    """
    if code.name != code.name.strip() or code.name.splitlines() != [code.name]:
        raise ValueError(f"code name {code.name!r} cannot be written to a code file")
    lines = [_FORMAT_HEADER, f"name {code.name}", f"n {code.n}", f"k {code.k}"]
    return "\n".join(lines + pauli.format_rows(code.hx, code.hz)) + "\n"


def loads(text: str) -> StabilizerCode:
    """Parse and validate the text format; raises ValueError on any mismatch."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != _FORMAT_HEADER:
        raise ValueError("missing or unknown code-file header")
    fields = {}
    idx = 1
    while idx < len(lines) and " " in lines[idx] and lines[idx].split()[0] in ("name", "n", "k"):
        key, _, value = lines[idx].partition(" ")
        fields[key] = value.strip()
        idx += 1
    for key in ("name", "n", "k"):
        if key not in fields:
            raise ValueError(f"missing header field {key!r}")
    n = int(fields["n"])
    k = int(fields["k"])
    if idx == len(lines):
        raise ValueError("code file lists no generators")
    hx, hz = pauli.parse_rows(lines[idx:], n)
    code = StabilizerCode(fields["name"], hx, hz)
    failures = validate(code)
    if failures:
        raise ValueError("invalid code file: " + "; ".join(failures))
    if code.k != k:
        raise ValueError(f"declared k={k} but generators give k={code.k}")
    return code


def save(code: StabilizerCode, path) -> None:
    with open(path, "w") as f:
        f.write(dumps(code))


def load(path) -> StabilizerCode:
    with open(path) as f:
        return loads(f.read())


# Registry used by the CLI and the test suite.
FAMILIES = {
    "surface": (planar_surface, 1),
    "toric": (toric, 1),
    "xzzx": (xzzx_surface, 1),
    "ztgre": (ztgre, 1),
    "chamon": (chamon, 3),
}


def make(family: str, params: tuple[int, ...]) -> StabilizerCode:
    """Construct a registered code family from integer parameters."""
    if family not in FAMILIES:
        raise ValueError(f"unknown code family {family!r}; choices: {sorted(FAMILIES)}")
    ctor, arity = FAMILIES[family]
    if len(params) != arity:
        raise ValueError(f"family {family!r} takes {arity} parameter(s), got {len(params)}")
    return ctor(*params)
