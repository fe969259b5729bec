"""Stabilizer code constructions and characterization.

Families covered: repetition-based classical ingredients, planar/toric/XZZX
surface codes, the rate-1/2 Z-type recursive Tanner-graph expansion family,
the hypergraph product, the three-fold XYZ product and its Chamon
specialization from cyclic repetition codes.

Generator matrices are kept as dense uint8 (Hx | Hz) blocks; the qubit count
stays small enough (N <= ~1000) that dense storage is the simple and fast
choice.  Dependent generator rows are legal; the logical dimension k is
always recomputed by GF(2) rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gf2, pauli


@dataclass(frozen=True)
class ClassicalCode:
    """Classical binary code given by its parity-check matrix."""

    h: np.ndarray

    @property
    def n(self) -> int:
        return self.h.shape[1]

    @property
    def m(self) -> int:
        return self.h.shape[0]


def repetition(n: int, cyclic: bool = False) -> ClassicalCode:
    """Repetition-code parity checks: length-n chain or n-cycle."""
    if n < 2:
        raise ValueError("repetition code needs n >= 2")
    rows = n if cyclic else n - 1
    h = np.zeros((rows, n), dtype=np.uint8)
    for i in range(rows):
        h[i, i] = 1
        h[i, (i + 1) % n] = 1
    return ClassicalCode(h)


class StabilizerCode:
    """Stabilizer code defined by generator blocks (Hx | Hz).

    Rows are generators; row i applies X where hx[i] is set and Z where
    hz[i] is set (both set = Y).  k is computed from the GF(2) rank of the
    2n-column binary generator matrix, never assumed: one elimination gives
    both that rank and the stabilizer reducer.
    """

    def __init__(self, name: str, hx: np.ndarray, hz: np.ndarray, metadata=None):
        hx = np.asarray(hx, dtype=np.uint8) & 1
        hz = np.asarray(hz, dtype=np.uint8) & 1
        if hx.shape != hz.shape:
            raise ValueError("Hx and Hz must have identical shapes")
        self.name = name
        self.hx = hx
        self.hz = hz
        self.n = hx.shape[1]
        self.metadata = dict(metadata or {})
        self._generator_matrix = np.hstack([hx, hz])
        # [Hz | Hx]^T, so that [ex | ez] times it is Hz·ex + Hx·ez.
        self._syndrome_matrix = np.vstack([hz.T, hx.T]).astype(np.float32)
        self._stabilizer_reducer = gf2.RowSpanReducer(self._generator_matrix)
        self.k = self.n - self._stabilizer_reducer.rank
        self.hd = decoupled_parity_check(hx, hz)

    @property
    def num_generators(self) -> int:
        return self.hx.shape[0]

    def generator_matrix(self) -> np.ndarray:
        """Generators as rows of the 2n-column (Hx | Hz) binary matrix."""
        return self._generator_matrix

    def generator(self, i: int) -> pauli.SymplecticPauli:
        return pauli.SymplecticPauli.from_arrays(self.hx[i], self.hz[i])

    def stabilizer_reducer(self) -> gf2.RowSpanReducer:
        """RREF of the generator matrix for coset-membership tests."""
        return self._stabilizer_reducer

    def syndromes(self, ex: np.ndarray, ez: np.ndarray) -> np.ndarray:
        """Syndromes of a batch of Paulis: row b is (Hx·ez[b] + Hz·ex[b]) mod 2.

        ex and ez are (B, n) 0/1 arrays; returns (B, m) uint8.  The product
        runs in float32, which is exact here: every dot product is an integer
        of at most 2n.
        """
        ex = np.asarray(ex)
        ez = np.asarray(ez)
        if ex.ndim != 2 or ex.shape != ez.shape or ex.shape[1] != self.n:
            raise ValueError(f"expected two (B, {self.n}) arrays ex and ez")
        dots = np.hstack([ex, ez]) @ self._syndrome_matrix
        return (dots.astype(np.int32) & 1).astype(np.uint8)

    def syndrome(self, e: pauli.SymplecticPauli) -> pauli.Syndrome:
        return pauli.Syndrome(self.syndromes(e.ex[None, :], e.ez[None, :])[0])

    def in_stabilizer_group(self, p: pauli.SymplecticPauli) -> bool:
        vec = np.concatenate([p.ex, p.ez])
        return bool(self.stabilizer_reducer().contains_batch(vec[None, :])[0])

    def __repr__(self) -> str:
        return f"StabilizerCode({self.name}: [[{self.n}, {self.k}]])"


def decoupled_parity_check(hx: np.ndarray, hz: np.ndarray) -> np.ndarray:
    """Three-block check matrix (Hz | Hx | Hx xor Hz) over the 3n bit layout."""
    return np.hstack([hz, hx, hx ^ hz]).astype(np.uint8)


# ---------------------------------------------------------------------------
# Surface-code family (via the hypergraph product of repetition codes)
# ---------------------------------------------------------------------------


def hypergraph_product(c1: ClassicalCode, c2: ClassicalCode, name: str = "hgp") -> StabilizerCode:
    """CSS product of two classical codes.

    Qubit blocks: (n1*n2) then (m1*m2).  X checks are
    [1 (x) H2 , H1^T (x) 1], Z checks are [H1 (x) 1 , 1 (x) H2^T].
    """
    h1, h2 = c1.h, c2.h
    n1, m1, n2, m2 = c1.n, c1.m, c2.n, c2.m
    hx_css = np.hstack([
        np.kron(np.eye(n1, dtype=np.uint8), h2),
        np.kron(h1.T, np.eye(m2, dtype=np.uint8)),
    ]).astype(np.uint8)
    hz_css = np.hstack([
        np.kron(h1, np.eye(n2, dtype=np.uint8)),
        np.kron(np.eye(m1, dtype=np.uint8), h2.T),
    ]).astype(np.uint8)
    return css_code(name, hx_css, hz_css, metadata={"n1": n1, "m1": m1, "n2": n2, "m2": m2})


def css_code(name: str, hx_css: np.ndarray, hz_css: np.ndarray, metadata=None) -> StabilizerCode:
    """Stack pure-X and pure-Z check blocks into one generator matrix."""
    hx_css = np.asarray(hx_css, dtype=np.uint8)
    hz_css = np.asarray(hz_css, dtype=np.uint8)
    n = hx_css.shape[1]
    if hz_css.shape[1] != n:
        raise ValueError("X and Z blocks must act on the same qubit count")
    if np.any((hx_css.astype(np.int64) @ hz_css.T) & 1):
        raise ValueError("CSS blocks do not commute (Hx Hz^T != 0)")
    hx = np.vstack([hx_css, np.zeros_like(hz_css)])
    hz = np.vstack([np.zeros_like(hx_css), hz_css])
    return StabilizerCode(name, hx, hz, metadata=metadata)


def planar_surface(L: int) -> StabilizerCode:
    """[[L^2 + (L-1)^2, 1]] planar surface code on an L x L lattice."""
    if L < 2:
        raise ValueError("planar surface code needs L >= 2")
    rep = repetition(L, cyclic=False)
    code = hypergraph_product(rep, rep, name=f"planar_surface_{L}")
    code.metadata["L"] = L
    return code


def toric(L: int) -> StabilizerCode:
    """[[2L^2, 2]] toric code on a periodic L x L lattice."""
    if L < 2:
        raise ValueError("toric code needs L >= 2")
    rep = repetition(L, cyclic=True)
    code = hypergraph_product(rep, rep, name=f"toric_{L}")
    code.metadata["L"] = L
    return code


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
    return StabilizerCode(f"xzzx_surface_{L}", hx, hz, metadata={"L": L})


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
    return StabilizerCode(f"ztgre_{L}", hx, hz, metadata={"L": L})


# ---------------------------------------------------------------------------
# XYZ product and the Chamon specialization
# ---------------------------------------------------------------------------


def _kron3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.kron(np.kron(a, b), c).astype(np.uint8)


def xyz_product(
    c1: ClassicalCode, c2: ClassicalCode, c3: ClassicalCode, name: str = "xyz"
) -> StabilizerCode:
    """Non-CSS three-fold product of classical codes.

    Qubit blocks A, B, C, D of sizes n1n2n3, m1m2n3, m1n2m3, n1m2m3; four
    generator row blocks with X/Y/Z tensor placements.  A Pauli tensor over a
    binary matrix M drops M into the ex block for X, the ez block for Z and
    both for Y.
    """
    h1, h2, h3 = c1.h, c2.h, c3.h
    n1, m1 = c1.n, c1.m
    n2, m2 = c2.n, c2.m
    n3, m3 = c3.n, c3.m
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
    meta = {"n": (n1, n2, n3), "m": (m1, m2, m3), "block_sizes": sizes}
    return StabilizerCode(name, hx, hz, metadata=meta)


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


@dataclass
class ValidationReport:
    passed: bool
    failures: list = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.passed


def validate(code: StabilizerCode) -> ValidationReport:
    """Check generator commutation, the cached k and the cached Hd."""
    failures = []
    comm = (
        code.hx.astype(np.int64) @ code.hz.T + code.hz.astype(np.int64) @ code.hx.T
    ) & 1
    bad = np.argwhere(comm)
    if bad.size:
        i, j = map(int, bad[0])
        failures.append(f"generators {i} and {j} anticommute")
    k = code.n - gf2.rank(code.generator_matrix())
    if k != code.k:
        failures.append(f"cached k={code.k} but rank gives k={k}")
    if not np.array_equal(code.hd, decoupled_parity_check(code.hx, code.hz)):
        failures.append("cached decoupled matrix is stale")
    return ValidationReport(passed=not failures, failures=failures)


def logical_basis(code: StabilizerCode) -> list[pauli.SymplecticPauli]:
    """2k logical operators, paired as (X1, Z1, ..., Xk, Zk).

    Each commutes with every generator and lies outside the generator span;
    pair j anticommutes internally and commutes with every other pair
    (symplectic Gram-Schmidt over the centralizer kernel).
    """
    if code.k == 0:
        raise ValueError("code has no logical qubits")
    n = code.n
    # Centralizer: vectors v = (vx|vz) with Hx·vz + Hz·vx = 0, i.e. kernel
    # of the half-swapped generator matrix.
    swapped = np.hstack([code.hz, code.hx])
    kernel = gf2.kernel_basis(swapped)
    # Keep kernel vectors independent modulo the stabilizer span.
    reps = []
    current = code.generator_matrix()
    cur_rank = code.stabilizer_reducer().rank
    for v in kernel:
        cand = np.vstack([current, v])
        r = gf2.rank(cand)
        if r > cur_rank:
            reps.append(v)
            current = cand
            cur_rank = r
    if len(reps) != 2 * code.k:
        raise RuntimeError("centralizer quotient has unexpected dimension")

    def form(u, v):
        return int((np.dot(u[:n], v[n:]) + np.dot(u[n:], v[:n])) & 1)

    pairs = []
    pool = list(reps)
    while pool:
        u = pool.pop(0)
        partner = None
        for idx, w in enumerate(pool):
            if form(u, w):
                partner = pool.pop(idx)
                break
        if partner is None:
            raise RuntimeError("symplectic pairing failed on the quotient")
        for idx, w in enumerate(pool):
            w2 = w ^ (form(w, partner) * u) ^ (form(w, u) * partner)
            pool[idx] = w2 & 1
        pairs.append((u, partner))
    out = []
    for u, v in pairs:
        out.append(pauli.SymplecticPauli.from_arrays(u[:n], u[n:]))
        out.append(pauli.SymplecticPauli.from_arrays(v[:n], v[n:]))
    return out


# ---------------------------------------------------------------------------
# Text serialization
# ---------------------------------------------------------------------------

_FORMAT_HEADER = "# qdist stabilizer code v1"


def dumps(code: StabilizerCode) -> str:
    """Serialize: header, name/n/k lines, one generator per line as a Pauli string."""
    lines = [_FORMAT_HEADER, f"name {code.name}", f"n {code.n}", f"k {code.k}"]
    for i in range(code.num_generators):
        lines.append(pauli.to_string(code.generator(i)))
    return "\n".join(lines) + "\n"


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
    gens = [pauli.from_string(ln) for ln in lines[idx:]]
    if not gens:
        raise ValueError("code file lists no generators")
    for g in gens:
        if g.n != n:
            raise ValueError("generator length does not match declared n")
    hx = np.vstack([g.ex for g in gens])
    hz = np.vstack([g.ez for g in gens])
    code = StabilizerCode(fields["name"], hx, hz)
    report = validate(code)
    if not report:
        raise ValueError("invalid code file: " + "; ".join(report.failures))
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
