"""Belief propagation on the decoupled check matrix plus OSD-0 fallback.

The 3n decoupled bits are treated as independent binary variables with a
prior that matches the noise: p/3 on each X, Z and Y bit for depolarizing
noise, and p on the X bits and 0 on the Z and Y bits for pure-X noise (a bit
that cannot flip gets the largest LLR a message can carry, +clip).  Without
the matched prior, the identical X and Y columns of a Z-only code's Hd keep
BP from settling on pure-X errors.  Messages run in the log domain with a
flooding schedule; the per-qubit one-hot constraint is enforced at the hard
decision, which picks the best of {I, X, Z, Y} from the three bit marginals.
When BP fails to converge, a reliability-ordered OSD-0 solve on the same
matrix produces a syndrome-consistent raw vector, which the XOR collapse in
pauli.to_symplectic turns into a valid Pauli with the same syndrome.

The batch entry point decodes many syndromes at once (flooding is data
parallel across trials); decode() is the single-syndrome wrapper.

BP works batch-minor: messages are (edges + 1, trials) arrays, so every
per-edge operation runs over contiguous rows of trials, and the last row is
neutral padding.  A check's (or variable's) sum over its edges is one gather
through a (degree, owners) slot table followed by a reduction over axis 0.
That reduction adds in exactly np.add.reduceat's order -- the first term
plus numpy's pairwise sum of the rest -- which the trial-major kernel this
one replaced used, so posteriors, decisions and reports are bit-identical to
it; tests/test_decoder.py keeps that kernel as the reference and pins the
order against np.add.reduceat.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import gf2, pauli
from .codes import StabilizerCode

# Messages are float32 (the batch dimension makes BP memory-bound); the
# guards below keep tanh/log/arctanh inside the float32 range.
_MSG_DTYPE = np.float32
_TANH_EPS = 1e-7
_LOG_FLOOR = 1e-37


class NoiseKind(str, enum.Enum):
    DEPOLARIZING = "depolarizing"
    PURE_X = "pureX"


@dataclass(frozen=True)
class ChannelPrior:
    """Per-bit prior on the 3n decoupled bits for one noise kind at rate p.

    Depolarizing: the X, Z and Y bits of a qubit each hit with probability
    p/3.  Pure-X: the X bit hits with probability p; the Z and Y bits never do.
    """

    p: float
    noise: NoiseKind = NoiseKind.DEPOLARIZING

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError("error rate must be in (0, 1)")
        object.__setattr__(self, "noise", NoiseKind(self.noise))  # ValueError if unknown

    @property
    def block_probs(self) -> tuple[float, float, float]:
        """Probability that a qubit's X, Z and Y bit is set."""
        if self.noise == NoiseKind.PURE_X:
            return (self.p, 0.0, 0.0)
        q = self.p / 3.0
        return (q, q, q)

    def bit_probs(self, n: int) -> np.ndarray:
        """(3n,) float64 prior probabilities in (x' | z' | y') block order."""
        return np.repeat(np.array(self.block_probs), n)

    def llrs(self, n: int, clip: float) -> np.ndarray:
        """(3n,) float32 prior LLRs log((1 - q) / q); a bit with q = 0 gets
        +clip, the largest magnitude any BP message takes."""
        # math.log, not np.log: the float32 of the depolarizing LLR must not
        # move by a last bit, or depolarizing reports would change.
        blocks = [math.log((1.0 - q) / q) if q > 0.0 else clip for q in self.block_probs]
        return np.repeat(np.array(blocks, dtype=_MSG_DTYPE), n)


@dataclass(frozen=True)
class BPConfig:
    max_iterations: int = 100
    clip: float = 30.0  # log-domain message bound; keeps marginals finite

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("need at least one iteration")


@dataclass
class DecodeOutcome:
    estimate: pauli.SymplecticPauli
    posteriors: np.ndarray  # per-bit P(bit=1), length 3n
    bp_converged: bool
    osd_applied: bool
    iterations: int


class DecoderContext:
    """Per-code precomputation shared by every decode call.

    Holds the Tanner-graph edge layout of the decoupled matrix, the slot
    tables BP sums over, and the packed matrix for OSD.  Immutable once
    built; safe to share.
    """

    def __init__(self, hd: np.ndarray):
        hd = np.asarray(hd, dtype=np.uint8) & 1
        self.hd = hd
        self.m, self.nbits = hd.shape
        # Drop all-zero check rows from the graph (vacuous constraints); the
        # parity test still covers them, so a syndrome bit there never converges.
        row_w = hd.sum(axis=1)
        self.active_checks = np.nonzero(row_w)[0]
        # Edges in row-major order: by check, then by variable.
        self.edge_check, self.edge_var = np.divmod(np.flatnonzero(hd[self.active_checks]), self.nbits)
        self.num_edges = self.edge_check.shape[0]
        # Edge ids ascend along each check's and each variable's edge list,
        # the order the sums must follow.
        self.check_slots = _slot_tables(self.edge_check, self.num_edges)
        self.var_slots = _slot_tables(self.edge_var, self.num_edges)
        self.hd_f32 = hd.astype(np.float32)
        self.packed = gf2.BitMatrix.from_array(hd)

    @classmethod
    def for_code(cls, code: StabilizerCode) -> "DecoderContext":
        ctx = code.metadata.get("_decoder_ctx")
        if ctx is None:
            ctx = cls(code.hd)
            code.metadata["_decoder_ctx"] = ctx
        return ctx


# Owners of degree <= _SHARED_DEGREE share one slot table: their sums have at
# most 7 terms after the first, which numpy adds sequentially, so trailing
# zero padding leaves them unchanged.
_SHARED_DEGREE = 8


def _slot_tables(owner: np.ndarray, pad: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Group edges by owner (check or variable) into (ids, slots) pairs.

    slots is a (D, K) array whose column k lists the edges of owner ids[k] in
    ascending edge order, padded with the edge id `pad` (an all-neutral row).
    Owners of degree <= _SHARED_DEGREE share one table; each larger degree
    gets a table of its own, so its pairwise sum is never padded.
    """
    order = np.argsort(owner, kind="stable")
    deg = np.bincount(owner)
    ids = np.flatnonzero(deg)
    deg = deg[ids]
    group = np.repeat(np.arange(ids.shape[0]), deg)  # owner rank of edge order[i]
    pos = np.arange(order.shape[0]) - (np.cumsum(deg) - deg)[group]
    key = np.where(deg <= _SHARED_DEGREE, 0, deg)
    tables = []
    for k in np.unique(key):
        sel = key == k
        col = np.cumsum(sel) - 1
        on = sel[group]
        slots = np.full((deg[sel].max(), col[-1] + 1), pad, dtype=np.intp)
        slots[pos[on], col[group[on]]] = order[on]
        tables.append((ids[sel], slots))
    return tables


def _pairwise(a: np.ndarray) -> np.ndarray:
    """numpy's pairwise float sum over axis 0 of a (n, ...) stack, n >= 1.

    Below 8 terms numpy adds sequentially (from -0.0, which leaves a[0]
    unchanged); up to 128 it keeps 8 strided accumulators, combines them as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and adds the tail in order; above
    that it splits at a multiple of 8 and recurses.
    """
    n = a.shape[0]
    if n < 8:
        res = a[0].copy()
        for i in range(1, n):
            res += a[i]
        return res
    if n <= 128:
        r = a[:8].copy()
        body = n - n % 8
        for i in range(8, body, 8):
            r += a[i : i + 8]
        res = (r[0] + r[1]) + (r[2] + r[3])
        res += (r[4] + r[5]) + (r[6] + r[7])
        for i in range(body, n):
            res += a[i]
        return res
    half = n // 2
    half -= half % 8
    return _pairwise(a[:half]) + _pairwise(a[half:])


def _ordered_sum(g: np.ndarray) -> np.ndarray:
    """Sum a (D, ...) stack over axis 0 exactly as np.add.reduceat sums one
    segment: the first term plus the pairwise sum of the rest."""
    if g.shape[0] == 1:
        return g[0].copy()
    res = _pairwise(g[1:])
    res += g[0]
    return res


def _decision_bits_from_llr(llr: np.ndarray, n: int) -> np.ndarray:
    """Constrained per-qubit decision from posterior LLRs; (3n, B) -> (3n, B) bits.

    Picks the most likely of I/X/Z/Y from the product of the three bit
    marginals.  Those four scores divided by P(I) are {1, exp(-llr_x),
    exp(-llr_z), exp(-llr_y)}, so a qubit stays I unless its smallest LLR is
    negative, and exact ties go to the first of X, Z, Y.
    """
    if llr.ndim != 2 or llr.shape[0] != 3 * n:
        raise ValueError("expected a (3n, B) array of posterior LLRs")
    x, z, y = llr[:n], llr[n : 2 * n], llr[2 * n :]
    low = np.minimum(np.minimum(x, z), y)
    hit = low < 0
    bits = np.empty(llr.shape, dtype=np.uint8)
    bx = hit & (x == low)
    hit &= ~bx
    bz = hit & (z == low)
    bits[:n] = bx
    bits[n : 2 * n] = bz
    bits[2 * n :] = hit & ~bz
    return bits


def bp_decode_batch(ctx: DecoderContext, syndromes: np.ndarray, prior: ChannelPrior, cfg: BPConfig):
    """Flooding sum-product over a batch of syndromes.

    syndromes: (B, m) uint8.  Returns (decision_bits (B, 3n) canonical
    one-hot, posteriors (B, 3n), converged (B,), iterations (B,)).
    """
    S = np.asarray(syndromes, dtype=np.uint8)
    if S.ndim != 2 or S.shape[1] != ctx.m:
        raise ValueError("syndrome batch shape does not match the check matrix")
    B = S.shape[0]
    n = ctx.nbits // 3
    prior_llr = prior.llrs(n, cfg.clip)[:, None]  # (3n, 1)

    out_bits = np.zeros((B, ctx.nbits), dtype=np.uint8)
    out_post = np.empty((B, ctx.nbits), dtype=np.float64)
    out_post[:] = prior.bit_probs(n)
    out_conv = np.zeros(B, dtype=bool)
    out_iter = np.full(B, cfg.max_iterations, dtype=np.int64)
    if B == 0:
        return out_bits, out_post, out_conv, out_iter

    if ctx.num_edges == 0:
        # No constraints at all: the identity decision stands.
        out_conv[:] = ~S.any(axis=1)
        out_iter[:] = 1
        return out_bits, out_post, out_conv, out_iter

    E = ctx.num_edges
    edge_var = ctx.edge_var
    edge_check = ctx.edge_check
    C = ctx.active_checks.shape[0]

    # Batch-minor layout: row e of an (E + 1, B) array holds edge e for every
    # active trial; row E is padding that slot tables point at.
    active = np.arange(B)
    s_full = np.ascontiguousarray(S.T)  # (m, B)
    s_act = s_full[ctx.active_checks].astype(bool)  # (C, B)
    mcv = np.zeros((E + 1, B), dtype=_MSG_DTYPE)
    tot = np.repeat(prior_llr, B, axis=1)
    var_prior = [prior_llr[ids] for ids, _ in ctx.var_slots]

    for it in range(1, cfg.max_iterations + 1):
        b = active.shape[0]
        # Variable-to-check messages from the previous posterior totals; the
        # new check-to-variable messages are built in place in the same rows.
        nxt = np.empty((E + 1, b), dtype=_MSG_DTYPE)
        nxt[E] = 0.0
        t = np.subtract(tot[edge_var], mcv[:E], out=nxt[:E])
        t *= 0.5
        np.tanh(t, out=t)
        # Check-to-variable messages via the log-magnitude / sign split.  A
        # check's sign flips with its syndrome bit and with each negative t;
        # padding is neutral: lg = 0, not negative.
        neg = np.zeros((E + 1, b), dtype=bool)
        np.less(t, 0, out=neg[:E])
        lg = np.zeros((E + 1, b), dtype=_MSG_DTYPE)
        np.abs(t, out=t)
        np.clip(t, _LOG_FLOOR, 1.0 - _TANH_EPS, out=t)
        np.log(t, out=lg[:E])
        lsum = np.empty((C, b), dtype=_MSG_DTYPE)
        flip = s_act.copy()
        for ids, slots in ctx.check_slots:
            lsum[ids] = _ordered_sum(lg[slots])
            flip[ids] ^= np.logical_xor.reduce(neg[slots], axis=0)
        prod = np.subtract(lsum[edge_check], lg[:E], out=t)
        np.exp(prod, out=prod)
        # Negate by flipping the sign bit: exact, and cheaper than a masked ufunc.
        raw = prod.view(np.uint32)
        raw ^= np.left_shift(flip[edge_check] ^ neg[:E], 31, dtype=np.uint32)
        np.clip(prod, -1.0 + _TANH_EPS, 1.0 - _TANH_EPS, out=prod)
        np.arctanh(prod, out=prod)
        prod *= 2.0
        np.clip(prod, -cfg.clip, cfg.clip, out=prod)
        mcv = nxt

        # Posterior LLRs, constrained decision, convergence test.
        for (ids, slots), pr in zip(ctx.var_slots, var_prior):
            post = _ordered_sum(mcv[slots])
            post += pr
            tot[ids] = post
        bits = _decision_bits_from_llr(tot, n)
        parity = ctx.hd_f32 @ bits.astype(_MSG_DTYPE)  # exact: integer sums <= 3n
        ok = ~np.any((parity.astype(np.int64) & 1) != s_full, axis=0)

        done = ok if it < cfg.max_iterations else np.ones(b, dtype=bool)
        if done.any():
            idx = active[done]
            out_bits[idx] = bits[:, done].T
            with np.errstate(over="ignore"):
                out_post[idx] = (1.0 / (1.0 + np.exp(tot[:, done]))).T
            out_conv[idx] = ok[done]
            out_iter[idx] = it
            keep = ~done
            if not keep.any():
                break
            active = active[keep]
            mcv = mcv[:, keep]
            tot = tot[:, keep]
            s_full = s_full[:, keep]
            s_act = s_act[:, keep]
    return out_bits, out_post, out_conv, out_iter


def bp_decode(ctx: DecoderContext, syndrome, prior: ChannelPrior, cfg: BPConfig):
    """Single-syndrome sum-product; see bp_decode_batch for the semantics.

    Returns (raw_bits, posteriors, converged, iterations) where raw_bits is
    the canonical one-hot decision vector of length 3n.
    """
    s = syndrome.bits if isinstance(syndrome, pauli.Syndrome) else np.asarray(syndrome)
    bits, post, conv, iters = bp_decode_batch(ctx, s[None, :], prior, cfg)
    return bits[0], post[0], bool(conv[0]), int(iters[0])


def osd_post_process(ctx: DecoderContext, syndrome, posteriors) -> np.ndarray:
    """OSD-0: solve Hd·x = s on the most reliable independent column set.

    Columns are ranked by descending P(bit=1) (ties: ascending index).  A
    single syndrome with 3n posteriors gives 3n bits; a (B, m) batch with
    (B, 3n) posteriors gives (B, 3n) bits.  Both run one batched
    elimination, whose rows equal gf2.solve_selected's.  The syndrome of a
    real error always lies in the column space; Infeasible therefore
    indicates a broken check matrix and is re-raised as such.
    """
    s = syndrome.bits if isinstance(syndrome, pauli.Syndrome) else np.asarray(syndrome)
    post = np.asarray(posteriors, dtype=np.float64)
    order = np.argsort(-post, axis=-1, kind="stable")
    try:
        x = gf2.solve_selected_batch(ctx.packed, np.atleast_2d(s), np.atleast_2d(order))
    except gf2.Infeasible as exc:
        raise RuntimeError("syndrome outside the column space of Hd") from exc
    return x if s.ndim == 2 else x[0]


def decode(
    code: StabilizerCode,
    syndrome: pauli.Syndrome,
    prior: ChannelPrior,
    cfg: BPConfig | None = None,
) -> DecodeOutcome:
    """Full pipeline: BP, then OSD-0 when BP does not converge."""
    cfg = cfg or BPConfig()
    ctx = DecoderContext.for_code(code)
    bits, post, conv, iters = bp_decode(ctx, syndrome, prior, cfg)
    if conv:
        return DecodeOutcome(
            estimate=pauli.to_symplectic(bits),
            posteriors=post,
            bp_converged=True,
            osd_applied=False,
            iterations=iters,
        )
    raw = osd_post_process(ctx, syndrome, post)
    return DecodeOutcome(
        estimate=pauli.to_symplectic(raw),
        posteriors=post,
        bp_converged=False,
        osd_applied=True,
        iterations=iters,
    )
