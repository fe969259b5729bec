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

The batch entry points decode many syndromes at once (flooding is data
parallel across trials); decode() runs one syndrome through them as a batch
of one.

BP works batch-minor: messages are (edges + 1, trials) arrays, so every
per-edge operation runs over contiguous rows of trials, and the last row is
neutral padding.  A check's (or variable's) sum over its edges is one gather
through a (degree, owners) slot table followed by a reduction over axis 0.
That reduction adds in exactly np.add.reduceat's order -- the first term
plus numpy's pairwise sum of the rest -- which the trial-major kernel this
one replaced used, so posteriors, decisions and reports are bit-identical to
it; tests/test_decoder.py keeps that kernel as the reference and pins the
order against np.add.reduceat.  Messages and totals are kept at half scale
(exact in float32), every buffer is allocated once per call, and a trial has
converged when each check's decision bits, gathered through a per-check
slot table, XOR to its syndrome bit.
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
        # A clip of 0 or less pins every message at or below 0, and NaN
        # poisons them; either silently breaks BP instead of failing.
        if not 0.0 < self.clip < math.inf:
            raise ValueError("clip must be finite and positive")


@dataclass
class DecodeOutcome:
    estimate: pauli.SymplecticPauli
    posteriors: np.ndarray  # per-bit P(bit=1), length 3n
    bp_converged: bool
    osd_applied: bool
    iterations: int


class DecoderContext:
    """Per-code precomputation shared by every decode call.

    Holds the decoupled matrix that OSD solves on, its Tanner-graph edge
    layout and the slot tables BP sums over.  Immutable once built; safe to
    share.
    """

    def __init__(self, hd: np.ndarray):
        hd = np.asarray(hd, dtype=np.uint8) & 1
        self.hd = hd
        self.m, self.nbits = hd.shape
        # Drop all-zero check rows from the graph (vacuous constraints); a
        # syndrome bit on one of them can never be met, so it never converges.
        row_w = hd.sum(axis=1)
        self.active_checks = np.nonzero(row_w)[0]
        self.vacuous_checks = np.nonzero(row_w == 0)[0]
        # Edges in row-major order: by check, then by variable.
        self.edge_check, self.edge_var = np.divmod(np.flatnonzero(hd[self.active_checks]), self.nbits)
        self.num_edges = self.edge_check.shape[0]
        # Edge ids ascend along each check's and each variable's edge list,
        # the order the sums must follow.
        self.check_slots = _slot_tables(self.edge_check, self.num_edges)
        self.var_slots = _slot_tables(self.edge_var, self.num_edges)
        # BP keeps its per-check rows in table order, so every check table
        # fills one contiguous row range: check row r is syndrome bit
        # check_syndrome_rows[r], and edge e belongs to check row edge_row[e].
        order = np.concatenate([np.zeros(0, np.intp)] + [ids for ids, _ in self.check_slots])
        rank = np.empty_like(order)
        rank[order] = np.arange(order.shape[0])
        self.check_syndrome_rows = self.active_checks[order]
        self.edge_row = rank[self.edge_check]
        ends = np.cumsum([ids.shape[0] for ids, _ in self.check_slots], dtype=np.intp)
        self.check_bounds = [slice(hi - ids.shape[0], hi) for (ids, _), hi in zip(self.check_slots, ends)]
        # The convergence test's slot tables: each check's variables, with the
        # padding edge sent to variable row nbits, which BP keeps at zero.
        var_of_edge = np.append(self.edge_var, self.nbits)
        self.check_var_slots = [var_of_edge[slots] for _, slots in self.check_slots]
        # A variable table writes its sums straight into the totals when its
        # ids are one contiguous range, and scatters them otherwise.
        self.var_rows = [
            slice(ids[0], ids[-1] + 1) if ids[-1] - ids[0] + 1 == ids.shape[0] else ids
            for ids, _ in self.var_slots
        ]
        # Bytes per trial of the gather buffer that every slot table and the
        # per-edge gathers share.
        self.gather_bytes = max([4 * self.num_edges] + [4 * slots.size for _, slots in self.check_slots + self.var_slots])

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


def _pairwise(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """numpy's pairwise float sum over axis 0 of a (n, ...) stack, n >= 1.

    Below 8 terms numpy adds sequentially (from -0.0, which leaves a[0]
    unchanged); up to 128 it keeps 8 strided accumulators, combines them as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and adds the tail in order; above
    that it splits at a multiple of 8 and recurses.  The accumulators are
    a's own first rows, so a is overwritten; out may be a[0].
    """
    n = a.shape[0]
    if n < 8:
        if n == 1:
            np.copyto(out, a[0])
            return out
        np.add(a[0], a[1], out=out)
        for i in range(2, n):
            out += a[i]
        return out
    if n <= 128:
        r = a[:8]
        body = n - n % 8
        for i in range(8, body, 8):
            r += a[i : i + 8]
        np.add(r[2], r[3], out=r[2])
        np.add(r[0], r[1], out=out)
        out += r[2]
        np.add(r[4], r[5], out=r[4])
        np.add(r[6], r[7], out=r[6])
        r[4] += r[6]
        out += r[4]
        for i in range(body, n):
            out += a[i]
        return out
    half = n // 2
    half -= half % 8
    _pairwise(a[:half], out)
    out += _pairwise(a[half:], a[half])
    return out


def _ordered_sum(g: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sum a (D, ...) stack over axis 0 exactly as np.add.reduceat sums one
    segment: the first term plus the pairwise sum of the rest.

    g is used as scratch.  Without out, the sum is left in one of g's rows
    and that view is returned.
    """
    if g.shape[0] == 1:
        if out is None:
            return g[0]
        np.copyto(out, g[0])
        return out
    out = _pairwise(g[1:], g[1] if out is None else out)
    out += g[0]
    return out


def _decision_bits_from_llr(llr: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """Constrained per-qubit decision from posterior LLRs; (3n, B) -> (3n, B) bits.

    Picks the most likely of I/X/Z/Y from the product of the three bit
    marginals.  Those four scores divided by P(I) are {1, exp(-llr_x),
    exp(-llr_z), exp(-llr_y)}, so a qubit stays I unless its smallest LLR is
    negative, and exact ties go to the first of X, Z, Y.  The rule reads
    only signs and order, so exactly halved LLRs give the same bits.  out,
    if given, is a (3n, B) uint8 array to fill.
    """
    if llr.ndim != 2 or llr.shape[0] != 3 * n:
        raise ValueError("expected a (3n, B) array of posterior LLRs")
    x, z, y = llr[:n], llr[n : 2 * n], llr[2 * n :]
    low = np.minimum(x, z)
    np.minimum(low, y, out=low)
    hit = low < 0
    bits = np.empty(llr.shape, dtype=np.uint8) if out is None else out
    flags = bits.view(bool)
    bx = np.equal(x, low, out=flags[:n])
    bx &= hit
    hit ^= bx
    bz = np.equal(z, low, out=flags[n : 2 * n])
    bz &= hit
    np.logical_xor(hit, bz, out=flags[2 * n :])
    return bits


# Largest |arctanh| of a clipped check product.  A message clip at or above it
# never binds, and the kernel skips it.
_ATANH_MAX = max(abs(np.arctanh(np.array([-1.0 + _TANH_EPS, 1.0 - _TANH_EPS], dtype=_MSG_DTYPE))))


def _prefix(buf: np.ndarray, dtype, *shape: int) -> np.ndarray:
    """A C-contiguous array of the given dtype and shape over the leading
    bytes of the byte buffer buf."""
    return buf[: math.prod(shape) * np.dtype(dtype).itemsize].view(dtype).reshape(shape)


class _Workspace:
    """The buffers of one bp_decode_batch call, allocated once for B trials.

    resize(b) lays C-contiguous (rows, b) arrays over the leading bytes of
    each buffer for the b trials still active, and zeroes the padding rows
    the slot tables point at: edge row E and variable row N.  compact()
    copies the kept message columns into the log-magnitude buffer, which is
    spent by then, and the kept totals into a spare; the two pairs then trade
    roles.  One gather buffer serves every slot table and the per-edge
    gathers in turn.
    """

    def __init__(self, ctx: DecoderContext, B: int):
        self.ctx = ctx
        E, N, C = ctx.num_edges, ctx.nbits, ctx.check_syndrome_rows.shape[0]
        self.edge_bufs = [np.empty((E + 1) * B * 4, np.uint8) for _ in range(2)]  # messages, lg
        self.tot_bufs = [np.empty(N * B * 4, np.uint8) for _ in range(2)]
        self._neg = np.empty((E + 1) * B, np.uint8)
        self._gather = np.empty(ctx.gather_bytes * B, np.uint8)
        self._lsum = np.empty(C * B * 4, np.uint8)
        self._flip = np.empty(C * B, np.uint8)
        self._bits = np.empty((N + 1) * B, np.uint8)

    def compact(self, keep: np.ndarray) -> None:
        """Keep only the message and total columns listed in keep."""
        E, N, b = self.ctx.num_edges, self.ctx.nbits, keep.shape[0]
        np.take(self.msg, keep, axis=1, out=_prefix(self.edge_bufs[1], _MSG_DTYPE, E + 1, b), mode="clip")
        np.take(self.tot, keep, axis=1, out=_prefix(self.tot_bufs[1], _MSG_DTYPE, N, b), mode="clip")
        self.edge_bufs.reverse()
        self.tot_bufs.reverse()
        self.resize(b)

    def resize(self, b: int) -> None:
        ctx = self.ctx
        E, N, C = ctx.num_edges, ctx.nbits, ctx.check_syndrome_rows.shape[0]
        self.msg, self.lg = [_prefix(buf, _MSG_DTYPE, E + 1, b) for buf in self.edge_bufs]
        self.msg[E] = 0.0
        self.lg[E] = 0.0
        self.tot = _prefix(self.tot_bufs[0], _MSG_DTYPE, N, b)
        self.sign_words = self.lg[:E].view(np.uint32)
        self.neg = _prefix(self._neg, bool, E + 1, b)
        self.neg[E] = False
        self.lsum = _prefix(self._lsum, _MSG_DTYPE, C, b)
        self.flip = _prefix(self._flip, bool, C, b)
        self.bits = _prefix(self._bits, np.uint8, N + 1, b)
        self.bits[N] = 0
        self.bit_flags = self.bits.view(bool)
        g = self._gather
        self.edge_g = _prefix(g, _MSG_DTYPE, E, b)
        self.edge_flags = _prefix(g, bool, E, b)
        self.check_g = [_prefix(g, _MSG_DTYPE, *slots.shape, b) for _, slots in ctx.check_slots]
        self.check_gb = [_prefix(g, bool, *slots.shape, b) for _, slots in ctx.check_slots]
        self.var_g = [_prefix(g, _MSG_DTYPE, *slots.shape, b) for _, slots in ctx.var_slots]


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
    edge_row = ctx.edge_row
    # Messages and posterior totals are stored at half scale.  Doubling is
    # exact in float32, so T - M is the full-scale (tot - mcv) / 2 bit for
    # bit, and arctanh gives the new half-scale message directly.
    half_prior = prior.llrs(n, cfg.clip) * _MSG_DTYPE(0.5)
    half_clip = _MSG_DTYPE(cfg.clip) * _MSG_DTYPE(0.5)
    clip_binds = half_clip < _ATANH_MAX
    var_prior = [half_prior[ids, None] for ids, _ in ctx.var_slots]

    ws = _Workspace(ctx, B)
    ws.resize(B)
    M, T = ws.msg, ws.tot
    T[:] = half_prior[:, None]
    b = B
    active = np.arange(B)
    s_act = np.ascontiguousarray(S.T[ctx.check_syndrome_rows], dtype=bool)  # (C, B)
    vac_ok = ~S[:, ctx.vacuous_checks].any(axis=1)

    for it in range(1, cfg.max_iterations + 1):
        # Variable-to-check messages from the previous totals (every message
        # is zero before the first iteration); the new check-to-variable
        # messages then replace them in place.
        t = M[:E]
        if it == 1:
            np.take(T, edge_var, axis=0, out=t, mode="clip")
        else:
            np.subtract(np.take(T, edge_var, axis=0, out=ws.edge_g, mode="clip"), t, out=t)
        np.tanh(t, out=t)
        # Check-to-variable messages via the log-magnitude / sign split.  A
        # check's sign flips with its syndrome bit and with each negative t;
        # padding is neutral: lg = 0, not negative.
        neg, lg, lsum, flip = ws.neg, ws.lg, ws.lsum, ws.flip
        np.less(t, 0, out=neg[:E])
        np.abs(t, out=t)
        np.clip(t, _LOG_FLOOR, 1.0 - _TANH_EPS, out=t)
        np.log(t, out=lg[:E])
        for (_, slots), rows, g, gb in zip(ctx.check_slots, ctx.check_bounds, ws.check_g, ws.check_gb):
            np.take(lg, slots, axis=0, out=g, mode="clip")
            _ordered_sum(g, out=lsum[rows])
            np.take(neg, slots, axis=0, out=gb, mode="clip")
            f = np.logical_xor.reduce(gb, axis=0, out=flip[rows])
            f ^= s_act[rows]
        prod = np.take(lsum, edge_row, axis=0, out=t, mode="clip")
        prod -= lg[:E]
        np.exp(prod, out=prod)
        # Negate by flipping the sign bit: exact, and cheaper than a masked
        # ufunc.  lg is spent, so its rows hold the sign words.
        sign = np.take(flip, edge_row, axis=0, out=ws.edge_flags, mode="clip")
        sign ^= neg[:E]
        np.left_shift(sign, 31, out=ws.sign_words, dtype=np.uint32)
        raw = prod.view(np.uint32)
        raw ^= ws.sign_words
        np.clip(prod, -1.0 + _TANH_EPS, 1.0 - _TANH_EPS, out=prod)
        np.arctanh(prod, out=prod)
        if clip_binds:
            np.clip(prod, -half_clip, half_clip, out=prod)

        # Posterior totals, constrained decision, convergence test.
        for (_, slots), rows, pr, g in zip(ctx.var_slots, ctx.var_rows, var_prior, ws.var_g):
            np.take(M, slots, axis=0, out=g, mode="clip")
            if type(rows) is slice:
                post = _ordered_sum(g, out=T[rows])
                post += pr
            else:
                post = _ordered_sum(g)
                post += pr
                T[rows] = post
        bits = _decision_bits_from_llr(T, n, out=ws.bits[:-1])
        # A trial has converged when each check's decision bits XOR to its
        # syndrome bit and no syndrome bit sits on a vacuous check.
        for rows, slots, gb in zip(ctx.check_bounds, ctx.check_var_slots, ws.check_gb):
            np.take(ws.bit_flags, slots, axis=0, out=gb, mode="clip")
            f = np.logical_xor.reduce(gb, axis=0, out=flip[rows])
            f ^= s_act[rows]
        ok = ~flip.any(axis=0)
        ok &= vac_ok

        done = ok if it < cfg.max_iterations else np.ones(b, dtype=bool)
        if done.any():
            idx = active[done]
            out_bits[idx] = bits[:, done].T
            # P(bit = 1) = 1 / (1 + exp(llr)) in float32, from the full-scale totals.
            prob = T[:, done]
            prob += prob
            with np.errstate(over="ignore"):
                np.exp(prob, out=prob)
            prob += 1.0
            np.divide(1.0, prob, out=prob)
            out_post[idx] = prob.T
            out_conv[idx] = ok[done]
            out_iter[idx] = it
            keep = np.flatnonzero(~done)
            if keep.shape[0] == 0:
                break
            # Drop the finished trials' columns.
            active = active[keep]
            s_act = s_act[:, keep]
            vac_ok = vac_ok[keep]
            b = keep.shape[0]
            ws.compact(keep)
            M, T = ws.msg, ws.tot
    return out_bits, out_post, out_conv, out_iter


def bp_decode(ctx: DecoderContext, syndrome: np.ndarray, prior: ChannelPrior, cfg: BPConfig):
    """Sum-product on one (m,) syndrome; see bp_decode_batch for the semantics.

    Returns (raw_bits, posteriors, converged, iterations) where raw_bits is
    the canonical one-hot decision vector of length 3n.
    """
    bits, post, conv, iters = bp_decode_batch(ctx, np.asarray(syndrome)[None, :], prior, cfg)
    return bits[0], post[0], bool(conv[0]), int(iters[0])


def osd_post_process(ctx: DecoderContext, syndromes: np.ndarray, posteriors: np.ndarray) -> np.ndarray:
    """OSD-0: solve Hd·x = s on the most reliable independent column set.

    Takes a (B, m) syndrome batch with (B, 3n) posteriors and returns
    (B, 3n) bits.  Columns are ranked by descending P(bit=1) (ties:
    ascending index), and one batched elimination solves every row; each
    equals gf2.solve_selected's.  The syndrome of a real error always lies
    in the column space; Infeasible therefore indicates a broken check
    matrix and is re-raised as such.
    """
    order = np.argsort(-np.asarray(posteriors, dtype=np.float64), axis=1, kind="stable")
    try:
        return gf2.solve_selected_batch(ctx.hd, syndromes, order)
    except gf2.Infeasible as exc:
        raise RuntimeError("syndrome outside the column space of Hd") from exc


def decode(
    code: StabilizerCode,
    syndrome: pauli.Syndrome,
    prior: ChannelPrior,
    cfg: BPConfig | None = None,
) -> DecodeOutcome:
    """Full pipeline: BP, then OSD-0 when BP does not converge."""
    cfg = cfg or BPConfig()
    ctx = DecoderContext.for_code(code)
    s = syndrome.bits
    bits, post, conv, iters = bp_decode(ctx, s, prior, cfg)
    if not conv:
        bits = osd_post_process(ctx, s[None, :], post[None, :])[0]
    return DecodeOutcome(
        estimate=pauli.to_symplectic(bits),
        posteriors=post,
        bp_converged=conv,
        osd_applied=not conv,
        iterations=iters,
    )
