"""Belief propagation on the decoupled check matrix plus OSD-0 fallback.

The 3n decoupled bits are treated as independent binary variables with a
depolarizing prior of p/3 each.  Messages run in the log domain with a
flooding schedule; the per-qubit one-hot constraint is enforced at the hard
decision, which picks the best of {I, X, Z, Y} from the three bit marginals.
When BP fails to converge, a reliability-ordered OSD-0 solve on the same
matrix produces a syndrome-consistent raw vector, which the XOR collapse in
pauli.to_symplectic turns into a valid Pauli with the same syndrome.

The batch entry point decodes many syndromes at once (flooding is data
parallel across trials); decode() is the single-syndrome wrapper.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class ChannelPrior:
    """Depolarizing channel at rate p: each of X/Z/Y hits with probability p/3."""

    p: float

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError("depolarizing rate must be in (0, 1)")

    @property
    def bit_prob(self) -> float:
        return self.p / 3.0

    @property
    def llr(self) -> float:
        q = self.bit_prob
        return math.log((1.0 - q) / q)


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

    Holds the Tanner-graph edge layout of the decoupled matrix and its
    packed form for OSD.  Immutable once built; safe to share.
    """

    def __init__(self, hd: np.ndarray):
        hd = np.asarray(hd, dtype=np.uint8) & 1
        self.hd = hd
        self.m, self.nbits = hd.shape
        # Drop all-zero check rows from the graph (vacuous constraints); a
        # real-error syndrome is always 0 there, which bp_decode_batch asserts.
        row_w = hd.sum(axis=1)
        self.active_checks = np.nonzero(row_w)[0]
        chk, var = np.nonzero(hd[self.active_checks])
        order = np.lexsort((var, chk))
        self.edge_check = chk[order]  # index into active_checks
        self.edge_var = var[order]
        self.num_edges = self.edge_check.shape[0]
        counts = np.bincount(self.edge_check, minlength=self.active_checks.shape[0])
        self.check_ptr = np.concatenate([[0], np.cumsum(counts)])[:-1].astype(np.intp)
        # Variable-major layout for posterior sums.
        vorder = np.lexsort((self.edge_check, self.edge_var))
        self.var_perm = vorder
        self.used_vars = np.unique(self.edge_var)
        vcounts = np.bincount(self.edge_var[vorder])
        vcounts = vcounts[vcounts > 0]
        self.var_ptr = np.concatenate([[0], np.cumsum(vcounts)])[:-1].astype(np.intp)
        self.packed = gf2.BitMatrix.from_array(hd)

    @classmethod
    def for_code(cls, code: StabilizerCode) -> "DecoderContext":
        ctx = code.metadata.get("_decoder_ctx")
        if ctx is None:
            ctx = cls(code.hd)
            code.metadata["_decoder_ctx"] = ctx
        return ctx


def _segment_sum(values: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    return np.add.reduceat(values, ptr, axis=-1)


def _decision_bits_from_llr(llr: np.ndarray, n: int) -> np.ndarray:
    """Constrained per-qubit decision from posterior LLRs; (B, 3n) -> (B, 3n) bits.

    Picks the most likely of I/X/Z/Y from the product of the three bit
    marginals.  Those four scores divided by P(I) are {1, exp(-llr_x),
    exp(-llr_z), exp(-llr_y)}, so the argmax over stacked [zeros, -llr]
    decides, and np.argmax's first-wins rule breaks exact ties in the order
    I < X < Z < Y.
    """
    if llr.ndim != 2 or llr.shape[1] != 3 * n:
        raise ValueError("expected a (B, 3n) array of posterior LLRs")
    b = llr.shape[0]
    stacked = np.stack([
        np.zeros((b, n), dtype=llr.dtype),
        -llr[:, :n],
        -llr[:, n : 2 * n],
        -llr[:, 2 * n :],
    ])
    cls = np.argmax(stacked, axis=0)
    bits = np.zeros((b, 3 * n), dtype=np.uint8)
    bits[:, :n] = cls == 1
    bits[:, n : 2 * n] = cls == 2
    bits[:, 2 * n :] = cls == 3
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
    prior_llr = _MSG_DTYPE(prior.llr)

    out_bits = np.zeros((B, ctx.nbits), dtype=np.uint8)
    out_post = np.full((B, ctx.nbits), prior.bit_prob, dtype=np.float64)
    out_conv = np.zeros(B, dtype=bool)
    out_iter = np.full(B, cfg.max_iterations, dtype=np.int64)

    if ctx.num_edges == 0:
        # No constraints at all: the identity decision stands.
        out_conv[:] = ~S.any(axis=1)
        out_iter[:] = 1
        return out_bits, out_post, out_conv, out_iter

    edge_var = ctx.edge_var
    edge_check = ctx.edge_check
    inactive = np.setdiff1d(np.arange(ctx.m), ctx.active_checks)
    # A syndrome bit on an all-zero check row can never be satisfied.
    vacuous_ok = ~S[:, inactive].any(axis=1) if inactive.size else np.ones(B, dtype=bool)

    active = np.arange(B)
    s_act = S[:, ctx.active_checks]  # (B, checks)
    sign_act = (1.0 - 2.0 * s_act).astype(_MSG_DTYPE)
    vac_ok = vacuous_ok
    cur_mcv = np.zeros((B, ctx.num_edges), dtype=_MSG_DTYPE)

    def posterior_llr(mcv):
        tot = np.full((mcv.shape[0], ctx.nbits), prior_llr, dtype=_MSG_DTYPE)
        tot[:, ctx.used_vars] += _segment_sum(mcv[:, ctx.var_perm], ctx.var_ptr)
        return tot

    for it in range(1, cfg.max_iterations + 1):
        # Variable-to-check messages from the current posterior totals.
        mvc = posterior_llr(cur_mcv)[:, edge_var] - cur_mcv
        # Check-to-variable messages via the log-magnitude / sign split.
        t = np.tanh(0.5 * mvc)
        sgn = np.where(t < 0, _MSG_DTYPE(-1.0), _MSG_DTYPE(1.0))
        lg = np.log(np.clip(np.abs(t), _LOG_FLOOR, 1.0 - _TANH_EPS))
        lsum = _segment_sum(lg, ctx.check_ptr)
        neg = _segment_sum((t < 0).astype(np.int64), ctx.check_ptr)
        sign_tot = 1.0 - 2.0 * (neg & 1).astype(_MSG_DTYPE)
        prod = (sign_tot[:, edge_check] * sgn) * np.exp(lsum[:, edge_check] - lg)
        prod *= sign_act[:, edge_check]
        np.clip(prod, -1.0 + _TANH_EPS, 1.0 - _TANH_EPS, out=prod)
        cur_mcv = np.clip(2.0 * np.arctanh(prod), -cfg.clip, cfg.clip)

        # Posterior LLRs, constrained decision, convergence test.
        tot = posterior_llr(cur_mcv)
        bits = _decision_bits_from_llr(tot, n)
        parity = (_segment_sum(bits[:, edge_var].astype(np.int64), ctx.check_ptr) & 1).astype(np.uint8)
        ok = ~np.any(parity != s_act, axis=1) & vac_ok

        done = ok if it < cfg.max_iterations else np.ones(active.shape[0], dtype=bool)
        if done.any():
            idx = active[done]
            out_bits[idx] = bits[done]
            with np.errstate(over="ignore"):
                out_post[idx] = 1.0 / (1.0 + np.exp(tot[done]))
            out_conv[idx] = ok[done]
            out_iter[idx] = it
            keep = ~done
            if not keep.any():
                break
            active = active[keep]
            cur_mcv = cur_mcv[keep]
            sign_act = sign_act[keep]
            s_act = s_act[keep]
            vac_ok = vac_ok[keep]
    return out_bits, out_post, out_conv, out_iter


def bp_decode(hd: np.ndarray, syndrome, prior: ChannelPrior, cfg: BPConfig):
    """Single-syndrome sum-product; see bp_decode_batch for the semantics.

    Returns (raw_bits, posteriors, converged, iterations) where raw_bits is
    the canonical one-hot decision vector of length 3n.
    """
    ctx = hd if isinstance(hd, DecoderContext) else DecoderContext(hd)
    s = syndrome.bits if isinstance(syndrome, pauli.Syndrome) else np.asarray(syndrome)
    bits, post, conv, iters = bp_decode_batch(ctx, s[None, :], prior, cfg)
    return bits[0], post[0], bool(conv[0]), int(iters[0])


def osd_post_process(hd, syndrome, posteriors) -> np.ndarray:
    """OSD-0: solve Hd·x = s on the most reliable independent column set.

    Columns are ranked by descending P(bit=1) (ties: ascending index).  A
    single syndrome with 3n posteriors gives 3n bits; a (B, m) batch with
    (B, 3n) posteriors gives (B, 3n) bits.  Both run one batched
    elimination, whose rows equal gf2.solve_selected's.  The syndrome of a
    real error always lies in the column space; Infeasible therefore
    indicates a broken check matrix and is re-raised as such.
    """
    ctx = hd if isinstance(hd, DecoderContext) else DecoderContext(hd)
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
