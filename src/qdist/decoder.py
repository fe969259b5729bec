"""Belief propagation on the decoupled check matrix plus OSD-0 fallback.

The 3n decoupled bits are treated as independent binary variables with a
prior that matches the noise: p/3 on each X, Z and Y bit for depolarizing
noise, and p on the X bits and 0 on the Z and Y bits for pure-X noise (a bit
that cannot flip gets the fixed LLR CERTAIN_LLR, which no message reaches).
Without the matched prior, the identical X and Y columns of a Z-only code's
Hd keep BP from settling on pure-X errors.  Messages run in the log domain
with a flooding schedule; the per-qubit one-hot constraint is enforced at the
hard decision, which picks the best of {I, X, Z, Y} from the three bit
marginals.
BP stops on a trial once it converges, once it reaches max_iterations, or
once it stalls: its set of unsatisfied checks is the same at
_STALL_ITERATIONS + 1 consecutive iterations (t-2, t-1 and t).  Quantum BP
typically fails by oscillating or in a trapping set (Raveendran & Vasic,
arXiv:2012.15297); a trial whose unsatisfied checks have stopped changing
is stuck and rarely converges later, so it goes to OSD-0 early, as BP+OSD
decoders do with short BP budgets (Roffe et al., arXiv:2005.07016).  A
trial whose checks are all satisfied finishes as converged, never as
stalled.  When BP fails to converge, a reliability-ordered OSD-0 solve
produces a syndrome-consistent raw vector, which the XOR collapse in
pauli.collapse turns into a valid Pauli with the same syndrome.  OSD-0
solves on the columns the channel can flip: all of Hd under depolarizing
noise, and under pure-X noise the X block alone (Hz on the n X bits, the
classical BP+OSD setting of Roffe et al.), so a pure-X estimate from OSD-0
is always X-type.

The batch entry points decode many syndromes at once (flooding is data
parallel across trials), each under its own prior of one noise kind, so a
sweep decodes trials of several error rates in one call; decode() runs one
syndrome through them as a batch of one.

BP works batch-minor: messages are (edges + 1, trials) arrays, so every
per-edge operation runs over contiguous rows of trials, and the last row is
neutral padding.  A check's (or variable's) sum over its edges is one gather
through its side's (largest degree, owners) slot table, padded with that
row, followed by a sum over axis 0 that adds strictly left to right from
-0.0 (_in_order).  That order gives each trial's column the same bits
whatever the batch width, and trailing padding leaves it unchanged;
tests/test_decoder.py keeps a trial-major segment-sum kernel that adds in
the same order as the reference.  Messages and totals are kept at half
scale (exact in float32), every buffer is laid out once per call in one
block (a call under _KEEP_SHARE of the full width, such as decode()'s
batch of one, takes the block the last such call left on the context and
puts it back), and a trial has converged when each check's decision bits,
gathered through the check slot table, XOR to its syndrome bit.  The
arrays hold at most as many columns as fit in _WIDTH_BYTES, whatever the
batch size.  A trial's results are recorded in the iteration it finishes,
but its column is reused only once at least an eighth of them are finished
(_COMPACT_DEAD_SHARE): until then it keeps iterating and nothing reads it.
Then the finished columns take the batch's next trials, each from messages
0 and totals at its own prior, which makes its next iteration exactly its
first, and each column counts its own iterations; so the last few slow
trials of one group share their iterations with the next group's, instead
of running a tail alone.  Once no trial is left, finished columns are
dropped instead.  The stall test costs one compare of the check rows
against the previous iteration's, one any-reduce and a per-column counter.
Apart from the check update, the in-order sums and the hard decision
(_decide, on block views resize builds once per width), every iteration
calls methods and ufuncs directly, with no Python wrapper in between, so a
batch of one pays little beyond its arithmetic.  BP hands back float32
posteriors only for the trials it did not converge on, the rows OSD-0
reads.

BP's totals start from each trial's half-scale prior column, which the
context memoises per prior with its rows of the variables with edges.  In
the first iteration every variable sends its prior, so each check
message is one of two values per edge, picked by its check's syndrome bit.
The context memoises those values per prior, computed once by the
same check update on a two-trial batch, and iteration 1 selects between
them bit for bit; the variable half of the iteration runs as in every other.
Computing iteration 1 in full instead, as a refilled column does, made
single-syndrome decodes about 4% slower.

OSD-0 ranks each trial's columns with one sort of integer keys built from
the float32 posteriors and solves them with a gf2.SelectedSolver on the
channel's columns of Hd, which the context memoises per noise kind with
those columns as Python ints.  The solver inserts one trial's columns at a
time into an XOR basis, so its memory does not grow with the batch; the
keys do, so OSD-0 ranks the failed trials in blocks whose keys stay within
_KEY_BYTES.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import gf2, pauli
from .codes import StabilizerCode

# Messages are float32 (the batch dimension makes BP memory-bound); the
# guards below keep tanh/log/arctanh inside the float32 range.
_MSG_DTYPE = np.float32
_TANH_EPS = 1e-7
_LOG_FLOOR = 1e-37
# Prior LLR of a bit the channel cannot flip (ChannelPrior.llrs).  It exceeds
# every message: a message is 2 * arctanh of a check product held within
# 1 - _TANH_EPS, so its magnitude is at most about 16.6.  Reports write it as
# schema v1's decoder_config "clip".
CERTAIN_LLR = 30.0


class NoiseKind(str, enum.Enum):
    DEPOLARIZING = "depolarizing"
    PURE_X = "pureX"


@dataclass(frozen=True)
class ChannelPrior:
    """Per-bit prior on the 3n decoupled bits for one noise kind at rate p.

    Depolarizing: the X, Z and Y bits of a qubit each hit with probability
    p/3.  Pure-X: the X bit hits with probability p; the Z and Y bits never do.
    p is stored as a Python float, so priors that compare equal hash equal,
    as the context's per-prior memos need.
    """

    p: float
    noise: NoiseKind = NoiseKind.DEPOLARIZING

    def __post_init__(self):
        object.__setattr__(self, "p", _real_number(self.p, "error rate"))
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

    def llrs(self, n: int) -> np.ndarray:
        """(3n,) float32 prior LLRs log((1 - q) / q); a bit with q = 0 gets
        CERTAIN_LLR."""
        # math.log, not np.log: the float32 of the depolarizing LLR must not
        # move by a last bit, or depolarizing reports would change.
        blocks = [math.log((1.0 - q) / q) if q > 0.0 else CERTAIN_LLR for q in self.block_probs]
        return np.repeat(np.array(blocks, dtype=_MSG_DTYPE), n)


def _real_number(value, name: str) -> float:
    """value as a Python float, or ValueError unless it is a real number, bools
    excluded."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, not {value!r}")
    return float(value)


def _whole_number(value, name: str) -> int:
    """value as a Python int, or ValueError unless it is an integer: a bool
    or a float fails here rather than mid-sweep or in a report."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return int(value)


@dataclass(frozen=True)
class BPConfig:
    max_iterations: int = 100

    def __post_init__(self):
        object.__setattr__(self, "max_iterations", _whole_number(self.max_iterations, "max_iterations"))
        if self.max_iterations < 1:
            raise ValueError("need at least one iteration")


@dataclass
class DecodeOutcome:
    estimate: pauli.SymplecticPauli
    bp_converged: bool  # when False, the estimate is OSD-0's
    iterations: int


class DecoderContext:
    """Per-code precomputation shared by every decode call.

    Holds the decoupled matrix that OSD solves on, its Tanner-graph edge
    layout and the slot tables BP sums over, all fixed once built.  It also
    memoises what every decode with one prior shares: BP's half-scale prior
    and first check messages per prior, and OSD-0's channel columns with
    their solver (the columns as Python ints) per noise kind.  Those memos
    are built on first use and only ever gain read-only entries, each a pure
    function of its key.  The one mutable thing a context keeps is the
    workspace of the last bp_decode_batch call under _KEEP_SHARE of the full
    width: the next such call takes it off the context, overwrites every
    buffer it reads and puts it back, so a call running at the same time
    builds its own.
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
        # the order the sums follow.  BP's check rows are the active checks
        # in order, so edge e belongs to check row edge_check[e].
        _, self.check_slots = _slot_table(self.edge_check, self.num_edges)
        self.var_ids, self.var_slots = _slot_table(self.edge_var, self.num_edges)
        # The convergence test's slot table: each check's variables, with the
        # padding edge sent to variable row nbits, which BP keeps at zero.
        self.check_var_slots = np.append(self.edge_var, self.nbits)[self.check_slots]
        # The variable sums go straight into the totals when the variables
        # with edges are one contiguous range, and are scattered otherwise.
        ids = self.var_ids
        self.var_rows = slice(ids[0], ids[-1] + 1) if ids.size and ids[-1] - ids[0] + 1 == ids.size else ids
        # Bytes per trial of the gather buffer that both slot tables and the
        # per-edge gathers share.
        self.gather_bytes = 4 * max(self.num_edges, self.check_slots.size, self.var_slots.size)
        self._half_priors: dict = {}
        self._first_messages: dict = {}
        self._channel_columns: dict = {}
        self._kept_workspace: list = []  # at most one _Workspace

    def half_prior(self, prior: ChannelPrior) -> tuple[np.ndarray, np.ndarray]:
        """(half, var_half), built once per prior: the (3n, 1) float32 prior
        LLRs at half scale, as BP's totals start, and their (V, 1) rows of
        the variables with edges, in the variable table's order."""
        hit = self._half_priors.get(prior)
        if hit is None:
            half = (prior.llrs(self.nbits // 3) * _MSG_DTYPE(0.5))[:, None]
            var_half = half[self.var_ids]
            half.setflags(write=False)
            var_half.setflags(write=False)
            hit = self._half_priors.setdefault(prior, (half, var_half))
        return hit

    def first_messages(self, prior: ChannelPrior):
        """BP's first check-to-variable messages for prior, built once (see
        _first_check_messages)."""
        first = self._first_messages.get(prior)
        if first is None:
            first = self._first_messages.setdefault(prior, _first_check_messages(self, prior))
        return first

    def channel_columns(self, prior: ChannelPrior) -> tuple[np.ndarray, gf2.SelectedSolver]:
        """(cols, solver): the bits the channel can flip, and OSD-0's solver
        on their columns of Hd, built once per noise kind.  In the (x|z|y)
        block order the channel's columns are always Hd's first len(cols):
        all 3n under depolarizing noise, the X block under pure-X."""
        hit = self._channel_columns.get(prior.noise)
        if hit is None:
            cols = np.flatnonzero(prior.bit_probs(self.nbits // 3) > 0)
            cols.setflags(write=False)
            hit = self._channel_columns.setdefault(prior.noise, (cols, gf2.SelectedSolver(self.hd[:, cols])))
        return hit

    @classmethod
    def for_code(cls, code: StabilizerCode) -> "DecoderContext":
        """The code's one context, built on first use and kept on the code."""
        ctx = getattr(code, "_decoder_context", None)
        if ctx is None:
            ctx = code._decoder_context = cls(code.hd)
        return ctx


def _slot_table(owner: np.ndarray, pad: int) -> tuple[np.ndarray, np.ndarray]:
    """(ids, slots): the owners (checks or variables) that have edges, in
    ascending order, and a (D, K) array whose column k lists the edges of
    owner ids[k] in ascending edge order, padded to the largest degree D
    with the edge id `pad` (an all-neutral row).
    """
    order = np.argsort(owner, kind="stable")
    ids, deg = np.unique(owner, return_counts=True)
    pos = np.arange(order.shape[0]) - np.repeat(np.cumsum(deg) - deg, deg)
    slots = np.full((deg.max(initial=0), ids.shape[0]), pad, dtype=np.intp)
    slots[pos, np.repeat(np.arange(ids.shape[0]), deg)] = order
    return ids, slots


def _in_order(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Sum a (n, ...) stack over axis 0 strictly left to right into out,
    which must not overlap a.

    np.add.reduce with initial=-0.0 adds along an outer axis in order and
    starts from -0.0, which leaves a[0] unchanged (a column of -0.0 stays
    -0.0).  Where the other axes hold one element, numpy sums the reduced
    axis pairwise instead, which is sequential only below 8 terms, so each
    reduce takes at most 7 rows.
    """
    np.add.reduce(a[:7], axis=0, out=out, initial=-0.0)
    for i in range(7, a.shape[0]):
        out += a[i]
    return out


def _blocks(a: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The X, Z and Y blocks (rows) of a (3n, B) array; ValueError for any
    other shape."""
    if a.ndim != 2 or a.shape[0] != 3 * n:
        raise ValueError("expected a (3n, B) array")
    return a[:n], a[n : 2 * n], a[2 * n :]


def _decide(x, z, y, bx, bz, by) -> None:
    """Constrained per-qubit decision from posterior LLRs: fills the bool
    blocks bx, bz and by of the (3n, B) decision bits from the LLRs' X, Z
    and Y blocks (_blocks, which BP's workspace takes once per width).

    Picks the most likely of I/X/Z/Y from the product of the three bit
    marginals.  Those four scores divided by P(I) are {1, exp(-llr_x),
    exp(-llr_z), exp(-llr_y)}, so a qubit stays I unless its smallest LLR is
    negative, and exact ties go to the first of X, Z, Y.  The rule reads
    only signs and order, so exactly halved LLRs give the same bits.
    """
    low = np.minimum(x, z)
    np.minimum(low, y, out=low)
    hit = low < 0
    np.equal(x, low, out=bx)
    bx &= hit
    hit ^= bx
    np.equal(z, low, out=bz)
    bz &= hit
    np.logical_xor(hit, bz, out=by)


def _prefix(buf: np.ndarray, dtype, *shape: int) -> np.ndarray:
    """A C-contiguous array of the given dtype and shape over the leading
    bytes of the byte buffer buf."""
    return buf[: math.prod(shape) * np.dtype(dtype).itemsize].view(dtype).reshape(shape)


# bp_decode_batch refills or compacts its columns only once at least this
# share of them belongs to trials that have finished.  One refill or
# compaction costs about as much as 2 of an iteration's ~20 edge-sized
# passes, so a finished column is cheaper to carry along (unread) for a few
# iterations than to replace or drop at once.
_COMPACT_DEAD_SHARE = 1 / 8

# bp_decode_batch finishes a live trial as not converged once its set of
# unsatisfied checks has not changed for this many iterations (at 2: the
# same set at t-2, t-1 and t), and OSD-0 then solves it.  BP stuck this way
# rarely converges later; at 1 it cuts short trials that would still
# converge, and at 3 it keeps stuck trials running for half the saving.
_STALL_ITERATIONS = 2

# bp_decode_batch's workspace holds as many columns as fit in this many
# bytes (at least one): 173 on planar_surface(7), 108 on chamon(3,3,3), 105
# on ztgre(7) and 22-24 on the stretch codes.  A wider batch runs through
# those columns, each taking the batch's next trial when its own finishes,
# so BP's memory does not grow with the batch.
_WIDTH_BYTES = 9 << 18

# bp_decode_batch leaves its workspace on the context for the next call when
# it has fewer columns than this share of a full one: a batch of one on every
# code with a full width of 17 or more (22-24 on the stretch codes).  Kept,
# it saves a batch of one about 30 us of allocation and view building per
# call (_Workspace and resize).  A wider workspace is freed as before: kept
# at every width, the three sweep benchmarks' peak RSS rose from 45.3-45.5
# MB to 47.6-48.1 MB, since the 2.25 MiB that BP frees is what OSD-0 and
# the classification reuse, and a 1,024-trial sweep chunk on a small code
# would hold up to 2 MiB.
_KEEP_SHARE = 1 / 16

# osd_post_process ranks the failed trials in blocks whose reliability keys
# (16 bytes per channel column of a trial) fit in this many bytes.  That is
# below the 2.25 MiB of a full-width BP workspace (_WIDTH_BYTES): freeing
# that one large allocation raises glibc's mmap and trim thresholds to its
# size, so a block's keys come from the heap and return to it instead of
# faulting in fresh pages on every call.
_KEY_BYTES = 1 << 21

# float32 clip bounds: the floor under |tanh| before its log, and the bound
# on |tanh| and on the check product before arctanh.  The loop clips with
# the ndarray method, which skips np.clip's dispatch but on numpy 2.x still
# runs one Python function (numpy/_core/_methods.py's _clip) per call.  On
# planar_surface(7)'s 624 edges (numpy 2.4, 2 vCPUs) that wrapper costs
# about 0.4 us per call at one column (1.2 us against 0.8 us for the bare
# clip ufunc) and nothing measurable at 81-173 columns: under 1% of a
# batch-of-one decode, not worth reaching for numpy's private ufunc.
_LG_LO = _MSG_DTYPE(_LOG_FLOOR)
_PROD_HI = _MSG_DTYPE(1.0 - _TANH_EPS)


def _column_bytes(ctx: DecoderContext) -> list[int]:
    """Bytes per column of each _Workspace buffer."""
    E, N, C, V = ctx.num_edges, ctx.nbits, ctx.active_checks.shape[0], ctx.var_ids.shape[0]
    # Variable sums that cannot go straight into the totals sum in _scatter.
    scattered = 0 if type(ctx.var_rows) is slice else V
    sizes = [4 * (E + 1)] * 2 + [4 * N] * 2 + [C] * 2 + [E + 1, ctx.gather_bytes]
    return sizes + [4 * C, C + 1, 1, 1, N + 1, 1, 4 * scattered, 4 * V]


class _Workspace:
    """The buffers of one bp_decode_batch call for `width` columns, 64-byte
    aligned in one allocation: it lifts glibc's trim threshold, so later
    calls reuse pages.

    resize(b) lays C-contiguous (rows, b) arrays over the leading bytes of
    each buffer for the b columns still kept, zeroes the padding rows the
    slot tables point at (edge row E and variable row N), and builds the
    views an iteration uses once per width, not once per iteration.  Columns of
    finished trials stay in place, still iterated but never read, until
    bp_decode_batch gives them new trials or, once no trial is left, drops
    them with compact(): that copies the kept message columns into the
    log-magnitude buffer, which is spent by then, and the kept totals into a
    spare; the pairs then trade roles.  The kept priors go through the
    gather buffer, also spent, and back.  One gather buffer serves both
    slot tables and the per-edge gathers in turn.

    flip has one row per active check, in order, and a last row, stuck,
    which is set for a trial that can never converge (a syndrome bit on a
    vacuous check) or has already finished; a trial has converged when no
    row of flip is set.  The check update uses the check rows (unsat) for
    each check's sign before the convergence test refills them.
    prev holds the check rows of flip from the previous iteration, which
    the stall test compares them against; compact() keeps it too.  A
    column's first iteration counts as a change whatever prev holds, so
    nothing resets it, neither for a new call nor for a refilled column.
    pri holds each column's half-scale prior for the variables with edges,
    in the variable table's order.
    """

    def __init__(self, ctx: DecoderContext, width: int):
        self.ctx = ctx
        self.width = width
        self.cols = 0  # the columns resize last laid out
        sizes = [size * width for size in _column_bytes(ctx)]
        whole = np.empty(sum(sizes) + 64 * len(sizes), np.uint8)
        starts = accumulate([-(-size // 64) * 64 for size in sizes], initial=-whole.ctypes.data % 64)
        bufs = [whole[at : at + size] for at, size in zip(starts, sizes)]
        self.edge_bufs, self.tot_bufs, self.prev_bufs = bufs[0:2], bufs[2:4], bufs[4:6]  # edge: messages, lg
        self._neg, self._gather, self._lsum, self._flip = bufs[6:10]
        self._moved, self._done, self._bits, self._ok, self._scatter, self._pri = bufs[10:16]

    def compact(self, keep: np.ndarray) -> None:
        """Keep only the message, total, previous-check and prior columns
        listed in keep."""
        E, N, C, b = self.ctx.num_edges, self.ctx.nbits, self.ctx.active_checks.shape[0], keep.shape[0]
        self.msg.take(keep, axis=1, out=_prefix(self.edge_bufs[1], _MSG_DTYPE, E + 1, b), mode="clip")
        self.tot.take(keep, axis=1, out=_prefix(self.tot_bufs[1], _MSG_DTYPE, N, b), mode="clip")
        self.prev.take(keep, axis=1, out=_prefix(self.prev_bufs[1], bool, C, b), mode="clip")
        self.edge_bufs.reverse()
        self.tot_bufs.reverse()
        self.prev_bufs.reverse()
        kept = self.pri.take(keep, axis=1, out=_prefix(self._gather, _MSG_DTYPE, self.pri.shape[0], b), mode="clip")
        self.resize(b)
        np.copyto(self.pri, kept)

    @classmethod
    def take(cls, ctx: DecoderContext, width: int) -> "_Workspace":
        """The workspace kept on ctx, taken off it, if it has room for width
        columns; a new one otherwise."""
        try:
            ws = ctx._kept_workspace.pop()
        except IndexError:
            return cls(ctx, width)
        return ws if ws.width >= width else cls(ctx, width)

    def resize(self, b: int) -> None:
        ctx = self.ctx
        self.cols = b
        E, N, C = ctx.num_edges, ctx.nbits, ctx.active_checks.shape[0]
        self.msg, self.lg = [_prefix(buf, _MSG_DTYPE, E + 1, b) for buf in self.edge_bufs]
        self.msg[E] = 0.0
        self.lg[E] = 0.0
        self.tot = _prefix(self.tot_bufs[0], _MSG_DTYPE, N, b)
        self.t = self.msg[:E]
        self.t_words = self.t.view(np.uint32)
        self.lg_e = self.lg[:E]
        self.sign_words = self.lg_e.view(np.uint32)
        self.neg = _prefix(self._neg, bool, E + 1, b)
        self.neg[E] = False
        self.neg_e = self.neg[:E]
        self.lsum = _prefix(self._lsum, _MSG_DTYPE, C, b)
        self.flip = _prefix(self._flip, bool, C + 1, b)
        self.stuck = self.flip[C]
        self.unsat = self.flip[:C]
        self.prev = _prefix(self.prev_bufs[0], bool, C, b)
        self.ok = _prefix(self._ok, bool, b)
        self.moved = _prefix(self._moved, bool, b)
        self.done = _prefix(self._done, bool, b)
        self.bits = _prefix(self._bits, np.uint8, N + 1, b)
        self.bits[N] = 0
        self.decision = self.bits[:N]
        self.bit_flags = self.bits.view(bool)
        # _decide's arguments: the totals' and the decision flags' X, Z and Y blocks.
        self.blocks = _blocks(self.tot, N // 3) + _blocks(self.decision.view(bool), N // 3)
        g = self._gather
        self.edge_g = _prefix(g, _MSG_DTYPE, E, b)
        self.edge_flags = _prefix(g, bool, E, b)
        self.check_g = _prefix(g, _MSG_DTYPE, *ctx.check_slots.shape, b)
        self.check_gb = _prefix(g, bool, *ctx.check_slots.shape, b)
        self.var_g = _prefix(g, _MSG_DTYPE, *ctx.var_slots.shape, b)
        V = ctx.var_ids.shape[0]
        self.var_sum = self.tot[ctx.var_rows] if type(ctx.var_rows) is slice else _prefix(self._scatter, _MSG_DTYPE, V, b)
        self.pri = _prefix(self._pri, _MSG_DTYPE, V, b)


def _check_update(ctx: DecoderContext, ws: _Workspace, s_act: np.ndarray) -> None:
    """Replace the variable-to-check messages in ws.t by check-to-variable
    messages in place, for the (checks, b) syndrome bits s_act.

    Runs through the log-magnitude / sign split: a check's sign flips with
    its syndrome bit and with each negative tanh; padding is neutral (lg = 0,
    not negative).
    """
    t = ws.t
    edge_check = ctx.edge_check
    np.tanh(t, out=t)
    np.less(t, 0, out=ws.neg_e)
    np.abs(t, out=t)
    t.clip(_LG_LO, _PROD_HI, out=t)
    np.log(t, out=ws.lg_e)
    ws.lg.take(ctx.check_slots, axis=0, out=ws.check_g, mode="clip")
    _in_order(ws.check_g, ws.lsum)
    ws.neg.take(ctx.check_slots, axis=0, out=ws.check_gb, mode="clip")
    np.logical_xor.reduce(ws.check_gb, axis=0, out=ws.unsat)
    ws.unsat ^= s_act
    prod = ws.lsum.take(edge_check, axis=0, out=t, mode="clip")
    prod -= ws.lg_e
    np.exp(prod, out=prod)
    # Negate by flipping the sign bit: exact, and cheaper than a masked
    # ufunc.  lg is spent, so its rows hold the sign words.
    sign = ws.unsat.take(edge_check, axis=0, out=ws.edge_flags, mode="clip")
    sign ^= ws.neg_e
    np.copyto(ws.sign_words, sign)
    ws.sign_words <<= 31
    ws.t_words ^= ws.sign_words
    prod.clip(-_PROD_HI, _PROD_HI, out=prod)
    np.arctanh(prod, out=prod)


def _first_check_messages(ctx: DecoderContext, prior: ChannelPrior):
    """BP's first check-to-variable messages, when every variable sends its
    prior: (words, flips), two read-only (E, 1) uint32 arrays.  words holds
    the float32 bits of each edge's message for syndrome bit 0, and
    words ^ flips those for syndrome bit 1.

    Both messages come from one _check_update on a two-trial workspace, so
    they are the kernel's own values.
    """
    ws = _Workspace(ctx, 2)
    ws.resize(2)
    np.copyto(ws.t, ctx.half_prior(prior)[0][ctx.edge_var])
    s = np.zeros((ctx.active_checks.shape[0], 2), dtype=bool)
    s[:, 1] = True
    _check_update(ctx, ws, s)
    words = np.ascontiguousarray(ws.t_words[:, :1])
    flips = words ^ ws.t_words[:, 1:]
    words.setflags(write=False)
    flips.setflags(write=False)
    return words, flips


def bp_decode_batch(ctx: DecoderContext, syndromes: np.ndarray, priors, cfg: BPConfig, which=None):
    """Flooding sum-product over a batch of syndromes.

    syndromes: (B, m) uint8; priors: a sequence of ChannelPriors of one
    noise kind; which: (B,) index of each syndrome's prior in priors, all
    0 when not given.  Returns (decision_bits (B, 3n) canonical one-hot,
    posteriors (B, 3n) float32, converged (B,), iterations (B,)), each from
    the iteration a trial finished in: the first where its checks are all
    satisfied (converged), where it has stalled (its unsatisfied checks the
    same for _STALL_ITERATIONS iterations) or its max_iterations-th.
    posteriors holds P(bit = 1) in the rows of the trials BP did not
    converge on, the rows OSD-0 reads, and zeros elsewhere.

    At most a _WIDTH_BYTES workspace of columns runs at once.  Once
    _COMPACT_DEAD_SHARE of them have finished, they take the batch's next
    trials: a refilled column gets messages 0 and totals at its trial's
    half prior, so its next iteration is exactly its first, and each column
    counts its own iterations.  Once no trial is left, finished columns are
    dropped instead.  Iteration 1 takes its check-to-variable messages from
    the context's table for each column's prior
    (DecoderContext.first_messages), selected by each check's syndrome bit;
    a refilled column computes the same messages with the full check update.
    Every sum adds in order (_in_order), so a trial's results do not depend
    on the batch around it.
    """
    S = np.asarray(syndromes, dtype=np.uint8)
    if S.ndim != 2 or S.shape[1] != ctx.m:
        raise ValueError("syndrome batch shape does not match the check matrix")
    B = S.shape[0]
    n = ctx.nbits // 3
    priors = list(priors)
    if not priors or any(q.noise != priors[0].noise for q in priors):
        raise ValueError("need at least one prior, all of one noise kind")
    if which is None:
        which = np.zeros(B, dtype=np.intp)
    else:
        which = np.asarray(which, dtype=np.intp)
        if which.shape != (B,) or (B and not 0 <= which.min() <= which.max() < len(priors)):
            raise ValueError("need one prior index per syndrome")

    out_bits = np.zeros((B, ctx.nbits), dtype=np.uint8)
    out_post = np.zeros((B, ctx.nbits), dtype=_MSG_DTYPE)
    out_conv = np.zeros(B, dtype=bool)
    out_iter = np.full(B, cfg.max_iterations, dtype=np.int64)
    if B == 0:
        return out_bits, out_post, out_conv, out_iter

    edge_var = ctx.edge_var
    # Messages and posterior totals are stored at half scale.  Doubling is
    # exact in float32, so T - M is the full-scale (tot - mcv) / 2 bit for
    # bit, and arctanh gives the new half-scale message directly.  Each
    # prior's half prior (its variable rows too) and first-message table
    # are one column each of the (rows, priors) tables.
    tables = [ctx.half_prior(q) + ctx.first_messages(q) for q in priors]
    half, var_half, words, flips = tables[0] if len(tables) == 1 else (np.concatenate(t, axis=1) for t in zip(*tables))
    scatter = None if type(ctx.var_rows) is slice else ctx.var_rows

    # A call under _KEEP_SHARE of a full workspace keeps its workspace on
    # the context for the next one; a wider one is freed, so that the
    # memory goes back to the heap for OSD-0 and the callers.
    full = max(1, _WIDTH_BYTES // sum(_column_bytes(ctx)))
    b = min(B, full)
    keep = b < _KEEP_SHARE * full
    ws = _Workspace.take(ctx, b) if keep else _Workspace(ctx, b)
    if ws.cols != b:
        ws.resize(b)
    half.take(which[:b], axis=1, out=ws.tot, mode="clip")
    var_half.take(which[:b], axis=1, out=ws.pri, mode="clip")
    # Each column's first-message table, gathered into buffers that
    # iteration 1 has not yet written: the words into the messages it turns
    # into, the flips into the gather buffer.
    first_words = words.take(which[:b], axis=1, out=ws.t_words, mode="clip")
    first_flips = flips.take(which[:b], axis=1, out=ws.edge_g.view(np.uint32), mode="clip")
    next_trial = b  # the first trial no column has taken yet
    active = np.arange(b)  # the trial of each kept column
    live = np.ones(b, dtype=bool)  # kept columns whose trial has not finished
    n_live = b
    s_trials = S[:, ctx.active_checks].astype(bool)
    s_act = np.ascontiguousarray(s_trials[:b].T)  # (C, b)
    vac_bad = S[:, ctx.vacuous_checks].any(axis=1)
    ws.stuck[:] = vac_bad[:b]
    # The iteration in which each column's unsatisfied checks last changed
    # (its first iteration, which has nothing to compare with, counts as
    # one, so what ws.prev holds before it does not matter), and the
    # iteration before its first.  No live column reaches max_iterations
    # before iteration cap.
    last = np.ones(b, dtype=np.intp)
    start = np.zeros(b, dtype=np.intp)
    cap = cfg.max_iterations

    it = 0
    while True:
        it += 1
        t, T = ws.t, ws.tot
        if it == 1:
            # Every variable sends its prior, so each message is the table's
            # syndrome-0 value, with the flips to its syndrome-1 value where
            # its check's syndrome bit is set: exact, whatever the two are.
            s_act.astype(np.uint32).take(ctx.edge_check, axis=0, out=ws.sign_words, mode="clip")
            ws.sign_words *= first_flips
            np.bitwise_xor(first_words, ws.sign_words, out=ws.t_words)
        else:
            # Variable-to-check messages from the previous totals; the new
            # check-to-variable messages then replace them in place.
            np.subtract(T.take(edge_var, axis=0, out=ws.edge_g, mode="clip"), t, out=t)
            _check_update(ctx, ws, s_act)

        # Posterior totals, constrained decision, convergence test.
        ws.msg.take(ctx.var_slots, axis=0, out=ws.var_g, mode="clip")
        post = _in_order(ws.var_g, ws.var_sum)
        post += ws.pri
        if scatter is not None:
            T[scatter] = post
        _decide(*ws.blocks)
        # A trial has converged when each check's decision bits XOR to its
        # syndrome bit and its stuck flag is clear.
        ws.bit_flags.take(ctx.check_var_slots, axis=0, out=ws.check_gb, mode="clip")
        np.logical_xor.reduce(ws.check_gb, axis=0, out=ws.unsat)
        ws.unsat ^= s_act
        ok = np.logical_or.reduce(ws.flip, axis=0, out=ws.ok)
        np.logical_not(ok, out=ok)
        # Stall test: has the set of unsatisfied checks (flip without the
        # stuck row) changed since the previous iteration?
        ws.prev ^= ws.unsat
        moved = np.logical_or.reduce(ws.prev, axis=0, out=ws.moved)
        np.copyto(ws.prev, ws.unsat)
        np.copyto(last, it, where=moved)

        # A converged trial finishes as converged even if it also stalled.
        done = np.less_equal(last, it - _STALL_ITERATIONS, out=ws.done)
        if it >= cap:
            done |= start <= it - cfg.max_iterations
            done &= live
            rest = start[live & ~done]
            cap = (rest.min() if rest.size else it) + cfg.max_iterations
        else:
            done &= live
        done |= ok
        n_done = np.count_nonzero(done)
        if not n_done:
            continue
        idx = active[done]
        out_bits[idx] = ws.decision[:, done].T
        out_conv[idx] = ok[done]
        out_iter[idx] = it - start[done]
        failed = done & ~ok
        if failed.any():
            # P(bit = 1) = 1 / (1 + exp(llr)) in float32, from the full-scale totals.
            prob = T[:, failed]
            prob += prob
            with np.errstate(over="ignore"):
                np.exp(prob, out=prob)
            prob += 1.0
            np.divide(1.0, prob, out=prob)
            out_post[active[failed]] = prob.T
        n_live -= n_done
        if n_live == 0 and next_trial == B:
            break
        live[done] = False
        ws.stuck[done] = True
        if b - n_live < _COMPACT_DEAD_SHARE * b:
            continue
        if next_trial < B:
            # Hand the finished columns the next trials, each starting afresh.
            cols = np.flatnonzero(~live)[: B - next_trial]
            new = slice(next_trial, next_trial + cols.shape[0])
            next_trial = new.stop
            active[cols] = np.arange(new.start, new.stop)
            live[cols] = True
            n_live += cols.shape[0]
            ws.t[:, cols] = 0.0
            ws.tot[:, cols] = half[:, which[new]]
            ws.pri[:, cols] = var_half[:, which[new]]
            s_act[:, cols] = s_trials[new].T
            ws.stuck[cols] = vac_bad[new]
            last[cols] = it + 1
            start[cols] = it
        else:
            # No trial is left: drop the finished trials' columns.
            kept = np.flatnonzero(live)
            active = active[kept]
            s_act = s_act[:, kept]
            last = last[kept]
            start = start[kept]
            b = n_live
            live = np.ones(b, dtype=bool)
            ws.compact(kept)
            ws.stuck[:] = vac_bad[active]
    if keep:
        ctx._kept_workspace[:] = [ws]
    return out_bits, out_post, out_conv, out_iter


def bp_decode(ctx: DecoderContext, syndrome: np.ndarray, prior: ChannelPrior, cfg: BPConfig):
    """Sum-product on one (m,) syndrome; see bp_decode_batch for the semantics.

    Returns (raw_bits, posteriors, converged, iterations) where raw_bits is
    the canonical one-hot decision vector of length 3n, and posteriors are
    float32, zeros when BP converged.
    """
    bits, post, conv, iters = bp_decode_batch(ctx, np.asarray(syndrome)[None, :], [prior], cfg)
    return bits[0], post[0], bool(conv[0]), int(iters[0])


# _reliability_order's key shift and column mask, built once rather than per call.
_KEY_SHIFT = np.uint64(32)
_KEY_COLUMN = np.uint64(0xFFFFFFFF)


def _reliability_order(posteriors: np.ndarray) -> np.ndarray:
    """(B, N) column orders by descending float32 posterior, ties by
    ascending column.

    One sort of uint64 keys (~float32 bits << 32 | column): the bits of a
    non-negative float ascend with its value, and the keys are unique, so
    the order equals np.argsort(-posteriors, kind="stable") wherever the
    posteriors are non-negative float32 values.
    """
    post = np.asarray(posteriors, dtype=np.float32)
    if post.ndim != 2:
        raise ValueError("expected a (B, 3n) array of posteriors")
    keys = np.invert(post.view(np.uint32)).astype(np.uint64)
    keys <<= _KEY_SHIFT
    keys |= np.arange(post.shape[1], dtype=np.uint64)
    keys.sort(axis=1)
    keys &= _KEY_COLUMN
    return keys.view(np.intp)  # each key is now its column, below 2**32


class InfeasibleSyndrome(RuntimeError):
    """A syndrome that no error on the channel's columns of Hd produces."""


def osd_post_process(
    ctx: DecoderContext, syndromes: np.ndarray, posteriors: np.ndarray, prior: ChannelPrior
) -> np.ndarray:
    """OSD-0: solve Hd·x = s on the most reliable independent column set
    among the bits the channel can flip.

    Takes a (B, m) syndrome batch with (B, 3n) posteriors and returns
    (B, 3n) bits.  Only the columns with nonzero prior probability take
    part: every column under depolarizing noise, the X block (Hz) under
    pure-X noise, whose estimates therefore have no Z or Y bit.  Those
    columns are ranked by descending float32 posterior P(bit=1) (ties:
    ascending index) in one sort of integer keys; BP's posteriors are
    float32 values, so the float32 ranking loses nothing.  The trials are
    ranked in blocks whose keys fit in _KEY_BYTES, and each block goes to
    one SelectedSolver.solve_batch call, which inserts a trial's columns
    into an XOR basis in its order until its syndrome is solved, usually
    long before rank(Hd) pivots; every row equals gf2.solve_selected's on
    the same columns.  The syndrome of an error the channel can make always
    lies in that column space; a syndrome outside it (a broken check
    matrix, or under pure-X an error with a Z part) raises
    InfeasibleSyndrome.
    """
    S = np.asarray(syndromes, dtype=np.uint8)
    post = np.asarray(posteriors)
    if S.ndim != 2 or S.shape[1] != ctx.m or post.shape != (S.shape[0], ctx.nbits):
        raise ValueError("expected a (B, m) syndrome batch and (B, 3n) posteriors")
    _, solver = ctx.channel_columns(prior)
    B, k = S.shape[0], solver.cols
    cols = slice(0, k)  # the channel's columns lead Hd's: views, not fancy-index copies
    bits = np.zeros((B, ctx.nbits), dtype=np.uint8)
    # A block's reliability order is built with it: the posteriors' float32
    # copy, their inverted bits and the uint64 keys, 16 bytes per column.
    block = max(1, _KEY_BYTES // (16 * max(1, k)))
    try:
        for lo in range(0, B, block):
            order = _reliability_order(post[lo : lo + block, cols])
            bits[lo : lo + block, cols] = solver.solve_batch(S[lo : lo + block], order)
    except gf2.Infeasible as exc:
        raise InfeasibleSyndrome("syndrome outside the column space of the channel's columns of Hd") from exc
    return bits


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
        bits = osd_post_process(ctx, s[None, :], post[None, :], prior)[0]
    return DecodeOutcome(
        estimate=pauli.to_symplectic(bits),
        bp_converged=conv,
        iterations=iters,
    )
