"""Monte Carlo upper bound on code distance, plus the brute-force oracle.

A sweep's trials run in (rate, trial) order, in chunks that may span
rates.  Each chunk's depolarizing (or pure-X) errors are sampled, decoded
under the prior of the same noise at each trial's own rate (one BP call and
one OSD-0 call per chunk), and their residuals tested by logical_mask, the
one rule for what counts as a logical operator.  Every logical residual is
an explicit logical operator, so the running minimum weight is a certified
upper bound on code distance; the best witness travels with the report and
can be re-verified independently.

Trials are reproducible: each (rate, trial) pair owns an RNG stream derived
from the master seed, and chunk results are reduced per rate in trial
order, so reports are bit-identical across runs, chunk sizes and worker
counts.
"""

from __future__ import annotations

import atexit
import json
import math
import os
import signal
import sys
import threading
import traceback
import warnings
from dataclasses import dataclass, field
from math import comb

import numpy as np

from . import pauli
from .codes import StabilizerCode
from .decoder import CERTAIN_LLR, BPConfig, ChannelPrior, DecoderContext, NoiseKind, bp_decode_batch, osd_post_process, _real_number, _whole_number

SCHEMA_VERSION = 1
DEFAULT_RATES = (0.01, 0.02, 0.05, 0.08, 0.10, 0.12, 0.15)
# The sampler hashes each trial index as one uint32 word of its spawn key.
MAX_TRIALS_PER_RATE = 1 << 32


@dataclass(frozen=True)
class TrialConfig:
    rates: tuple[float, ...] = DEFAULT_RATES
    trials_per_rate: int = 10_000
    master_seed: int = 0
    noise_kind: NoiseKind = NoiseKind.DEPOLARIZING
    decoder: BPConfig = field(default_factory=BPConfig)

    def __post_init__(self):
        # Stored as a tuple of Python floats, so that a report of them is JSON.
        object.__setattr__(self, "rates", tuple(_real_number(p, "error rate") for p in self.rates))
        if not self.rates:
            raise ValueError("need at least one error rate")
        if any(not 0.0 < p < 1.0 for p in self.rates):
            raise ValueError("error rates must be in (0, 1)")
        for name in ("trials_per_rate", "master_seed"):
            object.__setattr__(self, name, _whole_number(getattr(self, name), name))
        if not 1 <= self.trials_per_rate <= MAX_TRIALS_PER_RATE:
            raise ValueError("trials per rate must be between 1 and 2**32")
        if self.master_seed < 0:
            raise ValueError("master seed must be non-negative")
        object.__setattr__(self, "noise_kind", NoiseKind(self.noise_kind))  # ValueError if unknown
        if not isinstance(self.decoder, BPConfig):
            raise ValueError(f"decoder must be a BPConfig, not {self.decoder!r}")


@dataclass
class RateStats:
    p: float
    trials: int
    logical_events: int
    min_weight: int | None


@dataclass
class DistanceReport:
    code_name: str
    n: int
    k: int
    upper_bound: int
    witness: pauli.SymplecticPauli | None
    per_rate: list[RateStats]
    seed: int
    decoder: BPConfig

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "code": self.code_name,
            "n": self.n,
            "k": self.k,
            "upper_bound": self.upper_bound,
            "witness_pauli_string": None if self.witness is None else pauli.to_string(self.witness),
            "per_rate": [
                {
                    "p": r.p,
                    "trials": r.trials,
                    "logical_events": r.logical_events,
                    "min_weight": r.min_weight,
                }
                for r in self.per_rate
            ],
            "seed": self.seed,
            "decoder_config": {
                "max_iterations": self.decoder.max_iterations,
                "clip": CERTAIN_LLR,  # schema v1 records the fixed prior LLR here
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

    def to_csv(self) -> str:
        lines = ["p,trials,logical_events,min_weight"]
        for r in self.per_rate:
            mw = "" if r.min_weight is None else r.min_weight
            lines.append(f"{r.p},{r.trials},{r.logical_events},{mw}")
        return "\n".join(lines) + "\n"


def trial_rng(master_seed: int, rate_idx: int, trial_idx: int) -> np.random.Generator:
    """Independent per-trial stream: master seed plus a (rate, trial) spawn key."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(rate_idx, trial_idx))
    return np.random.default_rng(ss)


def sample_error(n: int, p: float, kind: NoiseKind, rng: np.random.Generator) -> pauli.SymplecticPauli:
    """One noise draw: i.i.d. per qubit.

    Depolarizing: identity with 1-p, else uniform X/Z/Y.  Pure-X: X with
    probability p (used for the logical-X minimum-weight study of Z-type
    codes, which have no protection against Z).
    """
    if not 0.0 < p < 1.0:
        raise ValueError("error rate must be in (0, 1)")
    hit = rng.random(n) < p
    if kind == NoiseKind.PURE_X:
        return pauli.SymplecticPauli(n, hit.astype(np.uint8), np.zeros(n, dtype=np.uint8))
    which = rng.integers(0, 3, size=n)  # 0=X, 1=Z, 2=Y
    # uint8 & bool gives fresh 0/1 uint8 arrays, the bits from_arrays would
    # make, without its extra passes (and without keeping a bool base alive).
    hit = hit.view(np.uint8)
    return pauli.SymplecticPauli(n, hit & (which != 1), hit & (which != 0))


def logical_mask(
    code: StabilizerCode, ex: np.ndarray, ez: np.ndarray, noise_kind: NoiseKind | None = None
) -> np.ndarray:
    """(B,) bool: whether each row of the (B, n) arrays ex, ez is a logical
    operator, the one rule the sweep, verify_witness, the oracle and
    decode-one share.

    A row is logical when its syndrome is zero and it lies outside the
    stabilizer group.  A pure-X bound is a bound on the logical-X weight, so
    with noise_kind=PURE_X a row must also be X-type (ez = 0).  Only the rows
    that pass the first tests go to the span test.
    """
    mask = ~code.syndromes(ex, ez).any(axis=1)
    if noise_kind == NoiseKind.PURE_X:
        mask &= ~ez.any(axis=1)
    idx = np.flatnonzero(mask)
    if idx.size:
        mask[idx] = ~code.stabilizer_reducer().contains_batch(np.hstack([ex[idx], ez[idx]]))
    return mask


def verify_witness(
    code: StabilizerCode,
    w: pauli.SymplecticPauli,
    expected_weight: int | None = None,
    noise_kind: NoiseKind | None = None,
) -> bool:
    """True iff w is a logical operator (logical_mask, X-type under
    noise_kind=PURE_X) of the stated weight."""
    if w is None or w.n != code.n:
        return False
    if expected_weight is not None and pauli.weight(w) != expected_weight:
        return False
    return bool(logical_mask(code, w.ex[None, :], w.ez[None, :], noise_kind)[0])


# The block sampler below reproduces, trial for trial, what
# sample_error(n, p, kind, trial_rng(seed, rate_idx, t)) draws, without
# building a Generator per trial.  It takes each rate's SeedSequence pool
# from numpy, hashes only the trial word into it, and follows the rest of
# the algorithms behind those streams: SeedSequence's generate_state
# (numpy/random/bit_generator.pyx), PCG64 seeding (O'Neill, "PCG",
# HMC-CS-2014-0905), Generator.random's 53-bit doubles and
# Generator.integers' bounded draws by Lemire's method (Lemire, ACM TOMS
# 2019).  SeedSequence words are uint32; the hash below runs on Python ints
# masked to 32 bits or on uint32 arrays, which wrap without a warning
# (numpy scalars would warn on overflow).
_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875  # pool mixing
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_SS_POOL = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_LEMIRE_3_ONE = -(-(1 << 32) // 3)
_LEMIRE_3_TWO = -(-(2 << 32) // 3)


def _hashmix(value, const: int, mult: int):
    """One SeedSequence hash step; returns (hashed value, next constant)."""
    value = value ^ const
    const = (const * mult) & _M32
    value = (value * const) & _M32
    return value ^ (value >> 16), const


def _mix(x, y):
    """SeedSequence's mix of a pool word x with a hashed word y."""
    r = (((_SS_MIX_L * x) & _M32) - ((_SS_MIX_R * y) & _M32)) & _M32
    return r ^ (r >> 16)


def _pcg64_seeds(master_seed: int, rate_idx: int, trials: np.ndarray) -> list[tuple[int, int]]:
    """PCG64 (state, inc) of default_rng(SeedSequence(master_seed,
    spawn_key=(rate_idx, t))) for each trial index t < 2**32."""
    # SeedSequence(master_seed, spawn_key=(rate_idx, t)) mixes the entropy
    # words of SeedSequence(master_seed, spawn_key=(rate_idx,)), then t.  Each
    # word mixed (the seed's padded to a whole pool, then the rate index's)
    # advanced the hash constant once per pool word, whatever the data.
    pool = np.random.SeedSequence(master_seed, spawn_key=(rate_idx,)).pool.tolist()
    seed_words = max(_SS_POOL, -(-int(master_seed).bit_length() // 32))
    mixed = seed_words + max(1, -(-int(rate_idx).bit_length() // 32))
    const = (_SS_INIT_A * pow(_SS_MULT_A, _SS_POOL * mixed, 1 << 32)) & _M32
    trial_word = trials.astype(np.uint32)
    for dst in range(_SS_POOL):
        h, const = _hashmix(trial_word, const, _SS_MULT_A)
        pool[dst] = _mix(pool[dst], h)
    # generate_state(4, uint64): eight uint32 words cycling over the pool,
    # paired low word first.
    const = _SS_INIT_B
    words = []
    for i in range(8):
        h, const = _hashmix(pool[i % _SS_POOL], const, _SS_MULT_B)
        words.append(h.astype(np.uint64))
    s0, s1, i0, i1 = ((words[j] | (words[j + 1] << 32)).tolist() for j in range(0, 8, 2))
    seeds = []
    for a, b, c, d in zip(s0, s1, i0, i1):
        # pcg64 srandom: inc = 2 * initseq + 1; state = (inc + initstate) * mult + inc.
        inc = (((c << 64) | d) << 1 | 1) & _M128
        seeds.append((((inc + ((a << 64) | b)) * _PCG64_MULT + inc) & _M128, inc))
    return seeds


def _errors_from_raw(raw: np.ndarray, n: int, p: float, kind: NoiseKind):
    """(ex, ez, redraw) from each trial's raw PCG64 words, as sample_error
    draws them: n doubles, then for depolarizing noise n uint32 halves (low
    half of each word first) mapped to which = (u32 * 3) >> 32 in {0, 1, 2},
    Lemire's method.  `redraw` flags trials where that method would reject a
    draw (u32 = 0, the only value whose low product word falls below its
    threshold of 1), after which the reference stream reads extra words."""
    # random() < p  <=>  (word >> 11) * 2**-53 < p  <=>  word < ceil(p * 2**53) * 2**11.
    hit = (raw[:, :n] < math.ceil(p * 2.0**53) << 11).view(np.uint8)
    if kind == NoiseKind.PURE_X:
        return hit, np.zeros_like(hit), np.zeros(len(raw), dtype=bool)
    u32 = raw[:, n:].astype("<u8", copy=False).view("<u4")[:, :n]
    # which >= 1 iff u32 >= ceil(2**32 / 3), and which = 2 iff u32 >= ceil(2**33 / 3).
    z = u32 >= _LEMIRE_3_ONE
    x = (u32 < _LEMIRE_3_ONE) | (u32 >= _LEMIRE_3_TWO)
    return hit & x, hit & z, ~u32.all(axis=1)


# Most trials whose raw PCG64 words _sample_batch holds at once: it draws a
# segment in pieces of this many trials into one reused block, which would
# otherwise be its largest array (6.1 MB for 1,024 trials of chamon(5,5,5),
# against 1.5 MB for 256).
_SAMPLE_PIECE = 256


def _sample_batch(code: StabilizerCode, p: float, kind: NoiseKind, seed: int, rate_idx: int, start: int, stop: int):
    """Trials start..stop-1 of one rate, row i equal to
    sample_error(code.n, p, kind, trial_rng(seed, rate_idx, start + i))."""
    if not 0.0 < p < 1.0:
        raise ValueError("error rate must be in (0, 1)")
    if stop > MAX_TRIALS_PER_RATE:
        raise ValueError("at most 2**32 trials per rate")
    n = code.n
    draws = n if kind == NoiseKind.PURE_X else n + (n + 1) // 2
    ex = np.empty((stop - start, n), dtype=np.uint8)
    ez = np.empty_like(ex)
    # Each trial's seeded state goes onto one reused PCG64.
    bitgen = np.random.PCG64(0)
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    block = np.empty((min(stop - start, _SAMPLE_PIECE), draws), dtype=np.uint64)
    for lo in range(start, stop, _SAMPLE_PIECE):
        hi = min(lo + _SAMPLE_PIECE, stop)
        raw = block[: hi - lo]
        for row, (pcg["state"], pcg["inc"]) in zip(raw, _pcg64_seeds(seed, rate_idx, np.arange(lo, hi))):
            bitgen.state = state
            row[:] = bitgen.random_raw(draws)
        rows = slice(lo - start, hi - start)
        ex[rows], ez[rows], redraw = _errors_from_raw(raw, n, p, kind)
        for i in np.flatnonzero(redraw).tolist():
            e = sample_error(n, p, kind, trial_rng(seed, rate_idx, lo + i))
            ex[lo - start + i], ez[lo - start + i] = e.ex, e.ez
    return ex, ez


def _decode_chunk(ctx: DecoderContext, S: np.ndarray, priors, which, cfg: BPConfig):
    """Decode a syndrome chunk: BP on every trial, then one batched OSD-0
    solve over the trials BP did not converge on.  priors are ChannelPriors
    of one noise kind and which is each trial's index into them (see
    bp_decode_batch).  Returns canonical (ex, ez) estimates and the
    convergence flags."""
    bits, post, conv, _ = bp_decode_batch(ctx, S, priors, cfg, which)
    failed = ~conv
    if failed.any():
        post = post[failed]  # the converged trials' rows are zeros: free them before OSD-0 runs
        # OSD-0 reads only the noise kind, which every trial's prior shares.
        bits[failed] = osd_post_process(ctx, S[failed], post, priors[0])
    return (*pauli.collapse(bits), conv)


# Most trials per chunk, the sweep's one unit of work.  A chunk takes the
# next trials of its share in (rate, trial) order, across rates, so its BP
# keeps its columns busy until the chunk's last trials, and its OSD-0 and
# classification run once.  Trials are independent, so only speed and
# memory depend on it; BP and OSD-0 bound their own working sets by bytes,
# so a larger chunk costs only its per-trial arrays.  Every benchmark sweep
# (400-1,000 trials) is one chunk per share.
_CHUNK_TRIALS = 1024


def _chunks(segments):
    """The (rate_idx, start, stop) segments, in order, cut into chunks of at
    most _CHUNK_TRIALS trials, each a list of consecutive segments."""
    chunk, room = [], _CHUNK_TRIALS
    for rate_idx, start, stop in segments:
        while start < stop:
            take = min(room, stop - start)
            chunk.append((rate_idx, start, start + take))
            start, room = start + take, room - take
            if not room:
                yield chunk
                chunk, room = [], _CHUNK_TRIALS
    if chunk:
        yield chunk


def _shares(cfg: TrialConfig, count: int):
    """The sweep cut into `count` shares, each a list of chunks (_chunks).
    Share j holds trials j * T // count to (j + 1) * T // count - 1 of every
    rate (T trials per rate), in (rate, trial) order: low rates decode
    faster, so contiguous slices of the sweep would not take equal time."""
    T = cfg.trials_per_rate
    bounds = [j * T // count for j in range(count + 1)]
    return [list(_chunks([(rate_idx, lo, hi) for rate_idx in range(len(cfg.rates))]))
            for lo, hi in zip(bounds[:-1], bounds[1:])]


def _run_chunk(code: StabilizerCode, ctx: DecoderContext, cfg: TrialConfig, segments):
    """Sample, decode and classify one chunk of (rate_idx, start, stop)
    segments: per segment, (rate_idx, logical count, first lightest residual
    (weight, rx, rz) or None)."""
    sizes = [stop - start for _, start, stop in segments]
    ex = np.empty((sum(sizes), code.n), dtype=np.uint8)
    ez = np.empty_like(ex)
    lo = 0
    for (rate_idx, start, stop), size in zip(segments, sizes):
        p = cfg.rates[rate_idx]
        rows = slice(lo, lo + size)
        ex[rows], ez[rows] = _sample_batch(code, p, cfg.noise_kind, cfg.master_seed, rate_idx, start, stop)
        lo += size
    # One prior per segment: each segment holds one rate's trials.
    priors = [ChannelPrior(cfg.rates[rate_idx], cfg.noise_kind) for rate_idx, _, _ in segments]
    which = np.repeat(np.arange(len(segments)), sizes)
    est_x, est_z, _ = _decode_chunk(ctx, code.syndromes(ex, ez), priors, which, cfg.decoder)
    rx, rz = ex ^ est_x, ez ^ est_z
    weights = np.count_nonzero(rx | rz, axis=1)
    idx = np.flatnonzero(weights)
    idx = idx[logical_mask(code, rx[idx], rz[idx], cfg.noise_kind)]
    results = []
    bounds = np.searchsorted(idx, np.cumsum([0] + sizes))
    for (rate_idx, _, _), lo, hi in zip(segments, bounds[:-1], bounds[1:]):
        if lo == hi:
            results.append((rate_idx, 0, None))
            continue
        t = idx[lo + np.argmin(weights[idx[lo:hi]])]  # the first trial at the segment's minimum
        results.append((rate_idx, int(hi - lo), (int(weights[t]), rx[t].copy(), rz[t].copy())))
    return results


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    has one, which a container or taskset narrows below the host's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Least work, in trials times Tanner-graph edges (DecoderContext.num_edges),
# that a sweep must have per share before it hands shares to worker
# processes.  A message round trip takes about 50 us, but on a short share
# Linux often wakes the worker on the caller's own CPU and leaves both there:
# on 2 vCPUs two shares ran x0.6-0.9 of one below about 50,000 per share on
# planar_surface(7) and ztgre(7), and below 150,000 on planar_surface(3) at
# 30 BP iterations, and x1.1-1.8 of one above (the table is in CHANGES.md).
_SHARE_MIN_WORK = 150_000


def _share_count(cfg: TrialConfig, ctx: DecoderContext, workers: int) -> int:
    """How many shares to cut the sweep into: at most `workers`, at most one
    per trial of a rate, and each above _SHARE_MIN_WORK."""
    work = cfg.trials_per_rate * len(cfg.rates) * ctx.num_edges
    return max(1, min(workers, cfg.trials_per_rate, work // _SHARE_MIN_WORK))


def _caught(log) -> list[tuple]:
    """The distinct warnings in a catch_warnings log, in order, each as the
    (message, category, filename, lineno, module) that warn_explicit takes.
    module is the name of the loaded module at filename, as warn would give,
    else warn_explicit's own default (module=None would drop the warning)."""
    if not log:
        return []
    modules = {getattr(m, "__file__", None): name for name, m in list(sys.modules.items())}
    seen = {}
    for w in log:
        key = str(w.message), w.category, w.filename, w.lineno
        default = w.filename[:-3] if w.filename.lower().endswith(".py") else w.filename
        seen.setdefault(key, key + (modules.get(w.filename, default),))
    return list(seen.values())


def _serve(fd: int) -> None:
    """A worker process's loop over its end `fd` of a Pipe.  Each message is
    ((name, hx, hz) or None, TrialConfig, share); the worker keeps the last
    code it was sent, with its DecoderContext.  It replies ((True, each
    chunk's _run_chunk results) or (False, the traceback of what failed),
    the warnings raised on the way (_caught)), so that the caller's warning
    filters judge them.  It exits when the caller closes its end."""
    import multiprocessing.connection

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C reaches the caller, which stops its workers
    conn = multiprocessing.connection.Connection(fd)
    code = ctx = None
    while True:
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            try:
                matrices, cfg, share = conn.recv()
            except EOFError:
                return
            try:
                if matrices is not None:
                    code = StabilizerCode(*matrices)
                    ctx = DecoderContext.for_code(code)
                reply = True, [_run_chunk(code, ctx, cfg, segments) for segments in share]
            except Exception:
                reply = False, traceback.format_exc()
        try:
            conn.send((reply, _caught(log)))
        except OSError:  # the caller is gone
            return


class _Worker:
    """A persistent worker process fed over its own Pipe.

    It is a fresh interpreter (fork then exec, as multiprocessing's spawn
    starts one) on the caller's sys.path, launched directly rather than
    through multiprocessing so that it never re-imports the caller's
    __main__: a script without a __main__ guard would otherwise run its own
    sweeps again in every worker.  No thread is started in the caller.  Its
    modules are imported when the first worker starts, so a process that
    never starts one loads neither.
    """

    def __init__(self):
        import multiprocessing.connection
        import subprocess

        self.conn, child = multiprocessing.connection.Pipe()
        boot = (f"import sys; sys.path[:] = {sys.path!r}; "
                f"from {_serve.__module__} import {_serve.__name__} as serve; serve({child.fileno()})")
        self.process = subprocess.Popen([sys.executable, "-c", boot], pass_fds=[child.fileno()],
                                        stdin=subprocess.DEVNULL)
        child.close()
        # The code the worker holds.  A held reference is never reused by
        # another object, and a code's matrices are read-only.
        self.code = None

    def send(self, code: StabilizerCode, cfg: TrialConfig, share) -> None:
        try:
            self.conn.send((None if code is self.code else (code.name, code.hx, code.hz), cfg, share))
        except OSError:
            raise RuntimeError(f"sweep worker {self.process.pid} is gone ({self._status()})") from None
        self.code = code

    def receive(self) -> tuple[list, list[tuple]]:
        """The share's chunk results and the warnings its worker caught."""
        try:
            (ok, out), caught = self.conn.recv()
        except (EOFError, OSError):
            raise RuntimeError(f"sweep worker {self.process.pid} died mid-sweep ({self._status()})") from None
        if not ok:
            raise RuntimeError(f"sweep worker {self.process.pid} failed:\n{out}")
        return out, caught

    def _status(self) -> str:
        import subprocess

        try:
            return f"exit status {self.process.wait(timeout=5)}"
        except subprocess.TimeoutExpired:
            return "still running"

    def stop(self) -> None:
        self.conn.close()
        self.process.terminate()
        self.process.wait()


# The worker processes, started on first need and kept for later sweeps.  A
# sweep holds the lock while it uses them.
_POOL: list[_Worker] = []
_POOL_LOCK = threading.Lock()
# Which of the workers' warnings the "default" filter action has shown
# already, as a module's __warningregistry__ records its own.
_WORKER_WARNINGS: dict = {}


def _pool(count: int) -> list[_Worker]:
    """`count` live workers: the pool's first ones, replacing any that have
    exited since the last sweep, and new ones as needed."""
    _stop([w for w in _POOL if w.process.poll() is not None])
    while len(_POOL) < count:
        _POOL.append(_Worker())
    return _POOL[:count]


def _stop(workers: list[_Worker]) -> None:
    """Terminate and reap workers and drop them from the pool."""
    for w in list(workers):
        w.stop()
        _POOL.remove(w)


def _forget_pool() -> None:
    """In a forked child: the pool's workers belong to the parent."""
    global _POOL_LOCK
    _POOL.clear()
    _POOL_LOCK = threading.Lock()


atexit.register(_stop, _POOL)
if hasattr(os, "register_at_fork"):  # POSIX: the only platforms that fork
    os.register_at_fork(after_in_child=_forget_pool)


def _run_shares(code: StabilizerCode, ctx: DecoderContext, cfg: TrialConfig, shares) -> list:
    """Each share's list of chunk results, in share order.  The first share
    runs in this process while one worker process runs each of the others."""
    def here(share):
        return [_run_chunk(code, ctx, cfg, segments) for segments in share]

    if len(shares) == 1:
        return [here(shares[0])]
    with _POOL_LOCK:
        helpers = _pool(len(shares) - 1)
        try:
            for helper, share in zip(helpers, shares[1:]):
                helper.send(code, cfg, share)
            results = [here(shares[0])]
            replies = [helper.receive() for helper in helpers]
        except BaseException:
            # A worker still holding this sweep's share would hand its result
            # to the next sweep: stop every worker this sweep used.
            _stop(helpers)
            raise
    # Every worker is idle now, so a warning that the caller's filters turn
    # into an error leaves no share behind.
    for out, caught in replies:
        for warning in caught:
            warnings.warn_explicit(*warning, registry=_WORKER_WARNINGS)
        results.append(out)
    return results


def estimate_upper_bound(code: StabilizerCode, cfg: TrialConfig, workers: int | None = None) -> DistanceReport:
    """Sweep rates, decode trials, and track the minimum logical weight.

    The running minimum starts at the code length; only residuals that
    logical_mask accepts under cfg.noise_kind lower it.  The sweep is cut
    into at most `workers` shares (default: usable_cpus()), each an equal
    slice of every rate, and fewer when a share would hold too little work
    to pay for a worker (_share_count).  This process runs one share and
    persistent worker processes run the others, chunk by chunk
    (_run_chunk), so memory does not grow with the trial count; results are
    reduced per rate in trial order, so the witness is the first trial at
    the final minimum and the report does not depend on `workers`.
    """
    workers = usable_cpus() if workers is None else _whole_number(workers, "workers")
    if workers < 1:
        raise ValueError("need at least one worker")
    ctx = DecoderContext.for_code(code)
    best = code.n
    witness: pauli.SymplecticPauli | None = None
    per_rate: list[RateStats] = []

    events = [0] * len(cfg.rates)
    lightest = [(code.n + 1,)] * len(cfg.rates)  # heavier than any residual
    # Share j's trials of a rate precede share j + 1's, so reading shares in
    # order, and chunks in order within each, visits every rate in trial order.
    for share in _run_shares(code, ctx, cfg, _shares(cfg, _share_count(cfg, ctx, workers))):
        for results in share:
            for rate_idx, count, first in results:
                events[rate_idx] += count
                if first is not None and first[0] < lightest[rate_idx][0]:  # a tie keeps the earlier trial
                    lightest[rate_idx] = first
    for p, count, (weight, *parts) in zip(cfg.rates, events, lightest):
        if weight < best:
            best, witness = weight, pauli.SymplecticPauli.from_arrays(*parts)
        per_rate.append(RateStats(p, cfg.trials_per_rate, logical_events=count, min_weight=weight if count else None))

    return DistanceReport(
        code_name=code.name,
        n=code.n,
        k=code.k,
        upper_bound=best,
        witness=witness,
        per_rate=per_rate,
        seed=cfg.master_seed,
        decoder=cfg.decoder,
    )


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


class BudgetExceeded(Exception):
    """The exhaustive search would visit more candidates than allowed."""


@dataclass
class OracleResult:
    searched_max_weight: int
    found_distance: int | None
    witness: pauli.SymplecticPauli | None = None


def brute_force_distance(code: StabilizerCode, w_max: int, budget: int = 50_000_000) -> OracleResult:
    """Exhaustive search over all Paulis of weight 1..w_max.

    Returns the first weight admitting a zero-syndrome non-stabilizer
    operator; independent of the decoder and of any rank shortcuts in the
    sampling path.  Cost grows as C(n, w) * 3^w, hence the budget guard.
    """
    if w_max < 1:
        raise ValueError("w_max must be at least 1")
    n = code.n
    total = sum(comb(n, w) * 3**w for w in range(1, w_max + 1))
    if total > budget:
        raise BudgetExceeded(f"search size {total} exceeds budget {budget}")

    # Syndrome of each single-qubit Pauli as a python int (bit i = generator i):
    # rows 0..n-1 are X on qubit q, rows n..2n-1 are Z on qubit q, and Y = X xor Z.
    paulis = np.eye(2 * n, dtype=np.uint8)
    single = code.syndromes(paulis[:, :n], paulis[:, n:])
    ints = [int.from_bytes(row.tobytes(), "little") for row in np.packbits(single, axis=1, bitorder="little")]
    synd = [(0, sx, sz, sx ^ sz) for sx, sz in zip(ints[:n], ints[n:])]  # index by Pauli code 0=I,1=X,2=Z,3=Y

    found: list = []

    def rec(start: int, remaining: int, acc: int, support: list, paulis: list) -> bool:
        if remaining == 0:
            if acc == 0:
                # Pauli codes 1=X, 2=Z, 3=Y: bit 0 is the X part, bit 1 the Z part.
                kinds = np.array(paulis, dtype=np.uint8)
                ex = np.zeros((1, n), dtype=np.uint8)
                ez = np.zeros((1, n), dtype=np.uint8)
                ex[0, support], ez[0, support] = kinds & 1, kinds >> 1
                if logical_mask(code, ex, ez)[0]:
                    found.append(pauli.SymplecticPauli.from_arrays(ex[0], ez[0]))
                    return True
            return False
        for q in range(start, n - remaining + 1):
            support.append(q)
            for pc in (1, 2, 3):
                paulis.append(pc)
                if rec(q + 1, remaining - 1, acc ^ synd[q][pc], support, paulis):
                    return True
                paulis.pop()
            support.pop()
        return False

    for w in range(1, w_max + 1):
        if rec(0, w, 0, [], []):
            return OracleResult(w_max, w, found[0])
    return OracleResult(w_max, None, None)
