"""Monte Carlo upper bound on code distance, plus the brute-force oracle.

For each physical error rate a batch of depolarizing (or pure-X) errors is
sampled, decoded under the prior of the same noise, and the residual error
classified as stabilizer or logical.
Every logical residual is an explicit logical operator, so the running
minimum weight is a certified upper bound on code distance; the best witness
travels with the report and can be re-verified independently.

Trials are reproducible: each (rate, trial) pair owns an RNG stream derived
from the master seed, so reports are bit-identical across runs, batch sizes
and worker counts.
"""

from __future__ import annotations

import enum
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations
from math import comb

import numpy as np

from . import pauli
from .codes import StabilizerCode
from .decoder import BPConfig, ChannelPrior, DecoderContext, NoiseKind, bp_decode_batch, osd_post_process

SCHEMA_VERSION = 1
DEFAULT_RATES = (0.01, 0.02, 0.05, 0.08, 0.10, 0.12, 0.15)
# The sampler hashes each trial index as one uint32 word of its spawn key.
MAX_TRIALS_PER_RATE = 1 << 32


class ResidualClass(enum.Enum):
    STABILIZER = "stabilizer"
    LOGICAL = "logical"
    SYNDROME_NONZERO = "syndrome_nonzero"


@dataclass(frozen=True)
class TrialConfig:
    rates: tuple[float, ...] = DEFAULT_RATES
    trials_per_rate: int = 10_000
    master_seed: int = 0
    noise_kind: NoiseKind = NoiseKind.DEPOLARIZING
    decoder: BPConfig = field(default_factory=BPConfig)

    def __post_init__(self):
        if not self.rates:
            raise ValueError("need at least one error rate")
        if any(not 0.0 < p < 1.0 for p in self.rates):
            raise ValueError("error rates must be in (0, 1)")
        if not 1 <= self.trials_per_rate <= MAX_TRIALS_PER_RATE:
            raise ValueError("trials per rate must be between 1 and 2**32")
        if self.master_seed < 0:
            raise ValueError("master seed must be non-negative")


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
                "clip": self.decoder.clip,
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


def classify_residual(code: StabilizerCode, r: pauli.SymplecticPauli) -> ResidualClass:
    """Stabilizer / logical / nonzero-syndrome trichotomy for a residual."""
    if not code.syndrome(r).is_zero():
        return ResidualClass.SYNDROME_NONZERO
    if code.in_stabilizer_group(r):
        return ResidualClass.STABILIZER
    return ResidualClass.LOGICAL


def verify_witness(
    code: StabilizerCode,
    w: pauli.SymplecticPauli,
    expected_weight: int | None = None,
    noise_kind: NoiseKind | None = None,
) -> bool:
    """True iff w is a genuine logical operator of the stated weight.

    A pure-X bound is a bound on the logical-X weight, so with
    noise_kind=PURE_X the witness must also be X-type (no Z or Y part).
    """
    if w is None or w.n != code.n:
        return False
    if noise_kind == NoiseKind.PURE_X and w.ez.any():
        return False
    if not code.syndrome(w).is_zero():
        return False
    if code.in_stabilizer_group(w):
        return False
    if expected_weight is not None and pauli.weight(w) != expected_weight:
        return False
    return True


# The block sampler below reproduces, trial for trial, what
# sample_error(n, p, kind, trial_rng(seed, rate_idx, t)) draws, without
# building a Generator per trial.  It follows the algorithms behind those
# streams: numpy's SeedSequence pool hash (numpy/random/bit_generator.pyx),
# PCG64 seeding (O'Neill, "PCG", HMC-CS-2014-0905), Generator.random's
# 53-bit doubles and Generator.integers' bounded draws by Lemire's method
# (Lemire, ACM TOMS 2019).  SeedSequence words are uint32; the hash below
# runs on Python ints masked to 32 bits or on uint32 arrays, which wrap
# without a warning (numpy scalars would warn on overflow).
_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875  # pool mixing
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_SS_POOL = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_LEMIRE_3_ONE = -(-(1 << 32) // 3)
_LEMIRE_3_TWO = -(-(2 << 32) // 3)


def _uint32_words(x: int) -> list[int]:
    """SeedSequence's split of a non-negative int into uint32 words, low first."""
    words = [x & _M32]
    while x > _M32:
        x >>= 32
        words.append(x & _M32)
    return words


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
    # The spawn key makes SeedSequence pad the seed to a whole pool.
    seed_words = _uint32_words(master_seed)
    entropy = seed_words + [0] * (_SS_POOL - len(seed_words)) + _uint32_words(rate_idx)
    # Everything before the trial word is the same for the whole rate, and the
    # hash constants never depend on the data, so only the last entropy word
    # is hashed per trial, as a uint32 array.
    const = _SS_INIT_A
    pool = []
    for word in entropy[:_SS_POOL]:
        h, const = _hashmix(word, const, _SS_MULT_A)
        pool.append(h)
    for src in range(_SS_POOL):
        for dst in range(_SS_POOL):
            if src != dst:
                h, const = _hashmix(pool[src], const, _SS_MULT_A)
                pool[dst] = _mix(pool[dst], h)
    for word in entropy[_SS_POOL:] + [trials.astype(np.uint32)]:
        for dst in range(_SS_POOL):
            h, const = _hashmix(word, const, _SS_MULT_A)
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


def _sample_batch(code: StabilizerCode, p: float, kind: NoiseKind, seed: int, rate_idx: int, count: int):
    """Trials 0..count-1 of one rate, row t equal to
    sample_error(code.n, p, kind, trial_rng(seed, rate_idx, t))."""
    if not 0.0 < p < 1.0:
        raise ValueError("error rate must be in (0, 1)")
    if count > MAX_TRIALS_PER_RATE:
        raise ValueError("at most 2**32 trials per rate")
    n = code.n
    draws = n if kind == NoiseKind.PURE_X else n + (n + 1) // 2
    ex = np.empty((count, n), dtype=np.uint8)
    ez = np.empty((count, n), dtype=np.uint8)
    bitgen = np.random.PCG64(0)
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for a in range(0, count, _CHUNK_TRIALS):
        b = min(a + _CHUNK_TRIALS, count)
        raw = np.empty((b - a, draws), dtype=np.uint64)
        # Each trial's seeded state goes onto one reused PCG64.
        for row, (pcg["state"], pcg["inc"]) in zip(raw, _pcg64_seeds(seed, rate_idx, np.arange(a, b))):
            bitgen.state = state
            row[:] = bitgen.random_raw(draws)
        ex[a:b], ez[a:b], redraw = _errors_from_raw(raw, n, p, kind)
        for t in (a + np.flatnonzero(redraw)).tolist():
            e = sample_error(n, p, kind, trial_rng(seed, rate_idx, t))
            ex[t], ez[t] = e.ex, e.ez
    return ex, ez


def _decode_chunk(ctx: DecoderContext, S: np.ndarray, prior: ChannelPrior, cfg: BPConfig):
    """Decode a syndrome chunk: BP on every trial, then one batched OSD-0
    solve over the trials BP did not converge on.  Returns canonical
    (ex, ez) estimates and the convergence flags."""
    bits, post, conv, _ = bp_decode_batch(ctx, S, prior, cfg)
    failed = ~conv
    if failed.any():
        bits[failed] = osd_post_process(ctx, S[failed], post[failed])
    n = ctx.nbits // 3
    a, b, c = bits[:, :n], bits[:, n : 2 * n], bits[:, 2 * n :]
    return a ^ c, b ^ c, conv


# Trials per chunk.  Trials are independent, so the chunk size changes only
# speed: at 256 each of BP's float32 (edges + 1, trials) arrays is 0.6-6 MiB
# on the shipped codes, and larger chunks decoded no faster.  The sampler
# draws in blocks of the same size, so its scratch holds at most 256 trials.
_CHUNK_TRIALS = 256


def estimate_upper_bound(code: StabilizerCode, cfg: TrialConfig, threads: int = 1) -> DistanceReport:
    """Sweep rates, decode trials, and track the minimum logical weight.

    The running minimum starts at the code length; only logical residuals
    lower it, and in pure-X mode only X-type residuals (ez = 0) count.  The
    first witness attaining the final minimum is kept.  Each rate's trials
    are decoded in chunks on a pool of `threads` workers; the report does
    not depend on the thread count.
    """
    if threads < 1:
        raise ValueError("need at least one thread")
    ctx = DecoderContext.for_code(code)
    reducer = code.stabilizer_reducer()
    best = code.n
    witness: pauli.SymplecticPauli | None = None
    per_rate: list[RateStats] = []

    with ThreadPoolExecutor(max_workers=threads) as pool:
        # One worker decodes in the calling thread: a pool thread would get a
        # malloc arena of its own, which keeps about 5 MB more resident.
        decode_chunks = map if threads == 1 else pool.map
        for rate_idx, p in enumerate(cfg.rates):
            T = cfg.trials_per_rate
            ex, ez = _sample_batch(code, p, cfg.noise_kind, cfg.master_seed, rate_idx, T)
            S = code.syndromes(ex, ez)
            prior = ChannelPrior(p, cfg.noise_kind)
            chunks = [S[a : a + _CHUNK_TRIALS] for a in range(0, T, _CHUNK_TRIALS)]
            results = list(decode_chunks(lambda s: _decode_chunk(ctx, s, prior, cfg.decoder), chunks))
            est_x = np.vstack([r[0] for r in results])
            est_z = np.vstack([r[1] for r in results])

            rx = ex ^ est_x
            rz = ez ^ est_z
            weights = np.count_nonzero(rx | rz, axis=1)
            candidates = weights > 0
            if cfg.noise_kind == NoiseKind.PURE_X:
                candidates &= ~rz.any(axis=1)
            idx = np.nonzero(candidates)[0]
            logical_events = 0
            rate_min: int | None = None
            if idx.size:
                member = reducer.contains_batch(np.hstack([rx[idx], rz[idx]]))
                logical_idx = idx[~member]
                logical_events = int(logical_idx.size)
                for t in logical_idx:
                    w = int(weights[t])
                    rate_min = w if rate_min is None else min(rate_min, w)
                    if w < best:
                        best = w
                        witness = pauli.SymplecticPauli.from_arrays(rx[t], rz[t])
            per_rate.append(RateStats(p=p, trials=T, logical_events=logical_events, min_weight=rate_min))

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

    # Syndrome of each single-qubit Pauli as a python int (bit i = generator i).
    synd = []
    hx_cols = code.hx.T
    hz_cols = code.hz.T
    for q in range(n):
        sx = int.from_bytes(np.packbits(hz_cols[q], bitorder="little").tobytes(), "little")
        sz = int.from_bytes(np.packbits(hx_cols[q], bitorder="little").tobytes(), "little")
        synd.append((0, sx, sz, sx ^ sz))  # index by Pauli code 0=I,1=X,2=Z,3=Y

    reducer = code.stabilizer_reducer()

    def is_logical(support, paulis) -> bool:
        vec = np.zeros(2 * n, dtype=np.uint8)
        for q, pc in zip(support, paulis):
            if pc in (1, 3):
                vec[q] = 1
            if pc in (2, 3):
                vec[n + q] = 1
        return not reducer.contains_batch(vec[None, :])[0]

    found: list = []

    def rec(start: int, remaining: int, acc: int, support: list, paulis: list) -> bool:
        if remaining == 0:
            if acc == 0 and is_logical(support, paulis):
                found.append((list(support), list(paulis)))
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
            support, paulis = found[0]
            ex = np.zeros(n, dtype=np.uint8)
            ez = np.zeros(n, dtype=np.uint8)
            for q, pc in zip(support, paulis):
                ex[q] = 1 if pc in (1, 3) else 0
                ez[q] = 1 if pc in (2, 3) else 0
            return OracleResult(w_max, w, pauli.SymplecticPauli.from_arrays(ex, ez))
    return OracleResult(w_max, None, None)
