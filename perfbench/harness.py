"""Workloads, set-up timing, correctness gate and metrics of the benchmark.

Everything here drives qdist through its public API only:
`estimate_upper_bound` with a `TrialConfig` (library defaults otherwise, so
no thread count is passed) for the sweep workloads, and `decoder.decode` for
the single-syndrome workload.  The caller puts the checkout's `src` on
`sys.path` before importing this module.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import platform
import resource
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

import qdist
from qdist import codes, decoder, estimator, pauli
from qdist.decoder import BPConfig, ChannelPrior, DecoderContext
from qdist.estimator import NoiseKind, TrialConfig


# Share of --seconds spent on the fixed, seed-determined part of a run (the
# part the quality metric and the witnesses come from); the rest of the
# time keeps the same workload going for the timing metrics only.
FIXED_SHARE = 0.8
CALIB_REF_S = 0.030  # Interludes.calibrate at the reference speed
BP = BPConfig(max_iterations=30)  # the acceptance gate's BP budget, on every workload


@dataclass(frozen=True)
class Sweep:
    """Repeated fixed-size `estimate_upper_bound` calls on one code."""

    name: str
    family: str
    params: tuple[int, ...]
    rates: tuple[float, ...]
    noise: NoiseKind
    published_d: int
    trials_per_rate: int
    nominal_s: float  # one sweep call on a 2-core x86 box, numpy 2.4, no numba

    @property
    def trials_per_call(self) -> int:
        return self.trials_per_rate * len(self.rates)


@dataclass(frozen=True)
class DecodeLoop:
    """Closed loop with one caller: syndrome + `decoder.decode`, one at a time."""

    name: str
    family: str
    params: tuple[int, ...]
    rate: float
    published_d: int
    nominal_s: float  # one decode call on the same box


WORKLOADS = {
    w.name: w
    for w in (
        Sweep("surface7_depol", "surface", (7,), (0.08, 0.10, 0.12), NoiseKind.DEPOLARIZING,
              published_d=7, trials_per_rate=200, nominal_s=1.7),
        Sweep("chamon333_depol", "chamon", (3, 3, 3), (0.04, 0.06, 0.08, 0.10), NoiseKind.DEPOLARIZING,
              published_d=6, trials_per_rate=250, nominal_s=1.1),
        Sweep("ztgre7_pureX", "ztgre", (7,), (0.04, 0.06, 0.08, 0.10), NoiseKind.PURE_X,
              published_d=8, trials_per_rate=100, nominal_s=2.2),
        DecodeLoop("decode_one", "surface", (7,), rate=0.10, published_d=7, nominal_s=0.007),
    )
}


def fixed_calls(wl, seconds: float) -> int:
    """Calls in the fixed part of a run of the given length."""
    return max(1, int(FIXED_SHARE * seconds / wl.nominal_s))


def machine_facts() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "qdist": qdist.__version__,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


class Interludes:
    """Work done between the workload's calls, outside every timed call.

    Every `interval` seconds `tick` times one fresh set-up (build the code,
    its decoder context and its stabilizer reducer) and one run of a fixed
    calibration kernel that does not touch qdist.  The host's speed drifts by
    a quarter within seconds; the calibration times, interpolated to the
    moment of each measured call, scale that call to the speed at which the
    kernel takes CALIB_REF_S, which takes the drift out of the timings.
    """

    def __init__(self, wl, interval: float = 0.5):
        self.wl = wl
        self.interval = interval
        self.setups: list[tuple[float, tuple[float, float, float]]] = []  # (when, part seconds)
        self.calibrations: list[tuple[float, float]] = []  # (when, seconds)
        self._next = 0.0
        rng = np.random.default_rng(0)
        self._rows = rng.integers(0, 2**63, size=(84, 4), dtype=np.uint64)
        self._msgs = rng.random((200, 1000)).astype(np.float32)
        self._cols = rng.integers(0, 1000, size=3000)

    def setup(self, timed: bool = True):
        t0 = perf_counter()
        code = codes.make(self.wl.family, self.wl.params)
        t1 = perf_counter()
        DecoderContext.for_code(code)
        t2 = perf_counter()
        code.stabilizer_reducer()
        t3 = perf_counter()
        if timed:
            self.setups.append(((t0 + t3) / 2, (t1 - t0, t2 - t1, t3 - t2)))
        return code

    def calibrate(self) -> None:
        """Interpreter loop, row XORs on packed words and float32 message
        arithmetic: the mix of operations the decoder spends its time on."""
        t0 = perf_counter()
        acc = 0
        for i in range(30_000):
            acc += i * i
        for _ in range(60):
            rows = self._rows.copy()
            for r in range(0, rows.shape[0], 4):
                mask = ((rows[:, 1] >> np.uint64(r % 64)) & np.uint64(1)).astype(bool)
                rows[mask] ^= rows[r]
        for _ in range(6):
            t = np.tanh(0.5 * self._msgs)
            lg = np.log(np.abs(t) + 1e-7)
            np.add.reduceat(lg, np.arange(0, lg.shape[1], 8), axis=1)
            t[:, self._cols]
        t1 = perf_counter()
        self.calibrations.append(((t0 + t1) / 2, t1 - t0))

    def start(self, reps: int):
        """One untimed set-up and calibration to warm up, then `reps` of each."""
        code = self.setup(timed=False)
        self.calibrate()
        self.calibrations.clear()
        for _ in range(reps):
            code = self.setup()
            self.calibrate()
        self._next = perf_counter() + self.interval
        return code

    def tick(self) -> None:
        if perf_counter() >= self._next:
            self.setup()
            self.calibrate()
            self._next = perf_counter() + self.interval

    def slowdown(self, when) -> np.ndarray:
        """Host slowdown against the reference speed at the given moments."""
        t, d = zip(*self.calibrations)
        return np.interp(when, t, d) / CALIB_REF_S

    def corrected(self, seconds, when) -> np.ndarray:
        return np.asarray(seconds) / self.slowdown(when)

    def setup_s(self) -> float:
        when, parts = zip(*self.setups)
        return float(np.median(self.corrected([sum(p) for p in parts], when)))

    def setup_parts(self) -> dict[str, float]:
        parts = np.array([p for _, p in self.setups])
        return dict(zip(("codes.build_s", "decoder.context_s", "gf2.reducer_s"), np.median(parts, axis=0)))


def warm_up(wl, code, seed: int) -> None:
    """A few untimed calls down the workload's path, so first-call costs in
    numpy are not timed."""
    if isinstance(wl, Sweep):
        run_sweeps(replace(wl, trials_per_rate=8), code, seed, 1)
    else:
        run_decodes(wl, code, seed, 8)


# ---------------------------------------------------------------------------
# Sweep workloads
# ---------------------------------------------------------------------------


@dataclass
class SweepCall:
    master_seed: int
    started: float
    seconds: float
    report: estimator.DistanceReport

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.report.to_json().encode()).hexdigest()


def witness_ok(code, report, noise: NoiseKind) -> bool:
    """The sweep's bound is certified: its witness verifies at the stated
    weight and, for pure-X noise, is X-type."""
    if not estimator.verify_witness(code, report.witness, report.upper_bound):
        return False
    return noise != NoiseKind.PURE_X or not report.witness.ez.any()


def run_sweeps(wl: Sweep, code, seed: int, count: int, deadline: float | None = None,
               between=None) -> list[SweepCall]:
    """`count` sweeps, then more until `deadline` (perf_counter) if given;
    `between()` runs untimed before each sweep.

    Sweep i uses master seed seed * 10_000 + i, so a run's inputs depend only
    on --seed.
    """
    calls = []
    while len(calls) < count or (deadline is not None and perf_counter() < deadline):
        if between is not None:
            between()
        cfg = TrialConfig(
            rates=wl.rates,
            trials_per_rate=wl.trials_per_rate,
            master_seed=seed * 10_000 + len(calls),
            noise_kind=wl.noise,
            decoder=BP,
        )
        t0 = perf_counter()
        report = qdist.estimate_upper_bound(code, cfg)
        calls.append(SweepCall(cfg.master_seed, t0, perf_counter() - t0, report))
    return calls


def sweep_logical_frac(calls: list[SweepCall]) -> float:
    events = sum(r.logical_events for c in calls for r in c.report.per_rate)
    trials = sum(r.trials for c in calls for r in c.report.per_rate)
    return events / trials


# ---------------------------------------------------------------------------
# Single-syndrome workload
# ---------------------------------------------------------------------------


@dataclass
class DecodeRun:
    errors: list
    estimates: list
    starts: list[float]
    latencies: list[float]
    logical: np.ndarray  # per decode: residual is a nontrivial logical operator
    seconds: float  # wall time of the loop, less `between`, and of classifying residuals

    def digest(self, count: int) -> str:
        h = hashlib.sha256()
        for est in self.estimates[:count]:
            h.update(est.ex.tobytes())
            h.update(est.ez.tobytes())
        return h.hexdigest()

    def failures(self, code) -> int:
        """Decodes whose estimate does not reproduce the input syndrome."""
        return sum(code.syndrome(est) != code.syndrome(e) for e, est in zip(self.errors, self.estimates))


def run_decodes(wl: DecodeLoop, code, seed: int, count: int, deadline: float | None = None,
                between=None) -> DecodeRun:
    """Decode trial i's error, drawn with trial_rng(seed, 0, i), one call at a
    time; the latency of a call covers code.syndrome and decoder.decode.
    `between()` runs before each call, and its time is left out of `seconds`."""
    prior = ChannelPrior(wl.rate)
    errors, estimates, starts, latencies = [], [], [], []
    t_start = perf_counter()
    idle = 0.0
    while len(errors) < count or (deadline is not None and perf_counter() < deadline):
        if between is not None:
            b0 = perf_counter()
            between()
            idle += perf_counter() - b0
        rng = estimator.trial_rng(seed, 0, len(errors))
        e = estimator.sample_error(code.n, wl.rate, NoiseKind.DEPOLARIZING, rng)
        t0 = perf_counter()
        out = decoder.decode(code, code.syndrome(e), prior, BP)
        latencies.append(perf_counter() - t0)
        starts.append(t0)
        errors.append(e)
        estimates.append(out.estimate)
    rx = np.array([e.ex ^ est.ex for e, est in zip(errors, estimates)])
    rz = np.array([e.ez ^ est.ez for e, est in zip(errors, estimates)])
    nonzero = (rx | rz).any(axis=1)
    logical = np.zeros(len(errors), dtype=bool)
    if nonzero.any():
        logical[nonzero] = ~code.stabilizer_reducer().contains_batch(np.hstack([rx[nonzero], rz[nonzero]]))
    return DecodeRun(errors, estimates, starts, latencies, logical, perf_counter() - t_start - idle)


def decode_bound(run: DecodeRun, count: int) -> int | None:
    """Lowest logical-residual weight among the first `count` decodes."""
    weights = [pauli.weight(pauli.mul(e, est))
               for e, est, lg in zip(run.errors[:count], run.estimates[:count], run.logical[:count]) if lg]
    return min(weights, default=None)
