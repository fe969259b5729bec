"""Monte Carlo estimator tests: sampling statistics, residual classification,
witness verification, reproducibility and the brute-force oracle."""

import dataclasses
import itertools
import os
import signal
import subprocess
import sys
import tracemalloc
import warnings
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest

from qdist import codes, decoder, estimator, pauli
from qdist.decoder import BPConfig, ChannelPrior, DecoderContext
from qdist.estimator import NoiseKind, TrialConfig

# Worker counts the sweep tests run at: never more than this machine's CPUs.
WORKER_COUNTS = [w for w in (1, 2, 3) if w <= (os.cpu_count() or 1)]
needs_two_cpus = pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a worker process needs a second CPU")


def test_trial_config_validation():
    with pytest.raises(ValueError):
        TrialConfig(rates=())
    with pytest.raises(ValueError):
        TrialConfig(rates=(0.0,))
    with pytest.raises(ValueError):
        TrialConfig(rates=(1.2,))
    with pytest.raises(ValueError):
        TrialConfig(trials_per_rate=0)
    # Counts and seeds are integers: a bool would be reported as one, and a
    # float would fail mid-sweep.
    for bad in ({"trials_per_rate": True}, {"trials_per_rate": 10.5}, {"master_seed": 1.5}):
        with pytest.raises(ValueError, match="integer"):
            TrialConfig(**bad)
    assert type(TrialConfig(trials_per_rate=np.int64(7)).trials_per_rate) is int
    # The sampler cannot tell trials apart past 2**32; fail before any work.
    with pytest.raises(ValueError, match="2\\*\\*32"):
        TrialConfig(trials_per_rate=2**32 + 1)
    assert TrialConfig(trials_per_rate=2**32).trials_per_rate == 2**32
    with pytest.raises(ValueError, match="seed"):
        TrialConfig(master_seed=-1)  # numpy's SeedSequence would reject it mid-sweep
    assert TrialConfig(master_seed=0).master_seed == 0
    # An unknown noise kind fails here, not after a whole rate has been sampled.
    with pytest.raises(ValueError):
        TrialConfig(noise_kind="bogus")
    assert TrialConfig(noise_kind="pureX").noise_kind is NoiseKind.PURE_X
    # Rates are stored as a tuple of Python floats, so a report of them is
    # JSON; a bool or a non-number is not a rate.
    cfg = TrialConfig(rates=[np.float32(0.1), 0.2])
    assert cfg.rates == (float(np.float32(0.1)), 0.2) and all(type(p) is float for p in cfg.rates)
    assert '"p": 0.10000000149011612' in estimator.estimate_upper_bound(
        codes.planar_surface(2), TrialConfig(rates=(np.float32(0.1),), trials_per_rate=5), workers=1).to_json()
    for bad in ((True,), ("0.1",), (0.1, None)):
        with pytest.raises(ValueError, match="real"):
            TrialConfig(rates=bad)
    # The decoder setting is a BPConfig: anything else fails here, not partway
    # through a sweep.
    for bad in (None, {"max_iterations": 5}, 30):
        with pytest.raises(ValueError, match="BPConfig"):
            TrialConfig(decoder=bad)
    assert TrialConfig(decoder=BPConfig(max_iterations=5)).decoder == BPConfig(max_iterations=5)


def test_sample_error_depolarizing_statistics():
    # p=0.3 over many draws: X, Z and Y each hit with frequency 0.1.
    rng = np.random.default_rng(1)
    n, reps = 2000, 500
    counts = np.zeros(3)
    for _ in range(reps):
        e = estimator.sample_error(n, 0.3, NoiseKind.DEPOLARIZING, rng)
        y = e.ex & e.ez
        counts += [np.sum(e.ex & ~y), np.sum(e.ez & ~y), np.sum(y)]
    freqs = counts / (n * reps)
    sigma = np.sqrt(0.1 * 0.9 / (n * reps))
    assert np.all(np.abs(freqs - 0.1) < 5 * sigma)


def test_sample_error_pure_x_never_sets_z():
    rng = np.random.default_rng(2)
    for _ in range(50):
        e = estimator.sample_error(64, 0.4, NoiseKind.PURE_X, rng)
        assert not e.ez.any()
    with pytest.raises(ValueError):
        estimator.sample_error(4, 0.0, NoiseKind.PURE_X, rng)


def _sample_error_reference(n, p, kind, rng):
    """The sampler's original formula, kept as the reference for its bits."""
    if kind == NoiseKind.PURE_X:
        ex = (rng.random(n) < p).astype(np.uint8)
        return pauli.SymplecticPauli.from_arrays(ex, np.zeros(n, dtype=np.uint8))
    hit = rng.random(n) < p
    which = rng.integers(0, 3, size=n)
    ex = (hit & ((which == 0) | (which == 2))).astype(np.uint8)
    ez = (hit & ((which == 1) | (which == 2))).astype(np.uint8)
    return pauli.SymplecticPauli.from_arrays(ex, ez)


@pytest.mark.parametrize("kind", list(NoiseKind))
def test_sample_error_matches_reference_formula(kind):
    for seed in range(300):
        n, p = 20 + seed % 90, (0.02, 0.1, 0.3, 0.7)[seed % 4]
        got = estimator.sample_error(n, p, kind, estimator.trial_rng(seed, 1, 2))
        want = _sample_error_reference(n, p, kind, estimator.trial_rng(seed, 1, 2))
        assert got.n == n
        assert got.ex.dtype == got.ez.dtype == np.uint8
        assert np.array_equal(got.ex, want.ex) and np.array_equal(got.ez, want.ez)


def test_sample_error_low_rate_limit():
    rng = np.random.default_rng(3)
    total = sum(
        pauli.weight(estimator.sample_error(100, 1e-4, NoiseKind.DEPOLARIZING, rng))
        for _ in range(100)
    )
    assert total <= 10  # expectation is 1 hit over all draws


def test_classify_residual_trichotomy():
    code = codes.planar_surface(3)
    logical, z_logical = codes.logical_basis(code)
    one_x = pauli.from_string("X" + "I" * (code.n - 1))
    generator = pauli.SymplecticPauli.from_arrays(code.hx[0], code.hz[0])
    rows = [pauli.SymplecticPauli.identity(code.n), generator, logical, one_x]
    ex = np.array([r.ex for r in rows])
    ez = np.array([r.ez for r in rows])
    assert estimator.logical_mask(code, ex, ez).tolist() == [False, False, True, False]
    # A logical with a Z part (here Y_L) counts under depolarizing noise, not
    # under pure-X; the X-type logical counts under both.
    y_logical = pauli.mul(logical, z_logical)
    assert not logical.ez.any() and y_logical.ez.any()
    ex = np.array([y_logical.ex, logical.ex])
    ez = np.array([y_logical.ez, logical.ez])
    assert estimator.logical_mask(code, ex, ez, NoiseKind.DEPOLARIZING).tolist() == [True, True]
    assert estimator.logical_mask(code, ex, ez, NoiseKind.PURE_X).tolist() == [False, True]


def test_verify_witness():
    code = codes.planar_surface(2)
    logical = codes.logical_basis(code)[0]
    w = pauli.weight(logical)
    assert estimator.verify_witness(code, logical, w)
    assert not estimator.verify_witness(code, logical, w + 1)
    assert not estimator.verify_witness(code, None)
    assert not estimator.verify_witness(code, pauli.SymplecticPauli.from_arrays(code.hx[0], code.hz[0]))
    assert not estimator.verify_witness(code, pauli.from_string("X" + "I" * (code.n - 1)))
    assert not estimator.verify_witness(code, pauli.SymplecticPauli.identity(3))


def test_verify_witness_pure_x_requires_x_type():
    # On a Z-only code, X_L with a Z added on one of its qubits is still a
    # logical of the same weight, but its Y component makes it no witness
    # for the minimum logical-X weight a pure-X sweep bounds.
    code = codes.ztgre(3)
    x_logical = codes.logical_basis(code)[0]
    assert not x_logical.ez.any()
    ez = np.zeros(code.n, dtype=np.uint8)
    ez[np.flatnonzero(x_logical.ex)[0]] = 1
    with_y = pauli.SymplecticPauli.from_arrays(x_logical.ex, ez)
    w = pauli.weight(with_y)
    assert w == pauli.weight(x_logical)
    assert estimator.verify_witness(code, with_y, w)
    assert estimator.verify_witness(code, with_y, w, NoiseKind.DEPOLARIZING)
    assert not estimator.verify_witness(code, with_y, w, NoiseKind.PURE_X)
    assert estimator.verify_witness(code, x_logical, w, NoiseKind.PURE_X)


def test_trial_rng_streams_are_independent_and_stable():
    a = estimator.trial_rng(42, 0, 0).random(4)
    b = estimator.trial_rng(42, 0, 0).random(4)
    c = estimator.trial_rng(42, 0, 1).random(4)
    d = estimator.trial_rng(42, 1, 0).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


# Master seeds of one, two, three, four and five uint32 words.  SeedSequence
# pads a seed of fewer than four words (its pool) with zeros, four fill the
# pool exactly, and each word past four is mixed into the whole pool.
_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**96 + 7, 2**128 - 1, 2**130 + 1)


@lru_cache(maxsize=None)
def _fresh_states(seed, rate_idx, count):
    """Bit-generator state of each fresh trial_rng(seed, rate_idx, t)."""
    return tuple(estimator.trial_rng(seed, rate_idx, t).bit_generator.state for t in range(count))


def _per_trial_stack(n, p, kind, seed, rate_idx, count):
    """Rows sample_error(n, p, kind, trial_rng(seed, rate_idx, t)) for t < count.
    A Generator's whole state is its bit generator's, so restoring a fresh
    trial_rng's state draws what the fresh generator would."""
    rng = np.random.default_rng()
    rows = []
    for state in _fresh_states(seed, rate_idx, count):
        rng.bit_generator.state = state
        rows.append(estimator.sample_error(n, p, kind, rng))
    return np.array([e.ex for e in rows]), np.array([e.ez for e in rows])


def test_restored_trial_state_draws_the_fresh_stream():
    for kind, seed in itertools.product(NoiseKind, _SEEDS):
        want = [estimator.sample_error(9, 0.4, kind, estimator.trial_rng(seed, 5, t)) for t in range(3)]
        ex, ez = _per_trial_stack(9, 0.4, kind, seed, 5, 3)
        assert np.array_equal(ex, [e.ex for e in want]) and np.array_equal(ez, [e.ez for e in want])


@pytest.mark.parametrize("kind", list(NoiseKind))
@pytest.mark.parametrize("n", [1, 2, 7, 85, 108, 128])
def test_sample_batch_equals_per_trial_streams(kind, n):
    # Ranges around the 256-trial chunk edge, from trial 0 and from mid-stream;
    # each range's rows are a slice of the 600-trial reference.
    code = SimpleNamespace(n=n)
    for seed, rate_idx, p in itertools.product(_SEEDS, (0, 5), (1e-4, 0.1, 0.5, 0.999)):
        want_x, want_z = _per_trial_stack(n, p, kind, seed, rate_idx, 600)
        for start, stop in ((0, 1), (0, 255), (0, 256), (0, 257), (0, 600), (255, 257), (256, 600)):
            ex, ez = estimator._sample_batch(code, p, kind, seed, rate_idx, start, stop)
            assert ex.dtype == ez.dtype == np.uint8
            assert np.array_equal(ex, want_x[start:stop]), (seed, rate_idx, p, start, stop)
            assert np.array_equal(ez, want_z[start:stop]), (seed, rate_idx, p, start, stop)


def test_errors_from_raw_flags_lemire_rejections():
    # Depolarizing draws read n doubles, then n uint32 halves, low half first.
    # Only a zero half among those n is a rejection; for odd n the last
    # word's high half is never read.
    n = 5
    raw = np.full((4, n + 3), 0x0123456789ABCDEF, dtype=np.uint64)
    raw[1, n] = 0x0123456700000000  # half 0
    raw[2, n + 2] = 0x0123456700000000  # half 4, the last one read
    raw[3, n + 2] = 0x0000000089ABCDEF  # half 5, unread
    _, _, redraw = estimator._errors_from_raw(raw, n, 0.5, NoiseKind.DEPOLARIZING)
    assert redraw.tolist() == [False, True, True, False]
    _, _, redraw = estimator._errors_from_raw(raw[:, :n], n, 0.5, NoiseKind.PURE_X)
    assert not redraw.any()


def test_sample_batch_redraws_rejected_trials_exactly(monkeypatch):
    n, p, seed, count = 7, 0.3, 11, 300
    kind = NoiseKind.DEPOLARIZING
    real_from_raw = estimator._errors_from_raw
    real_trial_rng = estimator.trial_rng
    redrawn = []

    def zero_one_draw(raw, *args):
        raw[3, n + 1] &= np.uint64(0xFFFFFFFF00000000)  # trial 256 + 3 reads a zero half
        return real_from_raw(raw, *args)

    def recording_trial_rng(s, r, t):
        redrawn.append(t)
        return real_trial_rng(s, r, t)

    monkeypatch.setattr(estimator, "_errors_from_raw", zero_one_draw)
    monkeypatch.setattr(estimator, "trial_rng", recording_trial_rng)
    ex, ez = estimator._sample_batch(SimpleNamespace(n=n), p, kind, seed, 2, 256, count)
    assert redrawn == [259]
    want_x, want_z = _per_trial_stack(n, p, kind, seed, 2, count)
    assert np.array_equal(ex, want_x[256:]) and np.array_equal(ez, want_z[256:])


@pytest.mark.parametrize("kind", list(NoiseKind))
def test_sample_batch_draws_in_pieces(monkeypatch, kind):
    # A 1,024-trial chamon(5,5,5)-sized segment (n = 500): the rows equal one
    # block's, and the peak holds the rows, one 256-trial piece of raw words
    # and that piece's temporaries (under another piece's words), where one
    # block of raw words alone would be 4 pieces'.
    code = SimpleNamespace(n=500)
    draws = 500 if kind == NoiseKind.PURE_X else 750
    with monkeypatch.context() as m:
        m.setattr(estimator, "_SAMPLE_PIECE", 1024)
        want_x, want_z = estimator._sample_batch(code, 0.08, kind, 11, 1, 512, 1536)
    tracemalloc.start()
    try:
        ex, ez = estimator._sample_batch(code, 0.08, kind, 11, 1, 512, 1536)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(ex, want_x) and np.array_equal(ez, want_z)
    piece = estimator._SAMPLE_PIECE * draws * 8
    assert estimator._SAMPLE_PIECE == 256 and peak < ex.nbytes + ez.nbytes + 2 * piece


def test_sample_batch_emits_no_warning():
    # CI turns RuntimeWarning into an error: the uint32 hash must wrap in
    # arrays or masked Python ints, never in numpy scalars.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind, seed in itertools.product(NoiseKind, _SEEDS):
            estimator._sample_batch(SimpleNamespace(n=3), 0.2, kind, seed, 7, 0, 260)


def test_sample_batch_rejects_bad_inputs():
    code = SimpleNamespace(n=4)
    for p in (0.0, 1.0):
        with pytest.raises(ValueError):
            estimator._sample_batch(code, p, NoiseKind.DEPOLARIZING, 0, 0, 0, 10)
    with pytest.raises(ValueError, match="2\\*\\*32"):
        estimator._sample_batch(code, 0.1, NoiseKind.DEPOLARIZING, 0, 0, 0, 2**32 + 1)


def test_estimate_bound_small_surface():
    code = codes.planar_surface(2)
    cfg = TrialConfig(rates=(0.05, 0.1), trials_per_rate=400, master_seed=7,
                      decoder=BPConfig(max_iterations=20))
    rep = estimator.estimate_upper_bound(code, cfg)
    assert rep.upper_bound == 2
    assert estimator.verify_witness(code, rep.witness, rep.upper_bound)
    assert [r.p for r in rep.per_rate] == [0.05, 0.1]
    assert all(r.trials == 400 for r in rep.per_rate)


def test_estimate_reports_are_reproducible():
    code = codes.toric(2)
    cfg = TrialConfig(rates=(0.08, 0.12), trials_per_rate=300, master_seed=99,
                      decoder=BPConfig(max_iterations=15))
    r1 = estimator.estimate_upper_bound(code, cfg)
    r2 = estimator.estimate_upper_bound(code, cfg)
    assert r1.to_json() == r2.to_json()


def _assert_independent_of_worker_count(monkeypatch, code, cfg):
    chunk_sizes = []
    real = estimator._decode_chunk

    def counted(ctx, S, priors, which, bp_cfg):
        chunk_sizes.append(S.shape[0])
        return real(ctx, S, priors, which, bp_cfg)

    # A patch does not reach a worker process, so the counted sweeps run on
    # one worker: default chunks take the 600 trials as one chunk, and
    # 256-trial chunks run as 256 + 256 + 88.
    monkeypatch.setattr(estimator, "_decode_chunk", counted)
    whole = estimator.estimate_upper_bound(code, cfg, workers=1).to_json()
    monkeypatch.setattr(estimator, "_CHUNK_TRIALS", 256)
    r1 = estimator.estimate_upper_bound(code, cfg, workers=1).to_json()
    assert chunk_sizes == [600, 256, 256, 88]
    # On several workers, with shares of any size, each worker process takes
    # a share (this process the first), cut by the caller into 256-trial
    # chunks.
    monkeypatch.setattr(estimator, "_decode_chunk", real)
    monkeypatch.setattr(estimator, "_SHARE_MIN_WORK", 1)
    for workers in WORKER_COUNTS:
        assert estimator.estimate_upper_bound(code, cfg, workers=workers).to_json() == r1 == whole, workers
        assert len(estimator._POOL) >= workers - 1


def test_estimate_independent_of_worker_count(monkeypatch):
    cfg = TrialConfig(rates=(0.1,), trials_per_rate=600, master_seed=5,
                      decoder=BPConfig(max_iterations=15))
    _assert_independent_of_worker_count(monkeypatch, codes.planar_surface(2), cfg)


def test_estimate_pure_x_independent_of_worker_count(monkeypatch):
    cfg = TrialConfig(rates=(0.08,), trials_per_rate=600, master_seed=5, noise_kind=NoiseKind.PURE_X,
                      decoder=BPConfig(max_iterations=15))
    _assert_independent_of_worker_count(monkeypatch, codes.ztgre(4), cfg)


def test_sweep_builds_first_messages_once_per_rate(monkeypatch):
    # BP's first-iteration table is memoised on the code's decoder context
    # per prior: a 3-rate sweep leaves 3 tables, and report bytes do not
    # depend on whether a sweep starts on an empty memo or a full one, in
    # this process or in a worker process that has not seen the code yet.
    rates = (0.06, 0.09, 0.12)
    cfg = TrialConfig(rates=rates, trials_per_rate=600, master_seed=5, decoder=BPConfig(max_iterations=15))
    code = codes.planar_surface(3)
    cold = estimator.estimate_upper_bound(code, cfg, workers=1).to_json()
    memo = DecoderContext.for_code(code)._first_messages
    assert set(memo) == {ChannelPrior(p) for p in rates}
    tables = dict(memo)
    with monkeypatch.context() as m:
        m.setattr(estimator, "_SHARE_MIN_WORK", 1)
        for workers in WORKER_COUNTS:
            assert cold == estimator.estimate_upper_bound(code, cfg, workers=workers).to_json()
            assert cold == estimator.estimate_upper_bound(codes.planar_surface(3), cfg, workers=workers).to_json()
    _assert_independent_of_worker_count(monkeypatch, code, dataclasses.replace(cfg, rates=(0.09,)))
    assert memo.keys() == tables.keys() and all(memo[key] is tables[key] for key in tables)


@pytest.mark.parametrize(
    "code, kind",
    [(codes.planar_surface(3), NoiseKind.DEPOLARIZING), (codes.ztgre(4), NoiseKind.PURE_X)],
    ids=["surface_3", "ztgre_4_pureX"],
)
def test_sweep_matches_per_trial_loop(monkeypatch, code, kind):
    # The reference draws, decodes and classifies one trial at a time.  With
    # 128-trial chunks, trials at the final minimum weight fall in several
    # chunks and both rates, so the witness must come from the first of them.
    # Chunk 2 holds trials 256-299 of the first rate and 0-83 of the second.
    monkeypatch.setattr(estimator, "_CHUNK_TRIALS", 128)
    cfg = TrialConfig(rates=(0.08, 0.12), trials_per_rate=300, master_seed=3, noise_kind=kind,
                      decoder=BPConfig(max_iterations=20))
    assert estimator._shares(cfg, 1)[0][2] == [(0, 256, 300), (1, 0, 84)]
    rep = estimator.estimate_upper_bound(code, cfg, workers=1)
    best, witness, at_weight = code.n, None, {}
    for rate_idx, (p, stats) in enumerate(zip(cfg.rates, rep.per_rate)):
        weights = []
        for t in range(cfg.trials_per_rate):
            e = estimator.sample_error(code.n, p, kind, estimator.trial_rng(cfg.master_seed, rate_idx, t))
            est = decoder.decode(code, code.syndrome(e), ChannelPrior(p, kind), cfg.decoder).estimate
            r = pauli.mul(e, est)
            if pauli.weight(r) and estimator.logical_mask(code, r.ex[None, :], r.ez[None, :], kind)[0]:
                weights.append(pauli.weight(r))
                at_weight.setdefault(weights[-1], []).append((rate_idx, (rate_idx * cfg.trials_per_rate + t) // 128, r))
                if weights[-1] < best:
                    best, witness = weights[-1], r
        assert (stats.logical_events, stats.min_weight) == (len(weights), min(weights, default=None))
    assert rep.upper_bound == best
    assert rep.witness == witness
    ties = at_weight[best]
    assert len({(rate_idx, chunk) for rate_idx, chunk, _ in ties}) > 2 and len({t[0] for t in ties}) == 2
    # The first tie in the witness rate's last tied chunk is another operator,
    # so a reduction that let a later chunk's tie win would report it.
    firsts = {}
    for rate_idx, chunk, r in ties:
        if rate_idx == ties[0][0]:
            firsts.setdefault(chunk, r)
    assert list(firsts.values())[-1] != witness


@pytest.mark.parametrize(
    "code, kind",
    [(codes.planar_surface(3), NoiseKind.DEPOLARIZING), (codes.ztgre(4), NoiseKind.PURE_X)],
    ids=["surface_3", "ztgre_4_pureX"],
)
def test_sweep_bytes_do_not_depend_on_chunks_or_threads(monkeypatch, code, kind):
    # 3 x 150 trials: chunks of 7 and 128 straddle both rate boundaries, the
    # default chunk takes the whole sweep on one worker and a worker's share
    # (225 or 150 trials) on two or three, and chunks of 1 decode one trial
    # each.  The caller cuts the chunks, so the patched size holds in every
    # worker process.
    cfg = TrialConfig(rates=(0.06, 0.1, 0.14), trials_per_rate=150, master_seed=8, noise_kind=kind,
                      decoder=BPConfig(max_iterations=15))
    want = estimator.estimate_upper_bound(code, cfg, workers=1).to_json()
    default = estimator._CHUNK_TRIALS
    monkeypatch.setattr(estimator, "_SHARE_MIN_WORK", 1)
    for chunk in (1, 7, 128, default):
        monkeypatch.setattr(estimator, "_CHUNK_TRIALS", chunk)
        for workers in WORKER_COUNTS:
            shares = estimator._shares(cfg, workers)
            assert len(shares) == workers
            per_rate = [[t for share in shares for segments in share for rate_idx, start, stop in segments
                         if rate_idx == r for t in range(start, stop)] for r in range(3)]
            assert per_rate == [list(range(150))] * 3  # each rate in trial order across the shares
            for share in shares:
                sizes = [sum(stop - start for _, start, stop in segments) for segments in share]
                assert set(sizes[:-1]) <= {chunk} and 0 < sizes[-1] <= chunk
                if chunk == default:
                    assert len(share) == 1  # a share of at most 450 trials is one chunk
            if chunk in (7, 128) and workers == 1:
                assert sum(len({rate_idx for rate_idx, _, _ in segments}) > 1 for segments in shares[0]) == 2
            assert estimator.estimate_upper_bound(code, cfg, workers=workers).to_json() == want, (chunk, workers)


def test_shares_hold_an_equal_slice_of_every_rate():
    # Low rates decode faster than high ones, so a share is a slice of every
    # rate, not a contiguous run of the sweep; no chunk exceeds 1,024 trials.
    for trials, count in itertools.product((1, 2, 7, 150, 3001), (1, 2, 3, 5)):
        if count > trials:
            continue  # _share_count never cuts more shares than a rate has trials
        cfg = TrialConfig(rates=(0.02, 0.06, 0.1, 0.14), trials_per_rate=trials)
        shares = estimator._shares(cfg, count)
        assert len(shares) == count
        for share in shares:
            held = [0] * 4
            for segments in share:
                assert sum(stop - start for _, start, stop in segments) <= estimator._CHUNK_TRIALS == 1024
                for rate_idx, start, stop in segments:
                    held[rate_idx] += stop - start
            assert set(held) <= {trials // count, -(-trials // count)}, (trials, count)
        segments = [seg for share in shares for chunk in share for seg in chunk]
        assert len(segments) == len(set(segments))
        assert sum(stop - start for _, start, stop in segments) == 4 * trials


def test_share_count_follows_the_work():
    ctx = SimpleNamespace(num_edges=100)
    minimum = estimator._SHARE_MIN_WORK
    cfg = TrialConfig(rates=(0.1, 0.2), trials_per_rate=minimum // 100)  # two shares' work
    assert estimator._share_count(cfg, ctx, 1) == 1
    assert estimator._share_count(cfg, ctx, 8) == 2
    assert estimator._share_count(dataclasses.replace(cfg, trials_per_rate=minimum // 200 - 1), ctx, 8) == 1
    # Never more shares than a rate has trials.
    assert estimator._share_count(TrialConfig(rates=(0.1,), trials_per_rate=3), SimpleNamespace(num_edges=10**9), 8) == 3


def test_short_sweeps_start_no_process(monkeypatch):
    def no_worker():
        raise AssertionError("a short sweep started a worker process")

    estimator._stop(estimator._POOL)
    monkeypatch.setattr(estimator, "_Worker", no_worker)
    code = codes.planar_surface(3)
    cfg = TrialConfig(rates=(0.1, 0.12), trials_per_rate=300, master_seed=2, decoder=BPConfig(max_iterations=15))
    assert estimator._share_count(cfg, DecoderContext.for_code(code), 64) == 1
    estimator.estimate_upper_bound(code, cfg, workers=64)
    assert estimator._POOL == []


def _guard_sweeps():
    """A sweep that shares its trials with one worker process, a second
    sweep with other seeds, and the second's one-worker bytes."""
    code = codes.planar_surface(3)
    first = TrialConfig(rates=(0.06, 0.1), trials_per_rate=500, master_seed=4, decoder=BPConfig(max_iterations=15))
    second = dataclasses.replace(first, master_seed=5)
    return code, first, second, estimator.estimate_upper_bound(code, second, workers=1).to_json()


@needs_two_cpus
@pytest.mark.parametrize("error", [ZeroDivisionError, KeyboardInterrupt])
def test_a_failed_sweep_stops_its_workers(monkeypatch, error):
    # Without the guard, the worker would finish the failed sweep's share and
    # the next sweep would read that result as its own: other bytes, no error.
    code, first, second, want = _guard_sweeps()
    monkeypatch.setattr(estimator, "_SHARE_MIN_WORK", 1)
    estimator.estimate_upper_bound(code, first, workers=2)
    held = estimator._POOL[0].process
    real = estimator._run_chunk

    def fail(*args):
        raise error

    monkeypatch.setattr(estimator, "_run_chunk", fail)  # this process's share fails, the worker's runs on
    with pytest.raises(error):
        estimator.estimate_upper_bound(code, first, workers=2)
    assert held.returncode is not None  # terminated and reaped
    monkeypatch.setattr(estimator, "_run_chunk", real)
    assert estimator.estimate_upper_bound(code, second, workers=2).to_json() == want
    assert held not in [w.process for w in estimator._POOL]


@needs_two_cpus
def test_a_worker_killed_mid_sweep_fails_the_sweep(monkeypatch):
    code, first, second, want = _guard_sweeps()
    monkeypatch.setattr(estimator, "_SHARE_MIN_WORK", 1)
    estimator.estimate_upper_bound(code, first, workers=2)
    victim = estimator._POOL[0].process
    real = estimator._run_chunk

    def kill_then_run(*args):
        if victim.poll() is None:
            os.kill(victim.pid, signal.SIGKILL)  # the worker holds its share of this sweep
            victim.wait(timeout=10)
        return real(*args)

    monkeypatch.setattr(estimator, "_run_chunk", kill_then_run)
    with pytest.raises(RuntimeError, match=f"sweep worker {victim.pid} died mid-sweep"):
        estimator.estimate_upper_bound(code, first, workers=2)
    monkeypatch.setattr(estimator, "_run_chunk", real)
    assert estimator.estimate_upper_bound(code, second, workers=2).to_json() == want
    assert victim not in [w.process for w in estimator._POOL]


class _WarnsWhenUnpickled(int):
    """An int that raises a RuntimeWarning in the process that unpickles it."""

    def __reduce__(self):
        return eval, (f"__import__('warnings').warn('raised in a worker', RuntimeWarning) or {int(self)}",)


@needs_two_cpus
def test_a_warning_in_a_worker_meets_the_callers_filters(monkeypatch):
    # A worker's own filters would only print it; the caller re-issues it,
    # so an error filter (pytest -W error::RuntimeWarning) fails the sweep.
    code, first, _, _ = _guard_sweeps()
    monkeypatch.setattr(estimator, "_SHARE_MIN_WORK", 1)
    want = estimator.estimate_upper_bound(code, first, workers=1).to_json()
    plan = estimator._shares

    def warning_shares(cfg, count):
        shares = plan(cfg, count)
        (rate_idx, start, stop), *rest = shares[1][0]
        shares[1][0] = [(rate_idx, _WarnsWhenUnpickled(start), stop), *rest]
        return shares

    monkeypatch.setattr(estimator, "_shares", warning_shares)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="raised in a worker"):
            estimator.estimate_upper_bound(code, first, workers=2)
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("default")
        for _ in range(2):
            assert estimator.estimate_upper_bound(code, first, workers=2).to_json() == want
    assert [str(w.message) for w in log] == ["raised in a worker"]  # "default": once per location


@needs_two_cpus
@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="looks processes up under /proc")
def test_workers_exit_with_their_caller():
    # The caller makes no shutdown call: its exit stops the worker.
    script = (
        "from qdist import codes, estimator\n"
        "from qdist.decoder import BPConfig\n"
        "estimator._SHARE_MIN_WORK = 1\n"
        "cfg = estimator.TrialConfig(rates=(0.1,), trials_per_rate=50, decoder=BPConfig(max_iterations=5))\n"
        "estimator.estimate_upper_bound(codes.planar_surface(3), cfg, workers=2)\n"
        "print(*[w.process.pid for w in estimator._POOL])\n"
    )
    src = os.path.dirname(os.path.dirname(estimator.__file__))
    run = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    pids = [int(pid) for pid in run.stdout.split()]
    assert len(pids) == 1
    assert not [pid for pid in pids if os.path.exists(f"/proc/{pid}")]


def test_worker_modules_load_only_with_a_worker():
    # A process that decodes but never starts a sweep worker imports neither
    # subprocess nor multiprocessing.connection; a pooled sweep then loads
    # both and gives the one-process report.
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from qdist import codes, decode, estimator, pauli\n"
        "from qdist.decoder import BPConfig, ChannelPrior\n"
        "names = ('subprocess', 'multiprocessing.connection')\n"
        "code = codes.planar_surface(3)\n"
        "ex = np.zeros(code.n, np.uint8)\n"
        "ex[4] = 1\n"
        "decode(code, code.syndrome(pauli.SymplecticPauli.from_arrays(ex, 0 * ex)), ChannelPrior(0.1))\n"
        "print(*[name in sys.modules for name in names])\n"
        "estimator._SHARE_MIN_WORK = 1\n"
        "cfg = estimator.TrialConfig(rates=(0.1,), trials_per_rate=50, decoder=BPConfig(max_iterations=5))\n"
        "one = estimator.estimate_upper_bound(code, cfg, workers=1).to_json()\n"
        "print(*[name in sys.modules for name in names])\n"
        "two = estimator.estimate_upper_bound(code, cfg, workers=2).to_json()\n"
        "print(len(estimator._POOL), one == two, *[name in sys.modules for name in names])\n"
    )
    src = os.path.dirname(os.path.dirname(estimator.__file__))
    run = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split("\n")[:3] == ["False False", "False False", "1 True True True"]


def test_sweep_memory_does_not_grow_with_trials():
    code = codes.planar_surface(3)

    def peak(trials):
        cfg = TrialConfig(rates=(0.1,), trials_per_rate=trials, master_seed=1,
                          decoder=BPConfig(max_iterations=5))
        tracemalloc.start()
        try:
            estimator.estimate_upper_bound(code, cfg, workers=1)  # every chunk in the measured process
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # builds and caches the decoder context outside the measured runs
    chunk = estimator._CHUNK_TRIALS
    assert peak(8 * chunk) <= 1.5 * peak(chunk)


def test_pure_x_osd_estimates_are_x_type():
    # The first 400 trials of ztgre_7 at p = 0.08 (master seed 5, rate index
    # 2) include trial 359, where OSD-0 over all 3n columns picked a Y column.
    # BP-converged decisions may still have a Z part; logical_mask drops those.
    code = codes.ztgre(7)
    ctx = DecoderContext.for_code(code)
    ex, ez = estimator._sample_batch(code, 0.08, NoiseKind.PURE_X, 5, 2, 0, 400)
    prior = ChannelPrior(0.08, NoiseKind.PURE_X)
    S = code.syndromes(ex, ez)
    est_x, est_z, conv = estimator._decode_chunk(ctx, S, [prior], None, BPConfig(max_iterations=30))
    assert (~conv).sum() >= 100
    assert not est_z[~conv].any()


def test_estimate_rejects_bad_worker_count():
    cfg = TrialConfig(rates=(0.1,), trials_per_rate=10)
    for workers in (0, -1):
        with pytest.raises(ValueError):
            estimator.estimate_upper_bound(codes.planar_surface(2), cfg, workers=workers)
    # A worker count is an integer: a float or a string fails before any
    # work, and True is not taken as 1.
    for workers in (2.5, "2", True):
        with pytest.raises(ValueError, match="integer"):
            estimator.estimate_upper_bound(codes.planar_surface(2), cfg, workers=workers)
    assert estimator.estimate_upper_bound(codes.planar_surface(2), cfg, workers=np.int64(1)).upper_bound >= 1


def _random_small_hgp(seed):
    # Classical codes with 3 checks on 4-5 bits, all columns distinct and
    # nonzero (distance >= 3), half of them with one dependent check added.
    rng = np.random.default_rng(seed)

    def classical():
        cols = rng.choice(np.arange(1, 8), size=rng.integers(4, 6), replace=False)
        h = (cols[None, :] >> np.arange(3)[:, None]) & 1
        if rng.random() < 0.5:
            h = np.vstack([h, h[0] ^ h[1]])
        return h.astype(np.uint8)

    return codes.hypergraph_product(classical(), classical())


@pytest.mark.parametrize("seed", range(4))
def test_random_hgp_bound_never_below_oracle(seed):
    code = _random_small_hgp(seed)
    assert code.n <= 40 and code.k >= 1
    oracle = estimator.brute_force_distance(code, 4)
    assert oracle.found_distance is not None
    for kind in NoiseKind:
        cfg = TrialConfig(rates=(0.05, 0.1, 0.15), trials_per_rate=200, master_seed=seed,
                          noise_kind=kind, decoder=BPConfig(max_iterations=20))
        rep = estimator.estimate_upper_bound(code, cfg)
        assert rep.upper_bound >= oracle.found_distance
        assert estimator.verify_witness(code, rep.witness, rep.upper_bound, kind)


@pytest.mark.parametrize(
    "code, kind, distance",
    [
        (codes.planar_surface(3), NoiseKind.DEPOLARIZING, 3),
        (codes.ztgre(4), NoiseKind.PURE_X, 4),  # minimum logical-X weight for N=16
    ],
    ids=["surface_3", "ztgre_4_pureX"],
)
def test_bad_estimates_never_lower_the_bound(monkeypatch, code, kind, distance):
    # A decoder estimate that misses its syndrome leaves a residual with a
    # nonzero syndrome, which is no logical operator and must not count.
    real = estimator._decode_chunk

    def off_by_one_bit(ctx, S, priors, which, bp_cfg):
        est_x, est_z, conv = real(ctx, S, priors, which, bp_cfg)
        est_x[:, 0] ^= 1
        return est_x, est_z, conv

    monkeypatch.setattr(estimator, "_decode_chunk", off_by_one_bit)
    cfg = TrialConfig(rates=(0.15,), trials_per_rate=200, master_seed=3, noise_kind=kind)
    rep = estimator.estimate_upper_bound(code, cfg, workers=1)
    assert rep.witness is None or estimator.verify_witness(code, rep.witness, rep.upper_bound, kind)
    assert rep.upper_bound >= distance


def test_pure_x_mode_only_counts_x_residuals():
    code = codes.ztgre(2)
    cfg = TrialConfig(rates=(0.1, 0.15), trials_per_rate=500, master_seed=3,
                      noise_kind=NoiseKind.PURE_X, decoder=BPConfig(max_iterations=15))
    rep = estimator.estimate_upper_bound(code, cfg)
    assert rep.upper_bound == 2  # known minimum logical-X weight for N=4
    assert rep.witness is not None and not rep.witness.ez.any()


def test_report_json_and_csv_shapes():
    code = codes.planar_surface(2)
    cfg = TrialConfig(rates=(0.1,), trials_per_rate=200, master_seed=1,
                      decoder=BPConfig(max_iterations=10))
    rep = estimator.estimate_upper_bound(code, cfg)
    d = rep.to_json_dict()
    assert d["schema_version"] == estimator.SCHEMA_VERSION
    assert d["n"] == code.n and d["k"] == code.k
    assert len(d["per_rate"]) == 1
    # Schema v1 writes CERTAIN_LLR, the prior LLR of a bit that cannot flip,
    # under "clip".
    assert d["decoder_config"] == {"max_iterations": 10, "clip": 30.0}
    csv = rep.to_csv()
    assert csv.splitlines()[0] == "p,trials,logical_events,min_weight"
    assert len(csv.splitlines()) == 2


def test_witness_weight_equals_bound_when_found():
    code = codes.planar_surface(3)
    cfg = TrialConfig(rates=(0.08, 0.12), trials_per_rate=1500, master_seed=11,
                      decoder=BPConfig(max_iterations=20))
    rep = estimator.estimate_upper_bound(code, cfg)
    assert rep.witness is not None
    assert pauli.weight(rep.witness) == rep.upper_bound


def test_brute_force_known_distances():
    assert estimator.brute_force_distance(codes.planar_surface(2), 3).found_distance == 2
    assert estimator.brute_force_distance(codes.toric(2), 3).found_distance == 2
    res = estimator.brute_force_distance(codes.planar_surface(3), 4)
    assert res.found_distance == 3
    assert estimator.verify_witness(codes.planar_surface(3), res.witness, 3)


def test_brute_force_not_found_below_limit():
    res = estimator.brute_force_distance(codes.planar_surface(3), 2)
    assert res.found_distance is None
    assert res.witness is None


def test_brute_force_budget_guard():
    with pytest.raises(estimator.BudgetExceeded):
        estimator.brute_force_distance(codes.chamon(3, 3, 3), 6, budget=1000)


def test_brute_force_rejects_empty_weight_range():
    # A search up to weight 0 or below would report "no logical operator" for
    # every code.
    for w_max in (0, -2):
        with pytest.raises(ValueError):
            estimator.brute_force_distance(codes.toric(2), w_max)


def test_brute_force_witness_is_minimal_logical():
    code = codes.chamon(2, 2, 2)
    res = estimator.brute_force_distance(code, 4)
    assert res.found_distance == 4
    assert estimator.verify_witness(code, res.witness, 4)
