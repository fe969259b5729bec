"""Monte Carlo estimator tests: sampling statistics, residual classification,
witness verification, reproducibility and the brute-force oracle."""

import itertools
import warnings
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest

from qdist import codes, estimator, pauli
from qdist.decoder import BPConfig
from qdist.estimator import NoiseKind, ResidualClass, TrialConfig


def test_trial_config_validation():
    with pytest.raises(ValueError):
        TrialConfig(rates=())
    with pytest.raises(ValueError):
        TrialConfig(rates=(0.0,))
    with pytest.raises(ValueError):
        TrialConfig(rates=(1.2,))
    with pytest.raises(ValueError):
        TrialConfig(trials_per_rate=0)
    # The sampler cannot tell trials apart past 2**32; fail before any work.
    with pytest.raises(ValueError, match="2\\*\\*32"):
        TrialConfig(trials_per_rate=2**32 + 1)
    assert TrialConfig(trials_per_rate=2**32).trials_per_rate == 2**32
    with pytest.raises(ValueError, match="seed"):
        TrialConfig(master_seed=-1)  # numpy's SeedSequence would reject it mid-sweep
    assert TrialConfig(master_seed=0).master_seed == 0


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
    assert (
        estimator.classify_residual(code, pauli.SymplecticPauli.identity(code.n))
        == ResidualClass.STABILIZER
    )
    gen = code.generator(0)
    assert estimator.classify_residual(code, gen) == ResidualClass.STABILIZER
    logical = codes.logical_basis(code)[0]
    assert estimator.classify_residual(code, logical) == ResidualClass.LOGICAL
    one_x = pauli.from_string("X" + "I" * (code.n - 1))
    assert estimator.classify_residual(code, one_x) == ResidualClass.SYNDROME_NONZERO


def test_verify_witness():
    code = codes.planar_surface(2)
    logical = codes.logical_basis(code)[0]
    w = pauli.weight(logical)
    assert estimator.verify_witness(code, logical, w)
    assert not estimator.verify_witness(code, logical, w + 1)
    assert not estimator.verify_witness(code, None)
    assert not estimator.verify_witness(code, code.generator(0))
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


# Master seeds of one, two, three and five uint32 words; five is more than
# SeedSequence's pool of four, which changes how the entropy is mixed.
_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 1)


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
    # Counts around the 256-trial block edge; each count's rows are a prefix
    # of the 600-trial reference.
    code = SimpleNamespace(n=n)
    for seed, rate_idx, p in itertools.product(_SEEDS, (0, 5), (1e-4, 0.1, 0.5, 0.999)):
        want_x, want_z = _per_trial_stack(n, p, kind, seed, rate_idx, 600)
        for count in (1, 255, 256, 257, 600):
            ex, ez = estimator._sample_batch(code, p, kind, seed, rate_idx, count)
            assert ex.dtype == ez.dtype == np.uint8
            assert np.array_equal(ex, want_x[:count]), (seed, rate_idx, p, count)
            assert np.array_equal(ez, want_z[:count]), (seed, rate_idx, p, count)


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
        if len(raw) == count - 256:  # second block: trial 256 + 3 reads a zero half
            raw[3, n + 1] &= np.uint64(0xFFFFFFFF00000000)
        return real_from_raw(raw, *args)

    def recording_trial_rng(s, r, t):
        redrawn.append(t)
        return real_trial_rng(s, r, t)

    monkeypatch.setattr(estimator, "_errors_from_raw", zero_one_draw)
    monkeypatch.setattr(estimator, "trial_rng", recording_trial_rng)
    ex, ez = estimator._sample_batch(SimpleNamespace(n=n), p, kind, seed, 2, count)
    assert redrawn == [259]
    want_x, want_z = _per_trial_stack(n, p, kind, seed, 2, count)
    assert np.array_equal(ex, want_x) and np.array_equal(ez, want_z)


def test_sample_batch_emits_no_warning():
    # CI turns RuntimeWarning into an error: the uint32 hash must wrap in
    # arrays or masked Python ints, never in numpy scalars.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind, seed in itertools.product(NoiseKind, _SEEDS):
            estimator._sample_batch(SimpleNamespace(n=3), 0.2, kind, seed, 7, 260)


def test_sample_batch_rejects_bad_inputs():
    code = SimpleNamespace(n=4)
    for p in (0.0, 1.0):
        with pytest.raises(ValueError):
            estimator._sample_batch(code, p, NoiseKind.DEPOLARIZING, 0, 0, 10)
    with pytest.raises(ValueError, match="2\\*\\*32"):
        estimator._sample_batch(code, 0.1, NoiseKind.DEPOLARIZING, 0, 0, 2**32 + 1)


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


def test_estimate_independent_of_thread_count(monkeypatch):
    code = codes.planar_surface(2)
    cfg = TrialConfig(rates=(0.1,), trials_per_rate=600, master_seed=5,
                      decoder=BPConfig(max_iterations=15))
    chunk_sizes = []
    real = estimator._decode_chunk

    def counted(ctx, S, prior, bp_cfg):
        chunk_sizes.append(S.shape[0])
        return real(ctx, S, prior, bp_cfg)

    monkeypatch.setattr(estimator, "_decode_chunk", counted)
    # Default chunks: 600 trials run as 256 + 256 + 88, so the pool has work to share.
    r1 = estimator.estimate_upper_bound(code, cfg, threads=1).to_json()
    r3 = estimator.estimate_upper_bound(code, cfg, threads=3).to_json()
    assert chunk_sizes == [256, 256, 88] * 2
    monkeypatch.setattr(estimator, "_CHUNK_TRIALS", 600)
    whole = estimator.estimate_upper_bound(code, cfg).to_json()
    assert chunk_sizes[6:] == [600]
    assert r1 == r3 == whole


def test_estimate_rejects_bad_thread_count():
    cfg = TrialConfig(rates=(0.1,), trials_per_rate=10)
    for threads in (0, -1):
        with pytest.raises(ValueError):
            estimator.estimate_upper_bound(codes.planar_surface(2), cfg, threads=threads)


def _random_small_hgp(seed):
    # Classical codes with 3 checks on 4-5 bits, all columns distinct and
    # nonzero (distance >= 3), half of them with one dependent check added.
    rng = np.random.default_rng(seed)

    def classical():
        cols = rng.choice(np.arange(1, 8), size=rng.integers(4, 6), replace=False)
        h = (cols[None, :] >> np.arange(3)[:, None]) & 1
        if rng.random() < 0.5:
            h = np.vstack([h, h[0] ^ h[1]])
        return codes.ClassicalCode(h.astype(np.uint8))

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
    assert d["decoder_config"]["max_iterations"] == 10
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
