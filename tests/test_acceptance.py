"""Acceptance gate: end-to-end reproduction of the published benchmarks.

Each criterion prints one PASS/FAIL line (visible with `pytest -s` or in the
captured output on failure) and asserts at its stated tolerance — the bound
reproductions are exact-equality checks, the certified properties
(witness soundness, representation equivalence, decoder contract) have zero
tolerance.  The whole module is marked `acceptance`; deselect with
`-m "not acceptance"` for quick unit runs.

Monte Carlo sweeps here use a 30-iteration BP budget (convergence is
saturated well before that; OSD handles the rest) and fixed master seeds, so
the gate is deterministic end to end.
"""

import numpy as np
import pytest

from qdist import codes, decoder, estimator, pauli
from qdist.decoder import BPConfig, ChannelPrior, DecoderContext, bp_decode_batch, osd_post_process
from qdist.estimator import NoiseKind, TrialConfig

pytestmark = pytest.mark.acceptance

MASTER_SEED = 20260823

# Every report produced anywhere in this module lands here, with the noise
# kind it was swept under; the witness soundness criterion (run last)
# re-verifies all of them.
ALL_REPORTS: list[tuple[codes.StabilizerCode, estimator.DistanceReport, NoiseKind]] = []

# Representative suite codes, one per family, used by the randomized
# equivalence and decoder-contract criteria.
SUITE = [
    codes.planar_surface(3),
    codes.toric(2),
    codes.xzzx_surface(3),
    codes.ztgre(3),
    codes.chamon(2, 2, 2),
]


def _line(num: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f"  [{detail}]" if detail else ""
    print(f"CRITERION {num} ({name}): {'PASS' if ok else 'FAIL'}{tail}")


def _estimate(code, rates, trials, noise=NoiseKind.DEPOLARIZING, seed=MASTER_SEED, max_iterations=30):
    cfg = TrialConfig(
        rates=tuple(rates),
        trials_per_rate=trials,
        master_seed=seed,
        noise_kind=noise,
        decoder=BPConfig(max_iterations=max_iterations),
    )
    report = estimator.estimate_upper_bound(code, cfg)
    ALL_REPORTS.append((code, report, noise))
    return report


def test_criterion_1_known_distance_surface_families():
    """Surface / toric / XZZX at L in {3,5,7}: bound equals L exactly."""
    results = []
    for family in (codes.planar_surface, codes.toric, codes.xzzx_surface):
        for L in (3, 5, 7):
            code = family(L)
            report = _estimate(code, rates=(0.08, 0.10, 0.12), trials=10_000)
            results.append((code.name, L, report.upper_bound))
    ok = all(bound == L for _, L, bound in results)
    _line(1, "known-distance reproduction", ok,
          "; ".join(f"{name}: {bound}" for name, _, bound in results))
    assert ok, results


def test_criterion_2_ztgre_logical_x_table():
    """Z-type expansion, pure-X sweep: minimum logical-X weights {2,4,4,6,6,8}."""
    expected = {2: 2, 3: 4, 4: 4, 5: 6, 6: 6, 7: 8}  # L -> table value (N = 2^L)
    results = {}
    for L, target in expected.items():
        code = codes.ztgre(L)
        report = _estimate(code, rates=(0.04, 0.06, 0.08, 0.10), trials=3_000,
                           noise=NoiseKind.PURE_X)
        results[L] = (report.upper_bound, target)
    ok = all(got == want for got, want in results.values())
    _line(2, "Z-type expansion logical-X table", ok,
          "; ".join(f"N={2**L}: {got}/{want}" for L, (got, want) in results.items()))
    assert ok, results


def test_criterion_3_chamon_table():
    """Chamon bounds and code lengths match the published table exactly."""
    lengths = {(2, 2, 2): 32, (3, 3, 3): 108, (4, 4, 4): 256, (5, 5, 5): 500,
               (2, 3, 4): 96, (3, 4, 5): 240, (4, 5, 6): 480}
    length_ok = all(codes.chamon(*p).n == n for p, n in lengths.items())

    targets = [((2, 2, 2), 4, 3_000), ((3, 3, 3), 6, 10_000), ((4, 4, 4), 8, 3_000),
               ((2, 3, 4), 6, 3_000), ((3, 4, 5), 12, 3_000)]
    results = []
    for params, target, trials in targets:
        code = codes.chamon(*params)
        report = _estimate(code, rates=(0.04, 0.06, 0.08, 0.10), trials=trials)
        results.append((params, report.upper_bound, target))
    bounds_ok = all(got == want for _, got, want in results)
    ok = length_ok and bounds_ok
    _line(3, "Chamon table", ok,
          f"lengths {'ok' if length_ok else 'MISMATCH'}; " +
          "; ".join(f"{p}: {got}/{want}" for p, got, want in results))
    assert ok, (length_ok, results)


def test_criterion_4_oracle_agreement():
    """Monte Carlo bound equals the exhaustive oracle on every brute-forceable code."""
    cases = [
        (codes.planar_surface(2), 3),
        (codes.planar_surface(3), 4),
        (codes.toric(2), 3),
        (codes.xzzx_surface(2), 3),
        (codes.xzzx_surface(3), 4),
        (codes.ztgre(2), 3),
        (codes.ztgre(3), 3),
        (codes.chamon(2, 2, 2), 4),
    ]
    results = []
    for code, w_max in cases:
        oracle = estimator.brute_force_distance(code, w_max)
        assert oracle.found_distance is not None
        report = _estimate(code, rates=(0.05, 0.08, 0.10, 0.12), trials=2_000)
        results.append((code.name, report.upper_bound, oracle.found_distance))
    ok = all(mc == oracle for _, mc, oracle in results)
    _line(4, "oracle agreement", ok,
          "; ".join(f"{name}: mc={mc} oracle={od}" for name, mc, od in results))
    assert ok, results


def test_criterion_6_representation_equivalence():
    """>= 1e4 random errors: decoupled and symplectic syndromes always agree."""
    per_code = 2_100  # x 5 suite codes = 10500 cases
    total = 0
    mismatches = 0
    for code in SUITE:
        rng = np.random.default_rng(MASTER_SEED + code.n)
        for _ in range(per_code):
            ex = rng.integers(0, 2, code.n, dtype=np.uint8)
            ez = rng.integers(0, 2, code.n, dtype=np.uint8)
            e = pauli.SymplecticPauli.from_arrays(ex, ez)
            s1 = pauli.syndrome_symplectic(code.hx, code.hz, e)
            s2 = pauli.syndrome_decoupled(code.hd, pauli.to_decoupled(e))
            total += 1
            mismatches += s1 != s2
    ok = total >= 10_000 and mismatches == 0
    _line(6, "representation equivalence", ok, f"{total} cases, {mismatches} mismatches")
    assert ok, (total, mismatches)


def test_criterion_7_decoder_contract():
    """1e4 trials per suite code all syndrome-consistent; weight-1 errors on
    distance >= 3 codes always leave a stabilizer residual."""
    trials = 10_000
    cfg = BPConfig(max_iterations=30)
    consistent = {}
    for code in SUITE:
        ctx = DecoderContext.for_code(code)
        rng = np.random.default_rng(MASTER_SEED + code.n)
        ex = rng.integers(0, 2, (trials, code.n), dtype=np.uint8)
        ez = rng.integers(0, 2, (trials, code.n), dtype=np.uint8)
        D = estimator._decoupled_bits(ex, ez)
        S = ((D.astype(np.float64) @ code.hd.T.astype(np.float64)) % 2).astype(np.uint8)
        est_x, est_z, _ = estimator._decode_chunk(ctx, S, ChannelPrior(0.1), cfg)
        s_of_est = ((est_z @ code.hx.T.astype(np.int64)) + (est_x @ code.hz.T.astype(np.int64))) % 2
        s_true = ((ez @ code.hx.T.astype(np.int64)) + (ex @ code.hz.T.astype(np.int64))) % 2
        bad = int(np.count_nonzero(np.any(s_of_est != s_true, axis=1)))
        consistent[code.name] = (trials, bad)

    weight1_bad = {}
    for code in SUITE:
        d = estimator.brute_force_distance(code, 2).found_distance
        if d is not None:  # distance <= 2: weight-1 completeness not required
            continue
        failures = 0
        prior = ChannelPrior(0.05)
        for q in range(code.n):
            for p_char in "XZY":
                s = ["I"] * code.n
                s[q] = p_char
                err = pauli.from_string("".join(s))
                out = decoder.decode(code, code.syndrome(err), prior, cfg)
                residual = pauli.mul(err, out.estimate)
                if estimator.classify_residual(code, residual) != estimator.ResidualClass.STABILIZER:
                    failures += 1
        weight1_bad[code.name] = failures

    ok = (all(bad == 0 for _, bad in consistent.values())
          and all(v == 0 for v in weight1_bad.values()))
    _line(7, "decoder contract", ok,
          "; ".join(f"{name}: {bad}/{t} inconsistent" for name, (t, bad) in consistent.items())
          + " | weight-1 failures: "
          + ", ".join(f"{name}={v}" for name, v in weight1_bad.items()))
    assert ok, (consistent, weight1_bad)


def test_criterion_8_determinism():
    """Same master seed, same config: byte-identical JSON report bodies."""
    representatives = [
        (codes.planar_surface(3), NoiseKind.DEPOLARIZING),
        (codes.toric(2), NoiseKind.DEPOLARIZING),
        (codes.xzzx_surface(3), NoiseKind.DEPOLARIZING),
        (codes.ztgre(4), NoiseKind.PURE_X),
        (codes.chamon(2, 2, 2), NoiseKind.DEPOLARIZING),
    ]
    results = []
    for code, noise in representatives:
        first = _estimate(code, rates=(0.06, 0.10), trials=1_000, noise=noise)
        again = estimator.estimate_upper_bound(
            code,
            TrialConfig(rates=(0.06, 0.10), trials_per_rate=1_000,
                        master_seed=MASTER_SEED, noise_kind=noise,
                        decoder=BPConfig(max_iterations=30)),
        )
        results.append((code.name, first.to_json().encode() == again.to_json().encode()))
    ok = all(same for _, same in results)
    _line(8, "determinism", ok, "; ".join(f"{n}: {'same' if s else 'DIFFERS'}" for n, s in results))
    assert ok, results


def test_criterion_5_witness_soundness():
    """Runs last: 100% of the reports emitted above verify their witness
    (X-type under pure-X noise)."""
    assert ALL_REPORTS, "no reports were produced by the earlier criteria"
    bad = [
        (code.name, rep.upper_bound)
        for code, rep, noise in ALL_REPORTS
        if not estimator.verify_witness(code, rep.witness, rep.upper_bound, noise)
    ]
    ok = not bad
    _line(5, "witness soundness", ok, f"{len(ALL_REPORTS)} reports, {len(bad)} failures")
    assert ok, bad
