"""Decoder tests: syndrome consistency as a certified contract, exact
hard-decision semantics, and OSD behaviour on non-converged syndromes."""

import numpy as np
import pytest

from qdist import codes, decoder, estimator, gf2, pauli
from qdist.estimator import NoiseKind

CODES = [
    lambda: codes.planar_surface(3),
    lambda: codes.toric(2),
    lambda: codes.xzzx_surface(3),
    lambda: codes.ztgre(3),
    lambda: codes.chamon(2, 2, 2),
]


def test_channel_prior_validation_and_llr():
    p = decoder.ChannelPrior(0.3)
    assert p.bit_prob == pytest.approx(0.1)
    assert p.llr == pytest.approx(np.log(9.0))
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            decoder.ChannelPrior(bad)


def test_bp_config_validation():
    with pytest.raises(ValueError):
        decoder.BPConfig(max_iterations=0)


def _llr(post):
    post = np.asarray(post, dtype=np.float64)
    return np.log((1 - post) / post).astype(np.float32)


def test_hard_decision_prefers_identity_on_ties():
    # All three bit marginals at 0.5 score the four classes equally.
    bits = decoder._decision_bits_from_llr(_llr(np.full((1, 3), 0.5)), 1)
    assert not bits.any()


def test_hard_decision_picks_dominant_class():
    # Strong Y marginal on qubit 0, strong X on qubit 1.
    post = np.array([[0.01, 0.9, 0.01, 0.05, 0.95, 0.02]])
    bits = decoder._decision_bits_from_llr(_llr(post), 2)
    assert pauli.to_string(pauli.to_symplectic(bits[0])) == "YX"


def test_hard_decision_rejects_bad_shape():
    with pytest.raises(ValueError):
        decoder._decision_bits_from_llr(np.zeros((1, 4), np.float32), 1)
    with pytest.raises(ValueError):
        decoder._decision_bits_from_llr(np.zeros(3, np.float32), 1)


def _hard_decision_reference(post, n):
    """Argmax of the I/X/Z/Y scores as products of the three bit
    probabilities, ties in the order I < X < Z < Y."""
    px, pz, py = post[:n], post[n : 2 * n], post[2 * n :]
    scores = np.stack([
        (1 - px) * (1 - pz) * (1 - py),
        px * (1 - pz) * (1 - py),
        (1 - px) * pz * (1 - py),
        (1 - px) * (1 - pz) * py,
    ])
    cls = np.argmax(scores, axis=0)
    return np.concatenate([cls == 1, cls == 2, cls == 3]).astype(np.uint8)


def test_decision_bits_match_hard_decision():
    rng = np.random.default_rng(7)
    n = 6
    post = rng.uniform(0.01, 0.99, size=(40, 3 * n))
    batched = decoder._decision_bits_from_llr(_llr(post), n)
    for i in range(post.shape[0]):
        assert np.array_equal(batched[i], _hard_decision_reference(post[i], n))


def test_zero_syndrome_decodes_to_identity():
    for make in CODES:
        code = make()
        out = decoder.decode(code, code.syndrome(pauli.SymplecticPauli.identity(code.n)),
                             decoder.ChannelPrior(0.05))
        assert out.bp_converged
        assert pauli.weight(out.estimate) == 0


@pytest.mark.parametrize("make", CODES)
def test_weight_one_errors_fully_corrected(make):
    # On distance >= 2 codes every weight-1 error must at least be matched in
    # syndrome; on distance >= 3 the residual must be a stabilizer.
    code = make()
    prior = decoder.ChannelPrior(0.05)
    for q in range(code.n):
        for p_char in "XZY":
            s = ["I"] * code.n
            s[q] = p_char
            err = pauli.from_string("".join(s))
            out = decoder.decode(code, code.syndrome(err), prior)
            residual = pauli.mul(err, out.estimate)
            assert code.syndrome(residual).is_zero()


@pytest.mark.parametrize("make", CODES)
def test_random_errors_syndrome_consistent(make):
    code = make()
    rng = np.random.default_rng(code.n + 1)
    prior = decoder.ChannelPrior(0.1)
    cfg = decoder.BPConfig(max_iterations=25)
    for _ in range(60):
        ex = rng.integers(0, 2, code.n, dtype=np.uint8)
        ez = rng.integers(0, 2, code.n, dtype=np.uint8)
        err = pauli.SymplecticPauli.from_arrays(ex, ez)
        s = code.syndrome(err)
        out = decoder.decode(code, s, prior, cfg)
        assert code.syndrome(out.estimate) == s


def test_batch_matches_single():
    code = codes.planar_surface(3)
    ctx = decoder.DecoderContext.for_code(code)
    rng = np.random.default_rng(3)
    prior = decoder.ChannelPrior(0.08)
    cfg = decoder.BPConfig(max_iterations=20)
    S = np.zeros((30, ctx.m), dtype=np.uint8)
    for i in range(30):
        ex = rng.integers(0, 2, code.n, dtype=np.uint8)
        ez = rng.integers(0, 2, code.n, dtype=np.uint8)
        S[i] = code.syndrome(pauli.SymplecticPauli.from_arrays(ex, ez)).bits
    bits, post, conv, iters = decoder.bp_decode_batch(ctx, S, prior, cfg)
    for i in range(30):
        b1, p1, c1, i1 = decoder.bp_decode(ctx, S[i], prior, cfg)
        assert np.array_equal(bits[i], b1)
        assert conv[i] == c1 and iters[i] == i1
        assert np.allclose(post[i], p1)


def test_osd_output_always_satisfies_syndrome():
    code = codes.chamon(2, 2, 2)
    ctx = decoder.DecoderContext.for_code(code)
    rng = np.random.default_rng(11)
    prior = decoder.ChannelPrior(0.15)
    cfg = decoder.BPConfig(max_iterations=5)  # starve BP to force OSD
    for _ in range(40):
        ex = rng.integers(0, 2, code.n, dtype=np.uint8)
        ez = rng.integers(0, 2, code.n, dtype=np.uint8)
        s = code.syndrome(pauli.SymplecticPauli.from_arrays(ex, ez))
        bits, post, conv, _ = decoder.bp_decode(ctx, s, prior, cfg)
        raw = decoder.osd_post_process(ctx, s, post)
        got = pauli.syndrome_decoupled(code.hd, raw)
        assert got == s


@pytest.mark.parametrize("make", [lambda: codes.toric(3), lambda: codes.chamon(3, 3, 3), lambda: codes.ztgre(5)])
def test_batched_osd_matches_single_on_failed_trials(make):
    # Toric and Chamon have dependent generators (rank(Hd) < m); ztgre is
    # Z-only, so a third of Hd's columns are zero.  Posteriors are BP's own
    # from trials it failed to decode, the inputs OSD-0 sees in a sweep.
    code = make()
    ctx = decoder.DecoderContext.for_code(code)
    kind = NoiseKind.PURE_X if code.name.startswith("ztgre") else NoiseKind.DEPOLARIZING
    ex, ez = estimator._sample_batch(code, 0.12, kind, 5, 0, 120)
    errors = [pauli.SymplecticPauli.from_arrays(x, z) for x, z in zip(ex, ez)]
    S = np.array([code.syndrome(e).bits for e in errors], dtype=np.uint8)
    _, post, conv, _ = decoder.bp_decode_batch(ctx, S, decoder.ChannelPrior(0.12), decoder.BPConfig(max_iterations=8))
    S, post = S[~conv], post[~conv]
    assert S.shape[0] >= 10
    batch = decoder.osd_post_process(ctx, S, post)
    assert batch.shape == (S.shape[0], ctx.nbits)
    for i in range(S.shape[0]):
        # Reference: the serial solve on columns by descending posterior, ties by index.
        order = np.lexsort((np.arange(ctx.nbits), -post[i]))
        ref = gf2.solve_selected(ctx.packed, gf2.BitVector.from_array(S[i]), order).to_array()
        assert np.array_equal(batch[i], ref)
        assert np.array_equal(decoder.osd_post_process(ctx, S[i], post[i]), ref)
        assert np.array_equal(pauli.syndrome_decoupled(code.hd, ref).bits, S[i])


def test_osd_infeasible_syndrome_raises():
    code = codes.toric(2)  # dependent generators: some syndromes are unreachable
    ctx = decoder.DecoderContext.for_code(code)
    assert gf2.rank(ctx.packed) < ctx.m
    s = np.zeros(ctx.m, dtype=np.uint8)
    s[0] = 1  # a lone violated check cannot happen on a torus
    post = np.full(ctx.nbits, 0.1)
    with pytest.raises(RuntimeError):
        decoder.osd_post_process(ctx, s, post)
    with pytest.raises(RuntimeError):
        decoder.osd_post_process(ctx, s[None, :], post[None, :])


def test_osd_prefers_reliable_columns():
    # With posteriors forced onto the true support, OSD-0 recovers it exactly.
    code = codes.planar_surface(3)
    ctx = decoder.DecoderContext.for_code(code)
    err = pauli.from_string("X" + "I" * (code.n - 1))
    d = pauli.to_decoupled(err).to_bits()
    post = np.where(d > 0, 0.9, 0.001)
    raw = decoder.osd_post_process(ctx, code.syndrome(err), post)
    assert np.array_equal(raw, d)


def test_decode_reports_osd_flag():
    code = codes.chamon(2, 2, 2)
    rng = np.random.default_rng(23)
    prior = decoder.ChannelPrior(0.2)
    cfg = decoder.BPConfig(max_iterations=2)
    saw_osd = False
    for _ in range(60):
        ex = rng.integers(0, 2, code.n, dtype=np.uint8)
        ez = rng.integers(0, 2, code.n, dtype=np.uint8)
        s = code.syndrome(pauli.SymplecticPauli.from_arrays(ex, ez))
        out = decoder.decode(code, s, prior, cfg)
        if out.osd_applied:
            saw_osd = True
            assert not out.bp_converged
        assert code.syndrome(out.estimate) == s
    assert saw_osd


def test_context_is_cached_on_code():
    code = codes.toric(2)
    c1 = decoder.DecoderContext.for_code(code)
    c2 = decoder.DecoderContext.for_code(code)
    assert c1 is c2


def test_batch_shape_validation():
    code = codes.toric(2)
    ctx = decoder.DecoderContext.for_code(code)
    with pytest.raises(ValueError):
        decoder.bp_decode_batch(ctx, np.zeros((2, ctx.m + 1), np.uint8),
                                decoder.ChannelPrior(0.1), decoder.BPConfig())
