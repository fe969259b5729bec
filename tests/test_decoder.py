"""Decoder tests: syndrome consistency as a certified contract, exact
hard-decision semantics, and OSD behaviour on non-converged syndromes."""

import math

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
    n, clip = 4, 25.0
    depol = decoder.ChannelPrior(0.3)  # positional rate, depolarizing by default
    assert depol.noise == NoiseKind.DEPOLARIZING
    assert np.array_equal(depol.bit_probs(n), np.full(3 * n, 0.3 / 3.0))
    llr = depol.llrs(n, clip)
    assert llr.dtype == np.float32 and llr.shape == (3 * n,)
    # Exactly the float32 of math.log, on which depolarizing reports rest.
    assert np.array_equal(llr, np.full(3 * n, np.float32(math.log((1.0 - 0.1) / 0.1))))

    pure_x = decoder.ChannelPrior(0.3, NoiseKind.PURE_X)
    assert np.array_equal(pure_x.bit_probs(n), np.repeat([0.3, 0.0, 0.0], n))
    llr = pure_x.llrs(n, clip)
    assert llr.dtype == np.float32
    assert np.array_equal(llr[:n], np.full(n, np.float32(math.log(0.7 / 0.3))))
    assert np.array_equal(llr[n:], np.full(2 * n, np.float32(clip)))
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            decoder.ChannelPrior(bad)
        with pytest.raises(ValueError):
            decoder.ChannelPrior(bad, NoiseKind.PURE_X)
    # An unknown noise kind must not fall back to the depolarizing prior.
    assert decoder.ChannelPrior(0.3, "pureX").noise is NoiseKind.PURE_X
    with pytest.raises(ValueError):
        decoder.ChannelPrior(0.3, "pure-x")


def test_noise_kind_is_reexported_by_estimator():
    assert estimator.NoiseKind is decoder.NoiseKind


def test_bp_config_validation():
    with pytest.raises(ValueError):
        decoder.BPConfig(max_iterations=0)
    # A clip of 0 or less silences BP, and NaN corrupts it (on ztgre(5),
    # pure-X, p = 0.08 they gave no logical event at all, or three times the
    # default's), so only a finite positive clip is a configuration.
    for clip in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="clip"):
            decoder.BPConfig(clip=clip)
    assert decoder.BPConfig(clip=1e-3).clip == 1e-3


def _llr(post):
    post = np.asarray(post, dtype=np.float64)
    return np.log((1 - post) / post).astype(np.float32)


def test_hard_decision_prefers_identity_on_ties():
    # All three bit marginals at 0.5 score the four classes equally.
    bits = decoder._decision_bits_from_llr(_llr(np.full((3, 1), 0.5)), 1)
    assert not bits.any()


def test_hard_decision_picks_dominant_class():
    # Strong Y marginal on qubit 0, strong X on qubit 1.
    post = np.array([[0.01, 0.9, 0.01, 0.05, 0.95, 0.02]]).T
    bits = decoder._decision_bits_from_llr(_llr(post), 2)
    assert pauli.to_string(pauli.to_symplectic(bits[:, 0])) == "YX"


def test_hard_decision_rejects_bad_shape():
    with pytest.raises(ValueError):
        decoder._decision_bits_from_llr(np.zeros((4, 1), np.float32), 1)
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
    batched = decoder._decision_bits_from_llr(_llr(post.T), n)
    for i in range(post.shape[0]):
        assert np.array_equal(batched[:, i], _hard_decision_reference(post[i], n))


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
        bits, post, conv, _ = decoder.bp_decode(ctx, s.bits, prior, cfg)
        raw = decoder.osd_post_process(ctx, s.bits[None, :], post[None, :])
        assert raw.shape == (1, ctx.nbits)
        got = pauli.syndrome_decoupled(code.hd, raw[0])
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
        ref = gf2.solve_selected(ctx.hd, S[i], order)
        assert np.array_equal(batch[i], ref)
        assert np.array_equal(decoder.osd_post_process(ctx, S[i : i + 1], post[i : i + 1])[0], ref)
        assert np.array_equal(pauli.syndrome_decoupled(code.hd, ref).bits, S[i])


def test_osd_infeasible_syndrome_raises():
    code = codes.toric(2)  # dependent generators: some syndromes are unreachable
    ctx = decoder.DecoderContext.for_code(code)
    assert gf2.rank(ctx.hd) < ctx.m
    s = np.zeros(ctx.m, dtype=np.uint8)
    s[0] = 1  # a lone violated check cannot happen on a torus
    post = np.full(ctx.nbits, 0.1)
    with pytest.raises(RuntimeError):
        decoder.osd_post_process(ctx, s[None, :], post[None, :])
    # OSD takes batches only: one syndrome needs a batch axis.
    with pytest.raises(ValueError):
        decoder.osd_post_process(ctx, np.zeros(ctx.m, np.uint8), post)


def test_osd_prefers_reliable_columns():
    # With posteriors forced onto the true support, OSD-0 recovers it exactly.
    code = codes.planar_surface(3)
    ctx = decoder.DecoderContext.for_code(code)
    err = pauli.from_string("X" + "I" * (code.n - 1))
    d = pauli.to_decoupled(err)
    post = np.where(d > 0, 0.9, 0.001)
    raw = decoder.osd_post_process(ctx, code.syndrome(err).bits[None, :], post[None, :])
    assert np.array_equal(raw, d[None, :])


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


# ---------------------------------------------------------------------------
# Reference BP kernel: the trial-major segment-sum kernel that
# bp_decode_batch replaced, kept unchanged apart from building its edge
# layout from the context's edge lists and taking the prior as per-bit
# (3n,) LLRs and probabilities in place of one scalar of each.
# bp_decode_batch must reproduce it bit for bit.


def _reference_layout(ctx):
    counts = np.bincount(ctx.edge_check, minlength=ctx.active_checks.shape[0])
    check_ptr = np.concatenate([[0], np.cumsum(counts)])[:-1].astype(np.intp)
    vorder = np.lexsort((ctx.edge_check, ctx.edge_var))
    used_vars = np.unique(ctx.edge_var)
    vcounts = np.bincount(ctx.edge_var[vorder])
    vcounts = vcounts[vcounts > 0]
    var_ptr = np.concatenate([[0], np.cumsum(vcounts)])[:-1].astype(np.intp)
    return check_ptr, vorder, var_ptr, used_vars


def _segment_sum(values, ptr):
    return np.add.reduceat(values, ptr, axis=-1)


def _decision_reference(llr, n):
    """(B, 3n) -> (B, 3n): argmax over [0, -llr_x, -llr_z, -llr_y], first wins."""
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


def _bp_reference(ctx, syndromes, prior_llr, prior_prob, cfg):
    _MSG_DTYPE = decoder._MSG_DTYPE
    _TANH_EPS = decoder._TANH_EPS
    _LOG_FLOOR = decoder._LOG_FLOOR
    check_ptr, var_perm, var_ptr, used_vars = _reference_layout(ctx)

    S = np.asarray(syndromes, dtype=np.uint8)
    B = S.shape[0]
    n = ctx.nbits // 3
    prior_llr = np.asarray(prior_llr, dtype=_MSG_DTYPE)

    out_bits = np.zeros((B, ctx.nbits), dtype=np.uint8)
    out_post = np.tile(np.asarray(prior_prob, dtype=np.float64), (B, 1))
    out_conv = np.zeros(B, dtype=bool)
    out_iter = np.full(B, cfg.max_iterations, dtype=np.int64)

    if ctx.num_edges == 0:
        out_conv[:] = ~S.any(axis=1)
        out_iter[:] = 1
        return out_bits, out_post, out_conv, out_iter

    edge_var = ctx.edge_var
    edge_check = ctx.edge_check
    inactive = np.setdiff1d(np.arange(ctx.m), ctx.active_checks)
    vacuous_ok = ~S[:, inactive].any(axis=1) if inactive.size else np.ones(B, dtype=bool)

    active = np.arange(B)
    s_act = S[:, ctx.active_checks]
    sign_act = (1.0 - 2.0 * s_act).astype(_MSG_DTYPE)
    vac_ok = vacuous_ok
    cur_mcv = np.zeros((B, ctx.num_edges), dtype=_MSG_DTYPE)

    def posterior_llr(mcv):
        tot = np.tile(prior_llr, (mcv.shape[0], 1))
        tot[:, used_vars] += _segment_sum(mcv[:, var_perm], var_ptr)
        return tot

    for it in range(1, cfg.max_iterations + 1):
        mvc = posterior_llr(cur_mcv)[:, edge_var] - cur_mcv
        t = np.tanh(0.5 * mvc)
        sgn = np.where(t < 0, _MSG_DTYPE(-1.0), _MSG_DTYPE(1.0))
        lg = np.log(np.clip(np.abs(t), _LOG_FLOOR, 1.0 - _TANH_EPS))
        lsum = _segment_sum(lg, check_ptr)
        neg = _segment_sum((t < 0).astype(np.int64), check_ptr)
        sign_tot = 1.0 - 2.0 * (neg & 1).astype(_MSG_DTYPE)
        prod = (sign_tot[:, edge_check] * sgn) * np.exp(lsum[:, edge_check] - lg)
        prod *= sign_act[:, edge_check]
        np.clip(prod, -1.0 + _TANH_EPS, 1.0 - _TANH_EPS, out=prod)
        cur_mcv = np.clip(2.0 * np.arctanh(prod), -cfg.clip, cfg.clip)

        tot = posterior_llr(cur_mcv)
        bits = _decision_reference(tot, n)
        parity = (_segment_sum(bits[:, edge_var].astype(np.int64), check_ptr) & 1).astype(np.uint8)
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


def _random_hgp(seed):
    # Dense random classical checks: decoupled check and variable degrees
    # well above 8, so the per-degree tables and the pairwise sum both run.
    rng = np.random.default_rng(seed)
    h1 = (rng.random((5, 8)) < 0.5).astype(np.uint8)
    h2 = (rng.random((4, 7)) < 0.5).astype(np.uint8)
    return codes.hypergraph_product(codes.ClassicalCode(h1), codes.ClassicalCode(h2))


REFERENCE_CASES = [
    (lambda: codes.planar_surface(5), NoiseKind.DEPOLARIZING),
    (lambda: codes.toric(3), NoiseKind.DEPOLARIZING),
    (lambda: codes.chamon(3, 3, 3), NoiseKind.DEPOLARIZING),
    (lambda: codes.ztgre(5), NoiseKind.DEPOLARIZING),
    (lambda: codes.ztgre(5), NoiseKind.PURE_X),
    (lambda: codes.xzzx_surface(3), NoiseKind.DEPOLARIZING),
    (lambda: _random_hgp(1), NoiseKind.DEPOLARIZING),
    (lambda: _random_hgp(2), NoiseKind.DEPOLARIZING),
]


def _reference_prior(prior, ctx, cfg):
    n = ctx.nbits // 3
    return prior.llrs(n, cfg.clip), prior.bit_probs(n)


@pytest.mark.parametrize("batch", [0, 1, 300])
@pytest.mark.parametrize("make,kind", REFERENCE_CASES)
def test_bp_matches_reference(make, kind, batch):
    code = make()
    ctx = decoder.DecoderContext.for_code(code)
    ex, ez = estimator._sample_batch(code, 0.09, kind, 17, 0, batch)
    S = code.syndromes(ex, ez)
    prior = decoder.ChannelPrior(0.09, kind)
    cfg = decoder.BPConfig(max_iterations=20)
    got = decoder.bp_decode_batch(ctx, S, prior, cfg)
    want = _bp_reference(ctx, S, *_reference_prior(prior, ctx, cfg), cfg)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert np.array_equal(g, w)
    if batch == 300:
        # Both branches of the iteration loop ran: some trials converged early
        # and some did not converge at all.
        assert got[2].any() and not got[2].all()


CLIP_CASES = [
    (lambda: codes.toric(3), NoiseKind.DEPOLARIZING, 0.09),
    (lambda: codes.chamon(3, 3, 3), NoiseKind.DEPOLARIZING, 0.09),
    (lambda: codes.ztgre(5), NoiseKind.PURE_X, 0.09),
    # p = 0.5: the X bits' prior LLR is exactly 0.
    (lambda: codes.toric(3), NoiseKind.PURE_X, 0.5),
    (lambda: codes.chamon(3, 3, 3), NoiseKind.PURE_X, 0.5),
    (lambda: codes.ztgre(5), NoiseKind.PURE_X, 0.5),
]


@pytest.mark.parametrize("batch", [0, 1, 300])
@pytest.mark.parametrize("clip", [1.0, 5.0, 10.0, 16.0])
@pytest.mark.parametrize("make,kind,p", CLIP_CASES)
def test_bp_matches_reference_when_clip_binds(make, kind, p, clip, batch):
    # The kernel keeps messages at half scale and skips the message clip
    # only where it cannot bind; at these clips it binds.
    code = make()
    ctx = decoder.DecoderContext.for_code(code)
    ex, ez = estimator._sample_batch(code, p, kind, 23, 0, batch)
    S = code.syndromes(ex, ez)
    prior = decoder.ChannelPrior(p, kind)
    cfg = decoder.BPConfig(max_iterations=12, clip=clip)
    got = decoder.bp_decode_batch(ctx, S, prior, cfg)
    want = _bp_reference(ctx, S, *_reference_prior(prior, ctx, cfg), cfg)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert np.array_equal(g, w)


def test_default_clip_never_binds():
    # A message is 2 * arctanh of a product clipped to 1 - _TANH_EPS, so the
    # default clip is never reached and the kernel leaves it out.
    top = 2.0 * np.arctanh(np.float32(1.0 - decoder._TANH_EPS))
    assert top < decoder.BPConfig().clip
    assert 0.5 * decoder.BPConfig().clip >= decoder._ATANH_MAX
    assert 0.5 * 16.0 < decoder._ATANH_MAX  # the clips above do bind


def test_matched_prior_converges_on_pure_x_errors():
    # In a Z-only code the X and Y columns of Hd are identical; the
    # depolarizing prior gives BP no reason to prefer X over Y, the pure-X
    # prior does.
    code = codes.ztgre(6)
    ctx = decoder.DecoderContext.for_code(code)
    ex, ez = estimator._sample_batch(code, 0.08, NoiseKind.PURE_X, 1, 0, 200)
    S = code.syndromes(ex, ez)
    cfg = decoder.BPConfig(max_iterations=30)
    _, _, conv_d, it_d = decoder.bp_decode_batch(ctx, S, decoder.ChannelPrior(0.08), cfg)
    _, _, conv_x, it_x = decoder.bp_decode_batch(ctx, S, decoder.ChannelPrior(0.08, NoiseKind.PURE_X), cfg)
    assert conv_x.sum() > 3 * conv_d.sum()
    assert conv_x.mean() > 0.4
    assert it_x.mean() < it_d.mean() - 8


def test_random_hgp_has_large_degrees():
    for seed in (1, 2):
        ctx = decoder.DecoderContext.for_code(_random_hgp(seed))
        degrees = {slots.shape[0] for _, slots in ctx.check_slots + ctx.var_slots}
        assert max(degrees) > 16 and any(8 < d <= 16 for d in degrees)


def test_bp_matches_reference_with_vacuous_check():
    # An all-zero check row is dropped from the graph; a syndrome bit on it
    # can never be satisfied, so those trials must not converge.
    code = codes.toric(3)
    hd = np.vstack([code.hd[:4], np.zeros((1, code.hd.shape[1]), np.uint8), code.hd[4:]])
    ctx = decoder.DecoderContext(hd)
    assert ctx.active_checks.shape[0] == ctx.m - 1
    ex, ez = estimator._sample_batch(code, 0.06, NoiseKind.DEPOLARIZING, 3, 0, 200)
    S0 = code.syndromes(ex, ez)
    S = np.hstack([S0[:, :4], (np.arange(200) % 3 == 0)[:, None].astype(np.uint8), S0[:, 4:]])
    prior = decoder.ChannelPrior(0.06)
    cfg = decoder.BPConfig(max_iterations=15)
    got = decoder.bp_decode_batch(ctx, S, prior, cfg)
    want = _bp_reference(ctx, S, *_reference_prior(prior, ctx, cfg), cfg)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    assert not got[2][S[:, 4] == 1].any() and got[2][S[:, 4] == 0].any()


def test_bp_matches_reference_on_odd_degree_checks():
    # Decoupled stabilizer rows have even degree, so a shared check table pads
    # them with an even number of slots; a bare Hd with odd-degree rows makes
    # the convergence test read its padding row an odd number of times.
    rng = np.random.default_rng(4)
    hd = (rng.random((14, 3 * 10)) < 0.15).astype(np.uint8)
    ctx = decoder.DecoderContext(hd)
    assert any(np.any(np.sum(hd[ids], axis=1) % 2) for ids, _ in ctx.check_slots)
    errors = (rng.random((200, hd.shape[1])) < 0.05).astype(np.uint8)
    S = (errors @ hd.T % 2).astype(np.uint8)
    prior = decoder.ChannelPrior(0.15)
    cfg = decoder.BPConfig(max_iterations=15)
    got = decoder.bp_decode_batch(ctx, S, prior, cfg)
    want = _bp_reference(ctx, S, *_reference_prior(prior, ctx, cfg), cfg)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    assert got[2].any() and not got[2].all()


def test_empty_batch_returns_at_once(monkeypatch):
    code = codes.chamon(2, 2, 2)
    ctx = decoder.DecoderContext.for_code(code)

    def no_iterations(*args):
        raise AssertionError("an empty batch ran a BP iteration")

    monkeypatch.setattr(decoder, "_decision_bits_from_llr", no_iterations)
    bits, post, conv, iters = decoder.bp_decode_batch(
        ctx, np.zeros((0, ctx.m), np.uint8), decoder.ChannelPrior(0.1), decoder.BPConfig())
    assert bits.shape == (0, ctx.nbits) and post.shape == (0, ctx.nbits)
    assert conv.shape == (0,) and iters.shape == (0,)


def test_decision_bits_match_argmax_rule_with_ties():
    # LLRs from a small grid, so exact ties (and zeros) are common.
    rng = np.random.default_rng(5)
    n = 7
    llr = rng.choice(np.array([-2.0, -1.0, -0.0, 0.0, 1.0], np.float32), size=(500, 3 * n))
    got = decoder._decision_bits_from_llr(np.ascontiguousarray(llr.T), n)
    assert np.array_equal(got, _decision_reference(llr, n).T)


@pytest.mark.parametrize("degree", list(range(1, 41)) + [129, 130, 137, 200, 300])
def test_ordered_sum_matches_reduceat(degree):
    # The BP sums rely on adding in np.add.reduceat's order; a numpy that
    # changes that order must fail here rather than change reports.
    rng = np.random.default_rng(degree)
    k, b = 5, 33
    g = rng.standard_normal((degree, k, b)).astype(np.float32)
    g *= rng.choice(np.array([1e-6, 1.0, 1e6], np.float32), size=g.shape)
    g[rng.random(g.shape) < 0.1] = 0.0
    g[rng.random(g.shape) < 0.05] = -0.0
    got = decoder._ordered_sum(g.copy())  # the sum uses its input as scratch
    rows = np.ascontiguousarray(g.reshape(degree, -1).T)
    want = np.add.reduceat(rows, [0], axis=1)[:, 0].reshape(k, b)
    assert got.dtype == np.float32
    assert np.array_equal(got, want)
    if degree <= decoder._SHARED_DEGREE:
        # Shared tables pad short sums with zero rows at the end.
        pad = np.zeros((decoder._SHARED_DEGREE - degree, k, b), np.float32)
        assert np.array_equal(decoder._ordered_sum(np.concatenate([g, pad])), want)
    else:
        # From 9 terms on, a sequential float32 sum differs on these inputs,
        # so the comparison can tell the orders apart.
        naive = g[0].copy()
        for i in range(1, degree):
            naive += g[i]
        assert not np.array_equal(naive, want)


def test_bp_memory_per_trial_edge():
    # Guards BP's peak working set (18-26 B per trial-edge on the shipped
    # codes); the bound does not size the estimator's chunks.
    import tracemalloc

    code = codes.chamon(3, 3, 3)
    ctx = decoder.DecoderContext.for_code(code)
    batch = 500
    ex, ez = estimator._sample_batch(code, 0.08, NoiseKind.DEPOLARIZING, 9, 0, batch)
    S = code.syndromes(ex, ez)
    tracemalloc.start()
    try:
        decoder.bp_decode_batch(ctx, S, decoder.ChannelPrior(0.08), decoder.BPConfig(max_iterations=30))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 * batch * ctx.num_edges
