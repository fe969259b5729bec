"""Decoder tests: syndrome consistency as a certified contract, exact
hard-decision semantics, and OSD behaviour on non-converged syndromes."""

import dataclasses
import math
import sys
import threading

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
    n = 4
    depol = decoder.ChannelPrior(0.3)  # positional rate, depolarizing by default
    assert depol.noise == NoiseKind.DEPOLARIZING
    assert np.array_equal(depol.bit_probs(n), np.full(3 * n, 0.3 / 3.0))
    llr = depol.llrs(n)
    assert llr.dtype == np.float32 and llr.shape == (3 * n,)
    # Exactly the float32 of math.log, on which depolarizing reports rest.
    assert np.array_equal(llr, np.full(3 * n, np.float32(math.log((1.0 - 0.1) / 0.1))))

    pure_x = decoder.ChannelPrior(0.3, NoiseKind.PURE_X)
    assert np.array_equal(pure_x.bit_probs(n), np.repeat([0.3, 0.0, 0.0], n))
    llr = pure_x.llrs(n)
    assert llr.dtype == np.float32
    assert np.array_equal(llr[:n], np.full(n, np.float32(math.log(0.7 / 0.3))))
    assert np.array_equal(llr[n:], np.full(2 * n, np.float32(decoder.CERTAIN_LLR)))
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            decoder.ChannelPrior(bad)
        with pytest.raises(ValueError):
            decoder.ChannelPrior(bad, NoiseKind.PURE_X)
    # An unknown noise kind must not fall back to the depolarizing prior.
    assert decoder.ChannelPrior(0.3, "pureX").noise is NoiseKind.PURE_X
    with pytest.raises(ValueError):
        decoder.ChannelPrior(0.3, "pure-x")
    # The rate is stored as a Python float, so priors that compare equal
    # hash equal, as the context's per-prior memos need.
    narrow = decoder.ChannelPrior(np.float32(0.1))
    assert type(narrow.p) is float and narrow.p == float(np.float32(0.1))
    assert narrow != decoder.ChannelPrior(0.1)
    for same in (np.float64(0.1), 0.1):
        q = decoder.ChannelPrior(same)
        assert type(q.p) is float and q == decoder.ChannelPrior(0.1) and hash(q) == hash(decoder.ChannelPrior(0.1))
    again = decoder.ChannelPrior(np.float32(0.1))
    assert again == narrow and hash(again) == hash(narrow)
    for bad in (True, "0.1", None, 0.1 + 0j, np.array([0.1])):
        with pytest.raises(ValueError, match="real"):
            decoder.ChannelPrior(bad)


def test_noise_kind_is_reexported_by_estimator():
    assert estimator.NoiseKind is decoder.NoiseKind


def test_bp_config_validation():
    with pytest.raises(ValueError):
        decoder.BPConfig(max_iterations=0)
    for bad in (2.5, True):
        with pytest.raises(ValueError, match="integer"):
            decoder.BPConfig(max_iterations=bad)
    # The iteration budget is the decoder's only setting.
    assert [f.name for f in dataclasses.fields(decoder.BPConfig)] == ["max_iterations"]


def _llr(post):
    post = np.asarray(post, dtype=np.float64)
    return np.log((1 - post) / post).astype(np.float32)


def _decision_bits(llr, n):
    """BP's hard decision (decoder._decide) on a (3n, B) LLR array."""
    bits = np.empty(llr.shape, np.uint8)
    decoder._decide(*decoder._blocks(llr, n), *decoder._blocks(bits.view(bool), n))
    return bits


def test_hard_decision_prefers_identity_on_ties():
    # All three bit marginals at 0.5 score the four classes equally.
    bits = _decision_bits(_llr(np.full((3, 1), 0.5)), 1)
    assert not bits.any()


def test_hard_decision_picks_dominant_class():
    # Strong Y marginal on qubit 0, strong X on qubit 1.
    post = np.array([[0.01, 0.9, 0.01, 0.05, 0.95, 0.02]]).T
    bits = _decision_bits(_llr(post), 2)
    assert pauli.to_string(pauli.to_symplectic(bits[:, 0])) == "YX"


def test_hard_decision_rejects_bad_shape():
    with pytest.raises(ValueError):
        decoder._blocks(np.zeros((4, 1), np.float32), 1)
    with pytest.raises(ValueError):
        decoder._blocks(np.zeros(3, np.float32), 1)


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
    batched = _decision_bits(_llr(post.T), n)
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
    # BP's sums add in order whatever the batch width, so a batch of one
    # gives the 30-trial batch's posteriors bit for bit, also where a
    # check's degree (12 on chamon_2_2_2) is above 8.
    rng = np.random.default_rng(3)
    prior = decoder.ChannelPrior(0.08)
    cfg = decoder.BPConfig(max_iterations=20)
    for code in (codes.planar_surface(3), codes.chamon(2, 2, 2)):
        ctx = decoder.DecoderContext.for_code(code)
        S = np.zeros((30, ctx.m), dtype=np.uint8)
        for i in range(30):
            ex = rng.integers(0, 2, code.n, dtype=np.uint8)
            ez = rng.integers(0, 2, code.n, dtype=np.uint8)
            S[i] = code.syndrome(pauli.SymplecticPauli.from_arrays(ex, ez)).bits
        bits, post, conv, iters = decoder.bp_decode_batch(ctx, S, [prior], cfg)
        assert not conv.all()
        for i in range(30):
            b1, p1, c1, i1 = decoder.bp_decode(ctx, S[i], prior, cfg)
            assert np.array_equal(bits[i], b1)
            assert conv[i] == c1 and iters[i] == i1
            assert np.array_equal(post[i], p1)


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
        raw = decoder.osd_post_process(ctx, s.bits[None, :], post[None, :], prior)
        assert raw.shape == (1, ctx.nbits)
        got = pauli.syndrome_decoupled(code.hd, raw[0])
        assert got == s


@pytest.mark.parametrize("make", [lambda: codes.toric(3), lambda: codes.chamon(3, 3, 3), lambda: codes.ztgre(5)])
def test_batched_osd_matches_single_on_failed_trials(make, monkeypatch):
    # Toric and Chamon have dependent generators (rank(Hd) < m); ztgre is
    # Z-only, so a third of Hd's columns are zero.  Posteriors are BP's own
    # from trials it failed to decode, the inputs OSD-0 sees in a sweep.
    # OSD-0 ranks and solves the batch in blocks of 4 trials here: the
    # reliability keys of 4 trials fill its key budget.
    code = make()
    ctx = decoder.DecoderContext.for_code(code)
    solver = ctx.channel_columns(decoder.ChannelPrior(0.12))
    monkeypatch.setattr(decoder, "_KEY_BYTES", 4 * 16 * solver.cols)
    blocks = []
    solve_batch = gf2.SelectedSolver.solve_batch

    def spy(self, S, orders):
        blocks.append(S.shape[0])
        return solve_batch(self, S, orders)

    monkeypatch.setattr(gf2.SelectedSolver, "solve_batch", spy)
    kind = NoiseKind.PURE_X if code.name.startswith("ztgre") else NoiseKind.DEPOLARIZING
    ex, ez = estimator._sample_batch(code, 0.12, kind, 5, 0, 0, 120)
    errors = [pauli.SymplecticPauli.from_arrays(x, z) for x, z in zip(ex, ez)]
    S = np.array([code.syndrome(e).bits for e in errors], dtype=np.uint8)
    prior = decoder.ChannelPrior(0.12)
    _, post, conv, _ = decoder.bp_decode_batch(ctx, S, [prior], decoder.BPConfig(max_iterations=8))
    S, post = S[~conv], post[~conv]
    assert S.shape[0] >= 10
    batch = decoder.osd_post_process(ctx, S, post, prior)
    assert batch.shape == (S.shape[0], ctx.nbits)
    assert blocks == [4] * (S.shape[0] // 4) + [S.shape[0] % 4] * (S.shape[0] % 4 > 0)
    for i in range(S.shape[0]):
        # Reference: the serial solve on columns by descending posterior, ties by index.
        order = np.lexsort((np.arange(ctx.nbits), -post[i]))
        ref = gf2.solve_selected(ctx.hd, S[i], order)
        assert np.array_equal(batch[i], ref)
        assert np.array_equal(decoder.osd_post_process(ctx, S[i : i + 1], post[i : i + 1], prior)[0], ref)
        assert np.array_equal(pauli.syndrome_decoupled(code.hd, ref).bits, S[i])


def test_osd_infeasible_syndrome_raises():
    code = codes.toric(2)  # dependent generators: some syndromes are unreachable
    ctx = decoder.DecoderContext.for_code(code)
    assert gf2.rank(ctx.hd) < ctx.m
    s = np.zeros(ctx.m, dtype=np.uint8)
    s[0] = 1  # a lone violated check cannot happen on a torus
    post = np.full(ctx.nbits, 0.1)
    prior = decoder.ChannelPrior(0.1)
    with pytest.raises(RuntimeError):
        decoder.osd_post_process(ctx, s[None, :], post[None, :], prior)
    # OSD takes batches only: one syndrome needs a batch axis.
    with pytest.raises(ValueError):
        decoder.osd_post_process(ctx, np.zeros(ctx.m, np.uint8), post, prior)


def test_osd_prefers_reliable_columns():
    # With posteriors forced onto the true support, OSD-0 recovers it exactly.
    code = codes.planar_surface(3)
    ctx = decoder.DecoderContext.for_code(code)
    err = pauli.from_string("X" + "I" * (code.n - 1))
    d = pauli.to_decoupled(err)
    post = np.where(d > 0, 0.9, 0.001)
    raw = decoder.osd_post_process(ctx, code.syndrome(err).bits[None, :], post[None, :], decoder.ChannelPrior(0.1))
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
        if not out.bp_converged:
            saw_osd = True  # the estimate is OSD-0's
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
                                [decoder.ChannelPrior(0.1)], decoder.BPConfig())


# ---------------------------------------------------------------------------
# Reference BP kernel: the trial-major segment-sum kernel that
# bp_decode_batch replaced, kept unchanged apart from building its edge
# layout from the context's edge lists, taking the prior as per-bit (3n,)
# LLRs and probabilities in place of one scalar of each, the stall rule,
# and summing each segment strictly left to right (np.add.reduceat sums
# pairwise).  bp_decode_batch must reproduce it bit for bit.


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
    """Sum each segment values[..., ptr[i]:ptr[i + 1]] strictly left to
    right, starting from -0.0 (0 for integers)."""
    deg = np.diff(np.append(ptr, values.shape[-1]))
    out = np.full(values.shape[:-1] + deg.shape, -0.0, values.dtype)
    for j in range(deg.max(initial=0)):
        has = deg > j
        out[..., has] += values[..., ptr[has] + j]
    return out


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


def _bp_reference(ctx, syndromes, prior_llr, prior_prob, cfg, stall=decoder._STALL_ITERATIONS):
    """stall: a trial that is not converged finishes once its set of
    unsatisfied checks is the same at stall + 1 consecutive iterations;
    None never stalls."""
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

    edge_var = ctx.edge_var
    edge_check = ctx.edge_check
    inactive = np.setdiff1d(np.arange(ctx.m), ctx.active_checks)
    vacuous_ok = ~S[:, inactive].any(axis=1) if inactive.size else np.ones(B, dtype=bool)

    active = np.arange(B)
    s_act = S[:, ctx.active_checks]
    sign_act = (1.0 - 2.0 * s_act).astype(_MSG_DTYPE)
    vac_ok = vacuous_ok
    cur_mcv = np.zeros((B, ctx.num_edges), dtype=_MSG_DTYPE)
    history = []  # (trials, checks) unsatisfied sets of the last stall + 1 iterations

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
        cur_mcv = np.clip(2.0 * np.arctanh(prod), -decoder.CERTAIN_LLR, decoder.CERTAIN_LLR)

        tot = posterior_llr(cur_mcv)
        bits = _decision_reference(tot, n)
        parity = (_segment_sum(bits[:, edge_var].astype(np.int64), check_ptr) & 1).astype(np.uint8)
        unsat = parity != s_act
        ok = ~np.any(unsat, axis=1) & vac_ok
        stalled = np.zeros(active.shape[0], dtype=bool)
        if stall is not None:
            history = (history + [unsat])[-(stall + 1) :]
            if len(history) == stall + 1:
                stalled = np.all([(h == unsat).all(axis=1) for h in history], axis=0)

        done = ok | stalled if it < cfg.max_iterations else np.ones(active.shape[0], dtype=bool)
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
            history = [h[keep] for h in history]
    return out_bits, out_post, out_conv, out_iter


def _assert_matches_reference(got, want):
    """BP's outputs equal the reference's: decisions, convergence flags and
    iteration counts of every trial, and the float32 posteriors of the
    trials that did not converge, the rows OSD-0 reads (zeros elsewhere)."""
    bits, post, conv, iters = got
    w_bits, w_post, w_conv, w_iters = want
    for g, w in ((bits, w_bits), (conv, w_conv), (iters, w_iters)):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert np.array_equal(g, w)
    # The reference's float64 posteriors hold float32 values, so comparing
    # after promotion is exact.
    assert post.shape == w_post.shape and post.dtype == np.float32
    assert np.array_equal(post[~conv], w_post[~conv])
    assert not post[conv].any()


def _random_hgp(seed):
    # Dense random classical checks: decoupled check and variable degrees
    # well above 8, so the in-order sums run past one 7-row reduce and
    # pad low-degree owners with many neutral rows.
    rng = np.random.default_rng(seed)
    h1 = (rng.random((5, 8)) < 0.5).astype(np.uint8)
    h2 = (rng.random((4, 7)) < 0.5).astype(np.uint8)
    return codes.hypergraph_product(h1, h2)


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


def _reference_prior(prior, ctx):
    n = ctx.nbits // 3
    return prior.llrs(n), prior.bit_probs(n)


@pytest.mark.parametrize("batch", [0, 1, 300])
@pytest.mark.parametrize("make,kind", REFERENCE_CASES)
def test_bp_matches_reference(make, kind, batch):
    code = make()
    ctx = decoder.DecoderContext.for_code(code)
    ex, ez = estimator._sample_batch(code, 0.09, kind, 17, 0, 0, batch)
    S = code.syndromes(ex, ez)
    prior = decoder.ChannelPrior(0.09, kind)
    cfg = decoder.BPConfig(max_iterations=20)
    got = decoder.bp_decode_batch(ctx, S, [prior], cfg)
    want = _bp_reference(ctx, S, *_reference_prior(prior, ctx), cfg)
    _assert_matches_reference(got, want)
    if batch == 300:
        # Both branches of the iteration loop ran: some trials converged early
        # and some did not converge at all.
        assert got[2].any() and not got[2].all()


# Pure-X priors at the edges of the X bits' LLR, on codes whose Z and Y bits
# all carry CERTAIN_LLR.
EDGE_PRIOR_CASES = [
    # p = 0.5: the X bits' prior LLR is exactly 0, and tanh(0) sits on the
    # log floor.
    pytest.param(lambda: codes.toric(3), 0.5, id="toric_3-0.5"),
    pytest.param(lambda: codes.chamon(3, 3, 3), 0.5, id="chamon_3_3_3-0.5"),
    pytest.param(lambda: codes.ztgre(5), 0.5, id="ztgre_5-0.5"),
    # p = 0.7: a negative prior LLR, so iteration 1 already sends negative
    # messages.
    pytest.param(lambda: codes.toric(3), 0.7, id="toric_3-0.7"),
    pytest.param(lambda: codes.ztgre(5), 0.7, id="ztgre_5-0.7"),
]


@pytest.mark.parametrize("batch", [0, 1, 300])
@pytest.mark.parametrize("make,p", EDGE_PRIOR_CASES)
def test_bp_matches_reference_on_edge_priors(make, p, batch):
    code = make()
    ctx = decoder.DecoderContext.for_code(code)
    ex, ez = estimator._sample_batch(code, p, NoiseKind.PURE_X, 23, 0, 0, batch)
    S = code.syndromes(ex, ez)
    prior = decoder.ChannelPrior(p, NoiseKind.PURE_X)
    cfg = decoder.BPConfig(max_iterations=12)
    got = decoder.bp_decode_batch(ctx, S, [prior], cfg)
    want = _bp_reference(ctx, S, *_reference_prior(prior, ctx), cfg)
    _assert_matches_reference(got, want)


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
def test_bp_matches_reference_when_clip_binds(make, kind, p, clip, batch, monkeypatch):
    # The kernel's one clip on messages is the float32 bound on |tanh| and on
    # the check product, so a message is at most 2 * arctanh(_PROD_HI).
    # Lowering the bound to tanh(clip / 2) caps messages at +-clip, so it binds
    # on far more messages than at the default; the reference reads the same
    # bound.
    eps = 1.0 - math.tanh(0.5 * clip)
    monkeypatch.setattr(decoder, "_TANH_EPS", eps)
    monkeypatch.setattr(decoder, "_PROD_HI", decoder._MSG_DTYPE(1.0 - eps))
    code = make()
    ctx = decoder.DecoderContext.for_code(code)
    ex, ez = estimator._sample_batch(code, p, kind, 23, 0, 0, batch)
    S = code.syndromes(ex, ez)
    prior = decoder.ChannelPrior(p, kind)
    cfg = decoder.BPConfig(max_iterations=12)
    got = decoder.bp_decode_batch(ctx, S, [prior], cfg)
    want = _bp_reference(ctx, S, *_reference_prior(prior, ctx), cfg)
    _assert_matches_reference(got, want)


def test_certain_llr_exceeds_every_message():
    # A message is 2 * arctanh of a check product held within 1 - _TANH_EPS,
    # so none reaches the prior LLR of a bit the channel cannot flip.
    top = 2.0 * np.arctanh(np.float32(1.0 - decoder._TANH_EPS))
    assert top < decoder.CERTAIN_LLR


def test_matched_prior_converges_on_pure_x_errors():
    # In a Z-only code the X and Y columns of Hd are identical; the
    # depolarizing prior gives BP no reason to prefer X over Y, the pure-X
    # prior does.
    code = codes.ztgre(6)
    ctx = decoder.DecoderContext.for_code(code)
    ex, ez = estimator._sample_batch(code, 0.08, NoiseKind.PURE_X, 1, 0, 0, 200)
    S = code.syndromes(ex, ez)
    cfg = decoder.BPConfig(max_iterations=30)
    _, _, conv_d, it_d = decoder.bp_decode_batch(ctx, S, [decoder.ChannelPrior(0.08)], cfg)
    _, _, conv_x, it_x = decoder.bp_decode_batch(ctx, S, [decoder.ChannelPrior(0.08, NoiseKind.PURE_X)], cfg)
    assert conv_x.sum() > 3 * conv_d.sum()
    assert conv_x.mean() > 0.4
    assert it_x.mean() < it_d.mean() - 8


def test_random_hgp_has_large_degrees():
    # Each side has one slot table, padded to its largest degree.  On these
    # codes both tables are deeper than one 7-row reduce, the check table
    # more than twice as deep, and both hold owners of at most 8 edges,
    # whose sums run through the padding.
    for seed in (1, 2):
        ctx = decoder.DecoderContext.for_code(_random_hgp(seed))
        for owner, slots, deepest in ((ctx.edge_check, ctx.check_slots, 16), (ctx.edge_var, ctx.var_slots, 8)):
            degrees = np.bincount(owner)
            assert slots.shape == (degrees.max(), np.count_nonzero(degrees))
            assert slots.shape[0] > deepest and 0 < degrees[degrees > 0].min() <= 8


def test_bp_matches_reference_with_vacuous_check():
    # An all-zero check row is dropped from the graph; a syndrome bit on it
    # can never be satisfied, so those trials must not converge.
    code = codes.toric(3)
    hd = np.vstack([code.hd[:4], np.zeros((1, code.hd.shape[1]), np.uint8), code.hd[4:]])
    ctx = decoder.DecoderContext(hd)
    assert ctx.active_checks.shape[0] == ctx.m - 1
    ex, ez = estimator._sample_batch(code, 0.06, NoiseKind.DEPOLARIZING, 3, 0, 0, 200)
    S0 = code.syndromes(ex, ez)
    S = np.hstack([S0[:, :4], (np.arange(200) % 3 == 0)[:, None].astype(np.uint8), S0[:, 4:]])
    prior = decoder.ChannelPrior(0.06)
    cfg = decoder.BPConfig(max_iterations=15)
    got = decoder.bp_decode_batch(ctx, S, [prior], cfg)
    want = _bp_reference(ctx, S, *_reference_prior(prior, ctx), cfg)
    _assert_matches_reference(got, want)
    assert not got[2][S[:, 4] == 1].any() and got[2][S[:, 4] == 0].any()


@pytest.mark.parametrize("kind", list(NoiseKind))
def test_bp_decodes_an_edgeless_graph_in_its_loop(kind):
    # Every generator is the identity, so the Tanner graph has no edges and
    # every check is vacuous: BP runs its one loop over no messages.
    code = codes.StabilizerCode("edgeless", np.zeros((2, 3), np.uint8), np.zeros((2, 3), np.uint8))
    ctx = decoder.DecoderContext.for_code(code)
    assert ctx.num_edges == 0 and ctx.vacuous_checks.shape[0] == ctx.m
    S = np.array([[0, 0], [1, 0], [0, 1], [1, 1], [0, 0]], np.uint8)
    zero = ~S.any(axis=1)
    prior = decoder.ChannelPrior(0.1, kind)
    cfg = decoder.BPConfig(max_iterations=30)
    got = decoder.bp_decode_batch(ctx, S, [prior], cfg)
    _assert_matches_reference(got, _bp_reference(ctx, S, *_reference_prior(prior, ctx), cfg))
    bits, post, conv, iters = got
    # Zero syndromes converge at iteration 1 on the identity.  A syndrome
    # bit on a vacuous check can never be met, so its trial stalls, as on
    # any graph, with the prior as its posterior; a bit the channel cannot
    # flip reads 1 / (1 + exp(CERTAIN_LLR)) there, not 0.
    assert not bits.any() and np.array_equal(conv, zero)
    assert np.array_equal(iters, np.where(zero, 1, decoder._STALL_ITERATIONS + 1))
    np.testing.assert_allclose(post[~zero], np.broadcast_to(prior.bit_probs(code.n), (3, ctx.nbits)), rtol=1e-6, atol=1e-12)
    assert decoder.bp_decode_batch(ctx, S, [prior], decoder.BPConfig(max_iterations=2))[3].max() == 2
    # No error makes a nonzero syndrome, so OSD-0 cannot solve one.
    with pytest.raises(decoder.InfeasibleSyndrome):
        decoder.decode(code, pauli.Syndrome(S[1]), prior, cfg)
    # Every error is a logical operator: a sweep finds one of weight 1.
    rep = estimator.estimate_upper_bound(
        code, estimator.TrialConfig(rates=(0.1,), trials_per_rate=50, master_seed=1, noise_kind=kind), workers=1)
    assert rep.upper_bound == 1 and estimator.verify_witness(code, rep.witness, 1, kind)


def test_bp_matches_reference_on_odd_degree_checks():
    # Decoupled stabilizer rows have even degree, so the check table pads
    # them with an even number of slots when its largest degree is even; a
    # bare Hd with odd-degree rows makes the convergence test read its
    # padding row an odd number of times.
    rng = np.random.default_rng(4)
    hd = (rng.random((14, 3 * 10)) < 0.15).astype(np.uint8)
    ctx = decoder.DecoderContext(hd)
    pads = (ctx.check_slots == ctx.num_edges).sum(axis=0)
    assert np.any(pads % 2)
    errors = (rng.random((200, hd.shape[1])) < 0.05).astype(np.uint8)
    S = (errors @ hd.T % 2).astype(np.uint8)
    prior = decoder.ChannelPrior(0.15)
    cfg = decoder.BPConfig(max_iterations=15)
    got = decoder.bp_decode_batch(ctx, S, [prior], cfg)
    want = _bp_reference(ctx, S, *_reference_prior(prior, ctx), cfg)
    _assert_matches_reference(got, want)
    assert got[2].any() and not got[2].all()


def test_bp_matches_reference_on_one_deep_check():
    # One check of degree above 8, decoded one trial at a time: its sum is
    # then a (degree, 1, 1) stack, the shape where a single np.add.reduce
    # would add pairwise instead of in order.  The identity never meets a
    # syndrome bit of 1, so BP runs on and its posteriors are compared bit
    # for bit, under both noise kinds and many rates.
    rng = np.random.default_rng(6)
    hd = (rng.random((1, 3 * 12)) < 0.6).astype(np.uint8)
    ctx = decoder.DecoderContext(hd)
    assert ctx.check_slots.shape[1] == 1 and ctx.check_slots.shape[0] > 8
    S = np.ones((1, 1), np.uint8)
    cfg = decoder.BPConfig(max_iterations=6)
    for kind in NoiseKind:
        for p in (0.02, 0.05, 0.07, 0.1, 0.13, 0.2, 0.3, 0.45):
            prior = decoder.ChannelPrior(p, kind)
            got = decoder.bp_decode_batch(ctx, S, [prior], cfg)
            _assert_matches_reference(got, _bp_reference(ctx, S, *_reference_prior(prior, ctx), cfg))


# ---------------------------------------------------------------------------
# Iteration 1 fills its check messages from a table built once per context
# and prior; at max_iterations=1 the outputs are that iteration's alone.


def _assert_first_iteration_matches_reference(ctx, S, prior):
    cfg = decoder.BPConfig(max_iterations=1)
    got = decoder.bp_decode_batch(ctx, S, [prior], cfg)
    want = _bp_reference(ctx, S, *_reference_prior(prior, ctx), cfg)
    _assert_matches_reference(got, want)
    return got


@pytest.mark.parametrize("batch", [1, 300])
@pytest.mark.parametrize("make,kind", REFERENCE_CASES)
def test_first_iteration_matches_reference(make, kind, batch):
    code = make()
    ex, ez = estimator._sample_batch(code, 0.09, kind, 19, 0, 0, batch)
    _assert_first_iteration_matches_reference(
        decoder.DecoderContext.for_code(code), code.syndromes(ex, ez), decoder.ChannelPrior(0.09, kind))


@pytest.mark.parametrize("make,p", EDGE_PRIOR_CASES)
def test_first_iteration_matches_reference_on_edge_priors(make, p):
    code = make()
    ex, ez = estimator._sample_batch(code, p, NoiseKind.PURE_X, 31, 0, 0, 300)
    S = code.syndromes(ex, ez)
    ctx = decoder.DecoderContext.for_code(code)
    _assert_first_iteration_matches_reference(ctx, S, decoder.ChannelPrior(p, NoiseKind.PURE_X))
    # And with a depolarizing prior on the same syndromes.
    _assert_first_iteration_matches_reference(ctx, S, decoder.ChannelPrior(p))


def test_first_iteration_matches_reference_with_vacuous_check():
    code = codes.toric(3)
    hd = np.vstack([code.hd[:4], np.zeros((1, code.hd.shape[1]), np.uint8), code.hd[4:]])
    ctx = decoder.DecoderContext(hd)
    ex, ez = estimator._sample_batch(code, 0.06, NoiseKind.DEPOLARIZING, 3, 0, 0, 200)
    S0 = code.syndromes(ex, ez)
    S = np.hstack([S0[:, :4], (np.arange(200) % 3 == 0)[:, None].astype(np.uint8), S0[:, 4:]])
    got = _assert_first_iteration_matches_reference(ctx, S, decoder.ChannelPrior(0.06))
    assert not got[2][S[:, 4] == 1].any() and got[2][S[:, 4] == 0].any()


def test_decode_builds_first_messages_once_per_prior(monkeypatch):
    builds = []
    real = decoder._first_check_messages

    def counted(ctx, prior):
        builds.append(prior)
        return real(ctx, prior)

    monkeypatch.setattr(decoder, "_first_check_messages", counted)
    code = codes.planar_surface(5)
    ctx = decoder.DecoderContext.for_code(code)
    cfg = decoder.BPConfig(max_iterations=10)
    ex, ez = estimator._sample_batch(code, 0.1, NoiseKind.DEPOLARIZING, 7, 0, 0, 2)
    for x, z in zip(ex, ez):
        # A new but equal prior on each call.
        decoder.decode(code, code.syndrome(pauli.SymplecticPauli.from_arrays(x, z)), decoder.ChannelPrior(0.1), cfg)
        table = ctx.first_messages(decoder.ChannelPrior(0.1))
        assert table is ctx.first_messages(decoder.ChannelPrior(0.1))
    assert builds == [decoder.ChannelPrior(0.1)]
    for part in table:
        assert part.shape == (ctx.num_edges, 1) and part.dtype == np.uint32 and not part.flags.writeable
    # Another prior is another table.
    other = ctx.first_messages(decoder.ChannelPrior(0.1, NoiseKind.PURE_X))
    assert len(builds) == 2 and other is not table
    assert other is ctx.first_messages(decoder.ChannelPrior(0.1, NoiseKind.PURE_X))


def test_osd_channel_columns_are_built_once_per_noise_kind():
    code = codes.ztgre(4)
    ctx = decoder.DecoderContext(code.hd)
    n = code.n
    dep = ctx.channel_columns(decoder.ChannelPrior(0.1))
    assert dep is ctx.channel_columns(decoder.ChannelPrior(0.05))
    px = ctx.channel_columns(decoder.ChannelPrior(0.1, NoiseKind.PURE_X))
    assert px is ctx.channel_columns(decoder.ChannelPrior(0.3, NoiseKind.PURE_X))
    # Each solver holds its columns as ints: bit i is row i, and bit m + c
    # tags column c.
    for solver, want in ((dep, np.arange(3 * n)), (px, np.arange(n))):
        assert (solver.rows, solver.cols) == (ctx.m, want.shape[0])
        assert isinstance(solver.columns, tuple) and len(solver.columns) == want.shape[0]
        for c, v in enumerate(solver.columns):
            assert v >> ctx.m == 1 << c
            assert [v >> i & 1 for i in range(ctx.m)] == ctx.hd[:, want[c]].tolist()


def test_empty_batch_returns_at_once(monkeypatch):
    code = codes.chamon(2, 2, 2)
    ctx = decoder.DecoderContext.for_code(code)

    def no_iterations(*args):
        raise AssertionError("an empty batch ran a BP iteration")

    monkeypatch.setattr(decoder, "_decide", no_iterations)  # every iteration's hard decision
    bits, post, conv, iters = decoder.bp_decode_batch(
        ctx, np.zeros((0, ctx.m), np.uint8), [decoder.ChannelPrior(0.1)], decoder.BPConfig())
    assert bits.shape == (0, ctx.nbits) and post.shape == (0, ctx.nbits)
    assert conv.shape == (0,) and iters.shape == (0,)


def test_decision_bits_match_argmax_rule_with_ties():
    # LLRs from a small grid, so exact ties (and zeros) are common.
    rng = np.random.default_rng(5)
    n = 7
    llr = rng.choice(np.array([-2.0, -1.0, -0.0, 0.0, 1.0], np.float32), size=(500, 3 * n))
    got = _decision_bits(np.ascontiguousarray(llr.T), n)
    assert np.array_equal(got, _decision_reference(llr, n).T)


def _left_to_right(stack):
    total = np.full(stack.shape[1:], -0.0, np.float32)
    for row in stack:
        total += row
    return total


@pytest.mark.parametrize("degree", list(range(1, 41)) + [129, 130, 137, 200, 300])
def test_in_order_sum_adds_left_to_right(degree):
    # BP's check and variable sums add each stack strictly left to right
    # from -0.0, bit for bit as _left_to_right's loop over its rows does,
    # whatever the shape of the other axes: so a batch of one decodes as a
    # wide batch does, and a numpy whose reduce over an outer axis stops
    # adding in order fails here rather than changing reports.  At (1, 1)
    # one np.add.reduce would sum 8 or more terms pairwise.
    left_to_right = _left_to_right
    rng = np.random.default_rng(degree)
    for k, b in [(1, 1), (1, 6), (4, 1), (5, 33)]:
        g = rng.standard_normal((degree, k, b)).astype(np.float32)
        g *= rng.choice(np.array([1e-6, 1.0, 1e6], np.float32), size=g.shape)
        g[rng.random(g.shape) < 0.1] = 0.0
        g[rng.random(g.shape) < 0.1] = -0.0
        for stack in (g, np.full_like(g, -0.0)):
            if b > 1:
                stack = stack.copy()
                stack[:, :, 0] = -0.0  # an all-(-0.0) column next to mixed ones
            got = decoder._in_order(stack, np.empty((k, b), np.float32))
            assert np.array_equal(got.view(np.uint32), left_to_right(stack).view(np.uint32))
    if degree > 8:
        # numpy's pairwise sum of a contiguous axis differs from the loop on
        # these inputs, so the comparison can tell the orders apart.
        pairwise = np.add.reduce(np.ascontiguousarray(g.reshape(degree, -1).T), axis=1)
        assert not np.array_equal(pairwise, left_to_right(g).reshape(-1))


def test_bp_memory_per_trial_edge():
    # Guards BP's peak working set (18-26 B per trial-edge on the shipped
    # codes); the bound does not size the estimator's chunks.
    import tracemalloc

    code = codes.chamon(3, 3, 3)
    ctx = decoder.DecoderContext.for_code(code)
    batch = 500
    ex, ez = estimator._sample_batch(code, 0.08, NoiseKind.DEPOLARIZING, 9, 0, 0, batch)
    S = code.syndromes(ex, ez)
    tracemalloc.start()
    try:
        decoder.bp_decode_batch(ctx, S, [decoder.ChannelPrior(0.08)], decoder.BPConfig(max_iterations=30))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 * batch * ctx.num_edges


def test_bp_memory_stops_growing_past_the_width():
    # A batch wider than the workspace runs through the same columns, so
    # beyond that only the per-trial inputs and outputs grow: the decisions
    # and float32 posteriors (5 bytes per bit), the syndrome bits in check
    # order (twice, while they are converted) and a few flags and counts.
    import tracemalloc

    code = codes.chamon(3, 3, 3)
    ctx = decoder.DecoderContext.for_code(code)
    width = decoder._WIDTH_BYTES // sum(decoder._column_bytes(ctx))
    ex, ez = estimator._sample_batch(code, 0.08, NoiseKind.DEPOLARIZING, 9, 0, 0, 4 * width)
    S = code.syndromes(ex, ez)
    prior, cfg = decoder.ChannelPrior(0.08), decoder.BPConfig(max_iterations=30)
    decoder.bp_decode_batch(ctx, S[:1], [prior], cfg)  # builds the first-message table

    def peak(batch):
        tracemalloc.start()
        try:
            decoder.bp_decode_batch(ctx, S[:batch], [prior], cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    per_trial = 5 * ctx.nbits + 2 * ctx.m + 64
    assert peak(4 * width) - peak(width) <= 3 * width * per_trial
    # The workspace alone is larger than that growth would be.
    assert 3 * width * per_trial < decoder._WIDTH_BYTES


# ---------------------------------------------------------------------------
# Refill: a batch wider than the workspace hands each finished column the
# next trial, from messages 0 and its own prior; each column counts its own
# iterations.


def _reference_per_prior(ctx, S, priors, which, cfg):
    """_bp_reference on each prior's trials, merged in trial order."""
    B, n = S.shape[0], ctx.nbits // 3
    out = [np.zeros((B, ctx.nbits), np.uint8), np.zeros((B, ctx.nbits)), np.zeros(B, bool), np.zeros(B, np.int64)]
    for k, prior in enumerate(priors):
        rows = which == k
        for o, part in zip(out, _bp_reference(ctx, S[rows], prior.llrs(n), prior.bit_probs(n), cfg)):
            o[rows] = part
    return out


def _with_vacuous_check(code):
    # toric_3's Hd with an all-zero row inserted as check 4.
    return np.vstack([code.hd[:4], np.zeros((1, code.hd.shape[1]), np.uint8), code.hd[4:]])


REFILL_CASES = [
    pytest.param(lambda: codes.chamon(3, 3, 3), NoiseKind.DEPOLARIZING, (0.04, 0.09, 0.12), False, id="chamon_3_3_3"),
    pytest.param(lambda: codes.toric(3), NoiseKind.DEPOLARIZING, (0.06, 0.1), False, id="toric_3"),
    pytest.param(lambda: codes.ztgre(5), NoiseKind.PURE_X, (0.08, 0.5), False, id="ztgre_5-pureX"),
    pytest.param(lambda: codes.toric(3), NoiseKind.PURE_X, (0.5, 0.1), False, id="toric_3-pureX"),
    pytest.param(lambda: codes.ztgre(5), NoiseKind.PURE_X, (0.08,), False, id="ztgre_5-pureX-one-prior"),
    pytest.param(lambda: codes.toric(3), NoiseKind.DEPOLARIZING, (0.06, 0.1), True, id="toric_3-vacuous"),
]


@pytest.mark.parametrize("width", [1, 3, 16])
@pytest.mark.parametrize("make,kind,rates,vacuous", REFILL_CASES)
def test_bp_refill_matches_reference(make, kind, rates, vacuous, width, monkeypatch):
    calls = _spy_compactions(monkeypatch)
    code = make()
    ctx = decoder.DecoderContext(_with_vacuous_check(code)) if vacuous else decoder.DecoderContext.for_code(code)
    monkeypatch.setattr(decoder, "_WIDTH_BYTES", width * sum(decoder._column_bytes(ctx)))
    per_rate = 40
    S = []
    for rate_idx, p in enumerate(rates):
        ex, ez = estimator._sample_batch(code, p, kind, 13, rate_idx, 0, per_rate)
        S.append(code.syndromes(ex, ez))
    S = np.vstack(S)
    if vacuous:
        S = np.hstack([S[:, :4], (np.arange(S.shape[0]) % 3 == 0)[:, None].astype(np.uint8), S[:, 4:]])
    priors = [decoder.ChannelPrior(p, kind) for p in rates]
    which = np.repeat(np.arange(len(rates)), per_rate)
    cfg = decoder.BPConfig(max_iterations=12)
    got = decoder.bp_decode_batch(ctx, S, priors, cfg, which)
    _assert_matches_reference(got, _reference_per_prior(ctx, S, priors, which, cfg))
    conv, iters = got[2], got[3]
    assert conv.any() and not conv.all() and np.unique(iters).shape[0] >= 3
    if vacuous:
        assert not conv[S[:, 4] == 1].any()
    # Columns are dropped only once every trial has had one (at width 1 the
    # last trial's column is never dropped).
    assert all(kept < w <= width for w, kept in calls) and (calls or width == 1)


def test_bp_batch_priors_share_one_noise_kind():
    code = codes.toric(2)
    ctx = decoder.DecoderContext.for_code(code)
    S = np.zeros((2, ctx.m), np.uint8)
    cfg = decoder.BPConfig(max_iterations=5)
    mixed = [decoder.ChannelPrior(0.1), decoder.ChannelPrior(0.1, NoiseKind.PURE_X)]
    with pytest.raises(ValueError, match="noise kind"):
        decoder.bp_decode_batch(ctx, S, mixed, cfg, [0, 1])
    with pytest.raises(ValueError, match="noise kind"):
        decoder.bp_decode_batch(ctx, S, [], cfg)
    for which in ([0], [0, 0, 0], [0, 2], [-1, 0], [[0, 1]]):
        with pytest.raises(ValueError, match="one prior index per syndrome"):
            decoder.bp_decode_batch(ctx, S, [decoder.ChannelPrior(0.1)] * 2, cfg, which)
    # Without indices every trial takes the first prior; a repeated prior
    # is decoded as the prior it equals.
    one = decoder.bp_decode_batch(ctx, S, [decoder.ChannelPrior(0.1)], cfg)
    two = decoder.bp_decode_batch(ctx, S, [decoder.ChannelPrior(0.1), decoder.ChannelPrior(0.1)], cfg, [1, 0])
    for a, b in zip(one, two):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# The kept workspace: a call under _KEEP_SHARE of the full width leaves its
# workspace on the context, and the next such call reuses it.

KEPT_PRIORS = [
    decoder.ChannelPrior(0.04),
    decoder.ChannelPrior(0.08),
    decoder.ChannelPrior(0.12),
    decoder.ChannelPrior(0.05, NoiseKind.PURE_X),
    decoder.ChannelPrior(0.1, NoiseKind.PURE_X),
]


def _decode_on(ctx, s, prior, cfg):
    """decode()'s pipeline on the given context: BP, then OSD-0 if BP fails."""
    bits, post, conv, iters = decoder.bp_decode(ctx, s, prior, cfg)
    if not conv:
        bits = decoder.osd_post_process(ctx, s[None, :], post[None, :], prior)[0]
    return pauli.to_symplectic(bits), conv, iters


def _assert_same_bytes(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g.view(np.uint8), w.view(np.uint8))


@pytest.mark.parametrize("vacuous", [False, True], ids=["planar_surface_5", "toric_3-vacuous"])
def test_kept_workspace_carries_no_state_between_calls(vacuous, monkeypatch):
    # One context serves decode() and bp_decode_batch calls of several
    # widths, noise kinds and rates in turn; every result equals the same
    # call's on a fresh context, bit for bit.  With a full width of 64,
    # widths 1-3 keep their workspace, 20 frees it, and 64 and 90 are full.
    code = codes.toric(3) if vacuous else codes.planar_surface(5)
    hd = _with_vacuous_check(code) if vacuous else code.hd
    ctx = decoder.DecoderContext(hd) if vacuous else decoder.DecoderContext.for_code(code)
    full = 64
    monkeypatch.setattr(decoder, "_WIDTH_BYTES", full * sum(decoder._column_bytes(ctx)))
    cfg = decoder.BPConfig(max_iterations=15)
    # 100 trials per prior, X-type errors under the pure-X priors; on the
    # vacuous context every fifth trial has a syndrome bit on the vacuous check.
    S = {}
    for k, prior in enumerate(KEPT_PRIORS):
        ex, ez = estimator._sample_batch(code, prior.p, prior.noise, 17, k, 0, 100)
        S[prior] = code.syndromes(ex, ez)
        if vacuous:
            S[prior] = np.hstack([S[prior][:, :4], (np.arange(100) % 5 == 0)[:, None].astype(np.uint8), S[prior][:, 4:]])
    rng = np.random.default_rng(3)
    widths = [1, 90, 1, 2, 1, 20, 3, 1, 64, 1, 1, 2, 90, 3, 1, 1]
    kept_any = False
    for i, width in enumerate(widths):
        kind = NoiseKind.PURE_X if i % 3 == 1 else NoiseKind.DEPOLARIZING
        priors = [q for q in KEPT_PRIORS if q.noise == kind]
        which = rng.integers(0, len(priors), width)
        batch = np.array([S[priors[w]][r] for w, r in zip(which, rng.integers(0, 100, width))])
        fresh = decoder.DecoderContext(hd)
        before = list(ctx._kept_workspace)
        if width == 1 and i % 2 == 0 and not vacuous:
            prior = priors[which[0]]
            got = decoder.decode(code, pauli.Syndrome(batch[0]), prior, cfg)
            assert (got.estimate, got.bp_converged, got.iterations) == _decode_on(fresh, batch[0], prior, cfg)
        else:
            _assert_same_bytes(decoder.bp_decode_batch(ctx, batch, priors, cfg, which),
                               decoder.bp_decode_batch(fresh, batch, priors, cfg, which))
        kept = ctx._kept_workspace
        if width < decoder._KEEP_SHARE * full:
            assert len(kept) == 1 and kept[0].width >= width
            if before and before[0].width >= width:
                assert kept[0] is before[0]  # reused, not rebuilt
                kept_any = True
        else:
            # A wider call neither keeps its workspace nor touches the kept one.
            assert len(kept) == len(before) and all(a is b for a, b in zip(kept, before))
            assert all(ws.width < decoder._KEEP_SHARE * full for ws in kept)
    assert kept_any


def test_two_threads_decode_on_one_context_as_one_does():
    # A call takes the kept workspace off the context, so a call running at
    # the same time builds its own; both threads decode every syndrome.
    cfg = decoder.BPConfig(max_iterations=15)
    code = codes.planar_surface(5)
    ex, ez = estimator._sample_batch(code, 0.1, NoiseKind.DEPOLARIZING, 23, 0, 0, 120)
    syndromes = [pauli.Syndrome(s) for s in code.syndromes(ex, ez)]
    prior = decoder.ChannelPrior(0.1)

    def run(c):
        return [(o.estimate, o.bp_converged, o.iterations) for o in (decoder.decode(c, s, prior, cfg) for s in syndromes)]

    serial = run(codes.planar_surface(5))
    shared = codes.planar_surface(5)
    results = [None, None]

    def worker(k):
        results[k] = run(shared)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so that calls overlap
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert results[0] == serial and results[1] == serial


def test_half_prior_is_built_once_per_prior():
    ctx = decoder.DecoderContext.for_code(codes.ztgre(4))
    n = ctx.nbits // 3
    for prior in (decoder.ChannelPrior(0.1), decoder.ChannelPrior(0.1, NoiseKind.PURE_X)):
        half, var_half = ctx.half_prior(prior)
        assert ctx.half_prior(decoder.ChannelPrior(prior.p, prior.noise)) is ctx.half_prior(prior)  # an equal prior
        assert half.dtype == np.float32 and half.shape == (3 * n, 1) and not half.flags.writeable
        assert np.array_equal(half[:, 0], prior.llrs(n) * np.float32(0.5))
        assert np.array_equal(var_half, half[ctx.var_ids]) and not var_half.flags.writeable


# ---------------------------------------------------------------------------
# Deferred compaction: finished trials' columns stay in the arrays until at
# least _COMPACT_DEAD_SHARE of them are finished.


def _spy_compactions(monkeypatch):
    """Record (width, kept) for every _Workspace.compact call."""
    calls = []
    compact = decoder._Workspace.compact

    def spy(ws, keep):
        calls.append((ws.msg.shape[1], keep.shape[0]))
        compact(ws, keep)

    monkeypatch.setattr(decoder._Workspace, "compact", spy)
    return calls


COMPACTION_CASES = [
    (lambda: codes.ztgre(5), NoiseKind.PURE_X),
    (lambda: codes.chamon(3, 3, 3), NoiseKind.DEPOLARIZING),
]


@pytest.mark.parametrize("batch", [7, 8, 9, 17, 300])
@pytest.mark.parametrize("make,kind", COMPACTION_CASES)
def test_bp_deferred_compaction_matches_reference(make, kind, batch, monkeypatch):
    # Batch sizes around the 1/8 threshold: at 7 one finished trial is
    # enough to compact, at 9 it is not.  Pure-X ztgre(5) trials converge
    # at many different iterations.
    calls = _spy_compactions(monkeypatch)
    code = make()
    ctx = decoder.DecoderContext.for_code(code)
    ex, ez = estimator._sample_batch(code, 0.08, kind, 29, 0, 0, batch)
    S = code.syndromes(ex, ez)
    prior = decoder.ChannelPrior(0.08, kind)
    cfg = decoder.BPConfig(max_iterations=30)
    got = decoder.bp_decode_batch(ctx, S, [prior], cfg)
    want = _bp_reference(ctx, S, *_reference_prior(prior, ctx), cfg)
    _assert_matches_reference(got, want)
    # Every compaction drops at least an eighth of the columns.
    assert all(decoder._COMPACT_DEAD_SHARE * width <= width - kept for width, kept in calls)
    if batch == 300:
        conv, iters = got[2], got[3]
        assert np.unique(iters[conv]).shape[0] >= 5 and not conv.all()
        # Trials finish in many iterations, and most of them compact nothing.
        assert 0 < len(calls) < np.unique(iters).shape[0] - 1


def test_bp_trials_that_finish_before_any_compaction(monkeypatch):
    # A zero syndrome finishes at iteration 1, which is 1 of 9 columns, short
    # of an eighth; the other 8 share one syndrome and finish together later,
    # so the arrays are never compacted.
    calls = _spy_compactions(monkeypatch)
    code = codes.ztgre(5)
    ctx = decoder.DecoderContext.for_code(code)
    prior = decoder.ChannelPrior(0.08, NoiseKind.PURE_X)
    cfg = decoder.BPConfig(max_iterations=30)
    ex, ez = estimator._sample_batch(code, 0.08, NoiseKind.PURE_X, 29, 0, 0, 300)
    S = code.syndromes(ex, ez)
    _, _, conv, iters = decoder.bp_decode_batch(ctx, S, [prior], cfg)
    late = np.flatnonzero(conv & (iters >= 4))[0]
    S9 = np.vstack([np.zeros((1, ctx.m), np.uint8), np.repeat(S[late : late + 1], 8, axis=0)])
    calls.clear()
    got = decoder.bp_decode_batch(ctx, S9, [prior], cfg)
    want = _bp_reference(ctx, S9, *_reference_prior(prior, ctx), cfg)
    _assert_matches_reference(got, want)
    assert got[2].all() and list(got[3]) == [1] + [iters[late]] * 8
    assert calls == []


# ---------------------------------------------------------------------------
# Stall rule: a trial whose unsatisfied checks stop changing finishes early,
# not converged, and goes to OSD-0.


STALL_CASES = [
    (lambda: codes.toric(3), NoiseKind.DEPOLARIZING),
    (lambda: codes.chamon(3, 3, 3), NoiseKind.DEPOLARIZING),
    (lambda: codes.ztgre(5), NoiseKind.PURE_X),
]


def _stall_inputs(make, kind, batch):
    code = make()
    ctx = decoder.DecoderContext.for_code(code)
    ex, ez = estimator._sample_batch(code, 0.09, kind, 41, 0, 0, batch)
    return ctx, code.syndromes(ex, ez), decoder.ChannelPrior(0.09, kind), decoder.BPConfig(max_iterations=30)


@pytest.mark.parametrize("batch", [1, 7, 300])
@pytest.mark.parametrize("make,kind", STALL_CASES)
def test_bp_without_stall_rule_matches_rule_free_reference(make, kind, batch, monkeypatch):
    # Toric and Chamon have dependent generators, ztgre is Z-only; at 300
    # the arrays are compacted while trials are still running.
    ctx, S, prior, cfg = _stall_inputs(make, kind, batch)
    with_rule = decoder.bp_decode_batch(ctx, S, [prior], cfg)
    calls = _spy_compactions(monkeypatch)
    monkeypatch.setattr(decoder, "_STALL_ITERATIONS", cfg.max_iterations + 1)
    got = decoder.bp_decode_batch(ctx, S, [prior], cfg)
    want = _bp_reference(ctx, S, *_reference_prior(prior, ctx), cfg, stall=None)
    _assert_matches_reference(got, want)
    if batch == 300:
        assert calls and not got[2].all()
        assert not np.array_equal(got[3], with_rule[3])  # the rule was on before


@pytest.mark.parametrize("make,kind", STALL_CASES)
def test_stall_rule_only_cuts_failing_trials_short(make, kind):
    # Each trial's BP runs on its own column, so until the rule finishes a
    # trial it follows the rule-free run exactly.
    ctx, S, prior, cfg = _stall_inputs(make, kind, 300)
    bits, post, conv, iters = decoder.bp_decode_batch(ctx, S, [prior], cfg)
    f_bits, f_post, f_conv, f_iters = _bp_reference(ctx, S, *_reference_prior(prior, ctx), cfg, stall=None)
    assert conv.any() and np.array_equal(bits[conv], f_bits[conv])
    assert np.array_equal(iters[conv], f_iters[conv]) and f_conv[conv].all()
    assert (iters[~conv] <= f_iters[~conv]).all()
    # A trial that neither converged nor stalled ran the rule-free run to the cap.
    capped = ~conv & (iters == cfg.max_iterations)
    assert capped.any() and np.array_equal(post[capped], f_post[capped])
    # Some trials stalled before the cap: at least three iterations, since
    # the first has nothing to compare with.
    stalled = ~conv & (iters < cfg.max_iterations)
    assert stalled.any() and iters[stalled].min() >= decoder._STALL_ITERATIONS + 1


def test_decode_hands_a_stalled_trial_to_osd():
    code = codes.planar_surface(7)
    cfg = decoder.BPConfig()
    prior = decoder.ChannelPrior(0.1)
    ex, ez = estimator._sample_batch(code, 0.1, NoiseKind.DEPOLARIZING, 43, 0, 0, 40)
    for x, z in zip(ex, ez):
        s = code.syndrome(pauli.SymplecticPauli.from_arrays(x, z))
        out = decoder.decode(code, s, prior, cfg)
        if not out.bp_converged and out.iterations < cfg.max_iterations:
            break
    else:
        pytest.fail("no trial stalled")
    assert code.syndrome(out.estimate) == s


@pytest.mark.parametrize("degree", range(1, 18))
def test_ordered_sum_keeps_negative_zero(degree):
    # The in-order sum starts from -0.0 with one np.add.reduce; it must keep
    # -0.0 terms and all-(-0.0) columns exactly, also where the summed stack
    # has one column (numpy then sums the reduced axis pairwise), overwrite
    # whatever out held, and leave its input alone.
    rng = np.random.default_rng(100 + degree)
    for k, b in [(1, 1), (1, 6), (4, 1), (5, 33)]:
        g = rng.standard_normal((degree, k, b)).astype(np.float32)
        g *= rng.choice(np.array([1e-6, 1.0, 1e6], np.float32), size=g.shape)
        g[rng.random(g.shape) < 0.2] = -0.0
        for stack in (g, np.full_like(g, -0.0)):
            if b > 1:
                stack = stack.copy()
                stack[:, :, 0] = -0.0  # an all-(-0.0) column next to mixed ones
            want = _left_to_right(stack)
            before = stack.copy()
            out = np.full((k, b), np.nan, np.float32)
            got = decoder._in_order(stack, out)
            assert got is out
            assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
            assert np.array_equal(stack.view(np.uint32), before.view(np.uint32))


def test_reliability_order_matches_stable_argsort_on_ties():
    # Exact ties everywhere: under pure-X noise the Z bits of a Z-only code
    # have no edges, so their posteriors all equal the prior's; then values
    # rounded to a few levels, and 0.0 and 1.0 mixed in.
    code = codes.ztgre(5)
    ctx = decoder.DecoderContext.for_code(code)
    ex, ez = estimator._sample_batch(code, 0.12, NoiseKind.PURE_X, 31, 0, 0, 120)
    S = code.syndromes(ex, ez)
    prior = decoder.ChannelPrior(0.12, NoiseKind.PURE_X)
    _, post, conv, _ = decoder.bp_decode_batch(ctx, S, [prior], decoder.BPConfig(max_iterations=8))
    S, post = S[~conv], post[~conv]
    n = code.n
    assert S.shape[0] >= 10 and (post[:, n : 2 * n] == post[:, n : n + 1]).all()
    rng = np.random.default_rng(3)
    rounded = np.round(post * 4) / 4  # 0.0, 0.25, 0.5, 0.75 and 1.0 only
    mixed = np.where(rng.random(post.shape) < 0.5, post, rng.choice([0.0, 1.0, 0.5], size=post.shape))
    for p in (post, rounded, mixed):
        order = decoder._reliability_order(p)
        assert np.array_equal(order, np.argsort(-p, axis=1, kind="stable"))
        # OSD-0 under pure-X ranks the X block alone, whose ties the
        # rounded and mixed posteriors keep; the depolarizing solve ranks all
        # 3n columns, the Z block's tied posteriors among them.
        batch = decoder.osd_post_process(ctx, S, p, prior)
        full = decoder.osd_post_process(ctx, S, p, decoder.ChannelPrior(0.12))
        assert not batch[:, n:].any()
        for i in range(S.shape[0]):
            ref = gf2.solve_selected(ctx.hd[:, :n], S[i], np.lexsort((np.arange(n), -p[i, :n])))
            assert np.array_equal(batch[i, :n], ref)
            ref = gf2.solve_selected(ctx.hd, S[i], np.lexsort((np.arange(ctx.nbits), -p[i])))
            assert np.array_equal(full[i], ref)


def test_osd_mixed_batch_with_one_infeasible_syndrome_raises():
    # One unreachable syndrome among reachable ones, which stop at different
    # steps: the batch must still raise, and not run past the rank.
    code = codes.toric(2)
    ctx = decoder.DecoderContext.for_code(code)
    ex, ez = estimator._sample_batch(code, 0.2, NoiseKind.DEPOLARIZING, 37, 0, 0, 40)
    S = code.syndromes(ex, ez)
    bad = np.zeros(ctx.m, dtype=np.uint8)
    bad[0] = 1  # a lone violated check cannot happen on a torus
    post = np.random.default_rng(5).random((41, ctx.nbits)).astype(np.float32)
    prior = decoder.ChannelPrior(0.2)
    for at in (0, 17, 40):
        mixed = np.insert(S, at, bad, axis=0)
        with pytest.raises(RuntimeError, match="column space"):
            decoder.osd_post_process(ctx, mixed, post, prior)
    assert decoder.osd_post_process(ctx, S, post[:40], prior).shape == (40, ctx.nbits)


def _pauli_parts(bits: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(ex, ez) of (B, 3n) decoupled bits: Y sets both parts."""
    return bits[:, :n] ^ bits[:, 2 * n :], bits[:, n : 2 * n] ^ bits[:, 2 * n :]


@pytest.mark.parametrize(
    "make",
    [lambda: codes.ztgre(5), lambda: codes.planar_surface(3), lambda: codes.toric(3), lambda: codes.chamon(3, 3, 3)],
    ids=["ztgre_5", "planar_surface_3", "toric_3", "chamon_3_3_3"],
)
def test_pure_x_osd_solves_on_the_x_block(make):
    # Under pure-X noise OSD-0 solves Hz·x = s on the n X columns alone.
    # Half of Hz's rows are zero on planar_surface_3 and toric_3, toric_3 has
    # dependent generators, and chamon_3_3_3 is non-CSS.  Posteriors are
    # BP's own from trials it failed to decode.
    code = make()
    ctx = decoder.DecoderContext.for_code(code)
    n = code.n
    prior = decoder.ChannelPrior(0.12, NoiseKind.PURE_X)
    ex, ez = estimator._sample_batch(code, 0.12, NoiseKind.PURE_X, 5, 0, 0, 200)
    S = code.syndromes(ex, ez)
    _, post, conv, _ = decoder.bp_decode_batch(ctx, S, [prior], decoder.BPConfig(max_iterations=8))
    S, post = S[~conv], post[~conv]
    assert S.shape[0] >= 20
    batch = decoder.osd_post_process(ctx, S, post, prior)
    assert batch.shape == (S.shape[0], ctx.nbits)
    assert not batch[:, n:].any()  # no Z or Y bit
    for i in range(S.shape[0]):
        # Reference: the serial solve on Hz by descending X-part posterior, ties by index.
        order = np.lexsort((np.arange(n), -post[i, :n]))
        assert np.array_equal(batch[i, :n], gf2.solve_selected(ctx.hd[:, :n], S[i], order))
    assert np.array_equal(code.syndromes(batch[:, :n], np.zeros_like(batch[:, :n])), S)


def test_pure_x_osd_raises_on_a_row_the_x_block_cannot_reach():
    # An X-type check of planar_surface_3 has no X column, so a syndrome bit
    # on it has no X-type explanation.
    code = codes.planar_surface(3)
    ctx = decoder.DecoderContext.for_code(code)
    unreachable = np.flatnonzero(~ctx.hd[:, : code.n].any(axis=1))
    assert unreachable.size == ctx.m // 2
    ex, ez = estimator._sample_batch(code, 0.12, NoiseKind.PURE_X, 5, 0, 0, 20)
    S = code.syndromes(ex, ez)
    S[7, unreachable[0]] ^= 1
    post = np.full((20, ctx.nbits), 0.1)
    with pytest.raises(decoder.InfeasibleSyndrome, match="column space"):
        decoder.osd_post_process(ctx, S, post, decoder.ChannelPrior(0.12, NoiseKind.PURE_X))
    # The depolarizing solve reaches that row through the Z columns.
    depol = decoder.osd_post_process(ctx, S, post, decoder.ChannelPrior(0.12))
    assert np.array_equal(code.syndromes(*_pauli_parts(depol, code.n)), S)


def test_pure_x_osd_never_pivots_on_a_y_column():
    # Trial 359 of ztgre_7 at p = 0.08 (master seed 5, rate index 2): BP does
    # not converge in 30 iterations, and OSD-0 over all 3n columns picks a
    # Y column, so its estimate has a Z part.  OSD-0 on the X block cannot.
    code = codes.ztgre(7)
    ctx = decoder.DecoderContext.for_code(code)
    n = code.n
    err = estimator.sample_error(n, 0.08, NoiseKind.PURE_X, estimator.trial_rng(5, 2, 359))
    assert np.flatnonzero(err.ex).tolist() == [20, 25, 26, 27, 45, 114, 116]
    s = code.syndrome(err).bits[None, :]
    prior = decoder.ChannelPrior(0.08, NoiseKind.PURE_X)
    _, post, conv, _ = decoder.bp_decode_batch(ctx, s, [prior], decoder.BPConfig(max_iterations=30))
    assert not conv[0]
    full = gf2.solve_selected(ctx.hd, s[0], np.lexsort((np.arange(ctx.nbits), -post[0])))
    assert _pauli_parts(full[None, :], n)[1].any()
    bits = decoder.osd_post_process(ctx, s, post, prior)
    assert not bits[:, n:].any()
    assert np.array_equal(code.syndromes(bits[:, :n], np.zeros_like(bits[:, :n])), s)
