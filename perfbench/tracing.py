"""Per-layer spans recorded from outside the program.

The tracer swaps a module attribute (or a class method) for a wrapper that
times the call and adds it to its layer's totals, and puts the original back
when the `patched` block ends.  The program itself is not edited: the wraps
sit on the public functions each module calls into, resolved the way the
caller resolves them (estimator imports the decoder functions by name, so
those are wrapped in the estimator's namespace).

A call is counted once, at its outermost boundary: a layer that is already
open when its wrapper is entered again (for example `bp_decode` calling
`bp_decode_batch`) passes straight through.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from qdist import decoder, estimator, gf2


class Tracer:
    def __init__(self):
        self.totals: dict[str, float] = defaultdict(float)
        self._open: set[str] = set()

    def wrap(self, layer: str, fn, observe=None):
        """Return fn timed as `layer`; observe(totals, args, result) adds counts."""

        def traced(*args, **kwargs):
            if layer in self._open:
                return fn(*args, **kwargs)
            self._open.add(layer)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.totals[f"{layer}.busy_s"] += perf_counter() - t0
                self.totals[f"{layer}.calls"] += 1
                self._open.discard(layer)
            if observe is not None:
                observe(self.totals, args, out)
            return out

        return traced

    @contextmanager
    def patched(self, targets):
        """targets: iterable of (owner, attribute, layer, observe or None)."""
        saved = []
        try:
            for owner, attr, layer, observe in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(layer, original, observe))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def observe_bp(totals, args, out):
    """Counts from BP's returned arrays; works for the batch and single forms."""
    _, _, conv, iters = out
    conv = np.atleast_1d(conv)
    totals["decoder.bp.syndromes"] += conv.shape[0]
    totals["decoder.bp.converged"] += int(np.count_nonzero(conv))
    totals["decoder.bp.iterations"] += int(np.sum(iters))


def observe_classify(totals, args, member):
    totals["gf2.classify.candidates"] += member.shape[0]
    totals["gf2.classify.logical"] += int(np.count_nonzero(~member))


def sweep_targets():
    """Layer boundaries of estimate_upper_bound."""
    return [
        (estimator, "trial_rng", "estimator.sample", None),
        (estimator, "sample_error", "estimator.sample", None),
        (estimator, "bp_decode_batch", "decoder.bp", observe_bp),
        (estimator, "osd_post_process", "decoder.osd", None),
        (gf2, "solve_selected", "gf2.solve", None),
        (gf2.RowSpanReducer, "contains_batch", "gf2.classify", observe_classify),
    ]


def decode_targets():
    """Layer boundaries of decoder.decode plus the benchmark's own sampling
    and residual classification around it."""
    return [
        (estimator, "trial_rng", "estimator.sample", None),
        (estimator, "sample_error", "estimator.sample", None),
        (decoder, "bp_decode", "decoder.bp", observe_bp),
        (decoder, "osd_post_process", "decoder.osd", None),
        (gf2, "solve_selected", "gf2.solve", None),
        (gf2.RowSpanReducer, "contains_batch", "gf2.classify", observe_classify),
    ]


# Disjoint top-level layers: with the run's wall time they give the self time.
TOP_LAYERS = ("estimator.sample", "decoder.bp", "decoder.osd", "gf2.classify")


def layer_metrics(totals, run_s: float) -> dict[str, float]:
    """Per-layer metric values from raw totals and the traced wall time."""
    t = defaultdict(float, totals)
    top = sum(t[f"{layer}.busy_s"] for layer in TOP_LAYERS)
    syndromes = t["decoder.bp.syndromes"]
    candidates = t["gf2.classify.candidates"]
    osd_calls = t["decoder.osd.calls"]
    return {
        "run.busy_s": run_s,
        "estimator.self_s": run_s - top,
        "estimator.sample.calls": t["estimator.sample.calls"],
        "estimator.sample.busy_s": t["estimator.sample.busy_s"],
        "decoder.bp.calls": t["decoder.bp.calls"],
        "decoder.bp.busy_s": t["decoder.bp.busy_s"],
        "decoder.bp.syndromes": syndromes,
        "decoder.bp.converged_frac": t["decoder.bp.converged"] / syndromes if syndromes else 0.0,
        "decoder.bp.iterations_mean": t["decoder.bp.iterations"] / syndromes if syndromes else 0.0,
        "decoder.osd.calls": osd_calls,
        "decoder.osd.busy_s": t["decoder.osd.busy_s"],
        "decoder.osd.self_s": t["decoder.osd.busy_s"] - t["gf2.solve.busy_s"],
        "decoder.osd.ms_per_call": 1e3 * t["decoder.osd.busy_s"] / osd_calls if osd_calls else 0.0,
        "gf2.solve.calls": t["gf2.solve.calls"],
        "gf2.solve.busy_s": t["gf2.solve.busy_s"],
        "gf2.classify.calls": t["gf2.classify.calls"],
        "gf2.classify.busy_s": t["gf2.classify.busy_s"],
        "gf2.classify.candidates": candidates,
        "gf2.classify.logical_frac": t["gf2.classify.logical"] / candidates if candidates else 0.0,
    }
