"""Stretch check: the large codes reach their published bounds.

The Chamon bounds (5,5,5) -> 10 and (4,5,6) -> 20 are the paper's evidence
for O(N^(2/3)) distance growth; the Z-type expansion N = 512 -> 10 is its
largest pure-X instance.  At 1,000 trials per rate, p = 0.08 and 30 BP
iterations, seed 1 reaches each value with a verified witness.  The module is
marked `stretch` (about 20 s in all); select it with `-m stretch`.
"""

import pytest

from qdist import codes, estimator
from qdist.decoder import BPConfig
from qdist.estimator import NoiseKind, TrialConfig

pytestmark = pytest.mark.stretch


@pytest.mark.parametrize(
    "make, noise, published",
    [
        (lambda: codes.ztgre(9), NoiseKind.PURE_X, 10),
        (lambda: codes.chamon(5, 5, 5), NoiseKind.DEPOLARIZING, 10),
        (lambda: codes.chamon(4, 5, 6), NoiseKind.DEPOLARIZING, 20),
    ],
    ids=["ztgre_9_pureX", "chamon_5_5_5", "chamon_4_5_6"],
)
def test_stretch_code_reaches_published_bound(make, noise, published):
    code = make()
    cfg = TrialConfig(rates=(0.08,), trials_per_rate=1_000, master_seed=1, noise_kind=noise,
                      decoder=BPConfig(max_iterations=30))
    report = estimator.estimate_upper_bound(code, cfg)
    assert report.upper_bound == published
    assert estimator.verify_witness(code, report.witness, published, noise)
