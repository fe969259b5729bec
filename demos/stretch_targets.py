"""Long-running stretch instances: large Z-type expansions and big Chamon codes.

Published stretch values: Z-type expansion N = 256 -> 8 and N = 512 -> 10
(pure-X minimum logical weight); Chamon (5,5,5) -> 10 and (4,5,6) -> 20.
These need large trial counts (the published runs use T = 1e5) and hours of
CPU; pass --trials to scale down for a smoke run.  A code's sweep is split
into one equal share of every rate per CPU, run here and on worker
processes, and each share's trials run in (rate, trial) order in chunks of
at most 1,024 that may span rates, each chunk sampled, decoded and
classified end to end, so memory does not grow with --trials.
"""

import argparse

import qdist
from qdist import codes
from qdist.decoder import BPConfig
from qdist.estimator import NoiseKind, TrialConfig

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--trials", type=int, default=100_000)
parser.add_argument("--seed", type=int, default=0)
args = parser.parse_args()
if args.trials < 1:
    parser.error("--trials must be at least 1")
if args.seed < 0:
    parser.error("--seed must be non-negative")

JOBS = [
    (codes.ztgre(8), NoiseKind.PURE_X, 8),
    (codes.ztgre(9), NoiseKind.PURE_X, 10),
    (codes.chamon(5, 5, 5), NoiseKind.DEPOLARIZING, 10),
    (codes.chamon(4, 5, 6), NoiseKind.DEPOLARIZING, 20),
]

for code, kind, published in JOBS:
    cfg = TrialConfig(
        rates=(0.02, 0.04, 0.06, 0.08, 0.10),
        trials_per_rate=args.trials,
        master_seed=args.seed,
        noise_kind=kind,
        decoder=BPConfig(max_iterations=30),
    )
    report = qdist.estimate_upper_bound(code, cfg)
    verified = qdist.verify_witness(code, report.witness, report.upper_bound, kind)
    status = "matches published" if report.upper_bound == published else (
        f"published value {published}")
    print(f"{code.name}: [[{code.n}, {code.k}]]  d <= {report.upper_bound}  "
          f"(witness verified: {verified}; {status})", flush=True)
