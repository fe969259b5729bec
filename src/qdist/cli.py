"""Command-line front end.

Subcommands: estimate (Monte Carlo distance sweep), validate-code,
brute-force (exhaustive oracle), decode-one (single decode walkthrough) and
list-codes.  Reports are JSON (plus optional CSV) with the volatile
timestamp kept in a separate metadata object so report bodies are
byte-stable for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone

from . import codes, estimator, pauli
from .decoder import BPConfig, ChannelPrior, InfeasibleSyndrome, decode
from .estimator import NoiseKind, TrialConfig


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed integer list {text!r}")


def _parse_rates(text: str) -> tuple[float, ...]:
    try:
        rates = tuple(float(x) for x in text.split(",") if x != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed rate list {text!r}")
    if not rates or any(not 0.0 < r < 1.0 for r in rates):
        raise argparse.ArgumentTypeError("rates must be in (0, 1)")
    return rates


def _add_code_selector(sp):
    sp.add_argument("--code", dest="code_family", choices=sorted(codes.FAMILIES), help="code family name")
    sp.add_argument("--params", dest="code_params", type=_parse_ints, default=(), help="family parameters, e.g. 3,3,3")
    sp.add_argument("--code-file", help="path to a serialized code file")


def _add_decoder_flags(sp):
    sp.add_argument("--noise", choices=[k.value for k in NoiseKind], default="depolarizing")
    sp.add_argument("--max-iters", dest="max_iterations", type=int, default=100, metavar="N",
                    help="BP iterations: at most N; BP stops earlier on a trial whose "
                         "unsatisfied checks stop changing")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qdist", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    est = sub.add_parser("estimate", help="Monte Carlo distance upper bound sweep")
    _add_code_selector(est)
    est.add_argument("--rates", type=_parse_rates, default=estimator.DEFAULT_RATES)
    est.add_argument("--trials", type=int, default=10_000)
    est.add_argument("--seed", type=int, default=0)
    _add_decoder_flags(est)
    est.add_argument("--workers", type=int, default=estimator.usable_cpus(), metavar="N",
                     help="split the sweep into at most N equal shares, one run here and the "
                          "others on worker processes, fewer when the sweep is too short to gain "
                          "(default: the CPUs this process may use); the report does not depend on it")
    est.add_argument("--out", help="write the JSON report here")
    est.add_argument("--csv", help="also write a per-rate CSV here")

    val = sub.add_parser("validate-code", help="check a code's internal consistency")
    _add_code_selector(val)

    bf = sub.add_parser("brute-force", help="exhaustive weight-limited distance oracle")
    _add_code_selector(bf)
    bf.add_argument("--max-weight", type=int, default=4)
    bf.add_argument("--budget", type=int, default=50_000_000)

    one = sub.add_parser("decode-one", help="decode a single explicit error")
    _add_code_selector(one)
    one.add_argument("--error", required=True, help="Pauli string, qubit 0 leftmost")
    one.add_argument("--rate", type=float, default=0.1)
    _add_decoder_flags(one)

    sub.add_parser("list-codes", help="list available code families")
    return parser


def parse_args(argv) -> argparse.Namespace:
    """Parse and check the command line.  The namespace's noise is a
    NoiseKind and, for decode-one, its error a SymplecticPauli."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "list-codes":
        return args
    if (args.code_family is None) == (args.code_file is None):
        parser.error("provide exactly one of --code or --code-file")
    if args.subcommand in ("estimate", "decode-one"):
        if args.max_iterations < 1:
            parser.error("--max-iters must be positive")
        args.noise = NoiseKind(args.noise)
    if args.subcommand == "estimate":
        if not 1 <= args.trials <= estimator.MAX_TRIALS_PER_RATE:
            parser.error("--trials must be between 1 and 2**32")
        if args.workers < 1:
            parser.error("--workers must be at least 1")
        if args.seed < 0:
            parser.error("--seed must be non-negative")
        # An unwritable output path would otherwise fail only after the whole sweep.
        for flag, path in (("--out", args.out), ("--csv", args.csv)):
            if path is not None and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
                parser.error(f"{flag}: directory of {path} does not exist")
            if path is not None and os.path.isdir(path):
                parser.error(f"{flag}: {path} is a directory")
    elif args.subcommand == "brute-force":
        if args.max_weight < 1:
            parser.error("--max-weight must be positive")
        if args.budget < 1:
            parser.error("--budget must be positive")
    elif args.subcommand == "decode-one":
        if not 0.0 < args.rate < 1.0:
            parser.error("--rate must be in (0, 1)")
        try:
            args.error = pauli.from_string(args.error)
        except ValueError as exc:
            parser.error(f"--error: {exc}")
    return args


def _load_code(args: argparse.Namespace) -> codes.StabilizerCode:
    if args.code_file is not None:
        try:
            return codes.load(args.code_file)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"error: cannot load {args.code_file}: {exc}")
    try:
        return codes.make(args.code_family, args.code_params)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def run_spec(args: argparse.Namespace) -> int:
    """Run a subcommand from parse_args' namespace; returns the exit status."""
    if args.subcommand == "list-codes":
        for name, (_, arity) in sorted(codes.FAMILIES.items()):
            print(f"{name}  ({arity} integer parameter{'s' if arity > 1 else ''})")
        return 0

    code = _load_code(args)

    if args.subcommand == "validate-code":
        failures = codes.validate(code)
        if not failures:
            print(f"{code.name}: valid [[{code.n}, {code.k}]] stabilizer code")
            return 0
        for failure in failures:
            print(f"{code.name}: FAIL - {failure}", file=sys.stderr)
        return 1

    if args.subcommand == "brute-force":
        try:
            result = estimator.brute_force_distance(code, args.max_weight, budget=args.budget)
        except estimator.BudgetExceeded as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if result.found_distance is None:
            print(f"{code.name}: no logical operator of weight <= {args.max_weight}")
        else:
            print(
                f"{code.name}: distance {result.found_distance} "
                f"(witness {pauli.to_string(result.witness)})"
            )
        return 0

    if args.subcommand == "decode-one":
        err = args.error
        if err.n != code.n:
            print(f"error: error string has {err.n} qubits, code has {code.n}", file=sys.stderr)
            return 1
        syndrome = code.syndrome(err)
        try:
            outcome = decode(code, syndrome, ChannelPrior(args.rate, args.noise), BPConfig(args.max_iterations))
        except InfeasibleSyndrome:
            # OSD-0 solves on the bits the channel can flip; only pure-X
            # noise leaves some of a syndrome's explanations out.
            if args.noise != NoiseKind.PURE_X:
                raise
            print("error: no X-type error has this syndrome", file=sys.stderr)
            return 1
        residual = pauli.mul(err, outcome.estimate)
        r = (residual.ex[None, :], residual.ez[None, :])
        # [logical] marks only what a sweep under this noise would count.
        if code.syndromes(*r).any():
            label = "syndrome_nonzero"
        elif estimator.logical_mask(code, *r, args.noise)[0]:
            label = "logical"
        elif estimator.logical_mask(code, *r)[0]:
            label = "logical_not_x_type"  # pure-X only: a logical with a Z part
        else:
            label = "stabilizer"
        print(f"syndrome:  {''.join(map(str, syndrome.bits))}")
        print(f"estimate:  {pauli.to_string(outcome.estimate)}")
        print(f"residual:  {pauli.to_string(residual)}  [{label}]")
        print(
            f"bp_converged={outcome.bp_converged} osd_applied={not outcome.bp_converged} "
            f"iterations={outcome.iterations}"
        )
        return 0

    # estimate
    cfg = TrialConfig(
        rates=args.rates,
        trials_per_rate=args.trials,
        master_seed=args.seed,
        noise_kind=args.noise,
        decoder=BPConfig(max_iterations=args.max_iterations),
    )
    report = estimator.estimate_upper_bound(code, cfg, workers=args.workers)
    body = report.to_json_dict()
    doc = {
        "report": body,
        "meta": {"generated_at": datetime.now(timezone.utc).isoformat()},
    }
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, sort_keys=True, indent=2)
            f.write("\n")
    if args.csv:
        with open(args.csv, "w") as f:
            f.write(report.to_csv())
    if report.witness is None:
        print(
            f"{code.name}: no logical operator observed; bound stays at code length {report.upper_bound}",
            file=sys.stderr,
        )
        return 1
    if not estimator.verify_witness(code, report.witness, report.upper_bound, args.noise):
        print(f"{code.name}: FATAL - witness failed verification", file=sys.stderr)
        return 1
    print(
        f"{code.name}: upper bound d <= {report.upper_bound} "
        f"(witness weight {report.upper_bound} verified)"
    )
    return 0


def main(argv=None) -> None:
    sys.exit(run_spec(parse_args(argv if argv is not None else sys.argv[1:])))


if __name__ == "__main__":
    main()
