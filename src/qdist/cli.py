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
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import codes, estimator, pauli
from .decoder import BPConfig, ChannelPrior, decode
from .estimator import NoiseKind, TrialConfig


@dataclass
class RunSpec:
    subcommand: str
    code_family: str | None = None
    code_params: tuple[int, ...] = ()
    code_file: str | None = None
    rates: tuple[float, ...] = estimator.DEFAULT_RATES
    trials: int = 10_000
    seed: int = 0
    noise: NoiseKind = NoiseKind.DEPOLARIZING
    max_iterations: int = 100
    threads: int = 1
    out: str | None = None
    csv: str | None = None
    max_weight: int = 4
    budget: int = 50_000_000
    error: pauli.SymplecticPauli | None = None
    rate: float = 0.1


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
    sp.add_argument("--code", choices=sorted(codes.FAMILIES), help="code family name")
    sp.add_argument("--params", type=_parse_ints, default=(), help="family parameters, e.g. 3,3,3")
    sp.add_argument("--code-file", help="path to a serialized code file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qdist", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    est = sub.add_parser("estimate", help="Monte Carlo distance upper bound sweep")
    _add_code_selector(est)
    est.add_argument("--rates", type=_parse_rates, default=estimator.DEFAULT_RATES)
    est.add_argument("--trials", type=int, default=10_000)
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--noise", choices=[k.value for k in NoiseKind], default="depolarizing")
    est.add_argument("--max-iters", type=int, default=100)
    est.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                     help="decoding threads (default: all CPUs); the report does not depend on it")
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
    one.add_argument("--max-iters", type=int, default=100)

    sub.add_parser("list-codes", help="list available code families")
    return parser


def parse_args(argv) -> RunSpec:
    parser = build_parser()
    ns = parser.parse_args(argv)
    spec = RunSpec(subcommand=ns.subcommand)
    if ns.subcommand == "list-codes":
        return spec
    spec.code_family = ns.code
    spec.code_params = ns.params
    spec.code_file = ns.code_file
    if (spec.code_family is None) == (spec.code_file is None):
        parser.error("provide exactly one of --code or --code-file")
    if ns.subcommand in ("estimate", "decode-one") and ns.max_iters < 1:
        parser.error("--max-iters must be positive")
    if ns.subcommand == "estimate":
        if not 1 <= ns.trials <= estimator.MAX_TRIALS_PER_RATE:
            parser.error("--trials must be between 1 and 2**32")
        if ns.threads < 1:
            parser.error("--threads must be positive")
        if ns.seed < 0:
            parser.error("--seed must be non-negative")
        # An unwritable output path would otherwise fail only after the whole sweep.
        for flag, path in (("--out", ns.out), ("--csv", ns.csv)):
            if path is not None and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
                parser.error(f"{flag}: directory of {path} does not exist")
            if path is not None and os.path.isdir(path):
                parser.error(f"{flag}: {path} is a directory")
        spec.rates = ns.rates
        spec.trials = ns.trials
        spec.seed = ns.seed
        spec.noise = NoiseKind(ns.noise)
        spec.max_iterations = ns.max_iters
        spec.threads = ns.threads
        spec.out = ns.out
        spec.csv = ns.csv
    elif ns.subcommand == "brute-force":
        if ns.max_weight < 1:
            parser.error("--max-weight must be positive")
        if ns.budget < 1:
            parser.error("--budget must be positive")
        spec.max_weight = ns.max_weight
        spec.budget = ns.budget
    elif ns.subcommand == "decode-one":
        if not 0.0 < ns.rate < 1.0:
            parser.error("--rate must be in (0, 1)")
        try:
            spec.error = pauli.from_string(ns.error)
        except ValueError as exc:
            parser.error(f"--error: {exc}")
        spec.rate = ns.rate
        spec.max_iterations = ns.max_iters
    return spec


def _load_code(spec: RunSpec) -> codes.StabilizerCode:
    if spec.code_file is not None:
        try:
            return codes.load(spec.code_file)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"error: cannot load {spec.code_file}: {exc}")
    try:
        return codes.make(spec.code_family, spec.code_params)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def run_spec(spec: RunSpec) -> int:
    if spec.subcommand == "list-codes":
        for name, (_, arity) in sorted(codes.FAMILIES.items()):
            print(f"{name}  ({arity} integer parameter{'s' if arity > 1 else ''})")
        return 0

    code = _load_code(spec)

    if spec.subcommand == "validate-code":
        report = codes.validate(code)
        if report:
            print(f"{code.name}: valid [[{code.n}, {code.k}]] stabilizer code")
            return 0
        for failure in report.failures:
            print(f"{code.name}: FAIL - {failure}", file=sys.stderr)
        return 1

    if spec.subcommand == "brute-force":
        try:
            result = estimator.brute_force_distance(code, spec.max_weight, budget=spec.budget)
        except estimator.BudgetExceeded as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if result.found_distance is None:
            print(f"{code.name}: no logical operator of weight <= {spec.max_weight}")
        else:
            print(
                f"{code.name}: distance {result.found_distance} "
                f"(witness {pauli.to_string(result.witness)})"
            )
        return 0

    if spec.subcommand == "decode-one":
        err = spec.error
        if err.n != code.n:
            print(f"error: error string has {err.n} qubits, code has {code.n}", file=sys.stderr)
            return 1
        syndrome = code.syndrome(err)
        outcome = decode(code, syndrome, ChannelPrior(spec.rate), BPConfig(spec.max_iterations))
        residual = pauli.mul(err, outcome.estimate)
        cls = estimator.classify_residual(code, residual)
        print(f"syndrome:  {''.join(map(str, syndrome.bits))}")
        print(f"estimate:  {pauli.to_string(outcome.estimate)}")
        print(f"residual:  {pauli.to_string(residual)}  [{cls.value}]")
        print(
            f"bp_converged={outcome.bp_converged} osd_applied={outcome.osd_applied} "
            f"iterations={outcome.iterations}"
        )
        return 0

    # estimate
    cfg = TrialConfig(
        rates=spec.rates,
        trials_per_rate=spec.trials,
        master_seed=spec.seed,
        noise_kind=spec.noise,
        decoder=BPConfig(max_iterations=spec.max_iterations),
    )
    report = estimator.estimate_upper_bound(code, cfg, threads=spec.threads)
    body = report.to_json_dict()
    doc = {
        "report": body,
        "meta": {"generated_at": datetime.now(timezone.utc).isoformat()},
    }
    if spec.out:
        with open(spec.out, "w") as f:
            json.dump(doc, f, sort_keys=True, indent=2)
            f.write("\n")
    if spec.csv:
        with open(spec.csv, "w") as f:
            f.write(report.to_csv())
    if report.witness is None:
        print(
            f"{code.name}: no logical operator observed; bound stays at code length {report.upper_bound}",
            file=sys.stderr,
        )
        return 1
    if not estimator.verify_witness(code, report.witness, report.upper_bound, spec.noise):
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
