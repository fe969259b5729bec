"""CLI tests: argument parsing, every subcommand end to end, exit codes and
artifact layout (volatile metadata kept out of the report body)."""

import json

import numpy as np
import pytest

from qdist import cli, codes, pauli


def run(argv, capsys):
    code = cli.run_spec(cli.parse_args(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_estimate_flags():
    spec = cli.parse_args([
        "estimate", "--code", "toric", "--params", "3",
        "--rates", "0.05,0.1", "--trials", "123", "--seed", "9",
        "--noise", "pureX", "--max-iters", "17", "--threads", "2",
    ])
    assert spec.code_family == "toric" and spec.code_params == (3,)
    assert spec.rates == (0.05, 0.1) and spec.trials == 123 and spec.seed == 9
    assert spec.noise.value == "pureX" and spec.max_iterations == 17


def test_parse_rejects_bad_inputs():
    with pytest.raises(SystemExit):
        cli.parse_args(["estimate"])  # no code source
    with pytest.raises(SystemExit):
        cli.parse_args(["estimate", "--code", "toric", "--params", "2",
                        "--code-file", "x"])  # both sources
    with pytest.raises(SystemExit):
        cli.parse_args(["estimate", "--code", "toric", "--params", "2",
                        "--rates", "0,0.5"])
    with pytest.raises(SystemExit):
        cli.parse_args(["estimate", "--code", "toric", "--params", "2",
                        "--trials", "0"])
    for flags in (["--threads", "0"], ["--threads", "-2"], ["--max-iters", "0"]):
        with pytest.raises(SystemExit):
            cli.parse_args(["estimate", "--code", "toric", "--params", "2", *flags])
    one = ["decode-one", "--code", "toric", "--params", "2", "--error", "XIIIIIII"]
    for flags in (["--max-iters", "0"], ["--rate", "1.5"], ["--rate", "0"]):
        with pytest.raises(SystemExit):
            cli.parse_args([*one, *flags])
    assert cli.parse_args(one).rate == 0.1
    with pytest.raises(SystemExit):
        cli.parse_args(["bogus-subcommand"])


def test_list_codes(capsys):
    code, out, _ = run(["list-codes"], capsys)
    assert code == 0
    for family in codes.FAMILIES:
        assert family in out


def test_validate_code_ok(capsys):
    code, out, _ = run(["validate-code", "--code", "surface", "--params", "3"], capsys)
    assert code == 0
    assert "[[13, 1]]" in out


def test_validate_code_from_file(tmp_path, capsys):
    path = tmp_path / "toric2.code"
    codes.save(codes.toric(2), path)
    code, out, _ = run(["validate-code", "--code-file", str(path)], capsys)
    assert code == 0


def test_brute_force_subcommand(capsys):
    code, out, _ = run(
        ["brute-force", "--code", "surface", "--params", "3", "--max-weight", "4"], capsys
    )
    assert code == 0
    assert "distance 3" in out


def test_brute_force_budget_exit(capsys):
    code, _, err = run(
        ["brute-force", "--code", "chamon", "--params", "3,3,3",
         "--max-weight", "6", "--budget", "1000"], capsys
    )
    assert code == 1
    assert "budget" in err


def test_decode_one(capsys):
    n = codes.planar_surface(3).n
    err_string = "X" + "I" * (n - 1)
    code, out, _ = run(
        ["decode-one", "--code", "surface", "--params", "3", "--error", err_string], capsys
    )
    assert code == 0
    assert "stabilizer" in out


def test_decode_one_wrong_length(capsys):
    code, _, err = run(
        ["decode-one", "--code", "surface", "--params", "3", "--error", "XI"], capsys
    )
    assert code == 1
    assert "qubits" in err


def test_estimate_end_to_end(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    code, out, _ = run(
        ["estimate", "--code", "surface", "--params", "2",
         "--rates", "0.08,0.12", "--trials", "400", "--seed", "4",
         "--max-iters", "15", "--threads", "1",
         "--out", str(out_path), "--csv", str(csv_path)], capsys
    )
    assert code == 0
    assert "d <= 2" in out
    doc = json.loads(out_path.read_text())
    assert doc["report"]["upper_bound"] == 2
    assert "generated_at" in doc["meta"]
    assert csv_path.read_text().startswith("p,trials,logical_events,min_weight")


def test_estimate_report_body_is_seed_deterministic(tmp_path, capsys):
    bodies = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        code, _, _ = run(
            ["estimate", "--code", "toric", "--params", "2",
             "--rates", "0.1", "--trials", "300", "--seed", "21",
             "--max-iters", "15", "--threads", "1", "--out", str(path)], capsys
        )
        assert code == 0
        bodies.append(json.dumps(json.loads(path.read_text())["report"], sort_keys=True))
    assert bodies[0] == bodies[1]


def test_estimate_no_witness_exits_nonzero(capsys):
    # One trial at a vanishing rate: almost surely no logical event.
    code, _, err = run(
        ["estimate", "--code", "surface", "--params", "2",
         "--rates", "0.0001", "--trials", "1", "--seed", "0",
         "--max-iters", "5", "--threads", "1"], capsys
    )
    assert code == 1
    assert "no logical operator observed" in err


def test_estimate_pure_x_rejects_y_witness(monkeypatch, capsys):
    # A pure-X report whose witness has a Y component certifies no bound on
    # the logical-X weight; the real sweep never keeps one, so inject it.
    code = codes.ztgre(3)
    x_logical = codes.logical_basis(code)[0]
    ez = np.zeros(code.n, dtype=np.uint8)
    ez[np.flatnonzero(x_logical.ex)[0]] = 1
    witness = pauli.SymplecticPauli.from_arrays(x_logical.ex, ez)
    argv = ["estimate", "--code", "ztgre", "--params", "3", "--rates", "0.1",
            "--trials", "50", "--max-iters", "5", "--noise", "pureX"]
    real = cli.estimator.estimate_upper_bound

    def with_y_witness(code_, cfg, threads=1):
        report = real(code_, cfg, threads=threads)
        report.witness, report.upper_bound = witness, pauli.weight(witness)
        return report

    monkeypatch.setattr(cli.estimator, "estimate_upper_bound", with_y_witness)
    status, _, err = run(argv, capsys)
    assert status == 1
    assert "failed verification" in err
    status, _, _ = run(argv[:-2], capsys)  # the same witness under depolarizing noise
    assert status == 0


def test_unknown_family_parameters(capsys):
    with pytest.raises(SystemExit):
        run(["validate-code", "--code", "chamon", "--params", "2"], capsys)
