"""CLI tests: argument parsing, every subcommand end to end, exit codes and
artifact layout (volatile metadata kept out of the report body)."""

import json

import numpy as np
import pytest

from qdist import cli, codes, decoder, estimator, pauli
from qdist.estimator import NoiseKind


def run(argv, capsys):
    code = cli.run_spec(cli.parse_args(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_estimate_flags():
    spec = cli.parse_args([
        "estimate", "--code", "toric", "--params", "3",
        "--rates", "0.05,0.1", "--trials", "123", "--seed", "9",
        "--noise", "pureX", "--max-iters", "17", "--workers", "2",
    ])
    assert spec.code_family == "toric" and spec.code_params == (3,)
    assert spec.rates == (0.05, 0.1) and spec.trials == 123 and spec.seed == 9
    assert spec.noise.value == "pureX" and spec.max_iterations == 17 and spec.workers == 2


def test_workers_default_to_the_cpus_this_process_may_use(monkeypatch):
    # A container's affinity mask can allow fewer CPUs than the host has.
    monkeypatch.setattr(estimator.os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    monkeypatch.setattr(estimator.os, "cpu_count", lambda: 64)
    spec = cli.parse_args(["estimate", "--code", "toric", "--params", "3"])
    assert spec.workers == 3
    monkeypatch.delattr(estimator.os, "sched_getaffinity")
    assert cli.parse_args(["estimate", "--code", "toric", "--params", "3"]).workers == 64


def test_workers_help_says_what_the_flag_does(capsys):
    with pytest.raises(SystemExit):
        cli.parse_args(["estimate", "--help"])
    text = " ".join(capsys.readouterr().out.split())  # argparse wraps the help lines
    assert "--workers N" in text and "on worker processes" in text and "the report does not depend on it" in text


def test_parse_rejects_bad_inputs():
    with pytest.raises(SystemExit):
        cli.parse_args(["estimate"])  # no code source
    with pytest.raises(SystemExit):
        cli.parse_args(["estimate", "--code", "toric", "--params", "2",
                        "--code-file", "x"])  # both sources
    with pytest.raises(SystemExit):
        cli.parse_args(["estimate", "--code", "toric", "--params", "2",
                        "--rates", "0,0.5"])
    for trials in ("0", "5000000000"):  # 2**32 trials per rate at most
        with pytest.raises(SystemExit):
            cli.parse_args(["estimate", "--code", "toric", "--params", "2",
                            "--trials", trials])
    assert cli.parse_args(["estimate", "--code", "toric", "--params", "2",
                           "--trials", str(2**32)]).trials == 2**32
    for flags in (["--workers", "0"], ["--workers", "-2"], ["--max-iters", "0"]):
        with pytest.raises(SystemExit):
            cli.parse_args(["estimate", "--code", "toric", "--params", "2", *flags])
    one = ["decode-one", "--code", "toric", "--params", "2", "--error", "XIIIIIII"]
    for flags in (["--max-iters", "0"], ["--rate", "1.5"], ["--rate", "0"]):
        with pytest.raises(SystemExit):
            cli.parse_args([*one, *flags])
    assert cli.parse_args(one).rate == 0.1
    brute = ["brute-force", "--code", "toric", "--params", "2"]
    for flags in (["--max-weight", "0"], ["--max-weight", "-2"], ["--budget", "0"], ["--budget", "-1"]):
        with pytest.raises(SystemExit):
            cli.parse_args([*brute, *flags])
    assert cli.parse_args(brute).max_weight == 4
    with pytest.raises(SystemExit):
        cli.parse_args(["bogus-subcommand"])


def test_parse_rejects_bad_error_string(capsys):
    with pytest.raises(SystemExit):
        cli.parse_args(["decode-one", "--code", "toric", "--params", "2", "--error", "XQIII"])
    assert "invalid Pauli character" in capsys.readouterr().err


def test_parse_rejects_negative_seed(capsys):
    with pytest.raises(SystemExit):
        cli.parse_args(["estimate", "--code", "toric", "--params", "2", "--seed", "-1"])
    assert "--seed" in capsys.readouterr().err
    assert cli.parse_args(["estimate", "--code", "toric", "--params", "2", "--seed", "0"]).seed == 0


def test_parse_rejects_unwritable_output_paths(tmp_path, capsys):
    est = ["estimate", "--code", "toric", "--params", "2"]
    missing = str(tmp_path / "no-such-dir" / "report.json")
    for flag in ("--out", "--csv"):
        for path in (missing, str(tmp_path)):
            with pytest.raises(SystemExit):
                cli.parse_args([*est, flag, path])
            assert flag in capsys.readouterr().err
    spec = cli.parse_args([*est, "--out", str(tmp_path / "r.json"), "--csv", str(tmp_path / "r.csv")])
    assert spec.out.endswith("r.json") and spec.csv.endswith("r.csv")


@pytest.mark.parametrize("text", [
    None,
    "# qdist stabilizer code v1\nname bad\nn two\nk 1\nXI\n",
    "# qdist stabilizer code v1\nname bad\nn 2\nk 0\nXI\nZI\n",
    "# qdist stabilizer code v1\nname a\nname b\nn 2\nk 1\nZZ\n",
], ids=["missing", "malformed", "anticommuting", "repeated_field"])
def test_bad_code_file_is_an_error_line(tmp_path, text):
    path = tmp_path / "bad.code"
    if text is not None:
        path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        cli.run_spec(cli.parse_args(["validate-code", "--code-file", str(path)]))
    assert str(exc.value.code).startswith(f"error: cannot load {path}")


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


def test_decode_one_labels_a_logical_residual(capsys):
    # X down the first column of surface 3 is logical X: zero syndrome, so
    # the decoder returns the identity and the residual is the logical.
    code, out, _ = run(
        ["decode-one", "--code", "surface", "--params", "3", "--error", "XIIXIIXIIIIII"], capsys
    )
    assert code == 0
    assert "[logical]" in out


def test_decode_one_pure_x_decodes_as_the_sweep_does(capsys):
    # A pure-X sweep decodes with the pure-X prior and counts only X-type
    # logicals; decode-one --noise pureX must do both.
    code = codes.ztgre(3)
    one = ["decode-one", "--code", "ztgre", "--params", "3"]
    assert cli.parse_args([*one, "--error", "XXIIIIII"]).noise is NoiseKind.DEPOLARIZING
    assert cli.parse_args([*one, "--error", "XXIIIIII", "--noise", "pureX"]).noise is NoiseKind.PURE_X
    err = pauli.from_string("XXIIIIII")
    for kind in NoiseKind:
        want = decoder.decode(code, code.syndrome(err), decoder.ChannelPrior(0.1, kind))
        status, out, _ = run([*one, "--error", "XXIIIIII", "--noise", kind.value], capsys)
        assert status == 0
        assert f"estimate:  {pauli.to_string(want.estimate)}\n" in out
        assert f"iterations={want.iterations}\n" in out
        assert "[logical]" in out  # the residual is X-type
    # The priors differ, and so do the decodes: the flag reaches the decoder.
    single_x = [*one, "--error", "XIIIIIII"]
    assert run(single_x, capsys)[1] != run([*single_x, "--noise", "pureX"], capsys)[1]
    # Z errors leave no syndrome on this Z-only code: Z on one qubit is a
    # logical that a pure-X sweep does not count.
    z_one = [*one, "--error", "ZIIIIIII"]
    assert "[logical]" in run(z_one, capsys)[1]
    assert "[logical_not_x_type]" in run([*z_one, "--noise", "pureX"], capsys)[1]


def test_decode_one_pure_x_syndrome_without_x_type_error(capsys):
    # A Z error on planar surface 3 trips X-type checks, which no X error
    # reaches; BP does not converge on it, and OSD-0 solves on the X block.
    status, out, err = run(
        ["decode-one", "--code", "surface", "--params", "3", "--noise", "pureX", "--error", "ZIIIIIIIIIIII"], capsys
    )
    assert status == 1
    assert out == "" and err == "error: no X-type error has this syndrome\n"


def test_decode_one_rejects_unknown_noise(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["decode-one", "--code", "ztgre", "--params", "3", "--error", "XIIIIIII", "--noise", "bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--noise" in err and "invalid choice" in err and "Traceback" not in err


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
         "--max-iters", "15", "--workers", "1",
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
             "--max-iters", "15", "--workers", "1", "--out", str(path)], capsys
        )
        assert code == 0
        bodies.append(json.dumps(json.loads(path.read_text())["report"], sort_keys=True))
    assert bodies[0] == bodies[1]


def test_estimate_no_witness_exits_nonzero(capsys):
    # One trial at a vanishing rate: almost surely no logical event.
    code, _, err = run(
        ["estimate", "--code", "surface", "--params", "2",
         "--rates", "0.0001", "--trials", "1", "--seed", "0",
         "--max-iters", "5", "--workers", "1"], capsys
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

    def with_y_witness(code_, cfg, workers=1):
        report = real(code_, cfg, workers=workers)
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
