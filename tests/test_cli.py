"""End-to-end CLI behavior: commands, formats, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from weyrlab.cli import main
from weyrlab.io_formats import dump_json, load_pencil, pencil_to_dict
from weyrlab.linalg import Matrix
from weyrlab.pencils import OperatorPencil


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_pencil(tmp_path, name, e_rows, a_rows):
    p = OperatorPencil.from_matrices(Matrix.from_rows(e_rows), Matrix.from_rows(a_rows))
    path = tmp_path / name
    path.write_text(dump_json(pencil_to_dict(p)) + "\n", encoding="utf-8")
    return str(path)


def test_gen_analyze_round_trip(tmp_path, capsys):
    out = tmp_path / "p.json"
    code, _, _ = run_cli(capsys, "gen", "--blocks", "2@1/1,1@inf", "--out", str(out))
    assert code == 0
    code, text, _ = run_cli(capsys, "analyze", "--pencil", str(out))
    assert code == 0
    data = json.loads(text)
    assert data["spectrum"]["finite"] == [{"multiplicity": 2, "value": "1"}]
    assert data["spectrum"]["has_infinity"] is True
    assert data["spectrum"]["infinity_multiplicity"] == 1
    tables = {t["at"]: t["indices"] for t in data["weyr_tables"]}
    assert tables["1"] == [1, 1]
    assert tables["inf"] == [1]


def test_gen_scrambled_round_trip_preserves_planted_structure(tmp_path, capsys):
    out = tmp_path / "p.json"
    code, _, _ = run_cli(
        capsys, "gen", "--blocks", "2@1/1,1@inf,1@1/2", "--seed", "11", "--out", str(out)
    )
    assert code == 0
    p = load_pencil(str(out))
    assert p.e_mat != Matrix.identity(4)  # actually scrambled
    code, text, _ = run_cli(capsys, "analyze", "--pencil", str(out))
    data = json.loads(text)
    assert {f["value"]: f["multiplicity"] for f in data["spectrum"]["finite"]} == {"1": 2, "1/2": 1}
    tables = {t["at"]: t["indices"] for t in data["weyr_tables"]}
    assert tables["1"] == [1, 1] and tables["inf"] == [1] and tables["1/2"] == [1]


def test_gen_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(capsys, "gen", "--blocks", "3@0/1,2@inf", "--seed", "5", "--out", str(a))
    run_cli(capsys, "gen", "--blocks", "3@0/1,2@inf", "--seed", "5", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_analyze_markdown_and_points(tmp_path, capsys):
    path = write_pencil(tmp_path, "p.json", [[1, 0], [0, 1]], [[1, 0], [0, 2]])
    code, text, _ = run_cli(
        capsys, "analyze", "--pencil", path, "--points", "5,inf", "--format", "md"
    )
    assert code == 0
    assert "| eigenvalue | multiplicity |" in text
    assert "Weyr table at 5" in text
    assert "(empty: not an eigenvalue)" in text


def test_analyze_rejects_singular_pencil(tmp_path, capsys):
    path = write_pencil(tmp_path, "zero.json", [[0, 0], [0, 0]], [[0, 0], [0, 0]])
    code, _, err = run_cli(capsys, "analyze", "--pencil", path)
    assert code == 2
    assert "not regular" in err


def test_analyze_rejects_missing_and_malformed_files(tmp_path, capsys):
    code, _, err = run_cli(capsys, "analyze", "--pencil", str(tmp_path / "nope.json"))
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "analyze", "--pencil", str(bad))
    assert code == 2
    assert "JSON" in err
    nonsquare = tmp_path / "shape.json"
    nonsquare.write_text(json.dumps({"n": 2, "E": [["1"]], "A": [["1"]]}), encoding="utf-8")
    code, _, err = run_cli(capsys, "analyze", "--pencil", str(nonsquare))
    assert code == 2


def test_repr_check_identities_hold(tmp_path, capsys):
    path = write_pencil(tmp_path, "d.json", [[1, 0], [0, 1]], [[2, 0], [0, 3]])
    code, text, _ = run_cli(
        capsys, "repr-check", "--pencil", path, "--mu", "0", "--lambda", "1"
    )
    assert code == 0
    data = json.loads(text)
    assert data["all_equal"] is True
    assert set(data["verdicts"].values()) == {"equal"}


def test_repr_check_rejects_eigenvalue_mu(tmp_path, capsys):
    path = write_pencil(tmp_path, "d.json", [[1, 0], [0, 1]], [[2, 0], [0, 3]])
    code, _, err = run_cli(capsys, "repr-check", "--pencil", path, "--mu", "2", "--lambda", "1")
    assert code == 2
    assert "resolvent" in err


@pytest.mark.parametrize("mu", ["\u0661\u0662", "12\n"], ids=["arabic_indic_digits", "final_newline"])
def test_repr_check_rejects_scalars_outside_the_grammar(tmp_path, capsys, mu):
    path = write_pencil(tmp_path, "d.json", [[1, 0], [0, 1]], [[2, 0], [0, 3]])
    code, _, err = run_cli(capsys, "repr-check", "--pencil", path, "--mu", mu, "--lambda", "1")
    assert code == 2
    assert "malformed scalar" in err


def test_repr_check_rejects_singular_pencil(tmp_path, capsys):
    path = write_pencil(tmp_path, "zero.json", [[0, 0], [0, 0]], [[0, 0], [0, 0]])
    code, _, _ = run_cli(capsys, "repr-check", "--pencil", path, "--mu", "0", "--lambda", "1")
    assert code == 2


def test_perturb_offside_worked_example(tmp_path, capsys):
    path = write_pencil(tmp_path, "zero.json", [[0, 0], [0, 0]], [[0, 0], [0, 0]])
    code, text, _ = run_cli(
        capsys,
        "perturb",
        "--pencil", path,
        "--type", "u",
        "--u", "1,0",
        "--vfunc", "1,0",
        "--wfunc", "0,1",
    )
    assert code == 0  # matching-side bound holds; off side is informational
    data = json.loads(text)
    assert data["matching_side"] == "kernel"
    assert data["range_side_distance"] == 2
    assert data["matching_side_distance"] <= 1
    assert data["matching_bound_holds"] is True
    assert data["weyr_delta"] is None  # zero pencil is not regular
    assert "not regular" in data["note"]


def test_perturb_regular_pencil_reports_deltas(tmp_path, capsys):
    path = write_pencil(tmp_path, "j.json", [[1, 0], [0, 1]], [[0, 1], [0, 0]])
    code, text, _ = run_cli(
        capsys,
        "perturb",
        "--pencil", path,
        "--type", "u",
        "--u", "1,0",
        "--vfunc", "0,0",
        "--wfunc", "1,0",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(text)
    delta = data["weyr_delta"]
    tables = {t["at"]: (t["base"]["indices"], t["perturbed"]["indices"]) for t in delta["tables"]}
    assert tables["0"] == ([1, 1], [1])
    assert delta["violations"] == []


def test_perturb_flag_validation(tmp_path, capsys):
    path = write_pencil(tmp_path, "j.json", [[1, 0], [0, 1]], [[0, 1], [0, 0]])
    code, _, err = run_cli(
        capsys, "perturb", "--pencil", path, "--type", "v", "--u", "1,0", "--vfunc", "1,0"
    )
    assert code == 2 and "--w" in err
    code, _, err = run_cli(
        capsys, "perturb", "--pencil", path, "--type", "u", "--u", "1,0",
        "--vfunc", "1,0", "--w", "1,0", "--wfunc", "1,0",
    )
    assert code == 2


def test_verify_small_suite_exits_zero(capsys):
    code, text, _ = run_cli(
        capsys, "verify", "--suite", "matching_distance", "--trials", "5", "--seed", "42"
    )
    assert code == 0
    data = json.loads(text)
    assert data["failed"] == 0 and data["trials"] == 5
    assert data["config"]["max_dim"] == 6 and data["config"]["entry_bound"] == 3


def test_verify_reports_are_byte_deterministic(capsys):
    argv = ["verify", "--suite", "perturbation_bounds", "--trials", "4", "--seed", "9",
            "--max-dim", "4"]
    code1, text1, _ = run_cli(capsys, *argv)
    code2, text2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    d1, d2 = json.loads(text1), json.loads(text2)
    d1.pop("elapsed_ms"), d2.pop("elapsed_ms")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_verify_unknown_suite_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "bogus", "--trials", "1", "--seed", "1")
    assert code == 2
    assert "unknown suite" in err


def test_verify_exit_code_one_on_violation(capsys, monkeypatch):
    import weyrlab.cli as cli_mod
    from weyrlab.perturbations import TrialResult, VerificationReport, Violation
    from weyrlab.scalars import gr

    def fake_run(suite, config):
        violations = (Violation("weyr_index_delta", gr(0), 1, 0, 2), Violation("perturbed_pencil_not_regular"))
        return VerificationReport(
            suite=suite, seed=config.seed, config=config, trials=1, passed=0, failed=1,
            failures=(TrialResult(0, violations=violations),),
            elapsed_ms=1,
        )

    monkeypatch.setattr(cli_mod, "run_suite", fake_run)
    code, text, _ = run_cli(capsys, "verify", "--suite", "perturbation_bounds",
                            "--trials", "1", "--seed", "1", "--format", "md")
    assert code == 1
    assert "- FAILURE trial 0: weyr_index_delta at 0 k=1\n" in text
    assert "- FAILURE trial 0: perturbed_pencil_not_regular\n" in text


def test_gen_rejects_malformed_blocks(tmp_path, capsys):
    code, _, err = run_cli(capsys, "gen", "--blocks", "2@", "--out", str(tmp_path / "x.json"))
    assert code == 2
    code, _, err = run_cli(capsys, "gen", "--blocks", "0@1/1", "--out", str(tmp_path / "x.json"))
    assert code == 2
    code, _, err = run_cli(capsys, "gen", "--blocks", "nope", "--out", str(tmp_path / "x.json"))
    assert code == 2


@pytest.mark.parametrize("target", ["missing/x.json", "."], ids=["missing_directory", "directory"])
def test_gen_unwritable_out_is_an_input_error(tmp_path, target):
    proc = subprocess.run(
        [sys.executable, "-m", "weyrlab.cli", "gen", "--blocks", "1@inf", "--out", str(tmp_path / target)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write pencil file: ")


def test_usage_error_exit_code_via_subprocess(tmp_path):
    # argparse usage failures must exit 2 through the console entry point
    proc = subprocess.run(
        [sys.executable, "-m", "weyrlab.cli", "analyze"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    proc = subprocess.run(
        [sys.executable, "-m", "weyrlab.cli", "frobnicate"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2


def test_markdown_verify_output(capsys):
    code, text, _ = run_cli(
        capsys, "verify", "--suite", "singular_subspace", "--trials", "3", "--seed", "5",
        "--format", "md",
    )
    assert code == 0
    assert "# Verification suite: singular_subspace" in text
    assert "- failed: 0" in text


def test_overlong_scalar_is_an_input_error_without_traceback(tmp_path):
    # 5000 digits exceed the interpreter's integer conversion limit.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 1, "E": [["1" * 5000]], "A": [["0"]]}), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "weyrlab.cli", "analyze", "--pencil", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


def test_boolean_dimension_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"n": True, "E": [["1"]], "A": [["0"]]}), encoding="utf-8")
    code, _, err = run_cli(capsys, "analyze", "--pencil", str(path))
    assert code == 2
    assert "n must be a positive integer" in err


def test_seed_7_reports_are_byte_identical(tmp_path, capsys):
    # sha256 of the stdout of three reports on one scrambled planted pencil;
    # a refactor that changes any byte of them changes a hash.
    import hashlib

    pencil = str(tmp_path / "p.json")
    assert main(["gen", "--blocks", "2@1/1,3@0/1,2@inf", "--seed", "7", "--out", pencil]) == 0
    capsys.readouterr()
    runs = {
        "200f808edb9e9407afb76ab970b5646998d2cc76d3d9aa30468e45c122d5ff9a": [
            "analyze", "--pencil", pencil, "--format", "json",
        ],
        "3050f8f8eab0fa45ad7a5b4192e0688b2efc7c11f0f5f8ef3976e1585f5e7aff": [
            "perturb", "--pencil", pencil, "--type", "v", "--u", "1,0,0,0,0,0,1",
            "--w", "0,1,0,0,0,0,0", "--vfunc", "1,1,0,0,0,0,0", "--format", "json",
        ],
        "a66c2b0c228453c86405dc20a2433efd9a7f9af559f7607a4de4e49270f071f0": [
            "perturb", "--pencil", pencil, "--type", "u", "--u", "0,0,1,0,0,1,0",
            "--vfunc", "1,0,0,0,1,0,0", "--wfunc", "0,0,0,1,0,0,1", "--format", "json",
        ],
    }
    for digest, argv in runs.items():
        code, text, _ = run_cli(capsys, *argv)
        assert code == 0, argv[0]
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, argv[:4]


@pytest.mark.parametrize(
    "blocks, digest",
    [
        ("2@inf,2@1", "77c2c601f1b700b49a262062ba7f171c5baa75a8ca113eb8e1613ba7643a4c34"),
        (
            "1@inf,2@1/2+1*i,1@inf,3@0",
            "b97c42f6b7d93dfaaa1f4644f3a3664cb68e6c97392f31bed2afd28c7d54c2d2",
        ),
    ],
)
def test_gen_interleaved_blocks_are_byte_identical(tmp_path, capsys, blocks, digest):
    # Infinite blocks listed before or between finite ones; the file bytes pin
    # the block order of the assembled pencil and the seeded scramble.
    import hashlib

    out = tmp_path / "p.json"
    code, _, _ = run_cli(capsys, "gen", "--blocks", blocks, "--seed", "3", "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_seed_42_suite_reports_are_byte_identical(capsys):
    # sha256 of each 10-trial suite report with elapsed_ms dropped, re-dumped
    # with sorted keys; a refactor that changes any byte of them changes a hash.
    import hashlib

    digests = {
        "resolvent_representation": "89c16a955224c952db50f3e8647d07b29fbc26fa5f635e07a599013e032d4dc3",
        "kernel_range_identities": "6fe86ee9b530673b8979a9a57a14ed06f47455a25b653df978ecb274cf6f6636",
        "spectrum_equality": "b1a3a0e4a53a18d219fdf5025fd1843d34d922f815d301ebb0666036d39946e2",
        "weyr_equality": "feea0f30bbd66d1b9439449735673ac20cacb6a4510fd35d621c1e5c90497cb1",
        "singular_subspace": "549e0baf6a9638151172bf24c7d51e72864702431b27fd8205681ce4c55db8c0",
        "matching_distance": "6ce0e6c15c04fe949a3d05891b5240e89ff123a16e575696e7385d81df6c19f3",
        "perturbation_bounds": "704fc147987eb51a20f3cd31306c00440ac96316b5fe1f7826ded7f92f317f1c",
        "relation_weyr_bound": "8a0ef6c70210a963d7e8d56d496e32f13942ce0bd45703f1a4c0579cbf1643ed",
    }
    for suite, digest in digests.items():
        code, text, _ = run_cli(
            capsys, "verify", "--suite", suite, "--trials", "10", "--seed", "42", "--format", "json"
        )
        assert code == 0, suite
        data = json.loads(text)
        data.pop("elapsed_ms")
        canonical = json.dumps(data, sort_keys=True).encode("utf-8")
        assert hashlib.sha256(canonical).hexdigest() == digest, suite


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--max-dim", "0"], "--max-dim"),
        (["--entry-bound", "-1"], "--entry-bound"),
        (["--trials", "-5", "--format", "md"], "--trials"),
    ],
)
def test_verify_rejects_out_of_range_arguments(capsys, extra, message):
    argv = ["verify", "--suite", "all", "--trials", "2", "--seed", "1"] + extra
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_overlong_output_prints_without_traceback(tmp_path):
    # Each input entry is under the parse limit, but the residual's constant
    # 1 - b*c has 5999 digits, past the interpreter's int-to-str limit.
    b = "1" + "0" * 2998 + "1"  # 10^2999 + 1
    c = "2" + "0" * 2998 + "2"  # 2 b, so b*c = 2 b^2 is no square
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"n": 2, "E": [["1", "0"], ["0", "1"]], "A": [["1", b], [c, "1"]]}),
                    encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "weyrlab.cli", "analyze", "--pencil", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    residual = json.loads(proc.stdout)["spectrum"]["residual_coeffs"]
    # 1 - 2 (10^2999 + 1)^2 = -(2 * 10^5998 + 4 * 10^2999 + 1)
    assert residual == ["-2" + "0" * 2998 + "4" + "0" * 2998 + "1", "-2", "1"]


def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    import weyrlab.cli as cli_mod

    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli_mod, "cmd_verify", crash)
    code, text, err = run_cli(capsys, "verify", "--suite", "perturbation_bounds",
                              "--trials", "1", "--seed", "1")
    assert code == 3
    assert text == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_analyze_semiprime_leading_coefficient(tmp_path):
    # det = N x^3 - 2 with N a 37-digit product of two primes; a root search
    # that factors N does not finish in time.
    n = "3000000000000000046000000000000000111"
    path = write_pencil(tmp_path, "semiprime.json", [[int(n), 0, 0], [0, 1, 0], [0, 0, 1]],
                        [[0, 0, 2], [1, 0, 0], [0, 1, 0]])
    proc = subprocess.run(
        [sys.executable, "-m", "weyrlab.cli", "analyze", "--pencil", path],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    spectrum = json.loads(proc.stdout)["spectrum"]
    assert spectrum["finite"] == []
    assert spectrum["residual_coeffs"] == ["-2", "0", "0", n]
