"""End-to-end runs of the command-line front end."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from so3inv.cli import (UsageError, main, parse_p1, parse_primes,
                        parse_seifert, pool_size)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# argument parsing helpers


def test_parse_primes_range_and_list():
    assert parse_primes("5..13") == (5, 7, 11, 13)
    assert parse_primes("13,5,7,5") == (5, 7, 13)


def test_parse_primes_rejects_composites():
    with pytest.raises(UsageError):
        parse_primes("4,5")


def test_parse_seifert():
    S = parse_seifert("2/1,3/1,5/-4")
    assert S.fractions == ((2, 1), (3, 1), (5, -4))
    with pytest.raises(UsageError):
        parse_seifert("2/1,oops")


def test_parse_p1():
    M = parse_p1("unlink:-2,5")
    assert M.jones == "unlink" and M.framings == (-2, 5)
    with pytest.raises(UsageError):
        parse_p1("unknot")


# ---------------------------------------------------------------------------
# invariant subcommand


def test_invariant_s3_is_one(capsys):
    code, out, _ = run(capsys, "invariant", "--lens", "1,0", "--k", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split("\t") == ["manifold", "K", "coeffs", "xpoly",
                                    "diamond", "numeric"]
    row = lines[1].split("\t")
    assert row[:4] == ["L(1,0)", "5", "1,0,0,0", "1"]


def test_invariant_seifert(capsys):
    code, out, _ = run(capsys, "invariant", "--seifert", "2/1,3/1,5/-4",
                       "--k", "7")
    assert code == 0
    assert out.splitlines()[1].split("\t")[2] == "-1,-1,1,1,1,0"


def test_invariant_p1(capsys):
    code, out, _ = run(capsys, "invariant", "--p1", "unlink:-2,5", "--k", "7")
    assert code == 0
    assert out.splitlines()[1].split("\t")[2] == "-1,-2,-2,-1,0,1"


def test_invariant_json_output(capsys):
    code, out, _ = run(capsys, "invariant", "--lens", "3,1", "--k", "7",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["manifold"] == "L(3,1)"
    assert rows[0]["coeffs"] == "0,0,1,1,0,0"


def test_invariant_prime_range_sorted(capsys):
    code, out, _ = run(capsys, "invariant", "--lens", "2,1", "--lens", "1,1",
                       "--k", "7,5")
    assert code == 0
    keys = [tuple(l.split("\t")[:2]) for l in out.splitlines()[1:]]
    assert keys == sorted(keys)
    assert len(keys) == 4


def test_invariant_bad_lens_spec(capsys):
    code, _, err = run(capsys, "invariant", "--lens", "3", "--k", "5")
    assert code == 2 and "usage error" in err


@pytest.mark.parametrize("precision", ["0", "-5", "10"])
def test_invariant_low_precision_is_usage_error(capsys, precision):
    # each of these used to exit 0 with wrong digits in the numeric column
    code, out, err = run(capsys, "invariant", "--lens", "3,1", "--k", "7",
                         f"--precision={precision}")
    assert code == 2 and "usage error" in err and "--precision" in err
    assert out == ""


def test_invariant_minimum_precision_prints_true_digits(capsys):
    code, out, _ = run(capsys, "invariant", "--lens", "3,1", "--k", "7",
                       "--precision", "15")
    assert code == 0
    assert out.splitlines()[1].split("\t")[5] == (
        "-1.123489801859e+00+1.408811651299e+00j")


def test_invariant_numeric_prints_no_rounding_noise(capsys):
    # L(-5,2) is real at K = 7; its imaginary part used to print the
    # rounding noise 6.681911775230e-51 as if it were a digit
    code, out, _ = run(capsys, "invariant", "--lens=-5,2", "--k", "7")
    assert code == 0
    assert out.splitlines()[1].split("\t")[5] == (
        "-2.246979603717e+00+0.000000000000e+00j")


def test_invariant_computation_error(capsys):
    code, _, err = run(capsys, "invariant", "--lens", "3,1", "--k", "3")
    assert code == 3 and "computation failed" in err


def test_invariant_prints_every_computable_row(capsys):
    # L(3,1) at K = 3 fails a precondition; the other three pairs used
    # to be dropped with it
    argv = ("invariant", "--lens", "5,2", "--lens", "3,1", "--k", "3,7")
    code, seq, err = run(capsys, *argv, "--workers", "1")
    assert code == 3
    keys = [tuple(l.split("\t")[:2]) for l in seq.splitlines()[1:]]
    assert keys == [("L(3,1)", "7"), ("L(5,2)", "3"), ("L(5,2)", "7")]
    assert err.splitlines() == [
        "computation failed for L(3,1) at K = 3: PDivisibleByK: "
        "|H1| = 3 is divisible by K = 3"]
    code, par, _ = run(capsys, *argv, "--workers", "2")
    assert code == 3 and par == seq


@pytest.mark.parametrize("spec", [
    ("--lens", "4,2"), ("--lens", "0,1"), ("--seifert", "2/0"),
    ("--seifert", "2/1,2/-1"), ("--p1", "figure8:3"), ("--p1", "unknot:0"),
    ("--manifolds", [{"type": "lens", "p": 4, "q": 2}])])
def test_invalid_manifold_spec_is_usage_error(capsys, tmp_path, spec):
    flag, value = spec
    if flag == "--manifolds":
        path = tmp_path / "manifolds.json"
        path.write_text(json.dumps(value))
        value = str(path)
    for argv in (("invariant", "--k", "7"), ("verify", "--primes", "7"),
                 ("lambda", "--nmax", "2")):
        code, out, err = run(capsys, *argv, flag, value)
        assert code == 2 and err.startswith("usage error") and out == ""


def test_manifolds_file_and_out(tmp_path, capsys):
    spec = [{"type": "lens", "p": 3, "q": 1},
            {"type": "seifert", "fractions": [[2, 1], [3, 1], [5, -4]]},
            {"type": "p1", "jones": "unknot", "framings": [-2]}]
    mf = tmp_path / "manifolds.json"
    mf.write_text(json.dumps(spec))
    dest = tmp_path / "rows.tsv"
    code, out, _ = run(capsys, "invariant", "--manifolds", str(mf), "--k", "7",
                       "--out", str(dest))
    assert code == 0 and out == ""
    lines = dest.read_text().splitlines()
    assert len(lines) == 4
    names = sorted(l.split("\t")[0] for l in lines[1:])
    assert names == ["L(3,1)", "S[unknot;-2]", "X(2/1,3/1,5/-4)"]


# ---------------------------------------------------------------------------
# verify subcommand


def test_verify_without_targets_is_usage_error(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2 and "usage error" in err


def test_verify_gauss(capsys):
    code, out, _ = run(capsys, "verify", "--gauss", "--primes", "3..13")
    assert code == 0
    rows = [l.split("\t") for l in out.splitlines()[1:]]
    assert [r[2] for r in rows] == ["3", "5", "7", "11", "13"]
    assert all(r[3] == "pass" for r in rows)


def test_verify_lens_family(capsys):
    code, out, _ = run(capsys, "verify", "--family", "lens", "--pmax", "4",
                       "--primes", "5,7")
    assert code == 0
    rows = [l.split("\t") for l in out.splitlines()[1:]]
    assert all(r[3] in ("equal", "skipped") for r in rows)
    assert any(r[3] == "equal" for r in rows)
    # L(5,...) at K = 5 never shows up: |p| <= 4 keeps gcd(|H1|, K) = 1
    assert all(r[3] == "equal" for r in rows if r[2] == "7" or r[1] != "L(4,1)")


def test_verify_deterministic_across_workers(capsys):
    argv = ("verify", "--family", "lens", "--pmax", "4", "--primes", "5..13")
    code, seq, _ = run(capsys, *argv, "--workers", "1")
    _, par, _ = run(capsys, *argv, "--workers", "2")
    assert code == 0
    assert seq == par
    rows = [l.split("\t") for l in seq.splitlines()[1:]]
    assert len(rows) == 12 * 4
    keys = [(r[1], int(r[2])) for r in rows]
    assert keys == sorted(keys)


def test_verify_nothing_verified_fails(capsys):
    # every row is skipped: |H1| = 15 is divisible by both primes
    code, out, err = run(capsys, "verify", "--lens", "15,2",
                         "--primes", "3,5")
    rows = [l.split("\t") for l in out.splitlines()[1:]]
    assert [r[3] for r in rows] == ["skipped"] * 2
    assert code == 3
    assert "L(15,2)" in err


def test_verify_skip_detail_names_error_class(capsys):
    code, out, _ = run(capsys, "verify", "--lens", "7,3", "--primes", "5,7")
    rows = [l.split("\t") for l in out.splitlines()[1:]]
    assert code == 0 and [r[3] for r in rows] == ["equal", "skipped"]
    assert rows[1][4].startswith("H1DivisibleByK: ")


def test_verify_p1_checks_every_prime(capsys):
    code, out, err = run(capsys, "verify", "--p1", "unlink:-2,5",
                         "--primes", "7..13")
    rows = [l.split("\t") for l in out.splitlines()[1:]]
    assert code == 0 and err == ""
    assert [(r[1], r[2], r[3]) for r in rows] == [
        ("S[unlink;-2,5]", K, "equal") for K in ("7", "11", "13")]


def test_verify_one_unverified_manifold_fails_the_run(capsys):
    code, _, err = run(capsys, "verify", "--lens", "5,2", "--lens", "3,1",
                       "--primes", "5")
    assert code == 3
    assert "L(5,2)" in err and "L(3,1)" not in err


def test_bad_workers_env_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("SO3INV_WORKERS", "abc")
    code, _, err = run(capsys, "verify", "--lens", "5,2", "--primes", "7")
    assert code == 2
    assert "SO3INV_WORKERS" in err


def test_pool_size_clamp():
    assert pool_size(8, 3, 16) == 3
    assert pool_size(8, 100, 2) == 2
    assert pool_size(2, 100, 16) == 2
    assert pool_size(4, 0, 4) == 1
    assert pool_size(0, 10, 4) == 1
    assert pool_size(4, 10, None) == 1


# ---------------------------------------------------------------------------
# lambda subcommand


def test_lambda_closed_form_values(capsys):
    code, out, _ = run(capsys, "lambda", "--lens", "2,1", "--nmax", "4")
    assert code == 0
    values = [l.split("\t")[2] for l in out.splitlines()[1:]]
    assert values == ["1", "0", "-1/32", "1/32", "-57/2048"]


def test_lambda_reconstruct_agrees_with_closed_form(capsys):
    code, out, _ = run(capsys, "lambda", "--lens", "3,1", "--nmax", "2",
                       "--reconstruct", "--primes", "7..19")
    assert code == 0
    rows = [l.split("\t") for l in out.splitlines()[1:]]
    closed = {r[1]: r[2] for r in rows if r[3] == "closed-form"}
    rec = {r[1]: r[2] for r in rows if r[3] == "reconstruction"}
    assert closed == {"0": "1", "1": "1/6", "2": "-23/216"}
    assert rec == closed
    assert all(r[4] for r in rows if r[3] == "reconstruction")
    assert all(r[5] == "ok" for r in rows)


def test_lambda_reconstruct_names_skipped_primes_on_stderr(capsys):
    # |H1| = 11: one plain line per skipped prime, not a Python warning
    code, out, err = run(capsys, "lambda", "--seifert", "2/1,-3/1,5/1",
                         "--nmax", "2", "--reconstruct", "--primes", "7..23")
    assert code == 0
    assert err.splitlines() == [
        "X(2/1,-3/1,5/1): reconstruction skipped K = 11: H1DivisibleByK"]
    rows = [l.split("\t") for l in out.splitlines()[1:]]
    assert [r[2] for r in rows] == ["1", "-3/2", "1967/968"] * 2


def test_lambda_p1_prints_closed_form_and_reconstruction(capsys):
    code, out, _ = run(capsys, "lambda", "--p1", "unlink:-2,5", "--nmax", "3",
                       "--reconstruct")
    rows = [l.split("\t") for l in out.splitlines()[1:]]
    assert code == 0
    assert [r[3] for r in rows] == ["closed-form"] * 4 + ["reconstruction"] * 4
    assert [r[2] for r in rows[:4]] == [r[2] for r in rows[4:]]


@pytest.mark.parametrize("nmax", ["-1", "-7"])
def test_lambda_negative_nmax_is_usage_error(capsys, nmax):
    code, out, err = run(capsys, "lambda", "--lens", "5,2", "--nmax", nmax)
    assert code == 2 and out == ""
    assert "--nmax" in err


def test_lambda_s3_trivial(capsys):
    code, out, _ = run(capsys, "lambda", "--lens", "1,0", "--nmax", "3")
    assert code == 0
    assert [l.split("\t")[2] for l in out.splitlines()[1:]] == \
        ["1", "0", "0", "0"]


def test_lambda_reconstruct_l12_5(capsys):
    code, out, _ = run(capsys, "lambda", "--lens", "12,5", "--nmax", "6",
                       "--reconstruct", "--primes", "7..23")
    assert code == 0
    rows = [l.split("\t") for l in out.splitlines()[1:]]
    closed = {r[1]: r[2] for r in rows if r[3] == "closed-form"}
    rec = {r[1]: r[2] for r in rows if r[3] == "reconstruction"}
    assert rec == closed
    assert closed["6"] == "-10189003/429981696"


def test_verify_has_no_timings_flag(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--lens", "5,2", "--primes", "7", "--timings"])


def test_lambda_large_lens_reconstructs_quickly(capsys):
    # an O(p) Dedekind sum would spend about a minute on s(2, 1000003)
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "lambda", "--lens", "1000003,2", "--nmax",
                       "2", "--reconstruct", "--workers", "1")
    assert time.perf_counter() - t0 < 20
    assert code == 0
    rows = [l.split("\t") for l in out.splitlines()[1:]]
    closed = {r[1]: r[2] for r in rows if r[3] == "closed-form"}
    rec = {r[1]: r[2] for r in rows if r[3] == "reconstruction"}
    assert set(closed) == {"0", "1", "2"}
    assert rec == closed


def test_exact_commands_never_import_mpmath():
    # mpmath serves only the numeric column and the surgery oracle
    script = """
import contextlib, io, sys
import so3inv.cli
assert "mpmath" not in sys.modules, "import"
with contextlib.redirect_stdout(io.StringIO()):
    codes = (so3inv.cli.main(["verify", "--family", "lens", "--pmax", "3",
                              "--primes", "5..13", "--workers", "1"]),
             so3inv.cli.main(["lambda", "--seifert", "2/1,3/1,5/-4",
                              "--nmax", "3", "--reconstruct",
                              "--workers", "1"]),
             so3inv.cli.main(["verify", "--p1", "unlink:-2,5"]),
             so3inv.cli.main(["lambda", "--p1", "unknot:3",
                              "--reconstruct"]))
assert codes == (0, 0, 0, 0), codes
assert "mpmath" not in sys.modules, "run"
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("SO3INV_WORKERS", None)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
