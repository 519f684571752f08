"""End-to-end runs of the command-line front end."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from so3inv.cli import (UsageError, main, parse_lens, parse_p1,
                        parse_primes, parse_seifert, pool_size)
from so3inv import ohtsuki
from so3inv.arith import odd_primes, rat_residue
from so3inv.cyclotomic import diamond
from so3inv.errors import BoundViolation, NotRHS
from so3inv.nt import Lens
from so3inv.ohtsuki import closed_zprime
from so3inv.series import RatSeries, shadow


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


@pytest.mark.parametrize("argv, flag", [
    (("invariant", "--lens", "5,2", "--k", "9"), "--k"),
    (("verify", "--lens", "5,2", "--primes", "9"), "--primes"),
    (("lambda", "--lens", "5,2", "--reconstruct", "--primes", "9"),
     "--primes")])
def test_prime_list_error_names_the_flag_given(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"usage error: {flag}: K must be an odd prime, got 9\n"


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
    # an empty framing list is the empty surgery, and still has to fit
    # the table's arity; an empty framing between commas is no integer
    assert parse_p1("unlink:").framings == ()
    with pytest.raises(NotRHS, match="expects 1 components, got 0"):
        parse_p1("unknot:")
    with pytest.raises(UsageError, match="non-integer framing in ','"):
        parse_p1("unlink:,")


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


def test_invariant_empty_p1_is_one(capsys):
    code, out, _ = run(capsys, "invariant", "--p1", "unlink:", "--k", "7")
    assert code == 0
    assert out.splitlines()[1].split("\t")[:3] == ["S[unlink;]", "7",
                                                   "1,0,0,0,0,0"]


def test_invariant_seifert(capsys):
    code, out, _ = run(capsys, "invariant", "--seifert", "2/1,3/1,5/-4",
                       "--k", "7")
    assert code == 0
    assert out.splitlines()[1].split("\t")[2] == "-1,-1,1,1,1,0"


def test_invariant_p1(capsys):
    code, out, _ = run(capsys, "invariant", "--p1", "unlink:-2,5", "--k", "7")
    assert code == 0
    assert out.splitlines()[1].split("\t")[2] == "-1,-2,-2,-1,0,1"


@pytest.mark.parametrize("flag, spec, parse", [
    ("--lens", "-8,3", parse_lens),
    ("--seifert", "2/1,3/1,-4/3", parse_seifert),
    ("--p1", "unlink:2,-3,4", parse_p1)])
def test_invariant_diamond_column_is_diamond_of_zprime(capsys, flag, spec,
                                                      parse):
    # the diamond column, at every prime of the range, is the mod-K
    # window of Z' written as comma-separated residues
    code, out, err = run(capsys, "invariant", f"{flag}={spec}",
                         "--k", "5..31")
    assert code == 0 and err == ""
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    assert [int(r[1]) for r in rows] == list(odd_primes(5, 31))
    m = parse(spec)
    for r in rows:
        K = int(r[1])
        assert r[4] == ",".join(map(str, diamond(closed_zprime(m, K)))), K


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
    # L(3,1) at K = 3 fails a precondition (K divides |H1|); the other
    # three pairs used to be dropped with it
    argv = ("invariant", "--lens", "5,2", "--lens", "3,1", "--k", "3,7")
    code, seq, err = run(capsys, *argv, "--workers", "1")
    assert code == 3
    keys = [tuple(l.split("\t")[:2]) for l in seq.splitlines()[1:]]
    assert keys == [("L(3,1)", "7"), ("L(5,2)", "3"), ("L(5,2)", "7")]
    assert err.splitlines() == [
        "computation failed for L(3,1) at K = 3: H1DivisibleByK: "
        "|H1| = 3 is divisible by K = 3"]
    code, par, _ = run(capsys, *argv, "--workers", "2")
    assert code == 3 and par == seq


def test_invariant_stderr_deterministic_across_workers(capsys):
    # the failed pair's line is printed by the collector, after the
    # rows, whichever process computed it
    argv = ("invariant", "--lens", "5,2", "--lens", "3,1", "--k", "3,7")
    seq = run(capsys, *argv, "--workers", "1")
    assert run(capsys, *argv, "--workers", "2") == seq
    code, _, err = seq
    assert code == 3
    assert err.splitlines() == [
        "computation failed for L(3,1) at K = 3: H1DivisibleByK: "
        "|H1| = 3 is divisible by K = 3"]


@pytest.mark.parametrize("spec", [
    ("--lens", "4,2"), ("--lens", "0,1"), ("--seifert", "2/0"),
    ("--seifert", "2/1,2/-1"), ("--p1", "figure8:3"), ("--p1", "unknot:0"),
    ("--manifolds", [{"type": "lens", "p": 4, "q": 2}]),
    # JSON values are never coerced: each of these once printed rows
    ("--manifolds", [{"type": "lens", "p": 5.5, "q": 2}]),
    ("--manifolds", [{"type": "lens", "p": True, "q": 2}]),
    ("--manifolds", [{"type": "lens", "p": "5", "q": 2}]),
    ("--manifolds", [{"type": "p1", "jones": "unlink", "framings": "23"}]),
    ("--manifolds", [{"type": "seifert", "fractions": [[2, 1.9], [3, 1]]}]),
    ("--p1", "unknot:"), ("--p1", "unlink:,")])
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


MF = ("--manifolds", "{path}")


@pytest.mark.parametrize("argv, text, message", [
    (("invariant", "--lens", "5,x", "--k", "7"), None,
     "--lens: non-integer in '5,x'"),
    (("invariant", "--seifert", "2/x", "--k", "7"), None,
     "--seifert: non-integer in '2/x'"),
    (("verify", "--lens", "5,2", "--primes", "5..x"), None,
     "--primes: bad range '5..x'"),
    (("verify", "--lens", "5,2", "--primes", "5,x"), None,
     "--primes: bad list '5,x'"),
    (("verify", "--lens", "5,2", "--primes", "24..28"), None,
     "--primes: empty after filtering: '24..28'"),
    (("invariant", *MF, "--k", "7"), '{"type": "lens"}',
     "--manifolds: top level must be a JSON list"),
    (("invariant", *MF, "--k", "7"), '[{"type": "torus", "p": 1}]',
     "unknown manifold type {{'type': 'torus', 'p': 1}}"),
    (("invariant", *MF, "--k", "7"), '[{"type":\n',
     "--manifolds {path}: Expecting value: line 2 column 1 (char 10)"),
    (("invariant", *MF, "--k", "7"), None,
     "--manifolds {path}: [Errno 2] No such file or directory: '{path}'"),
    (("invariant", *MF, "--k", "7"), "[]", "no manifolds given"),
    (("lambda", *MF), "[]", "no manifolds given")],
    ids=["lens", "seifert", "range", "list", "no-primes", "not-a-list",
         "unknown-type", "bad-json", "missing-file", "empty-invariant",
         "empty-lambda"])
def test_usage_error_messages(capsys, tmp_path, argv, text, message):
    # a manifolds file is written only when the case gives its text
    path = str(tmp_path / "manifolds.json")
    if text is not None:
        Path(path).write_text(text)
    code, out, err = run(capsys, *(a.format(path=path) for a in argv))
    assert (code, out) == (2, "")
    assert err == "usage error: " + message.format(path=path) + "\n"


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


@pytest.mark.parametrize("dest", ["missing/rows.tsv", "."])
def test_unwritable_out_is_usage_error(capsys, tmp_path, dest):
    # a missing directory or a directory used to end in a traceback
    dest = str(tmp_path / dest)
    for argv in (("invariant", "--lens", "5,2", "--k", "7"),
                 ("verify", "--lens", "5,2", "--primes", "7"),
                 ("lambda", "--lens", "5,2"),
                 ("lambda", "--seifert", "2/1,-3/1,5/1", "--nmax", "2",
                  "--reconstruct")):
        code, out, err = run(capsys, *argv, "--out", dest)
        assert code == 2 and out == ""
        assert err.startswith(f"usage error: --out {dest}: [Errno ")


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


def test_verify_stderr_deterministic_across_workers(capsys):
    # Gauss rows, then identity rows; L(15,2) is skipped at both primes
    argv = ("verify", "--gauss", "--lens", "15,2", "--lens", "5,2",
            "--primes", "3,5")
    seq = run(capsys, *argv, "--workers", "1")
    assert run(capsys, *argv, "--workers", "2") == seq
    code, out, err = seq
    assert code == 3
    assert [l.split("\t")[:4] for l in out.splitlines()[1:]] == [
        ["gauss", "gauss-sum", "3", "pass"],
        ["gauss", "gauss-sum", "5", "pass"],
        ["identity", "L(15,2)", "3", "skipped"],
        ["identity", "L(15,2)", "5", "skipped"],
        ["identity", "L(5,2)", "3", "equal"],
        ["identity", "L(5,2)", "5", "skipped"]]
    assert err == ("nothing verified for L(15,2): no prime gave an equal "
                   "row\n")


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


def _bent_series(real, n, delta):
    """closed_lambda_series with delta added to lambda_n."""
    def bent(m, n_max):
        values = list(real(m, n_max).coeffs)
        values[n] += delta
        return RatSeries(values, n_max)
    return bent


def test_verify_unequal_row_fails_the_run(capsys, monkeypatch):
    # lambda_4 off by one: K = 7 reads through x^3 only, K = 11 differs
    # at x^4; one unequal row fails the run although a prime verified
    monkeypatch.setattr(ohtsuki, "closed_lambda_series", _bent_series(
        ohtsuki.closed_lambda_series, 4, 1))
    code, out, err = run(capsys, "verify", "--lens", "5,2",
                         "--primes", "7,11", "--workers", "1")
    rows = [l.split("\t") for l in out.splitlines()[1:]]
    assert rows == [["identity", "L(5,2)", "7", "equal", ""],
                    ["identity", "L(5,2)", "11", "unequal",
                     "first_mismatch=x^4"]]
    assert err == "1 of 2 checks failed\n"
    assert code == 3


def test_lambda_cross_path_mismatch_fails_the_run(capsys, monkeypatch):
    # lambda_1 off by an integer keeps every bound, so only the
    # comparison with the reconstruction can fail the run
    monkeypatch.setattr(ohtsuki, "closed_lambda_series", _bent_series(
        ohtsuki.closed_lambda_series, 1, 1))
    code, out, err = run(capsys, "lambda", "--lens", "5,2", "--nmax", "2",
                         "--reconstruct", "--workers", "1")
    rows = [l.split("\t") for l in out.splitlines()[1:]]
    assert [r[5] for r in rows] == ["ok"] * 6
    assert err == "cross-path mismatch for L(5,2)\n"
    assert code == 3


def test_lambda_bounds_violation_fails_the_run(capsys, monkeypatch):
    # a denominator 2^13 at n = 1 breaks the integrality bound
    monkeypatch.setattr(ohtsuki, "closed_lambda_series", _bent_series(
        ohtsuki.closed_lambda_series, 1, Fraction(1, 2 ** 13)))
    code, out, err = run(capsys, "lambda", "--lens", "5,2", "--nmax", "2",
                         "--workers", "1")
    rows = [l.split("\t") for l in out.splitlines()[1:]]
    assert [r[5].split(":")[0] for r in rows] == ["ok", "violated", "ok"]
    assert "integrality bound" in rows[1][5]
    assert err == ""
    assert code == 3


def test_reconstruction_bounds_violation_fails_the_run(capsys, monkeypatch):
    # residues of lambda_1 + 1/2^13 at every prime: reconstruction
    # recovers that value, and its own bounds check is the only one
    # that sees it
    real = ohtsuki.diamond_side

    def shifted(m, K, terms=None):
        coeffs = list(real(m, K, terms))
        coeffs[1] += rat_residue(Fraction(1, 2 ** 13), K)
        return shadow(coeffs, K)

    monkeypatch.setattr(ohtsuki, "diamond_side", shifted)
    with pytest.raises(BoundViolation, match="integrality bound"):
        ohtsuki.reconstruct_lambda(Lens(5, 2), odd_primes(7, 23), 2)
    code, out, err = run(capsys, "lambda", "--lens", "5,2", "--nmax", "2",
                         "--reconstruct", "--workers", "1")
    assert err.startswith("computation failed: BoundViolation: lambda_1 of "
                          "L(5,2) = ")
    assert "integrality bound" in err
    assert out == "manifold\tn\tvalue\tprovenance\tmodulus\tbounds\n"
    assert code == 3


def test_lambda_prints_every_manifold_it_computed(capsys, monkeypatch):
    # with no prime read past the seeds, |H1| = 1987 * 1993 * 1997 takes
    # three of the five seed primes, so L(7908301727,1) cannot
    # reconstruct; L(5,2) still prints its rows
    monkeypatch.setattr(ohtsuki, "PRIMES_PAST_SEEDS", 0)
    code, out, err = run(capsys, "lambda", "--lens", "5,2", "--lens",
                         "7908301727,1", "--nmax", "2", "--reconstruct",
                         "--primes", "1979..1999", "--workers", "1")
    rows = [l.split("\t") for l in out.splitlines()[1:]]
    assert rows == [
        ["L(5,2)", str(n), v, "closed-form", "", "ok"]
        for n, v in enumerate(("1", "0", "-1/25"))] + [
        ["L(5,2)", str(n), v, "reconstruction", "3932273", "ok"]
        for n, v in enumerate(("1", "0", "-1/25"))]
    assert err == (
        "computation failed: InsufficientModulus: lambda_0 of "
        "L(7908301727,1): no fraction both stable and confirmed by two "
        "held-out primes, from 2 primes, the seeds and at most 0 primes "
        "above them (modulus 3956021)\n")
    assert code == 3


def test_lambda_reconstructs_from_seeds_near_2000(capsys):
    # the stream reads primes past a seed of 1999 too: the same values
    # as from seeds 7..23, only the moduli differ
    def values(primes):
        code, out, err = run(capsys, "lambda", "--p1", "unlink:-2,5",
                             "--nmax", "2", "--reconstruct", "--primes",
                             primes)
        assert code == 0 and err == ""
        return [l.split("\t")[:3] for l in out.splitlines()]

    rows = values("1979..1999")
    assert rows == values("7..23")
    assert [v for _, _, v in rows[1:]] == ["1", "-3/5", "327/800"] * 2


@pytest.mark.parametrize("flag, spec, K, h1", [
    ("--lens", "3,1", 3, 3), ("--seifert", "2/1,3/1,5/1", 31, 31),
    ("--p1", "unlink:-2,5", 5, 10)])
def test_h1_divisible_by_k_has_one_name(capsys, flag, spec, K, h1):
    # invariant, verify and lambda --reconstruct name the one condition
    # "K divides |H1|" alike, for every presentation
    why = f"H1DivisibleByK: |H1| = {h1} is divisible by K = {K}"
    code, out, err = run(capsys, "invariant", flag, spec, "--k", str(K))
    assert code == 3 and err.endswith(f" at K = {K}: {why}\n")
    code, out, _ = run(capsys, "verify", flag, spec, "--primes", str(K))
    assert code == 3 and out.splitlines()[1].endswith(f"\tskipped\t{why}")
    code, _, err = run(capsys, "lambda", flag, spec, "--nmax", "1",
                       "--reconstruct", "--primes", str(K))
    assert code == 0
    assert f"reconstruction skipped K = {K}: H1DivisibleByK\n" in err


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


def test_lambda_reconstruct_deterministic_across_workers(capsys,
                                                         monkeypatch):
    # --workers 2 runs one task per manifold in worker processes; stdout,
    # stderr and the exit code are those of the sequential run
    import concurrent.futures
    import multiprocessing

    started = []

    class Spy(concurrent.futures.ProcessPoolExecutor):
        def map(self, *args, **kw):
            results = list(super().map(*args, **kw))
            started.extend(p.pid for p in multiprocessing.active_children())
            return results

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    argv = ("lambda", "--lens", "12,5", "--seifert", "2/1,3/1,5/-4",
            "--seifert", "2/1,-3/1,5/1", "--p1", "unlink:-2,5",
            "--nmax", "4", "--reconstruct")
    seq = run(capsys, *argv, "--workers", "1")
    assert not started
    assert run(capsys, *argv, "--workers", "2") == seq
    assert started
    code, out, err = seq
    assert code == 0
    assert err == ("X(2/1,-3/1,5/1): reconstruction skipped K = 11: "
                   "H1DivisibleByK\n")
    rows = [l.split("\t") for l in out.splitlines()[1:]]
    assert len(rows) == 4 * 2 * 5
    # a manifold that fails names itself on stderr where it sorts, and
    # every other manifold still prints its rows; with no prime read past
    # the seeds (the forked workers inherit the bound), |H1| leaves the
    # unlink surgery one prime
    monkeypatch.setattr(ohtsuki, "PRIMES_PAST_SEEDS", 0)
    argv = ("lambda", "--p1", "unlink:5,7,11,13,17,1999", "--lens",
            "5997,2", "--nmax", "0", "--reconstruct", "--primes",
            "3,5,7,11,13,17,1999")
    seq = run(capsys, *argv, "--workers", "1")
    assert run(capsys, *argv, "--workers", "2") == seq
    code, out, err = seq
    assert code == 3
    assert out.splitlines()[1:] == ["L(5997,2)\t0\t1\tclosed-form\t\tok",
                                    "L(5997,2)\t0\t1\treconstruction\t385\tok"]
    assert err.splitlines() == [
        "L(5997,2): reconstruction skipped K = 3: H1DivisibleByK",
        "computation failed: InsufficientModulus: lambda_0 of "
        "S[unlink;5,7,11,13,17,1999]: no fraction both stable and "
        "confirmed by two held-out primes, from 1 primes, the seeds and "
        "at most 0 primes above them (modulus 3)"]


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


def _fresh_process(script: str) -> subprocess.CompletedProcess:
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv", [
    ("verify", "--lens", "5,2", "--primes", "7..13"),
    ("verify", "--family", "lens", "--pmax", "12", "--primes", "5..61")],
    ids=["buffered", "large"])
def test_closed_stdout_exits_2_without_traceback(argv):
    # the reader is gone before the report is written; with stdout
    # buffered, a short report fails at the last flush, a long one
    # inside print
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.Popen([sys.executable, "-m", "so3inv.cli", *argv],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 2
    assert err == ""


def test_exact_commands_never_import_mpmath():
    # the roots tables behind the numeric column and the surgery oracle
    # are computed in integers, so no command and not the oracle loads
    # mpmath
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
                              "--reconstruct"]),
             so3inv.cli.main(["invariant", "--seifert", "2/1,3/1,5/-4",
                              "--k", "101..113", "--workers", "1"]),
             so3inv.cli.main(["invariant", "--seifert", "2/1,3/1,5/-4",
                              "--k", "101..113", "--precision", "120",
                              "--workers", "1"]))
assert codes == (0, 0, 0, 0, 0, 0), codes
assert "mpmath" not in sys.modules, "run"
from so3inv.cyclotomic import eval_complex
from so3inv.nt import SeifertData
from so3inv.ohtsuki import closed_zprime
from so3inv.surgery import zprime_numeric
m = SeifertData([(2, 1), (3, 1), (5, -4)])
z = zprime_numeric(m, 211)
assert abs(z - eval_complex(closed_zprime(m, 211))) < 1e-9, z
assert "mpmath" not in sys.modules, "oracle"
"""
    proc = _fresh_process(script)
    assert proc.returncode == 0, proc.stderr


def test_start_up_imports_no_dataclasses_inspect_or_json():
    # these modules cost about 20 ms of every process's start-up
    proc = _fresh_process("""
import contextlib, io, sys
heavy = {"dataclasses", "inspect", "json"}
before = set(sys.modules)
import so3inv.cli
assert not heavy & (set(sys.modules) - before), "import"
with contextlib.redirect_stdout(io.StringIO()):
    codes = (so3inv.cli.main(["verify", "--lens", "5,2", "--primes", "7..13"]),
             so3inv.cli.main(["lambda", "--seifert", "2/1,3/1,5/-4",
                              "--nmax", "3", "--reconstruct"]))
assert codes == (0, 0), codes
assert not heavy & (set(sys.modules) - before), sorted(heavy & set(sys.modules))
""")
    assert proc.returncode == 0, proc.stderr


def test_json_flags_in_a_fresh_process(tmp_path):
    # json is imported only by --manifolds and --format json
    mf = tmp_path / "manifolds.json"
    mf.write_text(json.dumps([
        {"type": "lens", "p": 5, "q": 2},
        {"type": "seifert", "fractions": [[2, 1], [3, 1], [5, -4]]},
        {"type": "p1", "jones": "unlink", "framings": [-2, 5]}]))
    proc = _fresh_process(f"""
import sys
import so3inv.cli
sys.exit(so3inv.cli.main(["verify", "--manifolds", {str(mf)!r},
                          "--primes", "7..13", "--format", "json"]))
""")
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)
    assert {r["manifold"] for r in rows} == {
        "L(5,2)", "X(2/1,3/1,5/-4)", "S[unlink;-2,5]"}
    assert [r["verdict"] for r in rows] == ["equal"] * 9


def test_help_and_usage_errors_load_no_library():
    # the library loads after argument parsing: --help and an argparse
    # usage error compile only cli and errors, a lens run never reaches
    # the link tables or the surgery formulas, and a P1 run, whose Z' is
    # a product of lens closed forms, never loads the numeric oracle
    proc = _fresh_process("""
import contextlib, io, sys
import so3inv.cli

def loaded():
    return sorted(m for m in sys.modules if m.startswith("so3inv"))

bare = ["so3inv", "so3inv.cli", "so3inv.errors"]
assert loaded() == bare and "fractions" not in sys.modules, loaded()
for argv in (["--help"], ["verify", "--no-such-flag"]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        try:
            so3inv.cli.main(argv)
        except SystemExit:
            pass
        else:
            raise AssertionError(argv)
    assert loaded() == bare and "fractions" not in sys.modules, loaded()
with contextlib.redirect_stdout(io.StringIO()):
    assert so3inv.cli.main(["verify", "--lens", "5,2"]) == 0
assert not {"so3inv.jones", "so3inv.surgery"} & set(loaded()), loaded()
p1 = ["--p1", "unlink:-2,5", "--workers", "1"]
for argv in (["verify", "--primes", "7..13"], ["invariant", "--k", "7"],
             ["lambda", "--nmax", "2", "--reconstruct"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert so3inv.cli.main(argv + p1) == 0, argv
assert "so3inv.surgery" not in loaded(), loaded()
""")
    assert proc.returncode == 0, proc.stderr
