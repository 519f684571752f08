"""End-to-end runs of the command-line front end."""

import json

import pytest

from so3inv.cli import (UsageError, main, parse_p1, parse_primes,
                        parse_seifert)


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


def test_invariant_computation_error(capsys):
    code, _, err = run(capsys, "invariant", "--lens", "0,1", "--k", "5")
    assert code == 3 and "computation failed" in err


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
    _, seq, _ = run(capsys, "verify", "--family", "lens", "--pmax", "3",
                    "--primes", "5,7", "--workers", "1")
    _, par, _ = run(capsys, "verify", "--family", "lens", "--pmax", "3",
                    "--primes", "5,7", "--workers", "2")
    assert seq == par


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
