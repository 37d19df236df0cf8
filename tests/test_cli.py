import json
import warnings

import pytest

from charkit import cli
from charkit.cli import main
from charkit.polyring import MultiPoly


def run(capsys, *argv):
    code = main(["--no-cache", *argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_character_text(capsys):
    code, out, _ = run(capsys, "character", "0000002")
    assert code == 0
    assert out.strip() == "1*z7^2 -1*z6 -1*z1 -1"


def test_character_json_roundtrip(capsys):
    code, out, _ = run(capsys, "--format", "json", "character", "0000002")
    assert code == 0
    doc = json.loads(out)
    assert doc["weight"] == [0, 0, 0, 0, 0, 0, 2]
    rebuilt = MultiPoly({tuple(e): int(c) for c, e in doc["polynomial"]})
    assert rebuilt == MultiPoly.from_text("1*z7^2 -1*z6 -1*z1 -1")


def test_character_method_both(capsys):
    code, out, _ = run(capsys, "character", "--method", "both", "1000001")
    assert code == 0
    assert out.strip() == "1*z1*z7 -1*z7 -1*z2"


def test_dim(capsys):
    code, out, _ = run(capsys, "dim", "0000000", "0000001", "0001000")
    assert code == 0
    assert out.split() == ["1", "56", "365750"]


def test_cg_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "cg",
                       "0000001", "0000001")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim_check"] is True
    assert doc["factors"] == [[0, 0, 0, 0, 0, 0, 1]] * 2
    series = {tuple(item["weight"]): item["mult"] for item in doc["series"]}
    assert series == {(0, 0, 0, 0, 0, 0, 2): 1, (1, 0, 0, 0, 0, 0, 0): 1,
                      (0, 0, 0, 0, 0, 1, 0): 1, (0, 0, 0, 0, 0, 0, 0): 1}
    assert sum(item["mult"] for item in doc["series"]) == 4


def test_monomial_cg(capsys):
    code, out, _ = run(capsys, "monomial-cg", "0000002")
    assert code == 0
    assert "dim_check ok" in out
    assert "0000002:1" in out


def test_series_family(capsys):
    code, out, _ = run(capsys, "series-family", "7", "2")
    assert code == 0
    assert "match" in out


def test_verify_quadratic(capsys):
    code, out, _ = run(capsys, "verify", "quadratic")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 28
    assert all(l.startswith("PASS") for l in lines)
    assert "28/28 passed" in out


def test_verify_deterministic(capsys):
    _, out1, _ = run(capsys, "verify", "quadratic")
    _, out2, _ = run(capsys, "verify", "quadratic")
    assert out1 == out2


def test_parse_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dim", "badweight"])
    assert exc.value.code == 2


def test_invariant_failure_is_a_one_line_error(tmp_path, capsys):
    # A cache file edited without changing its dimension passes load-time
    # validation; the decomposition that uses it fails its residual check.
    cache = tmp_path / "cache"
    assert main(["--cache-dir", str(cache), "character", "0000006"]) == 0
    path = cache / "chi_0-0-0-0-0-0-6.txt"
    path.write_text(path.read_text().rstrip("\n") + " 1*z3 -8645\n")
    capsys.readouterr()
    assert main(["--cache-dir", str(cache), "cg", "0000006", "0000001"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    # usage errors keep exit status 2
    assert main(["--no-cache", "series-family", "0", "1"]) == 2


def test_support_escape_is_a_one_line_error(monkeypatch, capsys):
    # A z4 term added to a_77 sends z7^8 outside the support of 8 lambda_7,
    # a weight above every character the bootstrap solves.
    build_a = cli.build_a

    def corrupted(corpus):
        a, op, table = build_a(corpus)
        op.register_pair(7, 7, a[(7, 7)] + MultiPoly.variable(4))
        return op.a, op, table

    monkeypatch.setattr(cli, "build_a", corrupted)
    code, out, err = run(capsys, "character", "0000008")
    assert (code, out) == (1, "")
    assert err.startswith("error: image monomial (0, 0, 0, 1, 0, 0, 6) ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("emptied", ["", "\n# no entries\n"],
                         ids=["zero-bytes", "no-entries"])
def test_empty_cache_file_is_a_silent_miss(tmp_path, capsys, emptied):
    cache = tmp_path / "cache"
    assert main(["--cache-dir", str(cache), "character", "0000005"]) == 0
    want = capsys.readouterr().out
    path = cache / "chi_0-0-0-0-0-0-5.txt"
    path.write_text(emptied)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["--cache-dir", str(cache), "character", "0000005"])
    out = capsys.readouterr()
    assert [str(w.message) for w in caught] == []
    assert code == 0
    assert out.out == want
    assert out.out.startswith("1*z7^5 -4*z6*z7^3 ")
    assert out.err == ""
    assert path.read_text() == f"chi 0000005 = {want}"


def test_weight_comma_form(capsys):
    code, out, _ = run(capsys, "dim", "0,0,0,0,0,0,1")
    assert code == 0
    assert out.strip() == "56"


def test_cache_dir_is_used(tmp_path, capsys):
    cache = tmp_path / "cache"
    code = main(["--cache-dir", str(cache), "character", "0000011"])
    capsys.readouterr()
    assert code == 0
    files = list(cache.glob("chi_*.txt"))
    assert files, "cache directory should contain character files"


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "envcache"
    monkeypatch.setenv("CHARKIT_CACHE", str(cache))
    code = main(["character", "0000011"])
    capsys.readouterr()
    assert code == 0
    assert list(cache.glob("chi_*.txt"))
