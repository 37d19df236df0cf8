import json
import warnings

import pytest

from charkit import cli, fixtures, lie_core
from charkit.charsolve import CharacterTable
from charkit.cli import main
from charkit.polyring import MultiPoly

from test_cli_corpus import tamper


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


def test_character_method_both_reports_a_disagreement(monkeypatch, capsys):
    # A Method 2 one off on the constant of lambda_1 + lambda_7 only: that
    # weight is named on stderr and not printed, the next one is printed.
    character_m2 = CharacterTable.character_m2

    def one_off(self, m):
        chi = character_m2(self, m)
        return chi + MultiPoly.one() if m == (1, 0, 0, 0, 0, 0, 1) else chi

    monkeypatch.setattr(CharacterTable, "character_m2", one_off)
    code, out, err = run(capsys, "character", "--method", "both",
                         "1000001", "0000002")
    assert code == 1
    assert out == "1*z7^2 -1*z6 -1*z1 -1\n"
    assert err == "METHOD DISAGREEMENT for 1000001\n"


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


def test_cg_checks_a_lambda_7_factor_against_the_minuscule_rule(monkeypatch,
                                                                capsys):
    rule = cli.minuscule_series
    asked = []
    monkeypatch.setattr(cli, "minuscule_series",
                        lambda m: asked.append(m) or rule(m))
    for factors, other in [(("0000001", "0010001"), [(0, 0, 1, 0, 0, 0, 1)]),
                           (("0010001", "0000001"), [(0, 0, 1, 0, 0, 0, 1)]),
                           (("0000001", "0000001"), [(0, 0, 0, 0, 0, 0, 1)]),
                           (("0000002", "0000010"), [])]:
        asked.clear()
        code, out, err = run(capsys, "cg", *factors)
        assert (code, err, asked) == (0, "", other)
        assert out.startswith("# chi_")


@pytest.mark.parametrize("factors", [("0000001", "0000002"),
                                     ("0000002", "0000001")])
def test_cg_refuses_a_series_off_the_minuscule_rule(monkeypatch, capsys,
                                                   factors):
    # The rule's row lambda_7 of 2 lambda_7's series moved to 2 lambda_7:
    # the computed series has the one and not the other.
    tamper(monkeypatch, "family")
    code, out, err = run(capsys, "cg", *factors)
    assert (code, out) == (1, "")
    assert err == (f"error: chi_{factors[0]} * chi_{factors[1]}: "
                   f"multiplicity 1 at 0000001, the minuscule rule gives 0\n")


def test_monomial_cg(capsys):
    code, out, _ = run(capsys, "monomial-cg", "0000002")
    assert code == 0
    assert "dim_check ok" in out
    assert "0000002:1" in out


def test_series_family(capsys):
    code, out, _ = run(capsys, "series-family", "7", "2")
    assert code == 0
    assert "match" in out


def test_family_argument_validation(tmp_path, capsys):
    # Refused before the operator is built, so no cache directory is made.
    cache = tmp_path / "cache"
    for k, n, err in [("0", "2", "fundamental index 0 out of range 1..7"),
                      ("8", "2", "fundamental index 8 out of range 1..7"),
                      ("7", "0", "n must be a positive integer")]:
        argv = ["--cache-dir", str(cache), "series-family", k, n]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {err}\n")
        assert not cache.exists()


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
    # A z4 term added to a_77 would send z7^8 outside the support of
    # 8 lambda_7; the operator refuses it when the pair is registered.
    build_a = cli.build_a

    def corrupted(corpus):
        a, op, table = build_a(corpus)
        op.register_pair(7, 7, a[(7, 7)] + MultiPoly.variable(4))
        return op.a, op, table

    monkeypatch.setattr(cli, "build_a", corrupted)
    code, out, err = run(capsys, "character", "0000008")
    assert (code, out) == (1, "")
    assert err == ("error: term z^(0, 0, 0, 1, 0, 0, 0) of a_77 is not below "
                   "lambda_7 + lambda_7 = (0, 0, 0, 0, 0, 0, 2)\n")


PACKED_RANGE = ("error: monomial (0, 0, 0, 0, 0, 0, 252) is outside the "
                "packed range: seven exponents in 0..251\n")

KEY_RANGE = ("error: weight (0, 0, 0, 0, 0, 3, 251) is outside the key range: "
             "2(m, rho) = 6933 must be below 6885\n")


class Unreachable:
    """Stands in for the closure's table of root steps by key class, which
    every enumeration reads from its first key on: any downset enumeration
    fails."""

    def __getitem__(self, key):
        raise AssertionError("a downset was enumerated")


@pytest.mark.parametrize("argv, err", [
    (["character", "0,0,0,0,0,0,252"], PACKED_RANGE),
    (["character", "--method", "m2", "0,0,0,0,0,0,252"], PACKED_RANGE),
    (["monomial-cg", "0,0,0,0,0,0,252"], PACKED_RANGE),
    (["cg", "0,0,0,0,0,0,126", "0,0,0,0,0,0,126"], PACKED_RANGE),
    (["series-family", "7", "251"], PACKED_RANGE),
    (["character", "0,0,0,0,0,3,251"], KEY_RANGE),
    (["cg", "0,0,0,0,0,3,0", "0,0,0,0,0,0,251"], KEY_RANGE),
], ids=["m1", "m2", "monomial-cg", "cg", "series-family", "key-range",
        "cg-key-range"])
def test_out_of_range_weight_is_refused_before_its_downset(monkeypatch,
                                                           capsys, argv, err):
    # Exponents above 251 do not fit the operator's packed keys, and a top
    # with 2(m, rho) // 27 >= 255 has members whose coordinates would not
    # fit the closure's.  The refusal comes before the downset is
    # enumerated, which for these weights would run for minutes or not
    # finish; a product's top is refused before either factor is solved.
    build_a = cli.build_a

    def guarded(corpus):
        built = build_a(corpus)
        monkeypatch.setattr(lie_core, "_CLASS_STEPS", Unreachable())
        return built

    monkeypatch.setattr(cli, "build_a", guarded)
    code, out, got = run(capsys, *argv)
    assert (code, out, got) == (2, "", err)


@pytest.mark.parametrize("argv", [
    ["character", "0,0,0,0,0,0,12"],
    ["monomial-cg", "0,0,0,0,0,0,12"],
    ["cg", "0,0,0,0,0,0,6", "0,0,0,0,0,0,6"],
], ids=["character", "monomial-cg", "cg"])
def test_a_top_past_the_work_budget_is_refused(tmp_path, monkeypatch, capsys,
                                               argv):
    # With the budget at 100 the 502 weights below 12 lambda_7 are refused,
    # and the 42 below a factor 6 lambda_7 are not: cg refuses its top
    # before either factor is solved or written.
    monkeypatch.setattr(lie_core, "SUPPORT_MAX", 100)
    cache = tmp_path / "cache"
    code = main(["--cache-dir", str(cache), *argv])
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert out.err == ("error: weight (0, 0, 0, 0, 0, 0, 12) is outside the "
                       "work budget: its downset has more than SUPPORT_MAX "
                       "= 100 dominant weights\n")
    assert not (cache / "chi_0-0-0-0-0-0-6.txt").exists()
    assert not (cache / "chi_0-0-0-0-0-0-12.txt").exists()


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_oracle_without_torus_points_is_a_usage_error(capsys, trials):
    code, out, err = run(capsys, "verify", "oracle", "--trials", trials)
    assert (code, out) == (2, "")
    assert err == f"error: torus check needs at least 1 trial, got {trials}\n"


@pytest.mark.parametrize("corpus, name, emptied", [
    ("appendix-a", "third_order_chars.txt", "# no entries\n"),
    ("appendix-b", "cubic_series.txt", ""),
], ids=["appendix-a", "appendix-b"])
def test_an_emptied_shipped_corpus_is_refused(tmp_path, monkeypatch, capsys,
                                              corpus, name, emptied):
    # Read on, an emptied corpus would verify as "# 0/0 passed".
    path = tmp_path / name
    path.write_text(emptied)
    shipped = fixtures.data_path
    monkeypatch.setattr(fixtures, "data_path",
                        lambda n: path if n == name else shipped(n))
    code, out, err = run(capsys, "verify", corpus)
    assert (code, out) == (2, "")
    assert err == f"error: {path}: no entries\n"


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


@pytest.mark.parametrize("under", ["", "sub"], ids=["file", "under-a-file"])
def test_unusable_cache_dir_is_a_one_line_error(tmp_path, capsys, under):
    # A regular file where the cache directory, or one of its parents,
    # should be.
    blocker = tmp_path / "cache"
    blocker.write_text("")
    cache = blocker / under if under else blocker
    code = main(["--cache-dir", str(cache), "character", "0000001"])
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert str(blocker) in out.err


@pytest.mark.parametrize("argv", [
    ["dim", "0,0,0,0,0,0,1_0"],
    ["dim", "+0,0,0,0,0,0,1"],
    ["dim", "0, 0,0,0,0,0,1"],
    ["character", "0,0,0,0,0,+1,0"],
    ["cg", "0000001", "0,0,0,0,0,0,0_1"],
], ids=["dim-underscore", "dim-plus", "dim-space", "character-plus",
        "cg-underscore"])
def test_weight_spelling_outside_digits_is_a_usage_error(capsys, argv):
    # int() reads "1_0" as 10, so `dim 0,0,0,0,0,0,1_0` printed the
    # dimension of 10 lambda_7.
    with pytest.raises(SystemExit) as exc:
        main(["--no-cache", *argv])
    out = capsys.readouterr()
    assert (exc.value.code, out.out) == (2, "")
    errors = [line for line in out.err.splitlines() if "error:" in line]
    assert errors == [f"charkit {argv[0]}: error: argument weights: "
                      f"weight {argv[-1]!r} has non-integer entries"]


@pytest.mark.parametrize("argv, text", [
    (["series-family", "7", "+1"], "n: '+1'"),
    (["series-family", "7", "1_0"], "n: '1_0'"),
    (["series-family", "+7", "1"], "k: '+7'"),
    (["verify", "oracle", "--trials", "1_0", "--seed", "1_0"],
     "--trials: '1_0'"),
    (["verify", "oracle", "--seed", " 1"], "--seed: ' 1'"),
], ids=["series-family-plus", "series-family-underscore", "k-plus",
        "trials-underscore", "seed-space"])
def test_integer_spelling_outside_digits_is_a_usage_error(capsys, argv, text):
    # int() reads "1_0" as 10, so `series-family 7 1_0` ran n = 10.
    with pytest.raises(SystemExit) as exc:
        main(["--no-cache", *argv])
    out = capsys.readouterr()
    assert (exc.value.code, out.out) == (2, "")
    assert out.err.startswith(f"usage: charkit {argv[0]} ")
    arg, spelt = text.split(": ")
    errors = [line for line in out.err.splitlines() if "error:" in line]
    assert errors == [f"charkit {argv[0]}: error: argument {arg}: invalid "
                      f"literal for int() with base 10: {spelt}"]


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
