import pathlib

import pytest

from charkit import fixtures
from charkit.fixtures import (
    FixtureCorruptError, FixtureFormatError, format_weight, parse_weight,
    load_cg_file, load_chi_file, load_mcg_file,
)
from charkit.polyring import MultiPoly


def test_parse_weight_forms():
    assert parse_weight("0000002") == (0, 0, 0, 0, 0, 0, 2)
    assert parse_weight("0,0,0,0,0,0,12") == (0, 0, 0, 0, 0, 0, 12)
    assert parse_weight("1,2,3,4,5,6,7") == (1, 2, 3, 4, 5, 6, 7)


def test_parse_weight_errors():
    for bad in ("000002", "00000021", "0,0,0,0,0,0", "0,0,0,0,0,0,-1", "abc"):
        with pytest.raises(FixtureFormatError):
            parse_weight(bad)


@pytest.mark.parametrize("text", [
    "0,0,0,0,0,0,1_0", "+0,0,0,0,0,0,1", "0,0,0,0,0,0,+1", "0, 0,0,0,0,0,1",
    "0,0,0,0,0,0,\t1", "0,0,0,0,0,-0_1,1", "000000+",
], ids=["underscore", "plus-first", "plus-last", "inner-space", "inner-tab",
        "minus-underscore", "compact-plus"])
def test_parse_weight_takes_only_digits(text):
    # int() reads all of these ("1_0" as 10, " 0" as 0); a weight entry is
    # an optional "-" and decimal digits, as a polynomial's coefficient is.
    with pytest.raises(FixtureFormatError) as info:
        parse_weight(text)
    assert str(info.value) == (f"weight {text.strip()!r} has non-integer "
                               f"entries")


def test_parse_weight_reads_unicode_decimal_digits_and_refuses_a_sign():
    # U+0663 is a decimal digit, read as 3 here as in a coefficient.
    assert parse_weight("000000\u0663") == (0, 0, 0, 0, 0, 0, 3)
    assert parse_weight("0,0,0,0,0,0,\u0661\u0660") == (0, 0, 0, 0, 0, 0, 10)
    with pytest.raises(FixtureFormatError, match="has negative entries"):
        parse_weight("0,0,0,0,0,0,-1")


def test_format_weight_roundtrip():
    for w in [(0, 0, 0, 0, 0, 0, 2), (0, 0, 0, 0, 0, 0, 12),
              (1, 1, 1, 1, 1, 1, 1)]:
        assert parse_weight(format_weight(w)) == w


def test_packaged_fixtures_load():
    quad = load_cg_file(fixtures.data_path("quadratic_series.txt"))
    assert len(quad) == 28
    chars = load_chi_file(fixtures.data_path("second_order_chars.txt"))
    assert len(chars) == 28
    third = load_chi_file(fixtures.data_path("third_order_chars.txt"))
    assert len(third) == 84
    cubic = load_mcg_file(fixtures.data_path("cubic_series.txt"))
    assert len(cubic) == 84


@pytest.mark.parametrize("path, tag, parse_key", [
    (fixtures.data_path("second_order_chars.txt"), "chi", fixtures._weight_key),
    (fixtures.data_path("third_order_chars.txt"), "chi", fixtures._weight_key),
    (pathlib.Path(__file__).parent / "data" / "printed_a_table.txt", "a",
     fixtures._pair_key),
], ids=["second-order", "third-order", "printed-a-table"])
def test_shipped_polynomials_are_in_the_writers_spelling(path, tag, parse_key):
    # from_text reads only what to_text writes, so every shipped polynomial
    # must be spelt exactly as to_text spells its value.
    entries = list(fixtures._entries(path, tag, parse_key, str.strip))
    assert entries
    for _, _, text in entries:
        assert MultiPoly.from_text(text).to_text() == text


MALFORMED = {
    "cg": (load_cg_file, [
        ("tag", "cx 1 1 = 0000000:1", "expected 'cg', got 'cx'"),
        ("equals", "cg 1 1 0000000:1",
         "not enough values to unpack (expected 2, got 1)"),
        ("arity", "cg 1 = 0000000:1",
         "not enough values to unpack (expected 3, got 2)"),
        ("value", "cg 1 1 = what", "bad series item 'what': not enough "
         "values to unpack (expected 2, got 1)"),
        ("multiplicity", "cg 1 1 = 0000000:+1", "bad series item "
         "'0000000:+1': invalid literal for int() with base 10: '+1'"),
        ("pair", "cg 1 1_0 = 0000000:1",
         "invalid literal for int() with base 10: '1_0'"),
        ("pair-low", "cg 0 7 = 0000000:1", "bad pair 0 7"),
        ("pair-high", "cg 1 8 = 0000000:1", "bad pair 1 8"),
    ]),
    "mcg": (load_mcg_file, [
        ("tag", "cg 0000002 = 0000002:1", "expected 'mcg', got 'cg'"),
        ("equals", "mcg 0000002 0000002:1",
         "not enough values to unpack (expected 2, got 1)"),
        ("arity", "mcg = 0000002:1",
         "not enough values to unpack (expected 2, got 1)"),
        ("value", "mcg 0000002 = 0000002:0",
         "non-positive multiplicity in '0000002:0'"),
        ("multiplicity", "mcg 0000002 = 0000002:1_0", "bad series item "
         "'0000002:1_0': invalid literal for int() with base 10: '1_0'"),
    ]),
    "chi": (load_chi_file, [
        ("tag", "chy 0000001 = 1*z7", "expected 'chi', got 'chy'"),
        ("equals", "chi 0000001 1*z7",
         "not enough values to unpack (expected 2, got 1)"),
        ("arity", "chi = 1*z7",
         "not enough values to unpack (expected 2, got 1)"),
        ("value", "chi 0000001 = 1*q7", "bad polynomial term '1*q7'"),
    ]),
}


@pytest.mark.parametrize("loader, line, message", [
    pytest.param(loader, line, message, id=f"{tag}-{fault}")
    for tag, (loader, cases) in MALFORMED.items()
    for fault, line, message in cases])
def test_malformed_line_reports_line_number(tmp_path, loader, line, message):
    p = tmp_path / "bad.txt"
    p.write_text(f"# header\n{line}\n")
    with pytest.raises(FixtureFormatError) as info:
        loader(p)
    assert str(info.value) == f"{p}:2: {message}"


def test_dimension_corruption_detected(tmp_path):
    p = tmp_path / "bad.txt"
    # wrong multiplicity on the trivial representation
    p.write_text("cg 7 7 = 0000002:1 1000000:1 0000010:1 0000000:2\n")
    with pytest.raises(FixtureCorruptError, match="7 7"):
        load_cg_file(p)


def test_chi_corruption_detected(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("chi 0000002 = 1*z7^2 -1*z6 -1*z1 -2\n")
    with pytest.raises(FixtureCorruptError):
        load_chi_file(p)


def test_a_chi_without_a_unit_leading_coefficient_is_refused(tmp_path):
    # 2*z7 - 56 evaluates to the dimension 56 of lambda_7, so only the
    # leading coefficient gives it away.
    p = tmp_path / "bad.txt"
    p.write_text("chi 0000001 = 2*z7 -56\n")
    with pytest.raises(FixtureCorruptError) as refused:
        load_chi_file(p)
    assert str(refused.value) == (
        f"{p}:1: character 0000001 lacks unit leading coefficient")


def test_a_file_with_no_entries_is_refused(tmp_path):
    # Each loader refuses it: a shipped corpus emptied by accident would
    # otherwise verify as 0/0 passed.  The character cache catches the
    # refusal, so there an empty file is a miss.
    for text in ("", "\n# only a comment\n"):
        p = tmp_path / "empty.txt"
        p.write_text(text)
        for load in (load_cg_file, load_mcg_file, load_chi_file):
            with pytest.raises(FixtureFormatError) as refused:
                load(p)
            assert str(refused.value) == f"{p}: no entries"


def test_repeated_weight_rejected(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("cg 7 7 = 0000002:1 0000002:1\n")
    with pytest.raises(FixtureFormatError, match="repeated"):
        load_cg_file(p)


def _shipped_line(name, head):
    (line,) = [ln for ln in fixtures.data_path(name).read_text().splitlines()
               if ln.startswith(head + " = ")]
    return line


@pytest.mark.parametrize("loader, first, second", [
    (load_chi_file, "chi 0000001 = 1*z7", "chi 0000001 = 1*z7"),
    (load_chi_file, "chi 0000001 = 1*z7", "chi 0,0,0,0,0,0,1 = 1*z7"),
    (load_cg_file, _shipped_line("quadratic_series.txt", "cg 1 3"),
     _shipped_line("quadratic_series.txt", "cg 1 3")),
    (load_cg_file, _shipped_line("quadratic_series.txt", "cg 1 3"),
     _shipped_line("quadratic_series.txt", "cg 1 3").replace(
         "cg 1 3", "cg 3 1")),
    (load_mcg_file, _shipped_line("cubic_series.txt", "mcg 3000000"),
     _shipped_line("cubic_series.txt", "mcg 3000000")),
], ids=["chi", "chi-spelled-apart", "cg", "cg-reversed-pair", "mcg"])
def test_repeated_key_is_refused(tmp_path, loader, first, second):
    p = tmp_path / "repeated.txt"
    p.write_text(f"{first}\n# between\n{second}\n")
    head = second.split("=")[0].strip()
    with pytest.raises(FixtureFormatError) as info:
        loader(p)
    assert str(info.value) == (f"{p}:3: repeated key {head!r}, first on "
                               f"line 1")
