import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from charkit.lie_core import FUNDAMENTAL_DIMS
from charkit.polyring import NVARS, MultiPoly, descending_monomials

z = [None] + [MultiPoly.variable(i) for i in range(1, 8)]
CHI_2L7 = z[7] * z[7] - z[6] - z[1] - MultiPoly.one()


def partial(p, i):
    """Reference formal partial derivative of p with respect to z_i
    (1-based)."""
    k = i - 1
    out = {}
    for e, c in p.terms.items():
        n = e[k]
        if n:
            e2 = e[:k] + (n - 1,) + e[k + 1:]
            out[e2] = out.get(e2, 0) + n * c
    return MultiPoly(out)


def test_add_cancellation():
    assert (z[7] * z[7] - z[6]) + (z[6] - z[1]) == z[7] * z[7] - z[1]


def test_add_identity():
    p = 3 * z[1] * z[2] - z[5]
    assert p + MultiPoly.zero() == p


def test_add_reconstructs_pure_square():
    assert CHI_2L7 + (z[6] + z[1] + MultiPoly.one()) == z[7] * z[7]


def test_mul_examples():
    assert z[7] * z[7] == MultiPoly({(0, 0, 0, 0, 0, 0, 2): 1})
    assert CHI_2L7 * MultiPoly.one() == CHI_2L7
    cube = z[7] * z[7] * z[7]
    assert cube.coefficient_of((0, 0, 0, 0, 0, 0, 3)) == 1


def test_partial_examples():
    sq = z[7] * z[7]
    assert partial(sq, 7) == 2 * z[7]
    assert partial(sq, 1) == MultiPoly.zero()
    assert partial(partial(sq, 7), 7) == MultiPoly({(0,) * 7: 2})


def test_partial_second_derivative_coefficient():
    p = MultiPoly({(0, 0, 0, 0, 0, 0, 5): 1})
    assert partial(partial(p, 7), 7) == MultiPoly({(0, 0, 0, 0, 0, 0, 3): 20})


def test_eval_integer():
    assert CHI_2L7.eval_integer(FUNDAMENTAL_DIMS) == 56 * 56 - 1539 - 133 - 1
    p = 5 * z[3] - 2 * z[1] + MultiPoly({(0,) * 7: 9})
    assert p.eval_integer((0,) * 7) == 9
    assert z[1].eval_integer(FUNDAMENTAL_DIMS) == 133


def test_eval_integer_edges():
    zero = MultiPoly.zero().eval_integer(FUNDAMENTAL_DIMS)
    assert zero == 0 and type(zero) is int
    with pytest.raises(ValueError, match="must have 7 entries"):
        CHI_2L7.eval_integer(FUNDAMENTAL_DIMS[:6])
    # A negative exponent has no exact integer value; it is refused rather
    # than read from the wrong end of a power table.
    laurent = MultiPoly({(-1, 0, 0, 0, 0, 0, 2): 3, (1,) * 7: 1})
    with pytest.raises(ValueError, match="negative exponent"):
        laurent.eval_integer(FUNDAMENTAL_DIMS)


def test_coefficient_of():
    assert CHI_2L7.coefficient_of((0, 0, 0, 0, 0, 1, 0)) == -1
    assert CHI_2L7.coefficient_of((1, 1, 1, 0, 0, 0, 0)) == 0
    p = z[1] * z[2] - z[5] - z[1] * z[7]
    assert p.coefficient_of((1, 0, 0, 0, 0, 0, 1)) == -1


def test_canonical_text():
    assert CHI_2L7.to_text() == "1*z7^2 -1*z6 -1*z1 -1"
    assert MultiPoly.from_text("1*z7^2 -1*z6 -1*z1 -1") == CHI_2L7
    assert MultiPoly.zero().to_text() == "0"
    assert MultiPoly.from_text("0") == MultiPoly.zero()


def monomial_key(exps):
    """Reference sort key for the fixed monomial order (ascending): the
    degree, then the exponent tuple read from z7 down to z1."""
    return (sum(exps), exps[::-1])


def reference_text(p):
    """The canonical text form built term by term, without a table: the
    reference that ``to_text`` matches byte for byte."""
    if not p.terms:
        return "0"
    bits = []
    for e in sorted(p.terms, key=monomial_key, reverse=True):
        c = p.terms[e]
        vars_ = "*".join(
            f"z{i + 1}^{e[i]}" if e[i] != 1 else f"z{i + 1}"
            for i in range(NVARS) if e[i])
        bits.append(f"{c}*{vars_}" if vars_ else f"{c}")
    return " ".join(bits)


REFUSED = None


@pytest.mark.parametrize("terms, text", [
    ({}, "0"),
    ({(0,) * 7: 1}, "1"),
    ({(0,) * 7: -7}, "-7"),
    ({(0,) * 7: 10 ** 30}, "1" + "0" * 30),
    ({(0, 0, 0, 0, 0, 0, 1): -12, (1, 0, 0, 0, 0, 0, 0): 345},
     "-12*z7 345*z1"),
    ({(255, 0, 0, 0, 0, 0, 1): 2}, "2*z1^255*z7"),
    ({(256, 0, 0, 0, 0, 0, 1): 2, (0, 0, 0, 0, 0, 0, 0): -1}, REFUSED),
    ({(0, 300, 0, 0, 0, 0, 0): -3, (1, 1, 1, 1, 1, 1, 1): 1}, REFUSED),
], ids=["zero", "one", "constant", "long-constant", "negative",
        "last-in-table", "first-above", "mixed-above"])
def test_canonical_text_examples(terms, text):
    p = MultiPoly(terms)
    if text is REFUSED:
        assert_refused_both_ways(p)
    else:
        assert p.to_text() == reference_text(p) == text
        assert MultiPoly.from_text(text) == p


def assert_refused_both_ways(p):
    """``p`` has an exponent outside 0..255: ``to_text`` refuses to write
    it, and ``from_text`` refuses the reference spelling of it."""
    with pytest.raises(ValueError, match=r"outside 0\.\.255"):
        p.to_text()
    with pytest.raises(ValueError, match="bad polynomial term"):
        MultiPoly.from_text(reference_text(p))


def test_canonical_text_covers_every_exponent_to_300():
    # 0..255 are the factor table's and round-trip; 256..300 are outside
    # the text form and refused both ways.  Each variable, alone and beside
    # others.
    for i in range(NVARS):
        for x in range(301):
            e = tuple(x if j == i else (j + x) % 3 for j in range(NVARS))
            p = MultiPoly({e: x - 150, (0,) * 7: 3,
                           tuple(x if j == i else 0 for j in range(NVARS)): 1})
            if x > 255:
                assert_refused_both_ways(p)
            else:
                assert p.to_text() == reference_text(p)
                assert MultiPoly.from_text(p.to_text()) == p


def test_a_negative_exponent_is_refused_on_writing_and_on_reading():
    # A negative exponent has no text, so no cache file can hold one.
    p = MultiPoly({(-1, 0, 0, 0, 0, 0, 2): 3, (0, -2, 0, 0, 0, 0, 0): -1})
    assert reference_text(p) == "3*z1^-1*z7^2 -1*z2^-2"
    assert_refused_both_ways(p)


# A term of the text form, read with one strict regular expression: an
# optional "-" and decimal digits, then factors z<i> or z<i>^<x>, x = 2..255
# in ASCII digits without a leading zero.
STRICT_TERM = re.compile(
    r"(?P<coeff>-?\d+)(?P<vars>(?:\*z[1-7](?:\^(?:25[0-5]|2[0-4][0-9]"
    r"|1[0-9][0-9]|[1-9][0-9]|[2-9]))?)*)")


def reference_from_text(text):
    """The text form read term by term with ``STRICT_TERM``: the reference
    that ``from_text`` matches value for value and message for message."""
    out = {}
    for tok in text.split():
        m = STRICT_TERM.fullmatch(tok)
        if not m:
            raise ValueError(f"bad polynomial term {tok!r}")
        exps = [0] * NVARS
        for var, ex in re.findall(r"z([1-7])(?:\^(\d+))?", m.group("vars")):
            exps[int(var) - 1] += int(ex) if ex else 1
        e = tuple(exps)
        out[e] = out.get(e, 0) + int(m.group("coeff"))
    return MultiPoly(out)


def read_both(text):
    """``from_text`` and ``reference_from_text`` of ``text``, each as the
    polynomial or as the message of its ``ValueError``."""
    got = []
    for read in (MultiPoly.from_text, reference_from_text):
        try:
            got.append(read(text))
        except ValueError as exc:
            got.append(f"ValueError: {exc}")
    return got


def z1_times(c, x=1):
    return MultiPoly({(x, 0, 0, 0, 0, 0, 0): c})



@pytest.mark.parametrize("text, want", [
    ("3*", REFUSED),
    ("*z1", REFUSED),
    ("3**z1", REFUSED),
    ("-", REFUSED),
    ("--5", REFUSED),
    ("+5", REFUSED),
    ("5_0", REFUSED),
    ("z1", REFUSED),
    ("3*z0", REFUSED),
    ("3*z8", REFUSED),
    ("3*z1^", REFUSED),
    ("3*z1^-1", REFUSED),
    ("3*z1^0", REFUSED),
    ("3*z1^1", REFUSED),
    ("3*z1^007", REFUSED),
    ("3*z1^255", z1_times(3, 255)),
    ("3*z1^256", REFUSED),
    ("3*z1*z1", z1_times(3, 2)),
    ("\u0663*z1", z1_times(3)),
    ("\u00b2", REFUSED),
    ("3*z1^\u00b2", REFUSED),
    ("3*z1^\u0663", REFUSED),
    ("-0*z2 2*z1 -2*z1", MultiPoly.zero()),
    (" 0 \n", MultiPoly.zero()),
], ids=["3*", "*z1", "3**z1", "-", "--5", "+5", "5_0", "z1", "3*z0", "3*z8",
        "3*z1^", "3*z1^-1", "3*z1^0", "3*z1^1", "3*z1^007", "3*z1^255",
        "3*z1^256", "3*z1*z1", "arabic-indic-3", "superscript-2",
        "3*z1^superscript-2", "3*z1^arabic-indic-3", "cancelling-terms",
        "spaced-zero"])
def test_reader_matches_the_regex_reader(text, want):
    # A coefficient's Unicode decimal digits (U+0663) are \d and int() reads
    # them; a superscript two (U+00B2) is a digit to str.isdigit and int(),
    # but not a decimal digit, so both readers refuse it with the same
    # message.  An exponent is ASCII digits only, as to_text writes it.
    got, ref = read_both(text)
    assert got == ref
    if want is REFUSED:
        assert got == f"ValueError: bad polynomial term {text!r}"
    else:
        assert got == want


TOKEN_PIECES = ["0", "1", "3", "9", "00", "*", "z", "^", "-", "+", "_", " ",
                "\t", "\u0663", "\u00b2", "z1", "z7", "z8", "*z3", "^0",
                "^00", "^1", "^255", "^256", "*z2^", "-1"]


loose_text = st.lists(st.sampled_from(TOKEN_PIECES), max_size=12).map("".join)
factor_text = st.tuples(
    st.sampled_from(["", "z0", "z1", "z4", "z7", "z8"]),
    st.sampled_from(["", "^0", "^1", "^2", "^9", "^10", "^99", "^100",
                     "^007", "^249", "^255", "^256", "^260", "^-1",
                     "^\u00b2", "^\u0663"])).map("".join)
term_text = st.tuples(
    st.sampled_from(["0", "3", "-12", "-", "+4", "\u0663", "\u00b2", "1_0"]),
    st.lists(factor_text, max_size=4)).map(lambda t: "*".join([t[0], *t[1]]))
near_canonical_text = st.lists(term_text, max_size=4).map(" ".join)


@given(st.one_of(loose_text, near_canonical_text))
@settings(max_examples=600, deadline=None)
def test_reader_matches_the_regex_reader_on_any_text(text):
    got, ref = read_both(text)
    assert got == ref


def test_immutability():
    with pytest.raises(AttributeError):
        CHI_2L7.terms = {}


# ------------------------------------------------------- property testing

exps = st.tuples(*[st.integers(0, 3)] * 7)
coeff = st.integers(-9, 9)
polys = st.dictionaries(exps, coeff, max_size=6).map(MultiPoly)


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys, polys, st.integers(1, 7))
@settings(max_examples=60, deadline=None)
def test_leibniz_rule(p, q, i):
    assert partial(p * q, i) == partial(p, i) * q + p * partial(q, i)


@given(polys)
@settings(max_examples=60, deadline=None)
def test_additive_inverse_is_canonical_zero(p):
    assert not (p + (-p)).terms


@given(st.dictionaries(st.tuples(*[st.integers(0, 40)] * 7),
                       st.integers(-10 ** 20, 10 ** 20), max_size=8),
       st.tuples(*[st.integers(-60, 60)] * 7))
@settings(max_examples=200, deadline=None)
def test_eval_integer_matches_term_by_term(terms, point):
    want = sum(c * math.prod(x ** n for x, n in zip(point, e))
               for e, c in terms.items())
    assert MultiPoly(terms).eval_integer(point) == want


@given(st.lists(st.tuples(*[st.integers(-3, 300)] * 7), max_size=40)
       | st.sets(st.tuples(*[st.integers(0, 2)] * 7), max_size=40).map(list))
@settings(max_examples=300, deadline=None)
def test_descending_monomials_is_the_monomial_key_order(monomials):
    # Repeats and ties of degree included; the two stable sorts agree with
    # the one sort by the reference key, also on equal tuples.
    want = sorted(monomials, key=monomial_key, reverse=True)
    got = descending_monomials(monomials)
    assert got == want
    assert got is not monomials


@given(polys)
@settings(max_examples=60, deadline=None)
def test_text_roundtrip(p):
    assert MultiPoly.from_text(p.to_text()) == p
