"""Sparse exact polynomial arithmetic in the seven character variables z1..z7.

Terms are kept in a dict keyed by exponent tuples with arbitrary-precision
integer coefficients.  Zero coefficients are never stored, so equality of the term maps is equality of
polynomials.  The canonical term order is graded, with ties broken by
comparing exponent tuples from z7 down to z1 (higher variables first), which
fixes serialization and iteration order.
"""

from __future__ import annotations

import re

NVARS = 7

ZERO_EXPS = (0,) * NVARS


def monomial_key(exps):
    """Sort key for the fixed monomial order (ascending); ``exps`` is an
    exponent tuple."""
    return (sum(exps), exps[::-1])


# The text of z_i^x inside a term, by i and then x = 0..255: "" for x = 0,
# "*z<i>" for x = 1, "*z<i>^<x>" above.
_FACTORS = tuple(
    {x: "" if x == 0 else f"*z{i}" if x == 1 else f"*z{i}^{x}"
     for x in range(256)}
    for i in range(1, NVARS + 1))

# The same factors read back: "z<i>" and "z<i>^<x>", x = 1..255, each to
# (i - 1, x).
_READ_FACTORS = {f[x][1:]: (i, x) for i, f in enumerate(_FACTORS)
                 for x in range(1, 256)}

# Any spelling of a term: a coefficient, then factors in any order and
# repetition, each exponent in any decimal digits.
_TERM_RE = re.compile(r"^(?P<coeff>-?\d+)(?P<vars>(?:\*z[1-7](?:\^\d+)?)*)$")


def _read_term(tok):
    """(coefficient, exponents) of one term of any spelling, or
    ``ValueError``."""
    m = _TERM_RE.match(tok)
    if not m:
        raise ValueError(f"bad polynomial term {tok!r}")
    exps = [0] * NVARS
    for var, ex in re.findall(r"z([1-7])(?:\^(\d+))?", m.group("vars")):
        exps[int(var) - 1] += int(ex) if ex else 1
    return int(m.group("coeff")), tuple(exps)


def _term_text(c, e):
    """One term of ``MultiPoly.to_text``, for any exponents."""
    vars_ = "*".join(f"z{i + 1}^{x}" if x != 1 else f"z{i + 1}"
                     for i, x in enumerate(e) if x)
    return f"{c}*{vars_}" if vars_ else f"{c}"


class MultiPoly:
    """Immutable sparse polynomial in z1..z7.

    The term map is exposed read-only through ``terms``; algorithms that
    need raw speed work on plain dicts and wrap the result at the boundary.
    """

    __slots__ = ("terms",)

    def __init__(self, terms, _clean_input=True):
        if _clean_input:
            terms = {e: c for e, c in dict(terms).items() if c}
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, *a):
        raise AttributeError("MultiPoly is immutable")

    # ---------------------------------------------------------- constructors
    @classmethod
    def zero(cls):
        return cls({}, _clean_input=False)

    @classmethod
    def one(cls):
        return cls({ZERO_EXPS: 1}, _clean_input=False)

    @classmethod
    def variable(cls, i):
        """The polynomial z_i, 1-based index."""
        if not 1 <= i <= NVARS:
            raise ValueError(f"variable index {i} out of range 1..{NVARS}")
        e = [0] * NVARS
        e[i - 1] = 1
        return cls({tuple(e): 1}, _clean_input=False)

    # ------------------------------------------------------------ predicates
    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.terms == other.terms
        if isinstance(other, int):
            return self.terms == ({} if other == 0 else {ZERO_EXPS: other})
        return NotImplemented

    def __len__(self):
        return len(self.terms)

    # ------------------------------------------------------------ arithmetic
    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MultiPoly(out, _clean_input=False)

    def __neg__(self):
        return MultiPoly({e: -c for e, c in self.terms.items()}, _clean_input=False)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return MultiPoly.zero()
            return MultiPoly({e: c * other for e, c in self.terms.items()},
                             _clean_input=False)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return MultiPoly(out, _clean_input=False)

    __rmul__ = __mul__

    # ------------------------------------------------------------ evaluation
    def eval_integer(self, point):
        """Exact evaluation at a tuple of seven integers."""
        point = tuple(point)
        if len(point) != NVARS:
            raise ValueError("evaluation point must have 7 entries")
        terms = self.terms
        if not terms:
            return 0
        columns = list(zip(*terms))
        if min(map(min, columns)) < 0:
            raise ValueError("cannot evaluate a negative exponent exactly")
        p1, p2, p3, p4, p5, p6, p7 = (
            [x ** n for n in range(max(column) + 1)]
            for x, column in zip(point, columns))
        return sum(c * p1[a] * p2[b] * p3[d] * p4[e] * p5[f] * p6[g] * p7[h]
                   for (a, b, d, e, f, g, h), c in terms.items())

    def coefficient_of(self, exps):
        """Stored coefficient of the monomial with the given exponents, or 0."""
        return self.terms.get(tuple(exps), 0)

    # ---------------------------------------------------------- text format
    def to_text(self):
        """Canonical text form, e.g. ``1*z7^2 -1*z6 -1*z1 -1``.

        Terms in descending monomial order; zero exponents omitted;
        the constant term prints as a bare coefficient.
        """
        terms = self.terms
        if not terms:
            return "0"
        order = sorted(terms, key=monomial_key, reverse=True)
        f1, f2, f3, f4, f5, f6, f7 = _FACTORS
        try:
            return " ".join([
                f"{terms[e]}{f1[e[0]]}{f2[e[1]]}{f3[e[2]]}{f4[e[3]]}"
                f"{f5[e[4]]}{f6[e[5]]}{f7[e[6]]}" for e in order])
        except KeyError:        # an exponent outside 0..255
            return " ".join([_term_text(terms[e], e) for e in order])

    @classmethod
    def from_text(cls, text):
        """Parse the text form (inverse of ``to_text``).

        Whitespace separates terms.  A term is a coefficient ``-?\\d+``
        (any Unicode decimal digits), then factors ``*z<i>`` or
        ``*z<i>^<x>``, i in 1..7 and x decimal digits; a repeated factor
        adds its exponent and a repeated monomial its coefficient.  A term
        whose factors are all spelt as ``to_text`` writes them (x = 1..255,
        no leading zero) is read through ``_READ_FACTORS``, the inverse of
        ``to_text``'s table; any other spelling goes through ``_TERM_RE``,
        so the accepted language, the values and the ``bad polynomial
        term`` message are the regex's.
        """
        text = text.strip()
        if not text or text == "0":
            return cls.zero()
        out = {}
        read = _READ_FACTORS.get
        for tok in text.split():
            head, *parts = tok.split("*")
            if (head[1:] if head[:1] == "-" else head).isdecimal():
                exps = [0] * NVARS
                for part in parts:
                    ix = read(part)
                    if ix is None:
                        break
                    exps[ix[0]] += ix[1]
                else:
                    e = tuple(exps)
                    out[e] = out.get(e, 0) + int(head)
                    continue
            coeff, e = _read_term(tok)
            out[e] = out.get(e, 0) + coeff
        return cls(out)

    def __repr__(self):
        return f"MultiPoly({self.to_text()})"

    def __str__(self):
        return self.to_text()
