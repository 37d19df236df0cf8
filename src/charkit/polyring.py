"""Sparse exact polynomial arithmetic in the seven character variables z1..z7.

Terms are kept in a dict keyed by exponent tuples with arbitrary-precision
integer coefficients; zero coefficients are never stored, so equal term maps
are equal polynomials.  Terms are ordered by degree, ties broken by comparing
exponent tuples from z7 down to z1, which fixes the one text form: a table of
factor strings for exponents 0..255 that ``to_text`` writes and ``from_text``
reads inverted."""

from __future__ import annotations

from operator import itemgetter

NVARS = 7

ZERO_EXPS = (0,) * NVARS

_FROM_Z7 = itemgetter(6, 5, 4, 3, 2, 1, 0)


def descending_monomials(monomials):
    """Exponent tuples in descending monomial order, as a new list: by
    degree, ties by the tuples compared from z7 down to z1.  Two stable
    sorts with C key functions, the tie-break first."""
    order = sorted(monomials, key=_FROM_Z7, reverse=True)
    order.sort(key=sum, reverse=True)
    return order


# The text of z_i^x inside a term, by i and then x = 0..255: "" for x = 0,
# "*z<i>" for x = 1, "*z<i>^<x>" above.
_FACTORS = tuple(
    {x: "" if x == 0 else f"*z{i}" if x == 1 else f"*z{i}^{x}"
     for x in range(256)}
    for i in range(1, NVARS + 1))

# The same factors read back: "z<i>" -> (i - 1, 1), "z<i>^<x>" -> (i - 1, x).
_READ_FACTORS = {f[x][1:]: (i, x) for i, f in enumerate(_FACTORS)
                 for x in range(1, 256)}


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
        the constant term prints as a bare coefficient.  An exponent
        outside 0..255 is refused with ``ValueError``.
        """
        terms = self.terms
        if not terms:
            return "0"
        order = descending_monomials(terms)
        f1, f2, f3, f4, f5, f6, f7 = _FACTORS
        try:
            return " ".join([
                f"{terms[e]}{f1[e[0]]}{f2[e[1]]}{f3[e[2]]}{f4[e[3]]}"
                f"{f5[e[4]]}{f6[e[5]]}{f7[e[6]]}" for e in order])
        except KeyError as exc:
            raise ValueError(f"exponent {exc} outside 0..255") from None

    @classmethod
    def from_text(cls, text):
        """Parse the text form (inverse of ``to_text``).

        Whitespace separates terms.  A term is an optional ``-`` and decimal
        digits, then factors ``*z<i>`` or ``*z<i>^<x>`` as ``to_text`` writes
        them (i in 1..7, x in 2..255 in ASCII digits, no leading zero), each
        read through ``_READ_FACTORS``; a repeated factor adds its exponent,
        a repeated monomial its coefficient.  Any other term is refused.
        """
        out = {}
        read = _READ_FACTORS.get
        for tok in text.split():
            head, *parts = tok.split("*")
            if not (head[1:] if head[:1] == "-" else head).isdecimal():
                raise ValueError(f"bad polynomial term {tok!r}")
            exps = [0] * NVARS
            for part in parts:
                ix = read(part)
                if ix is None:
                    raise ValueError(f"bad polynomial term {tok!r}")
                exps[ix[0]] += ix[1]
            e = tuple(exps)
            out[e] = out.get(e, 0) + int(head)
        if 0 in out.values():
            out = {e: c for e, c in out.items() if c}
        return cls(out, _clean_input=False)

    def __repr__(self):
        return f"MultiPoly({self.to_text()})"

    def __str__(self):
        return self.to_text()
