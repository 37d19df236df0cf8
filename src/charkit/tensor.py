"""Decomposition of character products into irreducible constituents.

The multiplicity extraction is the straightforward triangular subtraction:
candidates mu run over the dominant weights below the top weight in order
of increasing height gap, each multiplicity is read off as the current
residual coefficient of z^mu, and N_mu * chi_mu is subtracted.  A zero
final residual certifies the decomposition (and, transitively, every
character that entered it); the exact dimension sum is checked as well.

The downset of the top weight is enumerated once per decomposition, and
the operator is restricted to it once: a constituent character that is not
in memory yet is solved by Method 1 on that ``Restriction``, from its own
position, so its downset is never enumerated again and each row of the
operator is read at most once per decomposition.  Constituents neither
read nor write the disk cache, and stay in memory only: solving one again
on the shared rows costs less than parsing its text.  On a top weight's
support of at least ``LEVEL_SOLVE_MIN_SUPPORT`` weights they are not kept
at all (``CharacterTable.character``).  The factors of
``cg_decompose`` are characters asked for by name, so they go through the
disk cache when one is attached.  Each decomposition refuses
a top weight outside the operator's range (``require_in_range``), then
enumerates its downset, whose closure refuses a top outside the keys' range
(``require_keyed_downset``), before either factor is solved.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lie_core import (
    dominant_weights_below, monomial_dim, require_dominant, series_dim,
    weyl_dim,
)


class DecompositionError(ArithmeticError):
    """Negative multiplicity or nonzero residual: some character upstream
    is wrong."""


@dataclass
class CGSeries:
    """A tensor-product decomposition: weight -> positive multiplicity, in
    downset order (height descending, then lexicographically descending)."""

    terms: dict

    def __post_init__(self):
        if any(n <= 0 for n in self.terms.values()):
            raise ValueError("CGSeries multiplicities must be positive")

    def total_dimension(self):
        return series_dim(self.terms)

    def __len__(self):
        return len(self.terms)


def _subtractive_decompose(product_terms, support, table, expected_dim):
    """The certified series of a character-positive polynomial whose
    constituents all lie below ``top = support.weights[0]``.

    The certificate: the residual ends at zero, ``top`` occurs exactly
    once, and the dimension sum equals ``expected_dim``, the dimension of
    the product as the caller computed it; otherwise ``DecompositionError``.
    ``support`` is the operator restricted to the downset of ``top``;
    every constituent that has to be solved is solved on it and shares
    its rows.
    """
    top = support.weights[0]
    residual = dict(product_terms)
    series = {}
    for mu in support.weights:
        c = residual.get(mu, 0)
        if c == 0:
            continue
        if c < 0:
            raise DecompositionError(
                f"negative multiplicity {c} for weight {mu} under {top}")
        chi = table.character(mu, support=support)
        for q, s in chi.terms.items():
            v = residual.get(q, 0) - c * s
            if v:
                residual[q] = v
            else:
                residual.pop(q, None)
        series[mu] = c
    if residual:
        raise DecompositionError(
            f"nonzero residual after decomposing below {top}: "
            f"{sorted(residual)[:5]} ...")
    if series.get(top) != 1:
        raise DecompositionError(
            f"top weight {top} has multiplicity {series.get(top, 0)}, not 1")
    got = series_dim(series)
    if got != expected_dim:
        raise DecompositionError(
            f"dimension sum {got} != {expected_dim} below {top}")
    return CGSeries(series)


def cg_decompose(m, n, table):
    """Clebsch-Gordan series of the product of the characters of m and n."""
    m, n = tuple(m), tuple(n)
    require_dominant(m)
    require_dominant(n)
    top = tuple(a + b for a, b in zip(m, n))
    table.operator.require_in_range(top)
    support = table.operator.restrict(dominant_weights_below(top))
    product = table.character(m) * table.character(n)
    return _subtractive_decompose(product.terms, support, table,
                                  weyl_dim(m) * weyl_dim(n))


def monomial_decompose(exps, table):
    """Decompose the monomial z^exps, i.e. the product of fundamental
    characters with the given multiplicities, into irreducibles."""
    exps = tuple(exps)
    require_dominant(exps)      # the top weight of z^exps is exps
    table.operator.require_in_range(exps)
    support = table.operator.restrict(dominant_weights_below(exps))
    return _subtractive_decompose({exps: 1}, support, table,
                                  monomial_dim(exps))

