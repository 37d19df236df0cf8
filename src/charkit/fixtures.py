"""Fixture file formats shared by the corpus data, the cache and the CLI.

Line formats (``#`` starts a comment, blank lines are ignored):

    cg j k = m1..m7:N ...       tensor-product series of two fundamentals
    mcg m1..m7 = w1..w7:N ...   decomposition of a monomial in the z's
    chi m1..m7 = <polynomial>   character in canonical polynomial text

Weights are written either as a compact digit string (``0000002``) or as
seven comma-separated integers (``0,0,0,0,0,0,12``).  Series fixtures are
validated against the exact dimension-sum identity at load time.  A file
with no entries is refused (``FixtureFormatError``), as is a bad line.
"""

from __future__ import annotations

import importlib.resources

from .lie_core import (
    RANK, FUNDAMENTAL_DIMS, monomial_dim, series_dim, weyl_dim,
)
from .polyring import MultiPoly


class FixtureFormatError(ValueError):
    """A fixture line does not parse."""


class FixtureCorruptError(ValueError):
    """A fixture parses but fails its validation identity."""


def parse_integer(text):
    """``int(text)`` for an optional ``-`` and decimal digits, the spelling
    of a polynomial's coefficient; ``int`` alone would also take ``+``,
    ``_`` between digits and surrounding whitespace."""
    if not (text[1:] if text[:1] == "-" else text).isdecimal():
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def parse_weight(text):
    """Parse ``0000002`` or ``0,0,0,0,0,0,2`` into a 7-tuple of ints."""
    text = text.strip()
    if "," in text:
        parts = text.split(",")
    else:
        parts = list(text)
    if len(parts) != RANK:
        raise FixtureFormatError(f"weight {text!r} does not have 7 entries")
    try:
        w = tuple(map(parse_integer, parts))
    except ValueError:
        raise FixtureFormatError(f"weight {text!r} has non-integer entries")
    if any(x < 0 for x in w):
        raise FixtureFormatError(f"weight {text!r} has negative entries")
    return w


def format_weight(w):
    """Compact digit string when possible, comma-separated otherwise."""
    if all(0 <= x <= 9 for x in w):
        return "".join(str(x) for x in w)
    return ",".join(str(x) for x in w)


def data_path(name):
    """Path to a packaged data file."""
    return importlib.resources.files("charkit.data") / name


def _iter_lines(path):
    count = 0
    with open(path, encoding="utf-8") as f:
        try:
            for lineno, raw in enumerate(f, 1):
                line = raw.split("#", 1)[0].strip()
                if line:
                    count += 1
                    yield lineno, line
        except UnicodeDecodeError as exc:
            raise FixtureFormatError(f"{path}: not UTF-8 text: {exc}")
    if count == 0:
        raise FixtureFormatError(f"{path}: no entries")


def _entries(path, tag, parse_key, parse_value):
    """Yield (lineno, key, value) for each ``tag key = value`` line.

    ``parse_key`` takes the head's fields, the tag first, so that its
    unpacking counts the tag.  A key already read is refused: a file names
    each key once.  A line's ``ValueError`` is re-raised as a
    ``FixtureFormatError`` that names ``path:lineno``."""
    seen = {}
    for lineno, line in _iter_lines(path):
        try:
            head, rhs = line.split("=", 1)
            fields = head.split()
            key = parse_key(fields)
            if fields[0] != tag:
                raise ValueError(f"expected {tag!r}, got {fields[0]!r}")
            if key in seen:
                raise ValueError(f"repeated key {' '.join(fields)!r}, first "
                                 f"on line {seen[key]}")
            seen[key] = lineno
            value = parse_value(rhs)
        except ValueError as exc:
            raise FixtureFormatError(f"{path}:{lineno}: {exc}")
        yield lineno, key, value


def _weight_key(fields):
    _, wtext = fields
    return parse_weight(wtext)


def _pair_key(fields):
    """The unordered pair ``j k`` as (min, max): ``cg 1 3`` and ``cg 3 1``
    name one key."""
    _, j, k = fields
    j, k = parse_integer(j), parse_integer(k)
    if not (1 <= j <= RANK and 1 <= k <= RANK):
        raise ValueError(f"bad pair {j} {k}")
    return min(j, k), max(j, k)


def _parse_series_rhs(rhs):
    series = {}
    for item in rhs.split():
        try:
            wtext, ntext = item.rsplit(":", 1)
            w = parse_weight(wtext)
            n = parse_integer(ntext)
        except ValueError as exc:
            raise FixtureFormatError(f"bad series item {item!r}: {exc}")
        if n <= 0:
            raise FixtureFormatError(f"non-positive multiplicity in {item!r}")
        if w in series:
            raise FixtureFormatError(f"repeated weight {format_weight(w)}")
        series[w] = n
    return series


def _check_dim(path, lineno, label, series, want):
    got = series_dim(series)
    if got != want:
        raise FixtureCorruptError(
            f"{path}:{lineno}: {label} dimension sum {got} != {want}")


def load_cg_file(path):
    """Parse ``cg j k = ...`` lines into {(j, k): {weight: mult}}."""
    out = {}
    for lineno, (j, k), series in _entries(path, "cg", _pair_key,
                                           _parse_series_rhs):
        _check_dim(path, lineno, f"series {j} {k}", series,
                   FUNDAMENTAL_DIMS[j - 1] * FUNDAMENTAL_DIMS[k - 1])
        out[(j, k)] = series
    return out


def load_mcg_file(path):
    """Parse ``mcg m = ...`` lines into {exponents: {weight: mult}}."""
    out = {}
    for lineno, exps, series in _entries(path, "mcg", _weight_key,
                                         _parse_series_rhs):
        _check_dim(path, lineno, f"monomial series {format_weight(exps)}",
                   series, monomial_dim(exps))
        out[exps] = series
    return out


def load_chi_file(path):
    """Parse ``chi m = <poly>`` lines into {weight: MultiPoly}.

    Each character is checked for the two cheap character invariants: unit
    coefficient on z^m and the dimension evaluation.
    """
    out = {}
    for lineno, w, poly in _entries(path, "chi", _weight_key,
                                    MultiPoly.from_text):
        if poly.coefficient_of(w) != 1:
            raise FixtureCorruptError(
                f"{path}:{lineno}: character {format_weight(w)} lacks "
                f"unit leading coefficient")
        got = poly.eval_integer(FUNDAMENTAL_DIMS)
        want = weyl_dim(w)
        if got != want:
            raise FixtureCorruptError(
                f"{path}:{lineno}: character {format_weight(w)} "
                f"evaluates to {got}, dimension is {want}")
        out[w] = poly
    return out


def format_chi_line(w, chi):
    """The ``chi`` line that ``load_chi_file`` reads back as {w: chi}."""
    return f"chi {format_weight(w)} = {chi.to_text()}"


def format_series_line(tag, key_text, series):
    """Render a cg/mcg line with weights in the series' order (a
    decomposition's: height descending, then lexicographically descending)."""
    rhs = " ".join(f"{format_weight(w)}:{n}" for w, n in series.items())
    return f"{tag} {key_text} = {rhs}"
