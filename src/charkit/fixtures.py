"""Fixture file formats shared by the corpus data, the cache and the CLI.

Line formats (``#`` starts a comment, blank lines are ignored):

    cg j k = m1..m7:N ...       tensor-product series of two fundamentals
    mcg m1..m7 = w1..w7:N ...   decomposition of a monomial in the z's
    chi m1..m7 = <polynomial>   character in canonical polynomial text

Weights are written either as a compact digit string (``0000002``) or as
seven comma-separated integers (``0,0,0,0,0,0,12``).  Series fixtures are
validated against the exact dimension-sum identity at load time.
"""

from __future__ import annotations

import importlib.resources
import warnings

from .lie_core import (
    RANK, FUNDAMENTAL_DIMS, monomial_dim, series_dim, weight_height2, weyl_dim,
)
from .polyring import MultiPoly


class FixtureFormatError(ValueError):
    """A fixture line does not parse."""


class FixtureCorruptError(ValueError):
    """A fixture parses but fails its validation identity."""


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
        w = tuple(int(p) for p in parts)
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


def _iter_lines(path, warn_empty=True):
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
    if count == 0 and warn_empty:
        warnings.warn(f"fixture file {path} contains no entries")


def _parse_series_rhs(rhs, lineno, path):
    series = {}
    for item in rhs.split():
        try:
            wtext, ntext = item.rsplit(":", 1)
            w = parse_weight(wtext)
            n = int(ntext)
        except (ValueError, FixtureFormatError) as exc:
            raise FixtureFormatError(
                f"{path}:{lineno}: bad series item {item!r}: {exc}")
        if n <= 0:
            raise FixtureFormatError(
                f"{path}:{lineno}: non-positive multiplicity in {item!r}")
        if w in series:
            raise FixtureFormatError(
                f"{path}:{lineno}: repeated weight {format_weight(w)}")
        series[w] = n
    return series


def load_cg_file(path):
    """Parse ``cg j k = ...`` lines into {(j, k): {weight: mult}}."""
    out = {}
    for lineno, line in _iter_lines(path):
        try:
            head, rhs = line.split("=", 1)
            tag, j, k = head.split()
            if tag != "cg":
                raise ValueError(f"expected 'cg', got {tag!r}")
            j, k = int(j), int(k)
        except ValueError as exc:
            raise FixtureFormatError(f"{path}:{lineno}: {exc}")
        if not (1 <= j <= RANK and 1 <= k <= RANK):
            raise FixtureFormatError(f"{path}:{lineno}: bad pair {j} {k}")
        series = _parse_series_rhs(rhs, lineno, path)
        want = FUNDAMENTAL_DIMS[j - 1] * FUNDAMENTAL_DIMS[k - 1]
        got = series_dim(series)
        if got != want:
            raise FixtureCorruptError(
                f"{path}:{lineno}: series {j} {k} dimension sum {got} "
                f"!= {want}")
        out[(min(j, k), max(j, k))] = series
    return out


def load_mcg_file(path):
    """Parse ``mcg m = ...`` lines into {exponents: {weight: mult}}."""
    out = {}
    for lineno, line in _iter_lines(path):
        try:
            head, rhs = line.split("=", 1)
            tag, mono = head.split()
            if tag != "mcg":
                raise ValueError(f"expected 'mcg', got {tag!r}")
            exps = parse_weight(mono)
        except (ValueError, FixtureFormatError) as exc:
            raise FixtureFormatError(f"{path}:{lineno}: {exc}")
        series = _parse_series_rhs(rhs, lineno, path)
        want = monomial_dim(exps)
        got = series_dim(series)
        if got != want:
            raise FixtureCorruptError(
                f"{path}:{lineno}: monomial series {format_weight(exps)} "
                f"dimension sum {got} != {want}")
        out[exps] = series
    return out


def load_chi_file(path):
    """Parse ``chi m = <poly>`` lines into {weight: MultiPoly}.

    Each character is checked for the two cheap character invariants: unit
    coefficient on z^m and the dimension evaluation.  A file with no
    entries gives an empty mapping without a warning: the character cache
    reads one such file per weight, and an empty one is a cache miss.
    """
    out = {}
    for lineno, line in _iter_lines(path, warn_empty=False):
        try:
            head, rhs = line.split("=", 1)
            tag, wtext = head.split()
            if tag != "chi":
                raise ValueError(f"expected 'chi', got {tag!r}")
            w = parse_weight(wtext)
            poly = MultiPoly.from_text(rhs)
        except (ValueError, FixtureFormatError) as exc:
            raise FixtureFormatError(f"{path}:{lineno}: {exc}")
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


def series_items(series):
    """Items of a {weight: mult} series in print order, highest first."""
    return sorted(series.items(),
                  key=lambda it: (-weight_height2(it[0]),
                                  tuple(-x for x in it[0])))


def format_series_line(tag, key_text, series):
    """Render a cg/mcg line with weights in ``series_items`` order."""
    rhs = " ".join(f"{format_weight(w)}:{n}" for w, n in series_items(series))
    return f"{tag} {key_text} = {rhs}"
