"""Command-line front end.

Commands
--------
character W [W...]    compute irreducible characters
cg W1 W2              Clebsch-Gordan series of a product of two characters
monomial-cg M         decompose a monomial in the fundamental characters
dim W [W...]          dimensions of irreducible representations
series-family K N     z7 * chi_{n lambda_k} against ``minuscule_series``
verify CORPUS         re-derive a fixture corpus and report pass/fail

Weights are seven digits (``0000002``) or comma-separated (``0,...,12``).
``series-family`` and ``verify quadratic`` compare ``cg_decompose`` with
its reference here, and ``cg`` with a factor lambda_7 refuses a series
that differs from ``minuscule_series`` of the other factor.  Argument
errors are refused before the operator is built.
Exit status: 0 on success; 1 on a verification failure or on a failed
internal invariant (a one-line ``error:`` on stderr); 2 on usage errors,
among them a cache directory that cannot be created or written (an
``OSError``, also reported as one ``error:`` line).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import fixtures
from .charsolve import IntegralityError, ZeroGapError
from .csmodel import QuadraticCorpus, StructuralViolationError, build_a
from .lie_core import (
    FUNDAMENTAL_DIMS, FUNDAMENTAL_WEIGHTS, RANK, InvariantError, weyl_dim,
)
from .oracle import (
    OracleRefusal, freudenthal, minuscule_series, require_trials, torus_check,
    torus_check_listed,
)
from .polyring import descending_monomials
from .tensor import DecompositionError, cg_decompose, monomial_decompose

# Failures of a self-check or of the oracle's work ceiling: exit 1.
INVARIANT_ERRORS = (DecompositionError, IntegralityError, ZeroGapError,
                    StructuralViolationError, OracleRefusal, InvariantError)

DEFAULT_CACHE = ".charcache"


def _weight(text):
    try:
        return fixtures.parse_weight(text)
    except fixtures.FixtureFormatError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _integer(text):
    try:
        return fixtures.parse_integer(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def build_parser():
    p = argparse.ArgumentParser(
        prog="charkit",
        description="Exact E7 characters and Clebsch-Gordan series.")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--cache-dir", default=None,
                   help=f"character cache directory (default {DEFAULT_CACHE}; "
                        f"env CHARKIT_CACHE overrides)")
    p.add_argument("--no-cache", action="store_true",
                   help="compute everything fresh, do not touch the cache")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("character", help="compute irreducible characters")
    c.add_argument("weights", nargs="+", type=_weight)
    c.add_argument("--method", choices=("m1", "m2", "both"), default="m1")
    c.set_defaults(run=cmd_character)

    g = sub.add_parser("cg", help="Clebsch-Gordan series of chi_m * chi_n")
    g.add_argument("weights", nargs=2, type=_weight)
    g.set_defaults(run=cmd_cg)

    mg = sub.add_parser("monomial-cg", help="decompose a monomial in the z's")
    mg.add_argument("monomial", type=_weight)
    mg.set_defaults(run=cmd_monomial_cg)

    d = sub.add_parser("dim", help="Weyl dimension of representations")
    d.add_argument("weights", nargs="+", type=_weight)
    d.set_defaults(run=cmd_dim)

    f = sub.add_parser("series-family",
                       help="z7 * chi_{n lambda_k} against its closed form")
    f.add_argument("k", type=_integer)
    f.add_argument("n", type=_integer)
    f.set_defaults(run=cmd_series_family)

    v = sub.add_parser("verify", help="re-derive a fixture corpus")
    v.add_argument("corpus",
                   choices=("quadratic", "appendix-a", "appendix-b",
                            "oracle", "all"))
    v.add_argument("--trials", type=_integer, default=20,
                   help="torus points for the oracle corpus")
    v.add_argument("--seed", type=_integer, default=20240901)
    v.set_defaults(run=cmd_verify)
    return p


def _cache_dir(args):
    if args.no_cache:
        return None
    if args.cache_dir:
        return args.cache_dir
    return os.environ.get("CHARKIT_CACHE", DEFAULT_CACHE)


def _make_table(args):
    corpus = QuadraticCorpus.load_default()
    _, op, table = build_a(corpus)
    table.cache_dir = _cache_dir(args)
    if table.cache_dir:
        os.makedirs(table.cache_dir, exist_ok=True)
        table.flush_disk()
    return corpus, table


def _poly_json(w, poly):
    exps = descending_monomials(poly.terms)
    return {"weight": list(w),
            "polynomial": [[str(poly.terms[e]), list(e)] for e in exps]}


def _series_json(factors, series):
    return {"factors": [list(f) for f in factors],
            "series": [{"weight": list(w), "mult": n}
                       for w, n in series.terms.items()],
            "dim_check": True}


def _series_diffs(got, want):
    """(weight, got, want) for every weight where two {weight: mult}
    series differ, in ascending weight order."""
    return [(w, got.get(w, 0), want.get(w, 0))
            for w in sorted(set(got) | set(want))
            if got.get(w, 0) != want.get(w, 0)]


def _emit_series(args, factors, series, label):
    """Print a series whose dimension sum the decomposition certified."""
    if args.format == "json":
        print(json.dumps(_series_json(factors, series)))
    else:
        print(f"# {label}, dimension {series.total_dimension()}, "
              f"dim_check ok")
        for w, n in series.terms.items():
            print(f"{fixtures.format_weight(w)}:{n}")
    return 0


def cmd_character(args):
    _, table = _make_table(args)
    status = 0
    for w in args.weights:
        if args.method in ("m1", "both"):
            chi = table.character(w)
        if args.method in ("m2", "both"):
            chi2 = table.character_m2(w)
            if args.method == "both" and chi != chi2:
                print(f"METHOD DISAGREEMENT for {fixtures.format_weight(w)}",
                      file=sys.stderr)
                status = 1
                continue
            chi = chi2
        if args.format == "json":
            print(json.dumps(_poly_json(w, chi)))
        else:
            print(chi.to_text())
    return status


def cmd_cg(args):
    _, table = _make_table(args)
    m, n = args.weights
    series = cg_decompose(m, n, table)
    label = f"chi_{fixtures.format_weight(m)} * chi_{fixtures.format_weight(n)}"
    if FUNDAMENTAL_WEIGHTS[6] in (m, n):    # the minuscule rule certifies it
        rule = minuscule_series(n if m == FUNDAMENTAL_WEIGHTS[6] else m)
        diffs = _series_diffs(series.terms, rule)
        if diffs:
            w, got, want = diffs[0]
            raise DecompositionError(
                f"{label}: multiplicity {got} at {fixtures.format_weight(w)}, "
                f"the minuscule rule gives {want}")
    return _emit_series(args, [m, n], series, label)


def cmd_monomial_cg(args):
    _, table = _make_table(args)
    exps = args.monomial
    series = monomial_decompose(exps, table)
    factors = [f for f, n in zip(FUNDAMENTAL_WEIGHTS, exps) for _ in range(n)]
    label = "monomial " + fixtures.format_weight(exps)
    return _emit_series(args, factors, series, label)


def cmd_dim(args):
    for w in args.weights:
        d = weyl_dim(w)
        if args.format == "json":
            print(json.dumps({"weight": list(w), "dim": str(d)}))
        else:
            print(d)
    return 0


def cmd_series_family(args):
    k, n = args.k, args.n
    if not 1 <= k <= RANK:
        raise ValueError(f"fundamental index {k} out of range 1..7")
    if n < 1:
        raise ValueError("n must be a positive integer")
    m = tuple(n * x for x in FUNDAMENTAL_WEIGHTS[k - 1])
    _, table = _make_table(args)
    computed = cg_decompose(FUNDAMENTAL_WEIGHTS[6], m, table)
    closed = minuscule_series(m)
    diffs = _series_diffs(computed.terms, closed)
    if args.format == "json":
        print(json.dumps({
            "k": k, "n": n, "match": not diffs,
            "computed": _series_json([], computed)["series"],
            "closed_form": [{"weight": list(w), "mult": mult}
                            for w, mult in sorted(closed.items())],
        }))
    else:
        print(f"# z7 * chi_(n={n}) lambda_{k}: "
              f"{'MISMATCH' if diffs else 'match'}")
        print(fixtures.format_series_line(
            "series", f"7 x {k}^{n}", computed.terms))
        for w, a, b in diffs:
            print(f"  differs at {fixtures.format_weight(w)}: "
                  f"computed {a}, closed form {b}")
    return 1 if diffs else 0


def _verify_quadratic(table, corpus, rows):
    for (j, k), fixture_series in sorted(corpus.series.items()):
        computed = cg_decompose(FUNDAMENTAL_WEIGHTS[j - 1],
                                FUNDAMENTAL_WEIGHTS[k - 1], table)
        diffs = _series_diffs(computed.terms, fixture_series)
        rows.append((f"cg {j} {k}", not diffs,
                     f"differs: {diffs[:3]}" if diffs else ""))


def _verify_chars(table, rows):
    path = fixtures.data_path("third_order_chars.txt")
    corpus = fixtures.load_chi_file(path)
    for w in sorted(corpus):
        chi = table.character(w)
        ok = chi == corpus[w]
        rows.append((f"chi {fixtures.format_weight(w)}", ok,
                     "" if ok else "computed character differs from fixture"))


def _verify_cubic(table, rows):
    path = fixtures.data_path("cubic_series.txt")
    corpus = fixtures.load_mcg_file(path)
    for exps in sorted(corpus):
        series = monomial_decompose(exps, table)
        ok = series.terms == corpus[exps]
        rows.append((f"mcg {fixtures.format_weight(exps)}", ok,
                     "" if ok else "computed series differs from fixture"))


def _verify_oracle(table, rows, trials, seed):
    for i in range(7):
        system = freudenthal(FUNDAMENTAL_WEIGHTS[i])
        ok = system.total() == FUNDAMENTAL_DIMS[i]
        rows.append((f"freudenthal lambda_{i + 1}", ok,
                     f"total {system.total()}"))
    targets = [FUNDAMENTAL_WEIGHTS[i] for i in range(7)]
    targets += [(0, 0, 0, 0, 0, 0, 2), (1, 0, 0, 0, 0, 0, 1),
                (0, 0, 0, 0, 0, 0, 3)]
    # lambda_1 and lambda_7 against their listed weights: a fundamental's
    # own torus_check compares the orbit walk's value with itself
    listed = (FUNDAMENTAL_WEIGHTS[0], FUNDAMENTAL_WEIGHTS[6])
    for w in targets:
        check = torus_check_listed if w in listed else torus_check
        bad = check(w, table.character(w), trials=trials, seed=seed)
        rows.append((f"torus chi_{fixtures.format_weight(w)}", bad == 0,
                     f"exact at {trials - bad}/{trials} points mod 2^31-1"))


def cmd_verify(args):
    which = args.corpus
    if which in ("oracle", "all"):
        require_trials(args.trials)
    corpus, table = _make_table(args)
    rows = []
    if which in ("quadratic", "all"):
        _verify_quadratic(table, corpus, rows)
    if which in ("appendix-a", "all"):
        _verify_chars(table, rows)
    if which in ("appendix-b", "all"):
        _verify_cubic(table, rows)
    if which in ("oracle", "all"):
        _verify_oracle(table, rows, args.trials, args.seed)
    failed = [r for r in rows if not r[1]]
    if args.format == "json":
        print(json.dumps({
            "items": [{"item": name, "pass": ok, "detail": detail}
                      for name, ok, detail in rows],
            "passed": len(rows) - len(failed),
            "failed": len(failed),
        }))
    else:
        for name, ok, detail in rows:
            tail = f"  {detail}" if detail else ""
            print(f"{'PASS' if ok else 'FAIL'}  {name}{tail}")
        print(f"# {len(rows) - len(failed)}/{len(rows)} passed")
    return 1 if failed else 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except INVARIANT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
