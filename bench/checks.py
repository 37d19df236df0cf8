"""Output checks, run after the timed region of a pass.

Each check recomputes a certificate by a route other than the one that
produced the output: dimension sums and evaluations against the Weyl
dimension formula, the eigen-identity by applying the operator to the whole
polynomial, the shipped corpora, Method 2 against Method 1, and Freudenthal
totals.  ``digest`` fingerprints an output so that the other passes of a run,
which repeat the same operations, are held to the checked result.
"""

from __future__ import annotations

import hashlib

FUNDAMENTAL_DIMS = (133, 912, 8645, 365750, 27664, 1539, 56)
TORUS_TOLERANCE = 1e-8


def digest(kind, output):
    """A short fingerprint of an operation's output; None for no output."""
    if output is None:
        return None
    if kind in ("character", "character_m2", "monomial_decompose", "cg_decompose"):
        canon = sorted(output.terms.items())
    elif kind == "freudenthal":
        canon = sorted(output.dominant_mults.items())
    elif kind == "torus_check":
        canon = output < TORUS_TOLERANCE
    else:
        raise ValueError(f"unknown operation {kind!r}")
    return hashlib.sha1(repr(canon).encode()).hexdigest()[:16]


def eval_at_dims(terms):
    """The polynomial evaluated at z_i = dim of the i-th fundamental."""
    total = 0
    for exps, c in terms.items():
        for d, n in zip(FUNDAMENTAL_DIMS, exps):
            if n:
                c *= d ** n
        total += c
    return total


def character_failure(lib, operator, w, chi, shipped):
    """Why ``chi`` is not the character of weight ``w``, or None."""
    terms = chi.terms
    if terms.get(w) != 1:
        return "leading coefficient is not 1"
    if eval_at_dims(terms) != lib.weyl_dim(w):
        return "dimension evaluation differs from weyl_dim"
    if w in shipped and terms != shipped[w].terms:
        return "differs from the shipped third-order character"
    eps = lib.eigenvalue(w)
    if operator.apply_terms(terms) != {e: eps * c for e, c in terms.items()}:
        return "eigen-identity fails"
    return None


def series_failure(lib, top_dim, series):
    """Why a decomposition's dimension sum is not exact, or None."""
    got = sum(n * lib.weyl_dim(w) for w, n in series.terms.items())
    if got != top_dim:
        return f"dimension sum {got} != {top_dim}"
    return None


def failures(lib, operator, ops, outputs):
    """Check every output of a pass; {operation index: reason}."""
    fixtures = lib.fixtures
    shipped = fixtures.load_chi_file(fixtures.data_path("third_order_chars.txt"))
    cubic = fixtures.load_mcg_file(fixtures.data_path("cubic_series.txt"))
    m1 = {}
    out = {}
    for i, (op, result) in enumerate(zip(ops, outputs)):
        if result is None:
            continue
        kind, *args = op
        reason = None
        if kind in ("character", "character_m2"):
            w = args[0]
            reason = character_failure(lib, operator, w, result, shipped)
            if kind == "character":
                m1[w] = result
            elif w not in m1:
                reason = reason or "Method 2 ran without a Method 1 result"
            elif m1[w].terms != result.terms:
                reason = "Method 2 differs from Method 1"
        elif kind == "monomial_decompose":
            e = args[0]
            want = 1
            for d, n in zip(FUNDAMENTAL_DIMS, e):
                want *= d ** n
            reason = series_failure(lib, want, result)
            if result.terms != cubic[e]:
                reason = reason or "differs from the shipped cubic series"
        elif kind == "cg_decompose":
            m, n = args
            reason = series_failure(lib, lib.weyl_dim(m) * lib.weyl_dim(n), result)
        elif kind == "freudenthal":
            total = sum(mult * result.orbit_sizes[mu]
                        for mu, mult in result.dominant_mults.items())
            if total != lib.weyl_dim(args[0]):
                reason = f"Freudenthal total {total} != weyl_dim"
        elif kind == "torus_check":
            if not result < TORUS_TOLERANCE:
                reason = f"torus deviation {result:.3e}"
        if reason:
            out[i] = reason
    return out
