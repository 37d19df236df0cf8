"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines immediately).  Every tolerance and runtime bound is
asserted, not just reported.
"""

import random
import time
from fractions import Fraction

from _acceptance_report import record as report

from charkit import fixtures
from charkit.charsolve import CharacterTable
from charkit.csmodel import B_COEFFS, QuadraticCorpus, build_a
from charkit.lie_core import (
    CARTAN_A, CARTAN_AINV2, FUNDAMENTAL_DIMS, FUNDAMENTAL_WEIGHTS,
    POSITIVE_ROOTS, RANK, TWO_RHO_ALPHA, ZERO_WEIGHT, dominant_weights_below,
    eigenvalue, weight_height2, weyl_dim,
)
from charkit.oracle import freudenthal, torus_check
from charkit.polyring import MultiPoly
from charkit.tensor import monomial_decompose

from test_csmodel import apply, load_a_table
from test_tensor import family, quadratic_roundtrip

L = FUNDAMENTAL_WEIGHTS


def test_criterion_01_cartan_and_roots():
    t0 = time.time()
    ainv = [[Fraction(x, 2) for x in row] for row in CARTAN_AINV2]
    rho_alpha = [Fraction(x, 2) for x in TWO_RHO_ALPHA]
    hist = {}
    for r in POSITIVE_ROOTS:
        hist[sum(r)] = hist.get(sum(r), 0) + 1
    ok = (len(POSITIVE_ROOTS) == 63
          and [hist.get(h, 0) for h in range(1, 18)]
          == [7, 6, 6, 6, 6, 5, 5, 4, 4, 3, 3, 2, 2, 1, 1, 1, 1])
    for i in range(RANK):
        for j in range(RANK):
            s = sum(ainv[i][k] * CARTAN_A[k][j] for k in range(RANK))
            ok = ok and s == (1 if i == j else 0)
    ok = ok and TWO_RHO_ALPHA == (34, 49, 66, 96, 75, 52, 27)
    ok = ok and all(sum(r[i] for r in POSITIVE_ROOTS) == TWO_RHO_ALPHA[i]
                    for i in range(RANK))
    rr = sum(rho_alpha[i] * CARTAN_A[i][j] * rho_alpha[j]
             for i in range(RANK) for j in range(RANK))
    ok = ok and rr == Fraction(399, 2)
    elapsed = time.time() - t0
    report(1, ok and elapsed < 1, elapsed,
           "63 roots, height histogram, Ainv*A = I, rho and (rho,rho)=399/2")
    assert ok and elapsed < 1


def test_criterion_02_fundamental_dimensions():
    t0 = time.time()
    got = tuple(weyl_dim(w) for w in L)
    ok = got == (133, 912, 8645, 365750, 27664, 1539, 56)
    elapsed = time.time() - t0
    report(2, ok and elapsed < 1, elapsed, f"weyl_dim fundamentals {got}")
    assert ok and elapsed < 1


def test_criterion_03_b_coefficients():
    t0 = time.time()
    ok = B_COEFFS == (72, 105, 144, 216, 165, 112, 57)
    for j in range(RANK):
        ok = ok and B_COEFFS[j] == eigenvalue(L[j])
    elapsed = time.time() - t0
    report(3, ok and elapsed < 1, elapsed,
           "b_j = (72,105,144,216,165,112,57) z_j, label typos resolved "
           "by formula")
    assert ok and elapsed < 1


def test_criterion_04_a_reconstruction():
    t0 = time.time()
    corpus = QuadraticCorpus.load_default()
    a, op, _ = build_a(corpus)
    printed = load_a_table()
    mismatched = [jk for jk in sorted(a) if a[jk] != printed[jk]]
    ok = sorted(printed) == sorted(a) and len(a) == 28 and not mismatched
    for j in range(RANK):
        zj = MultiPoly.variable(j + 1)
        ok = ok and apply(op, zj) == eigenvalue(L[j]) * zj
    elapsed = time.time() - t0
    report(4, ok and elapsed < 60, elapsed,
           f"{28 - len(mismatched)}/28 printed entries matched exactly "
           f"(mismatched: {mismatched}); eigen-identity exact on z_1..z_7")
    assert ok and elapsed < 60


def test_criterion_05_second_order_characters(operator):
    t0 = time.time()
    table = CharacterTable(operator)
    corpus = fixtures.load_chi_file(
        fixtures.data_path("second_order_chars.txt"))
    bad = [w for w, chi in sorted(corpus.items())
           if table.character_m1(w) != chi]
    ok = not bad and len(corpus) == 28
    elapsed = time.time() - t0
    report(5, ok and elapsed < 60, elapsed,
           f"method 1 reproduces all 28 degree-two characters exactly")
    assert ok and elapsed < 60


def test_criterion_06_third_order_characters(operator):
    t0 = time.time()
    table = CharacterTable(operator)
    corpus = fixtures.load_chi_file(
        fixtures.data_path("third_order_chars.txt"))
    weights = sorted(corpus)
    bad = [w for w in weights if table.character_m1(w) != corpus[w]]
    # Method 2 on a spread of at least 20, always including the largest
    chosen = weights[::4]
    big = (0, 0, 0, 3, 0, 0, 0)
    if big not in chosen:
        chosen.append(big)
    assert len(chosen) >= 20
    disagree = [w for w in chosen
                if table.character_m2(w) != corpus[w]]
    ok = not bad and not disagree and len(corpus) == 84
    elapsed = time.time() - t0
    report(6, ok and elapsed < 1800, elapsed,
           f"84/84 degree-three characters by method 1; method 2 agrees "
           f"on {len(chosen)} incl. 0003000")
    assert ok and elapsed < 1800


def test_criterion_07_cubic_series(operator):
    t0 = time.time()
    table = CharacterTable(operator)
    corpus = fixtures.load_mcg_file(fixtures.data_path("cubic_series.txt"))
    bad = []
    for exps in sorted(corpus):
        series = monomial_decompose(exps, table)
        if series.terms != corpus[exps]:
            bad.append(exps)
        want = 1
        for i in range(RANK):
            want *= FUNDAMENTAL_DIMS[i] ** exps[i]
        if series.total_dimension() != want:
            bad.append(exps)
    z43 = monomial_decompose((0, 0, 0, 3, 0, 0, 0), table)
    ok = (not bad and len(corpus) == 84
          and z43.terms.get((1, 1, 0, 0, 0, 1, 1), 0) == 5700
          and len(corpus[(3, 0, 0, 0, 0, 0, 0)]) == 11)
    elapsed = time.time() - t0
    report(7, ok and elapsed < 7200, elapsed,
           "84/84 cubic series exact incl. z4^3 (mult 5700 term) and the "
           "11-term z1^3; dimension sums exact")
    assert ok and elapsed < 7200


def test_criterion_08_quadratic_roundtrip(corpus, operator):
    t0 = time.time()
    table = CharacterTable(operator)
    results = quadratic_roundtrip(corpus, table)
    ok = all(results.values()) and len(results) == 28
    elapsed = time.time() - t0
    report(8, ok and elapsed < 300, elapsed,
           "cg_decompose reproduces all 28 pairwise fundamental series")
    assert ok and elapsed < 300


def test_criterion_09_random_eigenfunction_suite(operator):
    t0 = time.time()
    table = CharacterTable(operator)
    rng = random.Random(74207281)
    checked = 0
    max_support = 0
    ok = True
    while checked < 50:
        m = tuple(rng.choice((0, 0, 0, 1, 1, 2, 3, 4)) for _ in range(RANK))
        if m == ZERO_WEIGHT or weight_height2(m) > 480:
            continue
        support = dominant_weights_below(m)
        if len(support) > 5000:
            continue
        max_support = max(max_support, len(support))
        chi = table.character(m)
        eps = eigenvalue(m)
        if apply(operator, chi) != eps * chi:
            ok = False
        if chi.eval_integer(FUNDAMENTAL_DIMS) != weyl_dim(m):
            ok = False
        checked += 1
    elapsed = time.time() - t0
    report(9, ok and elapsed < 1800, elapsed,
           f"50 random dominant weights (max support {max_support} <= "
           f"5000): exact eigen-identity and dimension evaluation")
    assert ok and elapsed < 1800


def test_criterion_10_series_families(operator, corpus):
    t0 = time.time()
    table = CharacterTable(operator)
    ok = True
    for k in (1, 2, 3, 5, 6, 7):
        for n in (2, 3, 4):
            computed, closed = family(k, n, table)
            if computed.terms != closed:
                ok = False
        computed1, closed1 = family(k, 1, table)
        pair = (min(k, 7), max(k, 7))
        if not computed1.terms == closed1 == corpus.series[pair]:
            ok = False
    elapsed = time.time() - t0
    report(10, ok and elapsed < 600, elapsed,
           "z7 series families match closed forms for k in {1,2,3,5,6,7}, "
           "n in {2,3,4}, and reduce to the quadratic series at n=1")
    assert ok and elapsed < 600


def test_criterion_11_oracle(operator):
    t0 = time.time()
    table = CharacterTable(operator)
    ok = True
    for i in range(RANK):
        if freudenthal(L[i]).total() != FUNDAMENTAL_DIMS[i]:
            ok = False
    targets = list(L) + [(0, 0, 0, 0, 0, 0, 2), (1, 0, 0, 0, 0, 0, 1),
                         (0, 0, 0, 0, 0, 0, 3)]
    disagreeing = sum(torus_check(m, table.character(m), trials=20)
                      for m in targets)
    ok = ok and disagreeing == 0
    elapsed = time.time() - t0
    report(11, ok and elapsed < 600, elapsed,
           f"freudenthal totals match all 7 dimensions; torus identities "
           f"disagree mod 2^31-1 at {disagreeing} of 10 characters x 20 "
           f"points")
    assert ok and elapsed < 600
